"""Reading and writing STP instance files.

Line-oriented: a Graph section declares node/edge counts and E lines, a
Terminals section declares the terminal list. Keywords are matched case
insensitively, blank lines and # comments are skipped, unknown sections are
skipped wholesale. Weights may be integers, decimals, or fractions; they
are scaled to exact integers on load.
"""
from __future__ import annotations

import os
from fractions import Fraction

from .core import Instance, format_cost
from .errors import InvalidInstanceError, StpSyntaxError


def parse_stp(text: str, name: str = "") -> Instance:
    vertex_count = None
    edges_declared = None
    terms_declared = None
    edges: list[tuple[int, int, Fraction]] = []
    terminals: list[int] = []
    seen: set[str] = set()
    section = None  # None | "graph" | "terminals" | "skip"
    skipped_name = None
    comment_name = None

    def syntax(msg: str, ln: int) -> StpSyntaxError:
        return StpSyntaxError(msg, ln)

    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        key = tokens[0].upper()

        if section is None:
            if key == "SECTION":
                if len(tokens) < 2:
                    raise syntax("SECTION without a name", ln)
                sec = tokens[1].lower()
                if sec in ("graph", "terminals"):
                    if sec in seen:
                        raise syntax(f"duplicate section {tokens[1]}", ln)
                    seen.add(sec)
                    section = sec
                else:
                    section = "skip"
                    skipped_name = sec
            elif key == "EOF":
                break
            # anything else outside a section (magic header etc.) is ignored
            continue

        if key == "END":
            section = None
            continue

        if section == "skip":
            if skipped_name == "comment" and key == "NAME" and len(tokens) >= 2:
                comment_name = " ".join(tokens[1:]).strip().strip('"')
            continue

        if section == "graph":
            if key == "NODES":
                vertex_count = _int_field(tokens, ln, "Nodes")
            elif key == "EDGES":
                edges_declared = _int_field(tokens, ln, "Edges")
            elif key == "E":
                if len(tokens) != 4:
                    raise syntax("E line needs: E <u> <v> <weight>", ln)
                try:
                    u, v = int(tokens[1]), int(tokens[2])
                    w = Fraction(tokens[3])
                except (ValueError, ZeroDivisionError):
                    raise syntax(f"cannot parse edge line {line!r}", ln) from None
                edges.append((u, v, w))
            elif key == "A":
                raise syntax("directed arcs are not supported", ln)
            else:
                raise syntax(f"unexpected {tokens[0]!r} in Graph section", ln)
        elif section == "terminals":
            if key == "TERMINALS":
                terms_declared = _int_field(tokens, ln, "Terminals")
            elif key == "T":
                if len(tokens) != 2:
                    raise syntax("T line needs: T <vertex>", ln)
                try:
                    terminals.append(int(tokens[1]))
                except ValueError:
                    raise syntax(f"cannot parse terminal line {line!r}", ln) from None
            else:
                raise syntax(f"unexpected {tokens[0]!r} in Terminals section", ln)

    if section is not None:
        raise StpSyntaxError("section never closed with END", len(text.splitlines()))
    if "graph" not in seen:
        raise InvalidInstanceError("missing Graph section")
    if "terminals" not in seen:
        raise InvalidInstanceError("missing Terminals section")
    if vertex_count is None:
        raise InvalidInstanceError("Graph section never declared Nodes")
    if edges_declared is not None and edges_declared != len(edges):
        raise InvalidInstanceError(
            f"Graph section declares {edges_declared} edges but lists {len(edges)}"
        )
    if terms_declared is not None and terms_declared != len(terminals):
        raise InvalidInstanceError(
            f"Terminals section declares {terms_declared} terminals but lists {len(terminals)}"
        )
    return Instance.build(vertex_count, edges, terminals,
                          name=name or comment_name or "")


def _int_field(tokens: list[str], ln: int, what: str) -> int:
    if len(tokens) != 2:
        raise StpSyntaxError(f"{what} line needs one integer", ln)
    try:
        return int(tokens[1])
    except ValueError:
        raise StpSyntaxError(f"cannot parse {what} count {tokens[1]!r}", ln) from None


def load_stp(path: str) -> Instance:
    """Read an STP file. Raises StpSyntaxError, naming the file and the
    byte offset, when it is not UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StpSyntaxError(f"{path} is not UTF-8 text: byte {exc.start} is "
                             f"{data[exc.start]:#04x}", data.count(b"\n", 0, exc.start) + 1
                             ) from None
    default = os.path.splitext(os.path.basename(path))[0]
    inst = parse_stp(text)
    if not inst.name:
        inst = Instance(inst.vertex_count, inst.edges, inst.terminals,
                        default, inst.scale)
    return inst


def write_stp(instance: Instance) -> str:
    lines = []
    if instance.name:
        lines += ["SECTION Comment", f'Name "{instance.name}"', "END", ""]
    lines += ["SECTION Graph",
              f"Nodes {instance.vertex_count}",
              f"Edges {len(instance.edges)}"]
    for u, v, w in instance.edges:
        lines.append(f"E {u} {v} {format_cost(w, instance.scale)}")
    lines += ["END", "", "SECTION Terminals",
              f"Terminals {len(instance.terminals)}"]
    for t in sorted(instance.terminals):
        lines.append(f"T {t}")
    lines += ["END", "", "EOF", ""]
    return "\n".join(lines)


def save_stp(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_stp(instance))
