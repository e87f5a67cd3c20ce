import random
import time
from fractions import Fraction

import pytest

from conftest import make_batch
from steinertree import (
    InputError,
    Instance,
    InvalidInstanceError,
    RunConfig,
    StpSyntaxError,
    load_stp,
    parse_stp,
    save_stp,
    solve,
    write_stp,
)
from steinertree.core import VERTEX_LIMIT

STAR3_TEXT = """\
33D32945 STP File, STP Format Version 1.0

SECTION Comment
Name "star3"
Creator "test"
END

SECTION Graph
Nodes 4
Edges 3
E 1 4 1
E 2 4 1
E 3 4 1
END

SECTION Terminals
Terminals 3
T 1
T 2
T 3
END

EOF
"""


def test_parse_star3():
    inst = parse_stp(STAR3_TEXT)
    assert inst.vertex_count == 4
    assert len(inst.edges) == 3
    assert inst.terminals == frozenset({1, 2, 3})
    assert inst.name == "star3"  # picked up from the Comment section
    assert inst.scale == 1


def test_parse_is_case_insensitive_and_skips_comments():
    text = """\
section graph
nodes 2
edges 1
# a comment line
e 1 2 7
end
section terminals
terminals 2
t 1
t 2
end
eof
"""
    inst = parse_stp(text)
    assert inst.vertex_count == 2
    assert inst.edges == ((1, 2, 7),)


def test_parse_skips_unknown_sections():
    text = """\
SECTION Presolve
Fixed 3
END
SECTION Graph
Nodes 2
Edges 1
E 1 2 4
END
SECTION Terminals
Terminals 2
T 1
T 2
END
EOF
"""
    assert parse_stp(text).vertex_count == 2


def test_parse_fractional_weights():
    text = """\
SECTION Graph
Nodes 3
Edges 2
E 1 2 1.5
E 2 3 2
END
SECTION Terminals
Terminals 2
T 1
T 3
END
EOF
"""
    inst = parse_stp(text)
    assert inst.scale == 2
    assert [w for _, _, w in inst.edges] == [3, 4]
    assert inst.display_cost(3) == "1.5"


def _pair_text(weight):
    """A 2-vertex file whose one edge, on line 4, has the weight token `weight`."""
    return (f"SECTION Graph\nNodes 2\nEdges 1\nE 1 2 {weight}\nEND\n"
            "SECTION Terminals\nTerminals 2\nT 1\nT 2\nEND\nEOF\n")


def _built(weight):
    """What parsing a weight meant before its digits and exponent were
    checked: Instance.build on Fraction(token), or the error it raises."""
    try:
        inst = Instance.build(2, [(1, 2, Fraction(weight))], [1, 2])
    except InvalidInstanceError as err:
        return type(err)
    return inst.edges, inst.scale


@pytest.mark.parametrize("weight", ["1e-4000000", "1e4000000", "-1e-4000000",
                                    "1_0.5e-4_000_000", "3E+4000000"])
def test_huge_weight_exponent_is_rejected_before_fraction(weight):
    # Fraction would spend seconds on the power of ten; the digits and the
    # exponent alone show the weight or its denominator is 2**59 or more.
    start = time.perf_counter()
    with pytest.raises(StpSyntaxError, match=r"^line 4: edge weight .* 2\*\*59") as err:
        parse_stp(_pair_text(weight))
    assert time.perf_counter() - start < 0.1
    assert err.value.line == 4


def test_zero_weight_reads_without_its_exponent():
    start = time.perf_counter()
    for weight in ("0e-4000000", "-0.000e4000000", "0_0.0E+4000000"):
        inst = parse_stp(_pair_text(weight))
        assert inst.edges == ((1, 2, 0),) and inst.scale == 1
    assert time.perf_counter() - start < 0.1
    for weight in ("0e4_", "0e", ".e5", "0.0e1.5"):
        with pytest.raises(StpSyntaxError, match="cannot parse edge line"):
            parse_stp(_pair_text(weight))


# Just inside and just outside each bound: 2**59 - 1 and 2**59 as values,
# 2**-58 and 2**-59 as denominators, and powers of ten on either side.
BOUND_WEIGHTS = ["5.76460752303423487e17", "576460752303423487", "57646075230342348.7e1",
                 "5.76460752303423488e17", "9.99999999999999999e17", "1e18", "10e17",
                 "3.4694469519536141888238489627838134765625e-18",
                 "1.73472347597680709441192448139190673828125e-18",
                 "1e-17", "1e-58", "5e-59", "1e-59", "12.5e-60", "0.000125e-55", "4e-59"]


def _assert_parses_as_fraction_did(weight):
    # A weight the digit check refuses is one Instance.build refused anyway.
    want = _built(weight)
    try:
        inst = parse_stp(_pair_text(weight))
    except StpSyntaxError as err:
        assert "edge weight" in str(err) and want is InvalidInstanceError
        return "refused"
    except InvalidInstanceError as err:
        assert type(err) is want
        return "rejected"
    assert (inst.edges, inst.scale) == want
    return "parsed"


@pytest.mark.parametrize("weight", BOUND_WEIGHTS)
def test_weights_near_the_bounds_parse_as_fraction_did(weight):
    _assert_parses_as_fraction_did(weight)


def test_weight_check_agrees_with_fraction_on_random_decimals():
    rng = random.Random(17)
    seen = set()
    for _ in range(2000):
        whole = "".join(rng.choices("0123456789", k=rng.randint(0, 6)))
        frac = "".join(rng.choices("0123456789", k=rng.randint(0 if whole else 1, 25)))
        mantissa = whole + "." + frac if frac else whole
        seen.add(_assert_parses_as_fraction_did(mantissa + rng.choice(
            ["", f"e{rng.randint(-80, 30)}", f"E+{rng.randint(0, 20)}"])))
    assert seen == {"refused", "rejected", "parsed"}


def test_parse_errors_carry_line_numbers():
    text = "SECTION Graph\nNodes 2\nE 1 2\nEND\n"
    with pytest.raises(StpSyntaxError) as err:
        parse_stp(text)
    assert err.value.line == 3

    with pytest.raises(StpSyntaxError):
        parse_stp("SECTION Graph\nA 1 2 3\nEND\n")  # directed arcs

    with pytest.raises(StpSyntaxError):
        parse_stp("SECTION Graph\nWAT 1\nEND\n")

    with pytest.raises(StpSyntaxError):
        parse_stp("SECTION Graph\nNodes 2\n")  # never closed


def test_parse_missing_sections():
    with pytest.raises(InvalidInstanceError) as err:
        parse_stp("SECTION Graph\nNodes 2\nEdges 0\nEND\nEOF\n")
    assert "Terminals" in str(err.value)

    with pytest.raises(InvalidInstanceError) as err:
        parse_stp("SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n")
    assert "Graph" in str(err.value)


def test_parse_declared_count_mismatch():
    text = """\
SECTION Graph
Nodes 2
Edges 2
E 1 2 4
END
SECTION Terminals
Terminals 2
T 1
T 2
END
EOF
"""
    with pytest.raises(InvalidInstanceError) as err:
        parse_stp(text)
    assert "declares 2 edges" in str(err.value)


def test_parse_duplicate_section():
    text = "SECTION Graph\nNodes 2\nEND\nSECTION Graph\nNodes 2\nEND\n"
    with pytest.raises(StpSyntaxError):
        parse_stp(text)


def test_round_trip(tmp_path):
    for inst in make_batch(10, seed0=5000):
        path = str(tmp_path / f"{inst.name}.stp")
        save_stp(inst, path)
        back = load_stp(path)
        assert back.vertex_count == inst.vertex_count
        assert back.edges == inst.edges
        assert back.terminals == inst.terminals
        assert back.name == inst.name
        assert back.scale == inst.scale


def test_round_trip_fractional(tmp_path):
    inst = Instance.build(3, [(1, 2, "0.5"), (2, 3, "1/3")], [1, 3], name="frac")
    path = str(tmp_path / "frac.stp")
    save_stp(inst, path)
    back = load_stp(path)
    assert back.scale == inst.scale == 6
    assert back.edges == inst.edges


def test_load_uses_filename_when_unnamed(tmp_path):
    inst = Instance.build(2, [(1, 2, 3)], [1, 2])
    text = write_stp(inst)
    path = tmp_path / "pair-instance.stp"
    path.write_text(text)
    assert load_stp(str(path)).name == "pair-instance"


def test_write_contains_exact_weights():
    inst = Instance.build(3, [(1, 2, "1.5"), (2, 3, 2)], [1, 3], name="x")
    text = write_stp(inst)
    assert "E 1 2 1.5" in text
    assert "E 2 3 2" in text
    assert text.endswith("EOF\n")


def _sparse_text(nodes):
    """A 3-star on vertices 1..4 declared inside a graph of `nodes` vertices."""
    return STAR3_TEXT.replace("Nodes 4", f"Nodes {nodes}")


def test_huge_vertex_count_with_few_edges_solves_quickly():
    # Memory and time follow the edges, not the declared vertex count.
    start = time.perf_counter()
    inst = parse_stp(_sparse_text(10**9))
    result = solve(inst, RunConfig(k=3))
    assert time.perf_counter() - start < 2.0
    assert inst.vertex_count == 10**9
    assert result.solution_cost == 3
    assert result.report.ok


def test_vertex_count_limit_boundary():
    # At the limit the 3-star's interior node gets id VERTEX_LIMIT + 1,
    # still an int64; one vertex more is rejected up front.
    result = solve(parse_stp(_sparse_text(VERTEX_LIMIT)), RunConfig(k=3))
    assert result.solution_cost == 3
    for nodes in (VERTEX_LIMIT + 1, 10**20):
        with pytest.raises(InvalidInstanceError, match="vertex count"):
            parse_stp(_sparse_text(nodes))


FUZZ_TOKENS = ["0", "1", "-1", "-0", "1.5", "1/3", "1/0", "0/0", "1e400", "nan",
               "inf", "x", "", "4611686018427387905", "10" * 12, "9" * 30,
               "SECTION", "END", "EOF", "E", "T", "Nodes", "Terminals"]
FUZZ_LINES = ["SECTION Graph", "SECTION Terminals", "SECTION Comment", "END", "EOF",
              "Nodes 100000000000", "Nodes 0", "Edges 1", "Terminals 1", "T 4",
              "E 1 1 1", "E 1 2 -3", "A 1 2 3", "Name"]


def _mutate(text, rng):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(lines) + 1)
        op = rng.choices(["delete", "insert", "token", "swap", "truncate"],
                         weights=[2, 3, 4, 1, 1])[0]
        if op == "delete" and lines:
            del lines[min(at, len(lines) - 1)]
        elif op == "insert":
            lines.insert(at, rng.choice(FUZZ_LINES))
        elif op == "token" and lines:
            i = min(at, len(lines) - 1)
            tokens = lines[i].split() or [""]
            tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
        elif op == "swap" and len(lines) > 1:
            i, j = rng.sample(range(len(lines)), 2)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines = lines[:at]
    return "\n".join(lines) + "\n"


def test_parser_mutation_fuzz_raises_only_input_errors():
    # A parse may fail only with an InputError; whatever parses also solves.
    rng = random.Random(61)
    seeds = [STAR3_TEXT, write_stp(Instance.build(
        3, [(1, 2, "0.5"), (2, 3, "1/3")], [1, 3], name="frac"))]
    seeds += [write_stp(inst) for inst in make_batch(4, seed0=6100, max_vertices=8)]
    parsed = 0
    for _ in range(600):
        text = _mutate(rng.choice(seeds), rng)
        try:
            inst = parse_stp(text)
        except InputError:
            continue
        parsed += 1
        assert solve(inst, RunConfig(k=3)).report.ok
    assert 0 < parsed < 600
