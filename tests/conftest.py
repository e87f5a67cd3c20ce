import random

import pytest

from steinertree import Instance, random_instance

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance verdict lines in one block at the end."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def star3():
    """Three terminals around one hub, all spokes weight 1."""
    return Instance.build(4, [(1, 4, 1), (2, 4, 1), (3, 4, 1)], [1, 2, 3],
                          name="star3")


def make_batch(count, seed0=0, max_vertices=12, max_terminals=8, max_weight=20):
    """Seeded list of small random instances shared by the property tests."""
    out = []
    for i in range(count):
        rng = random.Random(seed0 + i)
        nv = rng.randint(4, max_vertices)
        nt = rng.randint(2, min(max_terminals, nv))
        extra = rng.randint(0, nv)
        out.append(random_instance(seed0 + i, nv, nt, extra_edges=extra,
                                   max_weight=max_weight, name=f"rnd-{seed0 + i}"))
    return out


FORCED = {
    "enumerate": "stage enumerate: candidate columns fail component validation",
    "phase 1": "stage phase 1: candidate .* re-selected at identical cost",
}


def force_invariant_failure(monkeypatch, stage):
    """Make the next solve fail a self-check inside `stage`: enumeration's
    column checks, or phase 1's guard against picking a candidate twice,
    by handing it the first pick again. FORCED[stage] matches the error."""
    from steinertree import components, phase1
    from steinertree.errors import InternalInvariantError

    if stage == "enumerate":
        def reject(table):
            raise InternalInvariantError("candidate columns fail component validation")
        monkeypatch.setattr(components.CandidateTable, "_check", reject)
    else:
        first = []
        pick = phase1.argmin_ratio

        def same_pick(num, den):
            if not first:
                first.append(pick(num, den))
            return first[0]
        monkeypatch.setattr(phase1, "argmin_ratio", same_pick)
