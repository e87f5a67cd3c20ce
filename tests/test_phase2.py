from conftest import make_batch
from steinertree import (
    CandidatePool,
    FullComponent,
    Instance,
    Tree,
    enumerate_full_components,
    metric_closure,
    minimum_spanning_tree,
    select_candidate,
)
from steinertree.core import ContractedTree
from steinertree.phase1 import ScoredTree, run_phase1
from steinertree.phase2 import run_phase2


def _twin_paths(origin_weights, base_weights):
    """Two contracted path trees 1-2-3-4 with the given edge weights."""
    origin = Tree.from_edges(
        [(i, i + 1, w) for i, w in enumerate(origin_weights, start=1)], [1, 2, 3, 4]
    )
    base = Tree.from_edges(
        [(i, i + 1, w) for i, w in enumerate(base_weights, start=1)], [1, 2, 3, 4]
    )
    return ContractedTree.from_tree(origin), ContractedTree.from_tree(base)


def _pair(u, v, cost):
    return FullComponent([u, v], [(u, v, cost)])


def _select(t_origin, t_base, pool):
    """select_candidate on every candidate's savings in the two trees."""
    return select_candidate(pool.costs, pool.savings_for(t_origin), pool.savings_for(t_base))


# ------------------------------
# Candidate selection
# ------------------------------

def test_select_smaller_ratio_wins_regardless_of_order():
    t_origin, t_base = _twin_paths([9, 9, 9], [1, 2, 3])
    # {1,2}: load 7-1=6, diff 9-1=8. {2,3}: load 4-2=2, diff 9-2=7.
    pool = CandidatePool([_pair(1, 2, 7), _pair(2, 3, 4)])
    assert _select(t_origin, t_base, pool) == (1, 2, 7)


def test_select_tie_goes_to_earlier_candidate():
    t_origin, t_base = _twin_paths([9, 9, 9], [1, 2, 3])
    pool = CandidatePool([_pair(1, 2, 5), _pair(1, 2, 5)])
    assert _select(t_origin, t_base, pool) == (0, 4, 8)


def test_select_nonpositive_load_beats_positive():
    t_origin, t_base = _twin_paths([9, 9, 9], [1, 2, 3])
    # {3,4}: load 2-3=-1, diff 6; {1,2}: load 4, diff 8.
    pool = CandidatePool([_pair(1, 2, 5), _pair(3, 4, 2)])
    assert _select(t_origin, t_base, pool) == (1, -1, 6)


def test_select_decides_float_ties_exactly():
    # Around 2**57 neighbouring loads round to one float64, so the float
    # ratios tie; the exact comparison still prefers the smaller load.
    w = 2**58
    t_origin, t_base = _twin_paths([w, w, w], [1, 1, 1])
    pool = CandidatePool([_pair(1, 2, 2**57 + 3), _pair(3, 4, 2**57 + 1)])
    assert _select(t_origin, t_base, pool) == (1, 2**57, w - 1)


def test_select_none_without_positive_difference():
    t_origin, t_base = _twin_paths([1, 1, 1], [9, 9, 9])
    pool = CandidatePool([_pair(1, 2, 5), _pair(2, 4, 5)])
    assert _select(t_origin, t_base, pool) is None


# ------------------------------
# Full runs
# ------------------------------

def _run_both(inst, k):
    closure = metric_closure(inst)
    pool = CandidatePool(enumerate_full_components(inst, closure, k))
    t0 = minimum_spanning_tree(sorted(inst.terminals), closure.distance)
    p1 = run_phase1(inst, closure, pool, t0)
    p2 = run_phase2(inst, pool, t0, p1.start, p1.base)
    return p1, p2


def test_star3_run(star3):
    p1, p2 = _run_both(star3, 3)
    assert p2.solution.total_cost == 3
    assert not p2.stalled
    assert p2.trace["initial_gap"] == 2
    rows = p2.trace["iterations"]
    assert len(rows) == 1
    assert rows[0]["terminals"] == [1, 2, 3]
    assert rows[0]["load"] == 1 and rows[0]["saving_diff"] == 2
    assert rows[0]["f"] == [1, 2]
    assert rows[0]["origin_cost"] == rows[0]["base_cost"] == 0


def test_zero_gap_means_zero_iterations():
    inst = Instance.build(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)], [1, 2, 3, 4])
    p1, p2 = _run_both(inst, 4)
    assert p2.trace["initial_gap"] == 0
    assert p2.trace["iterations"] == []
    assert p2.solution.total_cost == 3


def test_two_terminal_instance():
    inst = Instance.build(3, [(1, 2, 4), (2, 3, 4), (1, 3, 9)], [1, 3])
    p1, p2 = _run_both(inst, 2)
    assert p2.solution.total_cost == 8


def test_telescoping_and_validity_batch():
    for inst in make_batch(30, seed0=4000):
        for k in (3, 4):
            p1, p2 = _run_both(inst, k)
            assert not p2.stalled
            rows = p2.trace["iterations"]
            # The differences burn down the whole initial gap, exactly.
            assert sum(r["saving_diff"] for r in rows) == p2.trace["initial_gap"]
            if rows:
                assert rows[-1]["origin_cost"] == rows[-1]["base_cost"]
            # Chosen components pairwise share at most one terminal.
            terms = [set(e.comp.terminals) for e in p2.chosen]
            for i in range(len(terms)):
                for j in range(i + 1, len(terms)):
                    assert len(terms[i] & terms[j]) <= 1
            # Output validity.
            assert set(inst.terminals) <= set(p2.solution.nodes)
            deg = {}
            for u, v, _ in p2.solution.edges:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            for node, d in deg.items():
                if d == 1:
                    assert node in inst.terminals


def test_forced_stall_is_reported_in_band(star3):
    # A pool holding a single pair cannot close the star3 gap: after one
    # pick nothing has a positive difference and the gap is still open.
    closure = metric_closure(star3)
    t0 = minimum_spanning_tree([1, 2, 3], closure.distance)
    pool = CandidatePool([_pair(1, 2, 2)])
    base = Tree.from_edges([(1, 2, 1), (1, 3, 1)], [1, 2, 3])
    origin, base = (ContractedTree.from_tree(t) for t in (t0, base))
    p2 = run_phase2(star3, pool, t0, ScoredTree(origin, pool.savings_for(origin)),
                    ScoredTree(base, pool.savings_for(base)))
    assert p2.stalled
    assert p2.trace["stalled"] is True
    assert set(star3.terminals) <= set(p2.solution.nodes)


def test_phase2_deterministic():
    inst = make_batch(1, seed0=4100)[0]
    a = _run_both(inst, 3)[1]
    b = _run_both(inst, 3)[1]
    assert a.trace == b.trace
    assert a.solution.edges == b.solution.edges
