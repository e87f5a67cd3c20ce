import numpy as np
import pytest

import oracles
from conftest import candidate_table, family, make_batch, recording_scans, tie_instances
from steinertree import (
    CandidatePool,
    Instance,
    RunConfig,
    Tree,
    enumerate_full_components,
    metric_closure,
    minimum_spanning_tree,
    select_candidate,
    solve,
)
from steinertree.components import rows_at_most
from steinertree.core import ContractedTree
from steinertree.errors import InternalInvariantError
from steinertree.phase1 import ScoredTree, run_phase1
from steinertree.phase2 import PREFIX, FloorPrefix, _floor, run_phase2


def _twin_paths(origin_weights, base_weights):
    """Two contracted path trees 1-2-3-4 with the given edge weights."""
    origin = Tree.from_edges(
        [(i, i + 1, w) for i, w in enumerate(origin_weights, start=1)], [1, 2, 3, 4]
    )
    base = Tree.from_edges(
        [(i, i + 1, w) for i, w in enumerate(base_weights, start=1)], [1, 2, 3, 4]
    )
    return ContractedTree.from_tree(origin), ContractedTree.from_tree(base)


def _pairs(*pairs):
    """A pool of the given (u, v, cost) pairs, in their order."""
    return CandidatePool(candidate_table([p] for p in pairs))


def _select(t_origin, t_base, pool):
    """select_candidate on every candidate's savings in the two trees."""
    return select_candidate(pool.costs, pool.savings_for(t_origin), pool.savings_for(t_base))


# ------------------------------
# Candidate selection
# ------------------------------

def test_select_smaller_ratio_wins_regardless_of_order():
    t_origin, t_base = _twin_paths([9, 9, 9], [1, 2, 3])
    # {1,2}: load 7-1=6, diff 9-1=8. {2,3}: load 4-2=2, diff 9-2=7.
    pool = _pairs((1, 2, 7), (2, 3, 4))
    assert _select(t_origin, t_base, pool) == (1, 2, 7)


def test_select_tie_goes_to_earlier_candidate():
    t_origin, t_base = _twin_paths([9, 9, 9], [1, 2, 3])
    pool = _pairs((1, 2, 5), (1, 2, 5))
    assert _select(t_origin, t_base, pool) == (0, 4, 8)


def test_select_nonpositive_load_beats_positive():
    t_origin, t_base = _twin_paths([9, 9, 9], [1, 2, 3])
    # {3,4}: load 2-3=-1, diff 6; {1,2}: load 4, diff 8.
    pool = _pairs((1, 2, 5), (3, 4, 2))
    assert _select(t_origin, t_base, pool) == (1, -1, 6)


def test_select_decides_float_ties_exactly():
    # Around 2**57 neighbouring loads round to one float64, so the float
    # ratios tie; the exact comparison still prefers the smaller load.
    w = 2**58
    t_origin, t_base = _twin_paths([w, w, w], [1, 1, 1])
    pool = _pairs((1, 2, 2**57 + 3), (3, 4, 2**57 + 1))
    assert _select(t_origin, t_base, pool) == (1, 2**57, w - 1)


def test_select_none_without_positive_difference():
    t_origin, t_base = _twin_paths([1, 1, 1], [9, 9, 9])
    pool = _pairs((1, 2, 5), (2, 4, 5))
    assert _select(t_origin, t_base, pool) is None


# ------------------------------
# Full runs
# ------------------------------

def _run_both(inst, k):
    closure = metric_closure(inst)
    pool = CandidatePool(enumerate_full_components(inst, closure, k))
    t0 = minimum_spanning_tree(inst.terminals, closure.block(sorted(inst.terminals)))
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
    t0 = minimum_spanning_tree([1, 2, 3], closure.block([1, 2, 3]))
    pool = _pairs((1, 2, 2))
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


# ------------------------------
# Picks over a floor prefix
# ------------------------------

def _start(n, seed, gap=40):
    """Synthetic start savings of n rows, with positive loads."""
    rng = np.random.default_rng(seed)
    base0 = rng.integers(0, 40, n)
    origin0 = np.maximum(base0 + rng.integers(-10, 30, n), 0)
    costs = base0 + rng.integers(1, 60, n)
    return costs, origin0, base0, gap


def _fall(origin, base, gap, seed):
    """Later savings: both fall, and no difference exceeds the gap."""
    rng = np.random.default_rng(seed)
    base = np.maximum(base - rng.integers(0, 3, len(base)), 0)
    origin = np.maximum(origin - rng.integers(0, 4, len(origin)), 0)
    return np.minimum(origin, base + gap), base


def _scores(origin, base):
    return lambda rows: (origin[rows], base[rows])


def test_floor_picks_equal_the_full_scan_while_savings_fall():
    for seed in range(6):
        costs, origin, base, gap = _start(5000, seed)
        prefix = FloorPrefix(costs, origin, base, gap)
        assert PREFIX <= len(prefix.rows) < len(costs)
        for step in range(8):
            want = select_candidate(costs, origin, base)
            assert prefix.pick(_scores(origin, base), gap) == want
            gap -= 2
            origin, base = _fall(origin, base, gap, seed * 100 + step)
        assert prefix.scored < 8 * len(costs)


def test_floor_pick_from_a_pool_smaller_than_the_prefix():
    costs, origin, base, gap = _start(PREFIX - 24, 3)
    prefix = FloorPrefix(costs, origin, base, gap)
    live = np.flatnonzero(np.minimum(origin, gap) > 0)
    assert prefix.tau is None and (prefix.rows == live).all()
    for step in range(3):
        assert prefix.pick(_scores(origin, base), gap) == select_candidate(costs, origin, base)
        origin, base = _fall(origin, base, gap, step)
    assert prefix.scored == 3 * len(live)


def test_floor_prefix_without_an_eligible_row_doubles():
    costs, origin, base, gap = _start(5000, 4)
    prefix = FloorPrefix(costs, origin, base, gap)
    first = prefix.rows
    # The first prefix's rows lose their difference; the rest keep theirs.
    base = base.copy()
    base[first] = np.minimum(origin, base)[first]
    origin = origin.copy()
    origin[first] = base[first]
    assert prefix.pick(_scores(origin, base), gap) == select_candidate(costs, origin, base)
    assert len(prefix.rows) >= 2 * len(first)
    assert prefix.scored == len(first) + len(prefix.rows)


def test_floor_best_above_tau_raises_tau_and_rescans():
    costs, origin, base, gap = _start(5000, 5)
    prefix = FloorPrefix(costs, origin, base, gap)
    first, tau = prefix.rows, prefix.tau
    # The prefix's rows now have their costs as loads and a difference of
    # 1; the rest keep their start savings.
    origin, base = origin.copy(), base.copy()
    origin[first], base[first] = 1, 0
    best = select_candidate(costs[first], origin[first], base[first])
    assert best[1] * tau[1] > tau[0] * best[2]
    want = select_candidate(costs, origin, base)
    assert prefix.pick(_scores(origin, base), gap) == want
    assert prefix.tau == best[1:] and len(prefix.rows) > len(first)
    assert prefix.scored == len(first) + len(prefix.rows)
    assert want[0] not in first.tolist()


def test_floor_ratio_zero_picks_end():
    # More than PREFIX rows have load 0: tau is itself a ratio-0 pair, and
    # a ratio-0 best must certify at equality.
    costs, origin, base, gap = _start(5000, 6)
    costs = costs.copy()
    costs[::2] = base[::2]
    prefix = FloorPrefix(costs, origin, base, gap)
    assert prefix.tau[0] == 0
    for _ in range(3):
        i, load, diff = prefix.pick(_scores(origin, base), gap)
        assert load == 0 and (i, load, diff) == select_candidate(costs, origin, base)
        assert prefix.tau[0] == 0
    assert prefix.scored == 3 * len(prefix.rows)


def test_floor_rounded_above_its_exact_value_keeps_the_row():
    # Above 2**53 both int64 operands round to float64 before numpy
    # divides them, so the floor reads 0.7119303260748973 where Python's
    # correctly rounded load / cap is 0.7119303260748971; the row's exact
    # floor equals num/den, so RATIO_TOLERANCE's widening must keep it.
    load, cap = 2633996730456453621, 3699795659750206175
    floor = _floor(np.array([load]), np.array([cap]))
    assert floor[0] == 0.7119303260748973 and load / cap == 0.7119303260748971
    assert rows_at_most(floor, load, cap).tolist() == [0]


def test_floor_keeps_a_negative_start_load_in_every_prefix():
    # Loads of -gap/2 on 2,000 rows put tau at -1/2. The last row's floor,
    # -1/gap, is above it, but a negative load is no bound: with its
    # difference down to 1 the row's ratio is -1.
    costs, origin, base, gap = _start(5000, 7)
    costs, origin = costs.copy(), np.maximum(origin, base + gap)
    costs[:2000] = base[:2000] - gap // 2
    row = len(costs) - 1
    costs[row] = base[row] - 1
    prefix = FloorPrefix(costs, origin, base, gap)
    assert prefix.tau == (-gap // 2, gap)
    assert row in prefix.rows.tolist()
    later = origin.copy()
    later[row] = base[row] + 1
    assert prefix.pick(_scores(later, base), gap) == (row, -1, 1)


def test_floor_stall_scans_every_live_row():
    costs, origin, base, gap = _start(5000, 8)
    prefix = FloorPrefix(costs, origin, base, gap)
    live = np.flatnonzero(np.minimum(origin, gap) > 0)
    assert prefix.pick(_scores(np.minimum(origin, base), np.minimum(origin, base)), gap) is None
    assert prefix.tau is None and (prefix.rows == live).all()
    # With no live row, a pick stalls without scoring anything.
    none = FloorPrefix(costs, np.zeros_like(origin), base, gap)
    assert none.pick(_scores(origin, base), gap) is None and none.scored == 0


def test_floor_guard_names_the_row_and_the_iteration():
    costs, origin, base, gap = _start(5000, 9)
    prefix = FloorPrefix(costs, origin, base, gap)
    prefix.pick(_scores(origin, base), gap)
    row = int(prefix.rows[7])
    raised = base.copy()
    raised[row] += 1
    with pytest.raises(InternalInvariantError, match=f"^phase-2 iteration 2, row {row}: load"):
        prefix.pick(_scores(origin, raised), gap)
    wide = origin.copy()
    wide[row] = base[row] + gap + 1
    with pytest.raises(InternalInvariantError, match=f"^phase-2 iteration 3, row {row}: "):
        prefix.pick(_scores(wide, base), gap)


def _phase2_cases():
    cases = [(inst, k) for inst in make_batch(60, seed0=4200) for k in (3, 4)]
    cases += [(inst, k) for inst in tie_instances() for k in (3, 4)]
    cases += [(family(n, seed), 3) for n in (40, 60, 80, 100) for seed in (1, 2)]
    cases += [(family(n, 1), 4) for n in (40, 60)]
    return cases


def test_phase2_picks_equal_the_full_scan_at_every_iteration():
    longest = 0
    for inst, k in _phase2_cases():
        closure = metric_closure(inst)
        pool = CandidatePool(enumerate_full_components(inst, closure, k))
        t0 = minimum_spanning_tree(inst.terminals, closure.block(sorted(inst.terminals)))
        p1 = run_phase1(inst, closure, pool, t0)
        want, stalled = oracles.reference_phase2(inst, pool, p1.start, p1.base)
        p2 = run_phase2(inst, pool, t0, p1.start, p1.base)
        assert p2.trace["iterations"] == want and p2.stalled == stalled, (inst.name, k)
        longest = max(longest, len(want))
    assert longest >= 10


def test_later_picks_score_a_fifth_of_the_pool():
    inst = family(80, 1000)
    with recording_scans() as picks:
        solve(inst, RunConfig(k=3))
    assert len(picks) >= 5
    for rows, scored in picks[1:]:
        assert scored <= rows // 5, picks
