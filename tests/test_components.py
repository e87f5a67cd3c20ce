import gc
import itertools
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from conftest import (
    candidate_table,
    components_of,
    counting_components,
    family,
    interior_counts,
    make_batch,
    reading_trees,
    recording_work_dtypes,
    tie_instances,
)
from steinertree import (
    CandidatePool,
    FullComponent,
    Instance,
    RunConfig,
    Tree,
    enumerate_full_components,
    grid_instance,
    loss_contract,
    metric_closure,
    minimum_spanning_tree,
    random_instance,
    reduce_to_basic,
    solve,
)
from steinertree import components, dreyfus_wagner
from steinertree.components import CandidateTable
from steinertree.core import ContractedTree
from steinertree.errors import (
    InternalInvariantError,
    KRestrictionError,
    LimitExceededError,
    UnknownNodeError,
)
from steinertree.phase1 import run_phase1
from steinertree.phase2 import run_phase2


def _star_component():
    # Terminals 1,2,3 around interior node 5 (a copy of graph vertex 4).
    return FullComponent([1, 2, 3], [(1, 5, 1), (2, 5, 1), (3, 5, 1)], {5: 4})


def _closure_view(inst):
    c = metric_closure(inst)
    t = minimum_spanning_tree(inst.terminals, c.block(sorted(inst.terminals)))
    return c, ContractedTree.from_tree(t)


# ------------------------------
# Component shape validation
# ------------------------------

def test_component_rejects_internal_terminal():
    with pytest.raises(InternalInvariantError):
        FullComponent([1, 2, 3], [(1, 2, 1), (2, 3, 1)])  # terminal 2 interior


def test_component_rejects_non_tree():
    with pytest.raises(InternalInvariantError):
        FullComponent([1, 2], [(1, 5, 1), (2, 5, 1), (1, 2, 1)], {5: 5})


def test_component_rejects_an_interior_cycle_with_a_tree_edge_count():
    # Six nodes, five edges, but 5-6-7 close a cycle and cut 2-8 off: only
    # the connected-parts check sees it.
    with pytest.raises(InternalInvariantError, match="do not form a tree"):
        FullComponent([1, 2], [(1, 5, 1), (5, 6, 1), (6, 7, 1), (5, 7, 1), (2, 8, 1)],
                      {5: 5, 6: 6, 7: 7, 8: 8})


def test_component_rejects_missing_origin():
    with pytest.raises(InternalInvariantError):
        FullComponent([1, 2], [(1, 5, 1), (2, 5, 1)])  # node 5 has no origin


# ------------------------------
# Loss
# ------------------------------

def test_loss_star():
    comp = _star_component()
    forest, cost = oracles.compute_loss(comp)
    assert cost == 1
    # Tie among three unit spokes resolves to the smallest endpoint pair.
    assert forest == ((1, 5, 1),)


def test_loss_forest_is_zero_clique_mst_for_a_small_interior_id():
    # Interior node 1 lies below every terminal and has two zero spokes.
    # Both come before any zero-clique edge from terminal 2, so the MST of
    # the component plus the clique keeps both: the loss forest is that MST
    # minus the clique, not just the lightest spoke.
    comp = FullComponent([2, 3, 4], [(1, 2, 0), (1, 3, 0), (1, 4, 7)], {1: 9})
    zero = [(a, b, 0) for a, b in itertools.combinations(comp.terminals, 2)]
    kept = oracles.reference_kruskal_indices([1, 2, 3, 4], zero + list(comp.edges))
    assert comp.loss_forest_indices == tuple(i - len(zero) for i in kept if i >= len(zero))
    assert comp.loss_forest_indices == (0, 1)
    assert comp.loss == 0
    assert loss_contract(comp).cost == 7


def test_loss_pair_is_zero():
    comp = FullComponent([1, 2], [(1, 2, 7)])
    assert comp.loss == 0
    assert comp.loss_forest_indices == ()


def test_loss_matches_bruteforce_on_enumerated_components():
    checked = 0
    for inst in make_batch(20, seed0=900, max_vertices=10, max_terminals=6):
        closure = metric_closure(inst)
        for comp in components_of(enumerate_full_components(inst, closure, 4)):
            nodes = set(comp.terminals) | set(comp.steiner_ids)
            if len(nodes) > 6:
                continue
            want = oracles.loss_cost_bruteforce(comp.terminals, comp.edges)
            assert comp.loss == want, comp
            checked += 1
    assert checked > 50


def test_loss_at_most_half_cost():
    for inst in make_batch(20, seed0=1000, max_vertices=11, max_terminals=7):
        closure = metric_closure(inst)
        for comp in components_of(enumerate_full_components(inst, closure, 4)):
            assert 2 * comp.loss <= comp.cost, comp


# ------------------------------
# Loss contraction
# ------------------------------

def test_contract_star():
    comp = _star_component()
    con = loss_contract(comp)
    assert con.cost == 2 == comp.cost - comp.loss
    assert con.terminals == (1, 2, 3)
    # The {1,5} loss part is represented by terminal 1.
    ends = sorted((e.u, e.v) for e in con.edges)
    assert ends == [(1, 2), (1, 3)]
    assert all(e.w == 1 for e in con.edges)


def test_contract_pair_is_identity():
    comp = FullComponent([1, 2], [(1, 2, 7)])
    con = loss_contract(comp)
    assert con.cost == 7
    assert [(e.u, e.v, e.w) for e in con.edges] == [(1, 2, 7)]


def test_contract_cost_identity_everywhere():
    for inst in make_batch(15, seed0=1100, max_vertices=11, max_terminals=7):
        closure = metric_closure(inst)
        for comp in components_of(enumerate_full_components(inst, closure, 4)):
            con = comp.contraction
            assert con.cost == comp.cost - comp.loss
            assert len(con.edges) == len(con.terminals) - 1
            assert con.terminals == comp.terminals


# ------------------------------
# Gain, load, saving difference
# ------------------------------

def test_gain_examples(star3):
    closure, view = _closure_view(star3)
    star = _star_component()
    assert oracles.gain(view, star) == 4 - 0 - 3 == 1
    # A single closure edge of the tree itself: zero gain.
    pair = FullComponent([1, 2], [(1, 2, 2)])
    assert oracles.gain(view, pair) == 0
    # After phase 1 absorbs the star, the working tree is the contracted
    # component itself (cost 2); re-adding the star can only hurt.
    base = ContractedTree.from_tree(
        # Weights 1 to terminal 1, 2 between terminals 2 and 3.
        minimum_spanning_tree([1, 2, 3], np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]]))
    )
    assert base.cost == 2
    assert oracles.gain(base, star) == 2 - 0 - 3 == -1
    assert oracles.load(base, star) == 1


def test_load_negates_gain():
    rng = random.Random(3)
    for inst in make_batch(10, seed0=1200, max_vertices=10, max_terminals=6):
        closure, view = _closure_view(inst)
        comps = components_of(enumerate_full_components(inst, closure, 3))
        for comp in rng.sample(comps, min(5, len(comps))):
            assert oracles.gain(view, comp) + oracles.load(view, comp) == 0


def test_saving_difference_examples(star3):
    closure, origin_view = _closure_view(star3)
    base_view = ContractedTree.from_tree(
        # Weights 1 to terminal 1, 2 between terminals 2 and 3.
        minimum_spanning_tree([1, 2, 3], np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]]))
    )
    star = _star_component()
    assert oracles.saving_difference(origin_view, origin_view, star) == 0
    # Contracting the star saves 4 in the spanning tree but only 2 in the
    # phase-1 tree, so its differential saving is 2.
    assert oracles.saving_difference(origin_view, base_view, star) == 2


# ------------------------------
# Candidate enumeration
# ------------------------------

def test_enumerate_star3(star3):
    closure = metric_closure(star3)
    pool = enumerate_full_components(star3, closure, 3)
    by_terms = {c.terminals: c for c in components_of(pool)}
    assert set(by_terms) == {(1, 2), (1, 3), (2, 3), (1, 2, 3)}
    assert by_terms[(1, 2)].cost == 2
    assert by_terms[(1, 2, 3)].cost == 3
    # Fresh interior ids start above the graph's vertices and map back.
    star = by_terms[(1, 2, 3)]
    assert star.steiner_ids == (5,)
    assert star.steiner_origin == {5: 4}


def test_enumerate_k2_is_pairs_only(star3):
    closure = metric_closure(star3)
    pool = components_of(enumerate_full_components(star3, closure, 2))
    assert sorted(c.terminals for c in pool) == [(1, 2), (1, 3), (2, 3)]
    assert all(not c.steiner_ids for c in pool)


def test_enumerate_rejects_k1(star3):
    closure = metric_closure(star3)
    with pytest.raises(KRestrictionError):
        enumerate_full_components(star3, closure, 1)


def test_enumerate_unit_path_keeps_pairs_only():
    # Optimal trees over 3+ terminals of a path have internal terminals,
    # so the all-leaves filter drops them.
    inst = Instance.build(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)], [1, 2, 3, 4])
    closure = metric_closure(inst)
    pool = components_of(enumerate_full_components(inst, closure, 4))
    assert all(len(c.terminals) == 2 for c in pool)
    assert len(pool) == 6


def test_enumerate_caps_k_at_terminal_count(star3):
    closure = metric_closure(star3)
    a = components_of(enumerate_full_components(star3, closure, 3))
    b = components_of(enumerate_full_components(star3, closure, 9))
    assert [(c.terminals, c.cost) for c in a] == [(c.terminals, c.cost) for c in b]


def test_enumerated_interior_ids_do_not_collide():
    for inst in make_batch(10, seed0=1300, max_vertices=10, max_terminals=6):
        closure = metric_closure(inst)
        for comp in components_of(enumerate_full_components(inst, closure, 4)):
            for s in comp.steiner_ids:
                assert s > inst.vertex_count
                assert 1 <= comp.steiner_origin[s] <= inst.vertex_count


# ------------------------------
# Basic (two-edge) reduction
# ------------------------------

def test_reduce_to_basic_star():
    basic = reduce_to_basic(_star_component())
    assert basic is not None
    assert basic.terminals == (1, 2)
    assert sorted((u, v, w) for u, v, w in basic.edges) == [(1, 5, 1), (2, 5, 1)]
    assert basic.steiner_origin == {5: 4}
    assert basic.loss == 1


def test_reduce_to_basic_pair_is_none():
    assert reduce_to_basic(FullComponent([1, 2], [(1, 2, 7)])) is None


# ------------------------------
# Pool batch evaluation
# ------------------------------

def test_pool_savings_match_single_route():
    rng = random.Random(5)
    for inst in make_batch(12, seed0=1400, max_vertices=11, max_terminals=7):
        closure, view = _closure_view(inst)
        pool = CandidatePool(enumerate_full_components(inst, closure, 4))
        # Check on the fresh view and once more after a random contraction.
        views = [view]
        terms = sorted(inst.terminals)
        if len(terms) >= 3:
            views.append(view.contract_zero_set(rng.sample(terms, 2)))
        for v in views:
            batch = pool.savings_for(v)
            for i, comp in enumerate(pool.candidates):
                assert batch[i] == v.cost - oracles.mst_with_zero_set(v, comp.terminals)


def test_pool_min_cost_index():
    for inst in make_batch(6, seed0=1500, max_vertices=9, max_terminals=5):
        closure = metric_closure(inst)
        cands = enumerate_full_components(inst, closure, 3)
        pool = CandidatePool(cands)
        for key in {frozenset(c.terminals) for c in pool.candidates}:
            idx = pool.by_terminals(key)
            same = [c.cost for c in components_of(cands) if frozenset(c.terminals) == key]
            assert pool.costs[idx] == min(same)


def test_pool_lookup_gives_first_of_duplicates():
    pool = CandidatePool(candidate_table([[(1, 2, 5)], [(1, 2, 3)], [(2, 3, 4)]]))
    assert pool.by_terminals([2, 1]) == 0
    assert pool.by_terminals({2, 3}) == 2
    assert pool.by_terminals([1, 3]) is None
    assert pool.by_terminals([1, 2, 3]) is None
    assert pool.by_terminals([1]) is None


def test_padded_savings_match_oracle_on_mixed_sizes():
    # A hand-made pool mixing 2- to 5-terminal rows: shorter rows are
    # padded, and their padded columns must add nothing to the one gather.
    rng = random.Random(19)
    for inst in make_batch(30, seed0=1600, max_vertices=12, max_terminals=8):
        _, view = _closure_view(inst)
        terms = sorted(inst.terminals)
        if len(terms) < 5:
            continue
        hub = max(terms) + 1
        groups = [rng.sample(terms, rng.randint(2, 5)) for _ in range(12)]
        pool = CandidatePool(candidate_table([(t, hub, 1) for t in g] for g in groups))
        assert sorted({len(g) for g in groups})[-1] == pool.table.pos.shape[1] == 5
        assert pool.savings_for(view).tolist() == [
            oracles.saving_of_group(view.edges, g) for g in groups]
        view.bottleneck_matrix  # the contraction below carries it
        after = view.contract_zero_set(rng.sample(terms, 2))
        assert pool.savings_for(after).tolist() == [
            after.cost - oracles.mst_with_zero_set(after, g) for g in groups]


def test_middle_triples_are_combinations_grouped_by_middle():
    for r in range(13):
        want = sorted(itertools.combinations(range(r), 3), key=lambda t: t[1])
        got = components._middle_triples(r)
        assert got.shape == (len(want), 3)
        assert [tuple(t) for t in got.tolist()] == want


def _assert_three_stars_match_reference(inst):
    """_three_stars on the instance's closure rows equals the int64
    reference; returns the work dtype it chose."""
    closure = metric_closure(inst)
    terms = sorted(inst.terminals)
    tidx = np.array([closure.index[t] for t in terms])
    rows_of = closure.rows(terms)
    with recording_work_dtypes() as chosen:
        pos, hubs = components._three_stars(rows_of, tidx)
    got = dict(zip(map(tuple, pos.tolist()), hubs.tolist()))
    assert len(got) == len(pos)
    assert got == oracles.reference_three_stars(rows_of, tidx)
    (dtype,) = chosen
    return dtype


def _zero_weight_instances():
    """Every second edge, and then every edge, of two random instances
    set to weight 0."""
    out = []
    for seed in (31, 32):
        base = random_instance(seed, 14, 8, extra_edges=10)
        for step in (2, 1):
            out.append(Instance.build(14, [(u, v, 0 if i % step == 0 else w)
                                           for i, (u, v, w) in enumerate(base.edges)],
                                      base.terminals))
    return out


def test_three_stars_match_reference():
    cases = [*make_batch(30, seed0=1800, max_vertices=12, max_terminals=8),
             *tie_instances(), *_zero_weight_instances()]
    for inst in cases:
        if len(inst.terminals) >= 3:
            assert _assert_three_stars_match_reference(inst) == np.int32


def _three_star_bound_instances(top):
    """Instances whose largest terminal-to-vertex distance is `top`. In the
    first, terminals 1, 2 and 3 hang from hub 4 by weight 1 and vertex 5 is
    `top` from each of them, so the spoke sum at 5 is 3 * top; a sum that
    wrapped would make 5 the hub. The others are random graphs scaled so
    their distances stay below top / 2, with a pendant vertex `top` from the
    terminal farthest from it."""
    out = [Instance.build(5, [(1, 4, 1), (2, 4, 1), (3, 4, 1), (4, 5, top - 1)], [1, 2, 3])]
    for seed in (41, 43):
        small = random_instance(seed, 12, 7, extra_edges=6, max_weight=20)
        c = top // 2 // sum(w for _, _, w in small.edges)
        scaled = [(u, v, w * c) for u, v, w in small.edges]
        inst = Instance.build(12, scaled, small.terminals)
        far = int(metric_closure(inst).rows(sorted(inst.terminals))[:, 0].max())
        out.append(Instance.build(13, scaled + [(1, 13, top - far)], small.terminals))
    return out


@pytest.mark.parametrize("top, dtype", [((2**31 - 1) // 3, np.int32),
                                        ((2**31 - 1) // 3 + 1, np.int64)])
def test_three_stars_at_the_int32_bound(top, dtype):
    # 2**31 - 1 and 2**31 are not multiples of 3: the largest distance
    # whose triple fits in int32 (3 * top = 2**31 - 2), and one more
    # (2**31 + 1), the first that must stay int64.
    for inst in _three_star_bound_instances(top):
        closure = metric_closure(inst)
        assert closure.rows(sorted(inst.terminals)).max() == top
        assert _assert_three_stars_match_reference(inst) == dtype
        _assert_table_matches_reference(inst, 3)


def test_candidate_budget_keeps_positions_in_int16():
    # Tables hold terminal positions and row sizes in int16, and enumeration
    # sorts rows by those positions. Every pair is a subset, so the budget
    # caps r at 2000 terminals; a larger budget would need wider positions.
    assert math.comb(2001, 2) > components.CANDIDATE_BUDGET
    assert 2000 <= np.iinfo(np.int16).max
    inst = make_batch(1, seed0=1800, max_terminals=8)[0]
    for k in (2, 3, 4):
        table = enumerate_full_components(inst, metric_closure(inst), k)
        assert table.pos.dtype == table.size.dtype == np.int16


@pytest.mark.parametrize("case, row_bytes", [("many-terminals-k3", 20), ("k4-dp", 26)])
def test_table_keeps_its_row_bytes(case, row_bytes):
    # The benchmark's shapes: per row, int16 positions and size, an int32
    # hub and an int64 cost, and at k = 4 an int32 split. A column added to
    # the table shows up here.
    inst, k = {"many-terminals-k3": (family(80, 1), 3),
               "k4-dp": (random_instance(1000, 60, 20, extra_edges=120), 4)}[case]
    table = enumerate_full_components(inst, metric_closure(inst), k)
    columns = {name: value for name, value in vars(table).items()
               if isinstance(value, np.ndarray) and value.shape[:1] == (len(table),)}
    assert sorted(columns) == sorted(["costs", "hub", "pos", "size"] + ["split"] * (k >= 4))
    assert sum(c.nbytes for c in columns.values()) / len(table) == row_bytes


def test_positions_are_widened_before_index_arithmetic():
    # Products of int16 positions wrap above 32767: position times V in the
    # spoke reads, position times r + 1 in the pool's pair indices.
    inst = grid_instance(40, 40, terminal_stride=60)
    closure = metric_closure(inst)
    terms = sorted(inst.terminals)
    assert (len(terms) - 1) * len(closure.vertices) > np.iinfo(np.int16).max
    table = enumerate_full_components(inst, closure, 3)
    stars = np.flatnonzero(table.size == 3)
    assert len(stars) > 0
    rows_of = closure.rows(terms)
    built = table.build(stars)
    for j in range(len(stars)):
        for t, hub, w in built.edges[:, :3, j].T.tolist():
            assert w == rows_of[terms.index(t), closure.index[hub]]
    path = Tree.from_edges([(t, t + 1, t % 7) for t in range(1, 200)], range(1, 201))
    groups = [[t, t + 1] for t in range(1, 200, 2)] + [[1, 200], [2, 150, 199],
                                                        [3, 60, 130, 197]]
    pool = CandidatePool(candidate_table([(t, 300, 1) for t in g] for g in groups))
    r = len(pool.table.terminal_ids)
    assert (r - 1) * (r + 1) > np.iinfo(np.int16).max
    assert pool.savings_for(ContractedTree.from_tree(path)).tolist() == [
        oracles.saving_of_group(path.edges, g) for g in groups]


def test_savings_for_keeps_the_padded_block_with_the_tree():
    # A rescan of the same tree reuses its padded path-maximum block; a new
    # tree gets its own, and the pool keeps no tree alive.
    inst = family(30, 1)
    closure, view = _closure_view(inst)
    pool = CandidatePool(enumerate_full_components(inst, closure, 3))
    rows = np.arange(0, len(pool), 7)
    with recording_work_dtypes() as chosen:
        whole = pool.savings_for(view)
        assert pool.savings_for(view, rows).tolist() == whole[rows].tolist()
        assert pool.savings_for(view, rows[::2]).tolist() == whole[rows[::2]].tolist()
        assert len(chosen) == 1
        after = view.contract_zero_set(sorted(inst.terminals)[:2])
        assert pool.savings_for(after, rows).tolist() == [
            after.cost - oracles.mst_with_zero_set(after, t) for t in
            (pool.table.terminals(i) for i in rows)]
        assert len(chosen) == 2
    gone = weakref.ref(after)
    del after
    gc.collect()
    assert gone() is None and len(pool._between) == 1


def test_savings_for_unknown_terminal_raises():
    # Terminal 9 lies above every node id of the tree, terminal 2 between two.
    view = ContractedTree.from_tree(Tree.from_edges([(1, 2, 1), (2, 3, 1)], [1, 2, 3]))
    with pytest.raises(UnknownNodeError):
        CandidatePool(candidate_table([[(1, 9, 4)]])).savings_for(view)
    sparse = ContractedTree.from_tree(Tree.from_edges([(1, 3, 1), (3, 5, 1)], [1, 3, 5]))
    with pytest.raises(UnknownNodeError):
        CandidatePool(candidate_table([[(1, 2, 4)]])).savings_for(sparse)


# ------------------------------
# Columnar table
# ------------------------------

def _assert_table_matches_reference(inst, k):
    closure = metric_closure(inst)
    with counting_components() as built, reading_trees() as read:
        table = enumerate_full_components(inst, closure, k)
    assert not built and not read  # enumeration reads no tree
    ref = oracles.reference_full_components(inst, closure, k)
    assert len(table) == len(ref)
    pool = CandidatePool(table)
    assert table.max_steiner_id == max(
        (s for c in ref for s in c.steiner_ids), default=inst.vertex_count)
    assert list(pool.candidates) == [(c.terminals, c.cost) for c in ref]
    # Every row read, checked in the edge form, with the all-row Prim's loss.
    _, losses = oracles.all_row_losses(table)
    assert losses.tolist() == [c.loss for c in ref]
    assert table.build(np.arange(len(table))).losses.tolist() == losses.tolist()
    for got, want in zip(components_of(table), ref):
        assert got.terminals == want.terminals
        assert got.edges == want.edges
        assert got.steiner_origin == want.steiner_origin
        assert (got.cost, got.loss) == (want.cost, want.loss)
    return table


def _distance_bound_instance(seed, top):
    """A random graph scaled so its distances stay below top / 2, with a
    pendant terminal 13 `top` from the vertex farthest from vertex 1, also
    a terminal: the largest closure distance, among the terminals' rows and
    in the whole matrix, is `top`, and the pair of those two stores it."""
    small = random_instance(seed, 12, 7, extra_edges=6, max_weight=20)
    c = top // 2 // sum(w for _, _, w in small.edges)
    scaled = [(u, v, w * c) for u, v, w in small.edges]
    dist = metric_closure(Instance.build(12, scaled, small.terminals)).dist
    x = int(dist[:, 0].argmax())
    edges = scaled + [(1, 13, top - int(dist[x, 0]))]
    return Instance.build(13, edges, small.terminals | {x + 1, 13})


def _relabelled_instance(seed, top):
    """A random graph with its vertices renumbered so that the largest id,
    a terminal, is `top`."""
    small = random_instance(seed, 12, 7, extra_edges=6)
    shift = top - 12
    return Instance.build(top, [(u + shift, v + shift, w) for u, v, w in small.edges],
                          [t + shift for t in small.terminals | {12}])


@pytest.mark.parametrize("top", [2**31 - 1, 2**31])
@pytest.mark.parametrize("k", [3, 4])
def test_rows_at_the_int32_bound(top, k):
    # One step each side of the int32 bound, first on the largest closure
    # distance, then on the largest vertex id: rows read both exactly.
    for seed in (41, 43):
        inst = _distance_bound_instance(seed, top)
        closure = metric_closure(inst)
        terms = sorted(inst.terminals)
        assert closure.rows(terms).max() == closure.dist.max() == top
        table = _assert_table_matches_reference(inst, k)
        assert table.build(np.arange(len(table))).edges[2].max() == top
        inst = _relabelled_instance(seed, top)
        table = _assert_table_matches_reference(inst, k)
        ends = table.build(np.arange(len(table))).edges[:2]
        assert table.terminal_ids.max() == ends.max() == top


def test_table_rows_match_reference_enumeration():
    for inst in make_batch(12, seed0=1600, max_vertices=11, max_terminals=7):
        for k in (2, 3, 4, 5, 6):
            _assert_table_matches_reference(inst, k)


def _binary_tree_instance():
    """Terminals 1..6 are the leaves of a binary tree on vertices 7..10:
    the 6-row's tree joins terminal 6 to hub 7, where the base splits into
    {1, 2, 3} (hub 8, with {2, 3} at hub 10) and {4, 5} (hub 9)."""
    return Instance.build(10, [(6, 7, 3), (7, 8, 2), (7, 9, 4), (8, 1, 5), (8, 10, 1),
                               (10, 2, 6), (10, 3, 2), (9, 4, 3), (9, 5, 7)], range(1, 7))


def test_six_row_numbers_interior_nodes_depth_first():
    # Depth first, part before rest, the hubs appear as 7, 8, 10, 9; a
    # breadth-first order would number 9 before 10.
    table = _assert_table_matches_reference(_binary_tree_instance(), 6)
    (row,) = np.flatnonzero(table.size == 6)
    edges = [e for e in table.build([row]).edges[:, :, 0].T.tolist() if e[0]]
    assert len(edges) + 1 - 6 == 4
    assert [e[0] for e in edges if e[0] > 6] == [7, 8, 10, 9]
    comp, after = table.build([row]).component(0, 100)
    assert comp.steiner_origin == {100: 7, 101: 8, 102: 10, 103: 9} and after == 104


@pytest.mark.parametrize("case", range(4))
def test_four_and_five_rows_match_reference_on_ties_and_dp_shape(case):
    inst, k = [(random_instance(95008, 60, 20, extra_edges=120), 4),
               (random_instance(7, 30, 10, extra_edges=40), 5),
               *((tie, 5) for tie in tie_instances())][case]
    _assert_table_matches_reference(inst, k)
    if k == 5:
        _assert_table_matches_reference(inst, 4)


@pytest.mark.parametrize("case", range(7))
def test_shared_tables_match_per_subset_dreyfus_wagner(case):
    # Every subset of 4..k terminals, kept as a candidate or not: the cost
    # and the exact closure edge list of its tree, in order.
    inst, k = [(random_instance(95008, 60, 20, extra_edges=120), 4),
               (random_instance(21, 40, 12, extra_edges=60), 4),
               (random_instance(22, 30, 10, extra_edges=40), 5),
               (random_instance(23, 16, 9, extra_edges=8), 6),
               (_binary_tree_instance(), 6),
               *((tie, 6) for tie in tie_instances())][case]
    closure = metric_closure(inst)
    D = closure.dist
    tidx = np.array([closure.index[t] for t in sorted(inst.terminals)])
    tables = dreyfus_wagner._SharedTables(D, tidx, k - 2)
    seen = 0
    for m in range(4, k + 1):
        for subsets, hub, cost, split, _ in tables.last_masks(m):
            trees = tables.trees(subsets, hub, split).T.tolist()
            for i, row in enumerate(subsets.tolist()):
                want_cost, want_edges = oracles.reference_dw_closure_tree(D, tidx[row].tolist())
                assert cost[i] == want_cost
                assert [(a, b) for a, b in trees[i] if a >= 0] == want_edges
                seen += 1
    assert seen == sum(math.comb(len(tidx), m) for m in range(4, k + 1))


@pytest.mark.parametrize("case", range(4))
def test_last_masks_match_per_q_reference_across_chunk_sizes(case, monkeypatch):
    # Every m-subset once, with the reference's hub, cost and split, whether
    # a chunk of bases holds one base, five (at m = 4 the chunk of bases 0-4
    # ends inside bases 4-9, those whose largest position is 4), or the
    # default count. k = 6 reads m = 4, 5 and 6.
    inst = [random_instance(95008, 60, 20, extra_edges=120), _binary_tree_instance(),
            *tie_instances()][case]
    k = 6
    closure = metric_closure(inst)
    tidx = np.array([closure.index[t] for t in sorted(inst.terminals)])
    tables = dreyfus_wagner._SharedTables(closure.dist, tidx, k - 2)
    nv, default = len(closure.vertices), dreyfus_wagner.DW_CHUNK
    for m in range(4, k + 1):
        want = oracles.reference_last_masks(tables, m)
        assert len(want) == math.comb(len(tidx), m)
        for chunk in (1, 5 * nv * ((1 << (m - 2)) - 1), default):
            monkeypatch.setattr(dreyfus_wagner, "DW_CHUNK", chunk)
            got = {}
            for subsets, hub, cost, split, parts in tables.last_masks(m):
                # The table rows of the part and rest chosen at the hub.
                halves = np.stack([split, (1 << (m - 1)) - 1 - split])
                want_parts = tables._part_rows(subsets[:, :-1])[halves, np.arange(len(split))]
                assert parts.tolist() == want_parts.T.tolist()
                for row in zip(subsets.tolist(), hub.tolist(), cost.tolist(), split.tolist()):
                    assert tuple(row[0]) not in got
                    got[tuple(row[0])] = tuple(row[1:])
            assert got == want


def test_last_masks_merge_each_base_once(monkeypatch):
    # The bases of m - 1 terminals, all but the last position, are gathered
    # once each: C(r - 1, m - 1) rows, where merging them again for every
    # last terminal q above them would gather C(r, m).
    inst = random_instance(95008, 60, 20, extra_edges=120)
    closure = metric_closure(inst)
    tidx = np.array([closure.index[t] for t in sorted(inst.terminals)])
    tables = dreyfus_wagner._SharedTables(closure.dist, tidx, 4)
    gathered = []
    splits = tables.splits
    monkeypatch.setattr(tables, "splits", lambda base: gathered.append(len(base)) or splits(base))
    for m in (4, 5, 6):
        gathered.clear()
        assert sum(len(s) for s, *_ in tables.last_masks(m)) == math.comb(20, m)
        assert sum(gathered) == math.comb(19, m - 1)


def _small_chunk_cases():
    """(instance, k) on tied grids and zero weights, for DW_CHUNK = 2**9:
    a 13 x 15 unit grid (195 vertices: two splits or columns per block, so
    every table level and last-mask pass of three or more splits folds, and
    the last column block is one column), the 6 x 6 unit grid (column
    blocks 14, 14, 8), and zero-weight instances whose chunks of subsets
    and bases end shorter."""
    return [(grid_instance(13, 15, max_weight=1, terminal_stride=24), 5),
            (tie_instances()[0], 4), (tie_instances()[1], 5), (_zero_weight_instances()[0], 4),
            (_zero_weight_instances()[0], 5)]


@pytest.mark.parametrize("case", range(5))
def test_small_chunks_reuse_the_work_buffer_without_stale_values(case, monkeypatch):
    # Every block of the one work buffer is overwritten chunk after chunk;
    # no value of an earlier chunk, split block or column block may reach
    # the tables, the last masks or the candidate table.
    monkeypatch.setattr(dreyfus_wagner, "DW_CHUNK", 2**9)
    plan, plans = dreyfus_wagner._plan, []
    monkeypatch.setattr(dreyfus_wagner, "_plan",
                        lambda *args: plans.append((*args, *plan(*args))) or plan(*args))
    inst, k = _small_chunk_cases()[case]
    closure = metric_closure(inst)
    tidx = np.array([closure.index[t] for t in sorted(inst.terminals)])
    tables = dreyfus_wagner._SharedTables(closure.dist, tidx, k - 2)
    for got, want in zip((tables.W, tables.relax, tables.split),
                         oracles.reference_shared_tables(tables)):
        assert got.tolist() == want.tolist()
    for m in range(4, k + 1):
        got = {}
        for subsets, hub, cost, split, _ in tables.last_masks(m):
            for row in zip(subsets.tolist(), hub.tolist(), cost.tolist(), split.tolist()):
                got[tuple(row[0])] = tuple(row[1:])
        assert got == oracles.reference_last_masks(tables, m)
    # Every table level and last-mask pass took several chunks.
    assert all(n < rows for rows, _, _, _, n, _, _ in plans)
    if case == 0:
        assert all(block < splits for _, splits, _, _, _, block, _ in plans if splits > 2)
    _assert_table_matches_reference(inst, k)


def test_table_build_transient_memory_stays_within_two_chunks():
    # Above 256 vertices a subset's V x V min-plus step is blocked over
    # columns, so building the tables on 400 vertices passes through at most
    # the work buffer, two chunks, and a few closure rows beyond the arrays
    # the tables keep; one unblocked step would be 400**2 int64 (1.28 MB).
    inst = grid_instance(20, 20, seed=4, terminal_stride=45)
    closure = metric_closure(inst)
    tidx = np.array([closure.index[t] for t in sorted(inst.terminals)])
    nv, D = len(closure.vertices), closure.dist
    tracemalloc.start()
    try:
        tables = dreyfus_wagner._SharedTables(D, tidx, 3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nv == 400 and len(tables.W) == sum(math.comb(len(tidx) - 1, s) for s in (1, 2, 3))
    assert peak - kept <= 2 * dreyfus_wagner.DW_CHUNK * 8 + 16 * nv * 8


def _fullness_cases():
    """(instance, k) pairs for the fullness rule: sparse families at k = 4,
    5 and 6, a 12 x 12 grid with weights 1-2, random 30-vertex graphs with
    weights 1-3, and an instance with zero-weight edges."""
    return [(family(40, 1), 4), (family(40, 2), 5), (family(24, 3), 6),
            (grid_instance(12, 12, max_weight=2, seed=1, terminal_stride=7), 5),
            *((random_instance(seed, 30, 12, extra_edges=45, max_weight=3), k)
              for seed, k in ((61, 4), (62, 5))),
            (_zero_weight_instances()[1], 6)]


@pytest.mark.parametrize("case", range(7))
def test_fullness_and_interior_counts_match_rebuilt_trees(case):
    # Every last-mask row: the tree-free test keeps exactly the rows whose
    # rebuilt trees have their terminals as leaves, with the rebuilt
    # trees' interior node counts.
    inst, k = _fullness_cases()[case]
    closure = metric_closure(inst)
    tidx = np.array([closure.index[t] for t in sorted(inst.terminals)])
    tables = dreyfus_wagner._SharedTables(closure.dist, tidx, k - 2)
    seen = kept = 0
    for m in range(4, k + 1):
        for subsets, hub, _, split, parts in tables.last_masks(m):
            full, interior = tables.leaves(subsets, hub, split, parts)
            want_full, want_interior, _ = oracles.rebuilt_leaves(tables, subsets, hub, split)
            assert full.tolist() == want_full.tolist()
            assert interior[full].tolist() == want_interior[full].tolist()
            seen += len(subsets)
            kept += int(full.sum())
    assert seen == sum(math.comb(len(tidx), m) for m in range(4, k + 1))
    assert 0 < kept < seen


def test_terminal_set_lookup_matches_reference_dict():
    for inst in make_batch(12, seed0=1700, max_vertices=11, max_terminals=7):
        closure = metric_closure(inst)
        terms = sorted(inst.terminals)
        for k in (2, 3, 4, 5):
            with counting_components() as built:
                pool = CandidatePool(enumerate_full_components(inst, closure, k))
                ref = {frozenset(c.terminals): i for i, c in
                       enumerate(oracles.reference_full_components(inst, closure, k))}
                for size in range(1, len(terms) + 1):
                    for subset in itertools.combinations(terms, size):
                        assert pool.by_terminals(subset) == ref.get(frozenset(subset))
                assert pool.by_terminals([terms[0], inst.vertex_count + 1]) is None
            assert not built  # lookups build no component


def _rows_of(table, rows, base, **changes):
    """A table of some rows of `table`, in the given order, its
    `max_steiner_id` leaving their interior nodes ids from `base`; `changes`
    set one row's columns, as {column: (row, value)}."""
    cols = {name: getattr(table, name)[rows].copy() for name in ("pos", "costs", "hub")}
    cols["split"] = None if table.split is None else table.split[rows].copy()
    for name, (row, value) in changes.items():
        cols[name][row] = value
    return CandidateTable(table.terminal_ids, cols["pos"], cols["costs"], cols["hub"],
                          base - 1 + int(interior_counts(table.build(rows)).sum()), table.dist,
                          table.vertices, table.tables, cols["split"])


def test_table_checks_its_columns(star3):
    table = enumerate_full_components(star3, metric_closure(star3), 3)
    assert [c.terminals for c in CandidatePool(table).candidates] == [
        (1, 2), (1, 2, 3), (1, 3), (2, 3)]
    assert table.build([1]).edges[:, :, 0].T.tolist() == [[1, 4, 1], [2, 4, 1], [3, 4, 1]]
    rows = np.arange(len(table))

    def rebuild(row, **changes):
        return _rows_of(table, rows, star3.vertex_count + 1,
                        **{name: (row, value) for name, value in changes.items()})

    # Unchanged rows build.
    assert [c.edges for c in components_of(rebuild(1))] == [c.edges for c in components_of(table)]
    column = metric_closure(star3).index
    bad = [dict(costs=4), dict(hub=column[2]),  # 2 is no leaf
           dict(hub=column[1], costs=2),        # 1 is no leaf, at the spokes' weight
           dict(pos=[0, 1, -1])]                # a pair's edge to the star's hub
    for change in bad:
        with pytest.raises(InternalInvariantError):
            rebuild(1, **change).build([1]).component(0, 5)
    with pytest.raises(InternalInvariantError):
        rebuild(0, costs=3).build([0]).component(0, 5)


def _edge_table(row=None, change=None):
    """Five rows of an enumerated k = 4 table over terminals 3, 6, 9, 10,
    11 and 12, at positions 0..5: the pair 3-6; the 3-star 3-6-9 at vertex
    1; a 4-star at vertex 2; two hubs 2 and 1 with terminals 6 and 11 at
    the first (the spokes win the loss); and two hubs 3 and 1 with
    terminals 10 and 12 at the first (the link wins). `change` sets one
    column of row `row`."""
    inst = random_instance(13, 12, 6, extra_edges=8, max_weight=9)
    table = enumerate_full_components(inst, metric_closure(inst), 4)
    changes = {name: (row, value) for name, value in (change or {}).items()}
    return _rows_of(table, [0, 1, 14, 2, 12], inst.vertex_count + 1, **changes)


def test_four_row_columns_build_and_check():
    table = _edge_table()
    # A star's lightest spoke; then la + lc = 2 + 4 and la + w = 1 + 4.
    assert table.build(np.arange(5)).losses.tolist() == [0, 4, 2, 6, 5]
    pair, star3, star4, pairs, linked = components_of(table)
    assert pair.edges == ((3, 6, 9),) and pair.steiner_origin == {}
    assert star3.edges == ((3, 13, 4), (6, 13, 7), (9, 13, 7))
    assert star4.edges == ((6, 14, 2), (12, 14, 5), (11, 14, 6), (9, 14, 12))
    assert star4.steiner_origin == {14: 2}
    # Interior ids follow first appearance: the hub next to the last
    # terminal before the hub of its part.
    assert pairs.edges == ((6, 15, 2), (3, 16, 4), (15, 16, 5), (11, 15, 6), (9, 16, 7))
    assert pairs.steiner_origin == {15: 2, 16: 1}
    assert linked.steiner_origin == {17: 3, 18: 1}
    assert [c.loss for c in components_of(table)] == [0, 4, 2, 6, 5]
    # The loss forests: the two spokes, and one spoke with the link.
    assert [pairs.edges[i] for i in pairs.loss_forest_indices] == [(6, 15, 2), (3, 16, 4)]
    assert (17, 18, 4) in [linked.edges[i] for i in linked.loss_forest_indices]


@pytest.mark.parametrize("row, change", [
    (0, dict(pos=[1, 0, -1, -1])),      # positions do not increase
    (1, dict(hub=8)),                   # terminal 9 at the hub
    (1, dict(costs=19)),                # cost is not the weight sum
    (1, dict(pos=[0, 1, 3, -1])),       # terminal 10's spoke for 9's
    (0, dict(pos=[0, -1, -1, -1])),     # one terminal
    (2, dict(hub=0)),                   # another hub
    (1, dict(hub=3)),                   # another hub
    (2, dict(costs=26)),                # cost is not the weight sum
    (1, dict(pos=[0, -1, 2, -1])),      # padding inside the positions
    (3, dict(split=3)),                 # another split at the hub
    (2, dict(hub=5)),                   # terminal 6 at the hub
    (4, dict(costs=20)),                # cost is not the weight sum
])
def test_four_row_column_checks_reject(row, change):
    with pytest.raises(InternalInvariantError):
        _edge_table(row, change).build([row]).component(0, 13)


@pytest.mark.parametrize("column", ["costs", "losses"])
def test_building_a_row_checks_its_cost_and_loss(column):
    table = _edge_table()
    built = table.build([2, 3])
    if column == "costs":
        table.costs[3] += 1
        built = table.build([2])
    else:  # the loss read, against the component's Kruskal loss forest
        built.losses[1] += 1
    assert built.component(0, 100)[0].loss == 2
    with pytest.raises(InternalInvariantError):
        table.build([3]) if column == "costs" else built.component(1, 100)


def _same(a, b):
    return (a.terminals, a.edges, a.steiner_origin) == (b.terminals, b.edges, b.steiner_origin)


def _tables():
    """(instance, table) for a batch and the tie instances at k = 2..5."""
    for inst in make_batch(8, seed0=1900, max_vertices=11, max_terminals=7) + tie_instances():
        closure = metric_closure(inst)
        for k in (2, 3, 4, 5):
            yield inst, enumerate_full_components(inst, closure, k)


def _assert_components_are_renumbered_rows(table):
    # Ids handed out one row after another from the first free one, one
    # row per build, as phase 1 hands them out to the rows it looks up:
    # each is the row of the whole-table build, renumbered.
    first = table.max_steiner_id + 1
    for i, item in enumerate(components_of(table)):
        comp, after = table.build([i]).component(0, first)
        want, want_after = oracles.renumbered(item, first)
        assert _same(comp, want) and after == want_after
        first = after


def test_component_numbers_the_row_as_a_renumbering_of_its_item():
    for _, table in _tables():
        _assert_components_are_renumbered_rows(table)
    rng = random.Random(4)
    hub = 30  # shared by every star
    table = candidate_table([(t, hub, rng.randint(0, 9)) for t in g]
                            for g in (rng.sample(range(1, 20), rng.randint(3, 6))
                                      for _ in range(10)))
    assert table.max_steiner_id == 39
    comps = components_of(table)
    assert [c.steiner_ids for c in comps] == [(i,) for i in range(30, 40)]
    assert comps[9].steiner_origin == {39: 30}
    _assert_components_are_renumbered_rows(table)


def _built_on_use(inst, k):
    """Solve both phases at k; return the pool and the rows picked. Each
    pick and each part taken from the pool builds its row once; nothing
    else builds one."""
    closure = metric_closure(inst)
    with counting_components() as built:
        pool = CandidatePool(enumerate_full_components(inst, closure, k))
        t0 = minimum_spanning_tree(inst.terminals, closure.block(sorted(inst.terminals)))
        p1 = run_phase1(inst, closure, pool, t0)
        p2 = run_phase2(inst, pool, t0, p1.start, p1.base)
        list(pool.candidates)
    iterations = p1.trace["iterations"] + p2.trace["iterations"]
    from_pool = [pool.by_terminals(part["terminals"])
                 for row in p1.trace["iterations"] for event in row["replacements"]
                 for part in event["parts"] if part.get("source") == "pool"]
    picked = {row["candidate_index"] for row in iterations}
    assert from_pool and not set(from_pool) & picked
    assert sorted(i for i, _ in built) == sorted(
        [row["candidate_index"] for row in iterations] + from_pool)
    return pool, picked


def test_only_picked_and_looked_up_candidates_are_built():
    pool, _ = _built_on_use(random_instance(5, 120, 80, extra_edges=240, max_weight=50), 3)
    assert len(pool) > 50000


def test_only_picked_and_looked_up_four_rows_are_built():
    pool, picked = _built_on_use(random_instance(2, 60, 20, extra_edges=120), 4)
    assert len(pool) > 2500
    # Picks include 4-stars and two-hub rows: one interior node or two.
    fours = [i for i in picked if pool.table.size[i] == 4]
    assert set(interior_counts(pool.table.build(fours)).tolist()) == {1, 2}


@pytest.mark.parametrize("case", ["k4-dp", "many-terminals-k3"])
def test_a_solve_reads_only_the_trees_it_uses(case):
    # The benchmark's k4-dp and many-terminals-k3 shapes: a solve reads the
    # trees of phase 1's active rows once, then only of the rows a
    # displacement looks up and of phase 2's picks, never every row.
    inst, k = {"k4-dp": (random_instance(1000, 60, 20, extra_edges=120), 4),
               "many-terminals-k3": (family(80, 1), 3)}[case]
    with reading_trees() as read:
        res = solve(inst, RunConfig(k=k))
    closure = metric_closure(inst)
    pool = CandidatePool(enumerate_full_components(inst, closure, k))
    t0 = minimum_spanning_tree(inst.terminals, closure.block(sorted(inst.terminals)))
    active = np.flatnonzero(pool.savings_for(ContractedTree.from_tree(t0)) > pool.costs)
    looked_up = [pool.by_terminals(part["terminals"])
                 for row in res.phase1_trace["iterations"] for event in row["replacements"]
                 for part in event["parts"] if part.get("source") == "pool"]
    picked = [row["candidate_index"] for row in res.phase2_trace["iterations"]]
    assert read[0] == active.tolist()
    assert sorted(i for rows in read[1:] for i in rows) == sorted(looked_up + picked)
    assert {row["candidate_index"] for row in res.phase1_trace["iterations"]} <= set(read[0])
    assert sum(map(len, read)) * 100 < len(pool)


def test_four_row_enumeration_memory_is_bounded():
    # On a 20x20 grid the 190 pair tables' V x V step, done at once, would
    # take 190 * 400**2 int64 values, about 232 MiB.
    inst = grid_instance(20, 20, terminal_stride=20)
    closure = metric_closure(inst)
    closure.dist  # noqa: B018 - filled before measuring
    r, nv = len(inst.terminals), len(closure.vertices)
    unchunked = math.comb(r - 1, 2) * nv * nv * 8
    limit = 16 * 2**20
    assert unchunked > 14 * limit
    tracemalloc.start()
    try:
        table = enumerate_full_components(inst, closure, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (table.size == 4).sum() > 0
    assert peak < limit


def test_candidate_budget_boundary(monkeypatch):
    inst = make_batch(1, seed0=1800, max_terminals=8)[0]
    closure = metric_closure(inst)
    r = len(inst.terminals)
    subsets = sum(math.comb(r, m) for m in range(2, min(3, r) + 1))
    monkeypatch.setattr(components, "CANDIDATE_BUDGET", subsets)
    assert len(enumerate_full_components(inst, closure, 3)) > 0
    monkeypatch.setattr(components, "CANDIDATE_BUDGET", subsets - 1)
    with pytest.raises(LimitExceededError):
        enumerate_full_components(inst, closure, 3)


def test_candidate_budget_rejects_large_k():
    inst = random_instance(5, 120, 80, extra_edges=240, max_weight=50)
    closure = metric_closure(inst)
    assert components.CANDIDATE_BUDGET >= math.comb(80, 2) + math.comb(80, 3)
    with pytest.raises(LimitExceededError):
        enumerate_full_components(inst, closure, 6)


def test_near_minimum_keeps_every_exact_minimizer():
    # Around 2**60 neighbouring integers share one float64, so the float
    # ratios below tie or invert where the exact ones differ.
    big = 2**60
    num = np.array([big + 2, big, big + 1, -3, 0, 5], dtype=np.int64)
    den = np.array([big, big, big, 1, 7, 1], dtype=np.int64)
    kept = components.near_minimum(num / den).tolist()
    assert 3 in kept and 4 not in kept and 5 not in kept
    kept = components.near_minimum(num[:3] / den[:3]).tolist()
    assert kept == [0, 1, 2]


def test_pool_looks_up_a_forty_terminal_row():
    # 40-terminal sets among 80 terminals have about 10**23 possible
    # colex keys, more than int64 holds; the lookup scans rows instead.
    star = [(t, 100, 1) for t in range(1, 41)]
    pairs = [[(t, t + 1, 1)] for t in range(41, 80, 2)]
    pool = CandidatePool(candidate_table([star] + pairs))
    assert pool.by_terminals(range(40, 0, -1)) == 0
    for i, [(u, v, _)] in enumerate(pairs, start=1):
        assert pool.by_terminals([v, u]) == i
    assert pool.by_terminals(range(1, 40)) is None
    assert pool.by_terminals([41, 43]) is None
    assert pool.by_terminals([1, 41]) is None
