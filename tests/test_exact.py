import math

import numpy as np
import pytest

import oracles
from conftest import components_of, counting_components, make_batch, tie_instances
from steinertree import (
    Instance,
    LimitExceededError,
    enumerate_full_components,
    metric_closure,
    minimum_spanning_tree,
    optimal_k_restricted,
    optimal_steiner_tree,
    random_instance,
    restricted_ratio_bound,
)
from steinertree import dreyfus_wagner
from steinertree.exact import OPT_LIMIT_CAP, OPTK_LIMIT_CAP, dw_closure_tree


def _dense_bytes(closure, tables):
    """Bytes of the closure matrix and the shared tables, as allocated."""
    return closure.dist.nbytes + sum(a.nbytes for a in (tables.W, tables.relax, tables.split))


def test_dense_budget_boundary_for_the_exact_optimum(monkeypatch):
    inst = random_instance(3, 14, 6, extra_edges=10)
    terms, closure = sorted(inst.terminals), metric_closure(inst)
    nv = len(closure.vertices)
    need = 8 * nv * nv + 16 * nv * (2 ** (len(terms) - 1) - 2)
    monkeypatch.setattr(dreyfus_wagner, "DENSE_BUDGET", need - 1)
    with pytest.raises(LimitExceededError, match="--exact-opt-limit"):
        optimal_steiner_tree(closure, terms)
    assert "dist" not in vars(closure)  # nothing was allocated
    monkeypatch.setattr(dreyfus_wagner, "DENSE_BUDGET", need)
    assert optimal_steiner_tree(closure, terms).cost == oracles.steiner_cost_bruteforce(
        inst.vertex_count, inst.edges, terms)
    tables = dreyfus_wagner._SharedTables(closure.dist, np.array([closure.index[t] for t in terms]),
                                      len(terms) - 2)
    assert _dense_bytes(closure, tables) == need


def test_dense_budget_boundary_for_enumeration(monkeypatch):
    inst = random_instance(4, 14, 7, extra_edges=10)
    r, closure = len(inst.terminals), metric_closure(inst)
    nv = len(closure.vertices)
    need = 8 * nv * nv + 16 * nv * ((r - 1) + math.comb(r - 1, 2))
    monkeypatch.setattr(dreyfus_wagner, "DENSE_BUDGET", need - 1)
    with pytest.raises(LimitExceededError, match="smaller k"):
        enumerate_full_components(inst, closure, 4)
    assert "dist" not in vars(closure)  # nothing was allocated
    monkeypatch.setattr(dreyfus_wagner, "DENSE_BUDGET", need)
    assert (enumerate_full_components(inst, closure, 4).size == 4).any()
    tidx = np.array([closure.index[t] for t in sorted(inst.terminals)])
    assert _dense_bytes(closure, dreyfus_wagner._SharedTables(closure.dist, tidx, 2)) == need


def test_exact_optimum_folds_the_splits_of_one_subset_in_blocks():
    # At 13 terminals the top table level has 1,023 splits a subset and the
    # last mask 2,047: on 70 vertices, 71,610 and 143,290 int64 a gathered
    # half, above DW_CHUNK, so both are folded a block of splits at a time.
    inst = random_instance(5, 70, 13, extra_edges=100)
    closure = metric_closure(inst)
    tidx = [closure.index[t] for t in sorted(inst.terminals)]
    assert len(closure.vertices) == 70 and 1023 * 70 > dreyfus_wagner.DW_CHUNK
    cost, edges = dw_closure_tree(closure.dist, tidx)
    assert (cost, edges) == oracles.reference_dw_closure_tree(closure.dist, tidx)


def _opt(inst, limit=10):
    closure = metric_closure(inst)
    return optimal_steiner_tree(closure, sorted(inst.terminals), limit)


# ------------------------------
# Exact optimum
# ------------------------------

def test_opt_star3(star3):
    res = _opt(star3)
    assert res.cost == 3
    assert sorted(res.tree.edges) == [(1, 4, 1), (2, 4, 1), (3, 4, 1)]


def test_opt_two_terminals():
    inst = Instance.build(3, [(1, 2, 4), (2, 3, 4), (1, 3, 9)], [1, 3])
    assert _opt(inst).cost == 8


def test_opt_unit_path():
    inst = Instance.build(3, [(1, 2, 1), (2, 3, 1)], [1, 2, 3])
    res = _opt(inst)
    assert res.cost == 2
    assert sorted(res.tree.edges) == [(1, 2, 1), (2, 3, 1)]


def test_opt_limit():
    inst = Instance.build(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)], [1, 2, 3, 4])
    with pytest.raises(LimitExceededError):
        _opt(inst, limit=3)


def test_opt_matches_bruteforce():
    for inst in make_batch(40, seed0=2000, max_vertices=9, max_terminals=5):
        want = oracles.steiner_cost_bruteforce(
            inst.vertex_count, inst.edges, inst.terminals
        )
        res = _opt(inst)
        assert res.cost == want, inst.name
        assert res.tree.total_cost == res.cost
        assert set(inst.terminals) <= set(res.tree.nodes)


def test_opt_tree_uses_real_edges():
    for inst in make_batch(10, seed0=2100, max_vertices=9, max_terminals=5):
        res = _opt(inst)
        weights = {}
        for u, v, w in inst.edges:
            key = (min(u, v), max(u, v))
            weights[key] = min(w, weights.get(key, w))
        for u, v, w in res.tree.edges:
            assert weights[(min(u, v), max(u, v))] == w


def _corpus_instance(seed, index, max_terminals=10):
    """The benchmark's small-corpus shape: terminals cycle through
    4..max_terminals and vertices through 8..16 (never fewer than
    terminals + 2), with one extra edge per vertex."""
    nt = 4 + index % (max_terminals - 3)
    nv = max(nt + 2, 8 + (index // (max_terminals - 3)) % 9)
    return random_instance(seed, nv, nt, extra_edges=nv, name=f"corpus-{seed}")


@pytest.mark.parametrize("case", range(23))
def test_exact_optimum_matches_per_subset_dreyfus_wagner(case):
    # Every prefix of the terminals, so m runs from 1 to 10 over the cases:
    # the cost and the exact closure edge list. Then the expanded optimum.
    inst = [*(_corpus_instance(1000 + i, i) for i in range(21)), *tie_instances()][case]
    closure = metric_closure(inst)
    terms = sorted(inst.terminals)
    tidx = [closure.index[t] for t in terms]
    for m in range(1, len(tidx) + 1):
        assert (dw_closure_tree(closure.dist, tidx[:m])
                == oracles.reference_dw_closure_tree(closure.dist, tidx[:m])), m
    cost, edges = oracles.reference_dw_closure_tree(closure.dist, tidx)
    want = closure.expand(((closure.vertices[i], closure.vertices[j]) for i, j in edges), terms)
    res = optimal_steiner_tree(closure, terms)
    assert (res.cost, res.tree.edges) == (cost, want.edges)


def test_opt_deterministic():
    inst = make_batch(1, seed0=2200, max_vertices=10, max_terminals=6)[0]
    a = _opt(inst)
    b = _opt(inst)
    assert a.tree.edges == b.tree.edges


# ------------------------------
# Restricted optimum
# ------------------------------

def _optk(inst, k):
    closure = metric_closure(inst)
    terms = sorted(inst.terminals)
    cands = enumerate_full_components(inst, closure, k)
    return optimal_k_restricted(terms, cands, k)


def test_optk_star3(star3):
    assert _optk(star3, 3).cost == 3
    assert _optk(star3, 3).restricted_k == 3


def test_optk_2_is_terminal_mst():
    for inst in make_batch(15, seed0=2300, max_vertices=10, max_terminals=6):
        closure = metric_closure(inst)
        terms = sorted(inst.terminals)
        mst = minimum_spanning_tree(terms, closure.block(terms))
        assert _optk(inst, 2).cost == mst.total_cost


def test_optk_nonincreasing_in_k():
    for inst in make_batch(12, seed0=2400, max_vertices=10, max_terminals=6):
        costs = [_optk(inst, k).cost for k in (2, 3, 4, 5)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_optk_matches_subset_search():
    for inst in make_batch(25, seed0=2500, max_vertices=9, max_terminals=5):
        closure = metric_closure(inst)
        terms = sorted(inst.terminals)
        for k in (2, 3):
            cands = enumerate_full_components(inst, closure, k)
            got = optimal_k_restricted(terms, cands, k)
            want = oracles.restricted_opt_bruteforce(
                terms, [(c.terminals, c.cost) for c in components_of(cands)]
            )
            assert got.cost == want, (inst.name, k)
            assert got.tree.total_cost == got.cost


def test_optk_at_full_k_equals_opt():
    for inst in make_batch(20, seed0=2600, max_vertices=9, max_terminals=6):
        opt = _opt(inst).cost
        optk = _optk(inst, len(inst.terminals)).cost
        assert optk == opt, inst.name


def test_optk_within_proven_factor_of_opt():
    for inst in make_batch(20, seed0=2700, max_vertices=10, max_terminals=6):
        opt = _opt(inst).cost
        for k in (3, 4):
            optk = _optk(inst, k).cost
            assert opt <= optk
            rho = restricted_ratio_bound(k)
            assert optk * rho.denominator <= opt * rho.numerator, (inst.name, k)


def test_optk_limit():
    inst = Instance.build(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)], [1, 2, 3, 4])
    closure = metric_closure(inst)
    cands = enumerate_full_components(inst, closure, 3)
    with pytest.raises(LimitExceededError):
        optimal_k_restricted([1, 2, 3, 4], cands, 3, limit=3)


def test_oracle_limits_stop_at_their_caps():
    # A limit at the cap is accepted; one above it is refused before any
    # work, whatever the terminal count.
    assert (OPT_LIMIT_CAP, OPTK_LIMIT_CAP) == (16, 12)
    inst = Instance.build(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)], [1, 2, 3, 4])
    closure = metric_closure(inst)
    cands = enumerate_full_components(inst, closure, 3)
    assert _opt(inst, limit=OPT_LIMIT_CAP).cost == 3
    with pytest.raises(LimitExceededError, match="cap of 16"):
        _opt(inst, limit=OPT_LIMIT_CAP + 1)
    assert optimal_k_restricted([1, 2, 3, 4], cands, 3, limit=OPTK_LIMIT_CAP).cost == 3
    with pytest.raises(LimitExceededError, match="cap of 12"):
        optimal_k_restricted([1, 2, 3, 4], cands, 3, limit=OPTK_LIMIT_CAP + 1)


def test_optk_builds_only_the_picked_rows():
    inst = random_instance(4, 14, 7, extra_edges=12)
    closure = metric_closure(inst)
    terms = sorted(inst.terminals)
    with counting_components() as built:
        table = enumerate_full_components(inst, closure, 3)
        assert not built
        res = optimal_k_restricted(terms, table, 3)
    picked = dict(built)
    assert len(picked) == len(built)  # each pick is built once
    assert 0 < len(picked) < len(table)
    assert sum(c.cost for c in picked.values()) == res.cost
    used = {e for c in picked.values() for e in c.edges}
    assert set(res.tree.edges) <= used
