import math
from fractions import Fraction

import pytest

from conftest import perfbench_module
from steinertree import (
    Instance,
    RunConfig,
    check_run,
    crossover_alpha,
    guarantee_ratio,
    ratio_curves,
    restricted_ratio_bound,
    solution_cost_bound,
    solve,
)
from steinertree.errors import KRestrictionError


# ------------------------------
# Closed forms
# ------------------------------

def test_crossover_constants():
    alpha, ratio = crossover_alpha(tol=1e-8)
    assert abs(alpha - 0.7147) < 1e-3
    assert abs(ratio - 1.4295) < 1e-3
    assert ratio == 2.0 * alpha
    merge_curve, double_curve = ratio_curves(alpha)
    assert abs(merge_curve - double_curve) < 1e-6


def test_crossover_tolerance_contract():
    loose_alpha, _ = crossover_alpha(tol=1e-4)
    tight_alpha, _ = crossover_alpha(tol=1e-10)
    assert abs(loose_alpha - tight_alpha) <= 1e-4
    with pytest.raises(ValueError):
        crossover_alpha(tol=0)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError):
            crossover_alpha(tol=tol)


def test_crossover_stops_below_the_float_spacing():
    # Near 0.71 doubles are about 1e-16 apart, so hi - lo never falls below
    # 1e-300; the bisection stops once the midpoint rounds to an end.
    alpha, ratio = crossover_alpha(tol=1e-300)
    want, _ = crossover_alpha(tol=1e-8)
    assert abs(alpha - want) < 1e-8
    assert ratio == 2.0 * alpha


def test_ratio_curves_endpoints():
    merge_curve, double_curve = ratio_curves(0.0)
    assert abs(merge_curve - (math.log(2) + 1)) < 1e-12
    assert double_curve == 0.0
    merge_curve, double_curve = ratio_curves(1.0)
    assert merge_curve == 1.0 and double_curve == 2.0
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            ratio_curves(bad)


def test_solution_cost_bound_values():
    # mst 4, base 2, restricted opt 3: ln 2 + 3.
    assert abs(solution_cost_bound(4, 2, 3) - (math.log(2) + 3)) < 1e-12
    # Degenerate ends.
    assert solution_cost_bound(4, 2, 2) == 2
    assert abs(solution_cost_bound(5, 2, 5) - 5) < 1e-12
    with pytest.raises(ValueError):
        solution_cost_bound(4, 3, 2)


def test_restricted_ratio_bound_table():
    assert restricted_ratio_bound(2) == 2
    assert restricted_ratio_bound(3) == 2
    assert restricted_ratio_bound(4) == Fraction(3, 2)
    assert restricted_ratio_bound(7) == Fraction(3, 2)
    assert restricted_ratio_bound(8) == Fraction(4, 3)
    assert restricted_ratio_bound(1024) == Fraction(11, 10)
    with pytest.raises(KRestrictionError):
        restricted_ratio_bound(1)


def test_guarantee_ratio_combines_both_factors():
    _, ratio = crossover_alpha()
    assert abs(guarantee_ratio(3) - 2 * ratio) < 1e-9
    assert abs(guarantee_ratio(4) - 1.5 * ratio) < 1e-9


# ------------------------------
# Per-run report
# ------------------------------

def _good_kwargs():
    # A consistent fictitious run: mst 10, base 6, merge1 8 (losses 2),
    # merge2 8, restricted opt 8, opt 7, solution 8.
    return dict(
        mst_cost=10, solution_cost=8, k=3, base_cost=6, merge1_cost=8,
        loss_total=2, max_residual_gain=0, merge2_cost=8, load_total=3,
        diff_total=4, initial_gap=4, stalled=False, max_pair_overlap=1,
        opt_cost=7, restricted_opt_cost=8,
    )


def test_check_run_all_green():
    report = check_run(**_good_kwargs())
    assert report.ok
    assert report.failed == []
    assert report.alpha == "3/4"
    assert report.log_bound is not None and report.ratio_bound is not None
    # Every check ran (none skipped) with this full data set.
    assert all(c["ok"] is True for c in report.checks.values())


def test_check_run_flags_violations():
    bad = dict(_good_kwargs(), solution_cost=11)
    report = check_run(**bad)
    assert "solution_within_mst" in report.failed
    assert not report.ok

    bad = dict(_good_kwargs(), merge1_cost=13)
    report = check_run(**bad)
    assert "base_at_least_half_merge" in report.failed
    assert "merge_cost_identity" in report.failed

    bad = dict(_good_kwargs(), max_residual_gain=2)
    assert "base_unimprovable" in check_run(**bad).failed

    bad = dict(_good_kwargs(), max_pair_overlap=2)
    assert "pairwise_overlap" in check_run(**bad).failed

    bad = dict(_good_kwargs(), diff_total=3)
    assert "diff_telescoping" in check_run(**bad).failed


def test_check_run_stall_is_failure_but_in_band():
    report = check_run(**dict(_good_kwargs(), stalled=True))
    assert "exact_termination" in report.failed
    # A stall suppresses the telescoping check instead of failing it.
    assert "diff_telescoping" not in report.checks


def test_check_run_skips_missing_inputs():
    report = check_run(mst_cost=10, solution_cost=10, k=3)
    assert report.ok
    assert report.checks["base_within_mst"]["ok"] is None
    assert "solution_at_least_opt" not in report.checks


def test_check_run_alpha_below_half_is_flagged():
    # base < restricted_opt / 2 contradicts the half bound machinery.
    bad = dict(_good_kwargs(), base_cost=3, merge1_cost=5, loss_total=2,
               merge2_cost=6, solution_cost=6)
    report = check_run(**bad)
    assert "alpha_in_range" in report.failed


# ------------------------------
# Known in-band failures (ROADMAP item 22)
# ------------------------------

@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: a bound check fails in-band (ROADMAP item 22)")
@pytest.mark.parametrize("case", ["corpus-seed-15", "corpus-seed-92", "merge2-k4",
                                  "overlap-zero-weights"])
def test_known_bound_check_failures(case):
    # Two instances of the benchmark's own oracle corpus, which
    # `perfbench/run.py --workload small-corpus-oracles` draws at seeds 15
    # and 92, and the item's two shrunk reproducers. Each fails its named
    # check today; a mend has to turn this test into a pass.
    corpus = perfbench_module("workloads").small_corpus_instance
    inst, k, check = {
        "corpus-seed-15": (corpus(15029, 29, 10), 3, "merge2_within_log_bound"),
        "corpus-seed-92": (corpus(92053, 53, 10), 3, "merge2_within_log_bound"),
        "merge2-k4": (Instance.build(7, [(1, 2, 3), (2, 3, 2), (2, 4, 2), (5, 6, 2), (3, 7, 1),
                                         (1, 6, 2), (3, 5, 1)], [1, 4, 5, 7]),
                      4, "merge2_within_log_bound"),
        "overlap-zero-weights": (Instance.build(
            11, [(1, 4, 0), (2, 5, 1), (3, 6, 0), (1, 11, 0), (1, 3, 0), (1, 8, 1), (7, 8, 1),
                 (8, 10, 2), (2, 9, 1), (2, 11, 2)], [4, 5, 6, 7, 9, 10]),
            4, "pairwise_overlap"),
    }[case]
    assert check not in solve(inst, RunConfig(k=k)).report.failed
