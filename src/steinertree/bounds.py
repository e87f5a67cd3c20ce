"""Closed-form guarantee machinery and per-run bound checks.

Everything here works in float64 on top of exact integer run data; each
float comparison is padded with a relative tolerance of 1e-9 so rounding
can only ever soften a check, never produce a spurious failure.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import KRestrictionError

PAD = 1e-9


def solution_cost_bound(mst_cost: float, base_cost: float,
                        restricted_opt: float) -> float:
    """Upper bound on the phase-2 merge implied by an unimprovable base
    tree: (ln((mst - b) / (r - b)) + 1) * (r - b) + b with b the base cost
    and r the restricted optimum, degenerating to b when r equals b."""
    b, m, r = float(base_cost), float(mst_cost), float(restricted_opt)
    if not b <= r <= m:
        raise ValueError(f"need base <= restricted opt <= mst, got {b}, {r}, {m}")
    if r == b:
        return b
    return (math.log((m - b) / (r - b)) + 1.0) * (r - b) + b


def ratio_curves(alpha: float) -> tuple[float, float]:
    """The two worst-case ratio curves at base/restricted-opt ratio alpha:
    the merge-bound curve (ln((2-a)/(1-a)) + 1)(1-a) + a, and the doubling
    curve 2a. Defined on [0, 1]; the first tends to 1 as alpha tends to 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 1.0:
        merge_curve = 1.0
    else:
        merge_curve = (math.log((2.0 - alpha) / (1.0 - alpha)) + 1.0) * (1.0 - alpha) + alpha
    return merge_curve, 2.0 * alpha


@functools.cache
def crossover_alpha(tol: float = 1e-8) -> tuple[float, float]:
    """Bisection for the alpha in (1/2, 1) where the two ratio curves meet.
    Returns (alpha, common ratio). The worst case of the solver sits at
    this point, since below it the doubling curve rules and above it the
    merge-bound curve does. Stops early once the midpoint rounds to an
    end, so a tolerance below the float spacing still terminates. Each
    tolerance is bisected once per process: every solve with an exact
    optimum checks its ratio."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    lo, hi = 0.5, 1.0

    def gap(a: float) -> float:
        merge_curve, double_curve = ratio_curves(a)
        return merge_curve - double_curve

    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    alpha = (lo + hi) / 2.0
    return alpha, 2.0 * alpha


def restricted_ratio_bound(k: int) -> Fraction:
    """Worst-case penalty of restricting components to k terminals:
    1 + 1/floor(log2 k)."""
    if k < 2:
        raise KRestrictionError(f"k must be at least 2, got {k}")
    return 1 + Fraction(1, k.bit_length() - 1)


def guarantee_ratio(k: int, tol: float = 1e-8) -> float:
    """End-to-end worst-case ratio of the solver at restriction level k."""
    _, ratio = crossover_alpha(tol)
    return float(restricted_ratio_bound(k)) * ratio


@dataclass
class BoundReport:
    """Machine-readable outcome of every applicable bound check for one
    run. `ok` is None for checks whose inputs were unavailable."""

    checks: dict[str, dict] = field(default_factory=dict)
    alpha: str | None = None
    log_bound: float | None = None
    ratio_bound: float | None = None

    def add(self, name: str, ok: bool | None, detail: str) -> None:
        self.checks[name] = {"ok": ok, "detail": detail}

    @property
    def ok(self) -> bool:
        return all(c["ok"] is not False for c in self.checks.values())

    @property
    def failed(self) -> list[str]:
        return [n for n, c in self.checks.items() if c["ok"] is False]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "log_bound": self.log_bound,
            "ratio_bound": self.ratio_bound,
            "ok": self.ok,
            "checks": self.checks,
        }


def _le_padded(value: int, bound: float) -> bool:
    return float(value) <= bound * (1.0 + PAD) + PAD


def check_run(*, mst_cost: int, solution_cost: int, k: int,
              base_cost: int | None = None,
              merge1_cost: int | None = None,
              loss_total: int | None = None,
              max_residual_gain: int | None = None,
              merge2_cost: int | None = None,
              load_total: int | None = None,
              diff_total: int | None = None,
              initial_gap: int | None = None,
              stalled: bool | None = None,
              max_pair_overlap: int | None = None,
              opt_cost: int | None = None,
              restricted_opt_cost: int | None = None) -> BoundReport:
    """Evaluate every bound check the supplied data allows. Missing inputs
    mark their checks as skipped rather than failed."""
    r = BoundReport()
    r.add("solution_within_mst", solution_cost <= mst_cost,
          f"solution {solution_cost} vs mst {mst_cost}")

    if base_cost is None:
        r.add("base_within_mst", None, "no base tree (mst mode)")
    else:
        r.add("base_within_mst", base_cost <= mst_cost,
              f"base {base_cost} vs mst {mst_cost}")

    if base_cost is not None and merge1_cost is not None:
        r.add("base_at_least_half_merge", 2 * base_cost >= merge1_cost,
              f"2*base {2 * base_cost} vs merge {merge1_cost}")
        if loss_total is not None:
            r.add("merge_cost_identity", merge1_cost == base_cost + loss_total,
                  f"merge {merge1_cost} vs base {base_cost} + losses {loss_total}")

    if max_residual_gain is not None:
        r.add("base_unimprovable", max_residual_gain <= 0,
              f"max residual gain {max_residual_gain}")

    if base_cost is not None and restricted_opt_cost is not None:
        r.add("base_within_restricted_opt", base_cost <= restricted_opt_cost,
              f"base {base_cost} vs restricted opt {restricted_opt_cost}")
        alpha = Fraction(base_cost, restricted_opt_cost) if restricted_opt_cost else None
        if alpha is not None:
            r.alpha = f"{alpha.numerator}/{alpha.denominator}"
            r.add("alpha_in_range", Fraction(1, 2) <= alpha <= 1,
                  f"alpha = {float(alpha):.6f}")

    if merge2_cost is not None and base_cost is not None and load_total is not None:
        r.add("merge2_within_loads", merge2_cost <= base_cost + load_total,
              f"merge2 {merge2_cost} vs base {base_cost} + loads {load_total}")

    if stalled is not None:
        r.add("exact_termination", not stalled,
              "gap closed exactly" if not stalled else "scan stalled before the gap closed")
        if not stalled and diff_total is not None and initial_gap is not None:
            r.add("diff_telescoping", diff_total == initial_gap,
                  f"differences {diff_total} vs initial gap {initial_gap}")

    if max_pair_overlap is not None:
        r.add("pairwise_overlap", max_pair_overlap <= 1,
              f"largest shared terminal count {max_pair_overlap}")

    if (merge2_cost is not None and base_cost is not None
            and restricted_opt_cost is not None
            and base_cost <= restricted_opt_cost <= mst_cost):
        bound = solution_cost_bound(mst_cost, base_cost, restricted_opt_cost)
        r.log_bound = bound
        r.add("merge2_within_log_bound", _le_padded(merge2_cost, bound),
              f"merge2 {merge2_cost} vs bound {bound:.6f}")

    if opt_cost is not None:
        r.add("solution_at_least_opt", solution_cost >= opt_cost,
              f"solution {solution_cost} vs opt {opt_cost}")
        guarantee = guarantee_ratio(k)
        r.ratio_bound = guarantee
        r.add("solution_within_ratio_guarantee",
              _le_padded(solution_cost, guarantee * opt_cost),
              f"solution {solution_cost} vs {guarantee:.6f} * opt {opt_cost}")

    return r
