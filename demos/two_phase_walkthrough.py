"""Step through both greedy phases on the three-spoke star.

Three terminals hang off one hub by unit edges. The terminal-spanning MST
costs 4 (two shortest paths of length 2), but the star through the hub
costs 3. Phase 1 finds it by gain/loss ratio; phase 2 confirms it by
burning down the gap between the MST and the phase-1 tree.
"""
from steinertree import (
    CandidatePool,
    Instance,
    enumerate_full_components,
    metric_closure,
    minimum_spanning_tree,
)
from steinertree.phase1 import run_phase1
from steinertree.phase2 import run_phase2


def main():
    inst = Instance.build(4, [(1, 4, 1), (2, 4, 1), (3, 4, 1)], [1, 2, 3],
                          name="star3")
    closure = metric_closure(inst)
    print("pairwise terminal distances:")
    for u, v in [(1, 2), (1, 3), (2, 3)]:
        print(f"  d({u},{v}) = {closure.distance(u, v)}")

    candidates = enumerate_full_components(inst, closure, k=3)
    print(f"\ncandidate components (k=3): {len(candidates)}")
    built = candidates.build(list(range(len(candidates))))
    for i, loss in enumerate(built.losses.tolist()):
        print(f"  terminals {candidates.terminals(i)}  cost {candidates.costs[i]}  loss {loss}")

    pool = CandidatePool(candidates)
    terms = sorted(inst.terminals)
    t0 = minimum_spanning_tree(terms, closure.block(terms))
    p1 = run_phase1(inst, closure, pool, t0)
    print(f"\nphase 1: terminal MST = {p1.mst_cost}")
    for row in p1.trace["iterations"]:
        print(f"  pick {row['terminals']}: gain {row['gain']}, loss {row['loss']}, "
              f"ratio {row['ratio']}, tree cost -> {row['tree_cost']}")
    print(f"  base tree {p1.base_tree.total_cost}, merged solution "
          f"{p1.solution.total_cost}")

    p2 = run_phase2(inst, pool, t0, p1.start, p1.base)
    print(f"\nphase 2: initial gap = {p2.trace['initial_gap']}")
    for row in p2.trace["iterations"]:
        f_num, f_den = row["f"]
        print(f"  pick {row['terminals']}: load {row['load']}, "
              f"difference {row['saving_diff']}, f = {f_num}/{f_den}, "
              f"costs -> origin {row['origin_cost']} base {row['base_cost']}")
    print(f"  stalled: {p2.stalled}")
    print(f"  merged solution {p2.solution.total_cost}")

    best = min(p1.solution.total_cost, p2.solution.total_cost)
    print(f"\nfinal answer: {best} (optimum is 3, the star itself)")


if __name__ == "__main__":
    main()
