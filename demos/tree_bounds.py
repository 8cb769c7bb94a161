"""Certified bounds for constrained minimum-weight trees on a small K_n.

Walks through the three attacks on the minimum weight over trees with at
least tau edges: the greedy spanning path (feasible upper bound), the
light-edge counting bound (certified lower bound), and the exact
subset-enumeration oracle that is only affordable at desk scale.
"""

from minweight.trees import (
    CompleteInstance,
    exact_min_tree,
    greedy_spanning_path,
    kruskal_mst,
    min_tree_upper_bound,
    prufer_mst_weight,
    threshold_lower_bound,
)
from minweight.weights import SeedContext, TreeWeightSpec

# A 7-vertex complete graph with heavy random weights: alpha controls how
# much mass the weight law puts near zero (smaller alpha = heavier). The
# context holds one trial, so every routine below answers a 1-tuple.
spec = TreeWeightSpec(alpha=0.5, m_min=0.5, heterogeneous=True)
inst = CompleteInstance(7, spec, SeedContext(master_seed=2024, trial_index=0))

# The greedy walk starts at vertex 1 and always moves to the cheapest
# unvisited vertex. Its tau-edge prefix is a tree, hence an upper bound.
paths = greedy_spanning_path(inst)
(path,) = paths
print("greedy order:", path.order)
print("greedy step weights:", [round(w, 4) for w in path.step_weights])

print(f"\n{'tau':>4} {'lower':>8} {'exact':>8} {'upper':>8}")
for tau in range(1, 7):
    lower = max(threshold_lower_bound(inst, tau, g)[0] for g in (0.25, 0.5, 1.0, 2.0))
    (exact,) = exact_min_tree(inst, tau)
    (upper,) = min_tree_upper_bound(inst, tau, paths)
    print(f"{tau:>4} {lower:>8.4f} {exact.total_weight:>8.4f} {upper:>8.4f}")

# At tau = n-1 the problem is the ordinary MST, and dense Prim (kruskal_mst)
# solves it exactly; the Prufer-sequence enumeration over all 7^5 = 16807
# labelled trees confirms it.
(mst,) = kruskal_mst(inst)
(enumerated,) = prufer_mst_weight(inst)
(exact,) = exact_min_tree(inst, 6)
print("\nPrim spanning weight:      ", mst.total_weight)
print("enumeration over all trees:", enumerated)
print("exact oracle at tau = n-1: ", exact.total_weight)
