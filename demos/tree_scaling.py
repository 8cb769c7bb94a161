"""Scaling of the spanning-tree weight under heavy edge weights.

With edge-weight cdfs squeezed between two multiples of x**(1/alpha), the
minimum spanning weight of K_n grows like n**(1-alpha). This demo sweeps a
few sizes at two alphas and fits the exponent on a log-log grid.
"""

from minweight.stats import loglog_fit, summarize
from minweight.trees import CompleteInstance, kruskal_mst
from minweight.weights import SeedContext, TreeWeightSpec

TRIALS = 40
SIZES = (32, 64, 128, 256)

for alpha in (0.3, 0.7):
    spec = TreeWeightSpec(alpha=alpha)
    points = []
    print(f"alpha = {alpha}  (expected exponent {1 - alpha:.1f})")
    for n in SIZES:
        # one instance holds all TRIALS trials; kruskal_mst answers once per trial
        inst = CompleteInstance(n, spec, SeedContext(7, 0, TRIALS))
        s = summarize([tree.total_weight for tree in kruskal_mst(inst)])
        points.append((n, s.mean))
        print(f"  n={n:>4}  mean weight {s.mean:8.3f}  (se {s.standard_error:.3f})")
    fit = loglog_fit(points)
    print(f"  fitted slope {fit.slope:.3f}, r^2 = {fit.r_squared:.5f}\n")

# The fitted slopes track 1 - alpha already at these small sizes; the
# acceptance suite repeats this at n up to 1024 with a +/- 0.08 tolerance.
