"""Hop-constrained passage times on Z^2 and their decay to the unconstrained one.

Each lattice edge carries a random positive passage time. The minimum time
from the origin to (n, 0) over paths of at most k edges decreases in k and
locks onto the unconstrained minimum once the hop budget covers the optimal
path. Both values are exact for the infinite lattice: the hop DP relaxes
only the finitely many cells a walk of at most k edges to the target can
visit, and Dijkstra runs on a finite box whose boundary labels prove that
no path leaving it is shorter.
"""

from minweight.lattice import (
    LatticeSpec,
    hop_constrained_time,
    straight_path_time,
    unconstrained_time,
)
from minweight.weights import PassageTimeSpec, SeedContext

lat = LatticeSpec(
    d=2,
    spec=PassageTimeSpec("exponential", (1.0,)),
    ctx=SeedContext(master_seed=99, trial_index=0),
)
n = 8

# The straight path along the first axis is always feasible once k >= n, so
# it caps every constrained value. Each routine answers one entry per trial
# of the context, here one.
(straight,) = straight_path_time(lat, n)
(free,) = unconstrained_time(lat, n)
print(f"straight path time:      {straight:.4f}  ({n} hops)")
print(f"unconstrained optimum:   {free.value:.4f}  ({free.hop_count} hops)")
print(f"optimal path: {free.path}\n")

print(f"{'k':>4} {'T_n(k)':>9} {'hops':>5} {'= T_n?':>7}")
for k in (n, n + 2, n + 4, n + 8, n + 16, n + 32):
    (res,) = hop_constrained_time(lat, n, k)
    equal = abs(res.value - free.value) <= 1e-9 * free.value
    print(f"{k:>4} {res.value:>9.4f} {res.hop_count:>5} {str(equal):>7}")

# At k = n only the straight path fits the budget (any sidestep costs two
# extra hops by parity); by k ~ 2n the constraint has stopped binding, which
# is the mechanism behind the 1/k decay of P(T_n(k) != T_n).
