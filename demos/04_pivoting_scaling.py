"""Runtime scaling of the selection step.

With the balanced modes precomputed, selecting r locations out of n costs
one pivoted QR of an r x n matrix: O(n r^2) work.  The script times the
pivoting across state dimensions and ranks and fits the exponents, with
the same window timer as the A9 acceptance gate and `balsel scaling`.
"""

import numpy as np

from balsel import matkernel

print("state-dimension sweep at fixed r = 10")
ns = [1000, 2000, 4000, 8000]
t_n = matkernel._pivoting_times([(n, 10) for n in ns])
for n, t in zip(ns, t_n):
    print(f"  n = {n:>5}: {1e3 * t:8.3f} ms")
print(f"fitted exponent: {np.polyfit(np.log(ns), np.log(t_n), 1)[0]:.2f} (~1 expected)")

print("\nrank sweep at fixed n = 4000")
rs = [5, 10, 20, 40]
t_r = matkernel._pivoting_times([(4000, r) for r in rs])
for r, t in zip(rs, t_r):
    print(f"  r = {r:>3}: {1e3 * t:8.3f} ms")
print(f"fitted exponent: {np.polyfit(np.log(rs), np.log(t_r), 1)[0]:.2f} (~2 expected)")
