"""Sensor/actuator placement for a convectively unstable flow model.

The linearized Ginzburg-Landau equation on a Hermite grid is open-loop
unstable, so its gramians do not exist; an LQG controller with one
Gaussian sensing and actuation kernel per grid point stabilizes it first.
The controller itself is then balanced, and QR pivoting on its modes picks
which r of the 100 kernels to keep.  Near-symmetric dynamics make sensors
and actuators collocate; a flag forces them apart instead.
"""

import numpy as np

from balsel import FrequencyGrid, GinzburgLandauParams, gl_pipeline, lqg_gain_grid

params = GinzburgLandauParams()  # supercritical defaults, 100 grid points
print(f"grid spans [{params.grid.min():.2f}, {params.grid.max():.2f}], "
      f"amplification where mu(xi) > 0: |xi| < "
      f"{np.sqrt(-params.mu_profile[0] / params.mu_profile[2]):.2f}")

for r in range(1, 6):
    out = gl_pipeline(params, r=r)
    sel = out["selection"]
    xi_s = np.round(np.sort(params.grid[sel.gamma]), 2)
    xi_a = np.round(np.sort(params.grid[sel.beta]), 2)
    print(f"\nr={r}: closed-loop H2 = {out['h2']:.2f}  stable = {out['stable']}")
    print(f"  sensors   xi = {xi_s.tolist()}")
    print(f"  actuators xi = {xi_a.tolist()}")

# non-collocated variant: sensors may not reuse actuator grid points
out_nc = gl_pipeline(params, r=5, no_collocate=True)
print("\nnon-collocated r=5:")
print(f"  sensors   xi = {np.round(np.sort(params.grid[out_nc['selection'].gamma]), 2).tolist()}")
print(f"  actuators xi = {np.round(np.sort(params.grid[out_nc['selection'].beta]), 2).tolist()}")

# controller gain map: each selected sensor mostly drives its nearest actuator
out5 = gl_pipeline(params, r=5)
grid = FrequencyGrid(np.array([0.1, 10.0, 1000.0]))
gains, gs, bs = lqg_gain_grid(
    out5["controller"], out5["selection"].gamma, out5["selection"].beta, grid, params.grid
)
for i, omega in enumerate(grid.points):
    print(f"\ngain map (dB) at omega = {omega:g} (rows: actuators, cols: sensors)")
    print(np.array_str(np.round(gains[i], 1), max_line_width=100))
