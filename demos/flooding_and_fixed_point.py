"""Flooding mode and the offset fixed-point residual.

First makes a center node a non-updating reference and shows every other
corrected drift locking onto it.  Then runs the plain offset variant
without measurement noise and checks the final state against the
stationarity condition of the expected dynamics.
"""

import numpy as np

from clocksync import analysis, engine, sync, topology


def main():
    # --- flooding: one reference clock, everyone follows -----------------
    net = topology.generate_geometric(topology.GeometricSpec(10, 0.5, 0.1), seed=5)
    lam = topology.centers(net)[0]
    ref_net = sync.make_reference(net, lam)
    cfg = sync.SyncConfig(drift=sync.DriftA(100), offset=sync.OffsetA())
    result = engine.run(ref_net, cfg, max_updates=50_000, seed=5)
    m = analysis.metrics(result)
    g = m.g_hat[-1]
    print(f"reference node {lam}: corrected drift {g[lam]:.6f}")
    print(f"largest relative deviation of the others: "
          f"{np.abs(g - g[lam]).max() / abs(g[lam]):.2e}")

    # --- fixed point: where do the offsets actually settle? --------------
    quiet = topology.generate_geometric(
        topology.GeometricSpec(10, 0.5, 0.1, eta_sigma=0.0, xi_sigma=0.0), seed=5)
    result = engine.run(quiet, cfg, max_updates=100_000, seed=5)
    report = analysis.fixed_point_residual(result)
    print(f"\nnoise-free offset run: fixed-point residual "
          f"{report.residual:.3e} (converged={report.converged})")
    print("the corrected offsets and compensation parameters satisfy the")
    print("expected-dynamics stationarity condition up to this residual.")


if __name__ == "__main__":
    main()
