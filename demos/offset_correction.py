"""Offset correction with delay compensation, and why its pieces matter.

Shows the plain and consensus offset variants side by side, then the two
ablations: removing the linear-time guard terms and pinning the delay
compensation parameter at zero.  The intact algorithms settle; the
ablated ones drift.
"""

import numpy as np

from clocksync import analysis, engine, experiments, sync, topology


def run_case(label, **cfg_kwargs):
    net = topology.generate_geometric(topology.GeometricSpec(10, 0.5, 0.1), seed=1)
    cfg = sync.SyncConfig(drift=sync.DriftA(100), **cfg_kwargs)
    result = engine.run(net, cfg, max_updates=30_000, seed=1)
    m = analysis.metrics(result)
    print(f"{label:28s} dispersion {m.offset_dispersion[-1]:10.4f}   "
          f"max |f_hat| {np.abs(m.f_hat[-1]).max():10.4f}")
    return result, m


def main():
    print("offset correction after 30k updates (n=10, lossy, delayed):\n")
    res_a, _ = run_case("plain", offset=sync.OffsetA())
    res_b, _ = run_case("consensus (sigma=0.5)", offset=sync.OffsetB(0.5))
    run_case("ablation: no time guards", offset=sync.OffsetA(),
             drop_t_terms=True)
    run_case("ablation: compensation off", offset=sync.OffsetA(),
             freeze_compensation=True)

    # the plain variant keeps b + c = 0 exactly; the consensus variant
    # instead pulls everyone's compensation parameter together
    identity = np.abs(res_a.trace.b_hat + res_a.trace.c_hat).max()
    c_spread_a = np.ptp(res_a.trace.c_hat[-1])
    c_spread_b = np.ptp(res_b.trace.c_hat[-1])
    print(f"\nplain:     max |b_hat + c_hat| over the whole run = {identity:g}")
    print(f"plain:     final compensation spread = {c_spread_a:.4g}")
    print(f"consensus: final compensation spread = {c_spread_b:.4g}")


if __name__ == "__main__":
    main()
