"""Compare the drift-correction variants on one random network.

Runs the windowed variant (short and long window), the receding-anchor
variant and the fixed-anchor variant, each on its own preset scenario,
and prints how far the corrected drifts have contracted by the end of
the run.  Shorter runs than the full experiment presets keep this quick.
"""

import numpy as np

from clocksync import analysis, engine, experiments


def main():
    updates = 20_000
    seed = 0
    print(f"{'scenario':10s} {'variant':24s} {'initial':>10s} "
          f"{'final':>10s} {'ratio':>10s}")
    for preset in ("fig1a", "fig1b", "fig1c", "fig1d"):
        cfg = experiments.preset_config(preset)
        cfg.updates = updates
        result = experiments.run_single(cfg, seed)
        m = analysis.metrics(result)
        init, fin = m.drift_spread[0], m.drift_spread[-1]
        print(f"{preset:10s} {str(cfg.algorithm.drift):24s} {init:10.3e} "
              f"{fin:10.3e} {fin / init:10.3e}")

    # the spread of corrected drifts shrinks even though every node only
    # ever sees noisy, delayed, occasionally lost broadcasts
    cfg = experiments.preset_config("fig1b")
    cfg.updates = updates
    result = experiments.run_single(cfg, seed)
    m = analysis.metrics(result)
    print("\ncorrected drifts (fig1b, final):")
    print(np.array2string(m.g_hat[-1], precision=6))


if __name__ == "__main__":
    main()
