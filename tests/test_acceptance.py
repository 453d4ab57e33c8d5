"""Acceptance suite: twelve end-to-end criteria at pinned tolerances.

Each criterion prints exactly one PASS/FAIL line (visible with -s or in
the captured output of failing tests).  Runs are cached per scenario and
reduced to small summaries so the whole suite fits in memory.

The offset criteria (4 and 6) are measured against the stationary point
f* of the expected offset recursion (``analysis.offset_fixed_point``):
the paper proves that the corrected offsets converge, not that they reach
consensus or converge at a given rate.  With nu^-0.99 steps the step sum
over one decade of k is only about 2.5, so a per-node relative Cauchy band
over the last decade, or tenfold growth of the ablations over it, asks
for a rate the recursion does not have.  Criterion 4 asks the intact
variants to sit near f* and to keep approaching it; criterion 6 asks the
frozen-compensation ablation to move exactly as the recursion without
compensation predicts, and the ablation without time terms to stay far
from f*.  Each carries a negative control drawn from the cached runs.
"""

import functools

import numpy as np
import pytest

from clocksync import analysis, experiments, topology

# deselect with `pytest -m "not acceptance"` for a quick loop
pytestmark = pytest.mark.acceptance

SEEDS = tuple(range(10))


def _report(num: int, desc: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{desc}]: {status} -- {detail}")
    return ok


# presets that define identical scenarios share one cache entry
_ALIASES = {"fig2a": "fig1b", "fig4b": "fig1c", "fig4c": "fig1d"}


def summaries(preset: str) -> tuple:
    return _summaries(_ALIASES.get(preset, preset))


@functools.lru_cache(maxsize=None)
def _summaries(preset: str) -> tuple:
    """Run one preset over all seeds, keeping only what the criteria need."""
    cfg = experiments.preset_config(preset)
    out = []
    for seed in SEEDS:
        r = experiments.run_single(cfg, seed)
        m = analysis.metrics(r)
        alphas = r.net.alphas()
        lo = len(m.k) // 10
        f = m.f_hat
        f_star = analysis.offset_fixed_point(r)
        common_mode = analysis.frozen_compensation_drift(r, lo)
        sd = analysis.scaled_disagreement(m, 1.0)
        profile = topology.probability_profile(r.net)

        # per-arc mean increment vs the thinned-Poisson expectation
        arc_ratios = []
        tr = r.trace
        for j, i in r.net.arcs:
            times = tr.t_send[(tr.sender == j) & (tr.receiver == i)]
            if len(times) < 100:
                continue
            gaps = np.diff(times)
            expected = 1.0 / (r.net.rates[j] * r.net.arcs[(j, i)].p_hear)
            arc_ratios.append(float(gaps.mean() / expected))

        muted = [i for i in range(r.net.n)
                 if r.net.in_neighbors(i)
                 and all(r.net.arcs[(j, i)].gamma == 0.0
                         for j in r.net.in_neighbors(i))]

        drift_rate, drift_r2 = analysis.geometric_decay_fit(m.k, m.drift_spread)
        off_rate, off_r2 = analysis.geometric_decay_fit(
            m.k, m.offset_dispersion)

        out.append({
            "init_spread": float(alphas.max() - alphas.min()),
            "final_spread": float(m.drift_spread[-1]),
            "tail_slope": analysis.loglog_slope(m.k[lo:], sd[lo:]),
            "beta_ptp": float(np.ptp(r.net.betas())),
            "fstar_dist_start": float(np.abs(f[lo] - f_star).max()),
            "fstar_dist_final": float(np.abs(f[-1] - f_star).max()),
            "cm_move": common_mode.observed,
            "cm_predicted": common_mode.predicted,
            "identity_gap": float(np.abs(r.trace.b_hat + r.trace.c_hat).max()),
            "disp_final": float(m.offset_dispersion[-1]),
            "c_spread_final": float(np.ptp(r.trace.c_hat[-1])),
            "fp_residual": analysis.fixed_point_residual(r).residual,
            "nu_frac": r.nu / max(r.updates, 1),
            "p": profile.p,
            "arc_ratios": arc_ratios,
            "g_final": m.g_hat[-1].copy(),
            "muted": muted,
            "drift_fit": (drift_rate, drift_r2),
            "offset_fit": (off_rate, off_r2),
            "max_spread_after_1e4": float(m.drift_spread[9999:].max()),
            "max_disp_after_1e4": float(m.offset_dispersion[9999:].max()),
        })
    return tuple(out)


def test_criterion_01_drift_consensus():
    details = []
    ok = True
    for preset in ("fig1a", "fig1b", "fig1c", "fig1d"):
        ratios = [s["final_spread"] / s["init_spread"]
                  for s in summaries(preset)]
        med = float(np.median(ratios))
        ok &= med <= 0.10
        details.append(f"{preset} med={med:.2e}")
    assert _report(1, "drift consensus, all variants", ok,
                   "; ".join(details) + " (need <= 0.1)")


def test_criterion_02_variant_ordering():
    long_win = float(np.median([s["final_spread"] for s in summaries("fig1b")]))
    short_win = float(np.median([s["final_spread"] for s in summaries("fig1a")]))
    ok = long_win < short_win
    assert _report(2, "long window beats short window", ok,
                   f"L=100 med {long_win:.2e} < L=1 med {short_win:.2e}")


def test_criterion_03_rate_diagnostic():
    slope_b = float(np.median([s["tail_slope"] for s in summaries("fig4b")]))
    slope_c = float(np.median([s["tail_slope"] for s in summaries("fig4c")]))
    ok = slope_b <= 0.0 and slope_c > 0.0
    assert _report(3, "scaled disagreement tails", ok,
                   f"variant b slope {slope_b:+.3f} (need <= 0), "
                   f"variant c slope {slope_c:+.3f} (need > 0)")


def _settles_on_fixed_point(s: dict) -> bool:
    """Offsets within 5% of the clock-offset range of f* at the last
    update, and closer to it than a decade of k earlier."""
    return (s["fstar_dist_final"] <= 0.05 * s["beta_ptp"]
            and s["fstar_dist_final"] < s["fstar_dist_start"])


def test_criterion_04_offset_cauchy():
    intact = summaries("fig2a") + summaries("fig2b")
    worst = max(s["fstar_dist_final"] / s["beta_ptp"] for s in intact)
    settled = sum(_settles_on_fixed_point(s) for s in intact)
    # negative control: the same check must reject every ablated run
    ablated = summaries("fig2c") + summaries("fig2d")
    ablated_passing = sum(_settles_on_fixed_point(s) for s in ablated)
    identity = max(s["identity_gap"] for s in summaries("fig2a"))
    ok = (settled == len(intact) and ablated_passing == 0
          and identity <= 1e-10)
    assert _report(4, "offsets settle on the expected fixed point + identity",
                   ok,
                   f"{settled}/{len(intact)} intact runs settle, worst "
                   f"max|f(K) - f*| = {worst:.3f} ptp(beta) (need all, "
                   f"<= 0.05 and below the K/10 value); ablated runs "
                   f"settling {ablated_passing}/{len(ablated)} (need 0); "
                   f"max |b+c| = {identity:.2g} (need <= 1e-10)")


def test_criterion_05_dispersion_comparison():
    disp_a = float(np.median([s["disp_final"] for s in summaries("fig2a")]))
    disp_b = float(np.median([s["disp_final"] for s in summaries("fig2b")]))
    c_a = float(np.median([s["c_spread_final"] for s in summaries("fig2a")]))
    c_b = float(np.median([s["c_spread_final"] for s in summaries("fig2b")]))
    ok = disp_b <= disp_a and c_b <= 0.10 * c_a
    assert _report(5, "consensus variant disperses less", ok,
                   f"dispersion {disp_b:.4f} <= {disp_a:.4f}; "
                   f"c spread {c_b:.2e} <= 10% of {c_a:.2e}")


def _drifts_without_compensation(s: dict) -> bool:
    """Last-decade common-mode move within 10% of what the recursion with
    c pinned at zero predicts, carrying the offsets away from f*."""
    return (abs(s["cm_move"] / s["cm_predicted"] - 1.0) <= 0.10
            and s["fstar_dist_final"] > s["fstar_dist_start"])


def test_criterion_06_ablation_divergence():
    frozen = summaries("fig2d")
    frozen_ok = sum(_drifts_without_compensation(s) for s in frozen)
    worst_dev = max(abs(s["cm_move"] / s["cm_predicted"] - 1.0)
                    for s in frozen)
    # without the time terms the offsets stay far from f*; the intact
    # run on the same seed (same noise, same drift estimates) is the scale
    intact = summaries("fig2a")
    gap_ratios = [c["fstar_dist_final"] / a["fstar_dist_final"]
                  for c, a in zip(summaries("fig2c"), intact)]
    # negative control: the intact run must not drift like the ablation
    intact_drifting = sum(_drifts_without_compensation(s) for s in intact)
    ok = (frozen_ok == len(frozen) and min(gap_ratios) >= 10.0
          and intact_drifting == 0)
    assert _report(6, "ablations leave the expected fixed point", ok,
                   f"fig2d follows the uncompensated drift on "
                   f"{frozen_ok}/{len(frozen)} seeds, worst deviation "
                   f"{worst_dev:.1%} (need all, <= 10% and moving away "
                   f"from f*); fig2c distance from f* >= "
                   f"{min(gap_ratios):.1f}x fig2a's (need >= 10x); fig2a "
                   f"drifting on {intact_drifting}/{len(intact)} seeds "
                   f"(need 0)")


def test_criterion_07_fixed_point():
    residuals = [s["fp_residual"] for s in summaries("fixedpoint")]
    worst = max(residuals)
    ok = worst < 5e-2
    assert _report(7, "noise-free fixed-point residual", ok,
                   f"max over seeds {worst:.3g} (need < 5e-2)")


def test_criterion_08_noiseless_geometric():
    ok = True
    worst_val, worst_r2 = 0.0, 1.0
    for s in summaries("noiseless"):
        val = max(s["max_spread_after_1e4"], s["max_disp_after_1e4"])
        r2 = min(s["drift_fit"][1], s["offset_fit"][1])
        worst_val = max(worst_val, val)
        worst_r2 = min(worst_r2, r2)
        ok &= val < 1e-6 and r2 > 0.95
    assert _report(8, "noise-free constant-step geometric decay", ok,
                   f"worst level {worst_val:.2g} (need < 1e-6), "
                   f"worst fit R2 {worst_r2:.3f} (need > 0.95)")


def test_criterion_09_flooding():
    worst = 0.0
    for s in summaries("flooding"):
        assert len(s["muted"]) == 1
        lam = s["muted"][0]
        g = s["g_final"]
        worst = max(worst, float(np.abs(g - g[lam]).max() / abs(g[lam])))
    ok = worst <= 1e-2
    assert _report(9, "flooding locks onto the reference", ok,
                   f"worst relative deviation {worst:.2e} (need <= 1e-2)")


def test_criterion_10_spectral_suite():
    ok = True
    worst_resid = 0.0
    for case in range(100):
        n = 3 + case % 18
        net = topology.generate_geometric(
            topology.GeometricSpec(n, 0.45, 0.15), seed=1000 + case)
        rep = analysis.spectral_check(analysis.build_B_bar(net))
        ok &= rep.ok
        q = np.eye(n - 1)
        r = analysis.lyapunov_solve(rep.B_star, q)
        resid = float(
            np.linalg.norm(r @ rep.B_star + rep.B_star.T @ r + q)
            / np.linalg.norm(q))
        worst_resid = max(worst_resid, resid)
    ok &= worst_resid < 1e-8
    assert _report(10, "spectral suite over 100 networks", ok,
                   f"all spectra consensus-stable; worst Lyapunov residual "
                   f"{worst_resid:.2g} (need < 1e-8)")


def test_criterion_11_update_statistics():
    worst_nu = 0.0
    ratios = []
    for s in summaries("fig1a"):
        worst_nu = max(worst_nu, float(
            np.abs(s["nu_frac"] / s["p"] - 1.0).max()))
        ratios.extend(s["arc_ratios"])
    med_ratio = float(np.median(ratios))
    ok = worst_nu <= 0.05 and abs(med_ratio - 1.0) <= 0.05
    assert _report(11, "update-count and increment statistics", ok,
                   f"worst |nu_i/k / p_i - 1| = {worst_nu:.3g} (need <= 0.05); "
                   f"median increment ratio {med_ratio:.4f} "
                   f"(need within 5% of 1)")


def test_criterion_12_determinism(tmp_path):
    cfg = experiments.preset_config("fig1a")
    cfg.seeds = [0]
    cfg.updates = 20_000
    cfg.stride = 1
    experiments.run_experiment(cfg, tmp_path / "r1")
    experiments.run_experiment(cfg, tmp_path / "r2")
    b1 = (tmp_path / "r1" / "trace_seed0.csv").read_bytes()
    b2 = (tmp_path / "r2" / "trace_seed0.csv").read_bytes()
    ok = b1 == b2
    assert _report(12, "byte-identical reruns", ok,
                   f"{len(b1)} bytes compared")
