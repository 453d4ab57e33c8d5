"""Experiment runner: configs, scenario presets, seed sweeps and the
command line interface.

The runner is a thin composition layer: every number it writes comes
from :mod:`clocksync.engine` or :mod:`clocksync.analysis`.  Configs are
JSON with a versioned schema; unknown keys are rejected to catch typos.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clocksync import analysis, engine, sync, topology
from clocksync.streams import MAX_SEED

CONFIG_SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "CLOCKSYNC_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    """Raised for malformed or out-of-range experiment configs."""


_SPEC_FIELDS = dataclasses.fields(topology.GeometricSpec)
_NETWORK_KEYS = {"kind", "path"} | {f.name for f in _SPEC_FIELDS}
_TOP_KEYS = {
    "schema_version", "network", "drift", "offset", "zeta_prime",
    "zeta_second", "constant_step", "drop_t_terms", "freeze_compensation",
    "reference_node", "updates", "seeds", "stride",
}
_DRIFT_KEYS = {"variant", "L", "nu", "l0"}
_OFFSET_KEYS = {"variant", "sigma"}


@dataclass
class ExperimentConfig:
    """Validated description of one experiment (possibly many seeds);
    ``network`` is a geometric network's spec or a network loaded from a
    file."""

    network: topology.GeometricSpec | topology.Network
    drift: sync.DriftVariant
    offset: sync.OffsetVariant | None
    steps: sync.StepSchedule
    drop_t_terms: bool = False
    freeze_compensation: bool = False
    reference_node: int | None = None
    updates: int = 100_000
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    stride: int = 1

    def sync_config(self) -> sync.SyncConfig:
        return sync.SyncConfig(
            drift=self.drift, offset=self.offset, steps=self.steps,
            drop_t_terms=self.drop_t_terms,
            freeze_compensation=self.freeze_compensation)

    def build_network(self, seed: int) -> topology.Network:
        net = self.network
        if isinstance(net, topology.GeometricSpec):
            net = topology.generate_geometric(net, seed)
        node = self.reference_node
        if node == "center":
            node = topology.centers(net)[0]
        return net if node is None else sync.make_reference(net, node)

    # -- parsing ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        version = data.get("schema_version")
        if not sync.is_int(version) or version != CONFIG_SCHEMA_VERSION:
            raise ConfigError("missing or unsupported schema_version")

        network = _parse_network(
            data.get("network", {"kind": "geometric", "n": 10, "radius": 0.5}))

        try:
            drift = _parse_drift(data.get("drift", {"variant": "a", "L": 1}))
            offset = _parse_offset(data.get("offset", {"variant": "a"}))
            steps = sync.StepSchedule(
                zeta_prime=_real(data, "zeta_prime", 0.99),
                zeta_second=_real(data, "zeta_second", 0.99),
                constant_step=(None if data.get("constant_step") is None
                               else _real(data, "constant_step", None)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        updates = _int(data, "updates", 100_000)
        if updates < 0:
            raise ConfigError("updates must be nonnegative")
        seeds = data.get("seeds", list(range(10)))
        if not isinstance(seeds, list) or not all(sync.is_int(s) for s in seeds):
            raise ConfigError("seeds must be a list of integers")
        if not seeds:
            raise ConfigError("seeds must list at least one seed")
        if not all(0 <= s <= MAX_SEED for s in seeds) or len(set(seeds)) < len(seeds):
            raise ConfigError(f"seeds must be distinct integers in 0..{MAX_SEED}")
        stride = _int(data, "stride", 1)
        if stride < 1:
            raise ConfigError("stride must be at least 1")
        ref = data.get("reference_node")
        if ref is not None and ref != "center":
            if not sync.is_int(ref) or ref < 0:
                raise ConfigError("reference_node must be a node id or 'center'")
            _check_reference(ref, network.n)
        if ref is not None and isinstance(network, topology.Network):
            centers = topology.centers(network)
            if ref == "center" and not centers:
                raise ConfigError("reference_node 'center' needs a node that "
                                  "reaches every other node, and the network "
                                  "file has none")
            if ref != "center" and ref not in centers:
                raise ConfigError(f"reference_node {ref} is not a center of the "
                                  "network file: flooding needs a root that "
                                  "reaches every node")
        return cls(network=network, drift=drift, offset=offset, steps=steps,
                   drop_t_terms=_bool(data, "drop_t_terms"),
                   freeze_compensation=_bool(data, "freeze_compensation"),
                   reference_node=ref,
                   updates=updates, seeds=list(seeds), stride=stride)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(_read_json(path))


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc


def _check_reference(ref, n: int) -> None:
    if sync.is_int(ref) and ref >= n:
        raise ConfigError(f"reference_node {ref} is out of range for n={n}")


def _is_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _int(spec: dict, key: str, default) -> int:
    value = spec.get(key, default)
    if not sync.is_int(value):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _real(spec: dict, key: str, default) -> float:
    value = spec.get(key, default)
    if not _is_real(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _bool(spec: dict, key: str) -> bool:
    value = spec.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


# JSON type of each GeometricSpec field, by its annotation; the spec
# checks the ranges.
_SPEC_TYPES = {
    "int": (sync.is_int, "an integer"),
    "float": (_is_real, "a finite number"),
    "tuple[float, float]": (
        lambda v: (isinstance(v, (list, tuple)) and len(v) == 2
                   and all(map(_is_real, v))),
        "a list [low, high] of two finite numbers"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _parse_network(net) -> topology.GeometricSpec | topology.Network:
    if not isinstance(net, dict):
        raise ConfigError("network must be a JSON object")
    unknown = set(net) - _NETWORK_KEYS
    if unknown:
        raise ConfigError(f"unknown network keys: {sorted(unknown)}")
    if net.get("kind") not in ("geometric", "file"):
        raise ConfigError("network.kind must be 'geometric' or 'file'")
    if net["kind"] == "file":
        if not isinstance(net.get("path"), str):
            raise ConfigError("network.kind 'file' needs a path")
        extra = set(net) - {"kind", "path"}
        if extra:
            raise ConfigError(f"network keys {sorted(extra)} are read only with "
                              "kind 'geometric'")
        try:
            return topology.Network.load(net["path"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                IndexError) as exc:
            raise ConfigError(f"cannot load network file {net['path']}: "
                              f"{type(exc).__name__}: {exc}") from exc
    if "path" in net:
        raise ConfigError("network.path is read only with kind 'file'")
    if "n" not in net or "radius" not in net:
        raise ConfigError("geometric network needs n and radius")
    values = {}
    for f in _SPEC_FIELDS:
        if f.name in net:
            value = net[f.name]
            ok, what = _SPEC_TYPES[f.type]
            if not ok(value):
                raise ConfigError(f"network.{f.name} must be {what}, got {value!r}")
            values[f.name] = tuple(value) if isinstance(value, list) else value
    try:
        return topology.GeometricSpec(**values)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc


def _parse_drift(spec: dict) -> sync.DriftVariant:
    if not isinstance(spec, dict):
        raise ConfigError("drift must be a JSON object")
    unknown = set(spec) - _DRIFT_KEYS
    if unknown:
        raise ConfigError(f"unknown drift keys: {sorted(unknown)}")
    variant = spec.get("variant")
    if variant == "a":
        return sync.DriftA(_int(spec, "L", 1))
    if variant == "b":
        return sync.DriftB(_real(spec, "nu", 0.5))
    if variant == "c":
        return sync.DriftC(_int(spec, "l0", 0))
    raise ConfigError("drift.variant must be 'a', 'b' or 'c'")


def _parse_offset(spec: dict | None) -> sync.OffsetVariant | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError("offset must be a JSON object or null")
    unknown = set(spec) - _OFFSET_KEYS
    if unknown:
        raise ConfigError(f"unknown offset keys: {sorted(unknown)}")
    variant = spec.get("variant")
    if variant is None:
        return None
    if variant == "a":
        return sync.OffsetA()
    if variant == "b":
        return sync.OffsetB(_real(spec, "sigma", 0.5))
    raise ConfigError("offset.variant must be 'a', 'b' or null")


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_BASE = {
    "schema_version": 1,
    "network": {"kind": "geometric", "n": 10, "radius": 0.5,
                "one_way_fraction": 0.1, "p_hear": 0.9, "delta_bar": 0.1,
                "eta_sigma": 0.05, "xi_sigma": 0.05},
    "drift": {"variant": "a", "L": 100},
    "offset": {"variant": "a"},
    "zeta_prime": 0.99,
    "zeta_second": 0.99,
    "updates": 100_000,
    "seeds": list(range(10)),
    "stride": 10,
}


def _preset(**overrides) -> dict:
    data = copy.deepcopy(_BASE)
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(data.get(key), dict):
            data[key].update(val)
        else:
            data[key] = val
    return data


# The growing-increment drift variants need a slower tick rate than the
# windowed variant to leave their transient within the same update budget
# (their adaptation gain per update scales with the inter-reception time,
# so the crossover to the asymptotic regime moves with the tick rate).
PRESETS: dict[str, dict] = {
    "fig1a": _preset(drift={"variant": "a", "L": 1}),
    "fig1b": _preset(drift={"variant": "a", "L": 100}),
    "fig1c": _preset(drift={"variant": "b", "nu": 0.5}, network={"mu": 0.05}),
    "fig1d": _preset(drift={"variant": "c", "l0": 0}, network={"mu": 0.2}),
    "fig2a": _preset(offset={"variant": "a"}),
    "fig2b": _preset(offset={"variant": "b", "sigma": 0.5}),
    "fig2c": _preset(offset={"variant": "a"}, drop_t_terms=True),
    "fig2d": _preset(offset={"variant": "a"}, freeze_compensation=True),
    "fig3": _preset(drift={"variant": "a", "L": 100}, stride=100),
    "fig4b": _preset(drift={"variant": "b", "nu": 0.5}, network={"mu": 0.05}),
    "fig4c": _preset(drift={"variant": "c", "l0": 0}, network={"mu": 0.2}),
    "flooding": _preset(reference_node="center"),
    "noiseless": _preset(
        network={"eta_sigma": 0.0, "xi_sigma": 0.0,
                 "delta_bar": 1e-9, "delta_min": 1e-12},
        drift={"variant": "a", "L": 1},
        offset={"variant": "b", "sigma": 0.5},
        constant_step=0.2, updates=10_000),
    "fixedpoint": _preset(
        network={"eta_sigma": 0.0, "xi_sigma": 0.0},
        offset={"variant": "a"}),
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; "
                          f"available: {sorted(PRESETS)}")
    return ExperimentConfig.from_dict(PRESETS[name])


# ---------------------------------------------------------------------------
# Runner operations
# ---------------------------------------------------------------------------

def run_single(cfg: ExperimentConfig, seed: int) -> engine.SimResult:
    net = cfg.build_network(seed)
    return engine.run(net, cfg.sync_config(),
                      max_updates=cfg.updates, seed=seed)


def run_experiment(cfg: ExperimentConfig, outdir) -> list[Path]:
    """Run every seed, writing trace, metrics and network files."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for seed in cfg.seeds:
        result = run_single(cfg, seed)
        net_path = outdir / f"network_seed{seed}.json"
        result.net.save(net_path)
        trace_path = outdir / f"trace_seed{seed}.csv"
        result.trace.to_csv(trace_path, stride=cfg.stride)
        metrics_path = outdir / f"metrics_seed{seed}.csv"
        analysis.metrics(result).to_csv(metrics_path, stride=cfg.stride)
        written += [net_path, trace_path, metrics_path]
        if result.silent_nodes:
            print(f"seed {seed}: nodes {result.silent_nodes} never received "
                  "a message; their estimates stayed initial",
                  file=sys.stderr)
    return written


def run_scaling(cfg: ExperimentConfig, node_counts, outdir) -> list[Path]:
    """Metrics per node count, plus a summary of early disagreement vs n;
    every node count is checked before anything is written."""
    if not isinstance(cfg.network, topology.GeometricSpec):
        raise ConfigError("scaling needs a geometric network, not a file")
    try:
        specs = [dataclasses.replace(cfg.network, n=n) for n in node_counts]
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc
    for spec in specs:
        _check_reference(cfg.reference_node, spec.n)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary = []
    for spec in specs:
        sub = dataclasses.replace(cfg, network=spec)
        msd_early = []
        for seed in cfg.seeds:
            result = run_single(sub, seed)
            m = analysis.metrics(result)
            path = outdir / f"metrics_n{spec.n}_seed{seed}.csv"
            m.to_csv(path, stride=cfg.stride)
            written.append(path)
            head = max(1, len(m.msd) // 100)
            msd_early.append(float(np.mean(m.msd[:head])))
        summary.append((spec.n, float(np.median(msd_early))))
    summary_path = outdir / "scaling_summary.csv"
    with open(summary_path, "w") as fh:
        fh.write("n,median_initial_msd\n")
        for n, v in summary:
            fh.write(f"{n},{engine.CSV_FLOAT_FORMAT % v}\n")
    written.append(summary_path)
    return written


def report(cfg: ExperimentConfig, outdir) -> Path:
    """Spectral report, rate bounds and fixed-point residuals for runs
    already produced by :func:`run_experiment` in ``outdir``."""
    outdir = Path(outdir)
    lines = []
    any_found = False
    for seed in cfg.seeds:
        net_path = outdir / f"network_seed{seed}.json"
        if not net_path.exists():
            continue
        any_found = True
        net = topology.Network.load(net_path)
        profile = topology.probability_profile(net)
        zeta = cfg.steps.drift_zeta(cfg.drift)
        rep = analysis.spectral_check(analysis.build_B_bar(net, profile, zeta))
        lines.append(f"seed {seed}:")
        lines.append(f"  spectral: zero_multiplicity={rep.zero_multiplicity} "
                     f"hurwitz={rep.hurwitz_ok} "
                     f"[{'PASS' if rep.ok else 'FAIL'}]")
        bound = analysis.rate_bound(cfg.drift, cfg.steps.zeta_prime, net,
                                    report=rep)
        lines.append(f"  rate bound: zeta*d_max={bound.zeta_d_max:.4f} "
                     f"(r={bound.r:.4g}, q={bound.q:.4g})")
        result = run_single(cfg, seed)
        fp = analysis.fixed_point_residual(result)
        lines.append(f"  fixed point: residual={fp.residual:.4g} "
                     f"converged={fp.converged} "
                     f"[{'PASS' if fp.residual < 5e-2 else 'FAIL'}]")
    if not any_found:
        raise FileNotFoundError(
            f"no run artifacts in {outdir}; run the experiment first")
    path = outdir / "report.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clocksync",
        description="Simulate and analyze distributed clock synchronization "
                    "over directed lossy networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "run an experiment (config file or preset)"),
            ("scaling", "run the node-count scaling sweep"),
            ("report", "emit spectral/rate/fixed-point report for prior runs")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="named scenario preset")
        p.add_argument("--seeds", type=int, nargs="*",
                       help="override the seed list")
        p.add_argument("--updates", type=int, help="override the update count")
        p.add_argument("--stride", type=int, help="override the output stride")
        p.add_argument("--outdir", help="output directory "
                       f"(default: ${OUTPUT_ROOT_ENV} or ./out)")
        if name == "scaling":
            p.add_argument("--nodes", type=int, nargs="+",
                           default=[10, 20, 50, 100])
    return parser


def _load_config(args) -> ExperimentConfig:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("give exactly one of --config or --preset")
    data = _read_json(args.config) if args.config else PRESETS[args.preset]
    overrides = {key: getattr(args, key) for key in ("seeds", "updates", "stride")
                 if getattr(args, key) is not None}
    if isinstance(data, dict):
        data = {**data, **overrides}
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    outdir = args.outdir or os.environ.get(OUTPUT_ROOT_ENV, "out")
    try:
        if args.command == "run":
            run_experiment(cfg, outdir)
        elif args.command == "scaling":
            run_scaling(cfg, args.nodes, outdir)
        else:
            report(cfg, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
