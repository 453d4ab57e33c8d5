"""Experiment runner: configs, scenario presets, seed sweeps and the
command line interface.

The runner is a thin composition layer: every number it writes comes
from :mod:`clocksync.engine` or :mod:`clocksync.analysis`.  Configs are
JSON with a versioned schema whose keys, types and defaults are the
fields of the config dataclasses; unknown keys are rejected to catch
typos.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field
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


_DEFAULT_NETWORK = {"kind": "geometric", "n": 10, "radius": 0.5}
# the class each "variant" value names; None is no offset
_DRIFTS = {"a": sync.DriftA, "b": sync.DriftB, "c": sync.DriftC}
_OFFSETS = {"a": sync.OffsetA, "b": sync.OffsetB, None: None}


@dataclass
class ExperimentConfig:
    """Validated description of one experiment (possibly many seeds);
    ``network`` is a geometric network's spec or a network loaded from a
    file.  It is checked however it is built, ``dataclasses.replace``
    included."""

    network: topology.GeometricSpec | topology.Network
    algorithm: sync.SyncConfig = field(default_factory=sync.SyncConfig)
    reference_node: int | str | None = None
    updates: int = 100_000
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    stride: int = 1

    def __post_init__(self) -> None:
        if not (sync.is_int(self.updates) and self.updates >= 1):
            raise ConfigError("updates must be a positive integer")
        if not (sync.is_int(self.stride) and self.stride >= 1):
            raise ConfigError("stride must be a positive integer")
        seeds = self.seeds
        if not isinstance(seeds, list) or not all(sync.is_int(s) for s in seeds):
            raise ConfigError("seeds must be a list of integers")
        if not seeds:
            raise ConfigError("seeds must list at least one seed")
        if not all(0 <= s <= MAX_SEED for s in seeds) or len(set(seeds)) < len(seeds):
            raise ConfigError(f"seeds must be distinct integers in 0..{MAX_SEED}")
        self.seeds = list(seeds)  # not the caller's list
        ref, net = self.reference_node, self.network
        if ref is None:
            return
        if ref != "center":
            if not sync.is_int(ref) or ref < 0:
                raise ConfigError("reference_node must be a node id or 'center'")
            if ref >= net.n:
                raise ConfigError(f"reference_node {ref} is out of range for n={net.n}")
        if isinstance(net, topology.Network):
            centers = topology.centers(net)
            if ref == "center" and not centers:
                raise ConfigError("reference_node 'center' needs a node that reaches "
                                  "every other node, and the network file has none")
            if ref != "center" and ref not in centers:
                raise ConfigError(f"reference_node {ref} is not a center of the network "
                                  "file: flooding needs a root that reaches every node")

    def build_network(self, seed: int) -> topology.Network:
        net = self.network
        if isinstance(net, topology.GeometricSpec):
            net = topology.generate_geometric(net, seed)
        node = self.reference_node
        if node == "center":
            node = topology.centers(net)[0]
        if node is None:
            return net
        try:
            return sync.make_reference(net, node)
        except ValueError as exc:
            raise ConfigError(f"reference_node {node}, seed {seed}: {exc}") from exc

    # -- parsing ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config a JSON object describes: the fields of this class but
        ``algorithm``, of :class:`sync.SyncConfig` but ``steps``, and of
        :class:`sync.StepSchedule`; ``network``, ``drift`` and ``offset`` are objects."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        data = dict(data)
        version = data.pop("schema_version", None)
        if not sync.is_int(version) or version != CONFIG_SCHEMA_VERSION:
            raise ConfigError("missing or unsupported schema_version")
        network = _parse_network(data.pop("network", _DEFAULT_NETWORK))
        algorithm = {"steps": _read(sync.StepSchedule, data, shared=True)}
        if "drift" in data:
            algorithm["drift"] = _variant(data.pop("drift"), _DRIFTS, "drift")
        if "offset" in data:
            algorithm["offset"] = _variant(data.pop("offset"), _OFFSETS, "offset")
        algorithm = _read(sync.SyncConfig, data, shared=True, **algorithm)
        return _read(cls, data, network=network, algorithm=algorithm)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(_read_json(path))


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # a decode error, or an integer past int()'s digits
        raise ConfigError(f"invalid JSON: {exc}") from exc


def _is_int(value) -> bool:
    """An integer (not a bool) that an int64 holds."""
    return sync.is_int(value) and -2**63 <= value < 2**63


def _is_real(value) -> bool:
    """A number (not a bool) whose float is finite."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer past the float range
        return False


# The JSON type of a config field by its annotation; its class checks the
# range, and the whole value of a field typed otherwise (seeds, reference_node).
_JSON_TYPES = {
    "int": (_is_int, "an integer of at most 64 bits"),
    "float": (_is_real, "a finite number"),
    "float | None": (lambda v: v is None or _is_real(v), "a finite number or null"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "tuple[float, float]": (
        lambda v: (isinstance(v, (list, tuple)) and len(v) == 2
                   and all(map(_is_real, v))),
        "a list [low, high] of two finite numbers"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _read(cls, data: dict, where: str = "", shared: bool = False, **given):
    """A ``cls`` from ``given`` and from the keys of the JSON object
    ``data`` that name its other fields, which are taken out of ``data``.
    A key that is not a field is rejected, unless ``data`` is ``shared``
    with readers of other classes.  Each value must have its field's JSON
    type and is passed as given (a list as a tuple); an absent field takes
    the dataclass's default."""
    fields = dataclasses.fields(cls)
    for f in fields:
        if f.name not in data or f.name in given:
            continue
        value = data.pop(f.name)
        if f.type in _JSON_TYPES:
            ok, what = _JSON_TYPES[f.type]
            if not ok(value):
                key = f"{where}.{f.name}" if where else f.name
                raise ConfigError(f"{key} must be {what}, got {value!r}")
            value = tuple(value) if isinstance(value, list) else value
        given[f.name] = value
    if data and not shared:
        raise ConfigError(f"unknown {where or 'config'} keys for {cls.__name__}: "
                          f"{sorted(data)}")
    missing = [f.name for f in fields if f.name not in given
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where or 'config'} needs {' and '.join(missing)}")
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def _variant(spec, classes: dict, where: str):
    """The object of the class that ``spec["variant"]`` names in
    ``classes``, read from the rest of ``spec``."""
    if spec is None and None in classes:
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a JSON object"
                          + (" or null" if None in classes else ""))
    spec = dict(spec)
    variant = spec.pop("variant", None)
    if not isinstance(variant, str | None) or variant not in classes:
        names = ", ".join("null" if v is None else repr(v) for v in classes)
        raise ConfigError(f"{where}.variant must be one of {names}")
    if classes[variant] is None:
        if spec:
            raise ConfigError(f"{where} without a variant takes no keys, "
                              f"got {sorted(spec)}")
        return None
    return _read(classes[variant], spec, where)


def _parse_network(net) -> topology.GeometricSpec | topology.Network:
    if not isinstance(net, dict):
        raise ConfigError("network must be a JSON object")
    net = dict(net)
    kind = net.pop("kind", None)
    if kind == "file":
        path = net.pop("path", None)
        if not isinstance(path, str):
            raise ConfigError("network.kind 'file' needs a path")
        if net:
            raise ConfigError(f"network keys {sorted(net)} are read only with "
                              "kind 'geometric'")
        try:
            return topology.Network.load(path)
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                IndexError, OverflowError) as exc:
            raise ConfigError(f"cannot load network file {path}: "
                              f"{type(exc).__name__}: {exc}") from exc
    if kind != "geometric":
        raise ConfigError("network.kind must be 'geometric' or 'file'")
    if "path" in net:
        raise ConfigError("network.path is read only with kind 'file'")
    return _read(topology.GeometricSpec, net, "network")


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


def _preset(network=(), **overrides) -> dict:
    """:data:`_BASE` with ``network`` merged into its network and every
    other key, ``drift`` and ``offset`` included, replaced whole."""
    data = copy.deepcopy({**_BASE, **overrides})
    data["network"].update(network)
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
    return engine.run(net, cfg.algorithm, max_updates=cfg.updates, seed=seed)


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
        rows = np.arange(0, result.updates, cfg.stride)
        analysis.metrics(result, rows).to_csv(metrics_path)
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
    if len({spec.n for spec in specs}) < len(specs):
        raise ConfigError("node counts must be distinct")
    subs = [dataclasses.replace(cfg, network=spec) for spec in specs]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary = []
    for sub in subs:
        msd_early = []
        for seed in cfg.seeds:
            result = run_single(sub, seed)
            K = result.updates
            path = outdir / f"metrics_n{sub.network.n}_seed{seed}.csv"
            analysis.metrics(result, np.arange(0, K, cfg.stride)).to_csv(path)
            written.append(path)
            head = max(1, K // 100)
            m = analysis.metrics(result, np.arange(min(head, K)))
            msd_early.append(float(np.mean(m.msd)))
            del result  # the next seed's network is built without this one's
        summary.append((sub.network.n, float(np.median(msd_early))))
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
    # loaded before the pools are pinned, so that scipy's pool is pinned too
    import scipy.linalg  # noqa: F401
    alg = cfg.algorithm
    with _one_blas_thread():
        for seed in cfg.seeds:
            net_path = outdir / f"network_seed{seed}.json"
            if not net_path.exists():
                continue
            any_found = True
            net = topology.Network.load(net_path)
            profile = topology.probability_profile(net)
            zeta = alg.steps.drift_zeta(alg.drift)
            rep = analysis.spectral_check(
                analysis.build_B_bar(net, profile, zeta))
            lines.append(f"seed {seed}:")
            lines.append(f"  spectral: zero_multiplicity={rep.zero_multiplicity} "
                         f"hurwitz={rep.hurwitz_ok} "
                         f"[{'PASS' if rep.ok else 'FAIL'}]")
            bound = analysis.rate_bound(alg.drift, alg.steps.zeta_prime, net,
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


def _release_free_heap() -> None:
    """Return the C heap's free pages to the OS (glibc only).

    glibc keeps a large freed block resident once an earlier block of
    that size was freed, so in a process that runs commands back to back
    (the tests, a notebook, a benchmark) a command's peak RSS would depend
    on what ran before it, such as a caller reading a 17 MB trace CSV.
    Trimming before and after each command makes that peak repeatable.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


_PROC_MAPS = "/proc/self/maps"
_OPENBLAS_THREADS = [f"{prefix}openblas_{{}}_num_threads{suffix}"
                     for prefix in ("", "scipy_") for suffix in ("", "64_")]


def _openblas_pools() -> list[tuple[str, object, object]]:
    """``(path, get, set)`` thread-count functions of every OpenBLAS that
    this process has loaded, found in ``/proc/self/maps``; empty where
    there is no such file or no OpenBLAS (MKL, Accelerate).

    numpy's and scipy's wheels each bundle their own OpenBLAS, and they
    export the pair as ``openblas_{get,set}_num_threads`` with a
    ``scipy_`` prefix and/or a ``64_`` suffix.
    """
    try:
        with open(_PROC_MAPS) as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    import ctypes
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREADS:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((path, get, set_))
                break
    return pools


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then
    restore each pool's previous count, also when the block raises.

    The thread count changes the last bits of the dense solves' results,
    and with two pools of one thread per core, one pool's idle workers
    spin while the other works: at n = 200 the spectral check and rate
    bound take nearly twice as long on two threads as on one.  Does
    nothing where no OpenBLAS is found.
    """
    pools = _openblas_pools()
    before = [get() for _, get, _ in pools]
    for _, _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, _, set_), count in zip(pools, before):
            set_(count)


def main(argv=None) -> int:
    _release_free_heap()
    try:
        return _main(argv)
    finally:
        _release_free_heap()


def _main(argv) -> int:
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
