"""The benchmark's workloads: generated configs, execution and output checks.

Every workload is batch work: one client runs a fixed list of operations
back to back in one process (a closed loop of one).  The workload seed
only chooses which simulation seeds, out of a pool of ``POOL_SIZE``, the
operations use and in which order; every operation's outputs therefore
have a fingerprint recorded in ``fingerprints.json``.

``variants-n10``
    In-process path of the acceptance suite and the demos: for each
    simulation seed, presets fig1b, fig1c, fig1d, fig2b, fig2c, fig2d and
    flooding through ``experiments.run_single``, ``analysis.metrics`` and
    ``analysis.fixed_point_residual``.  Paper scale (n=10), where per-event
    Python work in engine/sync/clock dominates; writes no files.
``run-report-n200``
    ``clocksync run`` then ``clocksync report`` through
    ``experiments.main`` on a fig1b config with n=200, radius 0.15 and
    stride 10: a sparse but wide network, where the per-update snapshot,
    trace memory, the trace CSV and report's re-simulation dominate.
``scaling-dense``
    ``clocksync scaling --nodes 50 100 200`` on fig1b at the preset
    radius 0.5: dense fan-out, a deep event heap and heavy per-arc
    substream setup, writing metrics CSVs only.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from clocksync import analysis, experiments

POOL_SIZE = 24

PARAMS = {
    "variants-n10": {
        "presets": ["fig1b", "fig1c", "fig1d", "fig2b", "fig2c", "fig2d",
                    "flooding"],
        "updates": 20_000,
    },
    "run-report-n200": {"preset": "fig1b", "n": 200, "radius": 0.15,
                        "stride": 10, "updates": 20_000},
    "scaling-dense": {"preset": "fig1b", "nodes": [50, 100, 200],
                      "updates": 20_000},
}
WORKLOADS = tuple(PARAMS)

# Substituted with the operation's files when it runs.
CONFIG, OUTDIR = "{config}", "{outdir}"
_NONFINITE = (b"nan", b"inf", b"NaN", b"Infinity")


@dataclass(frozen=True)
class Op:
    """One operation: a generated config plus the CLI commands run on it
    (none for the in-process workload)."""

    workload: str
    key: str
    sim_seed: int
    config: dict
    commands: tuple[tuple[str, ...], ...]
    requested_updates: int


def make_op(workload: str, sim_seed: int, preset: str | None = None) -> Op:
    p = PARAMS[workload]
    if workload == "variants-n10":
        config = copy.deepcopy(experiments.PRESETS[preset])
        config.update(updates=p["updates"], seeds=[sim_seed])
        return Op(workload, f"{preset}/seed{sim_seed}", sim_seed, config, (),
                  p["updates"])
    config = copy.deepcopy(experiments.PRESETS[p["preset"]])
    config.update(updates=p["updates"], seeds=[sim_seed])
    if workload == "run-report-n200":
        config["network"].update(n=p["n"], radius=p["radius"])
        config["stride"] = p["stride"]
        commands = (("run", "--config", CONFIG, "--outdir", OUTDIR),
                    ("report", "--config", CONFIG, "--outdir", OUTDIR))
        requested = p["updates"]
    else:
        nodes = tuple(str(n) for n in p["nodes"])
        commands = (("scaling", "--config", CONFIG, "--nodes", *nodes,
                     "--outdir", OUTDIR),)
        requested = p["updates"] * len(p["nodes"])
    return Op(workload, f"seed{sim_seed}", sim_seed, config, commands, requested)


def batch(workload: str, sim_seed: int) -> list[Op]:
    """Every operation of ``workload`` on one simulation seed."""
    presets = PARAMS[workload].get("presets", [None])
    return [make_op(workload, sim_seed, preset) for preset in presets]


def batches(workload: str, seed: int):
    """Endless, seed-determined sequence of batches: the pool's simulation
    seeds in an order drawn from ``seed``, cycled."""
    order = random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)
    for k in itertools.count():
        yield batch(workload, order[k % POOL_SIZE])


# ---------------------------------------------------------------------------
# Fingerprints and output checks
# ---------------------------------------------------------------------------

def _hash_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def memory_fingerprint(result, m) -> dict[str, str]:
    tr = result.trace
    return {
        "trace": _hash_arrays(tr.t, tr.receiver, tr.sender,
                              tr.a_hat, tr.b_hat, tr.c_hat),
        "metrics": _hash_arrays(m.g_hat, m.f_hat, m.drift_spread, m.msd,
                                m.offset_dispersion, m.vclock_gap),
    }


def artifact_fingerprint(outdir: Path) -> tuple[dict[str, str], int]:
    """SHA-256 of every file in ``outdir``, and their total size."""
    prints, total = {}, 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        prints[path.name] = hashlib.sha256(data).hexdigest()
        total += len(data)
    return prints, total


def check_artifacts(op: Op, outdir: Path) -> list[str]:
    """Problems with the CSV artifacts that need no fingerprint."""
    problems = []
    stride = op.config.get("stride", 1)
    want_rows = math.ceil(op.config["updates"] / stride)
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if any(tok in data for tok in _NONFINITE):
            problems.append(f"{path.name}: non-finite value")
        if path.suffix == ".csv" and path.name != "scaling_summary.csv":
            rows = data.count(b"\n") - 1
            if rows != want_rows:
                problems.append(f"{path.name}: {rows} rows, expected {want_rows}")
    return problems


def compare(expected: dict, got: dict) -> list[str]:
    if expected == got:
        return []
    names = sorted(set(expected) | set(got))
    return [f"fingerprint mismatch: {n}" for n in names
            if expected.get(n) != got.get(n)]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    op: Op
    seconds: float
    output_bytes: int
    fingerprint: dict
    problems: list[str]


def run_op(op: Op, workdir: Path, expected: dict | None) -> Outcome:
    """Run one operation (timed) and check its outputs (untimed).

    ``expected`` is the recorded fingerprint, or None to skip that check.
    Any exception, non-zero exit, non-finite estimate, short run or
    fingerprint mismatch is reported as a problem; the "never received a
    message" warning on stderr is not.
    """
    if op.commands:
        return _run_cli(op, workdir, expected)
    problems: list[str] = []
    t0 = time.perf_counter()
    try:
        cfg = experiments.ExperimentConfig.from_dict(op.config)
        result = experiments.run_single(cfg, op.sim_seed)
        m = analysis.metrics(result)
        fp = analysis.fixed_point_residual(result)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        return Outcome(op, time.perf_counter() - t0, 0, {}, [repr(exc)])
    seconds = time.perf_counter() - t0
    if result.updates < op.requested_updates:
        problems.append(f"{result.updates} updates, expected {op.requested_updates}")
    tr = result.trace
    finite = [np.isfinite(a).all() for a in
              (tr.a_hat, tr.b_hat, tr.c_hat, m.g_hat, m.f_hat)]
    if not all(finite) or not math.isfinite(fp.residual):
        problems.append("non-finite estimate")
    fingerprint = memory_fingerprint(result, m)
    if expected is not None:
        problems += compare(expected, fingerprint)
    return Outcome(op, seconds, 0, fingerprint, problems)


def _run_cli(op: Op, workdir: Path, expected: dict | None) -> Outcome:
    opdir = Path(tempfile.mkdtemp(prefix="op-", dir=workdir))
    try:
        config_path = opdir / "config.json"
        config_path.write_text(json.dumps(op.config))
        outdir = opdir / "out"
        subs = {CONFIG: str(config_path), OUTDIR: str(outdir)}
        argvs = [[subs.get(a, a) for a in cmd] for cmd in op.commands]
        problems: list[str] = []
        t0 = time.perf_counter()
        for argv in argvs:
            try:
                code = experiments.main(argv)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                problems.append(f"{argv[0]}: {exc!r}")
                break
            if code != 0:
                problems.append(f"{argv[0]}: exit code {code}")
                break
        seconds = time.perf_counter() - t0
        if not outdir.is_dir():
            return Outcome(op, seconds, 0, {}, problems + ["no artifacts"])
        fingerprint, size = artifact_fingerprint(outdir)
        problems += check_artifacts(op, outdir)
        if expected is not None:
            problems += compare(expected, fingerprint)
        return Outcome(op, seconds, size, fingerprint, problems)
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def load_fingerprints(workload: str) -> dict:
    """Recorded fingerprints of ``workload``; refuses stale records."""
    data = json.loads(FINGERPRINTS.read_text())
    entry = data[workload]
    if entry["params"] != PARAMS[workload] or entry["pool_size"] != POOL_SIZE:
        raise RuntimeError(f"{FINGERPRINTS.name} was recorded for other "
                           f"{workload} parameters")
    return entry["ops"]
