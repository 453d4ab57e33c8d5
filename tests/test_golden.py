"""Byte-level behaviour contract: SHA-256 of the trace and metrics CSVs,
and of the report.

Each case runs two seeds of a few thousand updates and hashes
``trace_seed{S}.csv`` and ``metrics_seed{S}.csv`` (stride 1).  The hashes
were recorded before the engine stored its trace as per-update events; a
refactor that changes any byte fails here.  ``report.txt`` of the offset
presets pins the spectral, rate-bound and fixed-point lines; its hashes
were recorded before the run kept its per-link records as trace
columns.  Never regenerate them to make a change pass: a change that is
meant to alter the bytes says so and records new hashes with its reason.
"""

import copy
import hashlib

import pytest

from clocksync import analysis, engine, experiments
from clocksync.experiments import EXIT_OK, main

SEEDS = (0, 1)
UPDATES = 3000
HORIZON = 60.0       # a few thousand deliveries on the n=10 presets
EARLY_HORIZON = 1e-3  # before the first delivery can arrive: K = 0


def _config(preset: str, **over) -> experiments.ExperimentConfig:
    data = copy.deepcopy(experiments.PRESETS[preset])
    data.update(updates=UPDATES, seeds=list(SEEDS), stride=1, **over)
    return experiments.ExperimentConfig.from_dict(data)


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(result, outdir, seed: int) -> None:
    result.trace.to_csv(outdir / f"trace_seed{seed}.csv")
    analysis.metrics(result).to_csv(outdir / f"metrics_seed{seed}.csv")


def _digests(case: str, outdir) -> dict[str, str]:
    if case in ("fig1a", "fig2a", "noiseless"):
        experiments.run_experiment(_config(case), outdir)
    elif case == "offset-null":
        experiments.run_experiment(_config("fig1b", offset=None), outdir)
    else:
        cfg = _config("fig1b")
        horizon = HORIZON if case == "horizon" else EARLY_HORIZON
        for seed in SEEDS:
            result = engine.run(cfg.build_network(seed), cfg.sync_config(),
                                horizon=horizon, seed=seed)
            if case == "empty":
                assert result.updates == 0
            _write(result, outdir, seed)
    return {p.name: _sha(p) for p in sorted(outdir.glob("*.csv"))}


GOLDEN = {
    "fig1a": {
        "metrics_seed0.csv":
            "b88a8f1957bc25c309442df68d33615462b36b9cb8b68cd56d9d29a4840a53fa",
        "metrics_seed1.csv":
            "4befdf343d8284304cbe3699acdf7c3977a7e77bed26482b62173286c672c435",
        "trace_seed0.csv":
            "901fec3fc6c2578c4ffa955d05eb6814b38a09fe5801c26a8a68e4e9e6da51db",
        "trace_seed1.csv":
            "f765c734c6c992642de54f53104202e1e0cbd457063f74b9cc4f72f228cfe7d8",
    },
    "offset-null": {
        "metrics_seed0.csv":
            "ceb11f6fd299868caa44c7475c18e3850b8c1008e6ae35b3d1138f605babd7f6",
        "metrics_seed1.csv":
            "59dfb6d151c56619e942c629109df822e83834cdda2e8db29e6e8f639426f3ec",
        "trace_seed0.csv":
            "61f4941164ae82fdbedc4a81036e65a5598d8bf5962a84695b90b5b9695a25af",
        "trace_seed1.csv":
            "fa5bc5e9a3a79e60a9c90e07725bb6ed71618ab10ab194da8444a2a0774db56c",
    },
    "noiseless": {
        "metrics_seed0.csv":
            "50d57bf8dab0bf84224cd4d793f8065ef3e14c7f0b38e3d88e9dece1d4357283",
        "metrics_seed1.csv":
            "c07b7d90449b180c0128e34230a4f849462fe3137663326894cddd6460f7089d",
        "trace_seed0.csv":
            "5d10ed1a329388d058382354523825e070ae9d559136247553b802a8860d01eb",
        "trace_seed1.csv":
            "3174405b49a5a7c55d82a4eac58dbefbd4561d2f77634561a003beea6a71cbec",
    },
    "fig2a": {
        "metrics_seed0.csv":
            "5b4678ff3c6b259b2f387e1d51a98d227377b150c7548150f4289f1767b22274",
        "metrics_seed1.csv":
            "a0c090c6aa3e43c36271b0e69c0d89560bcacc6eb2df065e0b4e6ae27519a6a0",
        "trace_seed0.csv":
            "0105bee23ce232f489edc05d399f6705b607c2a58ae8d98916882f186cbe20d9",
        "trace_seed1.csv":
            "2e8921965a602805ecc4da70d3b7531cfcafd12256c0856681b539bbdb4e2157",
    },
    "horizon": {
        "metrics_seed0.csv":
            "ced66b55044ff2201662147a8a64dd31bfc5c1fc8946ae60ef09b029d49f0165",
        "metrics_seed1.csv":
            "90f3d5f86efd54a665ef322bba995be7cfe8b9beef5508b166d1a6466c8e11b5",
        "trace_seed0.csv":
            "5c5268e3f4416d5e847b47eb64dce660dbda74d0881f76c26fe0c690e8f5511c",
        "trace_seed1.csv":
            "61fd70a591e6784e586c2b871084222685e3c761f027a0755975153c62638052",
    },
    "empty": {
        "metrics_seed0.csv":
            "18cfae3475d15db21fa210edccb116b4bb56ac27800f33b2f3656e4483c267df",
        "metrics_seed1.csv":
            "18cfae3475d15db21fa210edccb116b4bb56ac27800f33b2f3656e4483c267df",
        "trace_seed0.csv":
            "9eb8f7322e979539d623e33fc36d626db1d86ee43ba3c261b52ff62d4d085508",
        "trace_seed1.csv":
            "9eb8f7322e979539d623e33fc36d626db1d86ee43ba3c261b52ff62d4d085508",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_csv_bytes_unchanged(case, tmp_path):
    assert _digests(case, tmp_path) == GOLDEN[case]


REPORT_GOLDEN = {
    "fig2a": "9967ccb2f5927ff6ef968336c921b617f97fc30eb2be06125a9d8e8c5329f806",
    "fig2b": "e7450306bb03251fd307822df8fa1e0b8e6dc54e7af3845c77f8798156780241",
}


@pytest.mark.parametrize("preset", sorted(REPORT_GOLDEN))
def test_report_bytes_unchanged(preset, tmp_path):
    args = ["--preset", preset, "--updates", str(UPDATES),
            "--seeds", *map(str, SEEDS), "--outdir", str(tmp_path)]
    assert main(["run", *args]) == EXIT_OK
    assert main(["report", *args]) == EXIT_OK
    assert _sha(tmp_path / "report.txt") == REPORT_GOLDEN[preset]
