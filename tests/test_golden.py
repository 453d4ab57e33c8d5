"""Byte-level behaviour contract: SHA-256 of the trace and metrics CSVs,
and of the report.

Each case runs two seeds of a few thousand updates and hashes
``trace_seed{S}.csv`` and ``metrics_seed{S}.csv`` (stride 1).  The hashes
were recorded before the engine stored its trace as per-update events; a
refactor that changes any byte fails here.  The fig1b cases at strides 10
and 100, and ``clocksync scaling`` over two node counts (its
``metrics_n{n}_seed{S}.csv`` at stride 10 and ``scaling_summary.csv``),
pin the written rows of the strided writers; their hashes were recorded
before the writers computed only the rows they write.  ``report.txt`` of the offset
presets pins the spectral, rate-bound and fixed-point lines; its hashes
were recorded before the run kept its per-link records as trace
columns.  The saved network files of a few networks are hashed too: the
fig1b networks, integer weights and delays (written as integers), a
hand-built network with differing arc values repaired with a template,
the flooding preset's muted network, and two sparse networks that the
repair joins from 64 and 121 source components (the 800-node one was
recorded while the repair still found the components after every arc).
Never regenerate them to make a change pass: a change that is meant to
alter the bytes says so and records new hashes with its reason.
"""

import copy
import hashlib

import numpy as np
import pytest

from clocksync import analysis, engine, experiments, topology
from clocksync.clock import ClockParams, DelayModel
from clocksync.experiments import EXIT_OK, main
from clocksync.topology import Arc, Network

SEEDS = (0, 1)
UPDATES = 3000
SCALING_NODES = (8, 14)


def _config(preset: str, **over) -> experiments.ExperimentConfig:
    data = copy.deepcopy(experiments.PRESETS[preset])
    data.update({"updates": UPDATES, "seeds": list(SEEDS), "stride": 1, **over})
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
    elif case.startswith("stride"):
        experiments.run_experiment(_config("fig1b", stride=int(case[6:])), outdir)
    elif case == "scaling":
        experiments.run_scaling(_config("fig1b", stride=10), SCALING_NODES, outdir)
    else:  # "empty": no update processed, the headers alone
        cfg = _config("fig1b")
        for seed in SEEDS:
            result = engine.run(cfg.build_network(seed), cfg.algorithm,
                                max_updates=0, seed=seed)
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
    "stride10": {
        "metrics_seed0.csv":
            "67955bfef31ad8fa399dfb7b5e32fe7f256bbe1f1f8007081aa3504ecc150f35",
        "metrics_seed1.csv":
            "656e499daa2d7bd68d8afb61ce324f331af100c3706d417e7d6fdd892dcb3ba1",
        "trace_seed0.csv":
            "d92b9ac6c98cc7095c419e9343cfd9644ea4816cea24f368c984c4e0fdf1eefc",
        "trace_seed1.csv":
            "d410fb1ead664d78c7c572bf3d9d1053867d8d57b0107d1bc2377d725c8102d1",
    },
    "stride100": {
        "metrics_seed0.csv":
            "443ef478cab074b84bfbe107a7a3bc7db7e99eaa83bcdff745237bdd5c94f471",
        "metrics_seed1.csv":
            "ecff49a031de41750c17ae1a82515a2a85778a1f90f387e64fc4381e416f20f2",
        "trace_seed0.csv":
            "e11227661488fbe13e612157d905ccc5e390f35f79de464f7f14b94af6506c4f",
        "trace_seed1.csv":
            "10a044848c1cfe460c917817b77576c139983fc06e36e2001274a413481dd2bf",
    },
    "scaling": {
        "metrics_n14_seed0.csv":
            "158ae9fdf431b44fdb6e96143c22ea8bb219606a372264b5f5b2484ddab16857",
        "metrics_n14_seed1.csv":
            "70a091e0bf4547eb43e47c1d7e04e7b35caabf44b1db7057c4d6690019af7860",
        "metrics_n8_seed0.csv":
            "540392c6fd34e57143d3897971d4364c22dd5387a294de14a9965c04595f3862",
        "metrics_n8_seed1.csv":
            "08e7df4a6632e7e7473af069e0470c7a5dca2ca673c4e2746e6034f390d1315d",
        "scaling_summary.csv":
            "4e7bcfa4f15c7c28f64848f163a6afb8fa27853cf78a8073e6f0d52a4684d5a7",
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


def _hand_repaired() -> Network:
    # two source components, {0, 1} and {3}: the repair adds one arc
    arcs = {(0, 1): Arc(1.0, 0.9, DelayModel(0.1)),
            (1, 0): Arc(0.5, 0.75, DelayModel(0.2, 0.01, 1e-3, "uniform")),
            (3, 2): Arc(2, 1, DelayModel(1, 0, 0.5)),
            (2, 4): Arc(0.25, 0.5, DelayModel(0.05, 0.02))}
    clocks = [ClockParams(1.0 + 0.01 * i, 0.1 * i, 0.05) for i in range(5)]
    pos = np.array([[0.1, 0.1], [0.2, 0.15], [0.9, 0.8], [0.7, 0.9], [0.5, 0.5]])
    net = Network(5, arcs, [1.0, 2.0, 0.5, 1.0, 1.5], clocks, pos)
    return topology.repair_connectivity(net, Arc(3, 0.8, DelayModel(0.3, 0.1)))


_INTEGER_VALUES = {"kind": "geometric", "n": 12, "radius": 0.4, "gamma": 2,
                   "delta_bar": 1}

NETWORK_CASES = {
    "fig1b-seed0": lambda: _config("fig1b").build_network(0),
    "fig1b-seed1": lambda: _config("fig1b").build_network(1),
    "integer-values": lambda: _config("fig1b", network=_INTEGER_VALUES).build_network(0),
    "hand-repaired": _hand_repaired,
    "flooding-muted": lambda: _config("flooding").build_network(0),
    "sparse-repaired": lambda: topology.generate_geometric(
        topology.GeometricSpec(400, 0.05), seed=1),
    "sparser-repaired": lambda: topology.generate_geometric(
        topology.GeometricSpec(800, 0.035), seed=1),
}

NETWORK_GOLDEN = {
    "fig1b-seed0": "bd5ca2b60effc730c55e43ab1cd39c108d46676fabec4976f6cc814aa19457eb",
    "fig1b-seed1": "9c88b3d1e085057cf66d01963a8fae35a735fdeb6ff1c62dcb174ae2366ff9b2",
    "integer-values": "70e12b65055ac8d9127922bdb5c631f2173fe879755fc1602f21c222f8c34eca",
    "hand-repaired": "0e08802bef06a2b30e24b7467df7a0a535251a96c706ff4c025d08a9f7b7b487",
    "flooding-muted": "f57dc648eed0730567611c7eb2862b07728c505ce3c07d58169159c9e69ba167",
    "sparse-repaired": "b7fd3be10e560a75488e3bca7707141f4285c63e2bdc7569faac440d20f4dafe",
    "sparser-repaired": "3fbfeaf70ac710786a3cb2f74313d62ea49780fcd110f0fd17b4b06b258df128",
}


@pytest.mark.parametrize("case", sorted(NETWORK_GOLDEN))
def test_network_file_bytes_unchanged(case, tmp_path):
    path = tmp_path / "network.json"
    NETWORK_CASES[case]().save(path)
    assert _sha(path) == NETWORK_GOLDEN[case]
    # and loading the file gives back the same bytes
    Network.load(path).save(tmp_path / "again.json")
    assert _sha(tmp_path / "again.json") == NETWORK_GOLDEN[case]
