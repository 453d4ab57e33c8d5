"""Config parsing, presets, runner outputs and the command line."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksync import experiments, sync
from clocksync.clock import ClockParams, DelayModel
from clocksync.topology import Arc, GeometricSpec, Network, generate_geometric
from clocksync.experiments import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    ConfigError,
    ExperimentConfig,
    PRESETS,
    main,
    preset_config,
)


def _minimal(**over):
    data = {"schema_version": 1,
            "network": {"kind": "geometric", "n": 6, "radius": 0.6},
            "updates": 50, "seeds": [0]}
    data.update(over)
    return data


class TestConfigParsing:
    def test_minimal_valid(self):
        cfg = ExperimentConfig.from_dict(_minimal())
        assert isinstance(cfg.drift, sync.DriftA)
        assert isinstance(cfg.offset, sync.OffsetA)
        assert cfg.updates == 50

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict(_minimal(tpyo=1))

    def test_unknown_network_key_rejected(self):
        data = _minimal()
        data["network"]["badkey"] = 3
        with pytest.raises(ConfigError, match="unknown network keys"):
            ExperimentConfig.from_dict(data)

    def test_schema_version_required(self):
        data = _minimal()
        del data["schema_version"]
        with pytest.raises(ConfigError, match="schema_version"):
            ExperimentConfig.from_dict(data)

    def test_drift_variants(self):
        cfg = ExperimentConfig.from_dict(
            _minimal(drift={"variant": "b", "nu": 0.25}))
        assert cfg.drift == sync.DriftB(0.25)
        cfg = ExperimentConfig.from_dict(
            _minimal(drift={"variant": "c", "l0": 3}))
        assert cfg.drift == sync.DriftC(3)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_minimal(drift={"variant": "z"}))

    def test_offset_none(self):
        cfg = ExperimentConfig.from_dict(_minimal(offset=None))
        assert cfg.offset is None

    def test_out_of_range_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_minimal(zeta_prime=0.3))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_minimal(updates=-1))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_minimal(stride=0))

    def test_reference_node_validation(self):
        cfg = ExperimentConfig.from_dict(_minimal(reference_node="center"))
        assert cfg.reference_node == "center"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_minimal(reference_node="middle"))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_file(path)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_all_presets_parse(self, name):
        cfg = preset_config(name)
        assert cfg.updates > 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nope")

    def test_flooding_uses_center(self):
        cfg = preset_config("flooding")
        assert cfg.reference_node == "center"
        net = cfg.build_network(0)
        # some node has all its in-arc weights muted
        muted = set(net.table.receiver[net.table.gamma == 0.0].tolist())
        assert len(muted) == 1


class TestRunner:
    def test_run_experiment_writes_artifacts(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_minimal())
        written = experiments.run_experiment(cfg, tmp_path)
        names = {p.name for p in written}
        assert names == {"network_seed0.json", "trace_seed0.csv",
                         "metrics_seed0.csv"}
        assert all(p.exists() for p in written)

    def test_report_requires_artifacts(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_minimal())
        with pytest.raises(FileNotFoundError):
            experiments.report(cfg, tmp_path)

    def test_report_after_run(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_minimal(updates=2000))
        experiments.run_experiment(cfg, tmp_path)
        path = experiments.report(cfg, tmp_path)
        text = path.read_text()
        assert "spectral" in text and "rate bound" in text

    def test_scaling_summary(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_minimal())
        experiments.run_scaling(cfg, [4, 6], tmp_path)
        lines = (tmp_path / "scaling_summary.csv").read_text().splitlines()
        assert lines[0] == "n,median_initial_msd"
        assert len(lines) == 3


@pytest.fixture
def blas_pools():
    """Every loaded OpenBLAS pool (scipy's too), as ``set_all(count)`` and
    ``counts()``; each pool's count is restored afterwards."""
    import scipy.linalg  # noqa: F401
    pools = experiments._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS is loaded in this process")

    def set_all(count):
        for _, _, set_ in pools:
            set_(count)

    def counts():
        return [get() for _, get, _ in pools]

    before = counts()
    yield set_all, counts
    for (_, _, set_), count in zip(pools, before):
        set_(count)


class TestBlasThreads:
    def test_block_runs_every_pool_on_one_thread_and_restores(self, blas_pools):
        set_all, counts = blas_pools
        set_all(2)
        with experiments._one_blas_thread():
            assert counts() == [1] * len(counts())
        assert counts() == [2] * len(counts())

    def test_restores_after_a_raise(self, blas_pools):
        set_all, counts = blas_pools
        set_all(2)
        with pytest.raises(RuntimeError):
            with experiments._one_blas_thread():
                raise RuntimeError
        assert counts() == [2] * len(counts())

    def test_report_restores_after_a_raise(self, blas_pools, tmp_path):
        set_all, counts = blas_pools
        set_all(2)
        with pytest.raises(FileNotFoundError):
            experiments.report(ExperimentConfig.from_dict(_minimal()), tmp_path)
        assert counts() == [2] * len(counts())

    def test_block_runs_when_nothing_is_found(self, blas_pools, tmp_path,
                                              monkeypatch):
        set_all, counts = blas_pools
        set_all(2)
        monkeypatch.setattr(experiments, "_PROC_MAPS", str(tmp_path / "missing"))
        assert experiments._openblas_pools() == []
        ran = False
        with experiments._one_blas_thread():
            ran = True
            assert counts() == [2] * len(counts())
        assert ran

    def test_rate_bound_does_not_depend_on_the_callers_pools(
            self, blas_pools, tmp_path, monkeypatch):
        # at n = 200 the thread count changes the last bits of B*, R and r
        set_all, counts = blas_pools
        data = copy.deepcopy(PRESETS["fig1b"])
        data["network"].update(n=200, radius=0.15)
        data.update(seeds=[3], updates=2000)
        cfg = ExperimentConfig.from_dict(data)
        experiments.run_experiment(cfg, tmp_path)
        rates = []
        rate_bound = experiments.analysis.rate_bound

        def spy(*args, **kwargs):
            bound = rate_bound(*args, **kwargs)
            rates.append(bound.r)
            return bound

        monkeypatch.setattr(experiments.analysis, "rate_bound", spy)
        for count in (2, 1):
            set_all(count)
            experiments.report(cfg, tmp_path)
            assert counts() == [count] * len(counts())
        assert len(rates) == 2
        assert rates[0].hex() == rates[1].hex()


class TestCli:
    def test_run_preset(self, tmp_path):
        code = main(["run", "--preset", "fig1a", "--seeds", "0",
                     "--updates", "200", "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "trace_seed0.csv").exists()

    def test_run_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_minimal()))
        code = main(["run", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_OK

    def test_config_and_preset_is_validation_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_minimal()))
        code = main(["run", "--config", str(cfg_path), "--preset", "fig1a"])
        assert code == EXIT_VALIDATION

    def test_neither_config_nor_preset(self):
        assert main(["run"]) == EXIT_VALIDATION

    def test_bad_config_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        assert main(["run", "--config", str(p)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("over", [
        {"network": {"kind": "geometric", "n": 6, "radius": -1}},
        {"network": {"kind": "geometric", "n": 6, "radius": 0.6,
                     "alpha_range": [1]}},
        {"reference_node": True},
        {"reference_node": 99},
        {"seeds": ["a"]},
        {"seeds": []},
        {"seeds": [-1]},
        {"seeds": [2**32]},
        {"seeds": [0, 0]},
        {"network": {"kind": "geometric", "n": 1, "radius": 0.6}},
        {"network": {"kind": "geometric", "n": 6, "radius": 0.6, "p_hear": 0}},
        {"network": {"kind": "geometric", "n": True, "radius": 0.6}},
        {"network": {"kind": "geometric", "n": 6, "radius": 0.6,
                     "alpha_range": [0.0, 1.0]}},
        {"network": {"kind": "geometric", "n": 6, "radius": 0.6,
                     "noise_dist": "cauchy"}},
        {"drift": {"variant": "a", "L": True}},
        {"drift": "a"},
        {"updates": 10.5},
        {"stride": False},
        {"freeze_compensation": "yes"},
        {"zeta_prime": True},
    ], ids=["negative-radius", "short-alpha-range", "bool-reference",
            "reference-out-of-range", "string-seed", "no-seeds", "negative-seed",
            "seed-past-32-bits", "repeated-seed", "one-node", "p-hear-0",
            "bool-n", "alpha-range-with-0", "unknown-noise", "bool-L",
            "drift-not-object", "float-updates", "bool-stride",
            "string-flag", "bool-zeta"])
    def test_invalid_config_is_validation_error(self, tmp_path, capsys, over):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_minimal(**over)))
        code = main(["run", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_reference_past_file_network_is_validation_error(
            self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=0).save(net_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_minimal(
            network={"kind": "file", "path": str(net_path)}, reference_node=6)))
        code = main(["run", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: reference_node 6 is out of range for n=6"]
        assert not list((tmp_path / "out").glob("*"))

    def test_center_of_file_network_without_one_is_validation_error(
            self, tmp_path, capsys):
        # arcs 0 -> 1 and 2 -> 1: no node reaches every other node
        arc = Arc(1.0, 0.9, DelayModel(0.1))
        net = Network(3, {(0, 1): arc, (2, 1): arc}, np.ones(3),
                      [ClockParams(1.0)] * 3)
        net_path = tmp_path / "net.json"
        net.save(net_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_minimal(
            network={"kind": "file", "path": str(net_path)},
            reference_node="center")))
        code = main(["run", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: reference_node 'center'")
        assert not (tmp_path / "out").exists()

    def test_reference_not_a_center_of_file_network_is_validation_error(
            self, tmp_path, capsys):
        # the line 0 -> 1 -> 2: only node 0 reaches every other node
        arc = Arc(1.0, 0.9, DelayModel(0.1))
        net = Network(3, {(0, 1): arc, (1, 2): arc}, np.ones(3),
                      [ClockParams(1.0)] * 3)
        net_path = tmp_path / "net.json"
        net.save(net_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_minimal(
            network={"kind": "file", "path": str(net_path)}, reference_node=2)))
        code = main(["run", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: reference_node 2 is not")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["run"], ["scaling", "--nodes", "10"]])
    def test_reference_not_a_center_of_generated_network_is_validation_error(
            self, tmp_path, capsys, command):
        # every arc one-way: the seed-0 network's only center is node 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_minimal(
            network={"kind": "geometric", "n": 10, "radius": 0.5,
                     "one_way_fraction": 1.0},
            reference_node=0, updates=200, seeds=[0, 1, 2, 3])))
        code = main([*command, "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: reference_node 0, seed 0: node 0 is not a center; "
                       "flooding needs a root that reaches every node"]
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("edit, extra", [
        (lambda d: d, {"n": 50}),
        (lambda d: d["arcs"][0].update(gamma=-1.0), {}),
        (lambda d: d["arcs"][0].update(gamma=math.nan), {}),
        (lambda d: d["nodes"][1].update(alpha=math.nan), {}),
        (lambda d: d["nodes"][1].update(beta=math.inf), {}),
        (lambda d: d["nodes"][1].update(rate=math.nan), {}),
        (lambda d: d["arcs"][0].pop("p_hear"), {}),
        (lambda d: d.update(nodes=d["nodes"][:-1]), {}),
        (lambda d: d.update(arcs=5), {}),
        (lambda d: d["arcs"].append(dict(d["arcs"][0], gamma=5.0)), {}),
        (lambda d: d["arcs"][0].update(sender=False), {}),
        (lambda d: d["nodes"][-1].update(id=-1), {}),
        (lambda d: d["nodes"][1].update(id=True), {}),
        (lambda d: d["nodes"][2].update(id=1), {}),
        (lambda d: d["nodes"][2].update(id=2.0), {}),
        (lambda d: d.update(n=True, nodes=d["nodes"][:1], arcs=[]), {}),
        (lambda d: d["nodes"][1].update(rate="2.5"), {}),
        (lambda d: d["arcs"][0].update(gamma=True), {}),
        (lambda d: d["nodes"][1].update(alpha=True), {}),
        (lambda d: d["arcs"][0].update(p_hear=True), {}),
        (lambda d: d["arcs"][0].update(delta_bar=True), {}),
        (lambda d: d["nodes"][1].update(xi_sigma=False), {}),
        (lambda d: d["nodes"][1].update(position=[math.nan, 0.2]), {}),
        (lambda d: d["nodes"][1].update(position=[0.2, 0.3, 0.4]), {}),
    ], ids=["geometric-key-on-file", "negative-gamma", "nan-gamma", "nan-alpha",
            "inf-beta", "nan-rate", "missing-key", "missing-node", "arcs-not-a-list",
            "repeated-arc", "bool-arc-sender", "negative-node-id", "bool-node-id",
            "repeated-node-id", "float-node-id", "bool-n", "str-rate", "bool-gamma",
            "bool-alpha", "bool-p_hear", "bool-delta_bar", "bool-xi_sigma",
            "nan-position", "long-position"])
    def test_invalid_network_file_is_validation_error(self, tmp_path, capsys,
                                                      edit, extra):
        # the file is loaded and checked with the config, before any output
        data = generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=0).to_dict()
        edit(data)
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(data))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_minimal(
            network={"kind": "file", "path": str(net_path), **extra})))
        code = main(["run", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_file_network_is_loaded_once(self, tmp_path, monkeypatch):
        net_path = tmp_path / "net.json"
        generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=0).save(net_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_minimal(
            network={"kind": "file", "path": str(net_path)}, seeds=[0, 1, 2])))
        loads = []
        load = Network.load

        def counted_load(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(Network, "load", counted_load)
        assert main(["run", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")]) == EXIT_OK
        assert loads == [str(net_path)]

    @pytest.mark.parametrize("over, nodes", [
        ({"network": {"kind": "file", "path": "net.json"}}, ["10", "50"]),
        ({}, ["4", "1"]),
        ({"network": {"kind": "geometric", "n": 10, "radius": 0.6},
          "reference_node": 9}, ["20", "5"]),
        ({}, ["10", "10"]),
        ({"updates": 0}, ["10", "12"]),
    ], ids=["file-network", "one-node", "reference-past-a-count",
            "repeated-count", "zero-updates"])
    def test_scaling_checks_before_it_writes(self, tmp_path, capsys, over, nodes):
        net_path = tmp_path / "net.json"
        generate_geometric(GeometricSpec(6, 0.6, 0.1), seed=0).save(net_path)
        data = _minimal(**over)
        if data["network"]["kind"] == "file":
            data["network"]["path"] = str(net_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        code = main(["scaling", "--config", str(cfg_path), "--nodes", *nodes,
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_is_validation_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json"),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_bare_seeds_flag_is_validation_error(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig1a", "--seeds",
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_missing_artifacts_is_runtime_error(self, tmp_path):
        code = main(["report", "--preset", "fig1a",
                     "--outdir", str(tmp_path / "empty")])
        assert code == EXIT_RUNTIME

    def test_diverging_run_is_runtime_error(self, tmp_path, capsys):
        # a constant step of 50 blows up fig1a within the first few
        # thousand updates; no CSV full of NaN may be written
        cfg_path = tmp_path / "cfg.json"
        data = dict(PRESETS["fig1a"], constant_step=50, updates=2000, seeds=[0])
        cfg_path.write_text(json.dumps(data))
        code = main(["run", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: run diverged") and "k=" in err[0]
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiments.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        code = main(["run", "--preset", "fig1a", "--seeds", "0",
                     "--updates", "100"])
        assert code == EXIT_OK
        assert (tmp_path / "root" / "trace_seed0.csv").exists()

    def test_cli_determinism(self, tmp_path):
        for sub in ("r1", "r2"):
            assert main(["run", "--preset", "fig1a", "--seeds", "3",
                         "--updates", "300",
                         "--outdir", str(tmp_path / sub)]) == EXIT_OK
        b1 = (tmp_path / "r1" / "trace_seed3.csv").read_bytes()
        b2 = (tmp_path / "r2" / "trace_seed3.csv").read_bytes()
        assert b1 == b2

    def test_stride_override(self, tmp_path):
        code = main(["run", "--preset", "fig1a", "--seeds", "0",
                     "--updates", "100", "--stride", "20",
                     "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "trace_seed0.csv").read_text().splitlines()
        assert len(lines) == 1 + 5


# ---------------------------------------------------------------------------
# Fuzzing the validation boundary
# ---------------------------------------------------------------------------

_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NOT_A_NUMBER = st.sampled_from(["1", [1], {"x": 1}, True, False, None])
_NOT_AN_INT = st.one_of(_NOT_A_NUMBER, _NONFINITE, st.sampled_from([1.5, 2.0]))
_FINITE = {"allow_nan": False, "allow_infinity": False}


def _bad_int(*out_of_range):
    return st.one_of(_NOT_AN_INT, *out_of_range)


def _bad_real(*out_of_range):
    return st.one_of(_NOT_A_NUMBER, _NONFINITE, *out_of_range)


def _at_most(high, exclude=False):
    return st.floats(max_value=high, exclude_max=exclude, **_FINITE)


def _at_least(low, exclude=False):
    return st.floats(min_value=low, exclude_min=exclude, **_FINITE)


def _ranges(contain_zero: bool):
    pairs = [
        st.sampled_from([None, [], [1.0], [0.9, 1.0, 1.1], "0.9,1.1", {"low": 1},
                         [True, 1.0], [0.9, "1.1"]]),
        st.tuples(_at_least(-2.0), _at_least(-2.0)).filter(
            lambda p: p[0] > p[1]).map(list),
        st.tuples(_NONFINITE, _at_least(-2.0)).map(list),
    ]
    if contain_zero:
        pairs.append(st.tuples(_at_most(0.0), _at_least(0.0)).map(list))
    return st.one_of(*pairs)


# An invalid value for each config key: a wrong type, a non-finite number
# or a value out of range.  The presets are geometric networks of n = 10.
_INVALID = {
    ("schema_version",): st.one_of(
        st.integers().filter(lambda v: v != 1), st.sampled_from([1.0, True, "1", None])),
    ("zeta_prime",): _bad_real(_at_most(0.5), _at_least(1.0, exclude=True)),
    ("zeta_second",): _bad_real(_at_most(0.5), _at_least(1.0, exclude=True)),
    ("constant_step",): st.one_of(st.sampled_from(["1", [1], {"x": 1}, True]),
                                  _NONFINITE, _at_most(0.0)),
    ("drop_t_terms",): st.sampled_from([0, 1, 1.0, "true", None, []]),
    ("freeze_compensation",): st.sampled_from([0, 1, 1.0, "true", None, []]),
    ("reference_node",): st.one_of(st.integers(max_value=-1), st.integers(min_value=10),
                                   st.sampled_from(["middle", True, 1.5, [0], {}])),
    ("updates",): _bad_int(st.integers(max_value=0)),
    ("seeds",): st.sampled_from([None, 0, "0", [], [0.5], [True], ["a"], [None], [[0]],
                                 [-1], [2**32], [0, 0]]),
    ("stride",): _bad_int(st.integers(max_value=0)),
    ("network",): st.sampled_from([None, [], "geometric", 5]),
    ("network", "kind"): st.sampled_from(["file", "grid", None, 1]),
    ("network", "path"): st.sampled_from(["net.json", None, 1]),
    ("network", "n"): _bad_int(st.integers(max_value=1)),
    ("network", "radius"): _bad_real(_at_most(0.0)),
    ("network", "one_way_fraction"): _bad_real(_at_most(0.0, exclude=True),
                                               _at_least(1.0, exclude=True)),
    ("network", "p_hear"): _bad_real(_at_most(0.0), _at_least(1.0, exclude=True)),
    ("network", "delta_bar"): _bad_real(_at_most(0.0)),
    ("network", "delta_min"): _bad_real(_at_most(0.0)),
    ("network", "mu"): _bad_real(_at_most(0.0)),
    ("network", "eta_sigma"): _bad_real(_at_most(0.0, exclude=True)),
    ("network", "xi_sigma"): _bad_real(_at_most(0.0, exclude=True)),
    ("network", "gamma"): _bad_real(_at_most(0.0, exclude=True)),
    ("network", "alpha_range"): _ranges(contain_zero=True),
    ("network", "beta_range"): _ranges(contain_zero=False),
    ("network", "noise_dist"): st.sampled_from(["cauchy", None, 1, ["normal"]]),
    ("drift",): st.sampled_from([None, "a", [], 1]),
    ("drift", "variant"): st.sampled_from(["z", "A", None, 1]),
    ("drift", "L"): _bad_int(st.integers(max_value=0)),
    ("drift", "nu"): _bad_real(_at_most(0.0), _at_least(1.0)),
    ("drift", "l0"): _bad_int(st.integers(max_value=-1)),
    ("offset",): st.sampled_from(["a", [], 1, True]),
    ("offset", "variant"): st.sampled_from(["c", "A", 1, True]),
    ("offset", "sigma"): _bad_real(_at_most(0.0), _at_least(1.0, exclude=True)),
}
# keys read only under one variant
_ONLY_WITH = {("drift", "L"): ("drift", "a"), ("drift", "nu"): ("drift", "b"),
              ("drift", "l0"): ("drift", "c"), ("offset", "sigma"): ("offset", "b")}


@st.composite
def _invalid_configs(draw):
    """A preset, cut to 20 updates of one seed, with one key set to an
    invalid value."""
    data = copy.deepcopy(PRESETS[draw(st.sampled_from(sorted(PRESETS)))])
    data.update(updates=20, seeds=[0])
    keys = [key for key in _INVALID if key not in _ONLY_WITH
            or (data.get(_ONLY_WITH[key][0]) or {}).get("variant") == _ONLY_WITH[key][1]]
    key = draw(st.sampled_from(keys))
    owner = data
    for part in key[:-1]:
        owner = owner[part]
    owner[key[-1]] = draw(_INVALID[key])
    return data


class TestValidationFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=_invalid_configs())
    def test_invalid_key_exits_1_with_one_error_line(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(data))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(cfg_path),
                             "--outdir", str(Path(tmp) / "out")])
            lines = err.getvalue().splitlines()
            assert code == EXIT_VALIDATION, lines
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert "Traceback" not in err.getvalue()
            assert not (Path(tmp) / "out").exists()
