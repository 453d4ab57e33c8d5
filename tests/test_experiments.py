"""Config parsing, presets, runner outputs and the command line."""

import json

import numpy as np
import pytest

from clocksync import experiments, sync
from clocksync.topology import generate_geometric
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
        muted = {i for (j, i), a in net.arcs.items() if a.gamma == 0.0}
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
            "reference-out-of-range", "string-seed", "no-seeds", "one-node", "p-hear-0",
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
        generate_geometric(6, 0.6, 0.1, seed=0).save(net_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_minimal(
            network={"kind": "file", "path": str(net_path)}, reference_node=6)))
        code = main(["run", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: reference_node 6 is out of range for n=6"]
        assert not list((tmp_path / "out").glob("*"))

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
