import hashlib
import json
import os

import pytest
import yaml

from couplersim import cli

RB_PARAMS = {"n_randomizations": 3, "n_cl_grid": [1, 2, 4, 8, 16, 32, 64]}
CZ_PARAMS = {"n_omega": 3, "n_sub": 64}


def write_config(tmp_path, scenario, params=None):
    path = tmp_path / "config.yaml"
    cfg = {"scenario": scenario, "seed": 3, "output": str(tmp_path / "out")}
    if params is not None:
        cfg["params"] = params
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run(config, out):
    return cli.main(["run", config, "--out", str(out)])


def data_files(out_dir):
    return {name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir)) if name != "manifest.json"}


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        config = write_config(tmp_path, "reset-metrics")
        assert run(config, tmp_path / "a") == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["scenario"] == "reset-metrics"
        assert (tmp_path / "a" / "reset_metrics.json").is_file()

    def test_unknown_scenario(self, tmp_path, capsys):
        config = write_config(tmp_path, "no-such-scenario")
        assert cli.main(["validate", config]) == 2
        assert run(config, tmp_path / "a") == 2
        assert "scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("n_sub", 0),
        ("n_omega", 0),
        ("max_duration", 0),
        ("max_duration", -1e-6),
    ])
    def test_bad_cz_chevron_parameters_are_schema_errors(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, "cz-chevron", {**CZ_PARAMS, key: value})
        assert cli.main(["validate", config]) == 2
        assert f"params.{key}" in capsys.readouterr().err
        assert run(config, tmp_path / "a") == 2
        assert f"params.{key}" in capsys.readouterr().err

    def test_window_too_short_is_a_numerical_failure(self, tmp_path, capsys):
        config = write_config(tmp_path, "cz-chevron", {
            **CZ_PARAMS, "omega_d_span": [-1e6, 1e6], "max_duration": 80e-9})
        assert cli.main(["validate", config]) == 0
        assert run(config, tmp_path / "a") == 3
        assert "oscillation" in capsys.readouterr().err

    def test_output_path_is_a_file(self, tmp_path):
        config = write_config(tmp_path, "reset-metrics")
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert run(config, blocker) == 4

    def test_threads_flag_is_gone(self, tmp_path):
        config = write_config(tmp_path, "reset-metrics")
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", config, "--threads", "2"])
        assert exc.value.code == 2


class TestOutputs:
    @pytest.mark.parametrize("scenario, params", [
        ("leakage-rb", RB_PARAMS),
        ("cz-chevron", CZ_PARAMS),
    ])
    def test_reruns_are_byte_identical(self, tmp_path, scenario, params):
        config = write_config(tmp_path, scenario, params)
        assert run(config, tmp_path / "a") == 0
        assert run(config, tmp_path / "b") == 0
        first = data_files(tmp_path / "a")
        assert first
        assert first == data_files(tmp_path / "b")

    def test_manifest_hashes_match_files(self, tmp_path):
        config = write_config(tmp_path, "leakage-rb", RB_PARAMS)
        assert run(config, tmp_path / "a") == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["seed"] == 3
        listed = {entry["path"]: entry["sha256"] for entry in manifest["files"]}
        assert set(listed) == set(data_files(tmp_path / "a"))
        for path, digest in listed.items():
            assert hashlib.sha256((tmp_path / "a" / path).read_bytes()).hexdigest() == digest

    def test_list_shows_every_read_parameter_of_cz_chevron(self, capsys):
        assert cli.main(["list"]) == 0
        line = next(row for row in capsys.readouterr().out.splitlines()
                    if row.startswith("cz-chevron"))
        for key in ("omega_d_span", "n_omega", "max_duration", "n_sub"):
            assert key in line
