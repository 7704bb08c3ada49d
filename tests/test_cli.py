import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os

import numpy as np
import pytest
import yaml

from couplersim import cli, protocols, rbsim

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


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def reference_csv(header, rows) -> bytes:
    """The per-row CSV writer the column encoder replaced (one ``_fmt``
    call per cell); kept as the reference for ``cli._encode``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode()


EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
               2.2250738585072014e-308 / 3, 1e300, -1e-300, 0.1, 1 / 3, 2.07e6, 1.0]
EDGE_STRINGS = ["g", "a,b", 'say "hi"', "two\nlines", "", " pad", "tab\tx", "cr\rx"]


class TestEncoder:
    @pytest.mark.parametrize("n", [0, 1, 13, 2 * cli._CSV_CHUNK_ROWS + 5])
    def test_matches_the_per_row_writer_bitwise(self, n):
        floats = np.resize(np.array(EDGE_FLOATS), n)
        header = ["f64", "py_float", "int64", "py_int", "bool", "str", "label", "scalar"]
        columns = [
            floats,
            floats[::-1].tolist(),
            np.arange(n, dtype=np.int64) * 10 ** 15 - 7,
            [2 ** 62 + k for k in range(n)],
            np.arange(n) % 3 == 0,
            [EDGE_STRINGS[k % len(EDGE_STRINGS)] for k in range(n)],
            "experiment",   # a scalar fills its column
            0.1,
        ]
        rows = zip(*(c if np.ndim(c) else [c] * n for c in columns))
        assert cli._encode((header, columns)) == reference_csv(header, rows)

    @pytest.mark.parametrize("lengths", [(3, 2), (3, 4), (3, 3, 1)])
    def test_column_of_another_length_raises(self, lengths):
        columns = [np.zeros(k) for k in lengths]
        with pytest.raises(ValueError, match="rows, expected 3"):
            cli._encode(([f"c{i}" for i in range(len(lengths))], columns))

    def test_failing_runner_writes_no_data_file(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("fit failed")

        monkeypatch.setattr(cli.rbsim, "fit_rb", fail)
        config = write_config(tmp_path, "leakage-rb", RB_PARAMS)
        assert run(config, tmp_path / "a") == 3
        assert "fit failed" in capsys.readouterr().err
        assert not (tmp_path / "a" / "leakage_rb.csv").exists()


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
        ("omega_d_span", [-600e6, 15e6]),  # reaches drive frequencies <= 0
        ("max_duration", 1e-9),  # shorter than one drive period
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

    def test_readout_without_t1_decay_runs(self, tmp_path):
        # Gamma_1 = 0 is admitted by the schema ([0, inf)) and means no decay
        config = write_config(tmp_path, "readout-shots",
                              {"n_shots": 1000, "rates": {"gamma1": 0.0}})
        assert run(config, tmp_path / "a") == 0
        metrics = json.loads((tmp_path / "a" / "readout_metrics.json").read_text())
        assert metrics["f_decay"] == 1.0

    def test_f_decaying_within_a_clifford_runs(self, tmp_path):
        # d_q = exp(-tau_cl Gamma_fe) underflows to 0: no leakage survives
        config = write_config(tmp_path, "leakage-rb", {**RB_PARAMS, "tau_cl": 1e30})
        assert run(config, tmp_path / "a") == 0
        fit = json.loads((tmp_path / "a" / "leakage_rb_fit.json").read_text())
        assert fit["a2_closed_forms"] == {
            "a2_leak": 0.0, "a2_lr_full": 0.0, "a2_lr_simplified": 0.0}
        for name, data in data_files(tmp_path / "a").items():
            if name.endswith(".csv"):
                assert not non_finite_cells(name, data), name

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

    def test_forked_randomizations_write_the_same_bytes(self, tmp_path, monkeypatch):
        # 200 randomizations at the default chunk count, forked children on
        # a host with two cores or more, against one in-process chunk; the
        # ill-conditioned fit would show any change of the curves
        config = write_config(tmp_path, "leakage-rb", {"n_randomizations": 200})
        assert run(config, tmp_path / "default") == 0
        monkeypatch.setattr(rbsim, "_chunk_count", lambda r: 1)
        assert run(config, tmp_path / "in-process") == 0
        split = data_files(tmp_path / "default")
        assert set(split) == {"leakage_rb.csv", "leakage_rb_fit.json"}
        assert split == data_files(tmp_path / "in-process")

    def test_manifest_hashes_match_files(self, tmp_path):
        config = write_config(tmp_path, "leakage-rb", RB_PARAMS)
        assert run(config, tmp_path / "a") == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["seed"] == 3
        listed = {entry["path"]: entry["sha256"] for entry in manifest["files"]}
        assert set(listed) == set(data_files(tmp_path / "a"))
        for path, digest in listed.items():
            assert hashlib.sha256((tmp_path / "a" / path).read_bytes()).hexdigest() == digest

    def test_wall_time_ignores_wall_clock_jumps(self, tmp_path, monkeypatch):
        clock = itertools.count(1e9, -3600.0)  # a wall clock set back every call
        monkeypatch.setattr(cli.time, "time", lambda: next(clock))
        config = write_config(tmp_path, "reset-metrics")
        assert 0.0 <= cli.run_config(config, out=str(tmp_path / "a"))["wall_time_s"] < 3600.0

    def test_classifier_file_holds_the_calibration(self, tmp_path):
        config = write_config(tmp_path, "readout-shots", {"n_shots": 1000})
        assert run(config, tmp_path / "a") == 0
        shots = []
        for label in protocols.STATE_LABELS:
            with open(tmp_path / "a" / f"shots_{label}.csv") as fh:
                rows = list(csv.DictReader(fh))
            shots.append(protocols.ShotSet([[float(r["I"]), float(r["Q"])] for r in rows]))
        clf = protocols.calibrate_classifier(*shots)
        on_disk = json.loads((tmp_path / "a" / "classifier.json").read_text())
        assert on_disk == {"bins": protocols.CLASSIFIER_BINS, "sigma": clf.sigma,
                           **{key: getattr(clf, key).tolist()
                              for key in ("centers", "heights", "confusion")}}

    def test_list_shows_every_read_parameter_of_cz_chevron(self, capsys):
        assert cli.main(["list"]) == 0
        line = next(row for row in capsys.readouterr().out.splitlines()
                    if row.startswith("cz-chevron"))
        for key in ("omega_d_span", "n_omega", "max_duration", "n_sub"):
            assert key in line


TINY_PARAMS = {
    "reset-dynamics": {"n_points": 5},
    "reset-metrics": {},
    "lr-dynamics": {"n_points": 5},
    "leakage-rb": RB_PARAMS,
    "periodic-lr": {"n_lr_list": [5, 0], "n_max": 12},
    "chi-map": {"n_points": 5},
    "readout-shots": {"n_shots": 1000},
    "cz-chevron": CZ_PARAMS,
    "floquet-report": {"n_amplitudes": 3},
}


def write_raw_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


def assert_schema_error(tmp_path, capsys, config, key_path):
    """Both ``validate`` and ``run`` exit 2 naming ``key_path``; returns the
    message of ``run``."""
    assert cli.main(["validate", config]) == 2
    assert key_path in capsys.readouterr().err
    assert run(config, tmp_path / "a") == 2
    err = capsys.readouterr().err
    assert key_path in err
    return err


class TestSchema:
    def test_tiny_params_cover_every_scenario(self):
        assert set(TINY_PARAMS) == set(cli.SCENARIOS)

    @pytest.mark.parametrize("scenario", sorted(TINY_PARAMS))
    def test_every_scenario_runs(self, tmp_path, capsys, monkeypatch, scenario):
        contents = []
        encode = cli._encode
        monkeypatch.setattr(cli, "_encode", lambda c: contents.append(c) or encode(c))
        config = write_config(tmp_path, scenario, TINY_PARAMS[scenario])
        assert run(config, tmp_path / "a") == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["scenario"] == scenario
        assert manifest["files"]
        # _encode would write any other content, a stray str too, as JSON
        assert all(isinstance(c, dict) or (isinstance(c, tuple) and len(c) == 2)
                   for c in contents)

    @pytest.mark.parametrize("scenario, params, key_path", [
        ("chi-map", {"n_pionts": 5}, "params.n_pionts"),
        ("reset-metrics", {"rates": {"gamma1": -5.0}}, "params.rates.gamma1"),
        ("reset-metrics", {"rates": {"kappa_r": {"Q1": 5}}}, "params.rates.kappa_r"),
        # rates are flat keys: a per-element mapping is not a number
        ("reset-metrics", {"rates": {"gamma1": {"Q1": 5.0}}}, "params.rates.gamma1"),
        ("floquet-report", {"drive": [1, 2]}, "params.drive"),
        ("floquet-report", {"kind": "foo"}, "params.kind"),
        ("leakage-rb", {"l_cl": 2}, "params.l_cl"),
        ("leakage-rb", {"n_randomizations": 1}, "params.n_randomizations"),
        ("leakage-rb", {"n_cl_grid": [1, 2, 3]}, "params.n_cl_grid"),
        ("readout-shots", {"n_shots": 0}, "params.n_shots"),
        ("chi-map", {"n_points": -1}, "params.n_points"),
        ("periodic-lr", {"n_lr_list": 5}, "params.n_lr_list"),
        ("reset-metrics", {"p_id": 2}, "params.p_id"),
        ("leakage-rb", {"n_cl_grid": [1, 1, 1, 1, 1], "n_randomizations": 2}, "params.n_cl_grid"),
        ("readout-shots", {"experiment_populations": [0.5, 0.5, 0.5]},
         "params.experiment_populations"),
        # YAML booleans only: 1 == True and 1.0 == True in Python
        ("readout-shots", {"include_decay": 1}, "params.include_decay"),
        ("readout-shots", {"include_decay": 0}, "params.include_decay"),
        ("readout-shots", {"include_decay": 1.0}, "params.include_decay"),
        # repeated entries would repeat an output column
        ("periodic-lr", {"n_lr_list": [5, 5]}, "params.n_lr_list"),
        ("chi-map", {"g_tilde": [1e6, 1e6]}, "params.g_tilde"),
        ("reset-dynamics", {"g_tilde": [1e6, 1e6]}, "params.g_tilde"),
        # one output row per point: a table no machine holds is refused
        ("reset-dynamics", {"n_points": 1e30}, "params.n_points"),
        ("lr-dynamics", {"n_points": 1e30}, "params.n_points"),
        ("chi-map", {"n_points": 1e30}, "params.n_points"),
        # each Monte Carlo state holds its buffers and Clifford draws
        ("leakage-rb", {"n_randomizations": 1e30}, "params.n_randomizations"),
    ])
    def test_bad_values_are_schema_errors(self, tmp_path, capsys, scenario, params, key_path):
        config = write_config(tmp_path, scenario, params)
        assert_schema_error(tmp_path, capsys, config, key_path)

    @pytest.mark.parametrize("scenario, params, key_path", [
        ("floquet-report", {"drive": {"kind": "cz"}}, "params.drive.kind"),
        ("floquet-report", {"drive": {"phi_dc": 0.1}}, "params.drive.phi_dc"),
        ("reset-dynamics", {"drive": {"a_d": 0.1}}, "params.drive"),
        ("chi-map", {"rates": {}}, "params.rates"),
        ("cz-chevron", {"rates": {}}, "params.rates"),
        ("floquet-report", {"rates": {}}, "params.rates"),
        ("periodic-lr", {"n_lr": 2}, "params.n_lr"),
        ("periodic-lr", {"n_cl_grid": [1, 2, 3, 4, 5]}, "params.n_cl_grid"),
        ("periodic-lr", {"shots_per_point": 10}, "params.shots_per_point"),
        ("periodic-lr", {"n_randomizations": 5}, "params.n_randomizations"),
        ("periodic-lr", {"with_lr": False}, "params.with_lr"),
        ("leakage-rb", {"with_lr": False}, "params.with_lr"),
        ("leakage-rb", {"shots_per_point": 10}, "params.shots_per_point"),
        # rates no output of the scenario reads
        ("reset-metrics", {"rates": {"gamma_phi": 1.0}}, "params.rates.gamma_phi"),
        ("readout-shots", {"rates": {"kappa_r": 1.0}}, "params.rates.kappa_r"),
        ("reset-dynamics", {"rates": {"gamma_fe": 1.0}}, "params.rates.gamma_fe"),
        ("lr-dynamics", {"rates": {"gamma_phi": 1.0}}, "params.rates.gamma_phi"),
        ("periodic-lr", {"rates": {"gamma1": 1.0}}, "params.rates.gamma1"),
    ])
    def test_dead_keys_are_unknown(self, tmp_path, capsys, scenario, params, key_path):
        config = write_config(tmp_path, scenario, params)
        assert "unknown key" in assert_schema_error(tmp_path, capsys, config, key_path)

    def test_exponent_strings_still_parse_as_numbers(self, tmp_path):
        # PyYAML reads 2e-6 (no decimal point) as a string
        assert yaml.safe_load("x: 2e-6")["x"] == "2e-6"
        as_string = write_raw_config(
            tmp_path, "scenario: lr-dynamics\nparams:\n  duration: 2e-6\n  n_points: 5\n")
        assert run(as_string, tmp_path / "a") == 0
        as_float = write_raw_config(
            tmp_path, "scenario: lr-dynamics\nparams:\n  duration: 2.0e-6\n  n_points: 5\n")
        assert run(as_float, tmp_path / "b") == 0
        assert data_files(tmp_path / "a") == data_files(tmp_path / "b")

    def test_list_shows_every_declared_key_with_its_default(self, capsys):
        assert cli.main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name, (_, _, schema) in cli.SCENARIOS.items():
            line = next(row for row in lines if row.split()[0] == name)
            keys = list(cli._flat(schema))
            assert keys
            for key, default in keys:
                shown = list(default) if isinstance(default, tuple) else default
                assert f" {key}={shown}" in line

    def test_validity_warning_follows_the_reported_drive(self, tmp_path, capsys):
        config = write_config(tmp_path, "floquet-report",
                              {"kind": "cz", "drive": {"a_d": 0.3}, "n_amplitudes": 3})
        assert cli.main(["validate", config]) == 0
        out = capsys.readouterr().out
        assert "warning: params.drive.a_d" in out
        assert out.splitlines()[-1] == "ok"
        assert run(config, tmp_path / "a") == 0
        report = json.loads((tmp_path / "a" / "floquet_report.json").read_text())
        assert report["validity_ok"] is False

    def test_fixture_drive_validates_without_warning(self, tmp_path, capsys):
        config = write_config(tmp_path, "floquet-report", {"n_amplitudes": 3})
        assert cli.main(["validate", config]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert run(config, tmp_path / "a") == 0
        report = json.loads((tmp_path / "a" / "floquet_report.json").read_text())
        assert report["validity_ok"] is True


class TestSeed:
    def test_negative_seed_override_is_a_schema_error(self, tmp_path, capsys):
        config = write_config(tmp_path, "reset-metrics")
        assert cli.main(["run", config, "--seed", "-3", "--out", str(tmp_path / "a")]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [True, -1, 1.5, "three"])
    def test_bad_config_seed_is_a_schema_error(self, tmp_path, capsys, seed):
        config = write_raw_config(
            tmp_path, yaml.safe_dump({"scenario": "reset-metrics", "seed": seed}))
        assert_schema_error(tmp_path, capsys, config, "seed")

    def test_seed_override_is_recorded(self, tmp_path, capsys):
        config = write_config(tmp_path, "reset-metrics")
        assert cli.main(["run", config, "--seed", "9", "--out", str(tmp_path / "a")]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 9


#: scenarios whose declared scalars the boundary sweep tries one at a time
SWEPT_SCENARIOS = ("reset-dynamics", "lr-dynamics", "reset-metrics")
#: the sweep's largest ``n_points``, the default x 1e3; the schema's bound
#: on output rows lies above it, so the sweep never runs a table that large
SWEEP_MAX_POINTS = 301_000
#: JSON keys whose value may be infinite by definition, written as null:
#: the swap time of an overdamped swap, which never completes
INFINITE_BY_DEFINITION = {"swap_time_s"}


def declared_scalars(schema: dict, prefix: str = ""):
    """``(key path, _Param)`` of every declared parameter that is not a list."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from declared_scalars(spec, f"{prefix}{key}.")
        elif not isinstance(spec.default, tuple):
            yield prefix + key, spec


def boundary_values(key_path: str, spec) -> list:
    """The finite interval ends, 0, -1, 1e-30, 1e30 and the default x 1e3
    and x 1e-3, where the interval admits them."""
    lo, hi = (float(v) for v in spec.interval[1:-1].split(","))
    cap = SWEEP_MAX_POINTS if key_path.endswith("n_points") else math.inf
    values = []
    for v in (lo, hi, 0.0, -1.0, 1e-30, 1e30, spec.default * 1e3, spec.default * 1e-3):
        if math.isfinite(v) and cli._within(spec.interval, v) and v <= cap and v not in values:
            values.append(v)
    return values


BOUNDARY_SWEEP = [(scenario, key_path, value)
                  for scenario in SWEPT_SCENARIOS
                  for key_path, spec in declared_scalars(cli.SCENARIOS[scenario][2])
                  for value in boundary_values(key_path, spec)]

#: the rate keys the swept scenarios once declared, per element and with
#: the table values of that form; those a scenario no longer declares (no
#: output read them) are swept at the values they were, as schema errors
RETIRED_RATES = {"gamma1.Q1": 6.8e3, "gamma1.Q2": 4.7e3, "gamma1.C": 20e3,
                 "gamma_phi.Q1": 4.4e3, "gamma_phi.Q2": 11.3e3, "gamma_phi.C": 143e3,
                 "gamma_fe": 6.3e3, "kappa_r": 770e3}
RETIRED_SWEEP = [(scenario, key_path, value)
                 for scenario in SWEPT_SCENARIOS
                 for key, default in RETIRED_RATES.items()
                 if (key_path := f"rates.{key}") not in
                 dict(declared_scalars(cli.SCENARIOS[scenario][2]))
                 for value in (0.0, 1e-30, 1e30, default * 1e3, default * 1e-3)]


def nested(key_path: str, value) -> dict:
    for key in reversed(key_path.split(".")):
        value = {key: value}
    return value


def non_finite_cells(name: str, data: bytes) -> list:
    """Cells of a data file that hold NaN or +-inf (a JSON null is how the
    encoder writes one)."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        cells = np.array(rows[1:], dtype=float)
        return [(rows[0][j], cells[i, j]) for i, j in zip(*np.nonzero(~np.isfinite(cells)))]
    return [(key, value) for key, value in json.loads(data).items()
            if key not in INFINITE_BY_DEFINITION
            and not (isinstance(value, (int, float)) and math.isfinite(value))]


class TestBoundarySweep:
    """Each declared scalar of the closed-form scenarios at the ends of its
    interval and beyond the physical scale: a config that ``validate``
    admits runs (exit 0) with finite data, and any other is a schema error
    (exit 2), never a numerical failure (exit 3). A rate key the scenario
    no longer declares is a schema error that names the rate."""

    def test_sweep_covers_every_declared_scalar(self):
        assert len(BOUNDARY_SWEEP) == 77
        swept = {(s, k) for s, k, _ in BOUNDARY_SWEEP}
        assert swept == {(s, k) for s in SWEPT_SCENARIOS
                         for k, _ in declared_scalars(cli.SCENARIOS[s][2])}
        # the nested per-element form of every rate, and each flat rate
        # no output of the scenario reads
        assert len(RETIRED_SWEEP) == 105
        assert not swept & {(s, k) for s, k, _ in RETIRED_SWEEP}

    @pytest.mark.parametrize("scenario, key_path, value", BOUNDARY_SWEEP + RETIRED_SWEEP,
                             ids=[f"{s}:{k}={v:g}" for s, k, v in BOUNDARY_SWEEP + RETIRED_SWEEP])
    def test_runs_or_is_a_schema_error(self, tmp_path, capsys, scenario, key_path, value):
        config = write_config(tmp_path, scenario, nested(key_path, value))
        if (scenario, key_path, value) in RETIRED_SWEEP:
            # the error names the rate, not the element under it
            assert_schema_error(tmp_path, capsys, config, ".".join(key_path.split(".")[:2]))
            return
        admitted = cli.main(["validate", config]) == 0
        assert run(config, tmp_path / "a") == (0 if admitted else 2), capsys.readouterr().err
        if admitted:
            for name, data in data_files(tmp_path / "a").items():
                assert not non_finite_cells(name, data), name


#: the small base run of every scenario for the parameter walk; each
#: scenario takes the keys it declares
WALK_BASE = {"n_randomizations": 2, "n_cl_grid": [1, 2, 3, 4, 5], "n_shots": 1000,
             "n_points": 11, "n_max": 20, "n_amplitudes": 3, "n_omega": 3, "n_sub": 64}
WALK = [(scenario, key_path) for scenario, (_, _, schema) in sorted(cli.SCENARIOS.items())
        for key_path, _ in cli._flat(schema)]


def walk_base(scenario: str) -> dict:
    return {k: v for k, v in WALK_BASE.items() if k in cli.SCENARIOS[scenario][2]}


def moved(spec, value):
    """Another value ``spec`` admits: a bool flipped, the other choice, a
    number for a ``None`` default, a number scaled or shifted, a list with
    its first entry so changed or else its first two entries swapped."""
    if value is None:
        return 0.5
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return next(c for c in spec.choices if c != value)
    listed = isinstance(value, (list, tuple))
    first = value[0] if listed else value
    numbers = [x for x in (first * 1.5, first * 0.5, first + 1, first + 7) if x != first]
    candidates = ([[x, *value[1:]] for x in numbers] + [[value[1], value[0], *value[2:]]]
                  if listed else numbers)
    for candidate in candidates:
        try:
            cli._convert(spec, candidate, "walk")
        except cli.ConfigError:
            continue
        return candidate
    raise AssertionError(f"no other admitted value near {value!r}")


def data_hashes(tmp_path, scenario: str, params: dict) -> dict:
    manifest = cli.run_config(write_config(tmp_path, scenario, params),
                              out=str(tmp_path / "out"))
    return {entry["path"]: entry["sha256"] for entry in manifest["files"]}


@pytest.fixture(scope="module")
def base_hashes(tmp_path_factory):
    cache = {}

    def of(scenario):
        if scenario not in cache:
            cache[scenario] = data_hashes(tmp_path_factory.mktemp(scenario), scenario,
                                          walk_base(scenario))
        return cache[scenario]
    return of


class TestEveryDeclaredParameterIsRead:
    """Each declared parameter, moved alone from a small base run to
    another admitted value, changes some data file: the schema declares no
    knob that no output reads."""

    def test_walk_covers_every_declared_parameter(self):
        assert len(WALK) == 57

    @pytest.mark.parametrize("scenario, key_path", WALK, ids=[f"{s}:{k}" for s, k in WALK])
    def test_moving_it_changes_a_data_file(self, tmp_path, base_hashes, scenario, key_path):
        spec = functools.reduce(dict.__getitem__, key_path.split("."),
                                cli.SCENARIOS[scenario][2])
        params = walk_base(scenario)
        value = moved(spec, params.get(key_path, spec.default))
        assert data_hashes(tmp_path, scenario, {**params, **nested(key_path, value)}) \
            != base_hashes(scenario)
