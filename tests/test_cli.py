import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import couplersim
from couplersim import cli, presets, protocols, rbsim
from couplersim.floquet import (ValidityWarning, coupler_block, effective_coupling,
                                fourier_decompose, modulation_spectrum, transition_manifold)

RB_PARAMS = {"n_randomizations": 3, "n_cl_grid": [1, 2, 4, 8, 16, 32, 64]}
CZ_PARAMS = {"n_omega": 3, "n_sub": 64}
#: 5000 distinct couplings: 5000 columns of a table
WIDE = [1e3 * (k + 1) for k in range(5000)]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_config(tmp_path, scenario, params=None):
    path = tmp_path / "config.yaml"
    cfg = {"scenario": scenario, "seed": 3, "output": str(tmp_path / "out")}
    if params is not None:
        cfg["params"] = params
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run(config, out):
    return cli.main(["run", config, "--out", str(out)])


def run_under_kernel(core, script, *args):
    """Run ``script`` in a child under ``OPENBLAS_CORETYPE=core``, set for the
    child only; skip where no kernel of numpy's OpenBLAS can be read."""
    if cli._blas_core() is None or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("no x86-64 OpenBLAS bundled with numpy whose kernel can be read")
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)


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
EDGE_STRINGS = ["g", "a,b", 'say "hi"', "two\nlines", "", " pad", "tab\tx", "cr\rx",
                "100%", "%s%%d", '%(x)s,"%"', "µs, ±1"]


class TestEncoder:
    @pytest.mark.parametrize("n", [0, 1, 13, cli._CSV_CHUNK_ROWS, 2 * cli._CSV_CHUNK_ROWS + 5])
    def test_matches_the_per_row_writer_bitwise(self, n):
        floats = np.resize(np.array(EDGE_FLOATS), n)
        header = ["f64", "py_float", "int64", "py_int", "bool", "str", "label", "scalar",
                  "percent", "scalar_int"]
        columns = [
            floats,
            floats[::-1].tolist(),
            np.arange(n, dtype=np.int64) * 10 ** 15 - 7,
            [2 ** 62 + k for k in range(n)],
            np.arange(n) % 3 == 0,
            [EDGE_STRINGS[k % len(EDGE_STRINGS)] for k in range(n)],
            "experiment",   # a scalar fills its column
            0.1,
            '5%,"%s"',      # a scalar the template must escape and quote
            7,
        ]
        rows = zip(*(c if np.ndim(c) else [c] * n for c in columns))
        assert cli._encode((header, columns)) == reference_csv(header, rows)

    @given(values=st.lists(st.floats(), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_double_encodes_as_the_per_row_writer(self, values):
        # st.floats() draws nan, +-inf, +-0, subnormals and every exponent
        header = ["x", "minus_x"]
        columns = [np.array(values, float), [-v for v in values]]
        assert cli._encode((header, columns)) == reference_csv(header, zip(*columns))

    def test_decade_edges_ties_and_carries(self):
        # both sides of every power of ten the fixed notation reaches and
        # beyond; the carry of 17 nines; 131073 / 2**17 = 1.00000762939453125,
        # an exact tie at the 17th digit that half-even rounds down to ...312;
        # the integers about 2**53 and at the top of the range
        edges = [9.9999999999999999e-5, 131073 / 2 ** 17, 2.0 ** 53 - 1, 2.0 ** 53 + 1,
                 2.0 ** 53 + 2, 1e16, 99999999999999999.0]
        for k in range(-7, 19):
            power = float(f"1e{k}")
            edges += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
        values = np.array(edges + [-v for v in edges])
        assert format(131073 / 2 ** 17, ".17g") == "1.0000076293945312"
        assert cli._encode((["x"], [values])) == reference_csv(["x"], [(v,) for v in values])

    def test_fixed_and_formatted_cells_alternate(self):
        # every other cell leaves the array path: zero, nan, inf, exponent
        # notation, a subnormal, next to plain decimals of both signs
        others = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 2e-9, 1e17, 5e-324]
        values = np.array([x for k, other in enumerate(others * 700)
                           for x in (other, (-1) ** k * (k + 0.123))])
        rows = [(v, 1.0, v) for v in values.tolist()]
        encoded = cli._encode((["a", "one", "b"], [values, np.ones(len(values)), values]))
        assert encoded == reference_csv(["a", "one", "b"], rows)

    def test_no_runtime_warning_on_cells_off_the_array_path(self):
        values = np.array([float("nan"), float("inf"), -float("inf"), 0.0, 5e-324, 1e308, 1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli._encode((["x"], [values]))

    def test_scalars_alone_make_one_row(self):
        header, row = ["label", "x", "n"], ("50%", 0.1, 3)
        assert cli._encode((header, list(row))) == reference_csv(header, [row])

    @pytest.mark.parametrize("lengths", [(3, 2), (3, 4), (3, 3, 1)])
    def test_column_of_another_length_raises(self, lengths):
        columns = [np.zeros(k) for k in lengths]
        with pytest.raises(ValueError, match="rows, expected 3"):
            cli._encode(([f"c{i}" for i in range(len(lengths))], columns))

    def test_failing_runner_writes_no_data_file(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("fit failed")

        monkeypatch.setattr(rbsim, "fit_rb", fail)
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
        # odd step counts: the spectra keep the mirror-distinct half only
        ("n_sub", 1),
        ("n_sub", 63),
        ("n_sub", 1001),
        ("n_omega", 0),
        ("max_duration", 0),
        ("max_duration", -1e-6),
        ("omega_d_span", [-600e6, 15e6]),  # reaches drive frequencies <= 0
        # repeated drive frequencies, as their steps are within 2 ulps
        ("omega_d_span", [0, 0]),
        ("omega_d_span", [0, 1e-8]),
        ("max_duration", 1e-9),  # shorter than one drive period
    ])
    def test_bad_cz_chevron_parameters_are_schema_errors(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, "cz-chevron", {**CZ_PARAMS, key: value})
        assert cli.main(["validate", config]) == 2
        assert f"params.{key}" in capsys.readouterr().err
        assert run(config, tmp_path / "a") == 2
        assert f"params.{key}" in capsys.readouterr().err

    def test_one_drive_frequency_may_have_a_point_span(self, tmp_path):
        config = write_config(tmp_path, "cz-chevron",
                              {**CZ_PARAMS, "omega_d_span": [0, 0], "n_omega": 1})
        assert cli.main(["validate", config]) == 0
        assert run(config, tmp_path / "a") == 0
        header = (tmp_path / "a" / "cz_chevron.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 2  # t_s and the one drive frequency's column

    def test_window_too_short_is_a_schema_error(self, tmp_path, capsys):
        # validate passes it: the check bounds the window by one drive period,
        # but whether a full oscillation fits depends on the Rabi rate, which
        # only the run finds.  The config is at fault, so run reports a schema
        # error naming the window's key, and no file is written.
        config = write_config(tmp_path, "cz-chevron", {
            **CZ_PARAMS, "omega_d_span": [-1e6, 1e6], "max_duration": 80e-9})
        assert cli.main(["validate", config]) == 0
        assert run(config, tmp_path / "a") == 2
        err = capsys.readouterr().err
        assert "params.max_duration" in err and "oscillation" in err
        assert os.listdir(tmp_path / "a") == []

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

    @pytest.mark.parametrize("key, value", [
        ("separation_sigma", 3.29e-3),
        ("tau_meas", 1.0e-2),
        ("separation_sigma", 3290.0),
    ])
    def test_indistinguishable_readout_is_a_schema_error(self, tmp_path, capsys, key, value):
        # A schema error, caught by the check, not a numerical failure: the
        # config alone bounds how well any classifier can tell the g and e
        # calibration shots apart (their total variation distance bounds
        # the confusion matrix's smallest singular value), and below the
        # classifier's floor no seed calibrates.  With decay on, a
        # separation above one blob width per histogram bin leaves the e
        # blob unresolved, which the fit cannot survive either.
        config = write_config(tmp_path, "readout-shots", {"n_shots": 1000, key: value})
        assert_schema_error(tmp_path, capsys, config, f"params.{key}")

    def test_readout_only_the_shots_show_unusable_is_a_schema_error(self, tmp_path, capsys):
        # The bound admits separation 0.2 (0.064 at the default decay, above
        # the 0.05 floor), but at 1000 shots the fitted classifier falls
        # below it, which only the drawn shots show.  run reports it as a
        # schema error naming the key of the bound's smaller factor: the
        # config, not the numerics, is at fault, and no file is written.
        config = write_config(tmp_path, "readout-shots",
                              {"n_shots": 1000, "separation_sigma": 0.2})
        assert cli.main(["validate", config]) == 0
        assert run(config, tmp_path / "a") == 2
        assert "params.separation_sigma" in capsys.readouterr().err
        assert os.listdir(tmp_path / "a") == []

    def test_undecodable_config_is_a_schema_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_bytes(b"scenario: reset-metrics\n# \xff\n")
        assert cli.main(["validate", str(config)]) == 2
        assert "cannot decode config" in capsys.readouterr().err
        assert run(str(config), tmp_path / "a") == 2
        assert "cannot decode config" in capsys.readouterr().err

    def test_empty_output_directory_is_a_schema_error(self, tmp_path, capsys):
        config = write_raw_config(tmp_path, "scenario: reset-metrics\noutput: ''\n")
        assert cli.main(["validate", config]) == 2
        assert "output" in capsys.readouterr().err
        assert cli.main(["run", config]) == 2
        assert "output" in capsys.readouterr().err

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


#: sha256 of readout-shots' shot tables at the CLI defaults, seed 3, as the
#: per-row ``%.17g`` encoder wrote them.  The shots come from PCG64 draws and
#: IEEE arithmetic only (no BLAS), so the digests hold on any host.
READOUT_SHOT_DIGESTS = {
    "shots_g.csv": "cceb0e484616eb53036915dbbd43ea34bc614a61f2b75e3b63419108d8ab68de",
    "shots_e.csv": "c7a02e1171d990e3cccd416d744089ba7ac0c11a63e9c9f0f998a006ad74d8bd",
    "shots_f.csv": "d44e30c7181365bf8adc1cde6bf7ed579fb6613ece5b1bd1b034dda106514c5c",
    "shots_experiment.csv":
        "392fcbf2208010f0b128f658d6325b5fe06ecf409f5f1d76d87ee000db4e4817",
}


#: sha256 of every data file of the scenarios whose bytes held under the
#: SkylakeX, Haswell and Prescott OpenBLAS kernels (``OPENBLAS_CORETYPE`` set
#: for the run's process), at the CLI defaults, seed 3: floquet-report at each
#: of its four kinds.  A change that moves any of them changes the physics or
#: the encoding, which a byte-identical refactor must not.
KERNEL_STABLE_DIGESTS = {
    ("reset-dynamics", None): {
        "reset_dynamics.csv": "962ffd1d217e125c7e68946e86da4770c4c2ae9a33523e6f2e062993bf86bd65"},
    ("reset-metrics", None): {
        "reset_metrics.json": "e499f47a91c4ba531d6810b21f3510436445d6d94276c067b742a2ee27c7bdce"},
    ("lr-dynamics", None): {
        "lr_dynamics.csv": "f4f05d50cdcb4123e2d6928bfacf60c3c7608ea3b359e3aedf538e907b9c3630",
        "lr_summary.json": "f0cb886bf0495a923816e9b52ee6b5b7b0fad40cb481ffb44bc9fd454db49380"},
    ("chi-map", None): {
        "chi_map.csv": "25a32cdd4a6294920f36f3d4a38c3a51dbdd79d1c6d7a3bb1d0d6df9045e947b"},
    ("floquet-report", None): {
        "coupling_vs_amplitude.csv":
            "0e7b793798252271ac0e4cec896f3a51956da86a23415982c676d0c1639d4db2",
        "floquet_report.json": "0c6182789373dbfac3ac1bf59bd0345f8e46ff529ab181b1f2f37354a7512804"},
    ("floquet-report", "lr"): {
        "coupling_vs_amplitude.csv":
            "a9d29c87fca0500c825f2b5e59e3fdeb055f8d2404f9a70ef11357b23279139f",
        "floquet_report.json": "f2dc5d66a2b3e6245dd133ce457fd629780474de1c875346fd8d88a9f6e62159"},
    ("floquet-report", "readout"): {
        "coupling_vs_amplitude.csv":
            "c5edf1a19b635f737aa42d6387d4d3e336908c39186f5cd2b463efdd7ba66d3c",
        "floquet_report.json": "9f38f8bee05a6331038142544aa0ce3100acadd0476b8853518420d9378d7b22"},
    ("floquet-report", "cz"): {
        "coupling_vs_amplitude.csv":
            "0d450614d18a9e1229bfbb0b56430564f6455cde0c6845e7ad78cb038dee71de",
        "floquet_report.json": "8ad6ed87871d223cd107e1d2c201dd2684970318c0afb59de38c988c926f7bd5"},
}


class TestOutputs:
    def test_readout_shot_tables_keep_their_bytes(self, tmp_path):
        assert run(write_config(tmp_path, "readout-shots"), tmp_path / "a") == 0
        written = data_files(tmp_path / "a")
        assert {name: hashlib.sha256(written[name]).hexdigest()
                for name in READOUT_SHOT_DIGESTS} == READOUT_SHOT_DIGESTS

    @pytest.mark.parametrize("scenario, kind", list(KERNEL_STABLE_DIGESTS))
    def test_kernel_stable_outputs_keep_their_bytes(self, tmp_path, scenario, kind):
        config = write_config(tmp_path, scenario, kind and {"kind": kind})
        assert run(config, tmp_path / "a") == 0
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in data_files(tmp_path / "a").items()
                } == KERNEL_STABLE_DIGESTS[scenario, kind]

    def test_reruns_differ_only_in_their_timings(self, tmp_path, capsys):
        # the cz drive out of its coupling window: the check has a note
        config = write_config(tmp_path, "floquet-report",
                              {"kind": "cz", "drive": {"a_d": 0.3}, "n_amplitudes": 3})
        first, second = (cli.run_config(config, out=str(tmp_path / "a")) for _ in range(2))
        assert set(first["stages"]) == {"run", "encode", "write"}
        assert all(v >= 0.0 for v in first["stages"].values())
        assert sum(first["stages"].values()) <= first["wall_time_s"]
        assert first["notes"] and "params.drive.a_d" in first["notes"][0]
        assert f"warning: {first['notes'][0]}" in capsys.readouterr().err
        timings = ("wall_time_s", "stages")
        assert ({k: v for k, v in first.items() if k not in timings}
                == {k: v for k, v in second.items() if k not in timings})
        on_disk = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert on_disk == json.loads(json.dumps(second))

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

    def test_fit_ignores_the_order_of_the_grid(self, tmp_path):
        # the default grid descending: the same curve rows in reverse, and
        # the same fit, byte for byte
        assert run(write_config(tmp_path, "leakage-rb"), tmp_path / "ascending") == 0
        grid = list(reversed(rbsim.DEFAULT_N_CL_GRID))
        config = write_config(tmp_path, "leakage-rb", {"n_cl_grid": grid})
        assert run(config, tmp_path / "descending") == 0
        ascending = data_files(tmp_path / "ascending")
        descending = data_files(tmp_path / "descending")
        assert descending["leakage_rb_fit.json"] == ascending["leakage_rb_fit.json"]
        header, *rows = ascending["leakage_rb.csv"].splitlines()
        assert descending["leakage_rb.csv"].splitlines() == [header, *reversed(rows)]

    def test_manifest_hashes_match_files(self, tmp_path):
        config = write_config(tmp_path, "leakage-rb", RB_PARAMS)
        assert run(config, tmp_path / "a") == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["seed"] == 3
        listed = {entry["path"]: entry["sha256"] for entry in manifest["files"]}
        assert set(listed) == set(data_files(tmp_path / "a"))
        for path, digest in listed.items():
            assert hashlib.sha256((tmp_path / "a" / path).read_bytes()).hexdigest() == digest

    def test_manifest_records_the_environment(self, tmp_path):
        manifest = cli.run_config(write_config(tmp_path, "reset-metrics"),
                                  out=str(tmp_path / "a"))
        environment = manifest["environment"]
        assert environment["python"] == platform.python_version()
        assert environment["numpy"] == np.__version__
        for key in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert environment[key] == os.environ.get(key)
        # as the caller set it, before the package's own default
        assert environment["OPENBLAS_NUM_THREADS"] == couplersim.OPENBLAS_CALLER
        assert environment["openblas_one_thread"] is couplersim.OPENBLAS_ONE_THREAD
        assert environment["blas_core"] == cli._blas_core()
        assert environment["blas_core"] is None or isinstance(environment["blas_core"], str)
        cli._environment()
        assert cli._blas_core.cache_info().misses == 1  # read once per process
        on_disk = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert on_disk["environment"] == environment

    def test_blas_core_names_the_kernel_the_library_runs(self):
        # OPENBLAS_CORETYPE, set for the child only, selects another kernel
        # of a DYNAMIC_ARCH OpenBLAS; the record reads it from the library
        child = run_under_kernel("Haswell", "from couplersim import cli; print(cli._blas_core())")
        assert child.stdout.strip() == "Haswell"

    @pytest.mark.parametrize("core", ["Haswell", "Prescott"])
    def test_kernel_stable_outputs_keep_their_bytes_across_kernels(self, tmp_path, core):
        # the eight configs in one child under another kernel; Prescott
        # reads back as Katmai, so the child reports the name the library runs
        configs = []
        for i, (scenario, kind) in enumerate(KERNEL_STABLE_DIGESTS):
            (tmp_path / str(i)).mkdir()
            configs.append(write_config(tmp_path / str(i), scenario, kind and {"kind": kind}))
        child = run_under_kernel(core, "import sys; from couplersim import cli\n"
                                 "assert not any(cli.main(['run', c]) for c in sys.argv[1:])\n"
                                 "print(cli._blas_core())", *configs)
        ran = child.stdout.splitlines()[-1]
        if ran == cli._blas_core():
            pytest.skip(f"OPENBLAS_CORETYPE={core} runs this host's own kernel, {ran}")
        for i, digests in enumerate(KERNEL_STABLE_DIGESTS.values()):
            assert {name: hashlib.sha256(data).hexdigest()
                    for name, data in data_files(tmp_path / str(i) / "out").items()} == digests

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
        ("periodic-lr", {"n_max": 1e30}, "params.n_max"),
        ("floquet-report", {"n_amplitudes": 1e30}, "params.n_amplitudes"),
        # one amplitude would be a sweep of one point, at a_d = 0
        ("floquet-report", {"n_amplitudes": 1}, "params.n_amplitudes"),
        ("readout-shots", {"n_shots": 1e30}, "params.n_shots"),
        ("cz-chevron", {"n_omega": 1e30}, "params.n_omega"),
        # each Monte Carlo state holds its buffers and Clifford draws
        ("leakage-rb", {"n_randomizations": 1e30}, "params.n_randomizations"),
        ("leakage-rb", {"n_cl_grid": [1, 2, 3, 4, 10_000_000]}, "params.n_cl_grid"),
        ("leakage-rb", {"n_cl_grid": [1, 2, 3, 4, 1e30]}, "params.n_cl_grid"),
        # the midpoint spectra and the stroboscopic periods of the scan
        ("cz-chevron", {"n_sub": 1e30}, "params.n_sub"),
        ("cz-chevron", {"max_duration": 1e30}, "params.max_duration"),
        # each key within its bound, their products not: the cells of
        # cz_chevron.csv and the propagator steps of the scan
        ("cz-chevron", {"n_omega": 1_000_000, "max_duration": 1.8e-3}, "params.n_omega"),
        ("cz-chevron", {"n_omega": 1000, "n_sub": 100_000}, "params.n_omega"),
        # tables of about 5e9 cells: many columns at a row count each
        # within the budget alone
        ("reset-dynamics", {"g_tilde": WIDE, "n_points": 1e6}, "params.n_points"),
        ("chi-map", {"g_tilde": WIDE, "n_points": 1e6}, "params.n_points"),
        ("periodic-lr", {"n_lr_list": list(range(5000)), "n_max": 1e6}, "params.n_max"),
        # the work of the amplitude sweep: 1e6 amplitudes are about 450 s
        ("floquet-report", {"n_amplitudes": 1e6}, "params.n_amplitudes"),
        # Monte Carlo draws of a long grid, and the time of many states
        ("leakage-rb", {"n_cl_grid": [1, 2, 3, 4, 1_000_000], "n_randomizations": 200},
         "params.n_cl_grid"),
        ("leakage-rb", {"n_randomizations": 20_000}, "params.n_randomizations"),
        # the time of a long grid at few states names the grid
        ("leakage-rb", {"n_cl_grid": [1, 2, 3, 4, 10_000_000], "n_randomizations": 2},
         "params.n_cl_grid"),
        # the power table of one drive frequency: 9.5e6 periods,
        # within the cells budget alone
        ("cz-chevron", {"n_omega": 1, "max_duration": 19e-3}, "params.max_duration"),
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

    @pytest.mark.parametrize("scenario, params", [
        ("cz-chevron", {}),
        ("leakage-rb", {}),
        # the paper-scale configs, each ten times along a bounded axis
        ("cz-chevron", {"n_omega": 15, "max_duration": 15e-6, "n_sub": 20480}),
        # and cz-paper ten times along all three at once
        ("cz-chevron", {"n_omega": 150, "max_duration": 15e-6, "n_sub": 20480}),
        ("leakage-rb", {"n_randomizations": 2000}),
        # the workload configs of the benchmark (perfbench/workloads.py), which
        # a budget must not refuse: cz-paper, rb-paper and figure-sweep
        ("cz-chevron", {"n_omega": 15, "max_duration": 1.5e-6, "n_sub": 2048}),
        ("leakage-rb", {"n_randomizations": 200}),
        *((scenario, {}) for scenario in ("reset-dynamics", "reset-metrics", "lr-dynamics",
                                          "periodic-lr", "chi-map", "floquet-report",
                                          "readout-shots")),
    ])
    def test_bounds_leave_room_above_paper_scale(self, tmp_path, capsys, scenario, params):
        assert cli.main(["validate", write_config(tmp_path, scenario, params)]) == 0

    @pytest.mark.parametrize("n_sub", [1002, 1000])
    def test_n_sub_bound_states_the_spectra_memory(self, n_sub):
        # the two driven midpoint spectra cz_conditional_phase builds, with
        # a self-mirrored middle step at 1002 and none at 1000, at 432 B a
        # sample for the two manifolds
        circuit, drive = presets.table_circuit(), presets.fixture_drive("cz")
        spectra = [modulation_spectrum(coupler_block(circuit, states), circuit.coupler, drive,
                                       n_sub)
                   for states in (protocols._CZ_DOUBLE, protocols._CZ_SINGLE)]
        held = sum(spectrum.evals.nbytes + spectrum.evecs.nbytes + spectrum.overlaps.nbytes
                   for spectrum in spectra)
        samples, priced = protocols.cz_spectra_size(n_sub)
        assert held == priced
        assert samples == spectra[0].evals.size // 6
        more, priced_more = protocols.cz_spectra_size(n_sub + 4)
        assert priced_more - priced == (more - samples) * 432

    @pytest.mark.parametrize("n_omega", [1, 2])
    def test_max_duration_bound_states_the_scan_memory(self, monkeypatch, n_omega):
        # the tracemalloc peak of the scan, from 20 to 40 us, grows by 1 to
        # 1.5 times what the check prices for those stroboscopic periods
        priced = []

        def record(key, resource, amount, what):
            if (key, resource) == ("params.max_duration", "bytes"):
                priced.append(amount)

        monkeypatch.setattr(cli, "_budget", record)
        circuit, drive = presets.table_circuit(), presets.fixture_drive("cz")
        peaks = []
        for duration in (20e-6, 40e-6):
            params = cli._parse_params(cli._schema("cz-chevron"),
                                       {"n_omega": n_omega, "n_sub": 64, "max_duration": duration})
            cli._cz_chevron_check(params)
            protocols.cz_conditional_phase(circuit, drive, **params)  # warm caches
            tracemalloc.start()
            try:
                protocols.cz_conditional_phase(circuit, drive, **params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 1.0 <= (peaks[1] - peaks[0]) / (priced[1] - priced[0]) <= 1.5

    def test_list_shows_every_declared_key_with_its_default(self, capsys):
        assert cli.main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in cli.SCENARIOS:
            line = next(row for row in lines if row.split()[0] == name)
            keys = list(cli._flat(cli._schema(name)))
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


class TestValidityWindowEdge:
    """``validate``'s note, the report's ``validity_ok`` and the
    ``ValidityWarning`` of ``effective_coupling`` agree on either side of the
    leading-order window's edge |D_k| = k omega_D / 2."""

    @staticmethod
    def d_k(kind, a_d):
        drive = replace(presets.fixture_drive(kind), a_d=a_d)
        return abs(fourier_decompose(drive, presets.table_coupler()).coefficient(drive.k))

    @staticmethod
    def verdicts(tmp_path, capsys, kind, a_d):
        """(validate notes, the report is not validity_ok, effective_coupling
        warns) for the fixture drive of ``kind`` at amplitude ``a_d``."""
        tmp_path.mkdir()
        config = write_config(tmp_path, "floquet-report",
                              {"kind": kind, "drive": {"a_d": a_d}, "n_amplitudes": 2})
        assert cli.main(["validate", config]) == 0
        noted = "warning: params.drive.a_d" in capsys.readouterr().out
        assert run(config, tmp_path / "a") == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "a" / "floquet_report.json").read_text())
        assert report["a_d_rad"] == a_d
        drive = replace(presets.fixture_drive(kind), a_d=a_d)
        man = transition_manifold(presets.table_circuit(), kind)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            effective_coupling(man.g_ac, man.g_bc, man.k, drive.omega_d,
                               fourier_decompose(drive, presets.table_coupler()))
        warned = any(issubclass(w.category, ValidityWarning) for w in caught)
        return noted, not report["validity_ok"], warned

    def test_first_harmonic_edge_of_the_cz_drive(self, tmp_path, capsys):
        # |D_1| of the CZ drive crosses omega_D / 2 between a_d 0.1 and 0.2
        half = presets.fixture_drive("cz").omega_d / 2
        edge = brentq(lambda a: self.d_k("cz", a) - half, 0.1, 0.2, xtol=1e-15)
        assert self.verdicts(tmp_path / "in", capsys, "cz", edge * (1 - 1e-10)) == (
            False, False, False)
        assert self.verdicts(tmp_path / "out", capsys, "cz", edge * (1 + 1e-10)) == (
            True, True, True)

    def test_second_harmonic_edge_of_the_reset_drive_is_out_of_reach(self, tmp_path, capsys):
        # On the reference circuit |D_2| of the reset drive (k = 2) peaks at
        # 0.765 of the edge k omega_D / 2 = omega_D, near a_d 1.43: no
        # amplitude of floquet-report leaves the window.  The three verdicts
        # agree at the peak; the k = 2 edge itself is pinned on synthetic
        # spectra in test_floquet.
        omega_d = presets.fixture_drive("reset").omega_d
        amps = np.linspace(0.0, math.pi, 315)
        ratios = [self.d_k("reset", float(a)) / omega_d for a in amps]
        peak = float(amps[int(np.argmax(ratios))])
        assert max(ratios) == pytest.approx(0.765, abs=0.002)
        assert self.verdicts(tmp_path / "peak", capsys, "reset", peak) == (False, False, False)


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


#: the base config of each scenario's boundary sweep: the defaults, sized
#: down where a scenario's default run is slow or large.  A key the base
#: sets is swept about its base value, any other about its default
SWEEP_BASE = {
    "reset-dynamics": {}, "reset-metrics": {}, "lr-dynamics": {},
    "leakage-rb": {"n_randomizations": 2, "n_cl_grid": [1, 2, 4, 8, 16, 32, 64]},
    "periodic-lr": {"n_max": 12},
    "chi-map": {"n_points": 5},
    "readout-shots": {"n_shots": 1000},
    "cz-chevron": {"n_omega": 1, "n_sub": 16, "max_duration": 0.6e-6},
    "floquet-report": {"n_amplitudes": 2},
}
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


def boundary_values(spec, base) -> list:
    """The finite interval ends, 0, -1, 1e-30, 1e30 and the base value x 1e3
    and x 1e-3 (a number's), where the interval admits them."""
    lo, hi = (float(v) for v in spec.interval[1:-1].split(","))
    scaled = [base * 1e3, base * 1e-3] if isinstance(base, (int, float)) else []
    values = []
    for v in (lo, hi, 0.0, -1.0, 1e-30, 1e30, *scaled):
        if math.isfinite(v) and cli._within(spec.interval, v) and v not in values:
            values.append(v)
    return values


BOUNDARY_SWEEP = [(scenario, key_path, value)
                  for scenario, base in SWEEP_BASE.items()
                  for key_path, spec in declared_scalars(cli._schema(scenario))
                  for value in boundary_values(spec, base.get(key_path, spec.default))]

#: the rate keys the scenarios once declared, per element and with the table
#: values of that form; those a scenario no longer declares (no output read
#: them) are swept at the values they were, as schema errors
RETIRED_RATES = {"gamma1.Q1": 6.8e3, "gamma1.Q2": 4.7e3, "gamma1.C": 20e3,
                 "gamma_phi.Q1": 4.4e3, "gamma_phi.Q2": 11.3e3, "gamma_phi.C": 143e3,
                 "gamma_fe": 6.3e3, "kappa_r": 770e3}
RETIRED_SWEEP = [(scenario, key_path, value)
                 for scenario in SWEEP_BASE if "rates" in cli._schema(scenario)
                 for key, default in RETIRED_RATES.items()
                 if (key_path := f"rates.{key}") not in
                 dict(declared_scalars(cli._schema(scenario)))
                 for value in (0.0, 1e-30, 1e30, default * 1e3, default * 1e-3)]


def nested(key_path: str, value) -> dict:
    for key in reversed(key_path.split(".")):
        value = {key: value}
    return value


def non_finite_cells(name: str, data: bytes) -> list:
    """Cells of a data file that hold NaN or +-inf (a JSON null is how the
    encoder writes one); text cells such as shot labels are skipped."""
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(data.decode()))
        return [(header[j], cell) for row in rows for j, cell in enumerate(row)
                if cell.lstrip("-").lower() in ("nan", "inf")]
    found = []

    def walk(key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(k, v)
        elif isinstance(value, list):
            for v in value:
                walk(key, v)
        elif value is None and key not in INFINITE_BY_DEFINITION:
            found.append(key)
    walk(name, json.loads(data))
    return found


class TestBoundarySweep:
    """Each declared scalar of every scenario, alone on its sweep base, at
    the ends of its interval and beyond the physical scale: a config that
    ``validate`` admits runs (exit 0) with finite data, and any other is a
    schema error (exit 2), never a numerical failure (exit 3).  A count the
    schema leaves unbounded above is swept at 1e30, which its scenario's
    check refuses.  A rate key the scenario no longer declares is a schema
    error that names the rate."""

    def test_sweep_covers_every_declared_scalar(self):
        assert len(BOUNDARY_SWEEP) == 216
        swept = {(s, k) for s, k, _ in BOUNDARY_SWEEP}
        assert swept == {(s, k) for s in cli.SCENARIOS
                         for k, _ in declared_scalars(cli._schema(s))}
        # the nested per-element form of every rate, and each flat rate
        # no output of the scenario reads
        assert len(RETIRED_SWEEP) == 205
        assert not swept & {(s, k) for s, k, _ in RETIRED_SWEEP}

    @pytest.mark.parametrize("scenario, key_path, value", BOUNDARY_SWEEP + RETIRED_SWEEP,
                             ids=[f"{s}:{k}={v:g}" for s, k, v in BOUNDARY_SWEEP + RETIRED_SWEEP])
    def test_runs_or_is_a_schema_error(self, tmp_path, capsys, scenario, key_path, value):
        config = write_config(tmp_path, scenario,
                              {**SWEEP_BASE[scenario], **nested(key_path, value)})
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
WALK = [(scenario, key_path) for scenario in sorted(cli.SCENARIOS)
        for key_path, _ in cli._flat(cli._schema(scenario))]


def walk_base(scenario: str) -> dict:
    return {k: v for k, v in WALK_BASE.items() if k in cli._schema(scenario)}


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
                                cli._schema(scenario))
        params = walk_base(scenario)
        value = moved(spec, params.get(key_path, spec.default))
        assert data_hashes(tmp_path, scenario, {**params, **nested(key_path, value)}) \
            != base_hashes(scenario)
