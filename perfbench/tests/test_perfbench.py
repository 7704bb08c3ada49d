"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import checker  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TOL = checker.Tolerances.load(os.path.join(ROOT, "perfbench", "tolerances.json"))
SYNTHETIC_TOL = checker.Tolerances({
    "default": {"rtol": 1e-9, "atol": 1e-12},
    "rules": [{"match": "synthetic/shots.csv:*", "rtol": 1e-12, "atol": 1e-12}],
})


def _read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# config generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_config_generator_is_deterministic_per_seed(tmp_path, workload):
    a = workloads.generate(workload, 21, str(tmp_path / "a"), "out")
    b = workloads.generate(workload, 21, str(tmp_path / "b"), "out")
    c = workloads.generate(workload, 22, str(tmp_path / "c"), "out")
    assert [_read(p) for _, p, _ in a] == [_read(p) for _, p, _ in b]
    assert [_read(p) for _, p, _ in a] != [_read(p) for _, p, _ in c]
    import yaml
    cfg = yaml.safe_load(_read(a[0][1]))
    assert cfg["seed"] == 21 % workloads.SEED_POOL
    assert cfg["output"] == f"out/{a[0][0]}"


def test_config_seed_rejects_negative_seed():
    with pytest.raises(ValueError):
        workloads.config_seed(-1)


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == metrics.END_TO_END
    assert declared_layer == metrics.per_layer_units()
    for name in list(declared_e2e) + list(declared_layer) + [w["name"] for w in spec["workloads"]]:
        assert metrics.NAME_RE.match(name), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------------

def _write_outputs(directory, rows=10, big=6000):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "table.csv"), "w") as fh:
        fh.write("t_s,p,label\n")
        for i in range(rows):
            fh.write(f"{i * 0.1!r},{0.5 + i * 1e-3!r},g\n")
    with open(os.path.join(directory, "shots.csv"), "w") as fh:
        fh.write("I,label\n")
        for i in range(big):
            fh.write(f"{((i * 7919) % 1000) / 997!r},e\n")
    with open(os.path.join(directory, "summary.json"), "w") as fh:
        json.dump({"a": 1.25, "nested": {"b": [0.5, 2.0]}, "flag": True, "kind": "x"}, fh)


def _edit(path, old, new):
    text = _read(path)
    assert old in text
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def test_checker_accepts_identical_outputs(tmp_path):
    _write_outputs(tmp_path)
    ref = checker.snapshot(str(tmp_path))
    assert "sketch" in ref["shots.csv"]["columns"][0]
    assert checker.compare(ref, str(tmp_path), "synthetic", SYNTHETIC_TOL) == []


@pytest.mark.parametrize("file, old, new", [
    ("table.csv", "0.503", "0.50300001"),            # one numeric cell
    ("table.csv", ",g\n", ",e\n"),                   # one label
    ("table.csv", "t_s,p", "t_s,q"),                 # header
    ("shots.csv", "\n0.5295887662988967,", "\n0.5295888662988967,"),  # one cell of a sketched column
    ("shots.csv", ",e\n", ",f\n"),                   # one label of a long column
    ("summary.json", "1.25", "1.2500001"),
    ("summary.json", "true", "false"),
    ("summary.json", '"x"', '"y"'),
])
def test_checker_rejects_perturbed_output(tmp_path, file, old, new):
    _write_outputs(tmp_path)
    ref = checker.snapshot(str(tmp_path))
    _edit(os.path.join(tmp_path, file), old, new)
    assert checker.compare(ref, str(tmp_path), "synthetic", SYNTHETIC_TOL)


def test_checker_admits_round_off_in_sketched_column(tmp_path):
    _write_outputs(tmp_path)
    ref = checker.snapshot(str(tmp_path))
    _edit(os.path.join(tmp_path, "shots.csv"), "\n0.5295887662988967,", "\n0.5295887662988968,")
    assert checker.compare(ref, str(tmp_path), "synthetic", SYNTHETIC_TOL) == []


def test_checker_rejects_missing_and_extra_files(tmp_path):
    _write_outputs(tmp_path)
    ref = checker.snapshot(str(tmp_path))
    os.rename(tmp_path / "summary.json", tmp_path / "other.json")
    assert checker.compare(ref, str(tmp_path), "synthetic", SYNTHETIC_TOL)


def test_tolerance_rules_first_match_wins():
    assert TOL.lookup("cz-chevron/cz_chevron.csv:p_ee_fd5e8") == (0.0, 1e-4)
    assert TOL.lookup("leakage-rb/leakage_rb_fit.json:a2_closed_forms.a2_leak") == (1e-9, 1e-12)
    assert TOL.lookup("leakage-rb/leakage_rb_fit.json:lambda0") == (1e-6, 1e-12)
    assert TOL.lookup("chi-map/chi_map.csv:delta_drive_hz") == TOL.default


def _run_scenario(scenario, params, out_dir, seed=3, traced=False):
    import couplersim.cli as cli
    config = os.path.join(os.path.dirname(out_dir), f"{os.path.basename(out_dir)}.yaml")
    with open(config, "w") as fh:
        fh.write(workloads.config_text(scenario, params, seed, out_dir))
    if traced:
        t = tracer.Tracer()
        with t:
            cli.run_config(config)
        return t
    cli.run_config(config)
    return None


def test_committed_reference_matches_program_and_rejects_perturbation(tmp_path):
    out = str(tmp_path / "reset-metrics")
    _run_scenario("reset-metrics", {}, out)
    ref = checker.load_reference(checker.reference_path(run.REFERENCE, "reset-metrics", None))
    assert checker.compare(ref, out, "reset-metrics", TOL) == []
    path = os.path.join(out, "reset_metrics.json")
    data = json.loads(_read(path))
    data["n_th"] *= 1.0 + 1e-6
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert checker.compare(ref, out, "reset-metrics", TOL)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        leaf_w()
        clock.now += 1.0

    def outer():
        clock.now += 3.0
        inner_w()
        inner_w()
        clock.now += 0.5

    leaf_w = t.wrap("kernel.leaf", leaf)
    inner_w = t.wrap("mod.inner", inner)
    outer_w = t.wrap("mod.outer", outer)
    outer_w()

    agg = tracer.aggregate(t.spans)
    assert agg["kernel.leaf"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert agg["mod.inner"] == {"calls": 2, "s": 8.0, "self_s": 4.0}
    assert agg["mod.outer"] == {"calls": 1, "s": 11.5, "self_s": 3.5}
    layers = tracer.layer_totals(t.spans)
    assert layers["mod"] == {"calls": 3, "s": 11.5, "self_s": 7.5}
    assert layers["kernel"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_recursive_span_is_not_counted_twice():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def rec(n):
        clock.now += 1.0
        if n:
            rec_w(n - 1)

    rec_w = t.wrap("mod.rec", rec)
    rec_w(2)
    agg = tracer.aggregate(t.spans)
    assert agg["mod.rec"] == {"calls": 3, "s": 3.0, "self_s": 3.0}


def test_tracer_patches_every_binding_and_restores_them():
    import couplersim.circuit as circuit
    import couplersim.cli as cli
    import couplersim.floquet as floquet
    import couplersim.numerics as numerics
    import couplersim.protocols as protocols
    import couplersim.rbsim as rbsim
    import numpy as np

    originals = (circuit.coupler_frequency, floquet.fourier_decompose, rbsim.expm,
                 np.einsum, np.linalg.eigh, numerics.least_squares)
    t = tracer.Tracer()
    with t:
        assert protocols.coupler_frequency is circuit.coupler_frequency
        assert floquet.coupler_frequency is circuit.coupler_frequency
        assert circuit.coupler_frequency is not originals[0]
        assert cli.fourier_decompose is floquet.fourier_decompose is not originals[1]
        assert rbsim.expm is numerics.expm is not originals[2]
        assert np.einsum is not originals[3] and np.linalg.eigh is not originals[4]
        assert numerics.least_squares is not originals[5]
    assert (circuit.coupler_frequency, floquet.fourier_decompose, rbsim.expm,
            np.einsum, np.linalg.eigh, numerics.least_squares) == originals
    assert protocols.coupler_frequency is originals[0]
    assert cli.fourier_decompose is originals[1]


def test_removed_function_is_reported_absent(monkeypatch):
    import couplersim.rbsim as rbsim
    monkeypatch.delattr(rbsim, "monte_carlo_rb")
    t = tracer.Tracer()
    with t:
        pass
    values = metrics.trace_values(t.spans, t.counters, t.wrapped)
    assert values["rbsim.monte_carlo_rb.s"] is None
    assert values["rbsim.monte_carlo_rb.self_s"] is None
    assert values["rbsim.fit_rb.s"] == 0
    assert set(values) | set(metrics.OUTER_METRICS) == set(metrics.per_layer_units())


SMALL_RUNS = [
    ("leakage-rb", {"n_randomizations": 3, "n_cl_grid": [1, 2, 4, 8, 16, 32]}),
    ("readout-shots", {"n_shots": 1200}),
    ("floquet-report", {"n_amplitudes": 5}),
    ("lr-dynamics", {"n_points": 21}),
]


def test_traced_and_untraced_runs_write_identical_data_files(tmp_path):
    for scenario, params in SMALL_RUNS:
        plain = str(tmp_path / f"{scenario}-plain")
        traced = str(tmp_path / f"{scenario}-traced")
        _run_scenario(scenario, params, plain)
        t = _run_scenario(scenario, params, traced, traced=True)
        assert checker.digest(plain) == checker.digest(traced), scenario
        values = metrics.trace_values(t.spans, t.counters, t.wrapped)
        assert values["cli.run_config.self_s"] > 0
        if scenario == "leakage-rb":
            assert values["kernel.einsum.calls"] > 0
            assert values["kernel.expm.calls"] > 0
            assert values["numerics.least_squares.nfev"] > 0
        if scenario == "floquet-report":
            assert values["floquet.fourier_decompose.calls"] > 0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:       500 |        700 |   scipy.integrate",
        "import time:        50 |       2000 | couplersim",
        "import time:        20 |        300 | couplersim.cli",
        "import time:        10 |         10 |   couplersim.helper",
    ])
    cumulative, package = run.parse_importtime(text)
    assert cumulative["scipy.integrate"] == pytest.approx(700e-6)
    assert package == pytest.approx(2300e-6)
