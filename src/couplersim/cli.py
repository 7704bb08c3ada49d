"""Scenario runner.

Loads a YAML configuration, executes one named scenario and writes CSV data
tables plus JSON summaries and a run manifest.  Identical (config, seed)
pairs reproduce byte-identical data files: floats are serialised with 17
significant digits and all randomness flows from the config seed.

Each ``SCENARIOS`` entry declares its parameter schema once, key ->
``_Param`` (default, interval, choices).  ``validate`` and ``run`` parse a
config with it (``_parse_params``: defaults, conversion, unknown keys and
ranges), ``list`` prints it, and the runners index ``ctx.params[key]``.
Each scenario declares only the decay rates its outputs read, as flat keys
such as ``rates.gamma1``; ``ctx.rates`` holds the table values of the rest,
which nothing reads.

A runner (``_run_*``) is pure: it opens no file and returns an ordered
``{file name: content}`` mapping, the content either a ``(header, columns)``
pair for a CSV table (a scalar fills its column) or a mapping for JSON.
``run_config`` alone encodes (``_encode``), writes atomically and hashes
each file and lists them in the manifest in the runner's order, so a runner
that raises writes nothing.

Exit codes: 0 success, 2 schema violation, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import yaml

from . import __version__, dynamics, presets, protocols, rbsim
from .circuit import DecayRates
from .floquet import (
    ValidityWarning,
    chi_shift,
    derivative_series,
    effective_coupling,
    fourier_decompose,
    k2_closed_forms,
    schrieffer_wolff_correction,
    transition_manifold,
)
from .numerics import RngStream


class ConfigError(Exception):
    """Schema or range violation in a scenario configuration."""


#: rows the CSV encoder formats per pass; bounds its transient cell lists
_CSV_CHUNK_ROWS = 256


def _cells(values: np.ndarray) -> list:
    """CSV cells of a column: float64 with 17 significant digits, anything
    else through ``str``, quoted where the csv module quotes (excel dialect,
    ``"\\n"`` line ends)."""
    if values.dtype == np.float64:
        return list(map("{:.17g}".format, values.tolist()))
    return ['"' + c.replace('"', '""') + '"' if {",", '"', "\n"} & set(c) else c
            for c in map(str, values.tolist())]


def _encode_csv(header: list, columns: list) -> bytes:
    """A CSV table from its columns; a scalar fills its whole column.  The
    rows are formatted in chunks so the cell lists stay small."""
    columns = [np.asarray(c) for c in columns]
    n = next((len(c) for c in columns if c.ndim), 1)
    for name, c in zip(header, columns):
        if c.ndim and len(c) != n:
            raise ValueError(f"CSV column {name!r} has {len(c)} rows, expected {n}")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    for start in range(0, n, _CSV_CHUNK_ROWS):
        m = min(n - start, _CSV_CHUNK_ROWS)
        cells = [_cells(c[start:start + m]) if c.ndim else _cells(c.reshape(1)) * m
                 for c in columns]
        buf.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return buf.getvalue().encode()


def _encode(content) -> bytes:
    """The bytes of one output file: a ``(header, columns)`` pair is a CSV
    table, a mapping a JSON document (sorted keys, two-space indent)."""
    if isinstance(content, tuple):
        return _encode_csv(*content)
    return (json.dumps(_jsonable(content), indent=2, sort_keys=True) + "\n").encode()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# parameter schema
# ---------------------------------------------------------------------------

def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _within(interval: str, x) -> bool:
    """``x`` lies in ``interval``, written like ``"(0, 0.5]"`` or ``"[1, inf)"``."""
    lo, hi = (float(v) for v in interval[1:-1].split(","))
    return ((lo < x if interval[0] == "(" else lo <= x)
            and (x < hi if interval[-1] == ")" else x <= hi))


@dataclass(frozen=True)
class _Param:
    """A scenario parameter, typed by its default: a tuple default reads a
    list of its element type, a ``None`` default reads ``kind``.  ``whole``
    is a ``(predicate, requirement)`` check on a converted list as a whole."""

    default: object
    interval: str = "(-inf, inf)"
    length: tuple = (1, math.inf)   # entry count of a list
    choices: tuple = ()             # admissible str values
    kind: type = None
    whole: tuple = (lambda items: True, "")
    note: str = ""                  # what the interval protects, for its error


#: a ``whole`` check: no entry repeats (entries name output columns or rows)
_DISTINCT = (lambda items: len(set(items)) == len(items), "entries must be distinct")


def _convert(spec: _Param, value, path: str, kind: type = None):
    """``value`` checked against ``spec`` and converted as ``float``, ``int``
    and ``bool`` convert it (PyYAML reads ``2e-6`` as a string)."""
    kind = kind or spec.kind or type(spec.default)
    if kind is tuple:
        lo, hi = spec.length
        _require(isinstance(value, (list, tuple)) and lo <= len(value) <= hi, path,
                 f"must be a list of length {lo if lo == hi else f'>= {lo}'}, got {value!r}")
        items = tuple(_convert(spec, v, f"{path}[{i}]", type(spec.default[0]))
                      for i, v in enumerate(value))
        check, requirement = spec.whole
        _require(check(items), path, f"{requirement}, got {value!r}")
        return items
    if kind in (str, bool):
        choices = (True, False) if kind is bool else spec.choices
        # type check first: 1 and 1.0 compare equal to True
        _require(type(value) is kind and value in choices, path,
                 f"must be one of {', '.join(map(str, choices))}, got {value!r}")
        return value
    try:
        x = kind(value)
        ok = (not isinstance(value, bool) and math.isfinite(x)
              and (kind is float or x == float(value)))
    except (TypeError, ValueError, OverflowError):
        ok = False
    _require(ok, path, f"must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    _require(_within(spec.interval, x), path,
             f"must lie in {spec.interval}{spec.note and f' ({spec.note})'}, got {value!r}")
    return x


def _parse_params(schema: dict, given, path: str = "params") -> dict:
    """The parameters of ``schema``: defaults filled in, given values
    converted and checked, unknown keys rejected; errors name the key path."""
    given = {} if given is None else given
    _require(isinstance(given, dict), path, f"must be a mapping, got {given!r}")
    for key in given:
        _require(key in schema, f"{path}.{key}",
                 f"unknown key; expected one of {', '.join(schema)}")
    return {key: _parse_params(spec, given.get(key), f"{path}.{key}") if isinstance(spec, dict)
            else _convert(spec, given[key], f"{path}.{key}") if key in given else spec.default
            for key, spec in schema.items()}


def _flat(schema: dict, prefix: str = ""):
    """``(key path, default)`` of every declared parameter."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from _flat(spec, f"{prefix}{key}.")
        else:
            yield prefix + key, spec.default


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    name: str
    seed: int
    out_dir: str
    params: dict
    rates: DecayRates | None  # None for scenarios without ``rates``

    def stream(self, stream_id: int = 0) -> RngStream:
        return RngStream(seed=self.seed, stream_id=stream_id)


def load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be a mapping")
    return cfg


#: the config ``seed`` and the ``--seed`` override
_SEED = _Param(0, "[0, inf)")


def _checked(cfg: dict) -> tuple[RunContext, list]:
    """The run context of a config (every value checked, every default
    filled in) and its validity warnings."""
    top_level = ("scenario", "seed", "output", "params")
    for key in cfg:
        _require(key in top_level, str(key),
                 f"unknown key; expected one of {', '.join(top_level)}")
    _require("scenario" in cfg, "scenario", "missing required key")
    name = cfg["scenario"]
    _require(isinstance(name, str) and name in SCENARIOS, "scenario",
             f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    output = cfg.get("output", "out")
    _require(isinstance(output, str), "output", "must be a string")
    params = _parse_params(SCENARIOS[name][2], cfg.get("params"))
    rates = replace(presets.table_decay_rates(), **params["rates"]) if "rates" in params else None
    ctx = RunContext(name, _convert(_SEED, cfg.get("seed", 0), "seed"), output, params, rates)
    notes = []
    if name == "cz-chevron":
        lowest = protocols.cz_drive_frequencies(presets.table_circuit(), params["omega_d_span"],
                                                params["n_omega"]).min()
        _require(lowest > 0, "params.omega_d_span", f"reaches drive frequency {lowest:.6g} Hz <= 0")
        _require(params["max_duration"] >= 1.0 / lowest, "params.max_duration",
                 f"shorter than one period ({1.0 / lowest:.6g} s) of the lowest drive frequency")
    if name == "floquet-report":
        _, _, man, spectrum, in_window = _floquet_drive(params)
        if not in_window:
            notes.append(
                f"params.drive.a_d: |D_{man.k}| = {abs(spectrum.coefficient(man.k)):.3e} Hz "
                f"exceeds k*omega_D/2; the leading-order coupling formula is out of "
                f"its validity window (warning)")
    return ctx, notes


def validate_config(cfg: dict) -> list:
    """Schema and physical-range checks; returns warning diagnostics."""
    return _checked(cfg)[1]


def build_context(cfg: dict, seed_override=None, out_override=None) -> RunContext:
    ctx, notes = _checked(cfg)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if seed_override is not None:
        ctx.seed = _convert(_SEED, seed_override, "--seed")
    ctx.out_dir = out_override or ctx.out_dir
    return ctx


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _run_reset_dynamics(ctx: RunContext) -> dict:
    p = ctx.params
    g_list = p["g_tilde"]
    rates = ctx.rates
    t = np.linspace(0.0, p["duration"], p["n_points"])
    cols = [t]
    header = ["t_s"]
    for g in g_list:
        cols.append(dynamics.damped_swap(t, g, rates.gamma1, rates.kappa_r)[0])
        header.append(f"p_e_g{g:.17g}")
    env = presets.RESET_PULSE
    cols.append(dynamics.pulsed_swap_population(t, env, g_list[-1],
                                                rates.gamma1, rates.kappa_r))
    header.append("p_e_pulsed_strongest")
    return {"reset_dynamics.csv": (header, cols)}


def _run_reset_metrics(ctx: RunContext) -> dict:
    p = ctx.params
    metrics = protocols.reset_metrics(p["p_id"], p["p_pi"], p["p_id_r"], p["p_pi_r"])
    budget = protocols.thermal_budget(p["p_id"], ctx.rates.gamma1, p["omega_q"],
                                      p["omega_r"], p["tau_r"], p["tau_m"])
    return {"reset_metrics.json": {
        **metrics,
        "temperature_idle_k": protocols.population_to_temperature(p["p_id"], p["omega_q"]),
        "temperature_reset_k": protocols.population_to_temperature(p["p_id_r"], p["omega_q"]),
        "n_th": budget.n_th,
        "n_up": budget.n_up,
        "floor": budget.floor,
        "kappa_01_hz": budget.kappa_01,
    }}


def _run_lr_dynamics(ctx: RunContext) -> dict:
    p = ctx.params
    g = p["g_tilde"]
    t = np.linspace(0.0, p["duration"], p["n_points"])
    pop = dynamics.lr_three_level_populations(t, g, ctx.rates)
    header = ["t_s", "p_g", "p_e", "p_f", "p_r"]
    return {
        "lr_dynamics.csv": (header, [t] + [getattr(pop, key) for key in header[1:]]),
        "lr_summary.json": {
            "g_tilde_hz": g,
            "swap_time_s": dynamics.lr_swap_time(g, ctx.rates),
        },
    }


#: ``RBScenario`` fields and their defaults (``MISSING`` for ``l_cl``)
_RB_FIELDS = {f.name: f.default for f in fields(rbsim.RBScenario)}


def _rb_scenario(ctx: RunContext) -> rbsim.RBScenario:
    """The scenario of the declared ``RBScenario`` parameters; undeclared
    fields keep their dataclass defaults."""
    declared = {k: v for k, v in ctx.params.items() if k in _RB_FIELDS and k != "rates"}
    return rbsim.RBScenario(rates=ctx.rates, **declared)


def _run_leakage_rb(ctx: RunContext) -> dict:
    p = ctx.params
    scenario = _rb_scenario(ctx)
    curves = rbsim.monte_carlo_rb(scenario, ctx.stream(), n_randomizations=p["n_randomizations"])
    fit = rbsim.fit_rb(curves.n_cl, curves.p_g_mean, curves.p_f_mean)
    forms = rbsim.a2_closed_forms(scenario)
    models = rbsim.error_models(scenario)
    curve_table = (["n_cl", "p_g_mean", "p_g_std", "p_f_mean", "p_f_std"],
                   [curves.n_cl, curves.p_g_mean, curves.p_g_std,
                    curves.p_f_mean, curves.p_f_std])
    return {"leakage_rb.csv": curve_table, "leakage_rb_fit.json": {
        "a0": fit.a0, "b0": fit.b0, "lambda0": fit.lambda0,
        "a2": fit.a2, "b2": fit.b2, "lambda2": fit.lambda2,
        "epsilon": fit.epsilon, "l2": fit.l2,
        "degenerate": fit.degenerate, "converged": fit.converged,
        "a2_closed_forms": {
            "a2_leak": forms.a2_leak,
            "a2_lr_full": forms.a2_lr_full,
            "a2_lr_simplified": forms.a2_lr_simplified,
        },
        "error_models": {
            "eps_ref": models.eps_ref, "eps_leak": models.eps_leak,
            "eps_lr": models.eps_lr, "breakeven_l": models.breakeven_l,
        },
    }}


def _run_periodic_lr(ctx: RunContext) -> dict:
    """Rate-equation P_f traces (:func:`rbsim.periodic_lr_trace`), recovery
    every N Cliffords.  ``max_p_f_every_N`` is therefore the incoherent
    limit (see the :mod:`couplersim.rbsim` docstring)."""
    n_max = ctx.params["n_max"]
    base = _rb_scenario(ctx)
    header = ["n_cl"]
    columns = [np.arange(n_max + 1)]
    summary = {}
    for n_lr in ctx.params["n_lr_list"]:
        _, trace = rbsim.periodic_lr_trace(replace(base, n_lr=n_lr, n_cl_grid=(n_max,)))
        columns.append(trace)
        header.append(f"p_f_every_{n_lr}")
        summary[f"max_p_f_every_{n_lr}"] = float(trace.max())
        summary[f"bound_every_{n_lr}"] = n_lr * base.l_cl / 2.0
    return {"periodic_lr.csv": (header, columns), "periodic_lr_summary.json": summary}


def _run_chi_map(ctx: RunContext) -> dict:
    p = ctx.params
    span = p["delta_span"]
    delta = np.linspace(-span, span, p["n_points"])
    header = ["delta_drive_hz"] + [f"two_chi_g{g:.17g}" for g in p["g_tilde"]]
    columns = [delta] + [[chi_shift(g, d) for d in delta] for g in p["g_tilde"]]
    return {"chi_map.csv": (header, columns)}


def _run_readout_shots(ctx: RunContext) -> dict:
    p = ctx.params
    n_shots, sep, tau_meas, sigma = p["n_shots"], p["separation_sigma"], p["tau_meas"], 1.0
    centers = np.array([[0.0, 0.0], [sep, 0.0], [sep / 2.0, 0.9 * sep]]) * sigma
    gamma_1 = ctx.rates.gamma1
    decay = (gamma_1, tau_meas) if p["include_decay"] else None

    cal = {}
    pops = {"g": (1, 0, 0), "e": (0, 1, 0), "f": (0, 0, 1)}
    for i, label in enumerate(protocols.STATE_LABELS):
        cal[label] = protocols.generate_shots(
            pops[label], centers, sigma, n_shots, ctx.stream(i), label=label,
            decay=decay if label == "e" else None,
        )
    clf = protocols.calibrate_classifier(cal["g"], cal["e"], cal["f"])
    fid = protocols.assignment_fidelity(cal["g"], cal["e"], clf,
                                        gamma_1=gamma_1, tau_meas=tau_meas)
    mixed = protocols.generate_shots(
        p["experiment_populations"], centers, sigma, n_shots, ctx.stream(7), label="experiment")
    est = protocols.estimate_populations(clf, mixed)

    return {
        **{f"shots_{label}.csv": (["I", "Q", "label"],
                                  [shots.iq[:, 0], shots.iq[:, 1], shots.label])
           for label, shots in {**cal, "experiment": mixed}.items()},
        "classifier.json": {"bins": protocols.CLASSIFIER_BINS, **asdict(clf)},
        "readout_metrics.json": {
            "f_meas": fid.f_meas,
            "f_overlap": fid.f_overlap,
            "f_decay": fid.f_decay,
            "f_budget": fid.f_budget,
            "estimated_populations": est.populations,
            "clamp_correction": est.clamp_correction,
        },
    }


def _run_cz_chevron(ctx: RunContext) -> dict:
    # the schema keys are the keyword arguments of cz_conditional_phase
    scan = protocols.cz_conditional_phase(presets.table_circuit(), presets.cz_drive(),
                                          **ctx.params)
    return {
        "cz_chevron.csv": (["t_s"] + [f"p_ee_fd{w:.17g}" for w in scan.omega_d],
                           [scan.times, *scan.p_ee]),
        "cz_phase.csv": (["omega_d_hz", "duration_s", "phase_rad", "valid"],
                         [scan.omega_d, scan.duration, scan.phase, scan.valid.astype(int)]),
        "cz_operating_point.json": {
            "omega_d_hz": scan.omega_d_star,
            "tau_cz_s": scan.tau_cz,
            "conditional_phase_rad": scan.phase_star,
        },
    }


_FIXTURE_DRIVES = {"reset": presets.reset_drive, "lr": presets.lr_drive,
                   "readout": presets.readout_drive, "cz": presets.cz_drive}


def _floquet_drive(params: dict) -> tuple:
    """Circuit, drive, manifold and spectrum of a floquet-report config (the
    fixture drive of ``kind``, at amplitude ``drive.a_d`` when one is given)
    and whether |D_k| <= k*omega_D/2, the leading-order coupling window."""
    circuit = presets.table_circuit()
    drive = _FIXTURE_DRIVES[params["kind"]]()
    if params["drive"]["a_d"] is not None:
        drive = replace(drive, a_d=params["drive"]["a_d"])
    man = transition_manifold(circuit, params["kind"])
    spectrum = fourier_decompose(drive, circuit.coupler)
    in_window = bool(abs(spectrum.coefficient(man.k)) <= man.k * drive.omega_d / 2)
    return circuit, drive, man, spectrum, in_window


def _run_floquet_report(ctx: RunContext) -> dict:
    circuit, drive, man, spectrum, in_window = _floquet_drive(ctx.params)
    report = {
        "kind": ctx.params["kind"],
        "phi_dc_rad": drive.phi_dc,
        "a_d_rad": drive.a_d,
        "omega_d_hz": drive.omega_d,
        "omega_bar_c_hz": spectrum.omega_bar_c,
        "d_m_hz": list(spectrum.d_m),
        "series_d_m_hz": list(derivative_series(drive, circuit.coupler).d_m),
        "validity_ok": in_window,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        if man.k == 2:
            frame = k2_closed_forms(man, drive, spectrum)
            report.update({
                "omega_tilde_a_hz": frame.omega_tilde_a,
                "omega_tilde_b_hz": frame.omega_tilde_b,
                "delta_tilde_c_hz": frame.delta_tilde_c,
                "g_tilde_ab_hz": frame.g_tilde_ab,
                "g_tilde_ac_hz": frame.g_tilde_ac,
                "g_tilde_bc_hz": frame.g_tilde_bc,
                "g_tilde_prime_ab_hz": schrieffer_wolff_correction(frame),
            })
        else:
            report["g_tilde_ab_hz"] = effective_coupling(
                man.g_ac, man.g_bc, man.k, drive.omega_d, spectrum)

        a_grid = np.linspace(0.0, max(drive.a_d, 1e-3), ctx.params["n_amplitudes"])
        rows = []
        for a in a_grid:
            d2 = replace(drive, a_d=float(a))
            spec_a = fourier_decompose(d2, circuit.coupler)
            g_eq = effective_coupling(man.g_ac, man.g_bc, man.k, drive.omega_d, spec_a)
            if man.k == 2:
                fr = k2_closed_forms(man, d2, spec_a)
                rows.append((a, g_eq, fr.g_tilde_ab, schrieffer_wolff_correction(fr)))
            else:
                rows.append((a, g_eq, g_eq, g_eq))

    return {"floquet_report.json": report,
            "coupling_vs_amplitude.csv": (
                ["a_d_rad", "g_leading_hz", "g_tilde_ab_hz", "g_tilde_prime_ab_hz"],
                list(zip(*rows)))}


def _rates(*keys: str) -> dict:
    """Schema of the named ``DecayRates`` fields, the table's as defaults."""
    table = presets.table_decay_rates()
    return {key: _Param(getattr(table, key), "[0, inf)") for key in keys}


#: ``n_points``: one output row per point, at most a million
_POINTS = {"interval": "[1, 1e6]", "note": "one output row per point"}

#: RB physics of leakage-rb and periodic-lr
_RB_PARAMS = {
    "l_cl": _Param(0.02, "[0, 1]"), "f_lr": _Param(_RB_FIELDS["f_lr"], "[0, 1]"),
    **{key: _Param(_RB_FIELDS[key], "[0, inf)") for key in ("tau_cl", "tau_leak", "tau_lr")},
}

#: scenario -> (runner, paper figure, parameter schema)
SCENARIOS = {
    "reset-dynamics": (_run_reset_dynamics, "Fig. 2(a)", {
        "g_tilde": _Param((0.0, 0.5e6, 2.07e6), whole=_DISTINCT),
        "duration": _Param(0.6e-6, "(0, inf)"), "n_points": _Param(301, **_POINTS),
        "rates": _rates("gamma1", "kappa_r")}),
    "reset-metrics": (_run_reset_metrics, "Fig. 2(b)", {
        "p_id": _Param(0.0062, "(0, 0.5)"), "p_pi": _Param(0.88, "(0, 1]"),
        "p_id_r": _Param(0.00074, "(0, 0.5)"), "p_pi_r": _Param(0.0033, "[0, 1]"),
        "omega_q": _Param(3.83e9, "(0, inf)"), "omega_r": _Param(5.85e9, "(0, inf)"),
        "tau_r": _Param(150e-9, "[0, inf)"), "tau_m": _Param(2.3e-6, "[0, inf)"),
        "rates": _rates("gamma1")}),
    "lr-dynamics": (_run_lr_dynamics, "Fig. 6(a)", {
        "g_tilde": _Param(0.91e6), "duration": _Param(1.2e-6, "(0, inf)"),
        "n_points": _Param(301, **_POINTS), "rates": _rates("gamma1", "gamma_fe", "kappa_r")}),
    "leakage-rb": (_run_leakage_rb, "Fig. 3", {
        **_RB_PARAMS, "rates": _rates("gamma1", "gamma_phi", "gamma_fe", "kappa_r"),
        "n_lr": _Param(_RB_FIELDS["n_lr"], "[0, inf)"),
        "n_cl_grid": _Param(_RB_FIELDS["n_cl_grid"], "[0, inf)", length=(5, math.inf),
                            whole=_DISTINCT),
        # each Monte Carlo state holds about 8.6 kB of buffers plus its int64
        # Clifford draws, 16.6 kB at the default grid: the bound keeps a run
        # near 170 MB there (about 45 s at 4.3 us per state-cycle, the
        # rb-paper rate on one core)
        "n_randomizations": _Param(
            50, "[2, 1e4]", note="8.6 kB of state buffers plus max(n_cl_grid) int64 draws each")}),
    "periodic-lr": (_run_periodic_lr, "Fig. 7 (rate eq.)", {
        **_RB_PARAMS, "rates": _rates("gamma_fe", "kappa_r"),
        "n_lr_list": _Param((20, 10, 5, 1), "[0, inf)", whole=_DISTINCT),
        "n_max": _Param(200, "[1, inf)")}),
    "chi-map": (_run_chi_map, "Fig. 4(c)", {
        "g_tilde": _Param((0.06e6, 0.15e6, 0.41e6, 0.90e6, 1.50e6, 2.12e6, 2.50e6),
                          whole=_DISTINCT),
        "delta_span": _Param(16e6, "(0, inf)"), "n_points": _Param(161, **_POINTS)}),
    "readout-shots": (_run_readout_shots, "Fig. 4(d,e)", {
        "n_shots": _Param(20000, f"[{protocols.MIN_CALIBRATION_SHOTS}, inf)"),
        "separation_sigma": _Param(3.29, "(0, inf)"), "tau_meas": _Param(10e-6, "[0, inf)"),
        "include_decay": _Param(True),
        "experiment_populations": _Param(
            (0.5, 0.3, 0.2), "[0, 1]", length=(3, 3),
            whole=(lambda p: abs(sum(p) - 1.0) <= protocols.POPULATION_SUM_TOL, "must sum to 1")),
        "rates": _rates("gamma1")}),
    "cz-chevron": (_run_cz_chevron, "Fig. 8(a,b)", {
        "omega_d_span": _Param((-15e6, 15e6), length=(2, 2)), "n_omega": _Param(13, "[1, inf)"),
        "max_duration": _Param(1.2e-6, "(0, inf)"), "n_sub": _Param(1024, "[1, inf)")}),
    "floquet-report": (_run_floquet_report, "Fig. 4(c) couplings", {
        "kind": _Param("reset", choices=tuple(_FIXTURE_DRIVES)),
        "drive": {"a_d": _Param(None, "[0, inf)", kind=float)},  # None: the fixture's
        "n_amplitudes": _Param(41, "[1, inf)")}),
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_config(config_path: str, seed=None, out=None) -> dict:
    cfg = load_config(config_path)
    ctx = build_context(cfg, seed_override=seed, out_override=out)
    os.makedirs(ctx.out_dir, exist_ok=True)
    started = time.perf_counter()
    files = []
    for name, content in SCENARIOS[ctx.name][0](ctx).items():
        data = _encode(content)
        _atomic_write(os.path.join(ctx.out_dir, name), data)
        files.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
    canonical = json.dumps(_jsonable(cfg), sort_keys=True).encode()
    manifest = {
        "scenario": ctx.name,
        "config_hash": hashlib.sha256(canonical).hexdigest(),
        "tool_version": __version__,
        "seed": ctx.seed,
        "wall_time_s": time.perf_counter() - started,
        "files": files,
    }
    _atomic_write(os.path.join(ctx.out_dir, "manifest.json"), _encode(manifest))
    return manifest


def list_scenarios() -> str:
    width = max(len(n) for n in SCENARIOS)
    lines = [f"{'scenario':<{width}}  {'figure':<19}  parameters (key=default)"]
    for name in sorted(SCENARIOS):
        _, figure, schema = SCENARIOS[name]
        params = "  ".join(f"{key}={list(d) if isinstance(d, tuple) else d}"
                           for key, d in _flat(schema))
        lines.append(f"{name:<{width}}  {figure:<19}  {params}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="couplersim",
        description="Scenario runner for the parametric-coupler simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario configuration")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the output directory")

    p_val = sub.add_parser("validate", help="check a configuration without running it")
    p_val.add_argument("config")

    sub.add_parser("list", help="list available scenarios")

    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_scenarios())
        return 0

    try:
        if args.command == "validate":
            for note in validate_config(load_config(args.config)):
                print(f"warning: {note}")
            print("ok")
            return 0
        manifest = run_config(args.config, seed=args.seed, out=args.out)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # numerical failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
