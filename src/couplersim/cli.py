"""Scenario runner.

Loads a YAML configuration, executes one named scenario and writes CSV data
tables plus JSON summaries and a run manifest.  Identical (config, seed)
pairs reproduce byte-identical data files: floats are serialised with 17
significant digits and all randomness flows from the config seed.

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
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import __version__, dynamics, presets, protocols, rbsim
from .circuit import DecayRates
from .floquet import (
    DriveSpec,
    ValidityWarning,
    chi_shift,
    effective_coupling,
    fourier_decompose,
    k2_closed_forms,
    schrieffer_wolff_correction,
    transition_manifold,
)
from .numerics import RngStream


class ConfigError(Exception):
    """Schema or range violation in a scenario configuration."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, header: list, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _atomic_write(path, buf.getvalue().encode())


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    _atomic_write(path, (text + "\n").encode())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return float(format(f, ".17g")) if math.isfinite(f) else None
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
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    name: str
    seed: int
    out_dir: str
    params: dict
    rates: DecayRates

    def stream(self, stream_id: int = 0) -> RngStream:
        return RngStream(seed=self.seed, stream_id=stream_id)


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


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


def validate_config(cfg: dict) -> list:
    """Schema and physical-range checks; returns warning diagnostics."""
    notes = []
    _require("scenario" in cfg, "scenario", "missing required key")
    name = cfg["scenario"]
    _require(name in SCENARIOS, "scenario",
             f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    seed = cfg.get("seed", 0)
    _require(isinstance(seed, int) and seed >= 0, "seed", "must be a non-negative integer")
    _require(isinstance(cfg.get("output", "out"), str), "output", "must be a string")
    params = cfg.get("params", {}) or {}
    _require(isinstance(params, dict), "params", "must be a mapping")

    rates = params.get("rates", {}) or {}
    _require(isinstance(rates, dict), "params.rates", "must be a mapping")
    for key in ("gamma1", "gamma_phi", "kappa_r", "gamma_fe"):
        if key in rates:
            vals = rates[key].values() if isinstance(rates[key], dict) else [rates[key]]
            for v in vals:
                _require(isinstance(v, (int, float)) and v >= 0,
                         f"params.rates.{key}", "rates must be non-negative numbers")

    drive = params.get("drive", {}) or {}
    if drive:
        a_d = drive.get("a_d", 0.0)
        _require(isinstance(a_d, (int, float)) and a_d >= 0, "params.drive.a_d",
                 "must be a non-negative number")
        kind = drive.get("kind", "reset")
        _require(kind in ("reset", "lr", "readout", "cz"), "params.drive.kind",
                 "must be one of reset/lr/readout/cz")
        if a_d > 0:
            circuit = presets.table_circuit()
            man = transition_manifold(circuit, kind)
            spec = fourier_decompose(
                DriveSpec(phi_dc=drive.get("phi_dc", presets.PHI_DC), a_d=a_d,
                          omega_d=man.bare_drive_frequency, k=man.k),
                circuit.coupler,
            )
            d_k = spec.coefficient(man.k)
            if abs(d_k) > man.k * man.bare_drive_frequency / 2.0:
                notes.append(
                    f"params.drive.a_d: |D_{man.k}| = {abs(d_k):.3e} Hz exceeds "
                    f"k*omega_D/2; the leading-order coupling formula is out of "
                    f"its validity window (warning)"
                )

    if name == "cz-chevron":
        for key, convert in (("n_omega", int), ("n_sub", int), ("max_duration", float)):
            try:
                ok = key not in params or 0 < convert(params[key]) < math.inf
            except (TypeError, ValueError, OverflowError):
                ok = False
            _require(ok, f"params.{key}", "must be a positive number")
    return notes


def build_context(cfg: dict, seed_override=None, out_override=None) -> RunContext:
    notes = validate_config(cfg)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    rates_cfg = (cfg.get("params", {}) or {}).get("rates", {}) or {}
    base = presets.table_decay_rates()
    rates = DecayRates(
        gamma1={**base.gamma1, **rates_cfg.get("gamma1", {})},
        gamma_phi={**base.gamma_phi, **rates_cfg.get("gamma_phi", {})},
        kappa_r=rates_cfg.get("kappa_r", base.kappa_r),
        gamma_fe=rates_cfg.get("gamma_fe", base.gamma_fe),
    )
    return RunContext(
        name=cfg["scenario"],
        seed=int(seed_override if seed_override is not None else cfg.get("seed", 0)),
        out_dir=out_override or cfg.get("output", "out"),
        params=cfg.get("params", {}) or {},
        rates=rates,
    )


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _run_reset_dynamics(ctx: RunContext) -> list:
    p = ctx.params
    g_list = [float(g) for g in p.get("g_tilde", [0.0, 0.5e6, 2.07e6])]
    duration = float(p.get("duration", 0.6e-6))
    n_points = int(p.get("n_points", 301))
    rates = ctx.rates
    t = np.linspace(0.0, duration, n_points)
    cols = [t]
    header = ["t_s"]
    for g in g_list:
        cols.append(dynamics.damped_swap_population(t, g, rates.gamma1["Q1"], rates.kappa_r))
        header.append(f"p_e_g{_fmt(g)}")
    env = presets.RESET_PULSE
    cols.append(np.array([dynamics.pulsed_swap_population(ti, env, g_list[-1],
                                                          rates.gamma1["Q1"], rates.kappa_r)
                          for ti in t]))
    header.append("p_e_pulsed_strongest")
    path = os.path.join(ctx.out_dir, "reset_dynamics.csv")
    _write_csv(path, header, zip(*cols))
    return [path]


def _run_reset_metrics(ctx: RunContext) -> list:
    p = ctx.params
    p_id = float(p.get("p_id", 0.0062))
    p_pi = float(p.get("p_pi", 0.88))
    p_id_r = float(p.get("p_id_r", 0.00074))
    p_pi_r = float(p.get("p_pi_r", 0.0033))
    omega_q = float(p.get("omega_q", 3.83e9))
    omega_r = float(p.get("omega_r", 5.85e9))
    tau_r = float(p.get("tau_r", 150e-9))
    tau_m = float(p.get("tau_m", 2.3e-6))
    metrics = protocols.reset_metrics(p_id, p_pi, p_id_r, p_pi_r)
    budget = protocols.thermal_budget(p_id, ctx.rates.gamma1["Q1"], omega_q, omega_r,
                                      tau_r, tau_m)
    payload = {
        **metrics,
        "temperature_idle_k": protocols.population_to_temperature(p_id, omega_q),
        "temperature_reset_k": protocols.population_to_temperature(p_id_r, omega_q),
        "n_th": budget.n_th,
        "n_up": budget.n_up,
        "floor": budget.floor,
        "kappa_01_hz": budget.kappa_01,
    }
    path = os.path.join(ctx.out_dir, "reset_metrics.json")
    _write_json(path, payload)
    return [path]


def _run_lr_dynamics(ctx: RunContext) -> list:
    p = ctx.params
    g = float(p.get("g_tilde", 0.91e6))
    duration = float(p.get("duration", 1.2e-6))
    n_points = int(p.get("n_points", 301))
    t = np.linspace(0.0, duration, n_points)
    rows = []
    for ti in t:
        pop = dynamics.lr_three_level_populations(ti, g, ctx.rates)
        rows.append((ti, pop.p_g, pop.p_e, pop.p_f, pop.p_r))
    csv_path = os.path.join(ctx.out_dir, "lr_dynamics.csv")
    _write_csv(csv_path, ["t_s", "p_g", "p_e", "p_f", "p_r"], rows)
    json_path = os.path.join(ctx.out_dir, "lr_summary.json")
    _write_json(json_path, {
        "g_tilde_hz": g,
        "swap_time_s": dynamics.lr_swap_time(g, ctx.rates),
    })
    return [csv_path, json_path]


def _rb_scenario(ctx: RunContext) -> rbsim.RBScenario:
    p = ctx.params
    grid = tuple(int(n) for n in p.get("n_cl_grid", rbsim.DEFAULT_N_CL_GRID))
    return rbsim.RBScenario(
        l_cl=float(p.get("l_cl", 0.02)),
        rates=ctx.rates,
        tau_cl=float(p.get("tau_cl", 200e-9)),
        tau_leak=float(p.get("tau_leak", 100e-9)),
        tau_lr=float(p.get("tau_lr", 310e-9)),
        f_lr=float(p.get("f_lr", 0.985)),
        n_lr=int(p.get("n_lr", 1)),
        n_cl_grid=grid,
        shots_per_point=int(p.get("shots_per_point", 0)),
    )


def _run_leakage_rb(ctx: RunContext) -> list:
    p = ctx.params
    scenario = _rb_scenario(ctx)
    n_rand = int(p.get("n_randomizations", 50))
    with_lr = bool(p.get("with_lr", True))
    curves = rbsim.monte_carlo_rb(scenario, ctx.stream(), n_randomizations=n_rand,
                                  with_lr=with_lr)
    csv_path = os.path.join(ctx.out_dir, "leakage_rb.csv")
    _write_csv(csv_path, ["n_cl", "p_g_mean", "p_g_std", "p_f_mean", "p_f_std"],
               zip(curves.n_cl, curves.p_g_mean, curves.p_g_std,
                   curves.p_f_mean, curves.p_f_std))
    fit = rbsim.fit_rb(curves.n_cl, curves.p_g_mean, curves.p_f_mean)
    forms = rbsim.a2_closed_forms(scenario)
    models = rbsim.error_models(scenario)
    json_path = os.path.join(ctx.out_dir, "leakage_rb_fit.json")
    _write_json(json_path, {
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
    })
    return [csv_path, json_path]


def _run_periodic_lr(ctx: RunContext) -> list:
    p = ctx.params
    n_lr_list = [int(n) for n in p.get("n_lr_list", [20, 10, 5, 1])]
    n_max = int(p.get("n_max", 200))
    base = _rb_scenario(ctx)
    header = ["n_cl"]
    columns = [np.arange(n_max + 1)]
    summary = {}
    for n_lr in n_lr_list:
        _, trace = rbsim.periodic_lr_trace(replace(base, n_lr=n_lr, n_cl_grid=(n_max,)))
        columns.append(trace)
        header.append(f"p_f_every_{n_lr}")
        summary[f"max_p_f_every_{n_lr}"] = float(trace.max())
        summary[f"bound_every_{n_lr}"] = n_lr * base.l_cl / 2.0
    csv_path = os.path.join(ctx.out_dir, "periodic_lr.csv")
    _write_csv(csv_path, header, zip(*columns))
    json_path = os.path.join(ctx.out_dir, "periodic_lr_summary.json")
    _write_json(json_path, summary)
    return [csv_path, json_path]


def _run_chi_map(ctx: RunContext) -> list:
    p = ctx.params
    g_list = [float(g) for g in p.get(
        "g_tilde", [0.06e6, 0.15e6, 0.41e6, 0.90e6, 1.50e6, 2.12e6, 2.50e6])]
    span = float(p.get("delta_span", 16e6))
    n_points = int(p.get("n_points", 161))
    delta = np.linspace(-span, span, n_points)
    header = ["delta_drive_hz"] + [f"two_chi_g{_fmt(g)}" for g in g_list]
    columns = [delta] + [np.array([chi_shift(g, d) for d in delta]) for g in g_list]
    path = os.path.join(ctx.out_dir, "chi_map.csv")
    _write_csv(path, header, zip(*columns))
    return [path]


def _run_readout_shots(ctx: RunContext) -> list:
    p = ctx.params
    n_shots = int(p.get("n_shots", 20000))
    sigma = 1.0
    sep = float(p.get("separation_sigma", 3.29))
    tau_meas = float(p.get("tau_meas", 10e-6))
    centers = np.array([[0.0, 0.0], [sep, 0.0], [sep / 2.0, 0.9 * sep]]) * sigma
    gamma_1 = ctx.rates.gamma1["Q1"]
    decay = (gamma_1, tau_meas) if p.get("include_decay", True) else None

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
        tuple(p.get("experiment_populations", (0.5, 0.3, 0.2))),
        centers, sigma, n_shots, ctx.stream(7), label="experiment")
    est = protocols.estimate_populations(clf, mixed)

    files = []
    for label, shots in {**cal, "experiment": mixed}.items():
        path = os.path.join(ctx.out_dir, f"shots_{label}.csv")
        _write_csv(path, ["I", "Q", "label"],
                   ((iq[0], iq[1], shots.label) for iq in shots.iq))
        files.append(path)
    clf_path = os.path.join(ctx.out_dir, "classifier.json")
    _atomic_write(clf_path, (clf.to_json() + "\n").encode())
    files.append(clf_path)
    json_path = os.path.join(ctx.out_dir, "readout_metrics.json")
    _write_json(json_path, {
        "f_meas": fid.f_meas,
        "f_overlap": fid.f_overlap,
        "f_decay": fid.f_decay,
        "f_budget": fid.f_budget,
        "estimated_populations": est.populations,
        "clamp_correction": est.clamp_correction,
    })
    files.append(json_path)
    return files


def _run_cz_chevron(ctx: RunContext) -> list:
    p = ctx.params
    circuit = presets.table_circuit()
    drive = presets.cz_drive()
    span = p.get("omega_d_span", (-15e6, 15e6))
    scan = protocols.cz_conditional_phase(
        circuit, drive,
        omega_d_span=(float(span[0]), float(span[1])),
        n_omega=int(p.get("n_omega", 13)),
        max_duration=float(p.get("max_duration", 1.2e-6)),
        n_sub=int(p.get("n_sub", 1024)),
    )
    chevron_path = os.path.join(ctx.out_dir, "cz_chevron.csv")
    header = ["t_s"] + [f"p_ee_fd{_fmt(w)}" for w in scan.omega_d]
    _write_csv(chevron_path, header, zip(scan.times, *scan.p_ee))
    phase_path = os.path.join(ctx.out_dir, "cz_phase.csv")
    _write_csv(phase_path, ["omega_d_hz", "duration_s", "phase_rad", "valid"],
               zip(scan.omega_d, scan.duration, scan.phase, scan.valid.astype(int)))
    json_path = os.path.join(ctx.out_dir, "cz_operating_point.json")
    _write_json(json_path, {
        "omega_d_hz": scan.omega_d_star,
        "tau_cz_s": scan.tau_cz,
        "conditional_phase_rad": scan.phase_star,
    })
    return [chevron_path, phase_path, json_path]


def _run_floquet_report(ctx: RunContext) -> list:
    p = ctx.params
    kind = p.get("kind", "reset")
    circuit = presets.table_circuit()
    fixtures = {"reset": presets.reset_drive, "lr": presets.lr_drive,
                "readout": presets.readout_drive, "cz": presets.cz_drive}
    drive = fixtures[kind]()
    if "a_d" in p.get("drive", {}):
        drive = replace(drive, a_d=float(p["drive"]["a_d"]))
    man = transition_manifold(circuit, kind)
    spectrum = fourier_decompose(drive, circuit.coupler)
    report = {
        "kind": kind,
        "phi_dc_rad": drive.phi_dc,
        "a_d_rad": drive.a_d,
        "omega_d_hz": drive.omega_d,
        "omega_bar_c_hz": spectrum.omega_bar_c,
        "d_m_hz": list(spectrum.d_m),
        "series_d_m_hz": list(spectrum.series_d_m),
        "validity_ok": bool(abs(spectrum.coefficient(man.k)) <= man.k * drive.omega_d / 2),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        if man.k == 2:
            frame = k2_closed_forms(circuit, drive, man)
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

        a_grid = np.linspace(0.0, max(drive.a_d, 1e-3), int(p.get("n_amplitudes", 41)))
        rows = []
        for a in a_grid:
            d2 = DriveSpec(phi_dc=drive.phi_dc, a_d=float(a), omega_d=drive.omega_d, k=drive.k)
            spec_a = fourier_decompose(d2, circuit.coupler)
            g_eq = effective_coupling(man.g_ac, man.g_bc, man.k, drive.omega_d, spec_a)
            if man.k == 2:
                fr = k2_closed_forms(circuit, d2, man)
                rows.append((a, g_eq, fr.g_tilde_ab, schrieffer_wolff_correction(fr)))
            else:
                rows.append((a, g_eq, g_eq, g_eq))

    json_path = os.path.join(ctx.out_dir, "floquet_report.json")
    _write_json(json_path, report)
    csv_path = os.path.join(ctx.out_dir, "coupling_vs_amplitude.csv")
    _write_csv(csv_path, ["a_d_rad", "g_leading_hz", "g_tilde_ab_hz", "g_tilde_prime_ab_hz"], rows)
    return [json_path, csv_path]


SCENARIOS = {
    "reset-dynamics": (_run_reset_dynamics, "g_tilde[], duration, n_points", "Fig. 2(a)"),
    "reset-metrics": (_run_reset_metrics, "p_id, p_pi, p_id_r, p_pi_r, omega_q, omega_r, tau_r, tau_m", "Fig. 2(b)"),
    "lr-dynamics": (_run_lr_dynamics, "g_tilde, duration, n_points", "Fig. 6(a)"),
    "leakage-rb": (_run_leakage_rb, "l_cl, with_lr, n_randomizations, n_cl_grid, shots_per_point", "Fig. 3"),
    "periodic-lr": (_run_periodic_lr, "l_cl, n_lr_list[], n_max", "Fig. 7"),
    "chi-map": (_run_chi_map, "g_tilde[], delta_span, n_points", "Fig. 4(c)"),
    "readout-shots": (_run_readout_shots, "n_shots, separation_sigma, tau_meas, experiment_populations", "Fig. 4(d,e)"),
    "cz-chevron": (_run_cz_chevron, "omega_d_span, n_omega, max_duration, n_sub", "Fig. 8(a,b)"),
    "floquet-report": (_run_floquet_report, "kind, drive.a_d, n_amplitudes", "Fig. 4(c) couplings"),
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_config(config_path: str, seed=None, out=None) -> dict:
    cfg = load_config(config_path)
    ctx = build_context(cfg, seed_override=seed, out_override=out)
    os.makedirs(ctx.out_dir, exist_ok=True)
    started = time.time()
    runner = SCENARIOS[ctx.name][0]
    files = runner(ctx)
    canonical = json.dumps(_jsonable(cfg), sort_keys=True).encode()
    manifest = {
        "scenario": ctx.name,
        "config_hash": hashlib.sha256(canonical).hexdigest(),
        "tool_version": __version__,
        "seed": ctx.seed,
        "wall_time_s": time.time() - started,
        "files": [
            {"path": os.path.relpath(f, ctx.out_dir),
             "sha256": hashlib.sha256(open(f, "rb").read()).hexdigest()}
            for f in files
        ],
    }
    _write_json(os.path.join(ctx.out_dir, "manifest.json"), manifest)
    return manifest


def list_scenarios() -> str:
    width = max(len(n) for n in SCENARIOS)
    lines = [f"{'scenario':<{width}}  figure      parameters"]
    for name in sorted(SCENARIOS):
        _, params, figure = SCENARIOS[name]
        lines.append(f"{name:<{width}}  {figure:<10}  {params}")
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

    if args.command == "validate":
        try:
            cfg = load_config(args.config)
            notes = validate_config(cfg)
        except ConfigError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 2
        for note in notes:
            print(f"warning: {note}")
        print("ok")
        return 0

    try:
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
