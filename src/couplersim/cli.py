"""Scenario runner.

Loads a YAML configuration, executes one named scenario and writes CSV data
tables plus JSON summaries and a run manifest.  Identical (config, seed,
BLAS kernel) triples reproduce byte-identical data files: floats are
serialised with 17 significant digits and all randomness flows from the
config seed.  Across OpenBLAS kernels (``OPENBLAS_CORETYPE``),
reset-dynamics, reset-metrics, lr-dynamics, chi-map, floquet-report and
readout-shots' four shot tables keep their bytes; ``eigh`` and the fits
move the last digits of the cz-chevron files, ``leakage_rb*``,
``periodic_lr*``, ``classifier.json`` and ``readout_metrics.json``.

The CSV encoder (``_encode_csv``, which states why it is exact) writes
what the csv module would write for ``%.17g`` cells, byte for byte, with
no Python call per float64 cell in ``%.17g``'s fixed notation.

Each ``SCENARIOS`` entry declares its scenario once: runner, paper figure,
parameter schema (key -> ``_Param``: default, interval, choices) and check.
``validate`` and ``run`` parse a config with the schema (``_parse_params``:
defaults, conversion, unknown keys and ranges), then call the check.  It
states what the config costs in output cells, working bytes and estimated
seconds against the one ``_BUDGETS`` table (``_budget``), before anything
of that size is built: a cost beyond its budget is a schema error naming
the key that drives it.  It returns the scenario's notes, such as
floquet-report's when the fixture drive (``presets.fixture_drive``) leaves
the leading-order window (:func:`couplersim.floquet.in_coupling_window`);
the report records that as ``validity_ok``.  Its drive and each swept
amplitude get their couplings from one function.  ``list`` prints the schemas
and the runners index ``ctx.params[key]``.  A schema is built when its
scenario is first checked (``_schema``) and the runners import ``rbsim``
and ``protocols`` where they call them, so a process loads only what its
scenario runs (the import rule of :mod:`couplersim`).  A scenario declares
only the decay rates its outputs read, as flat keys such as
``rates.gamma1``; ``ctx.rates`` holds the table values of the rest.

A runner (``_run_*``) is pure: it opens no file and returns an ordered
``{file name: content}`` mapping, the content either a ``(header, columns)``
pair for a CSV table (a scalar fills its column) or a mapping for JSON.
``run_config`` alone encodes (``_encode``), writes atomically and hashes
each file and lists them in the manifest in the runner's order, so a runner
that raises writes nothing.  The manifest also records the seconds of each
stage (``stages``: ``run`` the runner, ``encode`` the encoding, ``write``
the writing and hashing of the data files), the check's ``notes`` (also
printed to stderr) and the environment of the run (``_environment``):
Python, numpy and, where loaded, scipy versions, the BLAS thread variables
as the caller set them, whether the package's one-thread limit took effect
and the OpenBLAS kernel that ran (``blas_core``).
Only ``wall_time_s`` and ``stages`` differ between reruns.

Exit codes: 0 success, 2 schema violation, 3 numerical failure, 4 I/O
failure; a run that shows its config at fault (readout shots no classifier
tells apart, a CZ window short of one full oscillation) is a schema
violation.  :func:`main` returns the code.  :func:`entry`, the entry point
of ``python -m couplersim.cli`` and of the ``couplersim`` script, exits the
process with it, after freezing the garbage collector.
"""

from __future__ import annotations

import argparse
import csv
import gc
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
from functools import cache

import numpy as np
import yaml

from . import OPENBLAS_CALLER, OPENBLAS_ONE_THREAD, __version__, dynamics, presets
from .circuit import DecayRates
from .floquet import (
    ValidityWarning,
    chi_shift,
    derivative_series,
    effective_coupling,
    fourier_decompose,
    in_coupling_window,
    k2_closed_forms,
    schrieffer_wolff_correction,
    transition_manifold,
)
from .numerics import RngStream


class ConfigError(Exception):
    """Schema or range violation in a scenario configuration."""


#: rows the CSV encoder lays out per pass; bounds its transient byte arrays
_CSV_CHUNK_ROWS = 4096

#: a float64 cell's slot: sign, the ``0.000`` prefix of E < 0, then the 17
#: digits, each but the last followed by a candidate decimal point
_FLOAT_SLOT = b"-0.000" + b"0." * 16 + b"0"


def _cells(values: np.ndarray) -> list:
    """CSV cells of a column: float64 with 17 significant digits, anything
    else through ``str``, quoted where the csv module quotes (excel dialect,
    ``"\\n"`` line ends)."""
    if values.dtype == np.float64:
        return list(map("{:.17g}".format, values.tolist()))
    return ['"' + c.replace('"', '""') + '"' if {",", '"', "\n"} & set(c) else c
            for c in map(str, values.tolist())]


@cache
def _digit_tables() -> tuple:
    """What the float64 fast path reads, built on its first use: the ASCII
    of each 4-digit group as one uint32; 10^0..10^22 (exact doubles) and
    their Veltkamp halves; and the kept bytes of a ``_FLOAT_SLOT`` by
    (sign, decimal exponent E + 4, significant digit count - 1)."""
    d = np.arange(10_000, dtype=np.uint16)
    chars = np.empty((10_000, 4), np.uint8)
    for i, unit in enumerate((1000, 100, 10, 1)):
        chars[:, i] = d // unit % 10 + ord("0")
    groups = chars.view(np.uint32).ravel()
    pow10 = np.array([float(10 ** k) for k in range(23)])
    keep = np.zeros((2, 21, 17, len(_FLOAT_SLOT)), bool)
    keep[1, ..., 0] = True                              # "-"
    for e in range(-4, 17):
        for nd in range(1, 18):
            row = keep[:, e + 4, nd - 1]
            if e < 0:
                row[:, 1:2 - e] = True                  # "0." and -E - 1 zeros
                row[:, 6:6 + 2 * nd:2] = True
            else:                                       # the integer part stays whole
                row[:, 6:6 + 2 * max(nd, e + 1):2] = True
                if nd > e + 1:
                    row[:, 7 + 2 * e] = True            # "."
    return groups, pow10, _split(pow10), keep.reshape(-1, len(_FLOAT_SLOT))


def _split(a: np.ndarray) -> tuple:
    """Veltkamp's split: ``a = hi + lo``, each half with at most 26 bits."""
    c = 134217729.0 * a                                 # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _rounded(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``x * 10^(16 - e)`` rounded half to even, as int64.  Dekker's
    two-product gives the product exactly as ``p + err``; where ``p >=
    2^53`` it is an even integer, so rounding ``err`` rounds the sum."""
    _, pow10, (ph, pl), _ = _digit_tables()
    k = 16 - e
    b, bh, bl = pow10[k], ph[k], pl[k]
    xh, xl = _split(x)
    p = x * b
    err = ((xh * bh - p) + xh * bl + xl * bh) + xl * bl
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _put_cells(chars: np.ndarray, keep: np.ndarray, cells: list, rows=slice(None)) -> None:
    """Write encoded ``cells`` into the slots of ``rows``, one per cell."""
    lens = np.fromiter(map(len, cells), np.intp, len(cells))
    width = int(lens.max(initial=1))
    chars[rows, :width] = np.array(cells, f"S{width}").view(np.uint8).reshape(-1, width)
    keep[rows] = np.arange(keep.shape[1]) < lens[:, None]


def _put_floats(chars: np.ndarray, keep: np.ndarray, values: np.ndarray) -> None:
    """Write float64 ``values`` into their slots (``_FLOAT_SLOT``) as
    ``%.17g`` writes them (why this is exact: :func:`_encode_csv`).  Cells
    in fixed notation (exponent E in [-4, 16]) get their digits from array
    arithmetic: E from ``log10``, fixed by one where the 17-digit integer
    ``_rounded`` leaves [10^16, 10^17); its 4-digit groups in ASCII; a keep
    mask by (sign, E, digit count).  Every other cell is formatted alone."""
    groups, _, _, masks = _digit_tables()
    a = np.abs(values)
    fast = (a >= 1e-5) & (a < 1e17)                     # nan, inf and zero fail both
    at = np.flatnonzero(fast)
    x = a[at]
    e = np.clip(np.floor(np.log10(x)), -5, 16).astype(np.intp)
    n = _rounded(x, e)
    e += (n >= 10 ** 17).astype(np.intp) - (n < 10 ** 16)
    ok = (e >= -4) & (e <= 16)
    redo = np.flatnonzero(ok & ((n < 10 ** 16) | (n >= 10 ** 17)))
    n[redo] = _rounded(x[redo], e[redo])
    ok &= (n >= 10 ** 16) & (n < 10 ** 17)
    fast[at[~ok]] = False
    at, e, n = at[ok], e[ok], n[ok]

    high, low = np.divmod(n, 10 ** 8)                  # 9 and 8 digits
    high, low = high.astype(np.uint32), low.astype(np.uint32)
    quads = np.empty((len(n), 5), np.uint32)
    quads[:, 0], rest = np.divmod(high, 10 ** 8)
    quads[:, 1], quads[:, 2] = np.divmod(rest, 10 ** 4)
    quads[:, 3], quads[:, 4] = np.divmod(low, 10 ** 4)
    digits = groups[quads].view(np.uint8).reshape(len(n), 20)[:, 3:]
    count = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    kept = masks[(values[at] < 0) * 357 + (e + 4) * 17 + count - 1]
    if len(at) == len(values):                          # slices write faster
        chars[:, 6::2], keep[:] = digits, kept
        return
    chars[at, 6::2], keep[at] = digits, kept
    slow = np.flatnonzero(~fast)
    _put_cells(chars, keep, [b"%.17g" % v for v in values[slow].tolist()], slow)


def _csv_rows(columns: list, rows: int) -> bytes:
    """``rows`` CSV lines of the columns (arrays of ``rows`` cells or
    scalars).  Each line is laid out in one fixed-width uint8 row: every
    cell in a slot wide enough for it, each slot followed by ``,`` or
    ``\\n``; a keep mask of the same shape picks the bytes of the text."""
    slots = []                                          # (template, cells to put)
    for c in columns:
        if not c.ndim:
            slots.append((_cells(c.reshape(1))[0].encode(), None))
        elif c.dtype == np.float64:
            slots.append((_FLOAT_SLOT, c))
        else:
            cells = [s.encode() for s in _cells(c)]
            slots.append((bytes(max(1, *map(len, cells))), cells))
    line = b",".join(template for template, _ in slots) + b"\n"
    chars = np.empty((rows, len(line)), np.uint8)
    chars[:] = np.frombuffer(line, np.uint8)
    keep = np.ones_like(chars, bool)
    start = 0
    for template, cells in slots:
        part = np.s_[:, start:start + len(template)]
        if isinstance(cells, np.ndarray):
            _put_floats(chars[part], keep[part], cells)
        elif cells is not None:
            _put_cells(chars[part], keep[part], cells)
        start += len(template) + 1
    return np.compress(keep.ravel(), chars.ravel()).tobytes()


def _encode_csv(header: list, columns: list) -> bytes:
    """A CSV table from its columns; a scalar fills its whole column.

    Byte for byte what the csv module writes for the cells of
    :func:`_cells` (a float64 as ``%.17g``), built ``_CSV_CHUNK_ROWS`` rows
    at a time by :func:`_csv_rows`.  A float64 cell in ``%.17g``'s fixed
    notation, decimal exponent E in [-4, 16], costs no Python call
    (:func:`_put_floats`).  Its 17 digits are ``x * 10^(16 - E)`` rounded
    half to even, the rounding CPython's ``%.17g`` makes (Gay's correctly
    rounded conversion): 10^(16 - E) <= 10^22 is an exact double, Dekker's
    two-product splits the product exactly into ``p + err`` (Veltkamp's
    split, no fused multiply-add), and ``p >= 10^16 > 2^53`` is an even
    integer, so ``int(p) + rint(err)`` is the rounded product, ties
    included.  Zero, nan, infinities, exponent notation, the cells of any
    other column and scalars are formatted one cell at a time."""
    columns = [np.asarray(c) for c in columns]
    n = next((len(c) for c in columns if c.ndim), 1)
    for name, c in zip(header, columns):
        if c.ndim and len(c) != n:
            raise ValueError(f"CSV column {name!r} has {len(c)} rows, expected {n}")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    return b"".join([buf.getvalue().encode()] + [
        _csv_rows([c[start:start + _CSV_CHUNK_ROWS] if c.ndim else c for c in columns],
                  min(n - start, _CSV_CHUNK_ROWS))
        for start in range(0, n, _CSV_CHUNK_ROWS)])


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
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
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
    list of its element type, a ``None`` default reads a number.  ``whole``
    is a ``(predicate, requirement)`` check on a converted list as a whole."""

    default: object
    interval: str = "(-inf, inf)"
    length: tuple = (1, math.inf)   # entry count of a list
    choices: tuple = ()             # admissible str values
    whole: tuple = (lambda items: True, "")


#: a ``whole`` check: no entry repeats (entries name output columns or rows)
_DISTINCT = (lambda items: len(set(items)) == len(items), "entries must be distinct")


def _convert(spec: _Param, value, path: str, kind: type = None):
    """``value`` checked against ``spec`` and converted as ``float``, ``int``
    and ``bool`` convert it (PyYAML reads ``2e-6`` as a string)."""
    kind = kind or (float if spec.default is None else type(spec.default))
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
    _require(_within(spec.interval, x), path, f"must lie in {spec.interval}, got {value!r}")
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be a mapping")
    return cfg


#: the config ``seed`` and the ``--seed`` override
_SEED = _Param(0, "[0, inf)")


def _checked(cfg: dict, seed=None, out=None) -> tuple[RunContext, list]:
    """The run context of a config (every value checked, every default
    filled in, the ``--seed`` and ``--out`` overrides applied) and the notes
    of its scenario's check."""
    top_level = ("scenario", "seed", "output", "params")
    for key in cfg:
        _require(key in top_level, str(key),
                 f"unknown key; expected one of {', '.join(top_level)}")
    _require("scenario" in cfg, "scenario", "missing required key")
    name = cfg["scenario"]
    _require(isinstance(name, str) and name in SCENARIOS, "scenario",
             f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    output = cfg.get("output", "out")
    _require(isinstance(output, str) and output, "output", "must be a non-empty string")
    params = _parse_params(_schema(name), cfg.get("params"))
    rates = replace(presets.table_decay_rates(), **params["rates"]) if "rates" in params else None
    config_seed = _convert(_SEED, cfg.get("seed", 0), "seed")
    seed = config_seed if seed is None else _convert(_SEED, seed, "--seed")
    return RunContext(name, seed, out or output, params, rates), SCENARIOS[name][3](params) or []


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
    from . import protocols

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


def _rb_fields() -> dict:
    """``RBScenario`` fields and their defaults (``MISSING`` for ``l_cl``)."""
    from .rbsim import RBScenario

    return {f.name: f.default for f in fields(RBScenario)}


def _rb_scenario(ctx: RunContext):
    """The ``RBScenario`` of the declared parameters; undeclared fields
    keep their dataclass defaults."""
    from .rbsim import RBScenario

    declared = _rb_fields().keys() - {"rates"}
    return RBScenario(rates=ctx.rates, **{k: v for k, v in ctx.params.items() if k in declared})


def _run_leakage_rb(ctx: RunContext) -> dict:
    from . import rbsim

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
        **asdict(fit), "epsilon": fit.epsilon, "l2": fit.l2,
        "a2_closed_forms": asdict(forms), "error_models": asdict(models),
    }}


def _run_periodic_lr(ctx: RunContext) -> dict:
    """Rate-equation P_f traces (:func:`rbsim.periodic_lr_trace`), recovery
    every N Cliffords.  ``max_p_f_every_N`` is therefore the incoherent
    limit (see the :mod:`couplersim.rbsim` docstring)."""
    from .rbsim import periodic_lr_trace

    n_max = ctx.params["n_max"]
    base = _rb_scenario(ctx)
    header = ["n_cl"]
    columns = [np.arange(n_max + 1)]
    summary = {}
    for n_lr in ctx.params["n_lr_list"]:
        trace = periodic_lr_trace(replace(base, n_lr=n_lr), n_max)
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
    columns = [delta] + [chi_shift(g, delta) for g in p["g_tilde"]]
    return {"chi_map.csv": (header, columns)}


def _run_readout_shots(ctx: RunContext) -> dict:
    from . import protocols

    p = ctx.params
    n_shots, sep, tau_meas, sigma = p["n_shots"], p["separation_sigma"], p["tau_meas"], 1.0
    centers = np.array([[0.0, 0.0], [sep, 0.0], [sep / 2.0, 0.9 * sep]]) * sigma
    gamma_1 = ctx.rates.gamma1
    decay = (gamma_1, tau_meas) if p["include_decay"] else None

    cal = {label: protocols.generate_shots(np.eye(3)[i], centers, sigma, n_shots, ctx.stream(i),
                                           label=label, decay=decay if label == "e" else None)
           for i, label in enumerate(protocols.STATE_LABELS)}
    try:
        clf = protocols.calibrate_classifier(cal["g"], cal["e"], cal["f"])
    except ValueError as exc:  # shots the check's bound could not tell apart
        raise ConfigError(f"{_readout_contrast(p)[0]}: {exc}") from exc
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
        "readout_metrics.json": {**asdict(fid), "estimated_populations": est.populations,
                                 "clamp_correction": est.clamp_correction},
    }


def _run_cz_chevron(ctx: RunContext) -> dict:
    """``t_s`` is k / w of the grid's first drive frequency w; column
    ``p_ee_fd<w>`` holds row k at k / w (see ``protocols.CZPhaseScan``)."""
    from .protocols import cz_conditional_phase

    try:  # the schema keys are the keyword arguments of cz_conditional_phase
        scan = cz_conditional_phase(presets.table_circuit(), presets.fixture_drive("cz"),
                                    **ctx.params)
    except RuntimeError as exc:  # the window the check cannot bound: it needs the Rabi rate
        raise ConfigError(f"params.max_duration: {exc}") from exc
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


def _floquet_drive(params: dict) -> tuple:
    """Circuit, drive, manifold and spectrum of a floquet-report config (the
    fixture drive of ``kind``, at amplitude ``drive.a_d`` when one is given)
    and whether it lies in the leading-order coupling window."""
    circuit = presets.table_circuit()
    drive = presets.fixture_drive(params["kind"])
    if params["drive"]["a_d"] is not None:
        drive = replace(drive, a_d=params["drive"]["a_d"])
    man = transition_manifold(circuit, params["kind"])
    spectrum = fourier_decompose(drive, circuit.coupler)
    in_window = in_coupling_window(spectrum, man.k, drive.omega_d)
    return circuit, drive, man, spectrum, in_window


def _run_floquet_report(ctx: RunContext) -> dict:
    circuit, drive, man, spectrum, in_window = _floquet_drive(ctx.params)

    def couplings(d, spec) -> tuple:
        """Leading-order coupling, k = 2 frame and Schrieffer-Wolff coupling of ``d``."""
        g = effective_coupling(man.g_ac, man.g_bc, man.k, d.omega_d, spec)
        if man.k != 2:
            return g, None, g
        frame = k2_closed_forms(man, d, spec)
        return g, frame, schrieffer_wolff_correction(frame)

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
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        g, frame, g_prime = couplings(drive, spectrum)
        report.update({f"{key}_hz": v for key, v in asdict(frame).items()}
                      | {"g_tilde_prime_ab_hz": g_prime} if frame else {"g_tilde_ab_hz": g})
        for a in np.linspace(0.0, max(drive.a_d, 1e-3), ctx.params["n_amplitudes"]):
            d = replace(drive, a_d=float(a))
            g, frame, g_prime = couplings(d, fourier_decompose(d, circuit.coupler))
            rows.append((a, g, frame.g_tilde_ab if frame else g, g_prime))

    return {"floquet_report.json": report,
            "coupling_vs_amplitude.csv": (
                ["a_d_rad", "g_leading_hz", "g_tilde_ab_hz", "g_tilde_prime_ab_hz"],
                list(zip(*rows)))}


def _rates(*keys: str) -> dict:
    """Schema of the named ``DecayRates`` fields, the table's as defaults."""
    table = presets.table_decay_rates()
    return {key: _Param(getattr(table, key), "[0, inf)") for key in keys}


#: the most one config may cost.  The checks convert counts at per-unit costs
#: measured on this package: tracemalloc peaks and best-of-3 perf_counter
#: times over a range of sizes, one core of a 2-vCPU x86-64 host.
_BUDGETS = {
    # CSV cells: 20 B each on disk (200 MB here), 40 B at the encoder's peak
    # beside the columns (8 B a cell in an array, 32 B in a list); 26 s at the
    # costliest, 2.6 us of periodic-lr (0.2 us of cz-chevron), so no time
    "cells": 1e7,
    # the arrays a run holds at once, a quarter of 4 GB: 10.8 kB a Monte Carlo
    # state, 432 B a kept CZ sample (protocols.cz_spectra_size), 108 B a CZ
    # period of one drive frequency (a 96 B column of its 6-mode power table
    # and a 16 B |ee> amplitude: 112 B at the peak)
    "bytes": 1e9,
    # a config that validates ends within a minute: 3.2 us a state-cycle,
    # 1.2 us a kept CZ sample's propagator step, 10 us its spectra step,
    # 0.45 ms an amplitude
    "seconds": 60.0,
}


def _budget(key: str, resource: str, amount: float, what: str) -> None:
    """Refuse a config whose ``what`` costs more ``resource`` than its budget."""
    limit = _BUDGETS[resource]
    _require(amount <= limit, key,
             f"{what} = {amount:.3g} {resource}, more than the budget of {limit:.3g}")


def _rb_schema(*rates: str, **extra: _Param) -> dict:
    """Schema of leakage-rb or periodic-lr: the RB physics, with the
    ``RBScenario`` defaults, the named decay rates, then ``extra``."""
    rb = _rb_fields()
    return {"l_cl": _Param(0.02, "[0, 1]"), "f_lr": _Param(rb["f_lr"], "[0, 1]"),
            **{key: _Param(rb[key], "[0, inf)") for key in ("tau_cl", "tau_leak", "tau_lr")},
            "rates": _rates(*rates), **extra}


def _leakage_rb_check(params: dict) -> None:
    n_r, n_max = params["n_randomizations"], max(params["n_cl_grid"])
    _budget("params.n_randomizations", "bytes", 10.8e3 * n_r,
            "n_randomizations x 10.8 kB of Monte Carlo state buffers")
    # the time grows with both factors; name the larger.  Its 1.9e7 cap on
    # n_randomizations x max(n_cl_grid) also bounds the Clifford draws (1 B
    # each, <= 19 MB) and the int64 row drawn before each is stored (<= 75 MB)
    _budget("params.n_cl_grid" if n_max > n_r else "params.n_randomizations", "seconds",
            3.2e-6 * n_r * n_max, "n_randomizations x max(n_cl_grid) state-cycles at 3.2 us")


def _readout_shots_schema() -> dict:
    from .protocols import MIN_CALIBRATION_SHOTS, POPULATION_SUM_TOL

    return {
        "n_shots": _Param(20000, f"[{MIN_CALIBRATION_SHOTS}, inf)"),
        "separation_sigma": _Param(3.29, "(0, inf)"), "tau_meas": _Param(10e-6, "[0, inf)"),
        "include_decay": _Param(True),
        "experiment_populations": _Param(
            (0.5, 0.3, 0.2), "[0, 1]", length=(3, 3),
            whole=(lambda p: abs(sum(p) - 1.0) <= POPULATION_SUM_TOL, "must sum to 1")),
        "rates": _rates("gamma1")}


def _readout_contrast(params: dict) -> tuple[str, float]:
    """A bound on the confusion matrix C's least singular value, and the key of
    its smaller factor: |C^T (1, -1, 0)| / sqrt 2 <= the g-e shot total variation,
    erf(separation / 2 sqrt 2) times, with decay on, exp(-pi Gamma_1 tau_meas)."""
    overlap = math.erf(params["separation_sigma"] / (2 * math.sqrt(2)))
    kept = (math.exp(-math.pi * params["rates"]["gamma1"] * params["tau_meas"])
            if params["include_decay"] else 1.0)
    return ("params.separation_sigma" if overlap <= kept else "params.tau_meas"), overlap * kept


def _readout_shots_check(params: dict) -> None:
    from .protocols import CLASSIFIER_BINS, CLASSIFIER_FLOOR

    _budget("params.n_shots", "cells", 12 * params["n_shots"], "n_shots x 12 shot-table cells")
    # decayed e shots widen the e histogram's bins to separation / bins
    decays = params["include_decay"] and params["rates"]["gamma1"] * params["tau_meas"] > 0
    _require(not decays or params["separation_sigma"] <= CLASSIFIER_BINS,
             "params.separation_sigma", f"above {CLASSIFIER_BINS} with decay on: the e "
             "calibration shots span more blob widths than their histogram has bins")
    key, bound = _readout_contrast(params)
    _require(bound >= CLASSIFIER_FLOOR, key, f"the g and e calibration shots differ by at "
             f"most {bound:.3g} in total variation, below the classifier's {CLASSIFIER_FLOOR}")


def _cz_chevron_check(params: dict) -> None:
    from .protocols import cz_drive_frequencies, cz_spectra_size

    n_omega = params["n_omega"]
    _require(params["n_sub"] % 2 == 0, "params.n_sub", f"must be even, got {params['n_sub']}: "
             "the spectra keep only the mirror-distinct midpoints of each half period")
    samples, held = cz_spectra_size(params["n_sub"])
    _budget("params.n_sub", "bytes", held, f"the midpoint spectra of {samples:.3g} samples")
    _budget("params.n_omega", "seconds", samples * (1.2e-6 * n_omega + 10e-6),
            "samples x (n_omega x 1.2 us per propagator step + 10 us of spectra)")
    # linspace's ends, the same at any n_omega
    ends = cz_drive_frequencies(presets.table_circuit(), params["omega_d_span"], min(n_omega, 2))
    lowest, highest = ends.min(), ends.max()
    _require(lowest > 0, "params.omega_d_span", f"reaches drive frequency {lowest:.6g} Hz <= 0")
    # a step above 2 ulps survives the offset's rounding: distinct columns
    step, ulps = np.ptp(params["omega_d_span"]) / max(n_omega - 1, 1), 2 * np.spacing(highest)
    _require(n_omega == 1 or step > ulps, "params.omega_d_span", f"grid step {step:.3g} Hz "
             f"is not above 2 ulps ({ulps:.3g} Hz) of {highest:.6g} Hz: repeated drive frequencies")
    _require(params["max_duration"] >= 1.0 / lowest, "params.max_duration",
             f"shorter than one period ({1.0 / lowest:.6g} s) of the lowest drive frequency")
    periods = params["max_duration"] * highest
    _budget("params.max_duration", "bytes", 108 * periods,
            "stroboscopic periods x 108 B of one drive frequency's power table and amplitudes")
    _budget("params.n_omega", "cells", n_omega * periods,
            "n_omega x stroboscopic periods cells of cz_chevron.csv")


def _floquet_report_check(params: dict) -> list:
    _budget("params.n_amplitudes", "seconds", 0.45e-3 * params["n_amplitudes"],
            "n_amplitudes x 0.45 ms per amplitude")
    _, _, man, spectrum, in_window = _floquet_drive(params)
    return [] if in_window else [
        f"params.drive.a_d: |D_{man.k}| = {abs(spectrum.coefficient(man.k)):.3e} Hz; the "
        "leading-order coupling is out of its validity window (warning)"]


#: scenario -> (runner, paper figure, schema builder, check of the parsed
#: parameters, which returns the notes or None).  The schemas that read
#: ``rbsim`` or ``protocols`` import it when built, so only their scenarios do.
SCENARIOS = {
    "reset-dynamics": (_run_reset_dynamics, "Fig. 2(a)", lambda: {
        "g_tilde": _Param((0.0, 0.5e6, 2.07e6), whole=_DISTINCT),
        "duration": _Param(0.6e-6, "(0, inf)"), "n_points": _Param(301, "[1, inf)"),
        "rates": _rates("gamma1", "kappa_r")}, lambda p: _budget(
        "params.n_points", "cells", p["n_points"] * (len(p["g_tilde"]) + 2),
        "n_points x (len(g_tilde) + 2) cells of reset_dynamics.csv")),
    "reset-metrics": (_run_reset_metrics, "Fig. 2(b)", lambda: {
        "p_id": _Param(0.0062, "(0, 0.5)"), "p_pi": _Param(0.88, "(0, 1]"),
        "p_id_r": _Param(0.00074, "(0, 0.5)"), "p_pi_r": _Param(0.0033, "[0, 1]"),
        "omega_q": _Param(3.83e9, "(0, inf)"), "omega_r": _Param(5.85e9, "(0, inf)"),
        "tau_r": _Param(150e-9, "[0, inf)"), "tau_m": _Param(2.3e-6, "[0, inf)"),
        "rates": _rates("gamma1")}, lambda p: None),  # its work does not grow
    "lr-dynamics": (_run_lr_dynamics, "Fig. 6(a)", lambda: {
        "g_tilde": _Param(0.91e6), "duration": _Param(1.2e-6, "(0, inf)"),
        "n_points": _Param(301, "[1, inf)"),
        "rates": _rates("gamma1", "gamma_fe", "kappa_r")}, lambda p: _budget(
        "params.n_points", "cells", 5 * p["n_points"], "n_points x 5 cells of lr_dynamics.csv")),
    "leakage-rb": (_run_leakage_rb, "Fig. 3", lambda: _rb_schema(
        "gamma1", "gamma_phi", "gamma_fe", "kappa_r", n_lr=_Param(_rb_fields()["n_lr"], "[0, inf)"),
        n_cl_grid=_Param(_rb_fields()["n_cl_grid"], "[0, inf)", length=(5, math.inf),
                         whole=_DISTINCT), n_randomizations=_Param(50, "[2, inf)")),
        _leakage_rb_check),
    "periodic-lr": (_run_periodic_lr, "Fig. 7 (rate eq.)", lambda: _rb_schema(
        "gamma_fe", "kappa_r",
        n_lr_list=_Param((20, 10, 5, 1), "[0, inf)", whole=_DISTINCT),
        n_max=_Param(200, "[1, inf)")), lambda p: _budget(
        "params.n_max", "cells", (p["n_max"] + 1) * (len(p["n_lr_list"]) + 1),
        "(n_max + 1) x (len(n_lr_list) + 1) cells of periodic_lr.csv")),
    "chi-map": (_run_chi_map, "Fig. 4(c)", lambda: {
        "g_tilde": _Param((0.06e6, 0.15e6, 0.41e6, 0.90e6, 1.50e6, 2.12e6, 2.50e6),
                          whole=_DISTINCT),
        "delta_span": _Param(16e6, "(0, inf)"), "n_points": _Param(161, "[1, inf)")},
        lambda p: _budget("params.n_points", "cells", p["n_points"] * (len(p["g_tilde"]) + 1),
                          "n_points x (len(g_tilde) + 1) cells of chi_map.csv")),
    "readout-shots": (_run_readout_shots, "Fig. 4(d,e)", _readout_shots_schema,
                      _readout_shots_check),
    "cz-chevron": (_run_cz_chevron, "Fig. 8(a,b)", lambda: {
        "omega_d_span": _Param((-15e6, 15e6), length=(2, 2)),
        "n_omega": _Param(13, "[1, inf)"), "max_duration": _Param(1.2e-6, "(0, inf)"),
        "n_sub": _Param(1024, "[1, inf)")}, _cz_chevron_check),
    "floquet-report": (_run_floquet_report, "Fig. 4(c) couplings", lambda: {
        "kind": _Param("reset", choices=tuple(presets.FIXTURE_DRIVES)),
        "drive": {"a_d": _Param(None, "[0, inf)")},  # None: the fixture's
        "n_amplitudes": _Param(41, "[2, inf)")}, _floquet_report_check),
}


@cache
def _schema(name: str) -> dict:
    """The parameter schema of scenario ``name``, built once per process."""
    return SCENARIOS[name][2]()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@cache
def _blas_core():
    """The kernel numpy's bundled OpenBLAS runs (``SkylakeX``, ``Haswell``,
    ...), as ``scipy_openblas_get_corename64_`` names it, read once per
    process through ``ctypes``; ``None`` where numpy bundles no such
    library or it cannot be read.  The library picks its kernel when
    loaded, from the CPU or ``OPENBLAS_CORETYPE``."""
    import ctypes  # numpy has loaded it already

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_"))
        corename = ctypes.CDLL(os.path.realpath(os.path.join(libs, names[0])))[
            "scipy_openblas_get_corename64_"]
    except (OSError, IndexError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    name = corename()
    return name.decode() if name else None


def _environment() -> dict:
    """The Python and numpy versions, scipy's only where loaded (never here),
    the BLAS thread variables as the caller set them (``None`` when unset;
    ``OPENBLAS_NUM_THREADS`` as read at import, before the package's own),
    ``openblas_one_thread``, whether that import limited OpenBLAS to one
    thread (false when the caller set the variable or loaded numpy first),
    and ``blas_core``, the running OpenBLAS kernel (:func:`_blas_core`)."""
    env = {"python": ".".join(map(str, sys.version_info[:3])), "numpy": np.__version__}
    if "scipy" in sys.modules:
        env["scipy"] = sys.modules["scipy"].__version__
    for key in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = os.environ.get(key)
    env["OPENBLAS_NUM_THREADS"] = OPENBLAS_CALLER
    env["openblas_one_thread"] = OPENBLAS_ONE_THREAD
    env["blas_core"] = _blas_core()
    return env


def run_config(config_path: str, seed=None, out=None) -> dict:
    cfg = load_config(config_path)
    ctx, notes = _checked(cfg, seed, out)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    os.makedirs(ctx.out_dir, exist_ok=True)
    started = time.perf_counter()
    contents = SCENARIOS[ctx.name][0](ctx)
    stages = {"run": time.perf_counter() - started, "encode": 0.0, "write": 0.0}
    files = []
    for name, content in contents.items():
        t0 = time.perf_counter()
        data = _encode(content)
        t1 = time.perf_counter()
        _atomic_write(os.path.join(ctx.out_dir, name), data)
        files.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
        stages["encode"] += t1 - t0
        stages["write"] += time.perf_counter() - t1
    canonical = json.dumps(_jsonable(cfg), sort_keys=True).encode()
    manifest = {
        "scenario": ctx.name,
        "config_hash": hashlib.sha256(canonical).hexdigest(),
        "tool_version": __version__,
        "seed": ctx.seed,
        "wall_time_s": time.perf_counter() - started,
        "stages": stages,
        "notes": notes,
        "files": files,
        "environment": _environment(),
    }
    _atomic_write(os.path.join(ctx.out_dir, "manifest.json"), _encode(manifest))
    return manifest


def list_scenarios() -> str:
    width = max(len(n) for n in SCENARIOS)
    lines = [f"{'scenario':<{width}}  {'figure':<19}  parameters (key=default)"]
    for name in sorted(SCENARIOS):
        params = "  ".join(f"{key}={list(d) if isinstance(d, tuple) else d}"
                           for key, d in _flat(_schema(name)))
        lines.append(f"{name:<{width}}  {SCENARIOS[name][1]:<19}  {params}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="couplersim", description="Scenario runner for the parametric-coupler simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario configuration")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the output directory")
    sub.add_parser("validate", help="check a configuration without running it").add_argument(
        "config")
    sub.add_parser("list", help="list available scenarios")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_scenarios())
        return 0
    try:
        if args.command == "validate":
            for note in _checked(load_config(args.config))[1]:
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


def entry() -> None:
    """Exit with the code of :func:`main`, the entry point of ``python -m
    couplersim.cli`` and of the ``couplersim`` script, after freezing the
    garbage collector: the final collection then skips what the run left
    alive (numpy's, PyYAML's, scipy's state); atexit handlers still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
