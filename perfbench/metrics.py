"""Metric names, units and the per-layer metrics computed from a trace.

Which end-to-end metric each per-layer metric should move, and on which
workload, is listed in ``README.md``.
"""

from __future__ import annotations

import re

from tracer import MODULES, aggregate, layer_totals

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

END_TO_END = {
    "wall_s": "s",
    "compute_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

_READOUT = ("protocols.generate_shots", "protocols.calibrate_classifier",
            "protocols.assignment_fidelity", "protocols.estimate_populations")
_CLOSED_FORMS = ("rbsim.a2_closed_forms", "rbsim.error_models", "rbsim.periodic_lr_trace")

#: metric -> (unit, span names, statistic).  The value is the statistic
#: summed over the named spans; the metric is absent when none of the
#: named functions exists any more.
SPAN_METRICS = {
    "cli.run_config.self_s": ("s", ("cli.run_config",), "self_s"),
    "protocols.cz_conditional_phase.s": ("s", ("protocols.cz_conditional_phase",), "s"),
    "protocols.cz_conditional_phase.self_s": ("s", ("protocols.cz_conditional_phase",), "self_s"),
    "protocols.readout.s": ("s", _READOUT, "s"),
    "circuit.coupler_frequency.calls": ("count", ("circuit.coupler_frequency",), "calls"),
    "circuit.coupler_frequency.s": ("s", ("circuit.coupler_frequency",), "s"),
    "kernel.eigh.calls": ("count", ("kernel.eigh",), "calls"),
    "kernel.eigh.s": ("s", ("kernel.eigh",), "s"),
    "rbsim.monte_carlo_rb.s": ("s", ("rbsim.monte_carlo_rb",), "s"),
    "rbsim.monte_carlo_rb.self_s": ("s", ("rbsim.monte_carlo_rb",), "self_s"),
    "kernel.einsum.calls": ("count", ("kernel.einsum",), "calls"),
    "kernel.einsum.s": ("s", ("kernel.einsum",), "s"),
    "kernel.expm.calls": ("count", ("kernel.expm",), "calls"),
    "rbsim.fit_rb.s": ("s", ("rbsim.fit_rb",), "s"),
    "rbsim.closed_forms.s": ("s", _CLOSED_FORMS, "s"),
    "numerics.fit_least_squares.calls": ("count", ("numerics.fit_least_squares",), "calls"),
    "numerics.fit_least_squares.s": ("s", ("numerics.fit_least_squares",), "s"),
    "floquet.fourier_decompose.calls": ("count", ("floquet.fourier_decompose",), "calls"),
    "floquet.fourier_decompose.s": ("s", ("floquet.fourier_decompose",), "s"),
}

#: metric -> (unit, counter key, span name whose wrapping feeds the counter)
COUNTER_METRICS = {
    "kernel.eigh.matrices": ("count", "kernel.eigh.matrices", "kernel.eigh"),
    "numerics.least_squares.nfev": ("count", "numerics.least_squares.nfev",
                                    "kernel.least_squares"),
}

#: per layer: calls, time in its outermost spans, and self time
LAYERS = tuple(MODULES) + ("kernel",)
LAYER_STATS = {"calls": "count", "s": "s", "self_s": "s"}

#: metrics the benchmark measures outside the traced process
OUTER_METRICS = {
    "setup.scipy_integrate_s": "s",
    "setup.couplersim_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    units = dict(OUTER_METRICS)
    units.update({name: spec[0] for name, spec in SPAN_METRICS.items()})
    units.update({name: spec[0] for name, spec in COUNTER_METRICS.items()})
    for layer in LAYERS:
        for stat, unit in LAYER_STATS.items():
            units[f"{layer}.{stat}"] = unit
    return units


def trace_values(spans: list, counters: dict, wrapped: set) -> dict:
    """Per-layer values of one traced pass; ``None`` marks an absent metric."""
    by_name = aggregate(spans)
    by_layer = layer_totals(spans)
    values = {}
    for metric, (_, names, stat) in SPAN_METRICS.items():
        present = [n for n in names if n in wrapped]
        values[metric] = (sum(by_name.get(n, {}).get(stat, 0) for n in present)
                          if present else None)
    for metric, (_, key, feeder) in COUNTER_METRICS.items():
        values[metric] = counters.get(key, 0) if feeder in wrapped else None
    wrapped_layers = {n.split(".", 1)[0] for n in wrapped}
    for layer in LAYERS:
        for stat in LAYER_STATS:
            values[f"{layer}.{stat}"] = (by_layer.get(layer, {}).get(stat, 0)
                                         if layer in wrapped_layers else None)
    return values
