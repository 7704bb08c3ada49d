"""Workload definitions and the scenario-config generator.

Each workload is a fixed list of ``couplersim`` scenario configurations.
The run seed is written into every generated YAML file; it is reduced
modulo ``SEED_POOL`` because the reference outputs of the seeded scenarios
(the Monte Carlo RB curves and the readout shots) are stored per pool seed.
"""

from __future__ import annotations

import os

import yaml

SEED_POOL = 16

#: Scenarios whose outputs depend on the config seed.  ``make_reference.py``
#: checks that every other scenario writes the same files for two seeds.
SEEDED = frozenset({"leakage-rb", "readout-shots"})

WORKLOADS = {
    # periodic-propagator workload: the library defaults of
    # protocols.cz_conditional_phase (H(t) sampling, batched eigh, products)
    "cz-paper": [
        ("cz-chevron", {"n_omega": 15, "max_duration": 1.5e-6, "n_sub": 2048}),
    ],
    # Monte Carlo workload: leakage RB at 200 randomizations (einsum-bound)
    "rb-paper": [
        ("leakage-rb", {"n_randomizations": 200}),
    ],
    # import- and write-heavy workload: the remaining seven scenarios at CLI
    # defaults, one process each
    "figure-sweep": [
        ("reset-dynamics", {}),
        ("reset-metrics", {}),
        ("lr-dynamics", {}),
        ("periodic-lr", {}),
        ("chi-map", {}),
        ("floquet-report", {}),
        ("readout-shots", {}),
    ],
}


def config_seed(seed: int) -> int:
    """The seed written into the generated configs for a run seed."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed % SEED_POOL


def config_text(scenario: str, params: dict, seed: int, output: str) -> str:
    """YAML text of one scenario config."""
    cfg = {"scenario": scenario, "seed": config_seed(seed), "output": output}
    if params:
        cfg["params"] = params
    return yaml.safe_dump(cfg, sort_keys=True)


def generate(workload: str, seed: int, config_dir: str, out_root: str) -> list:
    """Write the workload's configs under ``config_dir``.

    Returns ``(scenario, config_path, output_dir)`` triples in run order.
    ``out_root`` is written into the configs as given, so pass a path
    relative to the directory the program runs in.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(config_dir, exist_ok=True)
    runs = []
    for scenario, params in WORKLOADS[workload]:
        out_dir = f"{out_root}/{scenario}"
        path = os.path.join(config_dir, f"{scenario}.yaml")
        with open(path, "w") as fh:
            fh.write(config_text(scenario, params, seed, out_dir))
        runs.append((scenario, path, out_dir))
    return runs
