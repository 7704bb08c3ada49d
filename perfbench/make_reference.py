#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks against.

Runs every scenario of every workload through ``python -m couplersim.cli``
from the current source tree: seeded scenarios once per pool seed, the
others for two seeds, which must give identical files.  Run it only on a
commit whose outputs are the reference, from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import checker
import workloads
from run import REFERENCE, ROOT, WORK, child_env


def run_scenario(scenario: str, params: dict, seed: int, work: str) -> str:
    out_dir = os.path.join(work, f"{scenario}-{seed}")
    config = os.path.join(work, f"{scenario}-{seed}.yaml")
    with open(config, "w") as fh:
        fh.write(workloads.config_text(scenario, params, seed, os.path.relpath(out_dir, ROOT)))
    subprocess.run([sys.executable, "-m", "couplersim.cli", "run", config], cwd=ROOT,
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return out_dir


def main() -> int:
    work = os.path.join(WORK, "make-reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for runs in workloads.WORKLOADS.values():
        for scenario, params in runs:
            if scenario in workloads.SEEDED:
                for seed in range(workloads.SEED_POOL):
                    out = run_scenario(scenario, params, seed, work)
                    checker.save_reference(checker.reference_path(REFERENCE, scenario, seed),
                                           checker.snapshot(out))
            else:
                first, second = (run_scenario(scenario, params, s, work) for s in (0, 1))
                if checker.digest(first) != checker.digest(second):
                    raise SystemExit(f"{scenario} depends on the seed; add it to SEEDED")
                checker.save_reference(checker.reference_path(REFERENCE, scenario, None),
                                       checker.snapshot(first))
            print(f"reference written for {scenario}")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
