"""Importing the CLI loads numpy and PyYAML but no scipy module and no
``numpy.ma``; of the scenarios only ``leakage-rb`` loads scipy
(``scipy.linalg`` and ``scipy.optimize``).

Every ``couplersim run`` is its own process and pays for what the package
imports, so scipy is imported inside the functions that call it.  Each
check runs in a fresh interpreter and lists the entries of ``sys.modules``
under the given packages after the import, or after a scenario run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import couplersim

SRC = str(Path(couplersim.__file__).resolve().parents[1])

PROBE = """
import json, sys
from couplersim import cli
{body}
print(json.dumps(sorted(m for m in sys.modules
                        if any(m == p or m.startswith(p + ".") for p in {packages!r}))))
"""


def loaded_modules(body: str = "", packages=("scipy",)) -> list:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body, packages=packages)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after_run(tmp_path, scenario: str, params=None) -> list:
    cfg = {"scenario": scenario, "seed": 3, "output": str(tmp_path / "out")}
    if params is not None:
        cfg["params"] = params
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return loaded_modules(f"assert cli.main(['run', {str(path)!r}]) == 0")


def test_import_cli_loads_no_scipy():
    assert loaded_modules() == []


def test_import_cli_loads_no_numpy_ma():
    assert loaded_modules(packages=("numpy.ma",)) == []


@pytest.mark.parametrize("scenario, params", [
    ("cz-chevron", {"n_omega": 3, "n_sub": 64}),
    ("reset-metrics", None),
    ("reset-dynamics", None),
    ("lr-dynamics", None),
    ("periodic-lr", None),
    ("chi-map", None),
    ("readout-shots", None),
    *(pytest.param("floquet-report", {"kind": kind}, id=f"floquet-report-{kind}")
      for kind in ("reset", "lr", "readout", "cz")),
])
def test_scenarios_without_scipy_calls_load_none(tmp_path, scenario, params):
    assert scipy_modules_after_run(tmp_path, scenario, params) == []


def test_probe_sees_a_scenario_that_uses_scipy(tmp_path):
    # leakage-rb builds its windows with scipy.linalg.expm and fits the RB
    # curves with scipy.optimize.least_squares
    loaded = scipy_modules_after_run(tmp_path, "leakage-rb", {"n_randomizations": 2})
    assert {"scipy.linalg", "scipy.optimize"} <= set(loaded)
