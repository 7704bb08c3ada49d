"""Importing the CLI loads numpy and PyYAML but no scipy module, no
``numpy.ma`` and neither ``couplersim.rbsim`` nor ``couplersim.protocols``;
a scenario run loads those two only where it runs them, and of the
scenarios only ``leakage-rb`` loads scipy (``scipy.linalg`` and
``scipy.optimize``).  The import also limits OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` was set or numpy was loaded first.  The process
entry point exits with the code of ``main`` and leaves the garbage
collector frozen.

Every ``couplersim run`` is its own process and pays for what it imports,
so modules are imported where they are called.  Each check runs in a fresh
interpreter and lists the entries of ``sys.modules`` under the given
packages after the import, or after a scenario run, or counts the threads
of that interpreter.
"""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest
import yaml

import couplersim
from couplersim import cli

SRC = str(Path(couplersim.__file__).resolve().parents[1])

PROBE = """
import json, sys
{first}
{body}
print(json.dumps(sorted(m for m in sys.modules
                        if any(m == p or m.startswith(p + ".") for p in {packages!r}))))
"""


THREADS = """
import json, os
from couplersim import cli
{body}
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task"))]))
"""


def probe(code: str, **env) -> list:
    """The last line of ``code``'s output, as JSON, run in a fresh
    interpreter; ``env`` entries replace those of this process's
    environment, ``None`` removes one."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    environ = {**os.environ, "PYTHONPATH": path, **env}
    proc = subprocess.run([sys.executable, "-c", code],
                          env={k: v for k, v in environ.items() if v is not None},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_modules(body: str = "", packages=("scipy",),
                   first: str = "from couplersim import cli") -> list:
    return probe(PROBE.format(first=first, body=body, packages=packages))


def write_run_config(tmp_path, scenario: str, params=None) -> str:
    cfg = {"scenario": scenario, "seed": 3, "output": str(tmp_path / "out")}
    if params is not None:
        cfg["params"] = params
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def modules_after_run(tmp_path, scenario: str, params=None, packages=("scipy",)) -> list:
    config = write_run_config(tmp_path, scenario, params)
    return loaded_modules(f"assert cli.main(['run', {config!r}]) == 0", packages)


def test_import_cli_loads_no_scipy():
    assert loaded_modules() == []


def test_import_cli_loads_no_numpy_ma():
    assert loaded_modules(packages=("numpy.ma",)) == []


def test_import_couplersim_loads_no_submodule():
    assert loaded_modules(first="import couplersim", packages=("couplersim",)) == ["couplersim"]


#: what ``import couplersim.cli`` loads of the package: not rbsim, not protocols
CLI_MODULES = ["couplersim", "couplersim.circuit", "couplersim.cli", "couplersim.dynamics",
               "couplersim.floquet", "couplersim.numerics", "couplersim.presets"]


def test_import_cli_loads_neither_rbsim_nor_protocols():
    assert loaded_modules(packages=("couplersim",)) == CLI_MODULES


#: a small run of every scenario, and the modules beyond ``CLI_MODULES`` it loads
SCENARIO_RUNS = {
    "reset-dynamics": (None, []),
    "reset-metrics": (None, ["couplersim.protocols"]),
    "lr-dynamics": (None, []),
    "leakage-rb": ({"n_randomizations": 2}, ["couplersim.rbsim"]),
    "periodic-lr": (None, ["couplersim.rbsim"]),
    "chi-map": (None, []),
    "readout-shots": ({"n_shots": 1000}, ["couplersim.protocols"]),
    "cz-chevron": ({"n_omega": 3, "n_sub": 64}, ["couplersim.protocols"]),
    "floquet-report": (None, []),
}


def test_scenario_runs_cover_every_scenario():
    assert set(SCENARIO_RUNS) == set(cli.SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIO_RUNS))
def test_a_run_loads_only_the_modules_its_scenario_runs(tmp_path, scenario):
    params, extra = SCENARIO_RUNS[scenario]
    loaded = modules_after_run(tmp_path, scenario, params, packages=("couplersim",))
    assert loaded == sorted(CLI_MODULES + extra)


def test_list_loads_every_schema_module():
    loaded = loaded_modules("assert cli.main(['list']) == 0", packages=("couplersim",))
    assert loaded == sorted(CLI_MODULES + ["couplersim.protocols", "couplersim.rbsim"])


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
    assert modules_after_run(tmp_path, scenario, params) == []


def test_probe_sees_a_scenario_that_uses_scipy(tmp_path):
    # leakage-rb builds its windows with scipy.linalg.expm and fits the RB
    # curves with scipy.optimize.least_squares
    loaded = modules_after_run(tmp_path, "leakage-rb", {"n_randomizations": 2})
    assert {"scipy.linalg", "scipy.optimize"} <= set(loaded)


@pytest.mark.parametrize("scenario, params, loads_scipy", [
    ("leakage-rb", {"n_randomizations": 2}, True),
    ("reset-metrics", None, False),
])
def test_manifest_lists_scipy_only_when_loaded(tmp_path, scenario, params, loads_scipy):
    modules_after_run(tmp_path, scenario, params)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert ("scipy" in manifest["environment"]) is loads_scipy


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads in /proc/self/task")

#: what leakage-rb loads and calls: numpy's and scipy's bundled OpenBLAS
#: each start a worker thread when they load
SCIPY_BLAS = """
import numpy as np, scipy.linalg, scipy.optimize
scipy.linalg.expm(np.eye(36))
"""


@needs_proc
def test_import_runs_blas_on_one_thread():
    variable, threads = probe(THREADS.format(body=SCIPY_BLAS), OPENBLAS_NUM_THREADS=None)
    assert threads == 1
    assert variable == "1"


#: OpenBLAS starts no more threads than the CPUs this process may run on
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(USABLE_CPUS < 2, reason="OpenBLAS threads need two CPUs")


@needs_proc
@needs_two_cpus
def test_thread_count_set_before_the_import_wins():
    variable, threads = probe(THREADS.format(body=""), OPENBLAS_NUM_THREADS="2")
    assert variable == "2"
    assert threads > 1


#: a run's manifest environment and the threads of its process
MANIFEST_THREADS = """
import json, os
{first}
from couplersim import cli
assert cli.main(["run", {config!r}]) == 0
with open({manifest!r}) as fh:
    environment = json.load(fh)["environment"]
print(json.dumps([environment["OPENBLAS_NUM_THREADS"], environment["openblas_one_thread"],
                  len(os.listdir("/proc/self/task"))]))
"""


@needs_proc
@pytest.mark.parametrize("first, variable, one_thread", [
    ("", None, True),
    # a host that loaded numpy first keeps its threaded BLAS
    ("import numpy", None, False),
    # the caller's value wins and is the one recorded
    ("", "2", False),
])
def test_manifest_records_what_the_thread_rule_did(tmp_path, first, variable, one_thread):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"scenario": "reset-metrics", "output": str(tmp_path / "out")}))
    code = MANIFEST_THREADS.format(first=first, config=str(path),
                                   manifest=str(tmp_path / "out" / "manifest.json"))
    recorded, recorded_one_thread, threads = probe(code, OPENBLAS_NUM_THREADS=variable)
    assert recorded == variable
    assert recorded_one_thread is one_thread
    if one_thread or USABLE_CPUS >= 2:
        assert (threads == 1) is one_thread


#: the environment a host's child process gets, after the host's imports
CHILD_VARIABLE = """
import subprocess, sys
{first}
import couplersim
print(subprocess.run([sys.executable, "-c",
                      "import json, os; print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"],
                     capture_output=True, text=True, check=True).stdout.strip())
"""


@pytest.mark.parametrize("first, variable", [
    ("", "1"),
    # numpy loaded first: the rule cannot act, so it leaves the variable unset
    ("import numpy", None),
])
def test_child_of_a_host_sees_the_variable_only_where_the_rule_acted(first, variable):
    assert probe(CHILD_VARIABLE.format(first=first), OPENBLAS_NUM_THREADS=None) == variable


#: ``cli.entry`` as the command line runs it, with ``{patch}`` applied first
ENTRY = """
import gc, json, sys
from couplersim import cli
{patch}
sys.argv = ["couplersim", *{argv!r}]
try:
    cli.entry()
except SystemExit as exc:
    print(json.dumps([exc.code, gc.get_freeze_count()]))
"""


@pytest.mark.parametrize("code, patch", [
    (0, ""),
    (2, ""),                                   # n_points 0: a schema violation
    (3, "cli.chi_shift = lambda g, d: 1 / 0"),
    (4, ""),                                   # the output directory under a file
])
def test_entry_exits_with_the_code_of_main_and_freezes_the_collector(tmp_path, code, patch):
    config = write_run_config(tmp_path, "chi-map", {"n_points": 0 if code == 2 else 5})
    blocked = tmp_path / "file"
    blocked.write_text("")
    argv = ["run", config, *(["--out", str(blocked / "out")] if code == 4 else [])]
    exit_code, frozen = probe(ENTRY.format(patch=patch, argv=argv))
    assert exit_code == code
    assert frozen > 0


MAIN = """
import gc, json
from couplersim import cli
assert cli.main(["run", {config!r}]) == 0
print(json.dumps(gc.get_freeze_count()))
"""


def test_main_in_process_keeps_the_collector(tmp_path):
    config = write_run_config(tmp_path, "chi-map", {"n_points": 5})
    assert probe(MAIN.format(config=config)) == 0


def test_the_script_and_python_m_share_the_entry_point():
    pyproject = tomllib.loads((Path(SRC).parent / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["couplersim"] == "couplersim.cli:entry"
