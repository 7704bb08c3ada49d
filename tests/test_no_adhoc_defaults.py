"""Stdlib-only lints on the scenario runners (``_run_*``) in ``cli.py``.

Every scenario parameter is declared once, with its default, in the
``SCENARIOS`` schema; the runners index ``ctx.params[key]``.  A
``.get(key, default)`` in a runner would bring back an undeclared default.

The runners are pure: they return their outputs and ``run_config`` alone
writes them.  A runner that reads ``ctx.out_dir`` or calls ``open`` or
``_atomic_write`` would bring back a second writer.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "couplersim" / "cli.py"


def runner_get_calls(source: str) -> list:
    """``(runner name, line)`` of every ``.get(`` call inside a ``_run_*``
    function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_"):
            found.extend(
                (node.name, call.lineno) for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "get"
            )
    return sorted(found)


def runner_file_access(source: str) -> list:
    """``(runner name, line, name)`` of every use of ``out_dir``, ``open``
    or ``_atomic_write`` inside a ``_run_*`` function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_"):
            for sub in ast.walk(node):
                name = (sub.attr if isinstance(sub, ast.Attribute)
                        else sub.id if isinstance(sub, ast.Name) else None)
                if name in ("out_dir", "open", "_atomic_write"):
                    found.append((node.name, sub.lineno, name))
    return sorted(found)


def test_runners_found():
    tree = ast.parse(CLI.read_text())
    runners = [n for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and n.name.startswith("_run_")]
    assert len(runners) >= 9


def test_runners_read_no_adhoc_defaults():
    assert runner_get_calls(CLI.read_text()) == []


def test_checker_flags_get_in_runners_only():
    source = (
        "def _run_a(ctx):\n"
        "    p = ctx.params\n"
        "    return p.get('n', 3), p['m']\n"
        "def _run_b(ctx):\n"
        "    def inner():\n"
        "        return ctx.params.get('k')\n"
        "    return inner()\n"
        "def _helper(cfg):\n"
        "    return cfg.get('seed', 0)\n"
    )
    assert runner_get_calls(source) == [("_run_a", 3), ("_run_b", 6)]


def test_runners_write_no_files():
    assert runner_file_access(CLI.read_text()) == []


def test_checker_flags_file_access_in_runners_only():
    source = (
        "def _run_a(ctx):\n"
        "    path = os.path.join(ctx.out_dir, 'a.csv')\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write('x')\n"
        "def _run_b(ctx):\n"
        "    write = _atomic_write\n"
        "    return {}\n"
        "def run_config(ctx):\n"
        "    _atomic_write(os.path.join(ctx.out_dir, 'a'), open('b').read())\n"
    )
    assert runner_file_access(source) == [
        ("_run_a", 2, "out_dir"), ("_run_a", 3, "open"), ("_run_b", 6, "_atomic_write")]


def test_checker_flags_a_runner_that_writes_its_own_file():
    source = CLI.read_text()
    anchor = '    return {"chi_map.csv": (header, columns)}\n'
    assert source.count(anchor) == 1
    mutated = source.replace(anchor, (
        '    _atomic_write(os.path.join(ctx.out_dir, "chi_map.csv"), b"")\n' + anchor))
    flagged = runner_file_access(mutated)
    assert [(runner, name) for runner, _, name in flagged] == [
        ("_run_chi_map", "_atomic_write"), ("_run_chi_map", "out_dir")]
