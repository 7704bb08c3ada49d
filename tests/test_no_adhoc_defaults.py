"""Stdlib-only lint: no scenario runner in ``cli.py`` calls ``.get(``.

Every scenario parameter is declared once, with its default, in the
``SCENARIOS`` schema; the runners (``_run_*``) index ``ctx.params[key]``.
A ``.get(key, default)`` in a runner would bring back an undeclared
default.
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
