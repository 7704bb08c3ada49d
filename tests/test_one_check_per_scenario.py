"""Stdlib-only lints on the config checks in ``cli.py``.

Each scenario states what its config costs in one check, declared in its
``SCENARIOS`` entry beside its runner and schema, and ``_checked`` calls
that check without naming any scenario.  An ``if name == "cz-chevron":``
branch in ``_checked`` would bring back a second place per scenario.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "couplersim" / "cli.py"


def scenario_entries(tree: ast.Module) -> dict:
    """Scenario name -> entry expression of the ``SCENARIOS`` dict literal."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and [getattr(t, "id", None) for t in node.targets] == ["SCENARIOS"]):
            return {key.value: value for key, value in zip(node.value.keys, node.value.values)}
    return {}


def scenario_names_in_checked(source: str) -> list:
    """``(line, name)`` of every scenario-name literal inside ``_checked``."""
    tree = ast.parse(source)
    names = set(scenario_entries(tree))
    return sorted((sub.lineno, sub.value) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_checked"
                  for sub in ast.walk(node)
                  if isinstance(sub, ast.Constant) and sub.value in names)


def entries_without_a_check(source: str) -> list:
    """Scenarios whose entry is not a ``(runner, figure, schema, check)``
    tuple with a named function or a lambda as its check."""
    return sorted(name for name, entry in scenario_entries(ast.parse(source)).items()
                  if not (isinstance(entry, ast.Tuple) and len(entry.elts) == 4
                          and isinstance(entry.elts[3], (ast.Name, ast.Lambda))))


def test_scenarios_and_checked_found():
    source = CLI.read_text()
    assert len(scenario_entries(ast.parse(source))) >= 9
    assert "def _checked(" in source


def test_checked_names_no_scenario():
    assert scenario_names_in_checked(CLI.read_text()) == []


def test_every_scenario_declares_a_check():
    assert entries_without_a_check(CLI.read_text()) == []


def test_checker_flags_a_scenario_branch_in_checked():
    source = CLI.read_text()
    anchor = "    return RunContext(name, seed, out or output, params, rates), "
    assert source.count(anchor) == 1
    mutated = source.replace(anchor, (
        '    if name == "cz-chevron":\n'
        '        _require(params["n_sub"] <= 100_000, "params.n_sub", "too many steps")\n'
        + anchor))
    line = mutated[:mutated.index('if name == "cz-chevron"')].count("\n") + 1
    assert scenario_names_in_checked(mutated) == [(line, "cz-chevron")]


def test_checker_flags_an_entry_without_a_check():
    source = CLI.read_text()
    anchor = "),\n        _leakage_rb_check),"
    assert source.count(anchor) == 1
    mutated = source.replace(anchor, ")),")
    assert entries_without_a_check(mutated) == ["leakage-rb"]
