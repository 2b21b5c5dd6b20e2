"""config.py is the one home of the lab's thresholds."""

import ast
from pathlib import Path

import dilatation_lab

PACKAGE = Path(dilatation_lab.__file__).parent


def _small_float_literals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-3]


def test_no_threshold_literal_outside_config():
    # tolerances, floors and slacks are small floats; outside config.py
    # a module names them instead of spelling them out
    found = {str(path.relative_to(PACKAGE)): lits
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "config.py"
             for lits in [_small_float_literals(path)] if lits}
    assert found == {}


def test_config_holds_the_thresholds():
    assert _small_float_literals(PACKAGE / "config.py")
