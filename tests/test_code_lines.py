import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import numpy as np  # a trailing comment does not hide the code


class A:
    """Class docstring."""

    # a comment line
    def f(self, x):
        """Function
        docstring."""
        text = """a multi-line string
        that is not a docstring"""
        return np.sum(
            x,
        )
'''


def test_counts_code_lines_only():
    # import, class, def, the two string lines, and the three of the call
    assert code_lines.code_lines(SOURCE) == 8


def test_reads_the_package():
    assert (code_lines.SRC / "transform.py").is_file()


def test_no_private_name_crosses_a_module_boundary():
    # a name with a leading underscore belongs to its module: another module
    # of the package that needs it needs a public name for it
    crossing = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(code_lines.SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not crossing, crossing
