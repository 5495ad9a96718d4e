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
