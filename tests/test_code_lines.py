"""tools/code_lines.py counts code lines without comments or docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    s = """a string that is
not a docstring"""
    return (x +
            1)


class A:
    \'\'\'Class docstring.\'\'\'
    y = os.sep
'''


def test_counts_a_planted_sample(tmp_path, capsys):
    # import, def, the two lines of s, the two lines of return, class, y
    assert code_lines.code_lines(SAMPLE) == 8
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    (tmp_path / "empty.py").write_text("# nothing but a comment\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n")[-2].split() == ["8", "total"]
