"""``tools/loc.py``, the code-line count simplification changes quote.

Runs on a canned source whose count is known line by line: docstrings
(module, class, function), comment-only lines and blank lines are not
code; a multi-line expression, a string statement that is not leading
and code after a docstring are.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "loc", ROOT / "tools" / "loc.py"
)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

# A comment-only line.
import os  # a trailing comment leaves the line code


class Thing:
    """Class docstring."""

    value = 1


def total(
    a,
    b,
):
    """Function docstring
    over three lines.
    """
    "a string statement, not leading"
    return (a +
            b)


async def later():
    """Async docstring."""
    return os.sep
'''

#: import; class; value; def total over four lines; the string
#: statement; return over two lines; async def; its return.
CODE_LINES = 1 + 1 + 1 + 4 + 1 + 2 + 1 + 1


def test_canned_source_counts_only_code():
    assert loc.code_lines(SOURCE) == CODE_LINES


def test_docstrings_comments_and_blanks_alone_count_nothing():
    assert loc.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_sums_a_tree(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"{tmp_path}: {CODE_LINES + 1} code lines\n"
    )
    assert loc.main([]) == 2
