import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import os  # a comment after code


class A:
    """Class docstring."""

    x = """a string
that is not a docstring"""

    def f(self):
        """Function
        docstring."""
        return os.sep
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    """Counted: the import, ``class A:``, both lines of the assigned string,
    ``def f``, and the return."""
    assert load_tool().code_lines(SOURCE) == 6


def test_code_lines_reports_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert load_tool().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["     6  a.py", "     1  b.py", "     7  total"]


def test_a_path_without_modules_is_an_error(tmp_path, capsys):
    """A missing directory, a file, or a directory with no ``*.py`` module
    exits non-zero with a message on stderr, not a total of 0."""
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "empty").mkdir()
    for path in (tmp_path / "missing", tmp_path / "a.py", tmp_path / "empty"):
        assert load_tool().main([str(path)]) != 0
        out, err = capsys.readouterr()
        assert out == "" and "no *.py module" in err and str(path) in err
