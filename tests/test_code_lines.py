"""tests/code_lines.py, the src/ code-line counter, on a fixture small enough
to count by eye."""

from pathlib import Path

from code_lines import count_code_lines, main

FIXTURE = '''"""A module docstring,
over two lines."""

# a comment
total = (1 +
         2)


def f():
    """A function docstring."""
    return "a string that is no docstring"
'''


def test_counts_each_row_of_code_and_no_docstring_comment_or_blank():
    # the two rows of total's statement, def f() and its return
    assert count_code_lines(FIXTURE) == 4
    assert count_code_lines("") == 0


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(n, Path(path).name) for n, path in rows] == [
        ("4", "a.py"), ("1", "b.py"), ("5", "total")]
