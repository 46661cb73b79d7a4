"""The README's library example runs as written against the package."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first Python block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    code = library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == code.count("print(") and all(lines)
