"""The README's library example runs as written against the package."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first Python block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


@pytest.mark.parametrize("kind", ["x", "full"])
def test_readme_library_example_runs(kind):
    # With "full" first, the caller's Factors is not consumed: its LU still
    # solves the custom selector that follows.
    code = library_example().replace('selector("x", 2, 1, 1)', f'selector("{kind}", 2, 1, 1)')
    assert f'selector("{kind}", 2, 1, 1)' in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == code.count("print(") and all(lines)
