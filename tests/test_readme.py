"""The README's "Library example" runs as written and prints what its
comment says."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    assert float(printed.getvalue()) == pytest.approx(0.2, abs=1e-9)
