"""The README's library example runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    bound, *verdicts = out.getvalue().splitlines()
    assert abs(float(bound) - np.pi**2 / 96.0) < 1e-15
    assert verdicts == ["holds-with-equality", "holds-with-equality"]
