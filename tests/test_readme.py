"""The README's library example and command-line examples run as written
and print what they say."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stripcoef

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


def _cli_examples() -> list[list[str]]:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [b.replace("\\\n", " ") for b in blocks]
    commands = [shlex.split(c) for b in lines for c in b.splitlines()]
    return [c[1:] for c in commands if c and c[0] == "stripcoef"]


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON number {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", _cli_examples(), ids=lambda argv: argv[0])
def test_cli_example(argv, tmp_path):
    # the package the tests import, wherever it lives, also for the child
    paths = [str(Path(stripcoef.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "stripcoef", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    if "--output-path" in argv:
        path = tmp_path / argv[argv.index("--output-path") + 1]
        assert proc.stdout == ""
        assert path.read_text().startswith("n,re,im\n")
    else:
        assert _strict_json(proc.stdout)["command"] == argv[0]
