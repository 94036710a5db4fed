"""Property test over the CLI argument space, run in-process through main.

Half the drawn configurations are valid; the other half break one
option with a value validation must reject.  Sizes stay small: the
over-cap values are rejected before anything is allocated.  JSON output
only, apart from `generate`'s CSV: CSV formatting has its own tests in
test_cli.py.
"""

import contextlib
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stripcoef.cli import main  # noqa: E402

HUGE = 10**9  # above every size cap
NAN, INF = float("nan"), float("inf")

_CLASS = st.one_of(
    st.fixed_dictionaries(
        {"--alpha": st.floats(-3.0, 0.99), "--beta": st.floats(1.01, 5.0)}
    ),
    st.fixed_dictionaries({"--delta": st.floats(math.pi / 2.0, 3.1)}),
)

_COMMON = st.fixed_dictionaries(
    {},
    optional={
        "--order": st.integers(8, 160),
        "--radius": st.floats(0.05, 0.8),
        "--grid-angles": st.integers(64, 256),
        "--samples": st.integers(1, 2),
        "--seed": st.integers(0, 2**32),
        "--tolerance": st.floats(1e-12, 1.0),
    },
)

_EXTRA = {
    "generate": [
        st.fixed_dictionaries(
            {},
            optional={
                "--schwarz": st.sampled_from(
                    ["identity", "scaled-rotation", "power", "blaschke-factor"]
                ),
                "--c-re": st.floats(-0.7, 0.7),
                "--c-im": st.floats(-0.7, 0.7),
                "--k": st.integers(1, 4),
                "--a-re": st.floats(-0.9, 0.9),
                "--phi": st.floats(-4.0, 4.0),
            },
        )
    ],
    "polylog": [
        st.one_of(
            st.fixed_dictionaries({"--theta": st.floats(0.0, 2.0 * math.pi)}),
            st.fixed_dictionaries(
                {"--z-re": st.floats(-0.7, 0.7)}, optional={"--z-im": st.floats(-0.7, 0.7)}
            ),
        ),
        st.fixed_dictionaries({}, optional={"--s": st.integers(2, 6)}),
    ],
}

# values validation must reject; each is drawn only for a command that has the flag
_BAD_COMMON = [
    ("--order", 7), ("--order", HUGE),
    ("--grid-angles", 63), ("--grid-angles", HUGE),
    ("--samples", 0), ("--samples", HUGE),
    ("--radius", 1.0), ("--radius", NAN),
    ("--tolerance", 0.0), ("--tolerance", NAN), ("--tolerance", INF),
    ("--alpha", 1.5), ("--alpha", -INF), ("--beta", NAN),
    ("--delta", 3.5), ("--delta", NAN),
]
_BAD = {
    "generate": [("--c-re", NAN), ("--c-re", 1.5), ("--k", 0), ("--a-re", 1.0), ("--phi", INF)],
    "polylog": [
        ("--z-re", 1.5), ("--z-im", NAN), ("--theta", 7.0), ("--theta", INF),
        ("--s", 1), ("--s", 49),
    ],
}

_COMMANDS = ["coeffs", "bounds", "verify-sharpness", "check-membership", "generate", "polylog"]


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON number {token}")

    return json.loads(text, parse_constant=reject)


@st.composite
def argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    options = {**draw(_CLASS), **draw(_COMMON)}
    for extra in _EXTRA.get(command, []):
        options.update(draw(extra))
    if draw(st.booleans()):
        flag, value = draw(st.sampled_from(_BAD_COMMON + _BAD.get(command, [])))
        options[flag] = value
    # "--flag=value" keeps a leading minus sign from reading as a flag
    return [command] + [f"{flag}={value}" for flag, value in options.items()]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(args=argv())
def test_exit_code_and_strict_json(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out.getvalue() == ""
        assert _strict_json(err.getvalue())["kind"] in ("config", "value", "internal")
        return
    assert err.getvalue() == ""
    if args[0] == "generate":  # the member's coefficients, as CSV
        assert out.getvalue().startswith("n,re,im\n")
    else:
        assert _strict_json(out.getvalue())["command"] == args[0]
