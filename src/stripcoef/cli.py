"""Command-line front end.

Every computation of the library is exposed as a reproducible, scriptable
run emitting machine-readable reports.  JSON is the default output; CSV
is provided for table ingestion (one report per row, header mandatory,
17 significant digits so floats round-trip).

Exit status: 0 on success, 1 when any report verdicts as violated (or a
sharpness run misses equality), 2 on configuration errors, 3 on internal
errors (any other exception, a floating-point overflow, division by zero
or invalid operation, or a non-finite number in a JSON report, which is
never printed).  Errors are written to stderr as
structured JSON records.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .logcoef import SchwarzSpec, extremal_gammas, generate_member, random_schwarz_spec
from .maps import DorffParam, StripParams
from .polylog import li4_quadrature, li4_symmetric_circle, polylog
from .verify import (
    EQUALITY,
    TOLERANCE_FLOOR,
    VIOLATED,
    BoundReport,
    _report,
    audit_member,
    audit_min_order,
    reference_constants,
    sharpness,
)

__all__ = ["main", "RunConfig"]

# Size limits, checked before anything is allocated.  The grid floor is the
# order floor membership audits already have: fewer angles check almost
# nothing of the circle.
_MAX_ORDER = 2**18
_MIN_GRID_ANGLES = 64
_MAX_GRID_ANGLES = 2**20
_MAX_SAMPLES = 10_000


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    alpha: float | None = None
    beta: float | None = None
    delta: float | None = None
    order: int = 256
    radius: float = 0.99
    grid_angles: int = 1024
    seed: int = 0
    samples: int = 10
    tolerance: float = TOLERANCE_FLOOR
    output_format: str = "json"
    output_path: str | None = None
    # polylog-command arguments
    s: int = 4
    z_re: float | None = None
    z_im: float | None = None
    theta: float | None = None
    # generate-command arguments (None kind -> seeded random draw)
    schwarz: str | None = None
    c_re: float = 1.0
    c_im: float = 0.0
    k: int = 2
    a_re: float = 0.0
    a_im: float = 0.0
    phi: float = 0.0

    def validate(self) -> None:
        if self.command not in _DISPATCH:
            raise ConfigError(f"unknown command {self.command!r}")
        # every float option, whether or not the command uses it: all are
        # echoed in the report's config, which must stay strict JSON
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name.replace('_', '-')} must be finite")
        if not 8 <= self.order <= _MAX_ORDER:
            raise ConfigError(f"order must lie in [8, {_MAX_ORDER}]")
        if not 0.0 < self.radius < 1.0:
            raise ConfigError("radius must lie in (0, 1)")
        if self.tolerance <= 0.0:
            raise ConfigError("tolerance must be positive")
        if not _MIN_GRID_ANGLES <= self.grid_angles <= _MAX_GRID_ANGLES:
            raise ConfigError(
                f"grid-angles must lie in [{_MIN_GRID_ANGLES}, {_MAX_GRID_ANGLES}]"
            )
        if not 1 <= self.samples <= _MAX_SAMPLES:
            raise ConfigError(f"samples must lie in [1, {_MAX_SAMPLES}]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def target(self):
        """The class parameters; exactly one family must be selected."""
        has_strip = self.alpha is not None or self.beta is not None
        has_dorff = self.delta is not None
        if has_strip and has_dorff:
            raise ConfigError("give either --alpha/--beta or --delta, not both")
        if not (has_strip or has_dorff):
            raise ConfigError("a class is required: --alpha/--beta or --delta")
        if has_strip and (self.alpha is None or self.beta is None):
            raise ConfigError("--alpha and --beta must be given together")
        try:
            return StripParams(self.alpha, self.beta) if has_strip else DorffParam(self.delta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _emit(config: RunConfig, reports: list[BoundReport]) -> str:
    payload = {
        "command": config.command,
        "config": asdict(config),
        "reports": [vars(r) for r in reports],
        "version": __version__,
    }
    if config.output_format == "json":
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # a non-finite report value is a fault, not bad input
            raise RuntimeError(f"report is not strict JSON: {exc}") from None
        return text + "\n"
    # CSV: fixed report columns plus the union of context keys
    keys = sorted({k for r in reports for k in r.context})
    rows = ([r.lhs, r.rhs, r.tail_estimate, r.verdict, *(r.context.get(k, "") for k in keys)]
            for r in reports)
    return _csv(["lhs", "rhs", "tail_estimate", "verdict", *keys], rows)


def _csv(header: list, rows) -> str:
    """CSV with a header row; floats (NumPy's float64 is one) to 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in r] for r in rows)
    return buf.getvalue()


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a path the user gave, not a fault of the program
            raise ConfigError(f"cannot write --output-path: {exc}") from None


def _error(message: str, kind: str, code: int) -> int:
    print(json.dumps({"error": message, "kind": kind}, sort_keys=True), file=sys.stderr)
    return code


def _exit_code(reports: list[BoundReport]) -> int:
    return 1 if any(r.verdict == VIOLATED for r in reports) else 0


# -- commands ----------------------------------------------------------------


def _cmd_bounds(config: RunConfig) -> tuple[str, int]:
    target = config.target()
    context = dict(reference_constants())
    context.update(target.describe(), kind=f"bound_{target.family}")
    reports = [_report(0.0, target.sum_bound(), 0.0, context)]
    return _emit(config, reports), _exit_code(reports)


def _cmd_coeffs(config: RunConfig) -> tuple[str, int]:
    target = config.target()
    gammas = extremal_gammas(target, config.order)
    # per_n_bound(n), not audit_member's per_n_bound(1) / n: see there
    bounds = target.per_n_bound(np.arange(1, config.order + 1))
    reports = []
    for n, g, rhs in zip(range(1, config.order + 1), gammas.tolist(), bounds.tolist()):
        lhs = abs(g)
        context = {
            "n": n,
            "gamma_re": g.real,
            "gamma_im": g.imag,
            "slack": rhs - lhs,
        }
        reports.append(_report(lhs, rhs, 0.0, context, config.tolerance))
    return _emit(config, reports), _exit_code(reports)


def _cmd_verify_sharpness(config: RunConfig) -> tuple[str, int]:
    report = sharpness(config.target(), config.order, config.tolerance)
    return _emit(config, [report]), 0 if report.verdict == EQUALITY else 1


def _cmd_check_membership(config: RunConfig) -> tuple[str, int]:
    target = config.target()
    need = audit_min_order(config.radius)
    if config.order < need:
        raise ConfigError(
            f"order {config.order} too small for radius {config.radius}: "
            f"membership needs order >= {need}"
        )
    rng = np.random.default_rng(config.seed)
    reports: list[BoundReport] = []
    for index in range(config.samples):
        spec = random_schwarz_spec(rng)
        member = generate_member(target, spec, config.order)
        for r in audit_member(
            member, target, config.radius, config.grid_angles, tolerance=config.tolerance
        ):
            context = {**r.context, "sample": index, "seed": config.seed, **spec.describe()}
            reports.append(replace(r, context=context))
    return _emit(config, reports), _exit_code(reports)


def _schwarz_from_config(config: RunConfig) -> SchwarzSpec:
    if config.schwarz is None:
        return random_schwarz_spec(np.random.default_rng(config.seed))
    if config.schwarz == "identity":
        return SchwarzSpec.identity()
    # each family reads only its own parameters
    c, a = complex(config.c_re, config.c_im), complex(config.a_re, config.a_im)
    return SchwarzSpec(config.schwarz, c=c, k=config.k, a=a, phi=config.phi)


def _cmd_generate(config: RunConfig) -> tuple[str, int]:
    target = config.target()
    try:
        spec = _schwarz_from_config(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    member = generate_member(target, spec, config.order)
    rows = ((n, c.real, c.imag) for n, c in enumerate(member.coeffs.tolist()))
    return _csv(["n", "re", "im"], rows), 0


def _cmd_polylog(config: RunConfig) -> tuple[str, int]:
    if config.theta is not None and (config.z_re is not None or config.z_im is not None):
        raise ConfigError("give either --theta or --z-re/--z-im, not both")
    context: dict = {"s": config.s}
    if config.theta is not None:
        theta = config.theta
        if not 0.0 <= theta <= 2.0 * np.pi:
            raise ConfigError("theta must lie in [0, 2*pi]")
        z = complex(np.cos(theta), np.sin(theta))
        context["theta"] = theta
    elif config.z_re is not None or config.z_im is not None:
        z = complex(config.z_re or 0.0, config.z_im or 0.0)
    else:
        raise ConfigError("polylog needs --theta or --z-re/--z-im")
    try:
        result = polylog(config.s, z, config.tolerance)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    context.update(
        z_re=z.real,
        z_im=z.imag,
        series_re=result.value.real,
        series_im=result.value.imag,
        terms_used=result.terms_used,
        tail_bound=result.tail_bound,
    )
    deviation = 0.0
    if config.s == 4 and z != 1.0:
        quad_value = li4_quadrature(z)
        context.update(quadrature_re=quad_value.real, quadrature_im=quad_value.imag)
        deviation = abs(result.value - quad_value)
        context["series_vs_quadrature"] = deviation
    if config.theta is not None and config.s == 4:
        closed = li4_symmetric_circle(config.theta)
        symmetric = 2.0 * result.value.real
        context.update(
            symmetric_closed_form=closed,
            symmetric_from_series=symmetric,
            symmetric_deviation=abs(closed - symmetric),
        )
        deviation = max(deviation, abs(closed - symmetric))
    tol = max(config.tolerance, 1e-8)
    reports = [_report(deviation, tol, result.tail_bound, context, tolerance=0.0)]
    return _emit(config, reports), _exit_code(reports)


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "bounds": _cmd_bounds,
    "verify-sharpness": _cmd_verify_sharpness,
    "check-membership": _cmd_check_membership,
    "generate": _cmd_generate,
    "polylog": _cmd_polylog,
}


def _build_parser() -> argparse.ArgumentParser:
    # no defaults here: an option left out keeps its RunConfig default
    unset = {"argument_default": argparse.SUPPRESS}
    common = argparse.ArgumentParser(add_help=False, **unset)
    common.add_argument("--alpha", type=float, help="lower strip edge (alpha < 1)")
    common.add_argument("--beta", type=float, help="upper strip edge (beta > 1)")
    common.add_argument("--delta", type=float, help="Dorff angle in [pi/2, pi), radians")
    common.add_argument("--order", type=int, help="truncation order")
    common.add_argument("--radius", type=float, help="audit radius in (0, 1)")
    common.add_argument("--grid-angles", type=int)
    common.add_argument("--seed", type=int, help="RNG seed (64-bit)")
    common.add_argument("--samples", type=int)
    common.add_argument("--tolerance", type=float)
    common.add_argument("--output-format", choices=("json", "csv"))
    common.add_argument("--output-path")

    parser = argparse.ArgumentParser(
        prog="stripcoef",
        description="Logarithmic-coefficient bounds for vertical-strip starlike classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("coeffs", parents=[common], help="extremal gammas with per-n bounds")
    sub.add_parser("bounds", parents=[common], help="coefficient-sum bound of a class")
    sub.add_parser(
        "verify-sharpness", parents=[common], help="extremal sum vs bound at given order"
    )
    sub.add_parser(
        "check-membership",
        parents=[common],
        help="audit seeded random members: membership, Rogosinski, per-n bounds",
    )
    gen = sub.add_parser(
        "generate", parents=[common], help="emit Taylor coefficients of one member", **unset
    )
    gen.add_argument(
        "--schwarz",
        choices=("identity", "scaled-rotation", "power", "blaschke-factor"),
        help="Schwarz family (default: seeded random draw)",
    )
    gen.add_argument("--c-re", type=float)
    gen.add_argument("--c-im", type=float)
    gen.add_argument("--k", type=int, help="power-family exponent")
    gen.add_argument("--a-re", type=float)
    gen.add_argument("--a-im", type=float)
    gen.add_argument("--phi", type=float, help="Blaschke rotation, radians")
    pl = sub.add_parser(
        "polylog", parents=[common], help="polylog evaluators with mutual deviations", **unset
    )
    pl.add_argument("--s", type=int, help="polylog weight (integer >= 2)")
    pl.add_argument("--z-re", type=float)
    pl.add_argument("--z-im", type=float)
    pl.add_argument("--theta", type=float, help="circle angle in [0, 2*pi]")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(**vars(args))
    try:
        # a floating-point fault raises, so it ends as an internal error
        # record rather than a warning ahead of a report
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            config.validate()
            text, code = _DISPATCH[config.command](config)
            _write(text, config.output_path)
    except ConfigError as exc:
        return _error(str(exc), "config", 2)
    except ValueError as exc:
        return _error(str(exc), "value", 2)
    except Exception as exc:  # the process boundary: a crash must not read as a verdict
        return _error(f"{type(exc).__name__}: {exc}", "internal", 3)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
