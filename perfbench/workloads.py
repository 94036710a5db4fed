"""Workload inputs, items and output checks.

Inputs are drawn here from the same distributions as stripcoef's
``random_strip_params``, ``random_dorff_param`` and
``random_schwarz_spec``, and the parameter objects are built directly,
so a change to those helpers cannot change what the benchmark runs.

Every check returns a list of problem strings; an empty list means the
item passed.  Problems that start with ``TOLERANCE`` mean the program
returned a truthful result that misses the accuracy it was asked for:
the item counts as failed, but the output is not wrong.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import stripcoef as sc
from tracing import SPANS_MARKER, parse_importtime

WORKLOADS = ("soundness", "sharpness", "convexity", "cli")

HOLDS = "holds"
EQUALITY = "holds-with-equality"
VIOLATED = "violated"
TOLERANCE = "TOLERANCE"

# Item sizes: the acceptance criteria's, and a tiny set for the smoke test.
SIZES = {
    "full": {
        "member_order": 14020, "audit_radius": 0.999, "audit_angles": 1024,
        "sharp_order": 4096, "probe_radius": 0.99, "probe_order": 2048, "probe_angles": 256,
    },
    "tiny": {
        "member_order": 1500, "audit_radius": 0.99, "audit_angles": 128,
        "sharp_order": 256, "probe_radius": 0.9, "probe_order": 256, "probe_angles": 32,
    },
}


# -- inputs --------------------------------------------------------------------


def draw_strip(rng: np.random.Generator) -> sc.StripParams:
    return sc.StripParams(rng.uniform(-2.0, 0.9), rng.uniform(1.1, 4.0))


def draw_dorff(rng: np.random.Generator) -> sc.DorffParam:
    return sc.DorffParam(rng.uniform(np.pi / 2.0, np.pi - 1e-3))


def draw_schwarz(rng: np.random.Generator) -> sc.SchwarzSpec:
    kind = rng.integers(3)
    phase = np.exp(2j * np.pi * rng.uniform())
    if kind == 0:
        return sc.SchwarzSpec("scaled-rotation", c=complex(rng.uniform(0.0, 1.0) * phase))
    if kind == 1:
        c = complex(rng.uniform(0.0, 1.0) * phase)
        return sc.SchwarzSpec("power", c=c, k=int(rng.integers(2, 6)))
    a = complex(rng.uniform(0.0, 0.8) * phase)
    return sc.SchwarzSpec("blaschke-factor", a=a, phi=float(rng.uniform(0.0, 2.0 * np.pi)))


# -- in-process checks -----------------------------------------------------------


def _finite_problems(reports) -> list[str]:
    out = []
    for r in reports:
        for key in ("lhs", "rhs", "tail_estimate"):
            if not math.isfinite(getattr(r, key)):
                out.append(f"non-finite {key}")
    return out


def check_no_violation(reports) -> list[str]:
    problems = _finite_problems(reports)
    problems += [f"verdict {r.verdict}" for r in reports if r.verdict == VIOLATED]
    return problems


def check_equality(reports) -> list[str]:
    problems = _finite_problems(reports)
    problems += [f"verdict {r.verdict}" for r in reports if r.verdict != EQUALITY]
    return problems


# -- in-process workloads ----------------------------------------------------------


class InProcess:
    """One closed-loop caller of stripcoef inside this process.

    ``draw`` makes one item's inputs, ``run`` does the item's work and
    ``check`` turns its result into problems; ``cycle`` items make one
    whole pass over the workload's mix.  ``controls`` runs once per
    run, untimed: it feeds known-bad inputs through the same check and
    returns a problem when the check fails to flag them.
    """

    cycle = 1

    def __init__(self, name: str, size: dict) -> None:
        self.name = name
        self.size = size

    def draw(self, rng: np.random.Generator, index: int):
        if self.name == "soundness":
            target = draw_strip(rng) if index % 2 == 0 else draw_dorff(rng)
            return target, draw_schwarz(rng)
        if self.name in ("sharpness", "convexity"):
            return draw_strip(rng), draw_dorff(rng)
        raise ValueError(f"unknown in-process workload {self.name!r}")

    def run(self, inputs):
        s = self.size
        if self.name == "soundness":
            target, spec = inputs
            member = sc.generate_member(target, spec, s["member_order"])
            return sc.audit_member(member, target, s["audit_radius"], s["audit_angles"])
        p, d = inputs
        if self.name == "sharpness":
            return [sc.sharpness_strip(p, s["sharp_order"]), sc.sharpness_dorff(d, s["sharp_order"])]
        maps = (
            lambda z: sc.p_strip_eval(p, z),
            lambda z: sc.p_hat_eval(p, z),
            lambda z: sc.dorff_eval(d, z),
            lambda z: sc.b_tilde_eval(d, z),
        )
        return [
            sc.convexity_probe(h, s["probe_radius"], s["probe_angles"], order=s["probe_order"])
            for h in maps
        ]

    def check(self, inputs, reports) -> list[str]:
        if self.name == "sharpness":
            return check_equality(reports)
        return check_no_violation(reports)

    def controls(self) -> list[str]:
        s = self.size
        if self.name == "soundness":
            koebe, _ = sc.koebe_rotation(1.0, s["member_order"])
            reports = sc.audit_member(
                koebe, sc.StripParams(0.5, 1.5), s["audit_radius"], s["audit_angles"]
            )
            if not self.check(None, reports):
                return ["negative control: Koebe audit against a strip passed the check"]
        if self.name == "convexity":
            control = sc.convexity_probe(lambda z: z + 2.0 * z * z, 0.9, 256, order=64)
            if not self.check(None, [control]):
                return ["negative control: z + 2z^2 convexity probe passed the check"]
        return []


# -- cli workload ------------------------------------------------------------------


def cli_commands(rng: np.random.Generator) -> list[list[str]]:
    """The README examples (generate writing to stdout) plus two heavy ones.

    Seeds come from the workload seed; one list is fixed for a whole run,
    so repeats of a command must give identical bytes.
    """
    seeds = [str(int(x)) for x in rng.integers(0, 2**31, size=2)]
    return [
        ["bounds", "--alpha", "0.5", "--beta", "1.5"],
        ["coeffs", "--alpha", "0.5", "--beta", "1.5", "--order", "16"],
        ["verify-sharpness", "--delta", "1.5707963267948966", "--order", "4096"],
        ["check-membership", "--alpha", "0", "--beta", "2", "--samples", "10",
         "--order", "1500", "--seed", seeds[0]],
        ["generate", "--delta", "2.0", "--schwarz", "blaschke-factor", "--a-re", "0.4",
         "--phi", "1.0", "--order", "256", "--seed", seeds[1]],
        ["polylog", "--theta", "3.141592653589793"],
        ["coeffs", "--alpha", "0.5", "--beta", "1.5", "--order", "4096"],
        ["polylog", "--s", "2", "--z-re", "-1"],
    ]


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON number {token}")

    return json.loads(text, parse_constant=reject)


def _check_generate(stdout: str, order: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["n", "re", "im"]:
        return ["generate: missing n,re,im header"]
    if len(rows) != order + 2:
        return [f"generate: {len(rows) - 1} rows for order {order}"]
    values = [(float(re), float(im)) for _, re, im in rows[1:]]
    if not all(math.isfinite(v) for pair in values for v in pair):
        return ["generate: non-finite coefficient"]
    if values[0] != (0.0, 0.0) or abs(values[1][0] - 1.0) > 1e-12 or values[1][1] != 0.0:
        return ["generate: member is not normalized"]
    return []


def _check_payload(command: str, payload: dict) -> list[str]:
    reports = payload.get("reports") or []
    if payload.get("command") != command or not reports:
        return [f"{command}: wrong command or no reports"]
    verdicts = [r["verdict"] for r in reports]
    if command == "bounds":
        if verdicts != [HOLDS] or abs(reports[0]["rhs"] - math.pi**2 / 96.0) > 1e-12:
            return [f"bounds: verdict {verdicts} rhs {reports[0]['rhs']}"]
    elif command == "coeffs":
        if len(reports) != payload["config"]["order"] or set(verdicts) != {HOLDS}:
            return [f"coeffs: {len(reports)} reports, verdicts {sorted(set(verdicts))}"]
    elif command == "verify-sharpness":
        if verdicts != [EQUALITY]:
            return [f"verify-sharpness: verdict {verdicts}"]
    elif command == "check-membership":
        if len(reports) != 4 * payload["config"]["samples"] or VIOLATED in verdicts:
            return [f"check-membership: {len(reports)} reports, verdicts {sorted(set(verdicts))}"]
    elif command == "polylog":
        ctx, config = reports[0]["context"], payload["config"]
        if verdicts != [HOLDS]:
            return [f"polylog: verdict {verdicts}"]
        # closed forms: Li_4(-1) = -7 pi^4 / 720, Li_2(-1) = -pi^2 / 12
        exact = {(4, -1.0): -7.0 * math.pi**4 / 720.0, (2, -1.0): -math.pi**2 / 12.0}
        key = (config["s"], round(ctx["z_re"], 12))
        if key in exact and abs(ctx["series_re"] - exact[key]) > ctx["tail_bound"] + 1e-12:
            return [f"polylog: value {ctx['series_re']} outside its tail bound"]
        if ctx["tail_bound"] > config["tolerance"]:
            return [
                f"{TOLERANCE}: polylog tail_bound {ctx['tail_bound']} above requested "
                f"tolerance {config['tolerance']}"
            ]
    return []


class Cli:
    """One ``stripcoef`` process per item, run one at a time.

    Traced items run ``cli_child.py`` under ``-X importtime`` instead of
    ``python -m stripcoef``; their spans and import times are merged into
    the recorder under the item's span.
    """

    def __init__(self, rng: np.random.Generator, root: Path) -> None:
        self.commands = cli_commands(rng)
        self.cycle = len(self.commands)
        self.root = root
        self.rec = None
        self.digests: dict[tuple, str] = {}
        self.imports: list[dict] = []
        self.stdout_bytes = 0

    def draw(self, rng: np.random.Generator, index: int) -> list[str]:
        return self.commands[index % self.cycle]

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.rec is None:
            cmd = [sys.executable, "-m", "stripcoef", *argv]
        else:
            child = str(self.root / "perfbench" / "cli_child.py")
            cmd = [sys.executable, "-X", "importtime", child, *argv]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, timeout=120)
        if self.rec is not None:
            stderr = proc.stderr.decode(errors="replace")
            for line in stderr.splitlines():
                if line.startswith(SPANS_MARKER):
                    self.rec.merge(json.loads(line[len(SPANS_MARKER):]))
            self.imports.append(parse_importtime(stderr))
            self.stdout_bytes += len(proc.stdout)
        return proc

    def check(self, argv: list[str], proc: subprocess.CompletedProcess) -> list[str]:
        command = argv[0]
        if proc.returncode != 0:
            return [f"{command}: exit code {proc.returncode}, expected 0"]
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if self.digests.setdefault(tuple(argv), digest) != digest:
            return [f"{command}: output bytes differ between repeats"]
        try:
            text = proc.stdout.decode()
            if command == "generate":
                return _check_generate(text, int(argv[argv.index("--order") + 1]))
            return _check_payload(command, _strict_json(text))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{command}: malformed output ({exc})"]

    def controls(self) -> list[str]:
        return []
