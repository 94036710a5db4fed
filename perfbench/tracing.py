"""Spans around calls into stripcoef, recorded from outside the package.

Tracing wraps the public functions of each stripcoef module under every
name a caller can reach them by (the defining module, the package
namespace and each module that did ``from .x import name``), so calls
between modules are timed as well as the benchmark's own calls.  Spans
stay in memory as ``[name, start, end, parent, item, attrs]`` lists and
are written out by the caller at the end of a run.

This module imports neither numpy nor stripcoef, so a traced child can
time the stripcoef import itself.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# prefix of the stderr line on which a traced child reports its spans
SPANS_MARKER = "PERFBENCH_SPANS "


def _points(b, out):
    z = b.arguments["z"]
    return {"points": int(getattr(z, "size", 1))}


def _reports(b, out):
    return {"reports": len(out) if isinstance(out, list) else 1}


def _series_exp(b, out):
    return {"terms": b.arguments["a"].order}


def _circle(b, out):
    samples = b.arguments.get("samples")
    return {"points": samples if samples else 4 * (b.arguments["order"] + 1)}


def _member(b, out):
    return {"kind": b.arguments["w"].kind}


def _polylog(b, out):
    return {"terms": out.terms_used, "tol_met": out.tail_bound <= b.arguments["tol"]}


# (module, function, annotate(bound arguments, result) -> span attributes)
LAYERS = (
    ("series", "series_exp", _series_exp),
    ("series", "log_normalized", None),
    ("series", "coeffs_by_circle_sampling", _circle),
    ("logcoef", "generate_member", _member),
    ("logcoef", "extremal_strip", None),
    ("logcoef", "extremal_dorff", None),
    ("logcoef", "log_coefficients", None),
    ("maps", "p_strip_eval", _points),
    ("maps", "p_hat_eval", _points),
    ("maps", "dorff_eval", _points),
    ("maps", "b_tilde_eval", _points),
    ("polylog", "polylog", _polylog),
    ("polylog", "li4_quadrature", None),
    ("polylog", "li4_symmetric_circle", None),
    ("verify", "audit_member", _reports),
    ("verify", "membership_check", _reports),
    ("verify", "rogosinski_check", _reports),
    ("verify", "convexity_probe", _reports),
    ("verify", "sharpness_strip", _reports),
    ("verify", "sharpness_dorff", _reports),
    ("cli", "main", None),
)

KIND_LABELS = {"scaled-rotation": "rotation", "power": "power", "blaschke-factor": "blaschke"}

# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {
    "import.stripcoef_ms": "ms",
    "import.scipy_ms": "ms",
    "series.series_exp.calls": "count",
    "series.series_exp.self_ms": "ms",
    "series.series_exp.terms": "count",
    "series.log_normalized.calls": "count",
    "series.log_normalized.self_ms": "ms",
    "series.coeffs_by_circle_sampling.self_ms": "ms",
    "series.coeffs_by_circle_sampling.points": "count",
    "logcoef.generate_member.self_ms": "ms",
    "logcoef.generate_member.rotation_self_ms": "ms",
    "logcoef.generate_member.power_self_ms": "ms",
    "logcoef.generate_member.blaschke_self_ms": "ms",
    "logcoef.extremal_strip.self_ms": "ms",
    "logcoef.extremal_dorff.self_ms": "ms",
    "logcoef.log_coefficients.self_ms": "ms",
    "maps.p_strip_eval.self_ms": "ms",
    "maps.p_hat_eval.self_ms": "ms",
    "maps.dorff_eval.self_ms": "ms",
    "maps.b_tilde_eval.self_ms": "ms",
    "maps.eval.points": "count",
    "polylog.polylog.calls": "count",
    "polylog.polylog.self_ms": "ms",
    "polylog.polylog.terms_used": "count",
    "polylog.polylog.tol_met_frac": "fraction",
    "polylog.li4_quadrature.self_ms": "ms",
    "polylog.li4_symmetric_circle.calls": "count",
    "verify.audit_member.self_ms": "ms",
    "verify.membership_check.self_ms": "ms",
    "verify.rogosinski_check.self_ms": "ms",
    "verify.convexity_probe.self_ms": "ms",
    "verify.sharpness_strip.self_ms": "ms",
    "verify.sharpness_dorff.self_ms": "ms",
    "verify.reports": "count",
    "verify.sharpness.discarded_exp_share": "fraction",
    "cli.main.self_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "cli.process_ms": "ms",
    "trace.overhead_items_per_s": "items/s",
    "trace.unaccounted_ms": "ms",
}


class Recorder:
    """In-memory span list for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        now = time.perf_counter()
        self.spans.append([name, now, now, parent, self.item, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int, attrs: dict | None = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = attrs
        self._stack.pop()

    def merge(self, spans: list[list]) -> None:
        """Append finished spans recorded by a child process under the open
        span.  perf_counter is CLOCK_MONOTONIC on Linux, so the child's
        times are on this process's clock."""
        offset = len(self.spans)
        top = self._stack[-1] if self._stack else -1
        for name, start, end, parent, _, attrs in spans:
            parent = offset + parent if parent >= 0 else top
            self.spans.append([name, start, end, parent, self.item, attrs])


def _wrap(rec: Recorder, fn, name: str, annotate):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            attrs = None
            if annotate is not None and out is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = annotate(bound, out)
            rec.end(idx, attrs)

    return wrapper


def install(rec: Recorder) -> list[tuple]:
    """Wrap every layer function under every stripcoef name bound to it.

    Returns the undo list for :func:`uninstall`.  A layer whose module or
    function does not exist is skipped and reports zeros.
    """
    undo = []
    for mod_name, fn_name, annotate in LAYERS:
        try:
            module = importlib.import_module(f"stripcoef.{mod_name}")
        except ImportError:
            continue
        fn = getattr(module, fn_name, None)
        if fn is None:
            continue
        wrapper = _wrap(rec, fn, f"{mod_name}.{fn_name}", annotate)
        for holder_name, holder in list(sys.modules.items()):
            if holder is None or not (
                holder_name == "stripcoef" or holder_name.startswith("stripcoef.")
            ):
                continue
            for attr, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, fn))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for holder, attr, fn in undo:
        setattr(holder, attr, fn)


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times (ms) of stripcoef and of the outermost scipy
    modules, from ``python -X importtime`` output.

    Lines arrive in post-order (a module after everything it imported),
    with two spaces of indent per nesting level.
    """
    entries = []  # (depth, name, cumulative_us)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((depth, name, int(fields[1])))
    stripcoef_us = sum(cum for _, name, cum in entries if name == "stripcoef")
    # walk in reverse (pre-order): skip scipy modules nested in a scipy module
    scipy_us = 0
    scipy_depth = None
    for depth, name, cum in reversed(entries):
        if scipy_depth is not None and depth > scipy_depth:
            continue
        scipy_depth = None
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += cum
            scipy_depth = depth
    return {"stripcoef_ms": stripcoef_us / 1e3, "scipy_ms": scipy_us / 1e3}


def layer_metrics(spans: list[list], items: int) -> dict:
    """Per-item layer metrics from finished spans (see PER_LAYER_UNITS).

    ``self`` time is a span's duration minus the durations of its direct
    children; spans named ``item`` are the per-item roots.
    """
    n = max(items, 1)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[str, float] = {}
    exp_in_sharpness = 0.0
    sharpness = 0.0
    reports = 0

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    for i, (name, _, _, _, _, attrs) in enumerate(spans):
        own = dur[i] - child[i]
        self_ms[name] = self_ms.get(name, 0.0) + own * 1e3
        calls[name] = calls.get(name, 0) + 1
        attrs = attrs or {}
        for key, value in attrs.items():
            if key == "kind":
                label = f"{name}.{KIND_LABELS.get(value, value)}_self_ms"
                attr_sum[label] = attr_sum.get(label, 0.0) + own * 1e3
            elif not isinstance(value, str):
                label = f"{name}.{key}"
                attr_sum[label] = attr_sum.get(label, 0.0) + float(value)
        up = list(ancestors(i))
        if name.startswith("verify.sharpness_") and not any(
            a.startswith("verify.sharpness_") for a in up
        ):
            sharpness += dur[i]
        if name == "series.series_exp" and any(a.startswith("verify.sharpness_") for a in up):
            exp_in_sharpness += dur[i]
        if name.startswith("verify.") and not any(a.startswith("verify.") for a in up):
            reports += attrs.get("reports", 0)

    out = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_ms") and name.rsplit(".", 1)[0] in self_ms:
            out[name] = self_ms[name.rsplit(".", 1)[0]] / n
        elif name.endswith(".calls"):
            out[name] = calls.get(name.rsplit(".", 1)[0], 0) / n
    polylog_calls = calls.get("polylog.polylog", 0)
    maps_points = sum(
        attr_sum.get(f"maps.{f}.points", 0.0)
        for f in ("p_strip_eval", "p_hat_eval", "dorff_eval", "b_tilde_eval")
    )
    main_ms = sum(dur[i] for i, s in enumerate(spans) if s[0] == "cli.main") * 1e3
    item_ms = sum(dur[i] for i, s in enumerate(spans) if s[0] == "item") * 1e3
    out.update(
        {
            "series.series_exp.terms": attr_sum.get("series.series_exp.terms", 0.0) / n,
            "series.coeffs_by_circle_sampling.points": attr_sum.get(
                "series.coeffs_by_circle_sampling.points", 0.0
            ) / n,
            "maps.eval.points": maps_points / n,
            "polylog.polylog.terms_used": attr_sum.get("polylog.polylog.terms", 0.0) / n,
            # vacuously 1 when no polylog call was made
            "polylog.polylog.tol_met_frac": (
                attr_sum.get("polylog.polylog.tol_met", 0.0) / polylog_calls
                if polylog_calls
                else 1.0
            ),
            "verify.reports": reports / n,
            "verify.sharpness.discarded_exp_share": (
                exp_in_sharpness / sharpness if sharpness > 0.0 else 0.0
            ),
            "cli.process_ms": (item_ms - main_ms) / n if main_ms > 0.0 else 0.0,
            "trace.unaccounted_ms": self_ms.get("item", 0.0) / n,
        }
    )
    for kind in KIND_LABELS.values():
        label = f"logcoef.generate_member.{kind}_self_ms"
        out[label] = attr_sum.get(label, 0.0) / n
    for name in PER_LAYER_UNITS:
        out.setdefault(name, 0.0)
    return out
