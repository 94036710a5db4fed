"""stripcoef benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {soundness,sharpness,convexity,cli}
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is taken from ``src/`` next to this
directory, never from an installed copy.  Every workload is a closed
loop with one caller, so a slower program gets less work done in the
same time.  See ``BENCHMARK.json`` for why each workload exists.

``--trace 0`` reports the end-to-end metrics: set-up is timed in fresh
interpreters, then a measuring child runs items for ``--seconds``.
``--trace 1`` reports per-layer metrics from a child that runs the same
inputs untraced and then traced, half of ``--seconds`` each.

Human-readable lines (``name = value unit``, the environment) come first;
the last stdout line is the JSON result.  A copy of the full record, and
for traced runs the spans, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("soundness", "sharpness", "convexity", "cli")
SETUP_RUNS = 3
# stripcoef itself runs one thread; a second BLAS thread bought about 5 %
# on soundness at twice the CPU time, and ties the timings to the load on
# every core of a shared machine
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "item_ms_p50": "ms",
    "cpu_ms_per_item": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    """The package from this checkout only, with a fixed BLAS thread count."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), **BLAS_THREADS}


def run_worker(args, mode: str, env: dict, deadline: float, extra=()) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds), "--mode", mode,
        "--size", args.size, *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the worker started")
    if mode == "setup":
        cmd += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def loadavg() -> list[float]:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return []


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git, which
    would search parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def percentile_p90(times_ms: list[float]):
    """p90 and the number of items beyond it, or None with fewer than ten."""
    if len(times_ms) < 2:
        return None
    p90 = statistics.quantiles(times_ms, n=10)[-1]
    beyond = sum(t > p90 for t in times_ms)
    return (p90, beyond) if beyond >= 10 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny item sizes, for the smoke test only")
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "stripcoef" / "__init__.py").is_file():
        print(f"no stripcoef package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + 170.0
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    load_before = loadavg()
    try:
        if args.trace == 0:
            setups = [run_worker(args, "setup", env, deadline) for _ in range(SETUP_RUNS)]
            res = run_worker(args, "measure", env, deadline)
        else:
            setups = []
            spans = out_dir / f"{stem}-spans.json"
            res = run_worker(args, "trace", env, deadline, ["--spans-out", str(spans)])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    load_after = loadavg()

    times_ms = [t * 1e3 for t in res["times"]]
    attempted = len(res["times"])
    failed = sum(1 for p in res["problems"] if p)
    checked = res["problems"] + [s["problems"] for s in setups] + [res["warmup_problems"]]
    problems = sorted({x for p in checked for x in p}) + res["control_problems"]
    # a tolerance miss fails its item but is not a wrong output
    correct = all(x.startswith("TOLERANCE") for x in problems)

    lines = [f"workload = {args.workload}, seed = {args.seed}, seconds = {args.seconds}, "
             f"trace = {args.trace}, items = {attempted}"]
    if args.trace == 0:
        metrics = {
            "items_per_s": attempted / res["elapsed"],
            "item_ms_p50": statistics.median(times_ms),
            "cpu_ms_per_item": res["cpu"] / attempted * 1e3,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        extra = {"failed_frac": failed / attempted}
        p90 = percentile_p90(times_ms)
        lines += [f"{k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
        lines.append(f"item_ms_p90 = {p90[0]:.6g} ms (n = {attempted}, {p90[1]} beyond)"
                     if p90 else f"item_ms_p90 = not reported (n = {attempted}, "
                     "fewer than ten items beyond p90)")
        if p90:
            extra["item_ms_p90"] = p90[0]
        lines.append(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    else:
        units = PER_LAYER_UNITS
        metrics = res["layers"]
        lines += [f"{k} = {metrics[k]:.6g} {units[k]}" for k in units]
        # import is paid per item only where each item is a fresh process
        timed = [k for k in units if k.endswith(".self_ms")] + ["trace.unaccounted_ms"]
        if args.workload == "cli":
            timed.append("import.stripcoef_ms")
            lines.append(f"import.stripcoef_ms / untraced item_ms_p50 = "
                         f"{metrics['import.stripcoef_ms'] / res['untraced_p50_ms']:.1%}")
        shares = sorted(((metrics[k] / res["traced_item_ms"], k) for k in timed), reverse=True)
        lines.append("share of traced item time: " + ", ".join(
            f"{k} {s:.1%}" for s, k in shares if s >= 0.01))
        extra = {k: res[k] for k in ("untraced_items_per_s", "traced_items_per_s",
                                      "untraced_p50_ms", "traced_item_ms")}
    for problem in problems:
        lines.append(f"problem: {problem}")

    environment = {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": res["blas"],
        "threads": {k: env.get(k) for k in sorted(env) if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
    }
    lines.append("environment = " + json.dumps(environment, sort_keys=True))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "attempted": attempted, "failed": failed,
        "correct": correct, "problems": problems, "metrics": metrics, "extra": extra,
        "setup_samples_s": [s["setup_s"] for s in setups], "item_ms": times_ms,
        "environment": environment,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
