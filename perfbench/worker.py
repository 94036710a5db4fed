"""Measuring child of ``perfbench/run.py``; not meant to be run by hand.

Modes:
  setup    import stripcoef, run one untimed warm-up item, report the time
           since ``--spawned-at`` (the parent's perf_counter at spawn)
  measure  warm up, then a closed loop of items for ``--seconds``, untraced
  trace    warm up, then an untraced loop and a traced loop of the same
           inputs for half of ``--seconds`` each

The last line of stdout is one JSON object with the results.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stripcoef  # first, so that nothing it imports is loaded before it

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]


class Loop:
    """Outcome of one closed loop: per-item wall times and problems."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.problems: list[list[str]] = []
        self.elapsed = 0.0
        self.cpu = 0.0

    @property
    def items_per_s(self) -> float:
        return len(self.times) / self.elapsed


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_item(wl, inputs, rec=None):
    """Run and check one item; returns (wall seconds, problems)."""
    if rec is not None:
        rec.item += 1
        span = rec.begin("item")
    start = time.perf_counter()
    try:
        out = wl.run(inputs)
    except Exception as exc:  # an item that raises is a counted failure
        out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - start
    if rec is not None:
        rec.end(span)
    if out is not None:
        problems = wl.check(inputs, out)
    return wall, problems


def closed_loop(wl, seed: int, seconds: float, rec=None) -> Loop:
    """Items one after another until `seconds` have passed and the last
    pass over the workload's mix is whole."""
    rng = np.random.default_rng(seed)
    loop = Loop()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    index = 0
    while True:
        wall, problems = run_item(wl, wl.draw(rng, index), rec)
        loop.times.append(wall)
        loop.problems.append(problems)
        index += 1
        if time.perf_counter() - start >= seconds and index % wl.cycle == 0:
            break
    loop.elapsed = time.perf_counter() - start
    loop.cpu = _cpu_seconds() - cpu0
    return loop


def import_times(runs: int) -> dict:
    """Median stripcoef and scipy import times of fresh interpreters."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import stripcoef"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(tracing.parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def blas_config() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    if Path(stripcoef.__file__).resolve().parents[1] != ROOT / "src":
        print(f"stripcoef imported from {stripcoef.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 3

    if args.workload == "cli":
        wl = workloads.Cli(np.random.default_rng(args.seed), ROOT)
    else:
        wl = workloads.InProcess(args.workload, workloads.SIZES[args.size])

    # warm-up inputs come from their own stream, so the timed items are
    # the same whatever the warm-up does
    warm_rng = np.random.default_rng([args.seed, 1])
    warm_wall, warm_problems = run_item(wl, wl.draw(warm_rng, 0))
    if args.mode == "setup":
        ready = time.perf_counter()
        # cli: the setup item is itself a fresh interpreter
        setup = warm_wall if args.workload == "cli" else ready - args.spawned_at
        print(json.dumps({"setup_s": setup, "problems": warm_problems}))
        return 0

    controls = wl.controls()
    result = {"warmup_problems": warm_problems, "control_problems": controls}
    if args.mode == "measure":
        loop = closed_loop(wl, args.seed, args.seconds)
        peak = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        ).ru_maxrss
        result.update(
            times=loop.times,
            problems=loop.problems,
            elapsed=loop.elapsed,
            cpu=loop.cpu,
            peak_rss_mb=peak / 1024.0,
            blas=blas_config(),
        )
    else:
        untraced = closed_loop(wl, args.seed, args.seconds / 2.0)
        rec = tracing.Recorder()
        if args.workload == "cli":
            wl.rec = rec
            undo = []
        else:
            undo = tracing.install(rec)
        traced = closed_loop(wl, args.seed, args.seconds / 2.0, rec)
        tracing.uninstall(undo)
        items = len(traced.times)
        layers = tracing.layer_metrics(rec.spans, items)
        if args.workload == "cli":
            imports = {k: sum(s[k] for s in wl.imports) / items for k in wl.imports[0]}
            layers["cli.stdout_bytes"] = wl.stdout_bytes / items
        else:
            imports = import_times(3)
        layers["import.stripcoef_ms"] = imports["stripcoef_ms"]
        layers["import.scipy_ms"] = imports["scipy_ms"]
        layers["trace.overhead_items_per_s"] = traced.items_per_s - untraced.items_per_s
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "item", "attrs"],
                           "spans": rec.spans}, fh)
        result.update(
            times=untraced.times + traced.times,
            problems=untraced.problems + traced.problems,
            untraced_items_per_s=untraced.items_per_s,
            untraced_p50_ms=statistics.median(untraced.times) * 1e3,
            traced_items_per_s=traced.items_per_s,
            traced_item_ms=sum(traced.times) / items * 1e3,
            layers=layers,
            blas=blas_config(),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
