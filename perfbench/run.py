"""Benchmark for agtaut: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; nothing needs installing, because
the package is imported from src/.  Every pass of a workload runs in a
fresh interpreter (workloads.py), so caches start cold, as they do for a
user of the `agtaut` command.  Passes repeat until --seconds are spent and
the reported timings are medians over them, in reference seconds: wall
time scaled by the machine's speed at the moment (calibrate.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
traced passes, alternated with untraced passes for the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import calibrate
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SCRIPT = Path(__file__).resolve().parent / "workloads.py"
WORKLOADS = ("verify-all", "ring-socle", "query-stream")

# setup_s: a fresh interpreter imports agtaut.cli and answers one trivial query.
SETUP_QUERY = ["sp-order", "--g", "1", "--n", "2"]
SETUP_ANSWER = "6\n"
# Samples are taken in groups before and after every pass, so that they
# spread over the run instead of sharing one moment's machine load.
SETUP_GROUP = 5
# A pass that runs longer than this is killed and the run fails.
PASS_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same str hashes, so same set orders, in every pass
    return env


def run_child(args: List[str]) -> tuple:
    """Run `python <args>` in a fresh interpreter from the checkout root;
    returns (seconds elapsed, completed process)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def setup_once() -> tuple:
    """Reference seconds for `python -m agtaut <SETUP_QUERY>`, and whether it
    answered correctly.  The machine's speed is taken from the calibration
    kernel just before and just after (see calibrate.py)."""
    before = calibrate.speed_factor()
    elapsed, proc = run_child(["-m", "agtaut", *SETUP_QUERY])
    factor = (before + calibrate.speed_factor()) / 2
    return elapsed * factor, proc.returncode == 0 and proc.stdout == SETUP_ANSWER


def run_pass(workload: str, seed: int, trace: bool, check: bool) -> dict:
    """One pass in a fresh interpreter; returns its JSON report plus the
    pass's own elapsed time, interpreter start-up included."""
    args = [str(WORKLOAD_SCRIPT), "--workload", workload, "--seed", str(seed)]
    elapsed, proc = run_child(args + ["--trace"] * trace + ["--check"] * check)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["elapsed"] = elapsed
    return report


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Untraced passes (and, with trace, traced ones in alternation) until
    the next pass would overrun `seconds`; at least one of each.  Untraced
    runs also sample setup_s around every pass.  Only the first pass checks
    outputs: every pass sees the same inputs, and the digests show that
    every pass printed the same outputs."""
    plain: List[dict] = []
    traced: List[dict] = []
    setup: List[tuple] = []
    if not trace:
        setup_once()  # writes the bytecode caches; not timed
    deadline = time.perf_counter() + seconds
    while True:
        if not trace:
            setup += [setup_once() for _ in range(SETUP_GROUP)]
        plain.append(run_pass(workload, seed, trace=False, check=not plain))
        if trace:
            traced.append(run_pass(workload, seed, trace=True, check=False))
        step = plain[-1]["elapsed"] + (traced[-1]["elapsed"] if trace else 0.0)
        if time.perf_counter() + step > deadline:
            break
    if not trace:
        setup += [setup_once() for _ in range(SETUP_GROUP)]
    return plain, traced, setup


def metadata(seed: int) -> dict:
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = "unavailable"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    src_lines = sum(
        1
        for path in sorted((ROOT / "src" / "agtaut").glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": load,
        "commit": commit,
        "seed": seed,
        "src_nonblank_lines": src_lines,
    }


def show(name: str, value, unit: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<36} {text} {unit}".rstrip())


def layer_metrics(report: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    metrics: Dict[str, float] = {}
    for layer, _, func, work in tracing.TARGETS:
        name = f"{layer}.{func}"
        self_s, calls, count = report["layers"][name]
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.calls"] = calls
        if work:
            metrics[f"{name}.{work[0]}"] = count
    for prefix, stats in report["caches"].items():
        metrics[f"{prefix}.hit_ratio"] = stats["hit_ratio"]
        metrics[f"{prefix}.cache_size"] = stats["size"]
    from agtaut.verify import CHECKS

    roots = {name: (elapsed, own) for name, elapsed, own, _ in report["roots"]}
    for suite in CHECKS:
        metrics[f"verify.{suite}_s"] = roots.get(f"verify.{suite}", (0.0, 0.0))[0]
    metrics["verify.self_s"] = sum(own for name, (_, own) in roots.items() if name.startswith("verify."))
    return metrics


def trace_adds_up(report: dict) -> bool:
    """The root spans together cover the pass's wall_s, up to the loop
    around them.  (Inside a root, the layer self times plus the root's own
    self time add up to its duration by construction; see tracer.py.)"""
    covered = sum(elapsed for _, elapsed, _, _ in report["roots"])
    return abs(covered - report["raw_wall_s"]) <= 0.01 * report["raw_wall_s"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    print(f"== {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    plain, traced, setup = run_passes(workload, seed, seconds, trace)
    passes = plain + traced
    attempted = len(setup) + sum(p["attempted"] for p in passes)
    failed = sum(not ok for _, ok in setup) + sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    correct = failed == 0 and len(digests) == 1
    for p in passes:
        for problem in p["problems"]:
            print(f"  FAILED {problem}")
    if len(digests) != 1:
        print("  FAILED passes printed different outputs")

    show("passes (untraced, traced)", f"{len(plain)}, {len(traced)}")
    show("wall_s of each pass", " ".join(f"{p['wall_s']:.4g}" for p in passes), "s")
    show("unscaled wall time of each pass", " ".join(f"{p['raw_wall_s']:.4g}" for p in passes), "s")
    show("median kernel time of each pass", " ".join(f"{1e6 * p['kernel_median_s']:.4g}" for p in passes), "us")
    show("output digest", digests.pop() if len(digests) == 1 else "differs")
    show("attempted", attempted)
    show("error_rate", failed / attempted)

    wall = statistics.median(p["wall_s"] for p in plain)
    metrics: Dict[str, float] = {}
    if trace:
        layers = [layer_metrics(p) for p in traced]
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        metrics["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in traced) / wall
        if not all(trace_adds_up(p) for p in traced):
            print("  FAILED root spans do not cover wall_s")
            correct = False
        _show_roots(traced[0])
    else:
        metrics["setup_s"] = statistics.median(t for t, _ in setup)
        metrics["wall_s"] = wall
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
        _show_parts(plain, wall)
    units = declared_units(trace)
    if set(units) != set(metrics):
        print(f"  FAILED metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
        correct = False
    for name, value in metrics.items():
        show(name, value, units.get(name, "?"))
    for prefix, stats in plain[0]["caches"].items():
        show(f"cache {prefix}", f"hits {stats['hits']} misses {stats['misses']} size {stats['size']}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units.get(name, "?")} for name, v in metrics.items()},
    }


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def _show_parts(plain: List[dict], wall: float) -> None:
    """Workload-specific figures, printed but not gated (see README.md)."""
    for part in plain[0]["parts"]:
        seconds = statistics.median(p["parts"][part] for p in plain)
        show(part, f"{seconds:.6g} s, {100 * seconds / wall:.1f} % of wall_s")
    if "latencies_ms" in plain[0]:
        latencies = [t for p in plain for t in p["latencies_ms"]]
        show("samples", len(latencies))
        show("queries_per_s", plain[0]["attempted"] / wall, "1/s")
        show("latency_p50_ms", statistics.median(latencies), "ms")
        show("latency_p99_ms", statistics.quantiles(latencies, n=100)[98], "ms")


def _show_roots(report: dict) -> None:
    """Where each root span's time went, largest layers first."""
    for name, elapsed, own, inside in report["roots"]:
        top = sorted(inside.items(), key=lambda kv: -kv[1])[:4]
        split = ", ".join(f"{k} {v:.3g}" for k, v in top)
        print(f"  span {name} {elapsed:.4g} s: self {own:.3g}, {split}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "agtaut" / "cli.py").is_file():
        print(f"error: no agtaut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print("meta " + json.dumps(metadata(args.seed), sort_keys=True))
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
