"""Benchmark of the ginfo toolkit: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-dense --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload cli-mix --seed 1 --seconds 55 --trace 1 --record runs.jsonl
    python3 bench/run.py --compare before.jsonl after.jsonl

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
name every metric with its unit and sample count. ``--trace 0`` reports the
``end_to_end`` metrics of BENCHMARK.json and ``--trace 1`` its ``per_layer``
metrics, from a separate run of a fixed operation list under the tracer.
``--record`` appends the full result (environment, sample counts, the whole
span table) to a JSON-lines file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    import numpy as np
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "blas": blas}


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def run_ops(workload, ops, traced_stats_dir: Path | None = None):
    """Run and check each operation in turn; return outcomes and failure notes."""
    outcomes, problems = [], []
    for index, op in enumerate(ops):
        stats = None if traced_stats_dir is None else str(traced_stats_dir / f"span{index}.json")
        try:
            outcome = workload.run(op, stats)
            notes = workload.check(op, outcome)
        except Exception as exc:   # one failed operation must not end the run
            outcome, notes = None, [f"{type(exc).__name__}: {exc}"]
        outcomes.append(outcome)
        problems.append(notes)
    return outcomes, problems


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall time from a fresh interpreter to ginfo imported, inputs made, one op done."""
    from workloads import child_env
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--probe",
                               "--workload", name, "--seed", str(seed)],
                              env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return times


def end_to_end(workload, seconds: float) -> dict:
    setups = measure_setup(workload.name, workload.seed)
    call_s, work, rss_kb, failed, notes = [], 0, 0, 0, []
    index = 1                     # operation 0 was the warm-up
    deadline = time.perf_counter() + seconds
    while True:
        op = workload.ops[index % len(workload.ops)]
        (outcome,), (problems,) = run_ops(workload, [op])
        index += 1
        if outcome is not None:
            call_s.append(outcome.seconds)
            work += outcome.work
            rss_kb = max(rss_kb, outcome.rss_kb)
        if problems:
            failed += 1
            notes.append(problems)
        if time.perf_counter() >= deadline:
            break
    if not rss_kb:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = index - 1
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "call_s.p50": (statistics.median(call_s), "s", len(call_s)),
        "call_s.p90": (percentile_90(call_s), "s", len(call_s)),
        "work_per_s": (work / sum(call_s), "1/s", len(call_s)),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB", 1),
    }
    return {"attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics}


def import_times(module: str, workdir: Path) -> dict:
    """Import cost from ``-X importtime``, in seconds.

    ``import.ginfo_s`` is the whole ``import <module>``, nested imports
    included; ``import.numpy_s`` and ``import.scipy_s`` sum the self time of
    every numpy or scipy module loaded on the way, whoever triggered it.
    """
    from workloads import child_env
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                          env=child_env(), cwd=workdir, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=True)
    totals = {"numpy": 0, "scipy": 0, "ginfo": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, field = line[len("import time:"):].split("|")
        package = field.strip().split(".")[0]
        if package in ("numpy", "scipy"):
            totals[package] += int(self_us)
        elif package == "ginfo" and field[1:2] != " ":     # outermost entry
            totals[package] += int(cumulative_us)
    return {f"import.{pkg}_s": us / 1e6 for pkg, us in totals.items()}


def traced_pass(workload, ops):
    """Run ``ops`` under the tracer; return outcomes, problems and the span table."""
    from tracer import Tracer, merge
    stats_dir = workload.workdir / "spans"
    stats_dir.mkdir(parents=True, exist_ok=True)
    with Tracer() as tracer:     # child processes write their own span tables
        outcomes, problems = run_ops(workload, ops, stats_dir)
    layers = tracer.table()
    for path in sorted(stats_dir.glob("span*.json")):
        merge(layers, json.loads(path.read_text()))
        path.unlink()
    return outcomes, problems, layers


def per_layer(workload, spec: dict) -> dict:
    ops = workload.ops[1:1 + workload.trace_ops]
    untraced, problems = run_ops(workload, ops)
    traced, traced_problems, layers = traced_pass(workload, ops)
    problems += traced_problems
    if any(o is None for o in untraced + traced):
        raise RuntimeError(f"operations raised: {[p for p in problems if p][:3]}")
    for name, count in sorted(workload.expected_calls(ops, traced).items()):
        got = layers.get(name, {}).get("calls", 0)
        if got != count:
            problems.append([f"traced {name}.calls = {got}, expected {count}"])
    samples = [import_times(workload.module, workload.workdir) for _ in range(IMPORT_REPEATS)]
    values = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    values["trace.overhead_s"] = (sum(o.seconds for o in traced)
                                  - sum(o.seconds for o in untraced))
    values.update(workload.ratios(ops, traced, layers))
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name not in values:
            span, _, field = name.rpartition(".")
            rows = [row for key, row in layers.items()
                    if key == span or key.startswith(span + ".dim")]
            calls = sum(r["calls"] for r in rows)
            values[name] = {"calls": calls,
                            "self_s": sum(r["self_s"] for r in rows),
                            "us_per_call": (sum(r["total_s"] for r in rows) / calls * 1e6
                                            if calls else 0.0)}[field]
        metrics[name] = (values[name], entry["unit"], IMPORT_REPEATS
                         if name.startswith("import.") else len(ops))
    notes = [p for p in problems if p]
    return {"attempted": len(problems), "failed": len(notes), "notes": notes,
            "metrics": metrics, "layers": layers}


def report(args, env, result, spec) -> dict:
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} closed loop, one client")
    print("# env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for name, (value, unit, count) in result["metrics"].items():
        gate = "" if name in names else "  (printed only, no bound)"
        print(f"{args.workload:12s} {name:48s} {value:16.9g} {unit:6s} n={count}{gate}")
    print(f"{args.workload:12s} {'fail_ratio':48s} {result['failed']:>10d}/{result['attempted']:<5d}")
    if args.trace:
        print("# spans: name calls self_s us_per_call")
        for key, row in result["layers"].items():
            per_call = row["total_s"] / row["calls"] * 1e6
            print(f"#   {key:48s} {row['calls']:8d} {row['self_s']:12.6f} {per_call:12.3f}")
    for notes in result["notes"][:5]:
        print("failed: " + "; ".join(notes), file=sys.stderr)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": result["metrics"][n][0], "unit": result["metrics"][n][1]}
                        for n in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two recorded result sets")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        from compare import compare
        print(compare(*args.compare, spec))
        return 0
    if not (ROOT / "src" / "ginfo" / "__init__.py").is_file():
        print(f"no ginfo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("GINFO_NUM_THREADS", None)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.setup()
        if args.probe:
            return 0
        env = environment()
        result = per_layer(workload, spec) if args.trace else end_to_end(workload, args.seconds)
        line = report(args, env, result, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, **line,
                  "unbounded": {k: {"value": v[0], "unit": v[1]}
                                for k, v in result["metrics"].items() if k not in line["metrics"]},
                  "samples": {k: v[2] for k, v in result["metrics"].items()}}
        if args.trace:
            record["layers"] = result["layers"]
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
