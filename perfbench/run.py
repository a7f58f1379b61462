"""permpat benchmark: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload all --steady 10         # spread report
    python3 perfbench/run.py --workload match --seed 1 --trace 1

``--trace 0`` prints every end-to-end metric by name with its unit, then,
as the last line, a JSON object with the keys correct, attempted, failed
and metrics.  ``--trace 1`` prints the per-layer metrics instead: it runs
the workload untraced and traced (for the tracing overhead, the span file
and the self-time table) and then the layer probes of ``layers.py``.  The
exit code is 0 only when every output check passed.  Result files go to
``perfbench/out``.  See ``perfbench/README.md`` for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify", "prune", "derive", "match")
ROUNDS = 2  # fresh interpreters running the same ops; metrics are medians
SETUP_RUNS = 6  # fresh interpreters timed for setup_s, besides the rounds' own
CHILD_TIMEOUT_S = 170
DEFAULT_SECONDS = 8.0  # run_seconds in BENCHMARK.json
TAIL_PERCENTILES = (50, 90, 99)

# name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "perms_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Unscaled times, kept beside the scaled ones in results and spread reports.
RAW = {"raw_setup_s": "s", "raw_wall_s": "s", "raw_cpu_s": "s", "raw_op_p50_ms": "ms"}


class BenchError(Exception):
    pass


def _child(script: str, *args: str) -> dict:
    """Run a benchmark script in a fresh interpreter; return its last-line
    JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONHASHSEED", None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} {' '.join(args)} ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{script} {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    src = Path(result["permpat_file"]).resolve()
    if ROOT / "src" not in src.parents:
        raise BenchError(f"permpat was imported from {src}, not from this checkout")
    return result


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile in TAIL_PERCENTILES with at least ten samples
    beyond it: (value, percentile, samples beyond).  With fewer than eleven
    samples no percentile qualifies and the maximum is reported (p100)."""
    xs = sorted(latencies_ms)
    best = (xs[-1], 100.0, 0)
    for p in TAIL_PERCENTILES:
        idx = max(0, -(-len(xs) * p // 100) - 1)  # nearest rank
        beyond = len(xs) - 1 - int(idx)
        if beyond >= 10:
            best = (xs[int(idx)], float(p), beyond)
    return best


def _commit() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout: no history to ask
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(seed: int, seconds: float) -> dict:
    return {"commit": _commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "seconds": seconds}


def _round_metrics(run: dict) -> dict:
    lat_ms = [s * 1000 for s in run["latencies_s"]]
    return {
        "wall_s": run["wall_s"],
        "cpu_s": run["cpu_s"],
        "perms_per_s": run["work"] / run["wall_s"],
        "ops_per_s": len(lat_ms) / run["wall_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail(lat_ms)[0],
        "peak_rss_mb": run["peak_rss_mb"],
        "raw_wall_s": run["raw_wall_s"],
        "raw_cpu_s": run["raw_cpu_s"],
        "raw_op_p50_ms": statistics.median(run["raw_latencies_s"]) * 1000,
    }


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: set-up timed in fresh interpreters, then ROUNDS
    rounds of the same ops, each in a fresh interpreter.  Every metric is
    the median over the rounds (set-up: over all set-ups)."""
    args = ("--workload", workload, "--seed", str(seed), "--seconds", str(seconds / ROUNDS))
    _child("worker.py", *args, "--setup-only")  # untimed: byte-compiles the checkout
    setup_runs = [_child("worker.py", *args, "--setup-only") for _ in range(SETUP_RUNS)]
    # Round 0 checks its outputs; the other rounds must match its digests.
    rounds = [_child("worker.py", *args, *(["--check"] if i == 0 else [])) for i in range(ROUNDS)]
    setups = [r["setup_s"] for r in setup_runs + rounds]
    raw_setups = [r["setup_raw_s"] for r in setup_runs + rounds]
    per_round = [_round_metrics(r) for r in rounds]
    metrics = {"setup_s": statistics.median(setups), "raw_setup_s": statistics.median(raw_setups)}
    metrics.update({k: statistics.median(m[k] for m in per_round) for k in per_round[0]})
    failures = {}
    for i, r in enumerate(rounds):
        failures.update({f"round {i}: {op_id}": why for op_id, why in r["failed"].items()})
        for (op_id, a), (_, b) in zip(rounds[0]["digests"], r["digests"]):
            if a != b:
                failures[f"round {i}: {op_id}"] = "output differs from round 0"
    attempted = sum(len(r["latencies_s"]) for r in rounds)
    lat_ms = [s * 1000 for s in rounds[0]["latencies_s"]]
    _, tail_p, tail_beyond = tail(lat_ms)
    result = {
        "workload": workload,
        **_environment(seed, seconds),
        "rounds": ROUNDS,
        "attempted": attempted,
        "failed": len(failures),
        "ops_failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
        "round_metrics": per_round,
        "op_tail": {"percentile": tail_p, "samples_beyond": tail_beyond, "samples": len(lat_ms)},
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "work_perms": rounds[0]["work"],
        "output_digest": _combined_digest(rounds[0]["digests"]),
        "op_digests": rounds[0]["digests"],
    }
    _save(f"result-{workload}-{seed}.json", result)
    return result


def _combined_digest(digests: list) -> str:
    return hashlib.sha256("".join(d for _, d in digests).encode()).hexdigest()[:16]


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics: the layer probes, plus the tracing overhead of
    one round of the workload's ops (traced wall over untraced wall)."""
    args = ("--workload", workload, "--seed", str(seed), "--seconds", str(seconds / ROUNDS))
    plain = _child("worker.py", *args, "--check")
    traced = _child("worker.py", *args, "--trace")
    probe = _child("layers.py", "--seed", str(seed))
    failed = dict(plain["failed"])
    failed.update(traced["failed"])
    for (op_id, a), (_, b) in zip(plain["digests"], traced["digests"]):
        if a != b:
            failed[op_id] = "traced output differs from untraced output"
    metrics = dict(probe["metrics"])
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    result = {
        "workload": workload,
        **_environment(seed, seconds),
        "attempted": len(plain["latencies_s"]),
        "failed": len(failed),
        "failures": failed,
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "self_times": traced["trace_files"]["table"],
        "span_file": traced["trace_files"]["spans"],
        "self_time_file": traced["trace_files"]["self_times"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "absent": probe["absent"],
    }
    _save(f"trace-{workload}-{seed}.json", result)
    return result


def _save(name: str, obj: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name).write_text(json.dumps(obj, indent=1) + "\n")


def _print_result(result: dict, per_layer: bool) -> None:
    w = result["workload"]
    if per_layer:
        for name, m in result["metrics"].items():
            print(f"{w:<7} {name:<40} {m['value']:>14.6g} {m['unit']}")
        for layer, row in sorted(result["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{w:<7} self time {layer:<14} {row['self_s']:>10.4f} s in {row['spans']} spans")
        print(f"{w:<7} spans: {result['span_file']}")
    else:
        for name, unit in END_TO_END.items():
            print(f"{w:<7} {name:<14} {result['metrics'][name]:>14.6g} {unit}")
        t = result["op_tail"]
        print(f"{w:<7} op_tail_ms is p{t['percentile']:g} of {t['samples']} ops a round "
              f"({t['samples_beyond']} beyond); medians of {result['rounds']} rounds")
        m = result["metrics"]
        print(f"{w:<7} raw (unscaled): setup_s {m['raw_setup_s']:.6g} s, wall_s {m['raw_wall_s']:.6g} s, "
              f"cpu_s {m['raw_cpu_s']:.6g} s, op_p50_ms {m['raw_op_p50_ms']:.6g} ms")
        print(f"{w:<7} ops_failed_frac {result['ops_failed_frac']:.4f} "
              f"({result['failed']} of {result['attempted']}); output digest {result['output_digest']}")
    for op_id, reason in result["failures"].items():
        print(f"{w:<7} FAILED op {op_id}: {reason}")


def _summary(results: list[dict], per_layer: bool) -> dict:
    """The last line of output; with several workloads, metric names are
    prefixed by the workload."""
    metrics = {}
    for r in results:
        items = r["metrics"].items() if per_layer else (
            (k, {"value": r["metrics"][k], "unit": u}) for k, u in END_TO_END.items())
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: m for k, m in items})
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def steady(workloads: list[str], seed: int, runs: int, seconds: float) -> bool:
    """Run each workload ``runs`` times on seeds seed, seed+1, ... in fresh
    processes and report, per end-to-end metric, the median, the quartiles,
    (q3-q1)/median and (max-min)/median."""
    report = {}
    ok = True
    for w in workloads:
        units = {**END_TO_END, **RAW}
        values: dict[str, list[float]] = {k: [] for k in units}
        for i in range(runs):
            r = run_workload(w, seed + i, seconds)
            ok = ok and r["failed"] == 0
            for k in units:
                values[k].append(r["metrics"][k])
            print(f"# {w} seed {seed + i}: " + " ".join(
                f"{k}={r['metrics'][k]:.4g}" for k in END_TO_END), flush=True)
        report[w] = {}
        for k, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            report[w][k] = {"median": med, "q1": q1, "q3": q3,
                            "iqr_over_median": (q3 - q1) / med,
                            "range_over_median": (max(xs) - min(xs)) / med, "values": xs}
            print(f"{w:<7} {k:<14} median {med:>12.6g} {units[k]:<4} q1 {q1:>12.6g} "
                  f"q3 {q3:>12.6g} iqr/med {(q3 - q1) / med:6.3f} range/med "
                  f"{(max(xs) - min(xs)) / med:6.3f}", flush=True)
    _save("steady.json", {**_environment(seed, seconds), "runs": runs, "workloads": report})
    return ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="permpat benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="R", help="run each workload R times, report spread")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "permpat" / "__init__.py").is_file():
        print(f"error: no permpat source under {ROOT / 'src'}; run from a permpat checkout",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    started = time.perf_counter()
    try:
        if args.steady:
            return 0 if steady(workloads, args.seed, args.steady, args.seconds) else 1
        per_layer = args.trace == 1
        results = []
        for w in workloads:
            r = (run_traced if per_layer else run_workload)(w, args.seed, args.seconds)
            _print_result(r, per_layer)
            results.append(r)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = _summary(results, per_layer)
    print(f"# {time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
