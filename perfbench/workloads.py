"""One workload run of the permpat benchmark: inputs, ops, checks.

``worker.py`` runs :func:`main` in a fresh interpreter.  It imports
permpat and builds every input from the seed (set-up), runs the ops as a
closed loop with one op in flight (timed), then, with ``--check``, checks
the outputs (untimed).  It prints one JSON object as its last line of
standard output.

With ``--trace`` the names that ``permpat.cli`` binds to public functions
are wrapped so that each call becomes a span, and match ops time their
library calls the same way; spans stay in memory and are written to
``perfbench/out`` when the ops are done.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import permpat
import permpat.cli
from permpat import (
    Permutation,
    barred,
    builtin_basis,
    classical,
    format_pattern,
    occurrences,
    parse_pattern,
    parse_pattern_list,
    un_s,
    verify_preimage,
)

from speed import WINDOW_S, SpeedSampler
from tracing import Tracer, call_plain

OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("verify", "prune", "derive", "match")

# Rows of |Av_n| for n = 1..8 (West-3-stack-sortable and the bubble-sort
# preimage of Av(1243)); both columns of a passing report must equal them.
WEST3_ROWS = (1, 2, 6, 24, 114, 606, 3494, 21426)
BUBBLE1243_ROWS = (1, 2, 6, 24, 112, 578, 3210, 18862)
FAIL_LINE = "FAIL 58374261 in-Av-but-bad-image"

# Ops per second of --seconds for the workloads made of many small ops, at
# the parent commit's speed on a 2-CPU x86 VM; verify and prune always run
# their whole op sets (about 10 s and 6 s at reference speed, see speed.py).
DERIVE_OPS_PER_S = 180
MATCH_OPS_PER_S = 2500
DERIVE_CHECKS = 2  # derived bases re-verified at n <= CHECK_N, seeded choice
PRUNE_CHECKS = 3
MATCH_CHECKS = 60  # matches recounted by brute force, seeded choice
CHECK_N = 7


@dataclass
class Op:
    id: str
    args: tuple
    expect_code: int = 0
    info: dict = field(default_factory=dict)


# -- set-up: inputs from the seed -------------------------------------------


def _basis_file() -> str:
    """West-3 minus 7364251 in JSON lines, a basis that fails at n = 8."""
    pats = [p for p in builtin_basis("west3") if p.perm.to_text() != "7364251"]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "west3_minus_7364251.txt"
    text = "".join(format_pattern(p, "json") + "\n" for p in pats)
    if not path.exists() or path.read_text() != text:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(text)
        tmp.replace(path)
    return str(path)


def build_ops(workload: str, seed: int, seconds: float) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        # No randomness: the three headline verdicts.
        return [
            Op("west3", ("verify", "--builtin", "west3", "--upto", "8"), 0, {"rows": WEST3_ROWS}),
            Op("bubble1243", ("verify", "--builtin", "bubble1243", "--upto", "8"), 0,
               {"rows": BUBBLE1243_ROWS}),
            Op("west3-minus-7364251",
               ("verify", "--pattern", "21", "--op", "stack", "--passes", "3",
                "--basis", _basis_file(), "--upto", "8"), 1, {"rows": WEST3_ROWS[:7]}),
        ]
    if workload == "prune":
        # No randomness.  The ops share cached containment sets, so their
        # order moves their times and the peak RSS; a sample of images
        # would move the total.  Eight ops make op_p50_ms the mean of two
        # ops, not one of two ops of nearly equal cost.
        images = ["".join(map(str, p)) for p in itertools.permutations(range(1, 4))]
        jobs = [("23451", 7), ("23451", 8)] + [(p, 7) for p in images]
        return [Op(f"{p}@{n}", ("preimage", p, "--expand", "--prune", str(n)), 0,
                   {"image": p, "n": n}) for p, n in jobs]
    if workload == "derive":
        images = ["".join(map(str, p)) for p in itertools.permutations(range(1, 7))]
        count = min(len(images), round(DERIVE_OPS_PER_S * seconds))
        return [Op(p, ("preimage", p, "--expand"), 0, {"image": p})
                for p in rng.sample(images, count)]
    if workload == "match":
        specs = [
            ("132", "line"),
            ("132 | shade: (0,2),(1,2),(2,2)", "line"),
            ("231 | mark: {(2,3)} >= 1", "line"),
            ("3241 | shade: (1,4)", "line"),
            (format_pattern(barred("35241", [2]), "json"), "json"),
            (format_pattern(builtin_basis("west3")[-1], "json"), "json"),
        ]
        ops = []
        for i in range(round(MATCH_OPS_PER_S * seconds)):
            host = ",".join(map(str, rng.sample(range(1, 13), 12)))
            spec, fmt = specs[i % len(specs)]
            ops.append(Op(f"{i}", (spec, fmt, host), 0, {"spec": i % len(specs)}))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- timed ops ----------------------------------------------------------------


def run_cli(argv: tuple) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = permpat.cli.main(list(argv))
    return code, out.getvalue() + err.getvalue()


def run_match(args: tuple, call: Callable) -> tuple[int, str]:
    spec, fmt, host = args
    pat = call("formats.parse_pattern", parse_pattern, spec, fmt)
    pi = call("permutation.Permutation.from_text", Permutation.from_text, host)
    occs = call("patterns.occurrences", occurrences, pi, pat)
    text = call("bench.format_alpha", lambda: "".join(
        "(" + ",".join(map(str, o.alpha)) + ")\n" for o in occs))
    return 0, text


@dataclass
class Result:
    code: int
    digest: str
    lines: int
    last: str  # last output line
    text: str | None  # kept only for ops that the checks read
    seconds: float  # raw wall time of the op call
    cpu_s: float  # raw CPU time of the op call (this thread only)
    scale: float = 1.0  # to reference speed, see speed.py


def execute(workload: str, ops: list[Op], keep: set[int], tracer: Tracer | None,
            sampler: SpeedSampler) -> list[Result]:
    """Run the ops in order, one at a time.  Only the op call is timed;
    digesting its output and dropping what no check reads happen outside,
    so that stored outputs neither add time nor grow the peak RSS."""
    call = tracer.call if tracer else call_plain
    results = []
    spans = []
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = op.id
        c0 = time.thread_time()
        t0 = time.perf_counter()
        if workload == "match":
            code, text = call("bench.match_op", run_match, op.args, call)
        else:
            code, text = call("cli.main", run_cli, op.args)
        t1 = time.perf_counter()
        cpu_s = time.thread_time() - c0
        last = text.rstrip("\n").rpartition("\n")[2]
        results.append(Result(code, digest(code, text), text.count("\n"), last,
                              text if i in keep else None, t1 - t0, cpu_s))
        spans.append((t0, t1))
    time.sleep(WINDOW_S / 2)  # samples for the window of the last op
    for r, span in zip(results, spans):
        r.scale = sampler.scale(*span)
    return results


# -- untimed output checks ----------------------------------------------------


def _report_rows(text: str) -> list[tuple[int, int, int, str]]:
    rows = []
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 4 and parts[0].isdigit():
            rows.append((int(parts[0]), int(parts[1]), int(parts[2]), parts[3]))
    return rows


def check_verify(op: Op, text: str) -> str | None:
    rows = _report_rows(text)
    want = op.info["rows"]
    last = text.rstrip("\n").splitlines()[-1] if text.strip() else ""
    if op.expect_code == 0:
        if last != "PASS":
            return f"last line {last!r}, want PASS"
        if [(r[1], r[2], r[3]) for r in rows] != [(c, c, "yes") for c in want]:
            return f"rows {rows} differ from {want}"
        return None
    if last != FAIL_LINE:
        return f"last line {last!r}, want {FAIL_LINE!r}"
    if [(r[1], r[2], r[3]) for r in rows[:-1]] != [(c, c, "yes") for c in want]:
        return f"rows {rows[:-1]} differ from {want}"
    if not rows or rows[-1][0] != 8 or rows[-1][3] != "NO":
        return f"failing row {rows[-1:]} is not n=8"
    return None


def _basis_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def check_basis(op: Op, text: str) -> str | None:
    """The printed basis must characterize the stack-sort preimage of
    Av(image) at every n <= CHECK_N."""
    pats = parse_pattern_list("\n".join(_basis_lines(text)))
    report = verify_preimage([classical(op.info["image"])], pats, "stack", 1, CHECK_N)
    return None if report.passed else f"re-verification failed: {report.to_text().splitlines()[-1]}"


def _standardize(word) -> tuple[int, ...]:
    rank = {v: r for r, v in enumerate(sorted(word), 1)}
    return tuple(rank[v] for v in word)


def brute_force_count(values: tuple[int, ...], pat) -> int:
    """Occurrences of a classical, mesh or marked pattern, counted from the
    definition: every k-subset of positions, then every box's contents."""
    n, k = len(values), len(pat.perm)
    count = 0
    for cols in itertools.combinations(range(n), k):
        picked = [values[c] for c in cols]
        if _standardize(picked) != pat.perm.values:
            continue
        xs = (0,) + tuple(c + 1 for c in cols) + (n + 1,)
        ys = (0,) + tuple(sorted(picked)) + (n + 1,)

        def inside(box) -> int:
            c, r = box
            return sum(1 for x in range(xs[c] + 1, xs[c + 1])
                       if ys[r] < values[x - 1] < ys[r + 1])

        if any(inside(b) for b in pat.shade):
            continue
        if all(sum(inside(b) for b in m.region) >= m.min_count for m in pat.marks):
            count += 1
    return count


def check_match(op: Op, result: Result) -> str | None:
    spec, fmt, host = op.args
    pat = parse_pattern(spec, fmt)
    values = tuple(int(v) for v in host.split(","))
    want = brute_force_count(values, pat)
    return None if result.lines == want else f"{result.lines} occurrences, brute force counts {want}"


def checked_ops(workload: str, seed: int, ops: list[Op]) -> list[int]:
    """Indices of the ops whose outputs are checked in depth: every verify
    op, a seeded few of the others."""
    rng = random.Random(f"check:{workload}:{seed}")
    if workload == "verify":
        return list(range(len(ops)))
    if workload in ("prune", "derive"):
        count = PRUNE_CHECKS if workload == "prune" else DERIVE_CHECKS
        return rng.sample(range(len(ops)), min(count, len(ops)))
    # Brute force covers the classical, mesh and marked specs (0..3).
    eligible = [i for i, op in enumerate(ops) if op.info["spec"] <= 3]
    return rng.sample(eligible, min(MATCH_CHECKS, len(eligible)))


def check_outputs(workload: str, ops: list[Op], results: list[Result],
                  picks: list[int]) -> dict[str, str]:
    """Map op id -> reason for every op whose exit code, verdict or output
    is wrong."""
    failed = {}
    for op, r in zip(ops, results):
        if r.code != op.expect_code:
            failed[op.id] = f"exit code {r.code}, want {op.expect_code}"
        elif workload == "prune" and r.last != f"# pruned: verified up to n={op.info['n']}":
            failed[op.id] = f"last line {r.last!r} is not the pruning trailer"
    for i in picks:
        op, r = ops[i], results[i]
        if op.id in failed:
            continue
        if workload == "verify":
            reason = check_verify(op, r.text)
        elif workload == "match":
            reason = check_match(op, r)
        else:
            reason = check_basis(op, r.text)
        if reason:
            failed[op.id] = reason
    return failed


def work_count(workload: str, op: Op, result: Result) -> int:
    """Permutations the op examined: S_n for every length its verdict
    covers (verify, prune), un_s candidates (derive), the host (match)."""
    if workload == "verify":
        return sum(math.factorial(r[0]) for r in _report_rows(result.text))
    if workload == "prune":
        return sum(math.factorial(n) for n in range(1, op.info["n"] + 1))
    if workload == "derive":
        return len(un_s(Permutation.from_text(op.info["image"]).values))
    return 1


def digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]


def install_cli_tracing(tracer: Tracer) -> None:
    """Wrap every public permpat function that permpat.cli calls, so that
    each call is a child span of the cli.main span of its op."""
    cli = permpat.cli
    for name in dir(cli):
        fn = getattr(cli, name)
        if name.startswith("_") or not callable(fn) or getattr(permpat, name, None) is not fn:
            continue
        layer = fn.__module__.rsplit(".", 1)[-1]
        if isinstance(fn, type):
            if hasattr(fn, "from_patterns"):
                setattr(cli, name, tracer.proxy(fn, f"{layer}.{name}", ("from_patterns",)))
            continue
        setattr(cli, name, tracer.wrap(f"{layer}.{name}", fn))


def main(sampler: SpeedSampler, setup_start: float) -> int:
    """The body of ``worker.py``; ``setup_start`` was taken before this
    module, and so permpat, was imported."""
    ap = argparse.ArgumentParser(prog="worker.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true", help="check every output after the ops")
    args = ap.parse_args()

    ops = build_ops(args.workload, args.seed, args.seconds)
    setup_end = time.perf_counter()
    setup_raw_s = setup_end - setup_start
    if args.setup_only:
        time.sleep(WINDOW_S / 2)  # samples for the window of the set-up
        print(json.dumps({"setup_s": setup_raw_s * sampler.scale(setup_start, setup_end),
                          "setup_raw_s": setup_raw_s, "permpat_file": permpat.__file__}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        install_cli_tracing(tracer)
    picks = checked_ops(args.workload, args.seed, ops)
    results = execute(args.workload, ops, set(picks), tracer, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "setup_s": setup_raw_s * sampler.scale(setup_start, setup_end),
        "setup_raw_s": setup_raw_s,
        "wall_s": sum(r.seconds * r.scale for r in results),
        "cpu_s": sum(r.cpu_s * r.scale for r in results),
        "raw_wall_s": sum(r.seconds for r in results),
        "raw_cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [r.seconds * r.scale for r in results],
        "raw_latencies_s": [r.seconds for r in results],
        "work": sum(work_count(args.workload, op, r) for op, r in zip(ops, results)),
        "digests": [[op.id, r.digest] for op, r in zip(ops, results)],
        "failed": check_outputs(args.workload, ops, results, picks) if args.check else {},
        "permpat_file": permpat.__file__,
    }
    if tracer:
        stem = OUT / f"trace-{args.workload}-{args.seed}"
        out["trace_files"] = tracer.write(stem)
    print(json.dumps(out))
    return 0

