"""Per-layer probes of the permpat benchmark, in a fresh interpreter.

    python3 perfbench/layers.py --seed N

Each probe times calls to public permpat functions (plus
``permpat.patterns.Diagram`` and ``permpat.cli.main``) on inputs built from
the seed, and prints one JSON object: ``metrics`` maps a metric name to
[value, unit], ``absent`` lists metrics whose function this version of the
package does not have.  The probes run in their own interpreter so that the
package's caches start empty, whichever workload was traced before.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import statistics
import sys
import time
from typing import Callable

import permpat
import permpat.cli

from speed import WINDOW_S, SpeedSampler, pin_to_one_cpu
from tracing import Tracer
from workloads import install_cli_tracing

ALL_CPUS = os.sched_getaffinity(0)

REPS = 5  # repetitions of each microbenchmark; the median is reported
HOSTS_8 = 300  # seeded hosts of length 8 for the per-call probes
HOSTS_12 = 60  # seeded hosts of length 12 for occurrences
ORACLE_N = 7  # oracle probes cover n = 1..ORACLE_N on the verify bases
CENSUS_N = 9  # census(stack, 2, CENSUS_N) at jobs=1 and jobs=2


def _raw_time(fn: Callable) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Probe:
    def __init__(self, seed: int, sampler: SpeedSampler):
        self.sampler = sampler
        self.rng = random.Random(f"layers:{seed}")
        self.metrics: dict[str, tuple[float, str]] = {}
        self.absent: list[str] = []

    def need(self, names: list[str], metrics: list[str]) -> bool:
        """Whether permpat still exports every name; if not, the metrics
        are reported as absent."""
        missing = [n for n in names if not hasattr(permpat, n)]
        if missing:
            self.absent.extend(metrics)
        return not missing

    def timed(self, fn: Callable) -> float:
        """Seconds that fn() takes, scaled to reference speed by the
        samples of the last WINDOW_S (the ones after it do not exist yet)."""
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        return (t1 - t0) * self.sampler.scale(min(t0, t1 - WINDOW_S), t1)

    def per_call_us(self, fn: Callable, items: list) -> float:
        """Median over REPS of the mean time of fn(item), in microseconds."""
        return statistics.median(
            self.timed(lambda: [fn(x) for x in items]) for _ in range(REPS)) / len(items) * 1e6

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def run(self) -> None:
        rng = self.rng
        self.hosts8 = [tuple(rng.sample(range(1, 9), 8)) for _ in range(HOSTS_8)]
        self.hosts12 = [tuple(rng.sample(range(1, 13), 12)) for _ in range(HOSTS_12)]
        images6 = [p for p in itertools.permutations(range(1, 7))]
        rng.shuffle(images6)
        self.images6 = images6
        for probe in (self.permutation, self.patterns, self.occurrences, self.oracle,
                      self.preimage, self.formats, self.cli):
            probe()

    # -- permutation ----------------------------------------------------------

    def permutation(self) -> None:
        names = ["permutation.sort_power_us.stack3", "permutation.sort_power_us.bubble1",
                 "permutation.from_values_us"]
        if not self.need(["Permutation", "sort_power"], names):
            return
        perms = [permpat.Permutation(v) for v in self.hosts8]
        self.put(names[0], self.per_call_us(lambda p: permpat.sort_power("stack", 3, p), perms), "us")
        self.put(names[1], self.per_call_us(lambda p: permpat.sort_power("bubble", 1, p), perms), "us")
        self.put(names[2], self.per_call_us(permpat.Permutation, self.hosts8), "us")

    # -- patterns -------------------------------------------------------------

    def kind_patterns(self) -> dict[str, list]:
        west3 = permpat.builtin_basis("west3")
        west2 = permpat.builtin_basis("west2")
        by_kind: dict[str, list] = {}
        for p in west2 + west3 + permpat.builtin_basis("bubble1243"):
            by_kind.setdefault(p.kind, []).append(p)
        by_kind["barred"] = [permpat.barred("35241", [2]), permpat.barred("1243", [3])]
        return by_kind

    def patterns(self) -> None:
        kinds = ("classical", "mesh", "marked", "decorated", "barred")
        names = [f"patterns.contains_us.{k}" for k in kinds] + \
                [f"patterns.contains_hit_ratio.{k}" for k in kinds] + ["patterns.prefix_us"]
        if not self.need(["Permutation", "contains", "builtin_basis", "barred"], names):
            return
        perms = [permpat.Permutation(v) for v in self.hosts8]
        for kind, pats in self.kind_patterns().items():
            pairs = [(p, q) for q in pats for p in perms]
            self.put(f"patterns.contains_us.{kind}",
                     self.per_call_us(lambda pq: permpat.contains(*pq), pairs), "us")
            hits = sum(permpat.contains(p, q) for p, q in pairs)
            self.put(f"patterns.contains_hit_ratio.{kind}", hits / len(pairs), "ratio")
        diagram = getattr(permpat.patterns, "Diagram", None)
        if diagram is None:
            self.absent.append("patterns.prefix_us")
        else:
            self.put("patterns.prefix_us", self.per_call_us(lambda v: diagram(v).prefix(), self.hosts8), "us")

    def match_patterns(self) -> list:
        texts = [("132", "line"), ("132 | shade: (0,2),(1,2),(2,2)", "line"),
                 ("231 | mark: {(2,3)} >= 1", "line"), ("3241 | shade: (1,4)", "line")]
        pats = [permpat.parse_pattern(t, f) for t, f in texts]
        return pats + [permpat.barred("35241", [2]), permpat.builtin_basis("west3")[-1]]

    def occurrences(self) -> None:
        names = ["patterns.occurrences_us", "patterns.occurrences_per_call",
                 "patterns.constraint_accept_ratio", "patterns.pattern_build_us"]
        if not self.need(["occurrences", "classical", "barred_to_mesh", "parse_pattern", "mesh",
                          "marked", "Permutation"], names):
            return
        perms = [permpat.Permutation(v) for v in self.hosts12]
        pats = self.match_patterns()
        pairs = [(p, q) for q in pats for p in perms]
        self.put(names[0], self.per_call_us(lambda pq: permpat.occurrences(*pq), pairs), "us")
        counts = [len(permpat.occurrences(p, q)) for p, q in pairs]
        self.put(names[1], sum(counts) / len(counts), "count")
        # useful / attempted: occurrences that pass the constraints over the
        # occurrences of the bare skeleton, for every constrained spec.
        useful = attempted = 0
        for q in pats:
            if q.kind == "classical":
                continue
            skeleton = permpat.barred_to_mesh(q).perm if q.kind == "barred" else q.perm
            for p in perms:
                useful += len(permpat.occurrences(p, q))
                attempted += len(permpat.occurrences(p, permpat.classical(skeleton)))
        self.put(names[2], useful / attempted, "ratio")
        shaped = [(q.perm, q.shade, q.marks) for q in
                  permpat.builtin_basis("west2") + permpat.builtin_basis("bubble1243")
                  + permpat.builtin_basis("stack_len3_213") + permpat.builtin_basis("stack_len3_123")]
        build = lambda t: permpat.marked(*t) if t[2] else permpat.mesh(t[0], t[1])
        self.put(names[3], self.per_call_us(build, shaped * 20), "us")

    # -- oracle ---------------------------------------------------------------

    def oracle(self) -> None:
        names = ["oracle.av_set_s", "oracle.preimage_av_set_s", "oracle.verify_preimage_s",
                 "oracle.verify_scan_ratio"]
        if self.need(["av_set", "preimage_av_set", "verify_preimage", "builtin_basis",
                      "classical"], names):
            west3 = permpat.builtin_basis("west3")
            image = [permpat.classical("21")]
            av = sum(self.timed(lambda: permpat.av_set(n, west3)) for n in range(1, ORACLE_N + 1))
            pre = sum(self.timed(lambda: permpat.preimage_av_set(n, "stack", 3, image))
                      for n in range(1, ORACLE_N + 1))
            ver = self.timed(lambda: permpat.verify_preimage(image, west3, "stack", 3, ORACLE_N))
            self.put(names[0], av, "s")
            self.put(names[1], pre, "s")
            self.put(names[2], ver, "s")
            self.put(names[3], ver / (av + pre), "ratio")
        if self.need(["census"], ["oracle.fanout_speedup"]):
            # Both CPUs for the fan-out; a raw ratio, as both sides see the
            # same machine.
            pinned = os.sched_getaffinity(0)
            os.sched_setaffinity(0, ALL_CPUS)
            one = _raw_time(lambda: permpat.census("stack", 2, CENSUS_N, jobs=1))
            two = _raw_time(lambda: permpat.census("stack", 2, CENSUS_N, jobs=2))
            os.sched_setaffinity(0, pinned)
            self.put("oracle.fanout_speedup", one / two, "ratio")

    # -- preimage -------------------------------------------------------------

    def preimage(self) -> None:
        names = ["preimage.un_s_us", "preimage.un_s_candidates", "preimage.candidate_outcomes_us",
                 "preimage.accept_ratio", "preimage.expand_us", "preimage.expanded_patterns",
                 "preimage.prune_s", "preimage.prune_keep_ratio"]
        if not self.need(["un_s", "candidate_outcomes", "MarkedBasis", "expand_basis",
                          "prune_basis", "stack_preimage_basis", "Permutation"], names):
            return
        # Disjoint images per probe: un_s results are cached per word.
        first, second = self.images6[:30], self.images6[30:60]
        t = [self.timed(lambda: permpat.un_s(w)) for w in first]
        self.put(names[0], statistics.mean(t) * 1e6, "us")
        self.put(names[1], statistics.mean(len(permpat.un_s(w)) for w in first), "count")
        outcomes, t = [], []
        for w in second:
            pi = permpat.Permutation(w)
            t.append(self.timed(lambda: outcomes.append(permpat.candidate_outcomes(pi))))
        self.put(names[2], statistics.mean(t) * 1e6, "us")
        accepted = sum(o is not None for out in outcomes for _, o in out)
        self.put(names[3], accepted / sum(len(out) for out in outcomes), "ratio")
        bases = [permpat.MarkedBasis.from_patterns(o.to_pattern() for _, o in out if o is not None)
                 for out in outcomes]
        expanded, t = [], []
        for b in bases:
            t.append(self.timed(lambda: expanded.append(permpat.expand_basis(b))))
        self.put(names[4], statistics.mean(t) * 1e6, "us")
        self.put(names[5], statistics.mean(len(e) for e in expanded), "count")
        images4 = ["".join(map(str, p)) for p in itertools.permutations(range(1, 5))]
        kept = given = 0
        t = []
        for w in self.rng.sample(images4, 3):
            basis = permpat.MarkedBasis.from_patterns(permpat.expand_basis(
                permpat.stack_preimage_basis(permpat.Permutation.from_text(w))))
            pruned = []
            t.append(self.timed(lambda: pruned.append(permpat.prune_basis(basis, 7))))
            kept += len(pruned[0])
            given += len(basis)
        self.put(names[6], statistics.mean(t), "s")
        self.put(names[7], kept / given, "ratio")

    # -- formats --------------------------------------------------------------

    def formats(self) -> None:
        names = ["formats.parse_us", "formats.format_us"]
        if not self.need(["parse_pattern", "format_pattern", "expand_basis",
                          "stack_preimage_basis", "Permutation"], names):
            return
        pats = []
        for w in self.images6[60:70]:
            pats.extend(permpat.expand_basis(permpat.stack_preimage_basis(permpat.Permutation(w))))
        lines = [permpat.format_pattern(p) for p in pats]
        self.put(names[0], self.per_call_us(permpat.parse_pattern, lines), "us")
        self.put(names[1], self.per_call_us(permpat.format_pattern, pats), "us")

    # -- cli ------------------------------------------------------------------

    def cli(self) -> None:
        """cli.main time per op minus the time of the public calls it makes
        (argparse, dispatch, output)."""
        tracer = Tracer()
        install_cli_tracing(tracer)
        for w in self.images6[70:110]:
            argv = ["preimage", "".join(map(str, w)), "--expand"]
            with contextlib.redirect_stdout(io.StringIO()):
                tracer.call("cli.main", permpat.cli.main, argv)
        ms = tracer.self_times()["cli"]
        self.put("cli.self_ms", ms["self_s"] / ms["spans"] * 1000, "ms")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    pin_to_one_cpu()
    with SpeedSampler() as sampler:
        probe = Probe(args.seed, sampler)
        probe.run()
    print(json.dumps({"metrics": probe.metrics, "absent": probe.absent,
                      "permpat_file": permpat.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
