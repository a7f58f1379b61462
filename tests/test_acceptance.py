"""Acceptance gate: one test per headline guarantee of the package, each
run at its full advertised bounds.  Slower than the unit files by design."""
from __future__ import annotations

import math
import random
from itertools import permutations

from conftest import (
    identity,
    inversions,
    noninversions,
    perms_through,
    random_boxes,
    random_pattern,
    random_values,
    reference_count,
)

from permpat import (
    Permutation,
    av_set,
    barred,
    barred_to_mesh,
    bubble_sort,
    builtin_basis,
    census,
    classical,
    contains,
    decorated,
    expand_basis,
    format_pattern,
    marked,
    mesh,
    occurrences,
    parse_pattern,
    parse_pattern_list,
    preimage_av_set,
    render_grid,
    sort_power,
    stack_preimage_basis,
    stack_sort,
    standardize,
    un_s,
    verify_preimage,
)
from permpat.cli import main
from permpat.fixtures import FIXTURE_NAMES
from permpat.preimage import _shade_and_mark_impl, candidate_outcomes, shade_and_mark

P = Permutation

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430]
TWO_PASS_COUNTS = [1, 2, 6, 22, 91, 408, 1938, 9614, 49335]


def classical_perms(max_len):
    return [P(vals) for k in range(1, max_len + 1)
            for vals in permutations(range(1, k + 1))]


def test_single_stack_pass_sorts_exactly_the_catalan_class(tmp_path, capsys):
    basis = tmp_path / "basis.txt"
    basis.write_text("231\n")
    code = main(["verify", "--pattern", "21", "--basis", str(basis),
                 "--op", "stack", "--passes", "1", "--upto", "8"])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[-1] == "PASS"
    for n, expect in enumerate(CATALAN, 1):
        count = census("stack", 1, n)
        assert count == expect == reference_count("catalan", n)


def test_two_pass_basis_and_closed_form_counts(capsys):
    code = main(["preimage", "231", "--expand"])
    out = capsys.readouterr().out
    assert code == 0
    derived = parse_pattern_list(out)
    target = builtin_basis("west2")
    for n in range(1, 9):
        assert av_set(n, derived) == av_set(n, target), n
    for n, expect in enumerate(TWO_PASS_COUNTS, 1):
        assert census("stack", 2, n) == expect == reference_count("west2", n)


def test_single_pass_preimage_table_for_every_length_three_pattern():
    for text in ("123", "132", "213", "231", "312", "321"):
        report = verify_preimage((classical(text),),
                                 builtin_basis(f"stack_len3_{text}"),
                                 "stack", 1, 8)
        assert report.passed, f"{text}: {report.to_text()}"


def test_three_pass_census_agrees_with_its_avoidance_basis():
    assert census("stack", 3, 5) == 114
    basis = builtin_basis("west3")
    for n in range(1, 9):
        assert census("stack", 3, n) == len(av_set(n, basis)), n


def test_bubble_pass_preimage_basis_and_sortable_class():
    report = verify_preimage((classical("1243"),), builtin_basis("bubble1243"),
                             "bubble", 1, 8)
    assert report.passed, report.to_text()
    pair = (classical("231"), classical("321"))
    for n in range(1, 9):
        assert preimage_av_set(n, "bubble", 1, (classical("21"),)) == \
            av_set(n, pair), n


def test_candidate_generation_and_shading_worked_examples():
    assert {p.to_text() for p in un_s((1, 3, 2))} == {"321", "312", "132"}
    assert {p.to_text() for p in un_s((3, 2, 4, 1))} == {"4321", "3421", "3241"}
    result = shade_and_mark(P.from_text("4321"), P.from_text("3241"))
    assert {(b.col, b.row) for b in result.pattern.shade} == {(1, 4), (2, 4)}
    assert {tuple((b.col, b.row) for b in m.region) for m in result.pattern.marks} == \
        {((2, 3),), ((3, 4),)}
    assert shade_and_mark(P.from_text("321"), P.from_text("132")) is None


def test_occurrence_engine_fixture_permutations():
    pi = P.from_text("526413")
    assert len(occurrences(pi, classical("132"))) == 3
    assert len(occurrences(pi, mesh("132", {(0, 2), (1, 2), (2, 2)}))) == 1
    marked_pat = marked("132", {(2, 2)}, [{(1, 0), (1, 1), (2, 0), (2, 1)}])
    assert [o.alpha for o in occurrences(pi, marked_pat)] == [(2, 4, 6)]
    alphas = [o.alpha for o in occurrences(pi, decorated("21", [({(1, 1)}, "12")]))]
    assert (3, 6) in alphas and (1, 5) not in alphas

    big = P.from_text("5264173")
    bar = barred("35241", [2])
    witnesses = [tuple(big.values[a - 1] for a in o.alpha)
                 for o in occurrences(big, bar)]
    assert (5, 4, 7, 3) in witnesses
    converted = barred_to_mesh(bar)
    assert converted == mesh("3241", {(1, 4)})
    for other in perms_through(7):
        assert contains(other, bar) == contains(other, converted), other


def test_redundantly_shaded_box_changes_no_avoidance_set():
    heavier = mesh("3241", {(1, 3), (1, 4)})
    lighter = mesh("3241", {(1, 4)})
    for n in range(1, 9):
        assert av_set(n, (heavier,)) == av_set(n, (lighter,)), n


def test_property_suites(tmp_path, capsys):
    failures: list[str] = []
    rng = random.Random(20260821)

    # --- sorting operators, exhaustively through length 8 ---
    p231 = classical("231")
    for pi in perms_through(8):
        ident = identity(pi.n)
        s = stack_sort(pi)
        if sorted(s.values) != list(range(1, pi.n + 1)):
            failures.append(f"stack pass changes the values of {pi}")
            break
        if s.values[-1] != pi.n:
            failures.append(f"stack pass of {pi} does not end with the maximum")
            break
        if (s == ident) != (not contains(pi, p231)):
            failures.append(f"one-pass sortability of {pi} disagrees with 231-avoidance")
            break
        b = bubble_sort(pi)
        if sorted(b.values) != list(range(1, pi.n + 1)):
            failures.append(f"bubble pass changes the values of {pi}")
            break
        if pi != ident and len(inversions(b.values)) >= len(inversions(pi.values)):
            failures.append(f"bubble pass fails to reduce inversions of {pi}")
            break
        if standardize(pi.values) != pi:
            failures.append(f"standardize moves the permutation {pi}")
            break

    for pi in perms_through(7):
        for op in ("stack", "bubble"):
            if any(sort_power(op, a + b, pi) !=
                   sort_power(op, a, sort_power(op, b, pi))
                   for a in range(4) for b in range(4)):
                failures.append(f"{op} powers are not additive on {pi}")
                break
        else:
            continue
        break

    # --- pattern-kind coincidences on random patterns, all lengths <= 7 ---
    for trial in range(12):
        k = rng.randint(1, 4)
        perm = random_values(rng, k)
        shade = set(random_boxes(rng, k, rng.randint(1, 3)))
        plain = classical(perm)
        no_shade = mesh(perm, ())
        shaded = mesh(perm, shade)
        no_marks = marked(perm, tuple(sorted(shade)), ())
        shade_as_decor = decorated(perm, [({b}, "1") for b in sorted(shade)])
        bad = next(
            (pi for pi in perms_through(7)
             if not (occurrences(pi, plain) == occurrences(pi, no_shade)
                     and occurrences(pi, shaded) == occurrences(pi, no_marks)
                     == occurrences(pi, shade_as_decor))),
            None)
        if bad is not None:
            failures.append(f"kind coincidence fails on {bad} (trial {trial})")
            break

    # --- extra shading never adds occurrences ---
    for trial in range(15):
        k = rng.randint(1, 4)
        perm = random_values(rng, k)
        shade = set(random_boxes(rng, k, rng.randint(0, 3)))
        free = [(c, r) for c in range(k + 1) for r in range(k + 1)
                if (c, r) not in shade]
        extra = rng.choice(free)
        before = mesh(perm, shade)
        after = mesh(perm, shade | {extra})
        bad = next((pi for pi in perms_through(7)
                    if len(occurrences(pi, after)) > len(occurrences(pi, before))),
                   None)
        if bad is not None:
            failures.append(f"shading {extra} onto {before} adds occurrences in {bad}")
            break

    # --- every single-bar pattern through length 4 matches its mesh form ---
    done = False
    for k in range(2, 5):
        for vals in permutations(range(1, k + 1)):
            for pos in range(1, k + 1):
                bar = barred(vals, [pos])
                conv = barred_to_mesh(bar)
                bad = next((pi for pi in perms_through(7)
                            if contains(pi, bar) != contains(pi, conv)), None)
                if bad is not None:
                    failures.append(f"barred {vals} bar {pos} disagrees with its mesh form on {bad}")
                    done = True
                    break
            if done:
                break
        if done:
            break

    # --- classical occurrence counts are bounded by C(n, k) ---
    for p in classical_perms(3):
        pat = classical(p)
        for pi in perms_through(6):
            if len(occurrences(pi, pat)) > math.comb(pi.n, p.n):
                failures.append(f"count bound fails for {p} in {pi}")
                break
    for n in range(1, 8):
        for k in range(1, n + 1):
            got = len(occurrences(identity(n), classical(identity(k))))
            if got != math.comb(n, k):
                failures.append(f"identity count {got} != C({n},{k})")

    # --- every stack-image occurrence traces back to a candidate ---
    image_patterns = classical_perms(4)
    candidates = {p: un_s(p.values) for p in image_patterns}
    done = False
    for pi in perms_through(7):
        s = stack_sort(pi)
        for p in image_patterns:
            if p.n > pi.n:
                continue
            for occ in occurrences(s, classical(p)):
                chosen = set(occ.beta)
                if standardize(v for v in pi.values if v in chosen) not in candidates[p]:
                    failures.append(f"occurrence {occ.beta} of {p} in {s} has no candidate in {pi}")
                    done = True
                    break
            if done:
                break
        if done:
            break

    # --- shading and marking: order independence, disjoint minimal marks ---
    for image in image_patterns:
        inv = sorted(inversions(image.values))
        ninv = noninversions(image.values)
        for lam, outcome in candidate_outcomes(image):
            for _ in range(3):
                shuffled = list(inv)
                rng.shuffle(shuffled)
                if _shade_and_mark_impl(lam, ninv, shuffled) != outcome:
                    failures.append(f"shade_and_mark({lam}, {image}) depends on inversion order")
            if outcome is None:
                continue
            shade_set = set(outcome.pattern.shade)
            regions = tuple(m.region for m in outcome.pattern.marks)
            for region in regions:
                if shade_set.intersection(region):
                    failures.append(f"mark overlaps shading for {lam}/{image}")
            if any(a is not b and set(a) <= set(b)
                   for a in regions for b in regions):
                failures.append(f"nested mark regions for {lam}/{image}")

    # --- the preimage pipeline is exact for every image through length 4 ---
    for image in image_patterns:
        basis = stack_preimage_basis(image)
        for n in range(1, 8):
            if av_set(n, basis) != preimage_av_set(n, "stack", 1, (classical(image),)):
                failures.append(f"pipeline disagrees for image {image} at n={n}")
                break

    # --- mark expansion preserves containment ---
    trials = 0
    while trials < 12:
        pat = random_pattern(rng, kinds=("marked",))
        if pat.kind != "marked":
            continue
        trials += 1
        expanded = expand_basis([pat])
        bad = next((pi for pi in perms_through(7)
                    if contains(pi, pat) != any(contains(pi, e) for e in expanded)),
                   None)
        if bad is not None:
            failures.append(f"expansion of {format_pattern(pat)} disagrees on {bad}")
            break

    # --- each traced point set matches exactly one expanded pattern ---
    five = expand_basis(stack_preimage_basis(P.from_text("2341")))
    if len(five) != 5:
        failures.append(f"expected five expanded patterns, got {len(five)}")
    p2341 = classical("2341")
    traces = 0
    for pi in perms_through(6):
        s = stack_sort(pi)
        position = {v: i for i, v in enumerate(pi.values, 1)}
        for occ in occurrences(s, p2341):
            cols = tuple(sorted(position[v] for v in occ.beta))
            hits = sum(
                1 for pat in five
                if any(o.alpha[:3] == cols[:3] and o.alpha[4] == cols[3]
                       for o in occurrences(pi, pat)))
            traces += 1
            if hits != 1:
                failures.append(f"trace of {occ.beta} in {pi} matched {hits} patterns")
    if traces == 0:
        failures.append("exactly-one check exercised no traces")

    # --- avoidance sets shrink as the basis grows ---
    chains = [
        [classical("231"), classical("2341"), mesh("3241", {(1, 4)})],
        list(builtin_basis("bubble1243")),
        [random_pattern(rng) for _ in range(3)],
    ]
    for chain in chains:
        for n in range(1, 8):
            sizes = [len(av_set(n, chain[:i])) for i in range(len(chain) + 1)]
            if any(a < b for a, b in zip(sizes, sizes[1:])):
                failures.append(f"avoidance grew along {chain} at n={n}: {sizes}")
                break

    # --- censuses grow with the pass budget and exhaust S_n ---
    for n in range(1, 8):
        counts = [census("stack", k, n) for k in range(n)]
        if counts != sorted(counts):
            failures.append(f"stack census not monotone in passes at n={n}: {counts}")
        if census("stack", n - 1, n) != math.factorial(n):
            failures.append(f"stack census at n={n} never reaches {n}!")

    for n, expect in enumerate(TWO_PASS_COUNTS, 1):
        if census("stack", 2, n) != expect:
            failures.append(f"two-pass census at n={n} != {expect}")
    west3 = builtin_basis("west3")
    for n in range(1, 9):
        if census("stack", 3, n) != len(av_set(n, west3)):
            failures.append(f"three-pass census disagrees with its basis at n={n}")

    # --- identical results for one worker and four ---
    if av_set(6, builtin_basis("west2"), jobs=4) != av_set(6, builtin_basis("west2")):
        failures.append("av_set changes with the worker count")
    if census("stack", 2, 7, jobs=4) != census("stack", 2, 7):
        failures.append("census changes with the worker count")
    if preimage_av_set(6, "stack", 2, (p231,), jobs=4) != \
            preimage_av_set(6, "stack", 2, (p231,)):
        failures.append("preimage_av_set changes with the worker count")
    job_runs = []
    for jobs in ("1", "4"):
        code = main(["census", "--op", "stack", "--passes", "2", "--upto", "6",
                     "--jobs", jobs])
        job_runs.append((code, capsys.readouterr().out))
    if job_runs[0] != job_runs[1] or job_runs[0][0] != 0:
        failures.append("census command output depends on --jobs")

    # --- text round-trips for fixtures and 1000 random patterns ---
    pool = [p for name in FIXTURE_NAMES for p in builtin_basis(name)]
    all_kinds = ("classical", "mesh", "marked", "barred", "decorated")
    pool.extend(random_pattern(rng, kinds=all_kinds) for _ in range(1000))
    for pat in pool:
        if parse_pattern(format_pattern(pat, "json"), "json") != pat:
            failures.append(f"json round-trip fails for {format_pattern(pat, 'json')}")
            break
        if pat.kind in ("classical", "mesh", "marked") and \
                parse_pattern(format_pattern(pat, "line")) != pat:
            failures.append(f"line round-trip fails for {format_pattern(pat)}")
            break

    # --- command exit codes: success, failed verification, bad input ---
    basis = tmp_path / "too_big.txt"
    basis.write_text("231\n312\n")
    checks = [
        (["sort", "--op", "stack", "2341"], 0),
        (["verify", "--pattern", "21", "--basis", str(basis), "--upto", "4"], 1),
        (["sort", "--op", "stack", "13x2"], 2),
        (["sort", "--op", "heap", "21"], 2),
    ]
    for argv, expect in checks:
        code = main(argv)
        capsys.readouterr()
        if code != expect:
            failures.append(f"{argv} exited {code}, expected {expect}")

    # --- rendered grids are square with 2k+1 cells per side ---
    render_pool = pool[:40]
    for pat in render_pool:
        k = pat.perm.n
        lines = render_grid(pat).splitlines()
        grid = lines[: 2 * k + 1]
        if len(lines) < 2 * k + 1 or any(len(row) != 2 * k + 1 for row in grid):
            failures.append(f"grid for {format_pattern(pat, 'json')} is not {2 * k + 1} square")
            break

    assert not failures, "\n".join(failures)
