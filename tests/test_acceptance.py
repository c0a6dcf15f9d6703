"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is exact integer equality and the runtime caps are
asserted where stated.
"""

import time

from shipat import (
    DyckPath,
    ShiTableau,
    audit_cover_counts,
    avoids_characterized,
    bounce_path,
    catalan,
    compose_inside,
    count_avoiders_brute,
    count_avoiders_closed,
    count_upper_covers,
    cover_collisions,
    enumerate_paths,
    f_count,
    f_count_oracle,
    height,
    parse_path,
    pattern,
    region_inequalities,
    return_points,
    up_set,
    upper_covers,
    zeta,
)
from shipat.avoidance import FAMILY_TAGS
from shipat.verify import classify_double_cover

TV5_TERMS = [1, 2, 5, 14, 42, 131, 413, 1294, 4007, 12272,
             37277, 112622, 339152, 1019457]
TV6_TERMS = [1, 2, 5, 14, 42, 132, 428, 1411, 4675, 15463,
             50928, 166999, 545682, 1778631]


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number} ({name}): {detail}", flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_cover_formula_audit():
    start = time.monotonic()
    report = audit_cover_counts(8)
    elapsed = time.monotonic() - start
    detail = (f"{report.paths_checked} paths, {len(report.mismatches)} mismatches, "
              f"{len(report.fallbacks)} fallbacks, {elapsed:.1f}s")
    for line in report.summary_lines():
        print("   ", line)
    _report(1, "cover-formula audit", report.ok and elapsed < 30.0, detail)


def test_criterion_2_size2_avoidance():
    start = time.monotonic()
    ok = True
    problems = []
    for n in range(2, 10):
        expected_first = 2 ** n
        expected_second = (n + 1) * n // 2 + 1
        for tag in ("te", "tf"):
            got = count_avoiders_brute(pattern(tag, 2), n)
            if got != expected_first:
                ok = False
                problems.append(f"{tag} n={n}: {got} != {expected_first}")
        for tag in ("tg", "tor", "tv"):
            got = count_avoiders_brute(pattern(tag, 2), n)
            if got != expected_second:
                ok = False
                problems.append(f"{tag} n={n}: {got} != {expected_second}")
    elapsed = time.monotonic() - start
    detail = f"n = 2..9, five families, {elapsed:.1f}s" + \
        (f"; problems: {problems}" if problems else "")
    _report(2, "size-2 avoidance counts", ok and elapsed < 60.0, detail)


def test_criterion_3_sizek_avoidance():
    ok = True
    problems = []
    for tag in ("te", "tf", "tg"):
        for k in (3, 4, 5):
            for n in range(0, 9):
                brute = count_avoiders_brute(pattern(tag, k), n)
                closed = count_avoiders_closed(tag, k, n)
                if brute != closed:
                    ok = False
                    problems.append(f"{tag}_{k} n={n}")
    start = time.monotonic()
    tv5 = [count_avoiders_closed("tv", 5, n) for n in range(14)]
    tv6 = [count_avoiders_closed("tv", 6, n) for n in range(14)]
    closed_elapsed = time.monotonic() - start
    if tv5 != TV5_TERMS or tv6 != TV6_TERMS:
        ok = False
        problems.append("published tv_5/tv_6 sequences")
    for n in range(0, 9):
        if count_avoiders_brute(pattern("tv", 5), n) != tv5[n]:
            ok = False
            problems.append(f"brute tv_5 n={n}")
    ok = ok and closed_elapsed < 1.0
    detail = (f"te/tf/tg k=3..5 vs bounded height; tv_5, tv_6 match all 14 "
              f"published terms (closed eval {closed_elapsed * 1000:.0f} ms)")
    if problems:
        detail += f"; problems: {problems}"
    _report(3, "size-k avoidance counts", ok, detail)


def test_criterion_4_f_count_grid():
    start = time.monotonic()
    mismatches = sum(
        1
        for m in range(21) for n in range(21) for k in range(9)
        if f_count(m, n, k) != f_count_oracle(m, n, k))
    elapsed = time.monotonic() - start
    detail = f"3969 triples, {mismatches} mismatches, {elapsed:.2f}s"
    _report(4, "reflection formula vs DP oracle", mismatches == 0 and elapsed < 5.0, detail)


def test_criterion_5_zeta():
    ok = True
    problems = []
    for s in range(1, 11):
        images = {zeta(p).word for p in enumerate_paths(s)}
        if len(images) != catalan(s):
            ok = False
            problems.append(f"not bijective on D_{s}")
    for s in range(1, 9):
        for p in enumerate_paths(s):
            z = zeta(p)
            for k in range(1, 6):
                if (height(p) <= k) != (len(return_points(z)) <= k):
                    ok = False
                    problems.append(f"equivalence at {p.word}, k={k}")
    byte_exact = bounce_path(parse_path("UDUUDUDUDD")).word == "UDUUDDUUDD"
    if not byte_exact:
        problems.append("bounce example")
    detail = "bijective on D_1..D_10; height <=> bounce returns (k <= 5, s <= 8); " \
             "b(UDUUDUDUDD) = UDUUDDUUDD"
    if problems:
        detail += f"; problems: {problems}"
    _report(5, "zeta map", ok and byte_exact, detail)


def test_criterion_6_characterization_lemmas():
    # the brute answers come off one up-set of each pattern, which
    # tests/test_avoidance.py checks against the downward search
    containing = {(tag, k): up_set(pattern(tag, k), 8)
                  for tag in FAMILY_TAGS for k in (2, 3, 4)}
    mismatches = 0
    checked = 0
    for s in range(1, 9):
        for p in enumerate_paths(s):
            for tag in FAMILY_TAGS:
                for k in (2, 3, 4):
                    checked += 1
                    avoided = p.word not in containing[tag, k][s]
                    if avoids_characterized(p, tag, k) != avoided:
                        mismatches += 1
    detail = f"{checked} predicate/search comparisons, {mismatches} mismatches"
    _report(6, "characterization lemmas", mismatches == 0, detail)


def test_criterion_7_double_cover_lemma():
    census = {"same-runs": 0, "zigzag": 0, "unclassified": 0}
    for s in range(2, 8):
        for p in enumerate_paths(s):
            for child, ds in cover_collisions(p).items():
                for x in range(len(ds)):
                    for y in range(x + 1, len(ds)):
                        census[classify_double_cover(p, ds[x], ds[y])] += 1
    detail = f"collisions for semilength <= 7: {census}"
    _report(7, "double-cover dichotomy", census["unclassified"] == 0, detail)


def test_criterion_8_worked_example():
    pi1 = parse_path("UUUUDDUDDD")
    pi2 = parse_path("UUUUDUDDDD")
    concatenated = pi1.concat(pi2)
    raised = compose_inside(pi1, pi2)
    values = {
        "|UC(pi1)|": (count_upper_covers(pi1), len(upper_covers(pi1)), 11),
        "|UC(pi2)|": (count_upper_covers(pi2), len(upper_covers(pi2)), 10),
        "plain": (count_upper_covers(concatenated),
                  len(upper_covers(concatenated)), 32),
        "raised": (count_upper_covers(raised), len(upper_covers(raised)), 33),
        # the raised gluing written as a shared-column overlap is the same
        # path, counted again for the second composition identity
        "overlap": (count_upper_covers(DyckPath(pi1.word[:-1] + pi2.word[1:])),
                    len(upper_covers(DyckPath(pi1.word[:-1] + pi2.word[1:]))), 33),
    }
    ok = all(closed == brute == expected
             for closed, brute, expected in values.values())
    detail = ", ".join(f"{name}={closed}/{brute} (want {want})"
                       for name, (closed, brute, want) in values.items())
    _report(8, "worked composition example", ok, detail)


def test_criterion_9_region_emission():
    lines = region_inequalities(ShiTableau((0, 0, 1)))
    expected = ["x1-x3>1", "x2-x3>1", "0<x1-x2<1"]
    _report(9, "region emission", lines == expected, f"{lines}")
