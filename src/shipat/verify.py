"""Oracle-equivalence suites: every closed formula against its brute twin.

Each check walks an exhaustive range (bounded by ``n_max``), compares an
analytic result with an independent enumeration, and returns the detail of
its one ``ok`` line, or raises :class:`CheckFailed` with the first
counterexample.  :data:`SUITES` is the only place a check's suite and name
are written, and :func:`_run_one` the only place a check's outcome becomes
a :class:`CheckResult`; to add a check, write ``check_x(n_max) -> str`` and
give it one entry in :data:`SUITES`.  The CLI ``verify`` subcommand runs
these and exits nonzero if anything fails.
:func:`run_suite` with ``jobs`` > 1 spreads the checks over a process pool
only from ``n_max`` = :data:`POOL_MIN_SEMILENGTH` on, and only then imports
the pool machinery (``concurrent.futures`` and with it ``multiprocessing``);
below that the pool's fixed cold cost is more than it saves, so the checks
run inline.  The results are the same either way.
"""

from __future__ import annotations

from collections.abc import Callable

from . import avoidance, covers, poset
from .core import (
    CONNECTING,
    IRREDUCIBLE,
    STRONGLY_IRREDUCIBLE,
    _Frozen,
    _RUNS,
    DyckPath,
    Part,
    ShiTableau,
    _check_cap,
    area_vector,
    bounce_path,
    catalan,
    enumerate_paths,
    height,
    irreducible_decomposition,
    is_irreducible,
    is_strongly_irreducible,
    mirror,
    path_to_syt,
    path_to_tableau,
    peaks,
    return_points,
    run_form,
    strongly_irreducible_decomposition,
    syt_to_path,
    tableau_to_path,
    valleys,
)


class CheckResult(_Frozen):
    __slots__ = ("suite", "name", "ok", "detail")
    suite: str
    name: str
    ok: bool
    detail: str

    def __init__(self, suite: str, name: str, ok: bool, detail: str) -> None:
        self._fill(suite, name, ok, detail)

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{status} {self.suite}.{self.name}: {self.detail}"


class CheckFailed(Exception):
    """A check met a counterexample; the message is the detail of its line."""


def _paths_upto(n_max: int):
    for s in range(1, n_max + 1):
        yield from enumerate_paths(s)


# ---------------------------------------------------------------------------
# core suite
# ---------------------------------------------------------------------------


def check_roundtrips(n_max: int) -> str:
    count = 0
    for p in _paths_upto(n_max):
        count += 1
        if tableau_to_path(path_to_tableau(p)) != p:
            raise CheckFailed(f"tableau roundtrip broke {p}")
        if syt_to_path(path_to_syt(p)) != p:
            raise CheckFailed(f"syt roundtrip broke {p}")
    return f"{count} paths round-trip"


def _legal_area_vectors(length: int):
    def extend(prefix: list[int]):
        i = len(prefix)
        if i == length:
            yield tuple(prefix)
            return
        top = min(i, (prefix[-1] + 1) if prefix else 0)
        for a in range(0, top + 1):
            prefix.append(a)
            yield from extend(prefix)
            prefix.pop()
    yield from extend([])


def check_area_characterization(n_max: int) -> str:
    for s in range(1, n_max + 1):
        vectors = set(_legal_area_vectors(s))
        if len(vectors) != catalan(s):
            raise CheckFailed(f"{len(vectors)} legal vectors at length {s}, "
                              f"expected {catalan(s)}")
        from_paths = {area_vector(p) for p in enumerate_paths(s)}
        if vectors != from_paths:
            raise CheckFailed(f"legal vectors differ from path areas at length {s}")
        for vec in vectors:
            if tableau_to_path(ShiTableau(vec)).semilength != s:
                raise CheckFailed(f"rebuild failed for {vec}")
    return f"legal area vectors = path areas up to length {n_max}"


def check_peak_valley_returns(n_max: int) -> str:
    # valleys sitting on the diagonal are the returns, so only the strictly
    # raised ones count on the right-hand side
    for p in _paths_upto(n_max):
        raised = sum(1 for _, h in valleys(p) if h >= 1)
        if len(peaks(p)) != raised + p.heights().count(0):
            raise CheckFailed(p.word)
    return f"|peaks| = |raised valleys| + returns up to semilength {n_max}"


def _bounce_by_walk(word: str) -> str:
    """The bounce path read off the lattice walk of ``word`` (U north, D
    east): from the diagonal point (x, x) go north to the height y at which
    the walk's east step x -> x + 1 starts, then east back to (y, y)."""
    starts = []  # starts[x]: the height of the east step x -> x + 1
    y = 0
    for char in word:
        if char == "U":
            y += 1
        else:
            starts.append(y)
    chunks = []
    x = 0
    while x < len(starts):
        y = starts[x]
        chunks.append("U" * (y - x) + "D" * (y - x))
        x = y
    return "".join(chunks)


def check_bounce(n_max: int) -> str:
    for p in _paths_upto(n_max):
        b = bounce_path(p)
        if b.word != _bounce_by_walk(p.word):
            raise CheckFailed(f"{b} is not the bounce path of {p}")
        if any(x > y for x, y in zip(area_vector(b), area_vector(p))):
            raise CheckFailed(f"{b} not below {p}")
        if bounce_path(b) != b:
            raise CheckFailed(f"not idempotent on {p}")
        if len(return_points(p)) != len(return_points(b)):
            raise CheckFailed(f"return points differ on {p}")
    return f"valid, weakly below, idempotent up to semilength {n_max}"


def _check_parts(p: DyckPath, parts: tuple[Part, ...], kind: str,
                 is_component: Callable[[DyckPath], bool], where: str) -> None:
    """A part of ``kind`` passes ``is_component`` and is not UD; any other
    part is a connecting run (UD)^m, m its peak count, next to no other
    connector, with m = 0 only between two irreducible parts."""
    kinds = [None, *(part.kind for part in parts), None]
    for i, part in enumerate(parts, start=1):
        c, m = part.component, part.peak_count
        if part.kind == kind:
            if c.word == "UD" or not is_component(c):
                raise CheckFailed(f"{c} misclassified{where} in {p}")
        elif not (part.kind == CONNECTING and m is not None and m >= 0
                  and c.word == "UD" * m
                  and CONNECTING not in (kinds[i - 1], kinds[i + 1])
                  and (m or kinds[i - 1] == kinds[i + 1] == IRREDUCIBLE)):
            raise CheckFailed(f"bad connector {c}{where} in {p}")


def _strong_factor(sigma: DyckPath) -> bool:
    return is_strongly_irreducible(DyckPath("U" + sigma.word + "D"))


def check_decompositions(n_max: int) -> str:
    for p in _paths_upto(n_max):
        d = irreducible_decomposition(p)
        if d.reassemble() != p:
            raise CheckFailed(f"reassembly broke {p}")
        _check_parts(p, d.parts, IRREDUCIBLE, is_irreducible, "")
        if not is_irreducible(p):
            continue
        strong = strongly_irreducible_decomposition(p)
        if strong.reassemble() != p:
            raise CheckFailed(f"strong reassembly broke {p}")
        _check_parts(p, strong.parts, STRONGLY_IRREDUCIBLE, _strong_factor,
                     " at the strong level")
    return f"reassembly identity up to semilength {n_max}"


# ---------------------------------------------------------------------------
# covers suite
# ---------------------------------------------------------------------------


def check_cover_audit(n_max: int) -> str:
    report = covers.audit_cover_counts(n_max)
    # the audit has no brute fallback; "0 fallbacks" stays because the verify
    # stdout is pinned by sha256 (VERIFY_SHA256 in bench/workloads.py and
    # the --n-max 7 run in the CI workflow)
    detail = (f"{report.paths_checked} paths, "
              f"{len(report.mismatches)} mismatches, 0 fallbacks")
    if not report.ok:
        raise CheckFailed(detail)
    return detail


def check_inverse_consistency(n_max: int) -> str:
    bound = min(n_max, 7)
    for p in _paths_upto(bound):
        if poset.upper_covers(p) != poset.upper_covers_by_search(p):
            raise CheckFailed(f"insertion vs search differ at {p}")
    return f"insertion = inverse search up to semilength {bound}"


def check_lower_cover_exists(n_max: int) -> str:
    for p in _paths_upto(n_max):
        if p.semilength >= 2 and not poset.lower_covers(p):
            raise CheckFailed(p.word)
    return f"every path of semilength 2..{n_max} has a lower cover"


def check_column_formula_dual_route(n_max: int) -> str:
    for p in _paths_upto(n_max):
        if covers._column_formula(p.word) != _column_formula_from_runs(p):
            raise CheckFailed(p.word)
    return "word-scan and run-form evaluations agree"


def _column_formula_from_runs(p: DyckPath) -> int:
    """Column formula computed purely from run-length arithmetic."""
    rf = run_form(p)
    asc, desc = rf.ascents, rf.descents
    cum_a = [0]
    cum_b = [0]
    for a, b in zip(asc, desc):
        cum_a.append(cum_a[-1] + a)
        cum_b.append(cum_b[-1] + b)
    s = p.semilength

    def run_of_down(j: int) -> int:
        for i in range(1, len(cum_b)):
            if cum_b[i] >= j:
                return i

    total = 2 * s + 1
    for i in range(1, len(asc) + 1):
        c = cum_a[i]
        left = run_of_down(c - 1) if c - 1 >= 1 else 0
        right = run_of_down(c + 1) if c + 1 <= s else len(desc)
        total += desc[i - 1] * (cum_a[right] - cum_a[left])
    return total


def _is_zigzag_segment(segment: str) -> bool:
    """First and last runs free, every interior run of length one."""
    runs = _RUNS.findall(segment)
    return len(runs) >= 3 and all(len(run) == 1 for run in runs[1:-1])


def classify_double_cover(p: DyckPath, d1: poset.Deletion,
                          d2: poset.Deletion) -> str:
    """Case of the double-cover dichotomy a collision falls into.

    Returns "same-runs" when both deleted U steps share an ascent run and
    both deleted D steps share a descent run, "zigzag" when the word
    segment spanned by the four deleted steps is an alternating bridge
    U^r (UD)^l D^t (interior runs all of length one), and "unclassified"
    otherwise.
    """
    word = p.word
    run_id = [rid for rid, run in enumerate(_RUNS.findall(word)) for _ in run]
    ups, downs = [], []
    for pos, char in enumerate(word):
        (ups if char == "U" else downs).append(pos)
    u1, u2 = ups[d1.i - 1], ups[d2.i - 1]
    v1, v2 = downs[d1.k - 1], downs[d2.k - 1]
    if run_id[u1] == run_id[u2] and run_id[v1] == run_id[v2]:
        return "same-runs"
    lo, hi = min(u1, u2, v1, v2), max(u1, u2, v1, v2)
    if _is_zigzag_segment(word[lo:hi + 1]):
        return "zigzag"
    return "unclassified"


def check_double_covers(n_max: int) -> str:
    bound = min(n_max, 7)
    census = {"same-runs": 0, "zigzag": 0}
    for p in _paths_upto(bound):
        for child, ds in poset.cover_collisions(p).items():
            for x in range(len(ds)):
                for y in range(x + 1, len(ds)):
                    kind = classify_double_cover(p, ds[x], ds[y])
                    if kind == "unclassified":
                        raise CheckFailed(f"{p.word}: {ds[x]} vs {ds[y]}")
                    census[kind] += 1
    return f"collisions classified up to semilength {bound}: {census}"


def check_containment_properties(n_max: int) -> str:
    bound = min(n_max, 6)
    paths = list(_paths_upto(bound))
    for p in paths:
        if not poset.contains_pattern(p, p):
            raise CheckFailed(f"not reflexive at {p}")
    # least-embedding fixpoint vs the brute-force word search
    small = [p for p in paths if p.semilength <= 5]
    for p in small:
        for q in small:
            if poset.contains_pattern(p, q) != poset.contains_pattern_by_search(p, q):
                raise CheckFailed(f"fixpoint and word search disagree on {p} >= {q}")
    # the wording predates the fixpoint; verify stdout is pinned byte for
    # byte (tests/test_verify.py and the sha256 sums in CI and the benchmark)
    return "reflexive; pruned search matches unpruned reference"


# ---------------------------------------------------------------------------
# avoidance suite
# ---------------------------------------------------------------------------


def check_characterizations(n_max: int) -> str:
    # the brute answers of every host come off one up-set per pattern
    containing = {(tag, k): poset.up_set(avoidance.pattern(tag, k), n_max)
                  for tag in avoidance.FAMILY_TAGS for k in (2, 3, 4)}
    count = 0
    for p in _paths_upto(n_max):
        for tag in avoidance.FAMILY_TAGS:
            for k in (2, 3, 4):
                count += 1
                lhs = avoidance.avoids_characterized(p, tag, k)
                rhs = p.word not in containing[tag, k][p.semilength]
                if lhs != rhs:
                    raise CheckFailed(f"{tag}_{k} differs at {p.word}")
    return f"{count} predicate/search agreements"


def check_zeta(n_max: int) -> str:
    for s in range(1, n_max + 1):
        images = set()
        for p in enumerate_paths(s):
            z = avoidance.zeta(p)
            if z.semilength != s:
                raise CheckFailed(f"size broke at {p}")
            images.add(z)
        if len(images) != catalan(s):
            raise CheckFailed(f"not bijective at {s}")
    for p in _paths_upto(min(n_max, 8)):
        z = avoidance.zeta(p)
        for k in range(1, 6):
            if (height(p) <= k) != (len(return_points(z)) <= k):
                raise CheckFailed(f"height/bounce equivalence broke at {p}, k={k}")
    return (f"bijective up to semilength {n_max}; "
            "height <=> bounce returns for k <= 5")


def check_peak_flattening(n_max: int) -> str:
    # the flattening bijection pairs tg_k with te_k only from k = 3 on;
    # at size two tg sits in the other Wilf class
    for k in (3, 4):
        for s in range(1, min(n_max, 7) + 1):
            g_avoiders = [p for p in enumerate_paths(s)
                          if avoidance.avoids_characterized(p, "tg", k)]
            images = set()
            for p in g_avoiders:
                q = avoidance.flatten_high_peaks(p, k - 1)
                if not avoidance.avoids_characterized(q, "te", k):
                    raise CheckFailed(f"{p.word} -> {q.word} not te_{k}-avoiding")
                images.add(q)
            e_avoiders = {p for p in enumerate_paths(s)
                          if avoidance.avoids_characterized(p, "te", k)}
            if images != e_avoiders:
                raise CheckFailed(f"not onto for k={k}, s={s}")
    return "tg avoiders map bijectively onto te avoiders (k = 3, 4)"


def check_mirror_symmetry(n_max: int) -> str:
    bound = min(n_max, 8)
    for s in range(1, bound + 1):
        for p in enumerate_paths(s):
            if avoidance.avoids_characterized(p, "tv", 2) != \
                    avoidance.avoids_characterized(mirror(p), "tor", 2):
                raise CheckFailed(p.word)
    for k in (2, 3):
        rows = [avoidance.brute_avoider_counts(avoidance.pattern(tag, k),
                                               min(n_max, 7))
                for tag in ("tv", "tor")]
        for n, (a, b) in enumerate(zip(*rows)):
            if a != b:
                raise CheckFailed(f"counts differ at k={k}, n={n}")
    return "mirror exchanges tv and tor avoiders; counts agree"


def check_f_count(n_max: int) -> str:
    # The grid runs both evaluations of f_count: (k + 2)^3 <= 4(m + n)
    # folds k <= 3 once m + n is large enough, and the rest reflect.  One
    # walk of the oracle's columns to (20, 20) holds every f(m, n, k) of a
    # k.  The detail line is pinned byte for byte, so it keeps its old
    # wording.
    for k in range(0, 9):
        for m, column in enumerate(avoidance._strip_columns(20, k)):
            for n in range(0, 21):
                if avoidance.f_count(m, n, k) != column[n]:
                    raise CheckFailed(f"mismatch at ({m}, {n}, {k})")
    return "reflection formula = DP oracle on 0..20 x 0..20 x 0..8"


def check_closed_vs_brute(n_max: int) -> str:
    bound = min(n_max, 8)
    for tag in avoidance.FAMILY_TAGS:
        for k in (2, 3, 4, 5):
            rows = avoidance.brute_avoider_counts(avoidance.pattern(tag, k), bound)
            closed_rows = avoidance.avoider_rows(tag, k, bound)
            for n, (closed, brute) in enumerate(zip(closed_rows, rows)):
                if closed != brute:
                    raise CheckFailed(f"{tag}_{k} at n={n}: "
                                      f"closed={closed} brute={brute}")
    return f"all families, k 2..5, n 0..{bound}"


SUITES: dict[str, dict[str, Callable[[int], str]]] = {
    "core": {
        "roundtrips": check_roundtrips,
        "area-characterization": check_area_characterization,
        "peaks-valleys-returns": check_peak_valley_returns,
        "bounce": check_bounce,
        "decompositions": check_decompositions,
    },
    "covers": {
        "closed-vs-brute": check_cover_audit,
        "inverse-consistency": check_inverse_consistency,
        "lower-cover-exists": check_lower_cover_exists,
        "column-formula-dual": check_column_formula_dual_route,
        "double-cover": check_double_covers,
        "containment-order": check_containment_properties,
    },
    "avoidance": {
        "characterizations": check_characterizations,
        "zeta": check_zeta,
        "peak-flattening": check_peak_flattening,
        "mirror-symmetry": check_mirror_symmetry,
        "f-count": check_f_count,
        "closed-vs-brute": check_closed_vs_brute,
    },
}


VERIFY_MAX_SEMILENGTH = 10  # the largest n_max run_suite accepts

# The smallest n_max at which run_suite opens a pool for jobs > 1: below it
# the pool's fixed cold cost (importing concurrent.futures.process, forking
# the workers, the queues; about 45 ms) is more than it saves.  Cold
# run_suite("all", n_max) in ms, inline against a pool of 2, import
# included, median of 9-15 alternating fresh processes on 2 vCPUs:
#
#     n_max      4     5     6     7     10
#     inline    23    63   166   601  7535
#     pool      67   107   199   428  5238
POOL_MIN_SEMILENGTH = 7


def _run_one(args: tuple[str, str, int]) -> CheckResult:
    """Run one registered check; the only place a result is built."""
    suite, name, n_max = args
    try:
        return CheckResult(suite, name, True, SUITES[suite][name](n_max))
    except CheckFailed as failure:
        return CheckResult(suite, name, False, str(failure))


def run_suite(suite: str, n_max: int = 7, jobs: int = 1) -> list[CheckResult]:
    """Run one suite (or "all"); results come back in registry order.

    ``jobs`` > 1 runs the checks in a pool of that many worker processes,
    at most one per check, when ``n_max`` is at least
    :data:`POOL_MIN_SEMILENGTH`; below it they run inline, as for
    ``jobs`` = 1, and no pool is opened or imported.
    An ``n_max`` above :data:`VERIFY_MAX_SEMILENGTH` raises
    :class:`~shipat.core.ResourceLimit` before any check runs.
    """
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    _check_cap("verify", "semilength", n_max, VERIFY_MAX_SEMILENGTH)
    work = [(name, check, n_max) for name in names for check in SUITES[name]]
    # a pool may start all its workers when it opens, and a check needs one
    jobs = min(jobs, len(work))
    if jobs > 1 and n_max >= POOL_MIN_SEMILENGTH:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_one, work))
    return [_run_one(item) for item in work]
