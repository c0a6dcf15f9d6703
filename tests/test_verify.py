import pytest

from shipat import (
    CONNECTING,
    EMPTY_PATH,
    IRREDUCIBLE,
    STRONGLY_IRREDUCIBLE,
    Decomposition,
    DyckPath,
    Part,
    avoidance,
    covers,
    poset,
    verify,
)
from shipat.cli import main
from shipat.poset import Deletion


@pytest.fixture(scope="module")
def serial_all():
    """Every check run inline at the smallest n_max that opens a pool."""
    return verify.run_suite("all", n_max=verify.POOL_MIN_SEMILENGTH, jobs=1)


def test_pool_matches_serial(serial_all):
    assert verify.run_suite("all", n_max=verify.POOL_MIN_SEMILENGTH,
                            jobs=2) == serial_all
    assert all(result.ok for result in serial_all)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand a SerialPool in for the process pool and return the sizes it
    is asked for: it records each size and maps serially, starting no
    process."""
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_pool_has_at_most_one_worker_per_check(pool_sizes, serial_all):
    # a pool may start all max_workers processes when it opens
    n_max = verify.POOL_MIN_SEMILENGTH
    serial = verify.run_suite("core", n_max=n_max, jobs=1)
    checks = len(verify.SUITES["core"])
    for jobs, size in ((2, 2), (checks, checks), (checks + 1, checks),
                       (100_000, checks)):
        assert verify.run_suite("core", n_max=n_max, jobs=jobs) == serial
        assert pool_sizes.pop() == size
    assert verify.run_suite("all", n_max=n_max, jobs=10**9) == serial_all
    assert pool_sizes == [sum(map(len, verify.SUITES.values()))]


def test_no_pool_below_the_pool_semilength(pool_sizes):
    for suite, n_max in (("all", 4), ("core", verify.POOL_MIN_SEMILENGTH - 1)):
        assert verify.run_suite(suite, n_max=n_max, jobs=2) == verify.run_suite(
            suite, n_max=n_max, jobs=1)
    assert pool_sizes == []


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope")


VERIFY_N4 = """\
ok core.roundtrips: 22 paths round-trip
ok core.area-characterization: legal area vectors = path areas up to length 4
ok core.peaks-valleys-returns: |peaks| = |raised valleys| + returns up to semilength 4
ok core.bounce: valid, weakly below, idempotent up to semilength 4
ok core.decompositions: reassembly identity up to semilength 4
ok covers.closed-vs-brute: 22 paths, 0 mismatches, 0 fallbacks
ok covers.inverse-consistency: insertion = inverse search up to semilength 4
ok covers.lower-cover-exists: every path of semilength 2..4 has a lower cover
ok covers.column-formula-dual: word-scan and run-form evaluations agree
ok covers.double-cover: collisions classified up to semilength 4: {'same-runs': 102, 'zigzag': 78}
ok covers.containment-order: reflexive; pruned search matches unpruned reference
ok avoidance.characterizations: 330 predicate/search agreements
ok avoidance.zeta: bijective up to semilength 4; height <=> bounce returns for k <= 5
ok avoidance.peak-flattening: tg avoiders map bijectively onto te avoiders (k = 3, 4)
ok avoidance.mirror-symmetry: mirror exchanges tv and tor avoiders; counts agree
ok avoidance.f-count: reflection formula = DP oracle on 0..20 x 0..20 x 0..8
ok avoidance.closed-vs-brute: all families, k 2..5, n 0..4
17/17 checks passed
"""


def test_verify_all_stdout_golden(capsys):
    assert main(["verify", "--suite", "all", "--n-max", "4"]) == 0
    assert capsys.readouterr() == (VERIFY_N4, "")


def test_a_collision_outside_both_cases_is_unclassified():
    # the deleted U steps lie in different ascent runs, and the segment
    # UUDDUUD that the four deleted steps span has interior runs of length 2
    assert verify.classify_double_cover(
        DyckPath("UUDDUUDD"), Deletion(1, 1), Deletion(3, 3)) == "unclassified"


def test_an_unclassified_collision_fails_the_check(monkeypatch):
    monkeypatch.setattr(verify, "classify_double_cover",
                        lambda p, d1, d2: "unclassified")
    assert verify._run_one(("covers", "double-cover", 4)).line() == (
        "FAIL covers.double-cover: UDUD: Deletion(i=1, k=1) vs "
        "Deletion(i=2, k=1)")


def _nth_wrong(real, n, wrong):
    """``real``, except that its n-th answer is replaced by ``wrong(answer)``."""
    calls = []

    def patched(*args):
        calls.append(args)
        answer = real(*args)
        return wrong(answer) if len(calls) == n else answer
    return patched


def _not(answer):
    return not answer


def _plus_one(answer):
    return answer + 1


def _first_entry_plus_one(columns):
    """The columns, except that entry 0 of column 0 is one too large."""
    first = next(columns)
    yield [first[0] + 1, *first[1:]]
    yield from columns


UD, UDUD = DyckPath("UD"), DyckPath("UDUD")

# For every registered check, one wrong answer per counterexample it can
# report: (module, name of the subject, the call to get wrong, how it goes
# wrong, the start of the FAIL detail).
WRONG_ANSWERS = {
    ("core", "roundtrips"): [
        (verify, "tableau_to_path", 1, lambda p: DyckPath("UUDD"),
         "tableau roundtrip broke"),
        (verify, "syt_to_path", 1, lambda p: DyckPath("UUDD"),
         "syt roundtrip broke"),
    ],
    ("core", "area-characterization"): [
        (verify, "catalan", 1, _plus_one, "1 legal vectors at length 1"),
        (verify, "area_vector", 1, lambda a: (9,), "legal vectors differ"),
        (verify, "tableau_to_path", 1, lambda p: EMPTY_PATH, "rebuild failed"),
    ],
    ("core", "peaks-valleys-returns"): [
        (verify, "peaks", 1, lambda found: found * 2, "UD"),
    ],
    ("core", "bounce"): [
        (verify, "_bounce_by_walk", 1, lambda w: "", "UD is not the bounce"),
        (verify, "area_vector", 1, lambda a: (1,), "UD not below UD"),
        (verify, "bounce_path", 2, lambda b: DyckPath("UUDD"),
         "not idempotent"),
        (verify, "return_points", 1, lambda points: points * 2,
         "return points differ"),
    ],
    ("core", "decompositions"): [
        (verify, "irreducible_decomposition", 1,
         lambda d: Decomposition(IRREDUCIBLE, ()), "reassembly broke"),
        # calls 1 and 2 ask about UD and UDUD, call 3 about the part UUDD
        (verify, "is_irreducible", 3, _not, "UUDD misclassified"),
        (verify, "strongly_irreducible_decomposition", 1,
         lambda d: Decomposition(IRREDUCIBLE, ()), "strong reassembly broke"),
        # each wrong decomposition below still reassembles: call 1 is UD,
        # call 2 UDUD; at the strong level calls 2 and 3 are UUDD, UUDUDD
        (verify, "irreducible_decomposition", 1,
         lambda d: Decomposition(IRREDUCIBLE, (Part(UD, IRREDUCIBLE),)),
         "UD misclassified in UD"),
        (verify, "irreducible_decomposition", 2,
         lambda d: Decomposition(IRREDUCIBLE, (Part(UDUD, CONNECTING, 1),)),
         "bad connector UDUD in UDUD"),
        (verify, "irreducible_decomposition", 1,
         lambda d: Decomposition(IRREDUCIBLE, (
             Part(EMPTY_PATH, CONNECTING, 0), Part(UD, CONNECTING, 1))),
         "bad connector (empty) in UD"),
        (verify, "irreducible_decomposition", 2,
         lambda d: Decomposition(IRREDUCIBLE, (
             Part(UD, CONNECTING, 1), Part(UD, CONNECTING, 1))),
         "bad connector UD in UDUD"),
        (verify, "strongly_irreducible_decomposition", 1,
         lambda d: Decomposition(STRONGLY_IRREDUCIBLE, (
             Part(EMPTY_PATH, CONNECTING, 0),)),
         "bad connector (empty) at the strong level in UD"),
        (verify, "strongly_irreducible_decomposition", 2,
         lambda d: Decomposition(STRONGLY_IRREDUCIBLE, (
             Part(UD, STRONGLY_IRREDUCIBLE),)),
         "UD misclassified at the strong level in UUDD"),
        (verify, "strongly_irreducible_decomposition", 3,
         lambda d: Decomposition(STRONGLY_IRREDUCIBLE, (
             Part(UDUD, STRONGLY_IRREDUCIBLE),)),
         "UDUD misclassified at the strong level in UUDUDD"),
        (verify, "strongly_irreducible_decomposition", 3,
         lambda d: Decomposition(STRONGLY_IRREDUCIBLE, (
             Part(UD, CONNECTING, 1), Part(UD, CONNECTING, 1))),
         "bad connector UD at the strong level in UUDUDD"),
    ],
    ("covers", "closed-vs-brute"): [
        (covers, "count_lower_covers", 1, _plus_one, "22 paths, 1 mismatches"),
        # the 1st lower_covers call is UD, whose count is 0 either way
        (covers, "lower_covers", 2, lambda downs: frozenset(),
         "22 paths, 1 mismatches"),
        (covers, "upper_covers", 1, lambda ups: frozenset(),
         "22 paths, 1 mismatches"),
    ],
    ("covers", "inverse-consistency"): [
        (poset, "upper_covers_by_search", 1, lambda ups: frozenset(),
         "insertion vs search differ"),
        (poset, "upper_covers", 1, lambda ups: frozenset(),
         "insertion vs search differ at UD"),
    ],
    ("covers", "lower-cover-exists"): [
        (poset, "lower_covers", 1, lambda downs: frozenset(), "UDUD"),
    ],
    ("covers", "column-formula-dual"): [
        (covers, "_column_formula", 1, _plus_one, "UD"),
        (verify, "_column_formula_from_runs", 1, _plus_one, "UD"),
    ],
    ("covers", "double-cover"): [
        (verify, "classify_double_cover", 1, lambda kind: "unclassified",
         "UDUD: Deletion"),
    ],
    ("covers", "containment-order"): [
        (poset, "contains_pattern", 1, _not, "not reflexive"),
        (poset, "contains_pattern_by_search", 1, _not,
         "fixpoint and word search disagree"),
    ],
    ("avoidance", "characterizations"): [
        (avoidance, "avoids_characterized", 1, _not, "te_2 differs at UD"),
        (poset, "up_set", 1, lambda levels: [frozenset()] * len(levels),
         "te_2 differs at UUUDDD"),
    ],
    ("avoidance", "zeta"): [
        (avoidance, "zeta", 1, lambda z: EMPTY_PATH, "size broke"),
        # zeta(UUDD) is UDUD, so a second UDUD leaves one image at size 2
        (avoidance, "zeta", 2, lambda z: DyckPath("UDUD"),
         "not bijective at 2"),
        (verify, "return_points", 1, lambda points: points * 2,
         "height/bounce equivalence broke"),
    ],
    ("avoidance", "peak-flattening"): [
        (avoidance, "flatten_high_peaks", 1,
         lambda q: DyckPath("U" * 5 + "D" * 5), "UD -> UUUUUDDDDD"),
        (avoidance, "flatten_high_peaks", 1, lambda q: EMPTY_PATH,
         "not onto for k=3, s=1"),
    ],
    ("avoidance", "mirror-symmetry"): [
        (avoidance, "avoids_characterized", 1, _not, "UD"),
        (avoidance, "brute_avoider_counts", 1,
         lambda rows: [rows[0] + 1, *rows[1:]], "counts differ at k=2, n=0"),
    ],
    ("avoidance", "f-count"): [
        (avoidance, "f_count", 1, _plus_one, "mismatch at (0, 0, 0)"),
        (avoidance, "_strip_columns", 1, _first_entry_plus_one,
         "mismatch at (0, 0, 0)"),
    ],
    ("avoidance", "closed-vs-brute"): [
        (avoidance, "avoider_rows", 1, lambda rows: [rows[0] + 1, *rows[1:]],
         "te_2 at n=0: closed=2 brute=1"),
        (avoidance, "brute_avoider_counts", 1,
         lambda rows: [rows[0] + 1, *rows[1:]],
         "te_2 at n=0: closed=1 brute=2"),
    ],
}


@pytest.mark.parametrize("suite, name", [
    (suite, name) for suite in verify.SUITES for name in verify.SUITES[suite]])
def test_every_check_reports_a_wrong_answer(monkeypatch, suite, name):
    for module, subject, n, wrong, detail in WRONG_ANSWERS[suite, name]:
        with monkeypatch.context() as patch:
            patch.setattr(module, subject,
                          _nth_wrong(getattr(module, subject), n, wrong))
            result = verify._run_one((suite, name, 4))
        assert not result.ok, (subject, n)
        assert result.detail.startswith(detail), (subject, result.detail)
