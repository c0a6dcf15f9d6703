import pytest

from shipat import DyckPath, verify
from shipat.cli import main
from shipat.poset import Deletion


def test_pool_matches_serial():
    serial = verify.run_suite("all", n_max=4, jobs=1)
    assert verify.run_suite("all", n_max=4, jobs=2) == serial
    assert all(result.ok for result in serial)


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
