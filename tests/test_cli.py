import subprocess
import sys
import time

import pytest

from shipat import avoidance, poset
from shipat.cli import main
from shipat.verify import POOL_MIN_SEMILENGTH

TV5_LINE = "1 2 5 14 42 131 413 1294 4007 12272 37277 112622 339152 1019457\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCovers:
    def test_upper_brute(self, capsys):
        code, out, _ = run_cli(capsys, "covers", "--path", "UD",
                               "--dir", "upper", "--method", "brute")
        assert code == 0
        assert out == "UDUD\nUUDD\n"

    def test_lower_both_agree(self, capsys):
        code, out, _ = run_cli(capsys, "covers", "--path", "UDUDUD",
                               "--dir", "lower", "--method", "both")
        assert code == 0
        assert out == "count_closed,1\ncount_brute,1\nAGREE\n"

    def test_closed_count(self, capsys):
        code, out, _ = run_cli(capsys, "covers", "--path", "UUUUDDUDDD",
                               "--dir", "upper", "--method", "closed")
        assert code == 0
        assert out == "11\n"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "covers", "--path", "UDDU",
                               "--dir", "lower", "--method", "brute")
        assert code == 2
        assert "error" in err

    def test_both_disagree_exit_3(self, capsys, monkeypatch):
        from shipat import covers

        closed = covers.count_upper_covers
        monkeypatch.setattr(covers, "count_upper_covers",
                            lambda path: closed(path) + 1)
        assert run_cli(capsys, "covers", "--path", "UD", "--dir", "upper",
                       "--method", "both") == (
            3, "count_closed,3\ncount_brute,2\nDISAGREE\n", "")

    def test_alias_input(self, capsys):
        code, out, _ = run_cli(capsys, "covers", "--path", "1010",
                               "--dir", "lower", "--method", "brute")
        assert code == 0
        assert out == "UD\n"


class TestCountAvoiders:
    def test_closed_csv(self, capsys):
        code, out, _ = run_cli(capsys, "count-avoiders", "--family", "te",
                               "--k", "2", "--n-max", "4", "--method", "closed")
        assert code == 0
        assert out == "n,count\n0,1\n1,2\n2,4\n3,8\n4,16\n"

    def test_both_agree(self, capsys):
        code, out, _ = run_cli(capsys, "count-avoiders", "--family", "te",
                               "--k", "2", "--n-max", "5", "--method", "both")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,count,count_brute,agree"
        assert all(line.endswith("AGREE") for line in lines[1:])

    def test_tv5_oeis_line(self, capsys):
        code, out, _ = run_cli(capsys, "count-avoiders", "--family", "tv",
                               "--k", "5", "--n-max", "13",
                               "--method", "closed", "--format", "oeis")
        assert code == 0
        assert out == TV5_LINE

    def test_brute_catalan_when_pattern_too_big(self, capsys):
        code, out, _ = run_cli(capsys, "count-avoiders", "--family", "tf",
                               "--k", "9", "--n-max", "3", "--method", "brute")
        assert code == 0
        assert out == "n,count\n0,1\n1,2\n2,5\n3,14\n"

    def test_brute_cap_fails_before_counting(self, capsys, monkeypatch):
        # the rows read their sizes off the one frontier sweep
        calls = []
        monkeypatch.setattr(poset, "_frontiers",
                            lambda *args, **kwargs: calls.append(args))
        for method in ("brute", "both"):
            code, out, err = run_cli(capsys, "count-avoiders", "--family",
                                     "te", "--k", "2", "--n-max", "13",
                                     "--method", method)
            assert code == 1
            assert out == ""
            assert err == "error: brute avoider counting capped at size 12\n"
        assert calls == []

    def test_brute_pattern_cap_fails_before_the_pattern(self, capsys,
                                                        monkeypatch):
        # a family pattern of size k is a word of 2(k + 1) steps
        calls = []
        monkeypatch.setattr(avoidance, "pattern",
                            lambda *args: calls.append(args))
        for method in ("brute", "both"):
            code, out, err = run_cli(capsys, "count-avoiders", "--family",
                                     "te", "--k", "1000000000", "--n-max",
                                     "3", "--method", method)
            assert (code, out, calls) == (1, "", [])
            assert err == "error: brute avoider counting capped at size 12\n"
        code, out, _ = run_cli(capsys, "count-avoiders", "--family", "te",
                               "--k", "1000000000", "--n-max", "3")
        assert (code, out) == (0, "n,count\n0,1\n1,2\n2,5\n3,14\n")

    def test_brute_pattern_at_the_cap_gives_catalan_rows(self, capsys):
        code, out, _ = run_cli(capsys, "count-avoiders", "--family", "tg",
                               "--k", "12", "--n-max", "3", "--method", "both")
        assert code == 0
        assert out == ("n,count,count_brute,agree\n0,1,1,AGREE\n"
                       "1,2,2,AGREE\n2,5,5,AGREE\n3,14,14,AGREE\n")

    def test_both_cap_fails_before_closed_rows(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(avoidance, "avoider_rows",
                            lambda *args: calls.append(args))
        code, out, err = run_cli(capsys, "count-avoiders", "--family", "te",
                                 "--k", "2", "--n-max", "13",
                                 "--method", "both")
        assert (code, out, calls) == (1, "", [])
        assert err == "error: brute avoider counting capped at size 12\n"

    def test_closed_cap_fails_before_counting(self, capsys, monkeypatch):
        # every closed row of every family comes off one walk of the strip,
        # and a single value is at most one f_count
        calls = []
        monkeypatch.setattr(avoidance, "f_count",
                            lambda *args: calls.append(args) or 0)
        monkeypatch.setattr(avoidance, "_strip_walk",
                            lambda *args: calls.append(args) or ([], []))
        for tag in avoidance.FAMILY_TAGS:
            code, out, err = run_cli(capsys, "count-avoiders", "--family",
                                     tag, "--k", "3", "--n-max", "2001")
            assert (code, out, calls) == (1, "", [])
            assert err == "error: closed avoider counting capped at size 2000\n"

    def test_closed_rows_finish_in_seconds(self, capsys):
        # every row comes off one walk of the strip; one walk per row took
        # 31 s for tv_50 to 1000 on 2 vCPUs and minutes for tor_2000, and
        # one strip count per row took 3 s for tg_20 to 2000
        for family, k, n_max in (("tv", 50, 1000), ("tor", 2000, 2000),
                                 ("tg", 20, 2000), ("te", 1999, 2000)):
            start = time.monotonic()
            code, out, _ = run_cli(capsys, "count-avoiders", "--family",
                                   family, "--k", str(k), "--n-max",
                                   str(n_max), "--method", "closed")
            elapsed = time.monotonic() - start
            assert code == 0
            assert out.count("\n") == n_max + 2
            assert elapsed < 5.0, (family, k, elapsed)

    def test_bad_k(self, capsys):
        code, _, err = run_cli(capsys, "count-avoiders", "--family", "te",
                               "--k", "1", "--n-max", "3")
        assert code == 2

    def test_both_disagree_exit_3(self, capsys, monkeypatch):
        rows = avoidance.avoider_rows
        monkeypatch.setattr(
            avoidance, "avoider_rows",
            lambda tag, k, n_max: [count + (n == 2) for n, count
                                   in enumerate(rows(tag, k, n_max))])
        assert run_cli(capsys, "count-avoiders", "--family", "te", "--k",
                       "2", "--n-max", "2", "--method", "both") == (
            3, "n,count,count_brute,agree\n0,1,1,AGREE\n1,2,2,AGREE\n"
               "2,5,4,DISAGREE\n", "")


class TestOthers:
    def test_zeta(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--path", "UDUDUD")
        assert code == 0
        assert out == "UUUDDD\n"

    def test_region(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--area", "0,0,0")
        assert code == 0
        assert out == "x1-x3>1\nx2-x3>1\nx1-x2>1\n"

    def test_region_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--area", "0,1,2")
        assert code == 0
        assert all(line.startswith("0<") for line in out.strip().splitlines())

    def test_region_bad_area(self, capsys):
        code, _, err = run_cli(capsys, "region", "--area", "0,7")
        assert code == 2

    def test_poset_dot(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "--max-size", "2")
        assert code == 0
        assert out.startswith("digraph")
        assert '"UUDD" -> "UD";' in out

    def test_poset_node_cap(self, capsys):
        code, _, err = run_cli(capsys, "poset", "--max-size", "12")
        assert code == 1
        assert err == POSET_CAP

    def test_poset_ignores_the_environment(self, capsys, monkeypatch):
        plain = run_cli(capsys, "poset", "--max-size", "3")
        monkeypatch.setenv("SHIPAT_MAX_NODES", "2")
        assert run_cli(capsys, "poset", "--max-size", "3") == plain

    def test_verify_core(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "core", "--n-max", "5")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_verify_pool_same_stdout(self, capsys):
        argv = ["verify", "--suite", "core", "--n-max",
                str(POOL_MIN_SEMILENGTH), "--jobs"]
        code_1, out_1, _ = run_cli(capsys, *argv, "1")
        code_2, out_2, _ = run_cli(capsys, *argv, "2")
        assert code_1 == code_2 == 0
        assert out_2 == out_1

    def test_verify_failure_exit_1(self, capsys, monkeypatch):
        from shipat import verify

        def stub(n_max):
            raise verify.CheckFailed("boom")

        monkeypatch.setitem(verify.SUITES, "core", {"stub": stub})
        code, out, err = run_cli(capsys, "verify", "--suite", "core")
        assert (code, out) == (1, "FAIL core.stub: boom\n0/1 checks passed\n")
        assert err == "error: 1 of 1 checks failed\n"

    def test_determinism(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "count-avoiders", "--family", "tv",
                                "--k", "3", "--n-max", "6", "--method", "closed")
            outputs.add(out)
        assert len(outputs) == 1


CAP = "error: brute avoider counting capped at size 12\n"
POSET_CAP = "error: poset graph capped at semilength 11\n"

# Every error path of every command: (label, argv, exit code, exact stderr).
MISUSE = [
    ("--n-max", ["count-avoiders", "--family", "te", "--k", "2",
                 "--n-max", "-3"], 2, "error: --n-max must be >= 0\n"),
    ("--jobs", ["count-avoiders", "--family", "tv", "--k", "3", "--n-max",
                "4", "--method", "brute", "--jobs", "0"], 2,
     "error: --jobs must be >= 1\n"),
    ("--n-max", ["verify", "--suite", "core", "--n-max", "-1"], 2,
     "error: --n-max must be >= 0\n"),
    ("--jobs", ["verify", "--suite", "core", "--n-max", "3", "--jobs", "-2"],
     2, "error: --jobs must be >= 1\n"),
    ("covers-bad-path", ["covers", "--path", "UDDU", "--dir", "lower"], 2,
     "error: prefix ending at index 3 has more D than U steps\n"),
    ("covers-bad-char", ["covers", "--path", "UDX", "--dir", "upper"], 2,
     "error: unexpected character 'X' at index 3\n"),
    ("covers-closed-lower-empty", ["covers", "--path", "", "--dir", "lower",
                                   "--method", "closed"], 2,
     "error: lower covers need semilength >= 1\n"),
    ("covers-both-lower-empty", ["covers", "--path", "", "--dir", "lower",
                                 "--method", "both"], 2,
     "error: lower covers need semilength >= 1\n"),
    ("--k", ["count-avoiders", "--family", "te", "--k", "1", "--n-max", "3"],
     2, "error: --k must be >= 2\n"),
    ("oeis-both", ["count-avoiders", "--family", "te", "--k", "2", "--n-max",
                   "3", "--method", "both", "--format", "oeis"], 2,
     "error: oeis format needs a single method\n"),
    ("brute-cap", ["count-avoiders", "--family", "te", "--k", "2",
                   "--n-max", "13", "--method", "brute"], 1, CAP),
    ("both-cap", ["count-avoiders", "--family", "te", "--k", "2",
                  "--n-max", "13", "--method", "both"], 1, CAP),
    ("zeta-bad-path", ["zeta", "--path", "UUD"], 2,
     "error: word of length 3 has 2 U vs 1 D steps\n"),
    ("poset-max-size", ["poset", "--max-size", "0"], 2,
     "error: max_semilength must be >= 1\n"),
    ("poset-node-cap", ["poset", "--max-size", "12"], 1, POSET_CAP),
    ("region-bad-area", ["region", "--area", "0,7"], 2,
     "error: a_2=7 outside [0, 1]\n"),
    ("region-non-integer", ["region", "--area", "0,x"], 2,
     "error: --area needs comma-separated integers, got '0,x'\n"),
    ("region-one-entry", ["region", "--area", "0"], 2,
     "error: region emission needs a tableau of size >= 1\n"),
    ("poset-node-cap-13", ["poset", "--max-size", "13"], 1, POSET_CAP),
    ("poset-node-cap-7300", ["poset", "--max-size", "7300"], 1, POSET_CAP),
    ("verify-cap", ["verify", "--suite", "all", "--n-max", "30"], 1,
     "error: verify capped at semilength 10\n"),
    ("covers-cap", ["covers", "--path", "U" * 2001 + "D" * 2001, "--dir",
                    "upper"], 1,
     "error: cover listing capped at semilength 2000\n"),
    ("closed-cap", ["count-avoiders", "--family", "tv", "--k", "5",
                    "--n-max", "2001"], 1,
     "error: closed avoider counting capped at size 2000\n"),
    ("region-cap", ["region", "--area", ",".join(["0"] * 1002)], 1,
     "error: region emission capped at size 1000\n"),
]


@pytest.mark.parametrize("argv, code, err", [row[1:] for row in MISUSE],
                         ids=[f"argv{i}-{row[0]}" for i, row in enumerate(MISUSE)])
def test_illegal_counts_exit_2(capsys, argv, code, err):
    assert run_cli(capsys, *argv) == (code, "", err)


@pytest.mark.parametrize("argv, message", [
    (["poset", "--max-size", "3", "--max-nodes", "5"],
     "unrecognized arguments: --max-nodes 5"),
    (["poset", "--max-size", "3", "--format", "dot"],
     "unrecognized arguments: --format dot"),
    (["count-avoiders", "--family", "te", "--k", "x", "--n-max", "3"],
     "argument --k: invalid int value: 'x'"),
], ids=["removed-flag", "removed-format", "bad-int"])
def test_usage_error_returns_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: shipat ")
    assert err.endswith(f": error: {message}\n")


def test_help_returns_0(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: shipat ")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shipat.cli", "zeta", "--path", "UDUD"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "UUDD\n"


HEAVY = ("concurrent.futures", "multiprocessing", "shipat.verify",
         "dataclasses")

# Runs one command through cli.main in a fresh interpreter, then prints its
# exit code and which of the HEAVY modules the process has loaded.
COLD_PROBE = f"""
import sys
from shipat import cli
code = cli.main(sys.argv[1:])
print(code, *(name for name in {HEAVY!r} if name in sys.modules))
"""


@pytest.mark.parametrize("argv, code, loaded", [
    pytest.param(["covers", "--path", "UUDUDD", "--dir", "lower",
                  "--method", "both"], 0, [], id="covers"),
    pytest.param(["count-avoiders", "--family", "te", "--k", "2",
                  "--n-max", "5", "--method", "both"], 0, [],
                 id="count-avoiders"),
    pytest.param(["zeta", "--path", "UDUDUD"], 0, [], id="zeta"),
    pytest.param(["poset", "--max-size", "3"], 0, [], id="poset"),
    pytest.param(["region", "--area", "0,0,1"], 0, [], id="region"),
    pytest.param(["covers", "--path", "UDDU", "--dir", "lower"], 2, [],
                 id="misuse"),
    pytest.param(["verify", "--suite", "core", "--n-max", "3",
                  "--jobs", "1"], 0, ["shipat.verify"], id="verify-jobs-1"),
    pytest.param(["verify", "--suite", "all", "--n-max", "4",
                  "--jobs", "2"], 0, ["shipat.verify"], id="verify-inline"),
    pytest.param(["verify", "--suite", "core", "--n-max",
                  str(POOL_MIN_SEMILENGTH), "--jobs", "2"], 0,
                 ["concurrent.futures", "multiprocessing", "shipat.verify"],
                 id="verify-jobs-2"),
])
def test_cold_start_loads_only_what_the_command_runs(argv, code, loaded):
    proc = subprocess.run([sys.executable, "-c", COLD_PROBE, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == [str(code), *loaded]
