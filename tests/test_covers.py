import random
import sys

import pytest

from shipat import (
    Decomposition,
    DyckPath,
    Part,
    RunForm,
    audit_cover_counts,
    classify_branch,
    column_subpath_ucount,
    compose_inside,
    count_lower_covers,
    count_upper_covers,
    enumerate_paths,
    lower_covers,
    parse_path,
    upper_covers,
)
from shipat import covers
from shipat.covers import ALL_BRANCHES

from conftest import uniform_word


class TestClassification:
    @pytest.mark.parametrize("word,branch", [
        ("UD", "minimum"),
        ("UDUDUD", "zigzag"),
        ("UUUDDD", "pyramid"),
        ("UUDUDD", "peak-run"),
        ("UUUDUDDD", "symmetric"),
        ("UUUUDDUDDD", "strongly-irreducible"),
        ("UUUDDUUDDD", "irreducible-composite"),
        ("UUDDUD", "reducible"),
    ])
    def test_examples(self, word, branch):
        assert classify_branch(parse_path(word)) == branch

    def test_dispatch_total(self):
        for s in range(1, 9):
            for p in enumerate_paths(s):
                assert classify_branch(p) in ALL_BRANCHES


class TestLowerCounts:
    def test_special_families(self):
        assert count_lower_covers(parse_path("UDUDUD")) == 1
        assert count_lower_covers(parse_path("UUUDDD")) == 1
        assert count_lower_covers(parse_path("UUDUDD")) == 2
        # U^3 (DU)^1 D^3: symmetric family, peaks + valleys - 1
        assert count_lower_covers(parse_path("UUUDUDDD")) == 2

    def test_decomposition_sum(self):
        # two pyramids with an empty connector: 1 + 1 + 1
        assert count_lower_covers(parse_path("UUDDUUDD")) == 3

    def test_minimum(self):
        assert count_lower_covers(parse_path("UD")) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            count_lower_covers(DyckPath(""))


class TestUpperCounts:
    def test_minimum(self):
        assert count_upper_covers(parse_path("UD")) == 2

    def test_special_families(self):
        for s in range(1, 8):
            assert count_upper_covers(DyckPath("UD" * s)) == 2 * s
            assert count_upper_covers(DyckPath("U" * s + "D" * s)) == 2 * s
        # U(UD)^{m}D has 4(m+1) - 5 upper covers from semilength 3 on
        for m in range(2, 7):
            p = DyckPath("U" + "UD" * m + "D")
            assert count_upper_covers(p) == 4 * (m + 1) - 5

    def test_empty(self):
        assert count_upper_covers(DyckPath("")) == 1


class TestWorkedExample:
    pi1 = parse_path("UUUUDDUDDD")
    pi2 = parse_path("UUUUDUDDDD")

    def test_parts(self):
        assert count_upper_covers(self.pi1) == len(upper_covers(self.pi1)) == 11
        assert count_upper_covers(self.pi2) == len(upper_covers(self.pi2)) == 10

    def test_concatenation(self):
        glued = self.pi1.concat(self.pi2)
        assert count_upper_covers(glued) == len(upper_covers(glued)) == 32

    def test_raised_gluing(self):
        glued = compose_inside(self.pi1, self.pi2)
        # dropping the shared touch steps and wrapping are the same path
        assert glued.word == "U" + self.pi1.word[1:-1] + self.pi2.word[1:-1] + "D"
        assert count_upper_covers(glued) == len(upper_covers(glued)) == 33

    def test_raised_gluing_requires_irreducible(self):
        with pytest.raises(ValueError):
            compose_inside(parse_path("UDUD"), self.pi1)


class TestColumnSubpaths:
    def test_last_column_of_irreducible_has_no_ups(self):
        from shipat import is_irreducible
        for s in range(2, 8):
            for p in enumerate_paths(s):
                if is_irreducible(p):
                    assert column_subpath_ucount(p, s) == 0

    def test_pyramid_columns(self):
        for k in range(2, 6):
            p = DyckPath("U" * k + "D" * k)
            assert column_subpath_ucount(p, 1) == k
            assert column_subpath_ucount(p, k) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            column_subpath_ucount(parse_path("UUDD"), 3)

    def test_scan_oracle(self):
        # independent definition: U steps strictly between D_{c-1} and D_{c+1}
        for s in range(1, 7):
            for p in enumerate_paths(s):
                downs = [i for i, c in enumerate(p.word) if c == "D"]
                for c in range(1, s + 1):
                    lo = downs[c - 2] if c >= 2 else -1
                    hi = downs[c] if c < s else len(p.word)
                    expected = sum(1 for i in range(lo + 1, hi) if p.word[i] == "U")
                    assert column_subpath_ucount(p, c) == expected


class TestAudit:
    def test_full_audit_small(self):
        report = audit_cover_counts(6)
        assert report.ok
        assert report.paths_checked == sum(
            1 for s in range(1, 7) for _ in enumerate_paths(s))

    def test_closed_equals_brute_spotchecks(self):
        import random
        rng = random.Random(99)
        paths = [p for p in enumerate_paths(8)]
        for p in rng.sample(paths, 60):
            assert count_lower_covers(p) == len(lower_covers(p))
            assert count_upper_covers(p) == len(upper_covers(p))

    def test_report_lines(self):
        report = audit_cover_counts(4)
        text = "\n".join(report.summary_lines())
        assert "mismatches: 0" in text


class TestWordLevelCounts:
    """The closed counts read the word alone; the brute cover sets of the
    poset kernel are their oracle."""

    def test_exhaustive_against_brute(self):
        for s in range(10):
            for p in enumerate_paths(s):
                if s:
                    assert count_lower_covers(p) == len(lower_covers(p))
                assert count_upper_covers(p) == len(upper_covers(p))

    @pytest.mark.parametrize("word, lower", [
        ("UUDUUDDD", 3),
        ("UUDUDUDUUDDD", 5),
    ])
    def test_connector_counts_each_peak(self, word, lower):
        # U (UD)^r UUDD D: the connector (UD)^r and the pyramid are two
        # parts, and U (UD)^r D has r lower covers, so 2 - 1 + r + 1
        p = parse_path(word)
        assert classify_branch(p) == "irreducible-composite"
        assert count_lower_covers(p) == len(lower_covers(p)) == lower

    @staticmethod
    def _one_path_per_branch():
        rng = random.Random(15)
        inner = uniform_word(rng, 998)
        left, right = uniform_word(rng, 600), uniform_word(rng, 396)
        words = [
            "", "UD", "UD" * 1000, "U" * 1000 + "D" * 1000,
            "U" + "UD" * 999 + "D",
            "U" * 500 + "DU" * 500 + "D" * 500,
            "UU" + inner + "DD",
            "UU" + left + "DUD" + "U" + right + "DD",
            "U" + left + "D" + "UDUD" + "U" + right + "D",
        ]
        return [DyckPath(word) for word in words]

    def test_no_path_is_built(self):
        paths = self._one_path_per_branch()
        assert [classify_branch(p) for p in paths] == list(ALL_BRANCHES)
        # every constructor of the value classes a decomposition would build
        codes = {cls.__init__.__code__
                 for cls in (DyckPath, RunForm, Part, Decomposition)}
        codes |= {attr.__func__.__code__ for attr in vars(DyckPath).values()
                  if isinstance(attr, classmethod)}
        built = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                built.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            for p in paths:
                classify_branch(p)
                count_upper_covers(p)
                if p.word:
                    count_lower_covers(p)
        finally:
            sys.setprofile(None)
        assert built == []

    def test_special_families_take_no_heights_pass(self, monkeypatch):
        paths = self._one_path_per_branch()[:6]
        want = [(classify_branch(p), count_upper_covers(p),
                 count_lower_covers(p) if p.word else None) for p in paths]
        calls = []
        monkeypatch.setattr(covers, "_word_heights",
                            lambda word: calls.append(word))
        assert [(classify_branch(p), count_upper_covers(p),
                 count_lower_covers(p) if p.word else None)
                for p in paths] == want
        assert calls == []

    def test_other_words_take_one_heights_pass(self, monkeypatch):
        paths = self._one_path_per_branch()[6:]
        paths += [parse_path(w) for w in ("UDUUDD", "UUDUUDDD", "UUUDDUUDDD")]
        want = [(classify_branch(p), count_upper_covers(p),
                 count_lower_covers(p)) for p in paths]
        calls = []
        word_heights = covers._word_heights

        def heights(word):
            calls.append(word)
            return word_heights(word)

        monkeypatch.setattr(covers, "_word_heights", heights)
        for p, counts in zip(paths, want):
            for count, value in zip((classify_branch, count_upper_covers,
                                     count_lower_covers), counts):
                calls.clear()
                assert count(p) == value
                assert calls == [p.word]

    def test_special_shapes_agree_with_the_general_walk(self, monkeypatch):
        words = ["UD" * s for s in range(2, 31)]
        words += ["U" * s + "D" * s for s in range(2, 31)]
        words += ["U" + "UD" * (s - 1) + "D" for s in range(3, 31)]
        words += ["U" * a + "DU" * r + "D" * a
                  for a in range(3, 30) for r in range(1, 31 - a)]
        paths = [DyckPath(word) for word in words]
        shortcut = [(count_upper_covers(p), count_lower_covers(p))
                    for p in paths]
        monkeypatch.setattr(covers, "_special_branch", lambda word: None)
        assert [(count_upper_covers(p), count_lower_covers(p))
                for p in paths] == shortcut

    def test_symmetric_counts_from_the_shape(self):
        # U^a (DU)^r D^a on both sides of r = a - 1, where the upper count
        # changes form, against the column formula and, for small
        # semilengths, the cover sets
        for a in range(3, 30):
            for r in range(1, 30):
                word = "U" * a + "DU" * r + "D" * a
                p = DyckPath(word)
                assert classify_branch(p) == "symmetric"
                assert count_upper_covers(p) == covers._up_irred(word) - 1
                assert count_lower_covers(p) == \
                    word.count("UD") + word.count("DU") - 1
                if a + r <= 9:
                    assert count_upper_covers(p) == len(upper_covers(p))
                    assert count_lower_covers(p) == len(lower_covers(p))
