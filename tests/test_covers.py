import random
import sys

import pytest

from shipat import (
    Decomposition,
    DyckPath,
    Part,
    ResourceLimit,
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

    def test_report_lines(self):
        report = audit_cover_counts(4)
        text = "\n".join(report.summary_lines())
        assert "mismatches: 0" in text

    def test_a_wrong_count_is_recorded_and_fails_verify(self, monkeypatch):
        from shipat import verify
        count = covers.count_upper_covers
        monkeypatch.setattr(covers, "count_upper_covers",
                            lambda p: count(p) + (p.word == "UUDUDD"))
        report = audit_cover_counts(3)
        assert not report.ok
        assert report.mismatches == (("UUDUDD", "peak-run", "upper", 8, 7),)
        assert "    upper UUDUDD [peak-run]: closed=8 brute=7" in \
            report.summary_lines()
        assert verify._run_one(("covers", "closed-vs-brute", 3)).line() == (
            "FAIL covers.closed-vs-brute: 8 paths, 1 mismatches, 0 fallbacks")

    def test_a_wrong_lower_count_is_recorded(self, monkeypatch):
        count = covers.count_lower_covers
        monkeypatch.setattr(covers, "count_lower_covers",
                            lambda p: count(p) + (p.word == "UUDUDD"))
        report = audit_cover_counts(3)
        assert not report.ok
        assert report.mismatches == (("UUDUDD", "peak-run", "lower", 3, 2),)

    def test_refused_above_the_brute_cap_before_any_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(covers, "enumerate_paths",
                            lambda s: calls.append(s) or ())
        with pytest.raises(ResourceLimit,
                           match="^cover audit capped at semilength 13$"):
            audit_cover_counts(14)
        assert calls == []
        assert audit_cover_counts(13).paths_checked == 0
        assert calls == list(range(1, 14))


class TestWordLevelCounts:
    """The closed counts read the word alone; the brute cover sets of the
    poset kernel are their oracle."""

    def test_exhaustive_against_brute(self):
        for s in range(10):
            for p in enumerate_paths(s):
                if s:
                    assert count_lower_covers(p) == len(lower_covers(p))
                assert count_upper_covers(p) == len(upper_covers(p))

    def test_seeded_large_semilength_against_brute(self):
        # past the exhaustive range: uniform words at s = 100, 400 and 1000,
        # and built words with UD ground factors first, in the middle and
        # last, runs of adjacent UUDD parts, and symmetric and pyramid parts
        # inside a composite factor
        rng = random.Random(30)
        words = [uniform_word(rng, s) for s in (100, 400, 1000)
                 for _ in range(2)]

        def factor(*parts):
            # U g_1 ... g_m D has the parts U g_i D
            return "U" + "".join(v[1:-1] for v in parts) + "D"

        pyramid, run = "U" * 40 + "D" * 40, ["UUDD"] * 25
        wide = "U" * 6 + "DU" * 30 + "D" * 6  # symmetric, r >= a - 1
        tall = "U" * 20 + "DU" * 5 + "D" * 20  # symmetric, r < a - 1
        strong = ["UU" + uniform_word(rng, s) + "DD" for s in (58, 148)]
        parts = [wide, *run, pyramid, strong[0], "UUDD", tall, *run,
                 strong[1], "UUDD", "UUDD"]
        composite = factor(*parts)
        assert covers._factor_parts(composite) == [(composite, parts)]
        words += [
            composite,
            "UD" + composite + "UD" + uniform_word(rng, 300) + "UD",
            "UDUD" + factor(*run, pyramid) + "UD" + composite + "UDUD",
            factor(strong[0], *run) + "UD" + factor(*run, tall) + pyramid,
            factor(pyramid, wide) + factor(tall, pyramid),
        ]
        for p in map(DyckPath, words):
            assert covers._special(p.word) is None
            assert count_lower_covers(p) == len(lower_covers(p))
            assert count_upper_covers(p) == len(upper_covers(p))

    @staticmethod
    def _composition_holds(x, y, up_x, up_y):
        # |UC(x + y)| = |UC(x)| + |UC(y)| + lastdescent(x) * firstascent(y) - 1
        last_descent = len(x) - len(x.rstrip("D"))
        first_ascent = len(y) - len(y.lstrip("U"))
        return (count_upper_covers(DyckPath(x + y))
                == up_x + up_y + last_descent * first_ascent - 1)

    def test_composition_lemma_exhaustive(self):
        upper = {p.word: count_upper_covers(p)
                 for s in range(1, 9) for p in enumerate_paths(s)}
        pairs = [(x, y) for x in upper for y in upper
                 if len(x) + len(y) <= 18]
        assert len(pairs) == 9878
        for x, y in pairs:
            assert self._composition_holds(x, y, upper[x], upper[y]), (x, y)

    def test_composition_lemma_seeded(self):
        rng = random.Random(31)
        for _ in range(20):
            x, y = (uniform_word(rng, rng.randrange(200, 501))
                    for _ in range(2))
            assert self._composition_holds(
                x, y, count_upper_covers(DyckPath(x)),
                count_upper_covers(DyckPath(y))), (x, y)

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
        monkeypatch.setattr(covers, "_special", lambda word: None)
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
                assert count_upper_covers(p) == covers._column_formula(word) - 1
                assert count_lower_covers(p) == \
                    word.count("UD") + word.count("DU") - 1
                if a + r <= 9:
                    assert count_upper_covers(p) == len(upper_covers(p))
                    assert count_lower_covers(p) == len(lower_covers(p))
