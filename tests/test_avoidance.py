import math
import random
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings

from shipat import (
    EMPTY_PATH,
    DyckPath,
    ShiTableau,
    UnsupportedFamily,
    area_vector,
    avoider_rows,
    avoids,
    avoids_characterized,
    ballot_count,
    bounded_height_count,
    brute_avoider_counts,
    catalan,
    count_avoiders_brute,
    count_avoiders_closed,
    enumerate_paths,
    f_count,
    f_count_oracle,
    flatten_high_peaks,
    height,
    mirror,
    parse_path,
    pattern,
    return_points,
    tableau_to_path,
    zeta,
)
from shipat.avoidance import (
    FAMILY_TAGS,
    avoids_tor2_shape,
    avoids_tv2_shape,
    sequence_csv,
    sequence_oeis,
)
from shipat import avoidance, poset
from shipat.poset import ResourceLimit, contains_pattern, up_set

from conftest import dyck_paths, uniform_word

TV5_TERMS = [1, 2, 5, 14, 42, 131, 413, 1294, 4007, 12272,
             37277, 112622, 339152, 1019457]
TV6_TERMS = [1, 2, 5, 14, 42, 132, 428, 1411, 4675, 15463,
             50928, 166999, 545682, 1778631]


class TestPatterns:
    def test_size_two(self):
        assert pattern("te", 2).word == "UUUDDD"
        assert pattern("tg", 2).word == "UUDUDD"
        assert pattern("tor", 2).word == "UUDDUD"
        assert pattern("tv", 2).word == "UDUUDD"
        assert pattern("tf", 2).word == "UDUDUD"

    def test_size_k(self):
        assert pattern("tv", 5).word == "UD" + "U" * 5 + "D" * 5
        assert pattern("tg", 4).word == "UUUUDUDDDD"
        for tag in FAMILY_TAGS:
            assert pattern(tag, 3).semilength == 4

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamily):
            pattern("tx", 2)

    def test_family_errors_agree(self):
        # every family entry point checks the tag first, then the size
        for tag, k, error in [("xx", 1, UnsupportedFamily),
                              ("xx", 2, UnsupportedFamily),
                              ("te", 1, ValueError)]:
            for call in (lambda: pattern(tag, k),
                         lambda: avoids_characterized(EMPTY_PATH, tag, k),
                         lambda: count_avoiders_closed(tag, k, 3)):
                with pytest.raises(ValueError) as info:
                    call()
                assert info.type is error


class TestCharacterizations:
    def test_zigzag_avoids_te(self):
        for n in range(1, 6):
            assert avoids_characterized(DyckPath("UD" * (n + 1)), "te", 2)

    def test_pyramid_avoids_tf(self):
        for n in range(2, 7):
            assert avoids_characterized(DyckPath("U" * (n + 1) + "D" * (n + 1)), "tf", 2)

    def test_tg2_is_contained_in_itself(self):
        # UUDUDD is the tg pattern, so it cannot avoid it; the predicate and
        # the search oracle agree on that
        p = parse_path("UUDUDD")
        assert not avoids_characterized(p, "tg", 2)
        assert not avoids(p, pattern("tg", 2))

    def test_exhaustive_vs_search(self):
        for s in range(1, 8):
            for p in enumerate_paths(s):
                for tag in FAMILY_TAGS:
                    for k in (2, 3):
                        assert avoids_characterized(p, tag, k) == \
                            avoids(p, pattern(tag, k)), (p.word, tag, k)

    def test_size2_shape_predicates(self):
        for s in range(1, 8):
            for p in enumerate_paths(s):
                assert avoids_tv2_shape(p) == avoids_characterized(p, "tv", 2)
                assert avoids_tor2_shape(p) == avoids_characterized(p, "tor", 2)

    @given(dyck_paths(min_semilength=1, max_semilength=6))
    @settings(max_examples=50)
    def test_mirror_exchanges_tv_tor(self, p):
        for k in (2, 3):
            assert avoids_characterized(p, "tv", k) == \
                avoids_characterized(mirror(p), "tor", k)


class TestCounting:
    def test_bounded_height(self):
        assert bounded_height_count(3, 2) == 4
        assert all(bounded_height_count(n, 1) == 1 for n in range(8))
        assert [bounded_height_count(n + 1, 2) for n in range(7)] == [
            2 ** n for n in range(7)]

    def test_ballot(self):
        assert ballot_count(2, 1) == 2
        assert all(ballot_count(n, 0) == 1 for n in range(8))
        assert all(ballot_count(n, n) == catalan(n) for n in range(11))
        # ballot paths to (l, n) are all paths less the reflected ones
        for n in range(81):
            for ell in range(1, n + 1):
                want = math.comb(n + ell, ell) - math.comb(n + ell, ell - 1)
                assert ballot_count(n, ell) == want, (n, ell)
        with pytest.raises(ValueError):
            ballot_count(2, 3)

    def test_f_count_basics(self):
        assert all(f_count(0, 0, k) == 1 for k in range(5))
        assert f_count(3, 3, 2) == 4
        assert all(f_count(n, n, k) == bounded_height_count(n, k)
                   for n in range(10) for k in range(6))

    def test_f_count_against_oracle(self):
        for m in range(12):
            for n in range(12):
                for k in range(6):
                    assert f_count(m, n, k) == f_count_oracle(m, n, k)

    def test_f_count_oracle_is_the_column_walk(self):
        for k in range(9):
            for m, column in enumerate(avoidance._strip_columns(20, k)):
                assert [f_count_oracle(m, n, k) for n in range(21)] == column

    def test_bounded_height_counts_enumerated_paths(self):
        for s in range(11):
            heights = [height(p) for p in enumerate_paths(s)]
            for k in range(7):
                assert bounded_height_count(s, k) == \
                    sum(1 for h in heights if h <= k), (s, k)

    def test_bounded_height_against_strip_oracle(self):
        for n in range(60):
            for k in range(14):
                assert bounded_height_count(n, k) == f_count_oracle(n, n, k)
        with pytest.raises(ValueError):
            bounded_height_count(-1, 2)

    def test_f_count_against_oracle_large(self):
        rng = random.Random(20201)
        cases = []
        for _ in range(10):
            m, k = rng.randint(200, 1500), rng.randint(0, 12)
            cases.append((m, m + rng.randint(0, k), k))
        for k in (0, 1, 3, 7):
            period = k + 2
            # n - m at both ends of [0, k], and m below one period
            cases += [(900, 900, k), (900, 900 + k, k),
                      (period - 1, period - 1, k), (period - 1, period - 1 + k, k)]
            # the last index m - i * period lands exactly on 0
            m = 150 * period
            cases += [(m, m, k), (m, m + k, k)]
            # the last index m + i * period - 1 lands exactly on m + n
            n = 150 * period - 1
            cases += [(n, n, k), (n - k, n, k)]
        for m, n, k in cases:
            want = f_count_oracle(m, n, k)
            assert f_count(m, n, k) == want, (m, n, k)
            # the rule folds most of these strips, so the reflection sum,
            # whose boundary terms the cases aim at, is called directly
            assert avoidance._strip_by_reflection(m, n, k) == want, (m, n, k)

    def test_brute_small_patterns(self):
        assert count_avoiders_brute(pattern("te", 2), 2) == 4
        assert count_avoiders_brute(pattern("tg", 2), 3) == 7

    def test_pattern_too_large(self):
        assert count_avoiders_brute(pattern("tf", 9), 3) == catalan(4)

    def test_brute_cap(self):
        with pytest.raises(ResourceLimit):
            count_avoiders_brute(pattern("te", 2), 400)

    def test_closed_size2(self):
        for n in range(2, 10):
            assert count_avoiders_closed("te", 2, n) == 2 ** n
            assert count_avoiders_closed("tf", 2, n) == 2 ** n
            expected = n * (n + 1) // 2 + 1
            for tag in ("tg", "tor", "tv"):
                assert count_avoiders_closed(tag, 2, n) == expected

    def test_closed_published_sequences(self):
        assert [count_avoiders_closed("tv", 5, n) for n in range(14)] == TV5_TERMS
        assert [count_avoiders_closed("tv", 6, n) for n in range(14)] == TV6_TERMS

    def test_closed_small_n_falls_back_to_catalan(self):
        for k in (5, 6):
            for n in range(k):
                assert count_avoiders_closed("tv", k, n) == catalan(n + 1)

    def test_rows_are_the_single_values(self):
        for tag in FAMILY_TAGS:
            for k in range(2, 12):
                assert avoider_rows(tag, k, 69) == [
                    count_avoiders_closed(tag, k, n) for n in range(70)], \
                    (tag, k)

    def test_rows_of_wide_strips(self):
        # below size k nothing contains the pattern, of semilength k + 1,
        # and at size k the pattern itself is the one tableau that does
        for tag in FAMILY_TAGS:
            for k in (2, 7, 40, 300):
                rows = avoider_rows(tag, k, k + 2)
                assert rows[:k] == [catalan(n + 1) for n in range(k)]
                assert rows[k] == catalan(k + 1) - 1

    def test_rows_take_no_strip_count(self, monkeypatch):
        # every row of every family comes off the strip walk alone
        want = {(tag, k): avoider_rows(tag, k, 50)
                for tag in FAMILY_TAGS for k in range(2, 7)}

        def refuse(*args):
            raise AssertionError(f"f_count{args}")

        monkeypatch.setattr(avoidance, "f_count", refuse)
        for (tag, k), rows in want.items():
            assert avoider_rows(tag, k, 50) == rows, (tag, k)
        with pytest.raises(AssertionError, match="f_count"):
            bounded_height_count(5, 3)

    def test_negative_sizes_rejected(self):
        for args in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(ValueError):
                f_count(*args)
            with pytest.raises(ValueError):
                f_count_oracle(*args)
        for count in (count_avoiders_closed, avoider_rows):
            for tag in ("te", "tv"):
                with pytest.raises(ValueError, match="tableau size"):
                    count(tag, 3, -1)

    def test_closed_cap(self):
        for count in (count_avoiders_closed, avoider_rows):
            for tag in ("te", "tv"):
                with pytest.raises(ResourceLimit):
                    count(tag, 3, avoidance.CLOSED_MAX_TABLEAU_SIZE + 1)

    def test_closed_vs_brute_samples(self):
        for tag in FAMILY_TAGS:
            for k in (2, 3):
                for n in range(7):
                    assert count_avoiders_closed(tag, k, n) == \
                        count_avoiders_brute(pattern(tag, k), n), (tag, k, n)


def _avoiders_by_search(q, n):
    """|Av_n(q)| host by host with the downward containment search."""
    return sum(avoids(p, q) for p in enumerate_paths(n + 1))


class TestBruteSweep:
    """The up-set sweep (``up_set`` and the avoider counts read off it)
    against the downward containment search, and the edge cases the sweep
    must keep."""

    def test_all_small_patterns_match_search(self):
        hosts = [list(enumerate_paths(t)) for t in range(8)]
        for s in range(5):
            for q in enumerate_paths(s):
                levels = up_set(q, 7)
                for t, level in enumerate(levels):
                    assert level == {p.word for p in hosts[t]
                                     if contains_pattern(p, q)}, (q.word, t)
                assert brute_avoider_counts(q, 6) == [
                    catalan(n + 1) - len(levels[n + 1]) for n in range(7)], q.word

    def test_families_match_search(self):
        for tag in FAMILY_TAGS:
            for k in (2, 3, 4):
                q = pattern(tag, k)
                for n in range(7):
                    assert count_avoiders_brute(q, n) == \
                        _avoiders_by_search(q, n), (tag, k, n)

    def test_empty_and_unit_patterns(self):
        unit = DyckPath("UD")
        for n in range(7):
            assert count_avoiders_brute(EMPTY_PATH, n) == catalan(n + 1)
            assert count_avoiders_brute(unit, n) == 0

    def test_pattern_longer_than_hosts(self):
        q = pattern("tg", 4)
        for n in range(q.semilength - 1):
            assert count_avoiders_brute(q, n) == catalan(n + 1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            count_avoiders_brute(pattern("te", 2), -1)

    def test_one_sweep_gives_every_row(self):
        patterns = [q for s in range(5) for q in enumerate_paths(s)]
        patterns += [pattern(tag, k) for tag in FAMILY_TAGS for k in (2, 3, 4)]
        for q in patterns:
            assert brute_avoider_counts(q, 7) == \
                [count_avoiders_brute(q, n) for n in range(8)], q.word

    def test_rows_build_no_level(self):
        """The rows keep only the frontiers: tv_2 to size 12, whose up-set
        holds 742,821 of the 742,900 paths of semilength 13, peaks far below
        the 124.7 MiB of Python objects its levels took when they were
        built."""
        tracemalloc.start()
        try:
            rows = brute_avoider_counts(pattern("tv", 2), 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[-1] == catalan(13) - 742_821
        assert peak < 8 * 2**20

    def test_rows_keep_the_size_errors(self):
        with pytest.raises(ValueError):
            brute_avoider_counts(pattern("te", 2), -1)
        with pytest.raises(ResourceLimit):
            brute_avoider_counts(pattern("te", 2), 13)

    def test_no_module_state_and_order_free_answers(self):
        for module in (poset, avoidance):
            assert not [name for name, value in vars(module).items()
                        if not name.startswith("__")
                        and (isinstance(value, (dict, list, set))
                             or hasattr(value, "cache_info"))], module.__name__
        paths = [p for s in range(1, 6) for p in enumerate_paths(s)]
        pairs = [(p, q) for p in paths[::3] for q in paths[::5]]
        forward = [contains_pattern(p, q) for p, q in pairs]
        backward = [contains_pattern(p, q) for p, q in reversed(pairs)]
        assert forward == backward[::-1]
        assert True in forward and False in forward


def _height_bounded_counts(k, s_max):
    """Dyck words of semilength s = 0..s_max and height <= k, by a transfer
    matrix over the current height."""
    ways = [1] + [0] * k
    counts = [1]
    for _ in range(2 * s_max):
        ways = [(ways[h - 1] if h else 0) + (ways[h + 1] if h < k else 0)
                for h in range(k + 1)]
        counts.append(ways[0])
    return counts[::2]


def _stripped_avoider_counts(k, n_max):
    """Shi tableaux of size n = 0..n_max whose stripped tableau has height
    <= k - 1, counted over area vectors row by row.

    a_1 = 0 and 0 <= a_{i+1} <= a_i + 1.  The all-empty rows (a_i = i - 1)
    form a prefix; the rows after it, numbered j = 1, 2, ..., must have
    min(a_i, j - 1) <= k - 2, which only bounds a_i once j >= k.
    """
    counts = [1]
    # rows[j][a]: vectors whose last row is the j-th non-empty one (j is
    # capped at k) and has a empty boxes; the all-empty vector is implicit
    rows = [[0] for _ in range(k + 1)]
    for i in range(1, n_max + 1):  # append row i + 1, which has i boxes
        new = [[0] * (i + 1) for _ in range(k + 1)]
        new[1][:i] = [1] * i  # first non-empty row after the empty prefix
        for j in range(1, k + 1):
            # the next row may have b <= a + 1 empty boxes
            suffix = list(accumulate(reversed(rows[j])))[::-1]
            top = k - 2 if j + 1 >= k else i
            for b in range(min(top, len(suffix)) + 1):
                new[min(j + 1, k)][b] += suffix[max(b - 1, 0)]
        rows = new
        counts.append(1 + sum(map(sum, rows)))
    return counts


def _folds(m, n, k):
    """The rule by which f_count folds a strip instead of reflecting."""
    return (k + 2) ** 3 <= 4 * (m + n)


class TestStripRoutes:
    """The two evaluations of f_count, the fold of (1 + x)^(m + n) modulo
    x^(k+2) - 1 and the reflection sum, and the rule that picks one."""

    ROUTES = (avoidance._strip_by_folding, avoidance._strip_by_reflection)

    def test_both_routes_against_oracle_across_the_switch(self):
        # up to m + n = 430 the rule folds k <= 9 from some size on; the
        # larger k are strips it always reflects
        for m in [*range(10), *range(20, 201, 20)]:
            for k in range(31):
                for n in sorted({m, m + k // 2, m + k}):
                    want = f_count_oracle(m, n, k)
                    for route in self.ROUTES:
                        assert route(m, n, k) == want, (route, m, n, k)

    def test_narrow_strips_at_scale(self):
        rng = random.Random(1500)
        for _ in range(10):
            m, k = rng.randint(1450, 1550), rng.randint(0, 12)
            n = m + rng.randint(0, k)
            assert _folds(m, n, k)
            assert f_count(m, n, k) == f_count_oracle(m, n, k), (m, n, k)

    def test_wide_strips_at_scale(self):
        rng = random.Random(400)
        for _ in range(12):
            # m + n <= 1200, which the rule folds only for k <= 14
            m = rng.randint(100, 400)
            k = rng.randint(15, m)
            n = m + rng.randint(0, k)
            assert not _folds(m, n, k)
            assert f_count(m, n, k) == f_count_oracle(m, n, k), (m, n, k)

    def test_routes_agree_on_both_sides_of_the_switch(self):
        for size in (50, 400, 4000):
            last = max(k for k in range(size) if _folds(0, size, k))
            for k in range(max(last - 2, 0), last + 3):
                # m + n = size, with n - m at both ends of [0, k]
                ends = range(size % 2, k + 1, 2)
                for d in {*ends[:2], *ends[-2:]}:
                    m = (size - d) // 2
                    folded, reflected = (route(m, m + d, k)
                                         for route in self.ROUTES)
                    assert folded == reflected, (m, m + d, k)

    def test_f_count_picks_the_route_by_the_rule(self, monkeypatch):
        calls = []
        for route in self.ROUTES:
            monkeypatch.setattr(avoidance, route.__name__,
                                lambda m, n, k, name=route.__name__:
                                calls.append(name) or 0)
        cases = [(m, m + d, k) for m in (0, 3, 20, 200, 2000)
                 for k in range(0, 25, 3) for d in (0, k)]
        cases += [(8, 8, 2), (7, 8, 2)]  # 4(m + n) = 64 and 60 against 4^3
        for m, n, k in cases:
            f_count(m, n, k)
        assert calls == ["_strip_by_folding" if _folds(*case)
                         else "_strip_by_reflection" for case in cases]
        # ballot counts are the widest strips and always reflect
        calls.clear()
        ballot_count(2000, 1000)
        assert calls == ["_strip_by_reflection"]


class TestClosedAtScale:
    """Audit of the closed avoider counts up to n = 150, far past the
    exhaustive range of the brute-force search oracle: seeded samples for
    the bounded-height families, every n for the tv/tor strip walk, and
    every row of every family."""

    def test_stripped_dp_matches_published_terms(self):
        assert _stripped_avoider_counts(5, 13) == TV5_TERMS
        assert _stripped_avoider_counts(6, 13) == TV6_TERMS

    def test_closed_against_dps(self):
        rng = random.Random(150)
        for k in range(2, 7):
            heights = _height_bounded_counts(k, 151)
            stripped = _stripped_avoider_counts(k, 150)
            for tag in FAMILY_TAGS:
                # drawn for every tag, so the bounded-height samples stay
                # the same seeded values
                sample = rng.sample(range(30, 151), 3)
                if tag in ("te", "tf") or (tag == "tg" and k >= 3):
                    expected = {n: heights[n + 1] for n in sample}
                else:
                    expected = dict(enumerate(stripped))
                for n, count in expected.items():
                    assert count_avoiders_closed(tag, k, n) == count, \
                        (tag, k, n)

    def test_rows_against_dps(self):
        for k in range(2, 7):
            heights = _height_bounded_counts(k, 151)
            stripped = _stripped_avoider_counts(k, 150)
            for tag in FAMILY_TAGS:
                rows = avoider_rows(tag, k, 150)
                if tag in ("te", "tf") or (tag == "tg" and k >= 3):
                    assert rows == heights[1:], (tag, k)
                else:
                    assert rows == stripped, (tag, k)


def _zeta_every_level(p):
    """The zeta word read off the area vector at every level j = 0..s."""
    area = area_vector(p)
    chunks = []
    for j in range(0, len(area) + 1):
        for a in area:
            if a == j:
                chunks.append("U")
            elif a == j - 1:
                chunks.append("D")
    return "".join(chunks)


def _zeta_inverse(word):
    """The path whose zeta image is ``word``, rebuilt level by level.

    Level 0 of the image is the first run of U steps, one per area entry 0.
    Level j interleaves the entries equal to j (U) with those equal to
    j - 1 (D), in area order, and ends before the D that opens level j + 1.
    An entry j follows an entry j - 1 or j, so each U of level j goes
    right after the entry j - 1 whose D it follows: one pass over the area
    per level, O(s * height) in all.
    """
    pos = len(word) - len(word.lstrip("U"))
    area, j = [0] * pos, 1
    while pos < len(word):
        merged = []
        for a in area:
            merged.append(a)
            if a == j - 1:
                assert word[pos] == "D"
                pos += 1
                while pos < len(word) and word[pos] == "U":
                    merged.append(j)
                    pos += 1
        area, j = merged, j + 1
    return tableau_to_path(ShiTableau(tuple(area)))


class TestZeta:
    def test_inverse_round_trips(self):
        # the inverse shares nothing with zeta beyond the level rule
        for p in (p for s in range(1, 9) for p in enumerate_paths(s)):
            assert _zeta_inverse(zeta(p).word) == p
            assert zeta(_zeta_inverse(p.word)) == p
        rng = random.Random(1980)
        for s in (1000, 5000):
            p = DyckPath(uniform_word(rng, s))
            assert _zeta_inverse(zeta(p).word) == p
            image = DyckPath(uniform_word(rng, s))
            assert zeta(_zeta_inverse(image.word)) == image

    def test_levels_above_the_height_emit_nothing(self):
        paths = [p for s in range(11) for p in enumerate_paths(s)]
        rng = random.Random(2026)
        paths += [DyckPath(uniform_word(rng, s)) for s in (1000, 5000)]
        for p in paths:
            assert zeta(p).word == _zeta_every_level(p)

    def test_fixed_points(self):
        assert zeta(parse_path("UD")).word == "UD"

    def test_zigzag_to_pyramid(self):
        for s in range(1, 7):
            assert zeta(DyckPath("UD" * s)).word == "U" * s + "D" * s

    def test_bijective(self):
        for s in range(1, 8):
            images = {zeta(p) for p in enumerate_paths(s)}
            assert len(images) == catalan(s)

    def test_height_to_bounce_returns(self):
        for s in range(1, 8):
            for p in enumerate_paths(s):
                z = zeta(p)
                for k in range(1, 6):
                    assert (height(p) <= k) == (len(return_points(z)) <= k)
        rng = random.Random(2020)
        for s in (50, 200, 1000) * 5:
            p = DyckPath(uniform_word(rng, s))
            assert height(p) == len(return_points(zeta(p)))


class TestFlattening:
    def test_bijection_small(self):
        for k in (3, 4):
            for s in range(1, 7):
                g_avoiders = [p for p in enumerate_paths(s)
                              if avoids_characterized(p, "tg", k)]
                images = {flatten_high_peaks(p, k - 1) for p in g_avoiders}
                e_avoiders = {p for p in enumerate_paths(s)
                              if avoids_characterized(p, "te", k)}
                assert images == e_avoiders
                assert len(images) == len(g_avoiders)


class TestWilf:
    """Wilf equivalence is equality of brute avoider rows."""

    @staticmethod
    def rows(tags, n_max):
        return [brute_avoider_counts(pattern(tag, 2), n_max) for tag in tags]

    def test_te_tf_equivalent(self):
        te, tf = self.rows(("te", "tf"), 8)
        assert te == tf == [2 ** n for n in range(9)]

    def test_tg_tv_equivalent(self):
        tg, tor, tv = self.rows(("tg", "tor", "tv"), 8)
        assert tg == tor == tv == [n * (n + 1) // 2 + 1 for n in range(9)]

    def test_te_tg_diverge(self):
        te, tg = self.rows(("te", "tg"), 3)
        assert te[:3] == tg[:3] and (te[3], tg[3]) == (8, 7)


class TestSequenceFormats:
    def test_csv(self):
        assert sequence_csv([1, 2, 5]) == "n,count\n0,1\n1,2\n2,5\n"

    def test_oeis(self):
        assert sequence_oeis([1, 2, 5]) == "1 2 5\n"
