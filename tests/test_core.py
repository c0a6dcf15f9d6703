import random

import pytest
from hypothesis import given, settings

from shipat import (
    EMPTY_PATH,
    DyckPath,
    MalformedWord,
    NotBalanced,
    NotIrreducible,
    PrefixViolation,
    ResourceLimit,
    RunForm,
    ShiTableau,
    StandardTableau2,
    area_vector,
    bounce_path,
    catalan,
    enumerate_paths,
    height,
    irreducible_decomposition,
    is_irreducible,
    is_strongly_irreducible,
    mirror,
    parse_path,
    path_to_syt,
    path_to_tableau,
    peaks,
    region_inequalities,
    return_points,
    run_form,
    strongly_irreducible_decomposition,
    syt_to_path,
    tableau_to_path,
    valleys,
)

from conftest import dyck_paths, uniform_word


class TestParsing:
    def test_smallest_path(self):
        assert parse_path("UD").semilength == 1

    def test_prefix_violation_index(self):
        with pytest.raises(PrefixViolation) as err:
            parse_path("UDDU")
        assert err.value.index == 3

    def test_not_balanced(self):
        with pytest.raises(NotBalanced):
            parse_path("UUD")

    def test_malformed(self):
        with pytest.raises(MalformedWord) as err:
            parse_path("UXDD")
        assert err.value.index == 2

    def test_malformed_before_prefix_and_balance(self):
        # "D" alone breaks the prefix rule, but the bad character comes first
        with pytest.raises(MalformedWord) as err:
            parse_path("DX")
        assert (err.value.index, err.value.char) == (2, "X")
        with pytest.raises(MalformedWord) as err:
            parse_path("  (1)0x ")
        assert (err.value.index, err.value.char) == (5, "x")

    def test_constructor_rejects_malformed_words(self):
        with pytest.raises(MalformedWord) as err:
            DyckPath("UX")
        assert (err.value.index, err.value.char) == (2, "X")

    def test_figure_path(self):
        assert parse_path("UUDUUDUDDUDD").semilength == 6

    def test_aliases(self):
        assert parse_path("1100").word == "UUDD"
        assert parse_path("(())").word == "UUDD"

    def test_empty_path_is_legal(self):
        assert parse_path("").semilength == 0

    def test_length_is_the_number_of_steps(self):
        for s in range(5):
            for p in enumerate_paths(s):
                assert len(p) == 2 * p.semilength == len(p.word)
        assert bool(EMPTY_PATH) is False and bool(parse_path("UD")) is True

    def test_paths_are_ordered(self):
        assert sorted([parse_path("UUDD"), parse_path("UDUD")])[0].word == "UDUD"


class TestTableauConversions:
    def test_zigzag_has_zero_area(self):
        for n in range(5):
            assert path_to_tableau(DyckPath("UD" * (n + 1))).area == (0,) * (n + 1)

    def test_pyramid_has_maximal_area(self):
        t = path_to_tableau(DyckPath("UUUUDDDD"))
        assert t.area == (0, 1, 2, 3)

    def test_grid_example(self):
        assert area_vector(parse_path("UUDUDD")) == (0, 1, 1)

    def test_illegal_area_vectors_rejected(self):
        for bad in [(), (1,), (0, 2), (0, 1, 3), (0, -1), (0, 0, 2)]:
            with pytest.raises(ValueError):
                ShiTableau(bad)

    def test_cells_outside_the_tableau_rejected(self):
        t = ShiTableau((0, 1, 0))
        assert t.is_full(3, 1) and not t.is_full(2, 1)
        for row, col in [(1, 1), (2, 2), (4, 1), (3, 0), (0, 1)]:
            with pytest.raises(ValueError):
                t.is_full(row, col)

    def test_empty_path_has_no_tableau(self):
        with pytest.raises(ValueError):
            path_to_tableau(EMPTY_PATH)

    @given(dyck_paths(min_semilength=1))
    def test_roundtrip(self, p):
        assert tableau_to_path(path_to_tableau(p)) == p

    def test_exhaustive_roundtrip(self):
        for s in range(1, 9):
            for p in enumerate_paths(s):
                assert tableau_to_path(path_to_tableau(p)) == p


class TestStandardTableaux:
    def test_minimal(self):
        syt = path_to_syt(parse_path("UD"))
        assert syt.top == (1,) and syt.bottom == (2,)

    def test_pyramid(self):
        syt = path_to_syt(parse_path("UUDD"))
        assert syt.top == (1, 2) and syt.bottom == (3, 4)

    def test_figure_tableau(self):
        syt = path_to_syt(parse_path("UUDUUDUDDUDD"))
        assert syt.top == (1, 2, 4, 5, 7, 10)
        assert syt.bottom == (3, 6, 8, 9, 11, 12)

    @given(dyck_paths(min_semilength=1))
    def test_roundtrip(self, p):
        assert syt_to_path(path_to_syt(p)) == p

    def test_invalid_rows_rejected(self):
        for top, bottom in [((1,), (2, 3)),    # unequal lengths
                            ((1,), (3,)),      # not a permutation of 1..2
                            ((2, 1), (3, 4)),  # top row decreasing
                            ((1, 2), (4, 3)),  # bottom row decreasing
                            ((1, 4), (2, 3))]:  # column 2 decreasing
            with pytest.raises(ValueError):
                StandardTableau2(top, bottom)


def bounce_by_walk(word):
    """The bounce path read off the lattice walk (U north, D east): from
    (x, x) go north to where the walk's east step out of column x starts,
    then east back to the diagonal."""
    east_start = {}
    x = y = 0
    for char in word:
        if char == "U":
            y += 1
        else:
            east_start[x] = y
            x += 1
    out, x = "", 0
    while x < len(word) // 2:
        y = east_start[x]
        out += "U" * (y - x) + "D" * (y - x)
        x = y
    return out


class TestStatistics:
    def test_height_peaks_valleys(self):
        assert height(parse_path("UUDD")) == 2
        assert len(peaks(parse_path("UUDD"))) == 1
        assert len(valleys(parse_path("UUDD"))) == 0
        assert [h for _, h in peaks(parse_path("UDUD"))] == [1, 1]
        assert len(valleys(parse_path("UDUD"))) == 1
        assert height(parse_path("UDUUDUDUDD")) == 2

    def test_bounce_worked_example(self):
        assert bounce_path(parse_path("UDUUDUDUDD")).word == "UDUUDDUUDD"
        assert return_points(parse_path("UDUUDUDUDD")) == [1, 3, 5]

    def test_bounce_single_descent(self):
        for k in range(1, 6):
            p = DyckPath("U" * k + "D" * k)
            assert bounce_path(p) == p
            assert return_points(p) == [k]

    def test_bounce_matches_lattice_walk(self):
        moved = 0
        for s in range(1, 9):
            for p in enumerate_paths(s):
                assert bounce_path(p).word == bounce_by_walk(p.word)
                moved += bounce_path(p) != p
        assert moved == 1800  # all but the 255 bounce paths themselves
        rng = random.Random(2020)
        for s in (50, 200, 1000) * 5:
            word = uniform_word(rng, s)
            assert bounce_path(DyckPath(word)).word == bounce_by_walk(word)

    @given(dyck_paths())
    @settings(max_examples=60)
    def test_bounce_idempotent_and_below(self, p):
        b = bounce_path(p)
        assert bounce_path(b) == b
        assert all(x <= y for x, y in zip(area_vector(b), area_vector(p)))


class TestRunFormAndDecompositions:
    def test_run_form_roundtrip(self):
        for s in range(1, 8):
            for p in enumerate_paths(s):
                assert run_form(p).to_path() == p

    def test_odd_run_form_rejected(self):
        with pytest.raises(ValueError, match="alternate"):
            RunForm((2, 1, 1))

    def test_irreducibility(self):
        assert is_strongly_irreducible(parse_path("UUUDDD"))
        assert is_irreducible(parse_path("UUDUDD"))
        assert not is_strongly_irreducible(parse_path("UUDUDD"))
        assert not is_irreducible(parse_path("UDUD"))

    def test_strong_irreducibility_run_criterion(self):
        # interior heights >= 2 <=> cumulative descents stay 2 below ascents
        for s in range(1, 9):
            for p in enumerate_paths(s):
                rf = run_form(p)
                cum_a = cum_b = 0
                ok = True
                for a, b in list(zip(rf.ascents, rf.descents))[:-1]:
                    cum_a += a
                    cum_b += b
                    if cum_b + 1 >= cum_a:
                        ok = False
                assert is_strongly_irreducible(p) == ok

    def test_decomposition_double_pyramid(self):
        d = irreducible_decomposition(parse_path("UUDDUUDD"))
        kinds = [(part.kind, part.peak_count) for part in d.parts]
        assert kinds == [("irreducible", None), ("connecting", 0), ("irreducible", None)]
        assert d.k_prime == 1

    def test_decomposition_zigzag(self):
        d = irreducible_decomposition(parse_path("UDUD"))
        assert [(part.kind, part.peak_count) for part in d.parts] == [("connecting", 2)]
        assert d.k_prime == 1

    def test_strong_decomposition_peak_run(self):
        d = strongly_irreducible_decomposition(parse_path("UUDUDD"))
        assert [(part.kind, part.peak_count) for part in d.parts] == [("connecting", 2)]
        assert d.reassemble() == parse_path("UUDUDD")

    def test_strong_decomposition_requires_irreducible(self):
        with pytest.raises(NotIrreducible):
            strongly_irreducible_decomposition(parse_path("UDUD"))

    @given(dyck_paths(min_semilength=1))
    @settings(max_examples=60)
    def test_reassembly(self, p):
        assert irreducible_decomposition(p).reassemble() == p
        if is_irreducible(p):
            assert strongly_irreducible_decomposition(p).reassemble() == p


class TestRegions:
    def test_caption_example(self):
        assert region_inequalities(ShiTableau((0, 0, 1))) == [
            "x1-x3>1", "x2-x3>1", "0<x1-x2<1"]

    def test_all_empty(self):
        assert set(region_inequalities(ShiTableau((0, 1, 2)))) == {
            "0<x1-x2<1", "0<x1-x3<1", "0<x2-x3<1"}

    def test_all_full(self):
        assert set(region_inequalities(ShiTableau((0, 0, 0)))) == {
            "x1-x2>1", "x1-x3>1", "x2-x3>1"}

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            region_inequalities(ShiTableau((0,)))

    def test_non_integer_area_gets_no_lines(self):
        with pytest.raises(TypeError):
            region_inequalities(ShiTableau((0, 0.5, 1)))

    def test_size_above_the_cap_refused_before_any_line(self, monkeypatch):
        from shipat.core import REGION_MAX_SIZE

        calls = []
        monkeypatch.setattr(ShiTableau, "is_full",
                            lambda *args: calls.append(args))
        with pytest.raises(ResourceLimit,
                           match="^region emission capped at size 1000$"):
            region_inequalities(ShiTableau((0,) * (REGION_MAX_SIZE + 2)))
        assert calls == []


class TestEnumeration:
    def test_counts(self):
        assert [sum(1 for _ in enumerate_paths(s)) for s in range(6)] == [
            1, 1, 2, 5, 14, 42]
        assert sum(1 for _ in enumerate_paths(8)) == catalan(8) == 1430

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)
        with pytest.raises(ValueError):
            enumerate_paths(-1)

    def test_lexicographic(self):
        words = [p.word for p in enumerate_paths(3)]
        assert words == sorted(words)
        assert len(set(words)) == 5

    def test_prefix_sharding(self):
        whole = set(enumerate_paths(4))
        shards = [set(enumerate_paths(4, prefix)) for prefix in ("UU", "UD")]
        assert whole == shards[0] | shards[1]
        assert not shards[0] & shards[1]

    def test_large_semilength_has_no_recursion_limit(self):
        s = 1000
        assert next(enumerate_paths(s)).word == "UD" * s
        tail = [p.word for p in enumerate_paths(s, "U" * (s - 1))]
        assert len(tail) == s
        assert tail == sorted(tail)
        assert tail[-1] == "U" * s + "D" * s

    @pytest.mark.parametrize("prefix", ["", "U", "UD", "UU", "UDU", "UUD", "UUU"])
    def test_stream_matches_depth_first_reference(self, prefix):
        def reference(s, word):
            ups = word.count("U")
            downs = len(word) - ups
            if ups == downs == s:
                yield word
            if downs < ups:
                yield from reference(s, word + "D")
            if ups < s:
                yield from reference(s, word + "U")

        for s in range(9):
            if prefix.count("U") > s:
                continue
            assert [p.word for p in enumerate_paths(s, prefix)] == list(
                reference(s, prefix))

    def test_bad_prefix_rejected(self):
        for s, prefix in ((2, "x"), (1, "UU"), (2, "UDD")):
            with pytest.raises(ValueError):
                enumerate_paths(s, prefix)

    def test_prefix_dipping_below_zero_rejected_eagerly(self):
        # the totals of these prefixes are legal; the running height is not
        for s, prefix in ((2, "DU"), (3, "UDDU")):
            with pytest.raises(ValueError):
                enumerate_paths(s, prefix)

    def test_mirror_is_involution(self):
        for p in enumerate_paths(4):
            assert mirror(mirror(p)) == p


def test_resource_limit_lives_in_core():
    import shipat
    from shipat import core, poset

    assert shipat.ResourceLimit is poset.ResourceLimit is core.ResourceLimit
    assert core.ResourceLimit.__module__ == "shipat.core"
    core._check_cap("listing", "size", 5, 5)
    with pytest.raises(core.ResourceLimit, match="^listing capped at size 5$"):
        core._check_cap("listing", "size", 6, 5)


def test_index_out_of_range_lives_in_core():
    import shipat
    from shipat import core, covers, poset

    assert (shipat.IndexOutOfRange is poset.IndexOutOfRange
            is covers.IndexOutOfRange is core.IndexOutOfRange)
    assert core.IndexOutOfRange.__module__ == "shipat.core"
    assert issubclass(core.IndexOutOfRange, ValueError)
