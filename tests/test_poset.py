import random

import pytest
from hypothesis import given, settings

from shipat import (
    Deletion,
    DyckPath,
    EMPTY_PATH,
    IndexOutOfRange,
    ResourceLimit,
    avoids,
    bounce_delete,
    contains_pattern,
    cover_collisions,
    enumerate_paths,
    export_dot,
    hasse,
    lower_covers,
    parse_path,
    up_set,
    upper_covers,
    upper_covers_by_search,
)
from shipat.covers import count_lower_covers, count_upper_covers
from shipat.poset import contains_pattern_noprune

from conftest import dyck_paths


class TestDeletions:
    def test_figure_deletions(self):
        p = parse_path("UUDUUDUDDUDD")
        assert bounce_delete(p, Deletion(3, 2)).word == "UUDUUDDUDD"
        assert bounce_delete(p, Deletion(3, 3)).word == "UUDUDUDUDD"

    def test_first_pair(self):
        assert bounce_delete(parse_path("UUDD"), Deletion(1, 1)).word == "UD"

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            Deletion(3, 1)
        with pytest.raises(ValueError):
            Deletion(1, 0)
        with pytest.raises(IndexOutOfRange):
            bounce_delete(parse_path("UUDD"), Deletion(3, 3))
        with pytest.raises(IndexOutOfRange):
            bounce_delete(parse_path("UD"), Deletion(1, 1))

    def test_deletions_always_valid(self):
        # the (i, i-1) variant is re-validated; on words it never fails
        for s in range(2, 8):
            for p in enumerate_paths(s):
                for child in lower_covers(p):
                    assert child.semilength == s - 1


class TestCovers:
    def test_lower_cover_examples(self):
        assert lower_covers(parse_path("UUDD")) == {parse_path("UD")}
        assert lower_covers(parse_path("UDUD")) == {parse_path("UD")}
        assert len(lower_covers(parse_path("UUDUDD"))) == 2
        assert lower_covers(parse_path("UD")) == frozenset()

    def test_upper_cover_examples(self):
        assert upper_covers(parse_path("UD")) == {parse_path("UDUD"), parse_path("UUDD")}
        assert len(upper_covers(parse_path("UDUDUD"))) == 6
        assert len(upper_covers(parse_path("UUUUDDUDDD"))) == 11
        assert len(upper_covers(parse_path("UUUUDUDDDD"))) == 10

    def test_inverse_consistency_exhaustive(self):
        for s in range(1, 8):
            for p in enumerate_paths(s):
                ups = upper_covers(p)
                assert ups == upper_covers_by_search(p)
                for q in ups:
                    assert p in lower_covers(q)

    def test_every_nontrivial_path_has_lower_cover(self):
        for s in range(2, 9):
            for p in enumerate_paths(s):
                assert lower_covers(p)

    @given(dyck_paths(min_semilength=1, max_semilength=6))
    @settings(max_examples=40)
    def test_cover_relation_symmetry(self, p):
        for q in upper_covers(p):
            assert p in lower_covers(q)

    def test_empty_path_covers(self):
        # bounce deletion needs semilength >= 2, so nothing lies above the
        # empty path, yet its single insertion is UD
        ud = parse_path("UD")
        assert upper_covers(EMPTY_PATH) == {ud}
        assert count_upper_covers(EMPTY_PATH) == 1
        assert lower_covers(ud) == frozenset()
        assert upper_covers_by_search(EMPTY_PATH) == frozenset()
        assert not contains_pattern(ud, EMPTY_PATH)

    def test_collisions_exist(self):
        # two distinct deletions of UUDD give the same child
        assert cover_collisions(parse_path("UUDD"))


def _uniform_word(rng, s):
    """A uniform Dyck word of semilength s, by the cycle lemma."""
    steps = ["U"] * s + ["D"] * (s + 1)
    rng.shuffle(steps)
    height = lowest = start = 0
    for pos, step in enumerate(steps, start=1):
        height += 1 if step == "U" else -1
        if height < lowest:
            lowest, start = height, pos
    return "".join(steps[start:] + steps[:start])[:-1]


def _nth(word, letter, n):
    """String index of the n-th (1-based) occurrence of letter."""
    return [pos for pos, char in enumerate(word) if char == letter][n - 1]


def _upper_by_all_pairs(word):
    """Every U/D insertion pair, kept when the word is Dyck and the new D
    is the (i-1)-st or i-th D of the new i-th U."""
    out = set()
    for u_spot in range(len(word) + 1):
        with_u = word[:u_spot] + "U" + word[u_spot:]
        i = with_u[:u_spot].count("U") + 1
        k = 1
        for d_spot in range(len(with_u) + 1):
            if d_spot and with_u[d_spot - 1] == "D":
                k += 1
            if k in (i - 1, i):
                q = with_u[:d_spot] + "D" + with_u[d_spot:]
                try:
                    out.add(DyckPath(q))
                except ValueError:
                    pass
    return out


def _lower_by_string_index(word):
    s = len(word) // 2
    out = set()
    for i in range(1, s + 1):
        for k in (i - 1, i):
            if k >= 1:
                drop = {_nth(word, "U", i), _nth(word, "D", k)}
                out.add(DyckPath("".join(
                    c for pos, c in enumerate(word) if pos not in drop)))
    return out


class TestKernelAtScale:
    @pytest.mark.parametrize("seed", [11, 22, 33, 44, 55, 66])
    def test_seeded_large_semilength(self, seed):
        rng = random.Random(seed)
        for _ in range(5):
            word = _uniform_word(rng, rng.randint(20, 80))
            p = DyckPath(word)
            ups = upper_covers(p)
            assert ups == _upper_by_all_pairs(word)
            assert len(ups) == count_upper_covers(p)
            lows = lower_covers(p)
            assert lows == _lower_by_string_index(word)
            assert len(lows) == count_lower_covers(p)


class TestContainment:
    def test_reflexive(self):
        p = parse_path("UUDUDD")
        assert contains_pattern(p, p)

    def test_subsequence_is_not_pattern(self):
        # UUDD occurs in UDUDUD as a wordwise subsequence but not in this order
        assert not contains_pattern(parse_path("UDUDUD"), parse_path("UUDD"))

    def test_minimum_reached(self):
        assert contains_pattern(parse_path("UUDUDD"), parse_path("UD"))

    def test_strict_size_drop(self):
        assert not contains_pattern(parse_path("UUDD"), parse_path("UDUD"))

    def test_avoids_negation(self):
        p, q = parse_path("UDUDUD"), parse_path("UUDD")
        assert avoids(p, q) and not contains_pattern(p, q)

    def test_deep_host_has_no_recursion_limit(self):
        pyramid = DyckPath("U" * 1500 + "D" * 1500)
        assert contains_pattern(pyramid, parse_path("UUDD"))

    def test_empty_path_is_contained_only_in_itself(self):
        assert contains_pattern(EMPTY_PATH, EMPTY_PATH)
        assert not contains_pattern(parse_path("UD"), EMPTY_PATH)
        assert up_set(EMPTY_PATH, 3) == [{""}, set(), set(), set()]

    def test_pruned_matches_unpruned(self):
        paths = [p for s in range(1, 6) for p in enumerate_paths(s)]
        for p in paths:
            for q in paths:
                assert contains_pattern(p, q) == contains_pattern_noprune(p, q)

    def test_transitivity_samples(self):
        paths = [p for s in range(1, 7) for p in enumerate_paths(s)]
        import random
        rng = random.Random(2024)
        for _ in range(300):
            p, q, r = (rng.choice(paths) for _ in range(3))
            if contains_pattern(p, q) and contains_pattern(q, r):
                assert contains_pattern(p, r)


class TestHasse:
    def test_sizes(self):
        g1 = hasse(1)
        assert g1.node_count == 1 and not g1.edges
        g2 = hasse(2)
        assert g2.node_count == 3 and len(g2.edges) == 2
        g3 = hasse(3)
        assert g3.node_count == 8
        expected_edges = sum(len(lower_covers(p)) for p in enumerate_paths(3))
        level3_edges = [e for e in g3.edges if e[0].semilength == 3]
        assert len(level3_edges) == expected_edges

    def test_edges_drop_one_level(self):
        for parent, child in hasse(4).edges:
            assert parent.semilength == child.semilength + 1

    def test_resource_limit(self):
        with pytest.raises(ResourceLimit):
            hasse(6, max_nodes=10)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("SHIPAT_MAX_NODES", "2")
        with pytest.raises(ResourceLimit):
            hasse(3)

    def test_dot_golden(self):
        expected = (
            'digraph shi_pattern_poset {\n'
            '  rankdir=BT;\n'
            '  "UD";\n'
            '  "UDUD";\n'
            '  "UUDD";\n'
            '  "UDUD" -> "UD";\n'
            '  "UUDD" -> "UD";\n'
            '}\n'
        )
        assert export_dot(hasse(2)) == expected

    def test_dot_deterministic(self):
        assert export_dot(hasse(4)) == export_dot(hasse(4))
