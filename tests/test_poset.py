import random
import time
from collections import Counter
from itertools import accumulate, combinations

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
    catalan,
    contains_pattern,
    cover_collisions,
    enumerate_paths,
    export_dot,
    hasse,
    height,
    lower_covers,
    mirror,
    parse_path,
    up_set,
    up_set_sizes,
    upper_covers,
    upper_covers_by_search,
)
from shipat import core, poset
from shipat.avoidance import (
    FAMILY_TAGS,
    avoids_characterized,
    brute_avoider_counts,
    pattern,
)
from shipat.covers import (
    ALL_BRANCHES,
    classify_branch,
    count_lower_covers,
    count_upper_covers,
)
from shipat.poset import contains_pattern_by_search

from conftest import dyck_paths, uniform_word


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
        # the (i, i-1) variant never dips below the diagonal; the kernel
        # words are not checked again, so TestTrustedWords re-validates them
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


_STEP = {"U": 1, "D": -1}


def _is_dyck(word):
    """Whether no prefix of a balanced word has more D than U steps."""
    return min(accumulate(map(_STEP.get, word)), default=0) >= 0


def _upper_by_all_pairs(word):
    """Every U/D insertion pair, kept when the word is Dyck and the new D
    is the (i-1)-st or i-th D of the new i-th U."""
    seen = set()
    for u_spot in range(len(word) + 1):
        with_u = word[:u_spot] + "U" + word[u_spot:]
        i = with_u[:u_spot].count("U") + 1
        k = 1
        for d_spot in range(len(with_u) + 1):
            if d_spot and with_u[d_spot - 1] == "D":
                k += 1
            if k > i:  # k only grows along the word
                break
            if k == i - 1 or k == i:
                seen.add(with_u[:d_spot] + "D" + with_u[d_spot:])
    return set(filter(_is_dyck, seen))


def _lower_by_string_index(word):
    """Every word left by dropping the i-th U and the k-th D, k in {i-1, i}."""
    ups = [pos for pos, char in enumerate(word) if char == "U"]
    downs = [pos for pos, char in enumerate(word) if char == "D"]
    out = set()
    if len(ups) < 2:  # bounce deletion needs semilength >= 2
        return out
    for i, u in enumerate(ups, start=1):
        for k in (i - 1, i):
            if k >= 1:
                a, b = sorted((u, downs[k - 1]))
                out.add(word[:a] + word[a + 1:b] + word[b + 1:])
    return out


def _irreducible(inner):
    return "U" + inner + "D"


def _is_special(word):
    """Whether an irreducible word is a pyramid, a peak run or symmetric."""
    s = len(word) // 2
    if word in ("U" * s + "D" * s, "U" + "UD" * (s - 1) + "D"):
        return True
    arm = len(word) - len(word.lstrip("U"))
    body = word[arm:len(word) - arm]
    return (arm >= 3 and word.endswith("D" * arm)
            and not word.endswith("D" * (arm + 1))
            and len(body) >= 2 and body == "DU" * (len(body) // 2))


def _shaped_word(rng, branch, s):
    """A word of the given dispatch branch, of semilength s >= 5 where the
    branch has more than one word; composite branches glue uniform pieces."""
    fixed = {"empty": "", "minimum": "UD", "zigzag": "UD" * s,
             "pyramid": "U" * s + "D" * s,
             "peak-run": "U" + "UD" * (s - 1) + "D"}
    if branch in fixed:
        return fixed[branch]
    if branch == "symmetric":
        arm = rng.randint(3, s - 1)
        return "U" * arm + "DU" * (s - arm) + "D" * arm
    while True:
        if branch == "strongly-irreducible":
            word = _irreducible(_irreducible(uniform_word(rng, s - 2)))
        elif branch == "irreducible-composite":
            left = rng.randint(1, s - 2)
            word = _irreducible(_irreducible(uniform_word(rng, left - 1))
                                + uniform_word(rng, s - 1 - left))
        else:
            left = rng.randint(1, s - 1)
            word = (_irreducible(uniform_word(rng, left - 1))
                    + uniform_word(rng, s - left))
        # redraw a word of an earlier branch: the zigzag or a special family
        if word != "UD" * s and not _is_special(word):
            return word


class TestInsertionKernel:
    """Each insertion child is built once per U class and D run; the
    all-pairs oracle tries every U and D position on its own."""

    def test_exhaustive(self):
        for s in range(9):
            for p in enumerate_paths(s):
                ups = {q.word for q in upper_covers(p)}
                assert ups == _upper_by_all_pairs(p.word)

    @pytest.mark.parametrize("word", [
        "U" * 300 + "D" * 300,
        "UD" * 300,
        "U" * 150 + "UD" * 150 + "D" * 150,
        "U" + "UD" * 299 + "D",
        "U" * 298 + "UD" * 2 + "D" * 298,
    ], ids=["pyramid", "zigzag", "arms-150", "arms-1", "arms-298"])
    def test_longest_and_shortest_runs(self, word):
        ups = {q.word for q in upper_covers(DyckPath(word))}
        assert ups == _upper_by_all_pairs(word)

    def test_fills_the_set_it_is_given(self):
        """The kernel adds every upper cover but perhaps the preimages
        of its word under the canonical parent, which upper_covers adds."""
        words = [p.word for s in range(7) for p in enumerate_paths(s)]
        expected = {word: _upper_by_all_pairs(word) for word in words}
        for first in words:
            filled = poset._insertion_words(first, set())
            assert filled <= expected[first]
            assert filled | set(_preimages(first)) == expected[first]
            for second in words:
                out = set(filled)
                assert poset._insertion_words(second, out) is out
                assert out | set(_preimages(second)) == \
                    filled | expected[second]


def _up_set_by_covers(q, s_max):
    """The up-set of a nonempty q by levels, each the union of the upper
    covers of the level below."""
    levels = [set() for _ in range(s_max + 1)]
    levels[q.semilength] = {q.word}
    for s in range(q.semilength + 1, s_max + 1):
        levels[s] = {c.word for word in levels[s - 1]
                     for c in upper_covers(DyckPath(word))}
    return levels


class TestUpSet:
    def test_levels_match_a_sweep_by_upper_covers(self):
        for s in range(1, 5):
            for q in enumerate_paths(s):
                levels = up_set(q, 8)
                assert all(type(level) is frozenset for level in levels)
                assert levels == _up_set_by_covers(q, 8)

    def test_every_pattern_of_semilength_5(self):
        patterns = list(enumerate_paths(5))
        assert len(patterns) == 42
        for q in patterns:
            assert up_set(q, 8) == _up_set_by_covers(q, 8)

    def test_seeded_patterns_against_containment(self):
        """Level 10 against the containment fixpoint, host by host, for
        random patterns past the exhaustive range of the sweep tests."""
        rng = random.Random(2023)
        hosts = list(enumerate_paths(10))
        for _ in range(3):
            q = DyckPath(uniform_word(rng, rng.randint(4, 6)))
            expected = {p.word for p in hosts if contains_pattern(p, q)}
            assert up_set(q, 10)[10] == expected


class TestUpSetSizes:
    def test_sizes_are_the_level_sizes(self):
        patterns = [(q, 9) for s in range(6) for q in enumerate_paths(s)]
        patterns += [(pattern(tag, k), 11)
                     for tag in FAMILY_TAGS for k in (2, 3, 4, 5)]
        assert len(patterns) == 65 + 20
        for q, s_max in patterns:
            assert up_set_sizes(q, s_max) == \
                [len(level) for level in up_set(q, s_max)], q.word

    def test_pattern_above_the_range(self):
        assert up_set_sizes(parse_path("UUDD"), 1) == [0, 0]
        assert up_set_sizes(EMPTY_PATH, 3) == [1, 0, 0, 0]


def _parent(word):
    """The canonical parent: the word without its first U and first D."""
    return word[1:].replace("D", "", 1)


def _preimages(word):
    """The words whose canonical parent is ``word`` (UD for the empty one)."""
    return ["U" + word[:t] + "D" + word[t:]
            for t in range(max(word.find("D"), 0) + 1)]


class TestCanonicalParent:
    """The facts behind up_set's sweep by canonical parent."""

    def test_parent_is_the_first_bounce_deletion(self):
        for s in range(2, 9):
            for c in enumerate_paths(s):
                assert _parent(c.word) == bounce_delete(c, Deletion(1, 1)).word

    def test_parent_commutes_with_deletion(self):
        pairs = 0
        for s in range(3, 9):
            for c in enumerate_paths(s):
                below = poset._lower_cover_words(_parent(c.word))
                for p in lower_covers(c):
                    assert _parent(p.word) in below
                    pairs += 1
        assert pairs == 11_408

    def test_preimages_partition_the_next_level(self):
        for s in range(1, 9):
            images = []
            for p in enumerate_paths(s):
                mine = _preimages(p.word)
                assert all(_parent(w) == p.word for w in mine)
                images += mine
            assert len(images) == len(set(images)) == catalan(s + 1)
            assert all(DyckPath(w).semilength == s + 1 for w in images)

    def test_levels_are_preimages_plus_frontier(self, monkeypatch):
        """|U_{s+1}| = sum over U_s of (p.find("D") + 1) + |F_{s+1}|, with
        the frontier F swept here by upper covers alone, and the insertion
        kernel runs once on each frontier word below the top and on no
        other word."""
        kernel, swept = poset._insertion_words, []

        def counted(word, out):
            swept.append(word)
            return kernel(word, out)

        for tag in FAMILY_TAGS:
            for k in (2, 3, 4):
                q = pattern(tag, k)
                levels = up_set(q, 9)
                frontier, below_top = {q.word}, []
                for s in range(q.semilength, 9):
                    below_top += frontier
                    frontier = {c.word for word in frontier
                                for c in upper_covers(DyckPath(word))
                                if _parent(c.word) not in levels[s]}
                    assert frontier <= levels[s + 1]
                    assert len(levels[s + 1]) == len(frontier) + sum(
                        p.find("D") + 1 for p in levels[s])
                swept.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(poset, "_insertion_words", counted)
                    assert up_set(q, 9) == levels
                assert sorted(swept) == sorted(below_top)

    def test_rows_sweep_each_frontier_word_once(self, monkeypatch):
        """Counting avoider rows builds no level, yet the insertion kernel
        runs once on each frontier word below the top, read here off the
        levels of up_set, and on no other word."""
        kernel, swept = poset._insertion_words, []

        def counted(word, out):
            swept.append(word)
            return kernel(word, out)

        for tag in FAMILY_TAGS:
            for k in (2, 3, 4):
                q = pattern(tag, k)
                levels = up_set(q, 9)
                below_top = [q.word] + [
                    word for s in range(q.semilength + 1, 9)
                    for word in levels[s]
                    if _parent(word) not in levels[s - 1]]
                swept.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(poset, "_insertion_words", counted)
                    rows = brute_avoider_counts(q, 8)
                assert rows == [catalan(n + 1) - len(levels[n + 1])
                                for n in range(9)]
                assert sorted(swept) == sorted(below_top)


class TestKernelAtScale:
    @pytest.mark.parametrize("seed", [11, 22, 33, 44, 55, 66])
    def test_seeded_large_semilength(self, seed):
        rng = random.Random(seed)
        words = [uniform_word(rng, rng.randint(20, 80)) for _ in range(5)]
        shaped = [_shaped_word(rng, branch, rng.randint(20, 200))
                  for branch in ALL_BRANCHES]
        census = Counter(classify_branch(DyckPath(w)) for w in shaped)
        assert census == Counter(ALL_BRANCHES)
        for word in words + shaped:
            p = DyckPath(word)
            ups = {q.word for q in upper_covers(p)}
            assert ups == _upper_by_all_pairs(word)
            assert len(ups) == count_upper_covers(p)
            lows = {q.word for q in lower_covers(p)}
            assert lows == _lower_by_string_index(word)
            # the kernel's words, re-validated (see TestTrustedWords)
            assert {DyckPath(w).word for w in ups | lows} == ups | lows
            if word:  # the empty path has no lower cover count
                assert len(lows) == count_lower_covers(p)


class TestTrustedWords:
    """enumerate_paths, lower_covers, upper_covers and mirror turn their own
    words into paths unchecked, and up_set keeps its words unchecked; every
    such word passes the validating constructor all the same.
    TestKernelAtScale does the same for the covers of its corpus, which it
    builds anyway."""

    def test_trusted_words_are_dyck(self):
        paths = [p for s in range(10) for p in enumerate_paths(s)]
        words = {p.word for p in paths}
        for p in paths:
            if p.semilength <= 8:
                words.update(q.word for q in lower_covers(p) | upper_covers(p))
        for tag in FAMILY_TAGS:
            for k in (2, 3, 4):
                words.update(*up_set(pattern(tag, k), 9))
        words.update([mirror(DyckPath(word)).word for word in words])
        assert {DyckPath(word).word for word in words} == words


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

    def test_fixpoint_matches_the_word_search(self):
        paths = [p for s in range(1, 6) for p in enumerate_paths(s)]
        for p in paths:
            for q in paths:
                assert contains_pattern(p, q) == contains_pattern_by_search(p, q)

    def test_transitivity_samples(self):
        paths = [p for s in range(1, 7) for p in enumerate_paths(s)]
        import random
        rng = random.Random(2024)
        for _ in range(300):
            p, q, r = (rng.choice(paths) for _ in range(3))
            if contains_pattern(p, q) and contains_pattern(q, r):
                assert contains_pattern(p, r)


def _bounded_word(rng, s, top):
    """A random Dyck word of semilength s and height at most ``top``: it
    avoids te of size ``top``."""
    steps, ups, y = [], 0, 0
    while len(steps) < 2 * s:
        if ups < s and y < top and (not y or rng.random() < 0.5):
            steps.append("U")
            ups, y = ups + 1, y + 1
        else:
            steps.append("D")
            y -= 1
    return "".join(steps)


def _few_bounces_word(rng, s, bounces):
    """A random Dyck word of semilength s whose bounce path returns to the
    diagonal ``bounces`` times: it avoids tf of size ``bounces``.

    The bounce path rises r_1, r_2, ... in turn, so the word is U^{r_1}
    and then, for each i, the r_i steps D that close rise i shuffled with
    the r_{i+1} steps U of the next rise, a D first.
    """
    cuts = sorted(rng.sample(range(1, s), bounces - 1))
    rises = [b - a for a, b in zip([0, *cuts], [*cuts, s])] + [0]
    word = "U" * rises[0]
    for downs, ups in zip(rises, rises[1:]):
        block = ["D"] * (downs - 1) + ["U"] * ups
        rng.shuffle(block)
        word += "D" + "".join(block)
    return word


class TestContainmentOracles:
    def test_matches_word_search_on_samples(self):
        # the next two tests cover every pair at s <= 6
        levels = [list(enumerate_paths(s)) for s in range(7)]
        rng = random.Random(14)
        for _ in range(4000):
            p = rng.choice(levels[rng.randint(1, 6)])
            q = rng.choice(levels[rng.randint(0, p.semilength)])
            assert contains_pattern(p, q) == contains_pattern_by_search(p, q), (p, q)

    def test_the_search_expands_only_words_longer_than_the_pattern(
            self, monkeypatch):
        expanded = []
        real = poset._lower_cover_words

        def recording(word):
            expanded.append(word)
            return real(word)

        monkeypatch.setattr(poset, "_lower_cover_words", recording)
        paths = [p for s in range(7) for p in enumerate_paths(s)]
        for p in paths:
            for q in paths:
                expanded.clear()
                found = contains_pattern_by_search(p, q)
                assert all(len(word) > len(q.word) for word in expanded), (p, q)
                assert found == contains_pattern(p, q), (p, q)
        assert not contains_pattern_by_search(parse_path("UD"), EMPTY_PATH)
        assert contains_pattern_by_search(EMPTY_PATH, EMPTY_PATH)

    def test_accepts_exactly_the_down_set(self):
        down = {}
        paths = [p for s in range(7) for p in enumerate_paths(s)]
        for p in paths:  # by semilength, so every child comes first
            down[p.word] = {p.word}.union(
                *(down[child] for child in poset._lower_cover_words(p.word)))
        for p in paths:
            accepted = {q.word for q in paths if contains_pattern(p, q)}
            assert accepted == down[p.word], p

    def test_families_at_large_semilength(self):
        # hosts at s = 100-400; TestContainmentFixpoint goes to s = 2000
        rng = random.Random(2020)
        start = time.monotonic()
        for k in range(2, 6):
            te_free = DyckPath(_bounded_word(rng, 400, k))
            tf_free = DyckPath(_few_bounces_word(rng, 120, k))
            assert avoids_characterized(te_free, "te", k)
            assert avoids_characterized(tf_free, "tf", k)
            # below the height k of the tg, tv and tor patterns
            low = DyckPath(_bounded_word(rng, 400, k - 1))
            hosts = [DyckPath(uniform_word(rng, 100)),
                     DyckPath(uniform_word(rng, 400)), te_free, tf_free, low]
            for p in hosts:
                for tag in FAMILY_TAGS:
                    assert (contains_pattern(p, pattern(tag, k))
                            != avoids_characterized(p, tag, k)), (p, tag, k)
        # About 0.04 s on 2 vCPUs: each call makes at most 2k(s + 1) pops.
        assert time.monotonic() - start < 10

    def test_hosts_beyond_the_word_search(self):
        wide = DyckPath("U" * 200 + "UD" * 200 + "D" * 200)
        assert not contains_pattern(wide, parse_path("UDUDUD"))
        pyramid = DyckPath("U" * 1500 + "D" * 1500)
        assert not contains_pattern(pyramid, parse_path("UDUD"))


def _bounce_deleted(rng, word, count):
    """``word`` after ``count`` seeded bounce deletions, for ``count`` at
    most (s + 1) / 2 at semilength s.

    The U indices i_1 < ... < i_count are at least 2 apart and each D index
    is i_r - 1 or i_r, so deleting the pairs in decreasing i_r, each pair
    still has its original labels when its turn comes: the result is the
    word without those steps.
    """
    ups, downs = poset._step_positions(word)
    picks = sorted(rng.sample(range(1, len(ups) - count + 2), count))
    drop = set()
    for r, pick in enumerate(picks):
        i = pick + r
        drop.update((ups[i - 1], downs[max(1, i - rng.randint(0, 1)) - 1]))
    return "".join(char for pos, char in enumerate(word) if pos not in drop)


def _replay(p, embedding):
    """Replay the deletion sequence of the "If" half of the
    :func:`contains_pattern` proof: sort the deleted U indices x_j and D
    indices y_j, then delete the pairs in decreasing x_j."""
    xs = sorted(set(range(1, p.semilength + 1)) - set(embedding[0::2]))
    ys = sorted(set(range(1, p.semilength + 1)) - set(embedding[1::2]))
    for x, y in sorted(zip(xs, ys), reverse=True):
        p = bounce_delete(p, Deletion(x, y))
    return p


class TestContainmentFixpoint:
    def test_every_embedding_replays_to_the_pattern(self):
        paths = [p for s in range(1, 7) for p in enumerate_paths(s)]
        pairs = [(p, q) for p in paths for q in paths
                 if q.semilength <= p.semilength]
        rng = random.Random(16)
        for s in (30, 60, 200):
            host = uniform_word(rng, s)
            pairs.append((DyckPath(host),
                          DyckPath(_bounce_deleted(rng, host, s // 3))))
        found = 0
        for p, q in pairs:
            embedding, _ = poset._least_embedding(p.word, q.word)
            if embedding is not None:
                assert _replay(p, embedding) == q, (p, q)
                found += 1
        # the 2940 pairs q <= p up to semilength 6, and the seeded three
        assert found == 2943

    def test_the_fixpoint_is_the_least_chain_embedding(self):
        # every chain a_1 <= b_1 < a_2 <= ... < a_k <= b_k of a host of
        # semilength <= 5, keyed by the word its kept steps spell
        words = [p.word for s in range(1, 6) for p in enumerate_paths(s)]
        found = 0
        for host in words:
            s = len(host) // 2
            ups, downs = poset._step_positions(host)
            chains = {}
            for k in range(1, s + 1):
                for a in combinations(range(1, s + 1), k):
                    for b in combinations(range(1, s + 1), k):
                        chain = [v for pair in zip(a, b) for v in pair]
                        if all(chain[t] + (t & 1) <= chain[t + 1]
                               for t in range(2 * k - 1)):
                            kept = sorted([ups[i - 1] for i in a]
                                          + [downs[i - 1] for i in b])
                            spelt = "".join(host[pos] for pos in kept)
                            chains.setdefault(spelt, []).append(chain)
            for target in words:
                if len(target) > len(host):
                    break
                least, _ = poset._least_embedding(host, target)
                if target not in chains:
                    assert least is None, (host, target)
                    continue
                found += 1
                assert least in chains[target], (host, target)
                assert all(all(x <= y for x, y in zip(least, chain))
                           for chain in chains[target]), (host, target)
        # the pairs q <= p up to semilength 5
        assert found == 555

    def test_pops_on_every_pair_up_to_semilength_6(self):
        # the pops count the worklist's steps, so their total pins the
        # order in which it raises the variables
        words = [p.word for s in range(1, 7) for p in enumerate_paths(s)]
        assert sum(poset._least_embedding(p, q)[1] for p in words
                   for q in words if len(q) <= len(p)) == 204_284

    def test_the_benchmark_regime_against_the_search(self):
        # poset-queries' deletion pairs: hosts of semilength 12 less 2-3
        # bounce deletions; then patterns one taller than their host, which
        # no host contains, as a bounce deletion never raises the height
        rng = random.Random(1212)
        cases = []
        for _ in range(200):
            host = uniform_word(rng, 12)
            cases.append((DyckPath(host), DyckPath(
                _bounce_deleted(rng, host, rng.randint(2, 3))), True))
        for p, _, _ in cases[:20]:
            tall = height(p) + 1
            cases.append((p, DyckPath("U" * tall + "D" * tall), False))
        start = time.monotonic()
        answers = [contains_pattern(p, q) for p, q, _ in cases]
        elapsed = time.monotonic() - start
        assert answers == [answer for _, _, answer in cases]
        for (p, q, _), answer in zip(cases, answers):
            assert contains_pattern_by_search(p, q) == answer, (p, q)
        # about 3 ms on 2 vCPUs; the search takes about 0.08 s
        assert elapsed < 1

    def test_tall_hosts_in_well_under_a_second(self):
        rng = random.Random(2026)
        tg_3 = pattern("tg", 3)
        wide = DyckPath(uniform_word(rng, 2000))
        cases = [(DyckPath("UD" * 100 + tower + "UD" * 3), tg_3)
                 for tower in ("U" * 100 + "D" * 100, "U" * 150 + "D" * 150)]
        cases += [(DyckPath(uniform_word(rng, 200)),
                   DyckPath(uniform_word(rng, 50))),
                  (wide, DyckPath(_bounce_deleted(
                      rng, _bounce_deleted(rng, wide.word, 600), 400)))]
        start = time.monotonic()
        answers = [contains_pattern(p, q) for p, q in cases]
        elapsed = time.monotonic() - start
        assert answers[:2] == [False, False] and answers[3]
        if answers[2]:
            p, q = cases[2]
            assert _replay(p, poset._least_embedding(p.word, q.word)[0]) == q
        assert cases[3][1].semilength == 1000
        assert all(avoids_characterized(p, "tg", 3) for p, _ in cases[:2])
        assert elapsed < 1

    def test_pops_within_the_stated_bound(self):
        # (UD)^(s - k) q for q = UU (DU)^(k - 2) DD pops up to about 3/4 of
        # 2k(s + 1): every variable climbs the zigzag nearly to its end
        cases = []
        for s, k in ((60, 20), (200, 50), (200, 150)):
            tail = "UU" + "DU" * (k - 2) + "DD"
            tower = "U" * k + "D" * k
            cases += [("UD" * (s - k) + tail, tail, True),
                      ("UD" * s, tower, False),
                      ("UD" * (s - k) + tower, tower, True),
                      ("U" * s + "D" * s, tower, True),
                      ("U" * (s // 2) + "UD" * (s // 2) + "D" * (s // 2),
                       "U" * (k // 2) + "UD" * (k // 2) + "D" * (k // 2),
                       True),
                      ("UD" * (s - k) + tower, tail, False)]
        for host, target, answer in cases:
            s, k = len(host) // 2, len(target) // 2
            embedding, pops = poset._least_embedding(host, target)
            assert pops <= 2 * k * (s + 1), (host, target)
            assert (embedding is not None) == answer, (host, target)

    def test_families_on_hosts_up_to_semilength_2000(self):
        rng = random.Random(1955)
        start = time.monotonic()
        for k in range(2, 6):
            hosts = [DyckPath(_few_bounces_word(rng, 400, k)),
                     DyckPath(_few_bounces_word(rng, 400, k + 1)),
                     DyckPath(uniform_word(rng, 2000)),
                     DyckPath(_bounded_word(rng, 2000, k))]
            for p in hosts:
                for tag in FAMILY_TAGS:
                    assert (contains_pattern(p, pattern(tag, k))
                            != avoids_characterized(p, tag, k)), (p, tag, k)
        assert time.monotonic() - start < 2


CAP = poset.BRUTE_MAX_SEMILENGTH
PYRAMID_AT_CAP = DyckPath("U" * CAP + "D" * CAP)
PYRAMID_ABOVE_CAP = DyckPath("U" * (CAP + 1) + "D" * (CAP + 1))


class TestBruteCap:
    """The brute routes share one size cap, checked before any work."""

    @pytest.mark.parametrize("work, route, message", [
        ("_insertion_words", lambda: up_set(parse_path("UUDD"), CAP + 1),
         "up-set sweep capped at semilength 13"),
        ("_insertion_words",
         lambda: up_set_sizes(parse_path("UUDD"), CAP + 1),
         "up-set sweep capped at semilength 13"),
        ("_insertions", lambda: upper_covers_by_search(PYRAMID_ABOVE_CAP),
         "cover search capped at semilength 13"),
        ("_lower_cover_words",
         lambda: contains_pattern_by_search(PYRAMID_ABOVE_CAP, parse_path("UD")),
         "containment search capped at semilength 13"),
    ], ids=["up_set", "up_set_sizes", "upper_covers_by_search",
            "contains_pattern_by_search"])
    def test_refused_before_any_work(self, monkeypatch, work, route, message):
        calls = []
        monkeypatch.setattr(poset, work, lambda *args: calls.append(args))
        with pytest.raises(ResourceLimit, match=f"^{message}$"):
            route()
        assert calls == []

    def test_the_cap_itself_is_accepted(self):
        levels = up_set(PYRAMID_AT_CAP, CAP)
        assert levels[CAP] == {PYRAMID_AT_CAP.word} and not any(levels[:CAP])
        assert len(upper_covers_by_search(PYRAMID_AT_CAP)) == \
            count_upper_covers(PYRAMID_AT_CAP)
        assert contains_pattern_by_search(PYRAMID_AT_CAP, PYRAMID_AT_CAP)


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

    def test_resource_limit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(poset, "enumerate_paths",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(core, "catalan", lambda *args: calls.append(args))
        for max_semilength in (12, 10 ** 6):
            with pytest.raises(ResourceLimit, match="^poset graph capped at "
                               "semilength 11$"):
                hasse(max_semilength)
        assert calls == []

    def test_the_cap_itself_is_accepted(self, monkeypatch):
        calls = []
        monkeypatch.setattr(poset, "enumerate_paths",
                            lambda *args: calls.append(args) or ())
        assert hasse(poset.HASSE_MAX_SEMILENGTH).node_count == 0
        assert calls == [(s,) for s in range(1, 12)]

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
