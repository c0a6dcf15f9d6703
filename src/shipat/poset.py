"""The pattern order on Dyck paths: bounce deletions, covers, containment.

A bounce deletion removes a pair of steps from a path: ``delta(i, i)``
removes the i-th U step together with the i-th D step, and
``delta(i, i - 1)`` removes the i-th U step together with the (i-1)-st D
step.  A path covers every result of a single bounce deletion; iterating
deletions gives the pattern order (q occurs in p iff q is reachable from p).
Bounce deletion needs semilength >= 2, so UD has no lower covers and no
path lies above the empty path in the pattern order; :func:`upper_covers`
of the empty path still lists its single insertion, UD.

All cover generation goes through one word kernel.  Each deletion child is
cut out of the word once per pair of step runs.  Each insertion child is
built once per U class and D run: the new U goes once into each run of U
steps that starts the word or follows a D, and the new D goes once at the
start of its legal range, where it becomes D_{i-1} or D_i of the new U_i
and the word stays a Dyck word, and once after each U step in that range,
since a D placed anywhere in a run of D steps gives the same word.  It
skips the children U w[:t] D w[t:] of the first class, whose canonical
parent is the word w itself.  Child words are Dyck by construction and go
straight into a set the caller passes: :func:`upper_covers` passes one
that holds those skipped children and turns its words into paths
unchecked, so a cover set costs O(s) per candidate child instead of
a search over all O(s^2) insertion pairs; :func:`upper_covers_by_search`
keeps that search, validating each candidate, as the independent oracle.

Containment has two stateless routes: :func:`contains_pattern` solves
monotone constraints on step indices for the least embedding and builds
no cover; :func:`up_set` sweeps the up-set of a pattern level by level,
for every host of a semilength at once.  One sweep, :func:`_frontiers`,
runs the insertion kernel only on the frontier: the words whose
canonical parent (the word without its first U and first D) avoids the
pattern.  :func:`up_set` builds every other word of a level once, from
its parent; :func:`up_set_sizes` builds none and counts each level from
a histogram of leading U runs, so its memory is that of the frontiers:
on 2 vCPUs the sizes for te_3 to semilength 13 take 0.14-0.17 s and
20 MB peak RSS, where :func:`up_set` holds 667,875 words at the top.

The brute routes, :func:`up_set`, :func:`up_set_sizes`,
:func:`upper_covers_by_search` and :func:`contains_pattern_by_search`, share
one size cap, :data:`BRUTE_MAX_SEMILENGTH`; cover listing and
:func:`hasse` have their own.  Each is a semilength checked by the one
guard before any work, which raises :class:`~shipat.core.ResourceLimit`.
It and :class:`~shipat.core.IndexOutOfRange` live in :mod:`shipat.core`
with the other typed errors and are importable from here too.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import index
from typing import Callable, Iterable, Iterator

from .core import (
    DyckPath,
    IndexOutOfRange,
    ResourceLimit,
    _Frozen,
    _RUNS,
    _check_cap,
    enumerate_paths,
)

# The largest path whose covers are listed.  On 2 vCPUs, upper_covers of a
# uniform path of semilength 2,000 builds about 8,000 words of 4,000 steps
# in 0.06 s; at 10,000 it builds about 40,000 words of 20,000 steps, about
# 800 MB.  The closed counts of shipat.covers have no cap.
COVERS_MAX_SEMILENGTH = 2_000


class Deletion(_Frozen):
    """A bounce deletion delta_{i,k}: remove U_i and D_k with k in {i-1, i}.
    An index that is not an integer raises :class:`TypeError`."""

    __slots__ = ("i", "k")
    i: int
    k: int

    def __init__(self, i: int, k: int) -> None:
        i, k = index(i), index(k)
        if k not in (i - 1, i):
            raise ValueError(f"k must be i-1 or i, got i={i}, k={k}")
        if k < 1:
            raise ValueError("k must be >= 1 (i = 1 forces k = 1)")
        self._fill(i, k)


def _step_positions(word: str) -> tuple[list[int], list[int]]:
    """Word positions of the U steps and of the D steps, in order."""
    ups: list[int] = []
    downs: list[int] = []
    for pos, char in enumerate(word):
        (ups if char == "U" else downs).append(pos)
    return ups, downs


def _drop_two(word: str, a: int, b: int) -> str:
    """The word without its letters at the distinct positions a and b."""
    if a > b:
        a, b = b, a
    return word[:a] + word[a + 1:b] + word[b + 1:]


def _preimages(words: Iterable[str]) -> Iterator[str]:
    """The words whose canonical parent (see :func:`up_set`) is one of
    ``words``: U p[:t] D p[t:] for t up to the U steps before the first D
    of p, and UD for the empty word, which has no D."""
    return ("U" + p[:t] + "D" + p[t:]
            for p in words for t in range(p.find("D") + 1 or 1))


def _insertion_words(word: str, out: set[str]) -> set[str]:
    """Add to ``out`` every word that deletes to ``word`` by one bounce
    deletion, save perhaps the preimages of ``word`` (:func:`_preimages`),
    each built once per U class and D run of its parent, and return
    ``out``; a caller that sweeps many parents passes the set it is
    filling, so no per-parent set is built or merged.

    The preimages are the children of the first class with the new D
    before D_1 of the word, and those placements are skipped: the up-set
    sweep would reject each of them, as its parent is in the up-set, and
    :func:`upper_covers` adds them itself.  Another class may build one
    all the same: UDUD is UD with UD put in front, which is skipped, or at
    the end, which is not.

    A new U at ``u_spot`` becomes U_i.  The new D must become D_{i-1} or
    D_i, so it goes after D_{i-2} and at or before D_i of the word with the
    U inserted.  It must also go after the last return to the diagonal at
    or before ``u_spot``, or some prefix would dip below the diagonal;
    every other placement gives a Dyck word.

    A U class is the run of U steps from ``a`` (0 or just after a D) up to
    the next D at ``e``.  Every ``u_spot`` in a..e gives the same word with
    the U in and the same last return, and their ranges for the new D chain
    into one, from after D_{i0-2} to D_{i1}, where the new U is U_{i0} at a
    and U_{i1} at e.  A D placed anywhere in a D run gives the same word, so
    the new D goes only at the start of that range and after each U in it.
    The start uses the position of D_{i0-2} in the word without the U:
    where that D lies after ``a``, the new D goes just before it instead of
    just after, which gives the same word.
    """
    n = len(word)
    downs = [pos for pos, char in enumerate(word) if char == "D"]
    downs.append(n)  # the class after the last D ends at the end
    add = out.add
    a = last_zero = j = 0
    # class j starts at a, 0 or just after the j-th D, and ends at the next
    # D or the end of the word, e; a - j U steps and j D steps come before
    # a, so the path is back on the diagonal at a iff a == 2j
    for e in downs:
        if a == 2 * j:
            last_zero = a
        i0, i1 = a - j + 1, e - j + 1
        # D_k for k < 1 sits before the word and D_{s+1}, at n, after it
        lo = -1 if i0 <= 2 else downs[i0 - 3]
        if lo < last_zero:
            lo = last_zero
        hi = downs[i1 - 1] + 1
        with_u = word[:a] + "U" + word[a:]
        if a:
            add(with_u[:lo + 1] + "D" + with_u[lo + 1:])
        else:  # skip the preimages: the new D before D_1 of the word
            lo = e
        for d_spot in range(lo + 2, hi + 1):
            if with_u[d_spot - 1] == "U":
                add(with_u[:d_spot] + "D" + with_u[d_spot:])
        a = e + 1
        j += 1
    return out


def bounce_delete(p: DyckPath, d: Deletion) -> DyckPath:
    """Apply one bounce deletion.

    The result is always a Dyck path: between U_i and D_{i-1} every prefix
    height is at least 2, so no prefix dips below the diagonal.  The
    constructor validates it all the same.
    """
    s = p.semilength
    if s < 2:
        raise IndexOutOfRange(f"cannot delete from a path of semilength {s}")
    if not 1 <= d.i <= s:
        raise IndexOutOfRange(f"U index {d.i} outside 1..{s}")
    ups, downs = _step_positions(p.word)
    return DyckPath(_drop_two(p.word, ups[d.i - 1], downs[d.k - 1]))


def deletions(p: DyckPath) -> Iterator[Deletion]:
    """All formally legal deletions of a path of semilength >= 2."""
    for i in range(1, p.semilength + 1):
        if i >= 2:
            yield Deletion(i, i - 1)
        yield Deletion(i, i)


def _lower_cover_words(word: str) -> set[str]:
    """Distinct words one bounce deletion below ``word`` (none below
    semilength 2), each cut out once: dropping a step gives the same word
    wherever it sits in its run, so a child is a pair of runs, cut out by
    dropping the first step of each.  The ascent run U_a..U_b pairs with
    D_{a-1}..D_b (D_1..D_b if a = 1), a consecutive range of descent runs.
    """
    if len(word) < 4:
        return set()
    lens = list(map(len, _RUNS.findall(word)))  # ascent, descent, ascent, ...
    starts = [0, *accumulate(lens)]
    out: set[str] = set()
    b = 0  # U steps before the ascent run
    r, d_end = 1, lens[1]  # descent run r ends at D_{d_end}
    for j in range(0, len(lens), 2):
        while d_end < b:
            r += 2
            d_end += lens[r]
        b += lens[j]
        t, d_before = r, d_end - lens[r]
        while d_before < b:
            out.add(_drop_two(word, starts[j], starts[t]))
            d_before += lens[t]
            t += 2
    return out


def lower_covers(p: DyckPath) -> frozenset[DyckPath]:
    """Distinct results of all bounce deletions (empty for semilength <= 1);
    a path above :data:`COVERS_MAX_SEMILENGTH` raises :class:`ResourceLimit`."""
    _check_cap("cover listing", "semilength", p.semilength,
               COVERS_MAX_SEMILENGTH)
    return frozenset(map(DyckPath._trusted, _lower_cover_words(p.word)))


def cover_collisions(p: DyckPath) -> dict[DyckPath, list[Deletion]]:
    """Children that arise from more than one deletion, with the witnesses."""
    hits: dict[DyckPath, list[Deletion]] = {}
    if p.semilength >= 2:
        for d in deletions(p):
            hits.setdefault(bounce_delete(p, d), []).append(d)
    return {child: ds for child, ds in hits.items() if len(ds) > 1}


def _insertions(p: DyckPath) -> set[DyckPath]:
    """Every path made by inserting one U and one D anywhere in p.

    Builds the words of all O(s^2) insertion pairs, then turns each
    distinct word into a path through the validating constructor, which
    rejects the words that are not Dyck.  Kept only for the independent
    oracle :func:`upper_covers_by_search`, so it shares nothing with
    :func:`_insertion_words`.
    """
    word = p.word
    n = len(word)
    words: set[str] = set()
    for u_spot in range(n + 1):
        with_u = word[:u_spot] + "U" + word[u_spot:]
        words.update(with_u[:d_spot] + "D" + with_u[d_spot:]
                      for d_spot in range(n + 2))
    paths: set[DyckPath] = set()
    for candidate in words:
        try:
            paths.add(DyckPath(candidate))
        except ValueError:
            continue
    return paths


def upper_covers(p: DyckPath) -> frozenset[DyckPath]:
    """All paths of semilength s + 1 covering p, by bounce insertion.

    A bounce insertion adds a U step (becoming U_i) and a D step placed so
    that it becomes D_{i-1} or D_i, i.e. exactly the insertions undone by a
    bounce deletion.  The insertions are enumerated directly (see
    :func:`_insertion_words`), so the cost is O(s) per candidate cover,
    about O(s^2) for a typical path rather than O(s^3) for trying every
    insertion pair; :func:`upper_covers_by_search` is the all-pairs oracle.

    Bounce deletion needs semilength >= 2, so no path lies above the empty
    path in the pattern order; its upper covers list only its single
    insertion, UD, which :func:`upper_covers_by_search` does not return.
    A path above :data:`COVERS_MAX_SEMILENGTH` raises :class:`ResourceLimit`.
    """
    _check_cap("cover listing", "semilength", p.semilength,
               COVERS_MAX_SEMILENGTH)
    words = _insertion_words(p.word, set(_preimages([p.word])))
    return frozenset(map(DyckPath._trusted, words))


def upper_covers_by_search(p: DyckPath) -> frozenset[DyckPath]:
    """Definitional upper covers: every q one size up with p among its lower covers.

    Independent of the insertion-index reasoning in :func:`upper_covers`;
    used to cross-check it.  It tries all O(s^2) insertion pairs and
    validates each, about O(s^3) work: 0.9 s at semilength 150 on 2 vCPUs.
    A path above the brute cap :data:`BRUTE_MAX_SEMILENGTH` raises
    :class:`ResourceLimit`.
    """
    _check_cap("cover search", "semilength", p.semilength,
               BRUTE_MAX_SEMILENGTH)
    return frozenset(q for q in _insertions(p)
                     if p.word in _lower_cover_words(q.word))


# ---------------------------------------------------------------------------
# Pattern containment
# ---------------------------------------------------------------------------


def _least_embedding(host: str, target: str) -> tuple[list[int] | None, int]:
    """The least embedding x = [a_1, b_1, ..., a_k, b_k] of ``target``,
    nonempty and no longer than ``host``, or None, and the stack pops made."""
    # after[a] = d(a) + 1; before[t] = min{a : d(a) >= t}, or s + 1
    after, before = [0], [1]
    # a loop: core._steps_before took 0.93-0.98 ms to its 0.25 ms on the
    # 240 hosts of poset-queries, seed 1 (2 vCPUs)
    for char in host:
        if char == "U":
            after.append(len(before))
        else:
            before.append(len(after))
    s, k = len(after) - 1, len(target) // 2
    # x starts at the least chain a_i = b_i = i; turn[t]: the variable
    # that x[t] bounds at a turn of the target, or -1
    x, turn, stack = [0] * (2 * k), [-1] * (2 * k), []
    i = j = 0
    prev = "U"
    for char in target:
        if char == "U":
            i += 1
            x[2 * i - 2] = i
            if prev == "D":  # valley D_j U_i: a_i >= before[b_j]
                turn[2 * j - 1] = 2 * i - 2
                stack.append(2 * j - 1)
        else:
            j += 1
            x[2 * j - 1] = j
            if prev == "U" and j < i:  # peak U_i D_j: b_j >= after[a_i]
                turn[2 * i - 2] = 2 * j - 1
                stack.append(2 * i - 2)
        prev = char
    # every source once, popped in increasing order
    stack.sort(reverse=True)
    pop, push, pops = stack.pop, stack.append, 0
    while stack:  # a constraint holds unless its source is on the stack
        t = pop()
        pops += 1
        v = x[t]
        if v > s:
            return None, pops
        w = v + (t & 1)  # a_i <= b_i < a_{i+1}
        if t < 2 * k - 1 and x[t + 1] < w:
            x[t + 1] = w
            push(t + 1)
        u = turn[t]
        if u >= 0 and x[u] < (w := before[v] if t & 1 else after[v]):
            x[u] = w
            push(u)
    return x, pops


def contains_pattern(p: DyckPath, q: DyckPath) -> bool:
    """True iff q is reachable from p by repeated bounce deletions.

    Reflexive by convention (zero deletions); the empty path lies below
    itself alone.  For s(q) = k >= 1 this holds iff p has U indices a_i
    and D indices b_i with a_1 <= b_1 < a_2 <= b_2 < ... < a_k <= b_k such
    that keeping exactly those steps of p spells q.

    *Only if.*  p embeds itself with a_i = b_i = i.  If p' comes from p by
    deleting U_x and D_y, y in {x - 1, x}, every U index u of p' maps to u
    or u + 1 in p as u < x or not, and every D index to d or d + 1 as d < y
    or not; since y and x differ by at most one, both maps keep
    a_i <= b_i and b_i < a_{i+1}, so an embedding of q in p' is one in p.

    *If.*  With KU(t) and KD(t) the kept U and D steps of index at most t,
    the chain says KU(t) - KD(t) is 0 or 1, and U_{t+1} is not kept where
    it is 1.  Sort the deleted indices, U indices x_j and D indices y_j.
    Up to any index t the deleted D steps outnumber the deleted U steps by
    KU(t) - KD(t), so y_j <= x_j, and where that is 1 at t = y_j, U_{t+1}
    is the next deleted U: x_j - 1 <= y_j.  Delete the pairs in decreasing
    x_j: every pair deleted earlier lies above, so each pair still has its
    original labels when its turn comes and each step is a legal
    delta(x_j, y_j), which leaves exactly the kept steps.

    *Least fixpoint.*  Let d(a) count the D steps before U_a in p and m_i
    those before the i-th U of q.  As D_b precedes U_a iff b <= d(a), the
    kept steps spell q iff b_{m_i} <= d(a_i) < b_{m_i + 1} (b_0 = 0), and
    every constraint is y >= h(x) with h nondecreasing: b_i >= a_i,
    a_{i+1} >= b_i + 1, a_i >= min{a : d(a) >= b_{m_i}} and
    b_{m_i + 1} >= d(a_i) + 1, the last two binding only at turns of q and
    a peak only if m_i + 1 < i, as d(a) < a.  Raised from the least chain
    a_i = b_i = i until none is broken, the variables stay below every
    solution (Tarski; max-closed constraints, Jeavons and Cooper): one past
    s = s(p) proves there is none, and at rest they are the least.  The 2k
    variables rise at most s times, one pop each: at most 2k(s + 1) pops.
    """
    if not q.word or q.semilength > p.semilength:
        return p.word == q.word
    return _least_embedding(p.word, q.word)[0] is not None


def avoids(p: DyckPath, q: DyckPath) -> bool:
    return not contains_pattern(p, q)


# The largest semilength a brute route builds: the words of the up-set
# sweep, the host of the downward containment search and the path of the
# all-pairs cover search.  Brute avoider rows stop one below, at tableau
# size 12.  On 2 vCPUs up_set(te_3, 13), which keeps every level, peaks at
# 177 MB, and each level more multiplies that by about 3.7; up_set_sizes,
# which keeps only the frontiers, peaks at 16-21 MB for te_3, tv_2 or
# tg_2 to 13.
BRUTE_MAX_SEMILENGTH = 13


def contains_pattern_by_search(p: DyckPath, q: DyckPath) -> bool:
    """Reference containment for soundness tests: a depth-first search over
    every word below p by bounce deletions, independent of the fixpoint.

    The search holds the whole down-set of p, exponential in its
    semilength: against an absent pattern it took 0.07 s at host
    semilength 16 and 13.6 s with 132 MB at 24 on 2 vCPUs.  A host above
    the brute cap :data:`BRUTE_MAX_SEMILENGTH` raises
    :class:`ResourceLimit`.
    """
    _check_cap("containment search", "semilength", p.semilength,
               BRUTE_MAX_SEMILENGTH)
    seen, stack = {p.word}, [p.word]
    while stack:
        word = stack.pop()
        if word == q.word:
            return True
        for child in _lower_cover_words(word) - seen:
            seen.add(child)
            stack.append(child)
    return False


def up_set(q: DyckPath, s_max: int) -> list[frozenset[str]]:
    """The up-set of q by levels: entry s holds the words of semilength s
    that contain q, for s = 0..s_max.

    The canonical parent pi(c) of a word c of semilength >= 2 is c without
    its first U and its first D, the bounce deletion delta(1, 1).  The
    words with parent p are U p[:t] D p[t:] for 0 <= t <= p.find("D"), so
    these sets are disjoint and together hold every word one size above.

    *pi commutes with deletion.*  If s(c) >= 3 and p = delta(i, k)(c),
    then pi(p) is a lower cover of pi(c).  For i, k >= 2, U_1 and D_1 of c
    are still the first U and D of p, and dropping them turns U_i and D_k
    into U_{i-1} and D_{k-1}: pi(p) = delta(i-1, k-1)(pi(c)).  Otherwise
    (i, k) is (1, 1) or (2, 1).  As c begins UU or UDU, dropping D_1 with
    U_1 or with U_2 gives the same word, so p = pi(c) and
    pi(p) = delta(1, 1)(pi(c)).

    *Frontier.*  Let U_s be level s, s >= s(q).  A word whose parent is in
    U_s contains q, so it is in U_{s+1}; the frontier F_{s+1} holds the
    other words of U_{s+1}, those whose parent avoids q.  Such a word c
    has a lower cover p in U_s, and p is in F_s: either s = s(q) and
    p = q (so F_{s(q)} = {q}), or pi(p) lies below pi(c), which avoids q,
    so pi(p) avoids q too.  Hence, as disjoint unions,

        U_{s+1} = pi^-1(U_s) + F_{s+1},
        F_{s+1} = {c in UC(F_s) : pi(c) not in U_s}.

    Each word of pi^-1(U_s) is built exactly once and tested against
    nothing; only F_s goes through the insertion kernel (:func:`_frontiers`),
    each child with one lookup of its parent in the level just built, and
    the kernel skips the preimages of its own word, whose parent is in
    U_s.  The frontier is small where the up-set fills most of a level:
    for te_3 it holds 6,765 of the 667,875 words at s = 13.  Both routes
    build only Dyck words, so none is checked again.

    The levels grow with C(s_max): up_set(UUDD, 11) peaks at 22 MB on 2
    vCPUs.  :func:`up_set_sizes` gives their sizes from the frontiers
    alone.  An ``s_max`` above the brute cap :data:`BRUTE_MAX_SEMILENGTH`
    raises :class:`ResourceLimit` before any level is built.
    """
    _check_cap("up-set sweep", "semilength", s_max, BRUTE_MAX_SEMILENGTH)
    levels: list[frozenset[str]] = [frozenset()] * (s_max + 1)
    below: frozenset[str] = frozenset()
    for s, frontier in enumerate(_frontiers(q, s_max, lambda p: p in below),
                                 q.semilength):
        below = levels[s] = frozenset(chain(frontier, _preimages(below)))
    return levels


def up_set_sizes(q: DyckPath, s_max: int) -> list[int]:
    """[|U_0|, ..., |U_{s_max}|]: the sizes of the levels of
    :func:`up_set`, from its frontiers alone, with no level built.

    *Membership.*  By U_{t+1} = pi^-1(U_t) + F_{t+1}, a word w of
    semilength t >= s(q) is in U_t iff it is in F_t or pi(w) is in
    U_{t-1}, so the sweep walks pi down through the frontiers it has
    kept.  *Size.*  A word with r leading U steps has r + 1 preimages,
    with 1, ..., r + 1 leading U steps.  So with h_t[r] the words of U_t
    with r leading U steps, h_{t+1}[f] is the sum of h_t[r] over
    r >= f - 1 plus the words of F_{t+1} with f leading U steps, and
    |U_t| is the sum of h_t.

    Memory is that of the frontiers: on 2 vCPUs the sizes for tv_2 to
    semilength 13 peak at 1.1 MiB of Python objects, where its up-set
    holds 742,821 words.  An ``s_max`` above the brute cap
    :data:`BRUTE_MAX_SEMILENGTH` raises :class:`ResourceLimit` before the
    sweep starts.
    """
    _check_cap("up-set sweep", "semilength", s_max, BRUTE_MAX_SEMILENGTH)
    frontiers: list[set[str]] = []

    def contains(word: str) -> bool:
        for frontier in reversed(frontiers):
            if word in frontier:
                return True
            word = word[1:].replace("D", "", 1)
        return False

    sizes = [0] * (s_max + 1)
    ups = [0] * q.semilength  # ups[r]: words of the level with r leading U
    for s, frontier in enumerate(_frontiers(q, s_max, contains),
                                 q.semilength):
        frontiers.append(frontier)
        # the preimages with f leading U come from every r >= f - 1
        ups = [0, *reversed(list(accumulate(reversed(ups))))]
        for word in frontier:  # find gives -1 for the empty word
            ups[max(word.find("D"), 0)] += 1
        sizes[s] = sum(ups)
    return sizes


def _frontiers(q: DyckPath, s_max: int,
               contains: Callable[[str], bool]) -> Iterator[set[str]]:
    """Yield the frontiers F_s of the up-set of q, s = s(q), ..., s_max
    (see :func:`up_set`): the one sweep behind :func:`up_set` and
    :func:`up_set_sizes`.

    ``contains(p)`` tells whether p, a word of the level below the
    frontier being built, contains q.  It is asked only after that
    level's frontier was yielded, so a caller may answer from the level it
    built or walk pi down through the frontiers.  The insertion kernel
    runs once on each frontier word below s_max.
    """
    if q.semilength > s_max:
        return
    frontier = {q.word}
    yield frontier
    # No path of semilength >= 1 contains the empty path: UD has no lower
    # covers, although the single insertion into the empty word is UD.
    for _ in range(q.semilength + 1, s_max + 1 if q.word else 0):
        children: set[str] = set()
        for word in frontier:
            _insertion_words(word, children)
        frontier = {c for c in children
                    if not contains(c[1:].replace("D", "", 1))}
        yield frontier


# ---------------------------------------------------------------------------
# Hasse diagram
# ---------------------------------------------------------------------------

# The largest semilength hasse() builds a graph up to: 82,499 paths to
# semilength 11, and 290,511 to 12.
HASSE_MAX_SEMILENGTH = 11


class HasseGraph(_Frozen):
    """Cover graph of the pattern order up to a maximal semilength.

    ``levels[s]`` lists the paths of semilength s in lexicographic order;
    every edge (parent, child) drops the semilength by exactly one.
    """

    __slots__ = ("levels", "edges")
    levels: tuple[tuple[DyckPath, ...], ...]
    edges: tuple[tuple[DyckPath, DyckPath], ...]

    def __init__(self, levels: tuple[tuple[DyckPath, ...], ...],
                 edges: tuple[tuple[DyckPath, DyckPath], ...]) -> None:
        self._fill(tuple(map(tuple, levels)), tuple(map(tuple, edges)))

    @property
    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)


def hasse(max_semilength: int) -> HasseGraph:
    """Build the cover graph on all paths of semilength 1..max_semilength;
    a ``max_semilength`` above :data:`HASSE_MAX_SEMILENGTH` raises
    :class:`ResourceLimit` before any path is built."""
    if max_semilength < 1:
        raise ValueError("max_semilength must be >= 1")
    _check_cap("poset graph", "semilength", max_semilength,
               HASSE_MAX_SEMILENGTH)
    levels = [tuple(enumerate_paths(s)) for s in range(1, max_semilength + 1)]
    edges = []
    for level in levels[1:]:
        for parent in level:
            for child in sorted(lower_covers(parent)):
                edges.append((parent, child))
    return HasseGraph(tuple(levels), tuple(edges))


def export_dot(graph: HasseGraph) -> str:
    """Deterministic DOT rendering; node labels are the step words."""
    lines = ["digraph shi_pattern_poset {", "  rankdir=BT;"]
    for level in graph.levels:
        for node in level:
            lines.append(f'  "{node.word}";')
    for parent, child in graph.edges:
        lines.append(f'  "{parent.word}" -> "{child.word}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
