"""Dyck paths, Shi tableaux, and the conversions and statistics between them.

A Dyck path of semilength ``s`` is a word over ``{U, D}`` with ``s`` letters
of each kind in which every prefix contains at least as many ``U`` as ``D``.
Equivalently it is a monotone lattice path from ``(0, 0)`` to ``(s, s)``
(``U`` = north, ``D`` = east) that stays weakly above the diagonal.

A Shi tableau of size ``n`` is a binary filling of the staircase diagram with
rows of ``0, 1, ..., n`` boxes (labelled bottom to top) in which every full
cell has all cells above it and to its left full as well.  Shi tableaux of
size ``n`` are in bijection with Dyck paths of semilength ``n + 1``; we store
a tableau through its area vector, the per-row counts of empty boxes.

Conventions used throughout the package:

* step indices, row indices and column indices are 1-based;
* the word is the canonical representation; area vectors, run forms and
  2 x s standard tableaux are derived views;
* the empty path (semilength 0) is legal and acts as the identity for
  concatenation;
* ``_factor_cuts`` and ``_part_cuts`` are the one cut of a word at its
  returns; the decompositions and the counts of :mod:`shipat.covers` read it.
"""

from __future__ import annotations

import math
import re
from functools import total_ordering
from itertools import accumulate, count, pairwise
from operator import attrgetter, index, sub
from typing import Iterator


class MalformedWord(ValueError):
    """A path word contains a character outside the accepted alphabets."""

    def __init__(self, index: int, char: str):
        self.index = index
        self.char = char
        super().__init__(f"unexpected character {char!r} at index {index}")


class NotBalanced(ValueError):
    """A path word has unequal numbers of U and D steps."""

    def __init__(self, index: int, ups: int, downs: int):
        self.index = index
        super().__init__(f"word of length {index} has {ups} U vs {downs} D steps")


class PrefixViolation(ValueError):
    """Some prefix of a path word contains more D than U steps."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"prefix ending at index {index} has more D than U steps")


class IndexOutOfRange(ValueError):
    """A deletion or column refers to a step index the path does not have."""


class ResourceLimit(RuntimeError):
    """A request exceeds one of the package's fixed size caps."""


def _check_cap(work: str, unit: str, size: int, cap: int) -> None:
    """The one size guard: refuse a ``size`` above ``cap`` with the message
    ``<work> capped at <unit> <cap>``.  Every cap of the package is checked
    here, before any work, and nothing else raises :class:`ResourceLimit`."""
    if size > cap:
        raise ResourceLimit(f"{work} capped at {unit} {cap}")


def _validate_word(word: str) -> None:
    ups = 0
    downs = 0
    for pos, char in enumerate(word, start=1):
        if char == "U":
            ups += 1
        elif char == "D":
            downs += 1
            if downs > ups:
                raise PrefixViolation(pos)
        else:
            raise MalformedWord(pos, char)
    if ups != downs:
        raise NotBalanced(len(word), ups, downs)


class _Frozen:
    """Base of the value classes, all immutable: a subclass names its fields
    in ``__slots__``, in constructor order, and sets them with :meth:`_fill`.

    Equality (same class and equal field tuples), hashing, ``repr``,
    pickling and positional ``match`` patterns all follow the field tuple;
    :class:`_Ordered` adds the order.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if cls.__slots__:
            # ``_key(self)``: the value of a single field, or the tuple of
            # several; either compares exactly as the field tuple does.
            cls._key = attrgetter(*cls.__slots__)
            cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        key = self._key(self)
        return (key,) if len(self.__slots__) == 1 else key

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # A frozen instance cannot have its slots restored by assignment,
        # so unpickling and copying call the constructor again.
        return type(self), self._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class _Ordered(_Frozen):
    """An immutable record ordered by its field tuple, within one class."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) < other._key(other)
        return NotImplemented


class DyckPath(_Ordered):
    """A Dyck path, stored as its step word over {U, D}.

    Instances are immutable values; equality and (lexicographic) order are
    inherited from the word, so paths can live in sets and sorted containers.
    """

    __slots__ = ("word",)
    word: str

    def __init__(self, word: str = "") -> None:
        _validate_word(word)
        self._fill(word)

    @classmethod
    def _trusted(cls, word: str) -> DyckPath:
        """The path of a word shipat built as a Dyck word itself, unchecked.

        Cover sets wrap every word they emit, so the slot is set through
        its own descriptor, which skips the name lookup of object's
        generic ``__setattr__``: about 0.22 us a path against 0.31 us
        (warm timeit, 2 vCPUs).  Callers still see a frozen instance, as
        the class's own ``__setattr__`` and ``__delattr__`` are untouched.
        """
        path = _new(cls)
        _set_word(path, word)
        return path

    def __hash__(self) -> int:
        # the base's field-tuple hash without its generic lookups: every
        # cover set hashes each path it holds
        return hash((self.word,))

    @property
    def semilength(self) -> int:
        return len(self.word) // 2

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return self.word if self.word else "(empty)"

    def concat(self, other: "DyckPath") -> "DyckPath":
        return DyckPath(self.word + other.word)

    def heights(self) -> tuple[int, ...]:
        """Prefix heights h_1..h_2s, where h_t = #U - #D after t steps."""
        return tuple(_word_heights(self.word))


# the allocation and the slot store of DyckPath._trusted, bound once
_new = object.__new__
_set_word = DyckPath.word.__set__

# U as the signed byte 1 and D as -1
_STEPS = bytes.maketrans(b"UD", b"\x01\xff")


def _word_heights(word: str) -> list[int]:
    """Prefix heights h_1..h_2s of a Dyck word, in one pass in C."""
    steps = memoryview(word.encode().translate(_STEPS)).cast("b")
    return list(accumulate(steps))


def _steps_before(word: str, step: str) -> list[int]:
    """For each occurrence of ``step`` in order, the number of the other
    steps before it: the pieces of the word split at ``step`` are the runs
    of the other step between two occurrences."""
    return list(accumulate(map(len, word.split(step)[:-1])))


def _factor_cuts(heights: list[int]) -> list[int]:
    """0 and the end of every return to height 0 of the Dyck word w with
    these prefix heights: consecutive cuts a < b bound its ground factors."""
    cuts = [0]
    while cuts[-1] < len(heights):
        cuts.append(heights.index(0, cuts[-1]) + 1)
    return cuts


def _part_cuts(heights: list[int], a: int, b: int) -> list[int]:
    """a + 1 and the end of every return to height 1 inside the ground
    factor w[a:b] = U g_1 ... g_m D: consecutive cuts c < d bound the g_i =
    w[c:d], the interior factors, and with them the parts U g_i D."""
    cuts = [a + 1]
    while cuts[-1] < b - 1:
        cuts.append(heights.index(1, cuts[-1], b - 1) + 1)
    return cuts


EMPTY_PATH = DyckPath("")

_ALIASES = str.maketrans("1(0)", "UUDD")
_NOT_ALIAS = re.compile(r"[^UD1(0)]")


def parse_path(text: str) -> DyckPath:
    """Parse a path word; besides U/D the aliases 1/0 and (/) are accepted.

    Raises :class:`MalformedWord`, :class:`NotBalanced` or
    :class:`PrefixViolation`, each carrying the first offending 1-based index
    (for :class:`NotBalanced` the index is the word length).
    """
    text = text.strip()
    if (bad := _NOT_ALIAS.search(text)) is not None:
        raise MalformedWord(bad.start() + 1, bad.group())
    return DyckPath(text.translate(_ALIASES))


def catalan(n: int) -> int:
    """The n-th Catalan number, |D_n|."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def enumerate_paths(s: int, prefix: str = "") -> Iterator[DyckPath]:
    """Yield every Dyck path of semilength ``s`` once, in lexicographic order.

    ``prefix`` restricts the stream to paths starting with the given word,
    which lets callers split the enumeration for parallel consumption; a
    prefix that begins no such path raises ``ValueError`` at the call.  The
    stream is produced iteratively (no recursion), so any semilength works.
    """
    if s < 0:
        raise ValueError("semilength must be >= 0")
    ups = prefix.count("U")
    downs = len(prefix) - ups
    heights = accumulate(1 if char == "U" else -1 for char in prefix)
    if set(prefix) - {"U", "D"} or ups > s or min(heights, default=0) < 0:
        raise ValueError(f"not a legal Dyck prefix for semilength {s}: {prefix!r}")
    return _paths_after(s, prefix, ups, downs)


def _paths_after(s: int, prefix: str, ups: int, downs: int) -> Iterator[DyckPath]:
    # 'D' < 'U' in ASCII, so the smallest completion of a prefix with u U
    # and d D steps closes it first: D^(u-d) (UD)^(s-u).  The successor of
    # a word A D U^a D^b (U^a its last ascent) is A U plus the smallest
    # completion; the stream ends when that D would lie inside the prefix.
    word = prefix + "D" * (ups - downs) + "UD" * (s - ups)
    while True:
        yield DyckPath._trusted(word)
        last_up = word.rfind("U")
        t = word.rfind("D", 0, last_up)
        if t < len(prefix):
            return
        ups = s - (last_up - t) + 1
        downs = t - (ups - 1)
        word = word[:t] + "U" + "D" * (ups - downs) + "UD" * (s - ups)


_SWAP_STEPS = str.maketrans("UD", "DU")


def mirror(p: DyckPath) -> DyckPath:
    """Reverse-complement: read the word backwards swapping U and D.  The
    reverse-complement of a Dyck word is a Dyck word."""
    return DyckPath._trusted(p.word[::-1].translate(_SWAP_STEPS))


# ---------------------------------------------------------------------------
# Shi tableaux (area vectors)
# ---------------------------------------------------------------------------


class ShiTableau(_Ordered):
    """A Shi tableau of size n, stored as its area vector a_1..a_{n+1}.

    ``area[i-1]`` is the number of empty boxes in row i; row i has i - 1
    boxes, full cells are the leftmost ones of each row.  An entry that is
    not an integer raises :class:`TypeError`.
    """

    __slots__ = ("area",)
    area: tuple[int, ...]

    def __init__(self, area: tuple[int, ...]) -> None:
        area = tuple(map(index, area))
        if len(area) == 0:
            raise ValueError("area vector must have at least one entry")
        if area[0] != 0:
            raise ValueError("a_1 must be 0")
        for i, value in enumerate(area, start=1):
            if not 0 <= value <= i - 1:
                raise ValueError(f"a_{i}={value} outside [0, {i - 1}]")
        for i in range(1, len(area)):
            if area[i] > area[i - 1] + 1:
                raise ValueError(f"a_{i + 1} exceeds a_{i} + 1")
        self._fill(area)

    @property
    def size(self) -> int:
        return len(self.area) - 1

    def is_full(self, row: int, col: int) -> bool:
        """Whether cell (row, col) is full; the cell must exist (col < row)."""
        if not (1 <= row <= self.size + 1 and 1 <= col <= row - 1):
            raise ValueError(f"no cell at row {row}, column {col}")
        return col <= (row - 1) - self.area[row - 1]


def area_vector(p: DyckPath) -> tuple[int, ...]:
    """Area vector of a path: a_i = (i - 1) - #D before the i-th U step."""
    return tuple(map(sub, count(), _steps_before(p.word, "U")))


def path_to_tableau(p: DyckPath) -> ShiTableau:
    """The Shi tableau of size s - 1 encoding a path of semilength s >= 1."""
    if p.semilength == 0:
        raise ValueError("the empty path has no Shi tableau")
    return ShiTableau(area_vector(p))


def tableau_to_path(t: ShiTableau) -> DyckPath:
    """Inverse of :func:`path_to_tableau`."""
    chunks = []
    area = t.area
    for i, a in enumerate(area):
        # a_i + 1 - a_{i+1} down-steps separate U_i from U_{i+1}.
        chunks.append("U")
        gap = a + 1 - area[i + 1] if i + 1 < len(area) else a + 1
        chunks.append("D" * gap)
    return DyckPath("".join(chunks))


# the largest tableau whose n(n + 1)/2 region lines are built: 500,500
# lines, about 50 MB and 1-1.5 s through the CLI on 2 vCPUs
REGION_MAX_SIZE = 1_000


def region_inequalities(t: ShiTableau) -> list[str]:
    """Defining inequalities of the dominant Shi region encoded by ``t``.

    A tableau of size n describes a region of the Shi arrangement on the
    n + 1 variables x1..x{n+1}: the pair (i, j) with i < j reads cell
    (N - i + 1, N - j + 1), N = n + 1, and contributes ``xi-xj>1`` if the
    cell is full and ``0<xi-xj<1`` if it is empty.  Cells are emitted column
    by column, top row first, which is the order used when describing
    regions of Shi(3).  A tableau above :data:`REGION_MAX_SIZE` raises
    :class:`ResourceLimit` before any line is built.
    """
    n = t.size
    if n < 1:
        raise ValueError("region emission needs a tableau of size >= 1")
    _check_cap("region emission", "size", n, REGION_MAX_SIZE)
    big_n = n + 1
    lines = []
    for col in range(1, big_n):
        for row in range(big_n, col, -1):
            i = big_n - row + 1
            j = big_n - col + 1
            if t.is_full(row, col):
                lines.append(f"x{i}-x{j}>1")
            else:
                lines.append(f"0<x{i}-x{j}<1")
    return lines


# ---------------------------------------------------------------------------
# 2 x s standard Young tableaux
# ---------------------------------------------------------------------------


class StandardTableau2(_Frozen):
    """A 2 x s standard Young tableau: U-step and D-step positions.  An
    entry that is not an integer raises :class:`TypeError`."""

    __slots__ = ("top", "bottom")
    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __init__(self, top: tuple[int, ...], bottom: tuple[int, ...]) -> None:
        top, bottom = tuple(map(index, top)), tuple(map(index, bottom))
        if len(top) != len(bottom):
            raise ValueError("rows must have equal length")
        size = 2 * len(top)
        if sorted(top + bottom) != list(range(1, size + 1)):
            raise ValueError(f"entries must be a permutation of 1..{size}")
        if any(a >= b for a, b in zip(top, top[1:])):
            raise ValueError("top row must be strictly increasing")
        if any(a >= b for a, b in zip(bottom, bottom[1:])):
            raise ValueError("bottom row must be strictly increasing")
        if any(a >= b for a, b in zip(top, bottom)):
            raise ValueError("columns must be strictly increasing")
        self._fill(top, bottom)


def path_to_syt(p: DyckPath) -> StandardTableau2:
    """Register U-step positions in the top row, D-step positions below."""
    top = tuple(i for i, c in enumerate(p.word, start=1) if c == "U")
    bottom = tuple(i for i, c in enumerate(p.word, start=1) if c == "D")
    return StandardTableau2(top, bottom)


def syt_to_path(s: StandardTableau2) -> DyckPath:
    chars = ["D"] * (2 * len(s.top))
    for pos in s.top:
        chars[pos - 1] = "U"
    return DyckPath("".join(chars))


# ---------------------------------------------------------------------------
# Path statistics
# ---------------------------------------------------------------------------


def height(p: DyckPath) -> int:
    """Maximal prefix height of the path (0 for the empty path)."""
    return max(_word_heights(p.word), default=0)


def peaks(p: DyckPath) -> list[tuple[int, int]]:
    """Occurrences of UD as (index of the U step, height at the peak)."""
    return _turns(p.word, "UD")


def valleys(p: DyckPath) -> list[tuple[int, int]]:
    """Occurrences of DU as (index of the D step, height at the valley)."""
    return _turns(p.word, "DU")


def _turns(word: str, pair: str) -> list[tuple[int, int]]:
    # two occurrences of UD (or of DU) never overlap
    heights = _word_heights(word)
    return [(m.start() + 1, heights[m.start()])
            for m in re.finditer(pair, word)]


def return_points(p: DyckPath) -> list[int]:
    """Diagonal touch points of the bounce path, endpoint included.

    The values are the x-coordinates (equal to the y-coordinates) of the
    points where the bounce path comes back to the diagonal; the origin is
    not listed.
    """
    h = _steps_before(p.word, "D")
    points = []
    j = 0
    while j < p.semilength:
        j = h[j]
        points.append(j)
    return points


def bounce_path(p: DyckPath) -> DyckPath:
    """The bounce path: travel up along the path, drop to the diagonal,
    repeat, i.e. U^(b-a) D^(b-a) between consecutive return points a < b."""
    points = [0, *return_points(p)]
    return DyckPath("".join("U" * (b - a) + "D" * (b - a)
                            for a, b in pairwise(points)))


# ---------------------------------------------------------------------------
# Run form and decompositions
# ---------------------------------------------------------------------------


class RunForm(_Frozen):
    """Alternating run lengths (a_1, b_1, ..., a_l, b_l) of a path.  A run
    length that is not an integer raises :class:`TypeError`."""

    __slots__ = ("runs",)
    runs: tuple[int, ...]

    def __init__(self, runs: tuple[int, ...]) -> None:
        runs = tuple(map(index, runs))
        if len(runs) % 2:
            raise ValueError("runs must alternate ascent/descent pairs")
        if any(r < 1 for r in runs):
            raise ValueError("run lengths must be >= 1")
        self._fill(runs)

    @property
    def ascents(self) -> tuple[int, ...]:
        return self.runs[0::2]

    @property
    def descents(self) -> tuple[int, ...]:
        return self.runs[1::2]

    def to_path(self) -> DyckPath:
        chunks = []
        for a, b in zip(self.ascents, self.descents):
            chunks.append("U" * a + "D" * b)
        return DyckPath("".join(chunks))


_RUNS = re.compile("U+|D+")  # the maximal runs of equal steps of a word


def run_form(p: DyckPath) -> RunForm:
    return RunForm(tuple(map(len, _RUNS.findall(p.word))))


def is_irreducible(p: DyckPath) -> bool:
    """True iff the path touches the diagonal only at its endpoints."""
    return p.semilength > 0 and min(_word_heights(p.word)[:-1]) >= 1


def is_strongly_irreducible(p: DyckPath) -> bool:
    """True iff only the first and last step touch the shifted diagonal.

    In height terms: h_t >= 2 for 2 <= t <= 2s - 2 (the endpoints of the
    first and last step are allowed to sit at height 1).
    """
    return (p.semilength > 0
            and min(_word_heights(p.word)[1:-2], default=2) >= 2)


class NotIrreducible(ValueError):
    """Strong decomposition was requested for a reducible path."""


IRREDUCIBLE = "irreducible"
STRONGLY_IRREDUCIBLE = "strongly-irreducible"
CONNECTING = "connecting"


class Part(_Frozen):
    """One component of a decomposition.

    For connecting parts ``peak_count`` is the number of peaks in the run
    (0 is legal: an empty connector between two adjacent irreducible
    components is materialized so that it can be counted).
    """

    __slots__ = ("component", "kind", "peak_count")
    component: DyckPath
    kind: str
    peak_count: int | None

    def __init__(self, component: DyckPath, kind: str,
                 peak_count: int | None = None) -> None:
        self._fill(component, kind, peak_count)


class Decomposition(_Frozen):
    """An ordered split of a path into components.

    ``level`` is "irreducible" (ground-level split) or
    "strongly-irreducible" (split of the interior of an irreducible path;
    reassembly wraps the concatenated parts in U...D).  At the strong level
    a part of kind "strongly-irreducible" holds the interior component
    sigma, meaning U sigma D is the strongly irreducible factor.
    """

    __slots__ = ("level", "parts")
    level: str
    parts: tuple[Part, ...]

    def __init__(self, level: str, parts: tuple[Part, ...]) -> None:
        self._fill(level, tuple(parts))

    def reassemble(self) -> DyckPath:
        body = "".join(part.component.word for part in self.parts)
        if self.level == STRONGLY_IRREDUCIBLE:
            return DyckPath("U" + body + "D")
        return DyckPath(body)

    @property
    def k_prime(self) -> int:
        """Number of connecting parts (empty connectors included)."""
        return sum(1 for part in self.parts if part.kind == CONNECTING)


def _group_factors(word: str, cuts: list[int], kind: str) -> tuple[Part, ...]:
    parts: list[Part] = []
    peak_run = 0
    empty_connectors = kind == IRREDUCIBLE  # between two components
    for a, b in pairwise(cuts):
        if b - a == 2:
            peak_run += 1
            continue
        if peak_run or (empty_connectors and parts):
            parts.append(Part(DyckPath._trusted("UD" * peak_run), CONNECTING,
                              peak_run))
        peak_run = 0
        parts.append(Part(DyckPath._trusted(word[a:b]), kind))
    if peak_run:
        parts.append(Part(DyckPath._trusted("UD" * peak_run), CONNECTING,
                          peak_run))
    return tuple(parts)


def irreducible_decomposition(p: DyckPath) -> Decomposition:
    """Split into irreducible components and runs of height-1 peaks.

    Consecutive UD factors are grouped into one connecting part; an empty
    connecting part is materialized between two adjacent irreducible
    components so that connectors can be counted uniformly.
    """
    w = p.word
    return Decomposition(IRREDUCIBLE, _group_factors(
        w, _factor_cuts(_word_heights(w)), IRREDUCIBLE))


def strongly_irreducible_decomposition(p: DyckPath) -> Decomposition:
    """Split the interior of an irreducible path.

    Each part is either an interior component sigma with U sigma D strongly
    irreducible, or a nonempty run of height-2 peaks.  Raises
    :class:`NotIrreducible` on reducible input.
    """
    w = p.word
    heights = _word_heights(w)
    if len(_factor_cuts(heights)) != 2:  # not one ground factor
        raise NotIrreducible(f"{w or '(empty)'} is not irreducible")
    return Decomposition(STRONGLY_IRREDUCIBLE, _group_factors(
        w, _part_cuts(heights, 0, len(w)), STRONGLY_IRREDUCIBLE))
