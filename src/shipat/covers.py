"""Closed-form cover counting, cross-validated against brute enumeration.

Lower covers of a path are counted from its shape: a handful of special
families have fixed counts, strongly irreducible paths contribute
peaks + valleys, and composite paths are handled by recursions over the
irreducible and strongly-irreducible decompositions.

Upper covers are counted by the column formula

    up_irred(p) = 2s + 1 + sum_i b_i * colU(p, a_1 + ... + a_i)

(s the semilength, (a_i, b_i) the run form, colU counting U steps in a
column subpath), corrected per dispatch branch.  For an irreducible path
the correction is (number of generic strongly-irreducible interior
components) - 1, which subsumes the "minus one" exceptions of the special
families; concatenations at ground level compose as

    |UC(x + y)| = |UC(x)| + |UC(y)| + lastdescent(x) * firstascent(y) - 1.

The dispatch and the counts read the word alone.  String comparison picks
out the special families, whose counts follow from their shape; any other
word takes one pass of prefix heights, which decides the branch and cuts
out the factors of the decompositions for the recursion to pass on as
strings.  Every closed branch here is audited against brute force by
:func:`audit_cover_counts`, an acceptance test.
"""

from __future__ import annotations

from itertools import accumulate, starmap

from .core import (
    DyckPath,
    _Record,
    enumerate_paths,
    is_irreducible,
    _word_cuts,
    _word_heights,
)
from .poset import IndexOutOfRange, lower_covers, upper_covers

# Dispatch branch names, in matching precedence order.
BRANCH_EMPTY = "empty"
BRANCH_MINIMUM = "minimum"
BRANCH_ZIGZAG = "zigzag"
BRANCH_PYRAMID = "pyramid"
BRANCH_PEAK_RUN = "peak-run"
BRANCH_SYMMETRIC = "symmetric"
BRANCH_STRONG = "strongly-irreducible"
BRANCH_IRR_COMPOSITE = "irreducible-composite"
BRANCH_REDUCIBLE = "reducible"

ALL_BRANCHES = (
    BRANCH_EMPTY, BRANCH_MINIMUM, BRANCH_ZIGZAG, BRANCH_PYRAMID,
    BRANCH_PEAK_RUN, BRANCH_SYMMETRIC, BRANCH_STRONG,
    BRANCH_IRR_COMPOSITE, BRANCH_REDUCIBLE,
)

# The 4n-5 upper-cover formula for U(UD)^{n-1}D (n = semilength) is negative
# at n = 2; the oracle audit shows it is exact for every n >= 3, and
# classify_branch sends the n <= 2 paths UD and U^2D^2 to the minimum and
# pyramid branches first, so the formula never sees them.
PEAK_RUN_MIN_SEMILENGTH = 3


def classify_branch(p: DyckPath) -> str:
    """Total classification of a path into exactly one dispatch branch."""
    return _dispatch(p.word)[0]


def _dispatch(w: str, heights: list[int] | None = None
              ) -> tuple[str, list[int] | None]:
    """The dispatch branch of a Dyck word, and its prefix heights.

    The special families are told apart by comparing the word with their
    shapes, so only a word outside them needs its heights; they are
    computed here unless given, and stay as given for a special word.
    """
    s = len(w) // 2
    if s < 2:
        return (BRANCH_MINIMUM if s else BRANCH_EMPTY), heights
    if w == "UD" * s:
        return BRANCH_ZIGZAG, heights
    if w == "U" * s + "D" * s:
        return BRANCH_PYRAMID, heights
    if w == "U" + "UD" * (s - 1) + "D":
        return BRANCH_PEAK_RUN, heights
    # symmetric: U^a (DU)^r D^a with a >= 3 and r >= 1
    a = w.find("D")
    if 3 <= a < s and w == "U" * a + "DU" * (s - a) + "D" * a:
        return BRANCH_SYMMETRIC, heights
    if heights is None:
        heights = _word_heights(w)
    # irreducible: h > 0 before the end; strongly: h > 1 inside the end steps
    if heights.index(0) < len(w) - 1:
        return BRANCH_REDUCIBLE, heights
    if heights.index(1, 1) < len(w) - 2:
        return BRANCH_IRR_COMPOSITE, heights
    return BRANCH_STRONG, heights


# ---------------------------------------------------------------------------
# Column subpaths
# ---------------------------------------------------------------------------


def _ucount_table(w: str) -> list[int]:
    """t = [0, 0, u_1, ..., u_s, s] with u_j the U steps before D_j, so
    that colU(c) = t[c + 2] - t[c]: the pieces of the word split at its D
    steps are the U runs between them."""
    return [0, 0, *accumulate(map(len, w.split("D")))]


def column_subpath_ucount(p: DyckPath, c: int) -> int:
    """Number of U steps strictly between D_{c-1} and D_{c+1}.

    D_0 is the start of the word and any D index beyond the last step means
    the end of the word, so c = 1 sees everything before D_2 and the last
    column of an irreducible path contains no U steps.
    """
    s = p.semilength
    if not 1 <= c <= s:
        raise IndexOutOfRange(f"column {c} outside 1..{s}")
    table = _ucount_table(p.word)
    return table[c + 2] - table[c]


def _up_irred(w: str) -> int:
    """Column formula 2s + 1 + sum b_i * colU(a_1 + ... + a_i) of a word.

    The b_i D steps of the i-th descent run each have a_1 + ... + a_i U
    steps before them, so the sum runs over the D steps: colU(u_j) summed
    over j = 1..s.
    """
    table = _ucount_table(w)
    ups = table[2:-1]
    return (len(w) + 1 + sum(map(table[2:].__getitem__, ups))
            - sum(map(table.__getitem__, ups)))


def _wrapped_parts(w: str, heights: list[int]) -> list[tuple[str, list[int]]]:
    """U f D and its heights, for every interior factor f of an irreducible
    word: the heights of f inside the word are its own, raised by one."""
    cuts = _word_cuts(heights[1:-1], 1)
    return [("U" + w[a + 1:b + 1] + "D", [1, *heights[a + 1:b + 1], 0])
            for a, b in zip(cuts, cuts[1:])]


# ---------------------------------------------------------------------------
# Lower covers
# ---------------------------------------------------------------------------


def count_lower_covers(p: DyckPath) -> int:
    """Closed count of |lower_covers(p)| for semilength >= 1."""
    if not p.word:
        raise ValueError("lower covers need semilength >= 1")
    return _count_lower(p.word)


def _count_lower(w: str, heights: list[int] | None = None) -> int:
    branch, heights = _dispatch(w, heights)
    if branch == BRANCH_MINIMUM:
        return 0
    if branch in (BRANCH_ZIGZAG, BRANCH_PYRAMID):
        return 1
    if branch == BRANCH_PEAK_RUN:
        # U(UD)^m D has m lower covers.
        return len(w) // 2 - 1
    if branch == BRANCH_SYMMETRIC:
        # peaks + valleys - 1 of U^a (DU)^r D^a: (r + 1) + r - 1
        return len(w) - 2 * w.find("D")
    if branch == BRANCH_STRONG:
        # peaks + valleys
        return w.count("UD") + w.count("DU")
    if branch == BRANCH_IRR_COMPOSITE:
        # One less than the parts plus |LC(U part D)| over every part; a run
        # of r interior factors UD is one part, r pyramids UUDD in the sum.
        parts = _wrapped_parts(w, heights)
        merged = sum(1 for (a, _), (b, _) in zip(parts, parts[1:])
                     if a == b == "UUDD")
        return len(parts) - merged - 1 + sum(starmap(_count_lower, parts))
    # Reducible: a connecting part between any two ground factors other
    # than UD and one for UD at either end, plus |LC| of those factors.
    cuts = _word_cuts(heights, 0)
    others = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 2]
    return (len(others) - 1 + w.startswith("UD") + w.endswith("UD")
            + sum(_count_lower(w[a:b], heights[a:b]) for a, b in others))


# ---------------------------------------------------------------------------
# Upper covers
# ---------------------------------------------------------------------------


def count_upper_covers(p: DyckPath) -> int:
    """Closed count of |upper_covers(p)|."""
    return _count_upper(p.word)


def _count_upper(w: str, heights: list[int] | None = None) -> int:
    branch, heights = _dispatch(w, heights)
    if branch == BRANCH_EMPTY:
        return 1
    if branch in (BRANCH_MINIMUM, BRANCH_ZIGZAG, BRANCH_PYRAMID):
        return len(w)  # 2s
    if branch == BRANCH_PEAK_RUN:
        return 2 * len(w) - 5  # 4s - 5
    if branch == BRANCH_SYMMETRIC:
        # the column formula minus one on U^a (DU)^r D^a; colU telescopes
        # to 2r - 2a + 3 for r >= a, to 1 for r = a - 1 and to 0 below
        a = w.find("D")
        r = len(w) // 2 - a
        return 4 * r + 3 if r >= a - 1 else len(w)
    if branch == BRANCH_STRONG:
        return _up_irred(w)
    if branch == BRANCH_IRR_COMPOSITE:
        # U f D is strongly irreducible: generic outside the special families
        generic = sum(1 for v, h in _wrapped_parts(w, heights)
                      if _dispatch(v, h)[0] == BRANCH_STRONG)
        return _up_irred(w) + generic - 1
    # Reducible: compose the ground factors left to right.
    cuts = _word_cuts(heights, 0)
    factors = [w[a:b] for a, b in zip(cuts, cuts[1:])]
    total = sum(_count_upper(f, heights[a:b])
                for f, a, b in zip(factors, cuts, cuts[1:]))
    for left, right in zip(factors, factors[1:]):
        total += ((len(left) - len(left.rstrip("D")))
                  * (len(right) - len(right.lstrip("U"))) - 1)
    return total


# ---------------------------------------------------------------------------
# The raised gluing of the worked example
# ---------------------------------------------------------------------------


def compose_inside(x: DyckPath, y: DyckPath) -> DyckPath:
    """Glue two irreducible paths at height one: U interior(x) interior(y) D.

    Equivalently drop the closing D of x and the opening U of y, so the two
    paths share a single touch point of the shifted diagonal.  The result is
    irreducible and its strongly-irreducible decomposition has exactly the
    interiors of x and y as parts.
    """
    if not (is_irreducible(x) and is_irreducible(y)):
        raise ValueError("compose_inside needs two irreducible paths")
    return DyckPath(x.word[:-1] + y.word[1:])


# ---------------------------------------------------------------------------
# Oracle audit
# ---------------------------------------------------------------------------


class AuditReport(_Record):
    """Outcome of the brute-force audit of the closed cover counts."""

    __slots__ = ("max_semilength", "paths_checked", "branch_counts",
                 "mismatches", "fallbacks")
    max_semilength: int
    paths_checked: int
    branch_counts: dict[str, int]
    mismatches: list[tuple[str, str, str, int, int]]
    fallbacks: list[tuple[str, str]]

    def __init__(self, max_semilength: int, paths_checked: int = 0,
                 branch_counts: dict[str, int] | None = None,
                 mismatches: list[tuple[str, str, str, int, int]] | None = None,
                 fallbacks: list[tuple[str, str]] | None = None) -> None:
        self._fill(max_semilength, paths_checked,
                   {} if branch_counts is None else branch_counts,
                   [] if mismatches is None else mismatches,
                   [] if fallbacks is None else fallbacks)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary_lines(self) -> list[str]:
        lines = [f"cover audit up to semilength {self.max_semilength}: "
                 f"{self.paths_checked} paths"]
        for branch in ALL_BRANCHES:
            if branch in self.branch_counts:
                lines.append(f"  branch {branch}: {self.branch_counts[branch]} paths")
        if self.fallbacks:
            lines.append(f"  brute fallbacks (excluded from closed formulas): "
                         f"{len(self.fallbacks)}")
            for word, why in self.fallbacks:
                lines.append(f"    {word}: {why}")
        else:
            lines.append("  brute fallbacks: none "
                         "(4n-5 peak-run range starts at semilength "
                         f"{PEAK_RUN_MIN_SEMILENGTH}; smaller cases belong to "
                         "other families)")
        lines.append(f"  mismatches: {len(self.mismatches)}")
        for word, branch, which, closed, brute in self.mismatches[:20]:
            lines.append(f"    {which} {word} [{branch}]: closed={closed} brute={brute}")
        return lines


def audit_cover_counts(max_semilength: int = 8) -> AuditReport:
    """Compare closed lower/upper cover counts with brute force everywhere.

    Every path of semilength 1..max_semilength is classified, counted by the
    closed dispatch and by enumeration, and any disagreement is recorded
    together with its branch.
    """
    report = AuditReport(max_semilength)
    for s in range(1, max_semilength + 1):
        for p in enumerate_paths(s):
            branch = classify_branch(p)
            report.paths_checked += 1
            report.branch_counts[branch] = report.branch_counts.get(branch, 0) + 1
            if branch == BRANCH_PEAK_RUN and s < PEAK_RUN_MIN_SEMILENGTH:
                report.fallbacks.append((p.word, "peak-run below 4n-5 range"))
            closed_lc = count_lower_covers(p)
            brute_lc = len(lower_covers(p))
            if closed_lc != brute_lc:
                report.mismatches.append((p.word, branch, "lower", closed_lc, brute_lc))
            closed_uc = count_upper_covers(p)
            brute_uc = len(upper_covers(p))
            if closed_uc != brute_uc:
                report.mismatches.append((p.word, branch, "upper", closed_uc, brute_uc))
    return report
