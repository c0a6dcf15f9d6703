"""Closed-form cover counting, cross-validated against brute enumeration.

Both counts read the word alone.  One table tests each special shape
(empty, minimum, zigzag, pyramid, peak-run, symmetric) by string
comparison and gives its branch name and both counts beside the test.
Any other word takes one pass of prefix heights, which cuts it into its
#F ground factors and each factor f = U g_1 ... g_m D into the parts
U g_i D, the g_i the factors of f[1:-1] at height one.  Both counts are
whole-word statistics less local corrections, with no further dispatch.

    lower = peaks + valleys + [starts UD] + [ends UD] - 2 #(factors UD)
            - #(adjacent UUDD parts in a factor) - #(symmetric parts)

Part by part, a part counts its peaks and valleys, less one if it is
symmetric, a factor one per part (a run of UUDD parts once) and the word
one per UD end, less one.  A part has the peaks and valleys of its g_i
and f has m - 1 valleys more, so f counts peaks(f) + valleys(f) + 1 less
its corrections, and the #F ones less one are the valleys between them.

    upper = colformula(w) - #F - #(factors UD)
            + #(parts that are neither a pyramid nor symmetric)
    colformula(w) = 2s + 1 + sum_i b_i * colU(a_1 + ... + a_i)

with s the semilength, (a_i, b_i) the run form and colU counting U steps
in a column subpath.  Factor by factor, f counts colformula(f) - 1 plus
its parts that are neither (UD counts 2).  Across a return the last
column of a factor x also counts the first ascent of the next factor y,
adding lastdescent(x) * firstascent(y) to the word's column sum, and the
2s + 1 terms of the factors add up to #F - 1 more than the word's.

:func:`classify_branch` names the special shape, or splits the rest three
ways by the first return to height 0 and 1.  Every branch is audited
against brute force by :func:`audit_cover_counts`, an acceptance test.
"""

from __future__ import annotations

from .core import (
    DyckPath,
    IndexOutOfRange,
    _Frozen,
    _check_cap,
    _steps_before,
    _word_cuts,
    _word_heights,
    enumerate_paths,
    is_irreducible,
)
from .poset import BRUTE_MAX_SEMILENGTH, lower_covers, upper_covers

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


def _special(w: str) -> tuple[str, int | None, int] | None:
    """Branch name, lower and upper count of a special word, else None."""
    s = len(w) // 2
    if s < 2:  # the empty word has no lower count: count_lower_covers refuses
        return (BRANCH_MINIMUM, 0, 2) if s else (BRANCH_EMPTY, None, 1)
    if w == "UD" * s:
        return BRANCH_ZIGZAG, 1, 2 * s
    if w == "U" * s + "D" * s:
        return BRANCH_PYRAMID, 1, 2 * s
    if w == "U" + "UD" * (s - 1) + "D":
        # U(UD)^m D: m lower covers, 4s - 5 upper (s >= 3: UUDD is a pyramid)
        return BRANCH_PEAK_RUN, s - 1, 4 * s - 5
    if _is_symmetric(w):
        # U^a (DU)^r D^a: peaks + valleys - 1 = (r + 1) + r - 1 lower covers,
        # and upper the column formula less one, its colU telescoping to
        # 2r - 2a + 3 for r >= a, to 1 for r = a - 1 and to 0 below
        a = w.find("D")
        r = s - a
        return BRANCH_SYMMETRIC, 2 * r, 4 * r + 3 if r >= a - 1 else 2 * s
    return None


def _is_symmetric(w: str) -> bool:
    """Whether w is U^a (DU)^r D^a with a >= 3 and r >= 1."""
    a, s = w.find("D"), len(w) // 2
    return 3 <= a < s and w == "U" * a + "DU" * (s - a) + "D" * a


def classify_branch(p: DyckPath) -> str:
    """Total classification of a path into exactly one dispatch branch."""
    w = p.word
    if (special := _special(w)) is not None:
        return special[0]
    heights = _word_heights(w)
    # irreducible: h > 0 before the end; strongly: h > 1 inside the end steps
    if heights.index(0) < len(w) - 1:
        return BRANCH_REDUCIBLE
    if heights.index(1, 1) < len(w) - 2:
        return BRANCH_IRR_COMPOSITE
    return BRANCH_STRONG


def _factor_parts(w: str) -> list[tuple[str, list[str]]]:
    """Every ground factor f of a Dyck word with the parts U g D of the
    interior factors g of f, from one pass of prefix heights: inside f the
    heights of f[1:-1] return to one at the end of each g."""
    heights = _word_heights(w)
    cuts = _word_cuts(heights, 0)
    out = []
    for a, b in zip(cuts, cuts[1:]):
        inner = [a + 1 + c for c in _word_cuts(heights[a + 1:b - 1], 1)]
        out.append((w[a:b], ["U" + w[c:d] + "D"
                             for c, d in zip(inner, inner[1:])]))
    return out


# ---------------------------------------------------------------------------
# Column subpaths
# ---------------------------------------------------------------------------


def _ucount_table(w: str) -> list[int]:
    """t = [0, 0, u_1, ..., u_s, s] with u_j the U steps before D_j, so
    that colU(c) = t[c + 2] - t[c]."""
    return [0, 0, *_steps_before(w, "D"), len(w) // 2]


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


def _column_formula(w: str) -> int:
    """Column formula 2s + 1 + sum b_i * colU(a_1 + ... + a_i) of a word.

    The b_i D steps of the i-th descent run each have a_1 + ... + a_i U
    steps before them, so the sum runs over the D steps: colU(u_j) summed
    over j = 1..s.
    """
    table = _ucount_table(w)
    ups = table[2:-1]
    return (len(w) + 1 + sum(map(table[2:].__getitem__, ups))
            - sum(map(table.__getitem__, ups)))


# ---------------------------------------------------------------------------
# Lower covers
# ---------------------------------------------------------------------------


def count_lower_covers(p: DyckPath) -> int:
    """Closed count of |lower_covers(p)| for semilength >= 1."""
    w = p.word
    if not w:
        raise ValueError("lower covers need semilength >= 1")
    if (special := _special(w)) is not None:
        return special[1]
    factors = _factor_parts(w)
    # a ground factor UD has no part, and a run of adjacent UUDD parts
    # counts as one part
    return (w.count("UD") + w.count("DU") + w.startswith("UD")
            + w.endswith("UD")
            - 2 * sum(factor == "UD" for factor, _ in factors)
            - sum(_is_symmetric(v) for _, parts in factors for v in parts)
            - sum(left == right == "UUDD" for _, parts in factors
                  for left, right in zip(parts, parts[1:])))


# ---------------------------------------------------------------------------
# Upper covers
# ---------------------------------------------------------------------------


def count_upper_covers(p: DyckPath) -> int:
    """Closed count of |upper_covers(p)|."""
    w = p.word
    if (special := _special(w)) is not None:
        return special[2]
    factors = _factor_parts(w)
    # a ground factor UD counts one less, and each part that is neither
    # U^m D^m nor symmetric one more
    return (_column_formula(w) - len(factors)
            - sum(factor == "UD" for factor, _ in factors)
            + sum(2 * v.find("D") != len(v) and not _is_symmetric(v)
                  for _, parts in factors for v in parts))


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


class AuditReport(_Frozen):
    """Outcome of the brute-force audit of the closed cover counts: one
    ``(branch, count)`` per branch met, in :data:`ALL_BRANCHES` order, and
    one ``(word, branch, which, closed, brute)`` per wrong count."""

    __slots__ = ("max_semilength", "branch_counts", "mismatches")
    max_semilength: int
    branch_counts: tuple[tuple[str, int], ...]
    mismatches: tuple[tuple[str, str, str, int, int], ...]

    def __init__(self, max_semilength: int, branch_counts: tuple,
                 mismatches: tuple) -> None:
        self._fill(max_semilength, tuple(map(tuple, branch_counts)),
                   tuple(map(tuple, mismatches)))

    @property
    def paths_checked(self) -> int:
        return sum(count for _, count in self.branch_counts)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary_lines(self) -> list[str]:
        lines = [f"cover audit up to semilength {self.max_semilength}: "
                 f"{self.paths_checked} paths"]
        for branch, count in self.branch_counts:
            lines.append(f"  branch {branch}: {count} paths")
        lines.append(f"  mismatches: {len(self.mismatches)}")
        for word, branch, which, closed, brute in self.mismatches[:20]:
            lines.append(f"    {which} {word} [{branch}]: closed={closed} brute={brute}")
        return lines


def audit_cover_counts(max_semilength: int = 8) -> AuditReport:
    """Compare closed lower/upper cover counts with brute force everywhere.

    Every path of semilength 1..max_semilength is classified, counted by the
    closed dispatch and by enumeration, and any disagreement is recorded
    together with its branch.  A ``max_semilength`` above the brute cap
    :data:`~shipat.poset.BRUTE_MAX_SEMILENGTH` raises first.
    """
    _check_cap("cover audit", "semilength", max_semilength,
               BRUTE_MAX_SEMILENGTH)
    branch_counts, mismatches = dict.fromkeys(ALL_BRANCHES, 0), []
    for s in range(1, max_semilength + 1):
        for p in enumerate_paths(s):
            branch = classify_branch(p)
            branch_counts[branch] += 1
            for which, closed, brute in (
                    ("lower", count_lower_covers(p), len(lower_covers(p))),
                    ("upper", count_upper_covers(p), len(upper_covers(p)))):
                if closed != brute:
                    mismatches.append((p.word, branch, which, closed, brute))
    return AuditReport(max_semilength,
                       [pair for pair in branch_counts.items() if pair[1]],
                       mismatches)
