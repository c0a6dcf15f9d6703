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

Every closed branch here is audited against brute force by
:func:`audit_cover_counts`; the audit is part of the acceptance suite.
"""

from __future__ import annotations

from .core import (
    DyckPath,
    _Record,
    enumerate_paths,
    is_irreducible,
    is_strongly_irreducible,
    irreducible_decomposition,
    peaks,
    run_form,
    strongly_irreducible_decomposition,
    valleys,
    CONNECTING,
    _down_step_heights,
    _ground_factors,
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
    s = p.semilength
    w = p.word
    if s == 0:
        return BRANCH_EMPTY
    if s == 1:
        return BRANCH_MINIMUM
    if w == "UD" * s:
        return BRANCH_ZIGZAG
    if w == "U" * s + "D" * s:
        return BRANCH_PYRAMID
    if w == "U" + "UD" * (s - 1) + "D":
        return BRANCH_PEAK_RUN
    if _is_symmetric(p):
        return BRANCH_SYMMETRIC
    if is_strongly_irreducible(p):
        return BRANCH_STRONG
    if is_irreducible(p):
        return BRANCH_IRR_COMPOSITE
    return BRANCH_REDUCIBLE


def _is_symmetric(p: DyckPath) -> bool:
    """Whether p = U^a (DU)^r D^a with a >= 3 and r >= 1."""
    rf = run_form(p)
    asc, desc = rf.ascents, rf.descents
    return (len(asc) >= 2 and asc[0] >= 3 and desc[-1] == asc[0]
            and all(x == 1 for x in asc[1:])
            and all(x == 1 for x in desc[:-1]))


# ---------------------------------------------------------------------------
# Column subpaths
# ---------------------------------------------------------------------------


def _col_u(ups_before: list[int], c: int) -> int:
    """colU(c) in O(1), from ``ups_before[j - 1]`` = number of U before D_j.

    colU(c) = (U before D_{c+1}, or s if c = s) - (U before D_{c-1}, or 0
    if c = 1).
    """
    s = len(ups_before)
    return ((ups_before[c] if c < s else s)
            - (ups_before[c - 2] if c >= 2 else 0))


def column_subpath_ucount(p: DyckPath, c: int) -> int:
    """Number of U steps strictly between D_{c-1} and D_{c+1}.

    D_0 is the start of the word and any D index beyond the last step means
    the end of the word, so c = 1 sees everything before D_2 and the last
    column of an irreducible path contains no U steps.
    """
    s = p.semilength
    if not 1 <= c <= s:
        raise IndexOutOfRange(f"column {c} outside 1..{s}")
    return _col_u(_down_step_heights(p), c)


def _up_irred(p: DyckPath) -> int:
    """Column formula 2s + 1 + sum b_i * colU(a_1 + ... + a_i)."""
    rf = run_form(p)
    ups_before = _down_step_heights(p)
    total = 2 * p.semilength + 1
    prefix = 0
    for a_i, b_i in zip(rf.ascents, rf.descents):
        prefix += a_i
        total += b_i * _col_u(ups_before, prefix)
    return total


def _wrap(component: DyckPath) -> DyckPath:
    return DyckPath("U" + component.word + "D")


def _is_generic_strong_part(component: DyckPath) -> bool:
    """Whether U component D is strongly irreducible outside the special families."""
    return classify_branch(_wrap(component)) == BRANCH_STRONG


# ---------------------------------------------------------------------------
# Lower covers
# ---------------------------------------------------------------------------


def count_lower_covers(p: DyckPath) -> int:
    """Closed count of |lower_covers(p)| for semilength >= 1."""
    branch = classify_branch(p)
    if branch == BRANCH_EMPTY:
        raise ValueError("lower covers need semilength >= 1")
    if branch == BRANCH_MINIMUM:
        return 0
    if branch in (BRANCH_ZIGZAG, BRANCH_PYRAMID):
        return 1
    if branch == BRANCH_PEAK_RUN:
        # U(UD)^m D has m lower covers.
        return p.semilength - 1
    if branch == BRANCH_SYMMETRIC:
        return len(peaks(p)) + len(valleys(p)) - 1
    if branch == BRANCH_STRONG:
        return len(peaks(p)) + len(valleys(p))
    if branch == BRANCH_IRR_COMPOSITE:
        parts = strongly_irreducible_decomposition(p).parts
        return len(parts) - 1 + sum(
            count_lower_covers(_wrap(part.component)) for part in parts)
    decomposition = irreducible_decomposition(p)
    return decomposition.k_prime + sum(
        count_lower_covers(part.component)
        for part in decomposition.parts if part.kind != CONNECTING)


# ---------------------------------------------------------------------------
# Upper covers
# ---------------------------------------------------------------------------


def count_upper_covers(p: DyckPath) -> int:
    """Closed count of |upper_covers(p)|."""
    branch = classify_branch(p)
    s = p.semilength
    if branch == BRANCH_EMPTY:
        return 1
    if branch in (BRANCH_MINIMUM, BRANCH_ZIGZAG, BRANCH_PYRAMID):
        return 2 * s
    if branch == BRANCH_PEAK_RUN:
        return 4 * s - 5
    if branch == BRANCH_SYMMETRIC:
        return _up_irred(p) - 1
    if branch == BRANCH_STRONG:
        return _up_irred(p)
    if branch == BRANCH_IRR_COMPOSITE:
        parts = strongly_irreducible_decomposition(p).parts
        generic = sum(1 for part in parts
                      if part.kind != CONNECTING
                      and _is_generic_strong_part(part.component))
        return _up_irred(p) + generic - 1
    # Reducible: compose the ground factors left to right.
    factors = _ground_factors(p)
    total = sum(count_upper_covers(f) for f in factors)
    for left, right in zip(factors, factors[1:]):
        total += run_form(left).descents[-1] * run_form(right).ascents[0] - 1
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
