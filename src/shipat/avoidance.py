"""Pattern families, avoidance characterizations, and avoider counting.

Five pattern families generalize the five size-2 Shi tableaux:

    te_k = U^{k+1} D^{k+1}      tg_k = U^k D U D^k     tor_k = U^k D^k U D
    tv_k = U D U^k D^k          tf_k = (UD)^{k+1}

Avoidance of each family has a structural characterization that needs no
poset search (height bound, bounce return bound, valley bound, or a
column-stripped tableau condition), and the number of avoiders of each size
has a closed form built from bounded-height Catalan numbers, ballot numbers
and strip-confined lattice path counts.  Both the characterizations and the
closed counts are cross-checked against brute force in the test suite:
the characterizations against the downward containment search and the
up-set of each pattern (:func:`~shipat.poset.up_set`), the closed counts
against :func:`count_avoiders_brute`, which reads |Av_n(q)| = C(n+1) -
|Up_{n+1}(q)| off that up-set; the up-set is itself checked against the
containment search host by host.

All counting here is exact integer arithmetic.  Bounded-height counts are
strip counts.  A single strip count is a difference of two folded binomial
sums, S_r = sum of C(m + n, j) over j = r (mod k + 2), which is what the
reflection-principle sum telescopes to.  A narrow strip reads them off
(1 + x)^{m+n} modulo x^{k+2} - 1, squared up with no division; a wide one
sums the reflection terms, exact integer divisions with a zero remainder
asserted.  The tv/tor rows need a strip count for every endpoint of a
band, and all rows up to a size read them off one column-by-column walk of
the strip, each column a running sum of the one before.
"""

from __future__ import annotations

import math
from typing import Iterator

from .core import (
    DyckPath,
    _Frozen,
    area_vector,
    catalan,
    height,
    mirror,
    peaks,
    return_points,
    valleys,
)
from .poset import ResourceLimit, up_set

FAMILY_TAGS = ("te", "tg", "tor", "tv", "tf")

BRUTE_MAX_TABLEAU_SIZE = 12

# The largest tableau size of a closed avoider count.  A count of size n is
# at most C(n + 1), so every row stays at most C(2001), about 1,200 digits,
# far from the 4,300 digits at which Python stops printing an int.  On 2
# vCPUs all closed rows to n = 2,000 take at most a second or two at any k.
CLOSED_MAX_TABLEAU_SIZE = 2_000


class UnsupportedFamily(ValueError):
    """A family tag outside te/tg/tor/tv/tf."""


def _check_family(tag: str, k: int) -> None:
    """Reject a tag outside :data:`FAMILY_TAGS`, then a size k below 2."""
    if tag not in FAMILY_TAGS:
        raise UnsupportedFamily(f"unknown family {tag!r}")
    if k < 2:
        raise ValueError("family size k must be >= 2")


class PatternFamily(_Frozen):
    """One of the five pattern families, at size k >= 2."""

    __slots__ = ("tag", "k")
    tag: str
    k: int

    def __init__(self, tag: str, k: int) -> None:
        _check_family(tag, k)
        self._fill(tag, k)

    def path(self) -> DyckPath:
        return pattern(self.tag, self.k)


def pattern(tag: str, k: int) -> DyckPath:
    """The pattern of the given family and size, a path of semilength k + 1."""
    _check_family(tag, k)
    words = {
        "te": "U" * (k + 1) + "D" * (k + 1),
        "tg": "U" * k + "DU" + "D" * k,
        "tor": "U" * k + "D" * k + "UD",
        "tv": "UD" + "U" * k + "D" * k,
        "tf": "UD" * (k + 1),
    }
    return DyckPath(words[tag])


# ---------------------------------------------------------------------------
# Structural avoidance predicates
# ---------------------------------------------------------------------------


def _nonempty_rows(area: tuple[int, ...]) -> int:
    """Rows of the tableau with at least one full box."""
    return sum(1 for i, a in enumerate(area, start=1) if a < i - 1)


def _stripped_height(p: DyckPath) -> int:
    """Height of the tableau left after deleting the all-empty leading columns.

    With l the number of non-empty rows, the first (semilength - l) columns
    are removed; row c + j keeps min(a_{c+j}, j - 1) empty boxes.
    """
    area = area_vector(p)
    ell = _nonempty_rows(area)
    c = len(area) - ell
    best = 0
    for j in range(1, ell + 1):
        best = max(best, min(area[c + j - 1], j - 1))
    return best + 1 if ell else 0


def avoids_characterized(p: DyckPath, tag: str, k: int) -> bool:
    """Family avoidance decided structurally, without any poset search."""
    _check_family(tag, k)
    if tag == "te":
        return height(p) <= k
    if tag == "tf":
        return len(return_points(p)) <= k
    if tag == "tg":
        if k == 2:
            return sum(1 for _, h in peaks(p) if h >= 2) <= 1
        return all(h < k - 1 for _, h in valleys(p))
    if tag == "tv":
        return _stripped_height(p) <= k - 1
    return _stripped_height(mirror(p)) <= k - 1  # tor mirrors tv


def avoids_tv2_shape(p: DyckPath) -> bool:
    """Explicit word shapes of the size-2 tv avoiders.

    A tableau avoids tv iff it is U^{n+1}D^{n+1} or U^r D w D (UD)^{n-r}
    with 1 <= r <= n and w a shuffle of r - 1 D steps with a single U.
    """
    s = p.semilength
    word = p.word
    if word == "U" * s + "D" * s:
        return True
    # U^s D^s is out, so the first run U^r has 1 <= r <= s - 1; the shape
    # is U^r D w D (UD)^{s-1-r} with |w| = r and exactly one U in w
    r = word.find("D")
    shuffle = word[r + 1:2 * r + 1]
    return (shuffle.count("U") == 1 and word[2 * r + 1] == "D"
            and word[2 * r + 2:] == "UD" * (s - 1 - r))


def avoids_tor2_shape(p: DyckPath) -> bool:
    """Mirror image of :func:`avoids_tv2_shape`."""
    return avoids_tv2_shape(mirror(p))


def flatten_high_peaks(p: DyckPath, level: int) -> DyckPath:
    """Replace every excursion above ``level`` (a peak U^m D^m) by (UD)^m.

    Defined for paths with no valley at height >= level, where the steps
    above the cut line form disconnected pyramids; this is the bijection
    sending tg_k avoiders onto te_k avoiders for level = k - 1.
    """
    out = []
    h = 0
    for char in p.word:
        nxt = h + (1 if char == "U" else -1)
        if min(h, nxt) >= level:
            # a step of the pyramid above the cut: each U becomes a UD
            # peak and the matching D disappears
            if char == "U":
                out.append("UD")
        else:
            out.append(char)
        h = nxt
    return DyckPath("".join(out))


# ---------------------------------------------------------------------------
# Counting helpers
# ---------------------------------------------------------------------------


def bounded_height_count(n: int, k: int) -> int:
    """Dyck paths of semilength n with height at most k.

    Reading U as a step up in y and D as a step right in x, height <= k is
    the strip 0 <= y - x <= k, so this is ``f_count(n, n, k)``.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    return f_count(n, n, k)


def ballot_count(n: int, ell: int) -> int:
    """Ballot paths with n U steps and ell D steps never going below the
    diagonal: the strip count to (ell, n) of height n, ``f_count(ell, n, n)``."""
    if not 0 <= ell <= n:
        raise ValueError("need 0 <= ell <= n")
    return f_count(ell, n, n)


def _binomial_run(size: int, j: int, step: int, count: int) -> Iterator[int]:
    """Yield C(size, j + t * step) for t = 0 .. count - 1.

    ``math.comb`` runs once; each later value comes from the one before by
    ``step`` small factors and an exact division.
    """
    if count <= 0:
        return
    binom = math.comb(size, j)
    yield binom
    for j in range(j, j + (count - 1) * step, step):
        # C(size, j + step) = C(size, j) (size - j)_step / (j + step)_step
        binom = (binom * math.prod(range(size - j - step + 1, size - j + 1))
                 // math.prod(range(j + 1, j + step + 1)))
        yield binom


def _strip_by_folding(m: int, n: int, k: int) -> int:
    """f(m, n, k) = S_{m mod P} - S_{(m - 1) mod P}, P = k + 2, for
    0 <= n - m <= k.

    (S_0, ..., S_{P-1}) are the coefficients of (1 + x)^{m+n} modulo
    x^P - 1.  The leading bits of m + n form a number below 2P, whose
    ``math.comb`` row, folded modulo P, is the start; the other bits square
    it up, most significant first.  A square is one cyclic convolution of
    P (P + 1) / 2 products, and a set bit multiplies by 1 + x,
    S'_r = S_r + S_{r-1}.  There is no division.
    """
    period = k + 2
    size = m + n
    shift = max(size.bit_length() - period.bit_length(), 0)
    top = size >> shift
    folded = [0] * period
    for j in range(top + 1):
        folded[j % period] += math.comb(top, j)
    for t in reversed(range(shift)):
        square = [0] * period
        for i, a in enumerate(folded):
            square[2 * i % period] += a * a
            twice = 2 * a
            for j in range(i + 1, period):
                square[(i + j) % period] += twice * folded[j]
        if size >> t & 1:
            square = [square[r] + square[r - 1] for r in range(period)]
        folded = square
    return folded[m % period] - folded[(m - 1) % period]


def _strip_by_reflection(m: int, n: int, k: int) -> int:
    """f(m, n, k) as the reflection sum itself, for 0 <= n - m <= k.

    Each term is numerator * C(m + n, j) // denominator in exact integer
    arithmetic, with its zero remainder asserted.  The binomials of a sum
    come from one ``math.comb`` stepped by k + 2 (``_binomial_run``); the
    first sum reads C(m + n, m - i(k + 2)) as C(m + n, n + i(k + 2)).
    """
    period = k + 2
    total = 0
    down = _binomial_run(m + n, n, period, m // period + 1)
    for i, binom in enumerate(down):
        term, rest = divmod((n - m + 2 * i * period + 1) * binom,
                            n + i * period + 1)
        assert rest == 0
        total += term
    up = _binomial_run(m + n, m + period - 1, period, (n + 1) // period)
    for i, binom in enumerate(up, start=1):
        term, rest = divmod((n - m - 2 * i * period + 1) * binom, m + i * period)
        assert rest == 0
        total += term
    return total


def f_count(m: int, n: int, k: int) -> int:
    """Strip-confined path count by the iterated reflection principle.

    Counts monotone lattice paths from (0, 0) to (m, n) all of whose points
    (x, y) satisfy x <= y <= x + k.  With N = m + n and P = k + 2, the
    reflection principle gives two sums of ballot-type terms over the
    reflected indices j = m - iP >= 0 and j = m + iP - 1 <= N, and each
    term is a difference of two binomials (by C(N, j + 1) =
    C(N, j) (N - j) / (j + 1))::

        (n - m + 2iP + 1) C(N, n + iP) / (n + iP + 1)
            = C(N, m - iP) - C(N, m - iP - 1)          (i >= 0)
        (n - m - 2iP + 1) C(N, m + iP - 1) / (m + iP)
            = C(N, m + iP) - C(N, m + iP - 1)          (i >= 1)

    Together the differences run over every i in Z, so with S_r the sum of
    C(N, j) over j = r (mod P),

        f(m, n, k) = S_{m mod P} - S_{(m - 1) mod P}.

    Two evaluations give the same integer; the inputs alone choose:

    * narrow strips, (k + 2)^3 <= 4 (m + n): the folded binomials
      S_0..S_{P-1}, the coefficients of (1 + x)^N modulo x^P - 1, by
      squaring in about P^2 log N products and no division
      (``_strip_by_folding``);
    * wide strips: the reflection sum, about 2N / P terms of one multi-limb
      multiply and divide each (``_strip_by_reflection``).

    The fold loses once P^3 outgrows N.  Timed at m = n = N / 2 on 2 vCPUs
    with Python 3.11 (best of 25 calls, two sweeps), the first k at which
    the reflection sum won, and the largest k the rule folds:

        N                  50  100  200  400   1000   2000  4000
        reflection wins     3    5    7   11  15-17  19-23    21
        rule folds k <=     3    5    7    9     13     18    23

    Near the switch the two are within a factor of about 1.5 either way.

    Ballot counts (k = n) always take the reflection sum.  An endpoint
    outside the strip admits no path at all, which is outside the
    reflection identity's domain, so that case returns 0 directly.
    """
    if m < 0 or n < 0 or k < 0:
        raise ValueError("m, n, k must be >= 0")
    if not 0 <= n - m <= k:
        return 0
    if (k + 2) ** 3 <= 4 * (m + n):
        return _strip_by_folding(m, n, k)
    return _strip_by_reflection(m, n, k)


def f_count_oracle(m: int, n: int, k: int) -> int:
    """Independent dynamic-programming count of the same strip-confined paths."""
    if m < 0 or n < 0 or k < 0:
        raise ValueError("m, n, k must be >= 0")
    if not 0 <= n - m <= k:
        return 0
    # dp over columns: dp[y] = paths reaching (x, y)
    dp = [0] * (n + 1)
    for y in range(0, min(k, n) + 1):
        dp[y] = 1
    for x in range(1, m + 1):
        new = [0] * (n + 1)
        for y in range(x, min(x + k, n) + 1):
            new[y] = dp[y] + (new[y - 1] if y > x else 0)
        dp = new
    return dp[n]


def zeta(p: DyckPath) -> DyckPath:
    """The zeta map: rebuild the path from its area vector, level by level.

    Reading the area vector once per level j, entries equal to j emit a U
    and entries equal to j - 1 emit a D; concatenating the level words gives
    a path of the same semilength.  No level above max(area) + 1 emits a
    step, so the cost is O(s * height).  The map is a bijection exchanging
    the height bound for the bounce return-point bound.
    """
    area = area_vector(p)
    chunks = []
    for j in range(max(area, default=-1) + 2):
        for a in area:
            if a == j:
                chunks.append("U")
            elif a == j - 1:
                chunks.append("D")
    return DyckPath("".join(chunks))


# ---------------------------------------------------------------------------
# Avoider counting
# ---------------------------------------------------------------------------


def brute_avoider_counts(q: DyckPath, n_max: int) -> list[int]:
    """[|Av_0(q)|, ..., |Av_{n_max}(q)|] by one sweep of the up-set of q.

    The level of semilength n + 1 of :func:`~shipat.poset.up_set` holds
    exactly the paths of that semilength that contain q; the avoiders of
    size n are the rest of the C(n + 1) paths.  Sizes above
    :data:`BRUTE_MAX_TABLEAU_SIZE` raise :class:`~shipat.poset.ResourceLimit`.
    """
    if n_max < 0:
        raise ValueError("tableau size must be >= 0")
    if n_max > BRUTE_MAX_TABLEAU_SIZE:
        raise ResourceLimit("brute avoider counting capped at size "
                            f"{BRUTE_MAX_TABLEAU_SIZE}")
    levels = up_set(q, n_max + 1)
    return [catalan(n + 1) - len(levels[n + 1]) for n in range(n_max + 1)]


def count_avoiders_brute(q: DyckPath, n: int) -> int:
    """|Av_n(q)|, the last row of :func:`brute_avoider_counts`."""
    return brute_avoider_counts(q, n)[-1]


def _check_closed_size(n: int) -> None:
    """Reject a negative size, then one above :data:`CLOSED_MAX_TABLEAU_SIZE`."""
    if n < 0:
        raise ValueError("tableau size must be >= 0")
    if n > CLOSED_MAX_TABLEAU_SIZE:
        raise ResourceLimit("closed avoider counting capped at size "
                            f"{CLOSED_MAX_TABLEAU_SIZE}")


def _bounded_height_family(tag: str, k: int) -> bool:
    """Whether the avoiders of the family are the paths of height <= k."""
    return tag in ("te", "tf") or (tag == "tg" and k >= 3)


def _strip_rows(k: int, n_max: int) -> list[int]:
    """The tv_k avoider counts of sizes 0..n_max, from one walk over the
    columns x = 0..n_max of the strip x <= y <= x + k - 1.

    Row n is the sum over x < n and h < k of C(n - 1 - x, h) f(x, x + h,
    k - 1), plus f(n, n, k - 1).  At column x the walk holds

    * ``col[h]`` = f(x, x + h, k - 1).  A path enters (x, x + h) from
      (x - 1, x + h) or from (x, x + h - 1), so each column is a running
      sum of the one before; ``col[k]`` = 0 stands for the point
      (x - 1, x + k) outside the strip;
    * ``conv[j]`` = A_x[j], the sum over x' < x and h of
      C(x - 1 - x', h - j) f(x', x' + h, k - 1), so that row n is
      A_n[0] + col[0].  Pascal's rule gives
      A_{x+1}[j] = A_x[j] + A_x[j + 1] + f(x, x + j, k - 1), and no
      binomial is computed.

    Row n reads ``col`` and ``conv`` only at index 0, which needs column x
    only up to index n_max - x, so the walk narrows as it nears n_max:
    at most (n_max + 1) k steps of three integer additions.
    """
    if n_max < k:
        # no tableau of size below k contains the pattern: row n is C(n + 1),
        # stepped as C(n + 2) = C(n + 1) 2(2n + 3) / (n + 3)
        rows = [1]
        for n in range(n_max):
            rows.append(rows[-1] * 2 * (2 * n + 3) // (n + 3))
        return rows
    col = [1] * k + [0]
    conv = [0] * (k + 1)
    rows = []
    for x in range(n_max + 1):
        rows.append(conv[0] + col[0])
        run = 0
        for h in range(min(k, n_max - x)):
            conv[h] += conv[h + 1] + col[h]
            run += col[h + 1]
            col[h] = run
    return rows


def avoider_rows(tag: str, k: int, n_max: int) -> list[int]:
    """[|Av_0|, ..., |Av_{n_max}|] of the family pattern by the closed
    formulas.

    te, tf and (for k >= 3) tg avoiders are bounded-height paths, and each
    of their rows is one :func:`bounded_height_count`.  tv and tor avoiders
    split by the number l of non-empty rows: a full-size strip count
    f(n, n, k - 1) for l = n, and for l < n a convolution of free prefixes
    with strip-confined suffix paths, the sum over h of
    C(n - l + h - 1, h) f(l - h, l, k - 1).  For l < k the strip does not
    bind, since the stripped tableau has l rows, and the term is the ballot
    number B(n, l): every tableau with l non-empty rows avoids.  All rows
    come off one walk of the strip, O(n_max * k) integer additions in all.
    At size two tg sits in the tv/tor Wilf class instead, with
    C(n+1, 2) + 1 avoiders, which is what the tv walk gives there.  The
    family, the size and :data:`CLOSED_MAX_TABLEAU_SIZE`
    (:class:`~shipat.poset.ResourceLimit`) are checked before any work.
    """
    _check_family(tag, k)
    _check_closed_size(n_max)
    if _bounded_height_family(tag, k):
        return [bounded_height_count(n + 1, k) for n in range(n_max + 1)]
    return _strip_rows(k, n_max)


def count_avoiders_closed(tag: str, k: int, n: int) -> int:
    """|Av_n| of the family pattern by the closed formulas: one
    :func:`bounded_height_count`, or the last row of the strip walk of
    :func:`avoider_rows`."""
    _check_family(tag, k)
    _check_closed_size(n)
    if _bounded_height_family(tag, k):
        return bounded_height_count(n + 1, k)
    return _strip_rows(k, n)[-1]


class WilfReport(_Frozen):
    """Brute avoider counts of two families side by side."""

    __slots__ = ("tag_a", "tag_b", "k", "counts_a", "counts_b")
    tag_a: str
    tag_b: str
    k: int
    counts_a: tuple[int, ...]
    counts_b: tuple[int, ...]

    def __init__(self, tag_a: str, tag_b: str, k: int,
                 counts_a: tuple[int, ...], counts_b: tuple[int, ...]) -> None:
        self._fill(tag_a, tag_b, k, tuple(counts_a), tuple(counts_b))

    @property
    def equal(self) -> bool:
        return self.counts_a == self.counts_b

    @property
    def first_divergence(self) -> int | None:
        for n, (a, b) in enumerate(zip(self.counts_a, self.counts_b)):
            if a != b:
                return n
        return None


def wilf_check(tag_a: str, tag_b: str, k: int, n_max: int) -> WilfReport:
    """Tabulate brute counts of two families for n = 0..n_max."""
    qa, qb = pattern(tag_a, k), pattern(tag_b, k)
    counts_a = tuple(brute_avoider_counts(qa, n_max))
    counts_b = tuple(brute_avoider_counts(qb, n_max))
    return WilfReport(tag_a, tag_b, k, counts_a, counts_b)


def sequence_csv(counts: list[int]) -> str:
    """CSV rendering ``n,count`` of an avoider sequence indexed from n = 0."""
    lines = ["n,count"]
    lines += [f"{n},{value}" for n, value in enumerate(counts)]
    return "\n".join(lines) + "\n"


def sequence_oeis(counts: list[int]) -> str:
    """One-line OEIS lookup format: space-separated terms."""
    return " ".join(str(value) for value in counts) + "\n"
