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
|Up_{n+1}(q)| off the sizes of that up-set
(:func:`~shipat.poset.up_set_sizes`).  The sweep pushes insertions only
from the frontier of words whose canonical parent avoids the pattern, and
the sizes keep nothing else: each level is counted from the one below by
its leading U runs, and a word's membership is a walk down its parents
through the frontiers.  The sweep is itself checked against the
containment search host by host.

All counting here is exact integer arithmetic.  Bounded-height counts are
strip counts.  A single strip count is a difference of two folded binomial
sums, S_r = sum of C(m + n, j) over j = r (mod k + 2), which is what the
reflection-principle sum telescopes to.  A narrow strip reads them off
(1 + x)^{m+n} modulo x^{k+2} - 1, squared up with no division; a wide one
sums C(m + n, j) - C(m + n, j - 1) over the one class j = m (mod k + 2),
each C(m + n, j - 1) an exact integer division with a zero remainder
asserted.  The rows of every family up to a size come off one
column-by-column walk of a strip, each column a running sum of the one
before: te/tf/tg rows read its diagonal, tv/tor rows add a band sum to it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import islice

from .core import (
    DyckPath,
    _check_cap,
    area_vector,
    catalan,
    height,
    mirror,
    peaks,
    return_points,
    valleys,
)
from .poset import BRUTE_MAX_SEMILENGTH, up_set_sizes

FAMILY_TAGS = ("te", "tg", "tor", "tv", "tf")

# The largest tableau size of a brute avoider row, and of the pattern of a
# brute family row: a tableau of size n is a path of semilength n + 1.
BRUTE_MAX_TABLEAU_SIZE = BRUTE_MAX_SEMILENGTH - 1

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


def pattern(tag: str, k: int) -> DyckPath:
    """The pattern of the given family and size, a path of semilength k + 1."""
    _check_family(tag, k)
    if tag == "te":
        return DyckPath("U" * (k + 1) + "D" * (k + 1))
    if tag == "tg":
        return DyckPath("U" * k + "DU" + "D" * k)
    if tag == "tor":
        return DyckPath("U" * k + "D" * k + "UD")
    if tag == "tv":
        return DyckPath("UD" + "U" * k + "D" * k)
    return DyckPath("UD" * (k + 1))


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
    """f(m, n, k) = S_{m mod P} - S_{(m - 1) mod P}, P = k + 2, for
    0 <= n - m <= k, as one run over the class j = m (mod P).

    Each C(N, j') with j' = m - 1 (mod P) is paired with C(N, j' + 1), so
    f is the sum of C(N, j) - C(N, j - 1) over 0 <= j <= N, less
    C(N, N) = 1 when N = m - 1 (mod P), that is when P divides n + 1.  ``math.comb`` runs once; the next
    C(N, j + P) comes from C(N, j) by P small factors and an exact
    division, and C(N, j - 1) = C(N, j) j / (N - j + 1), its zero remainder
    asserted.
    """
    period = k + 2
    size = m + n
    binom = math.comb(size, m % period)
    total = -1 if (n + 1) % period == 0 else 0
    for j in range(m % period, size + 1, period):
        before, rest = divmod(binom * j, size - j + 1)
        assert rest == 0
        total += binom - before
        if j + period <= size:
            # C(N, j + P) = C(N, j) (N - j)_P / (j + P)_P, falling factorials
            left = size - j
            binom = (binom * math.prod(range(left - period + 1, left + 1))
                     // math.prod(range(j + 1, j + period + 1)))
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
    * wide strips: the one class j = m (mod P), about N / P terms
      C(N, j) - C(N, j - 1) of one multi-limb multiply and divide each
      (``_strip_by_reflection``).

    The fold loses once P^3 outgrows N.  Timed at m = n = N / 2 on 2 vCPUs
    with Python 3.11 (best of 25 calls, two sweeps), the first k at which
    the one-class run won, and the largest k the rule folds:

        N                  50  100  200   400  1000   2000   4000
        one class wins      3    4    6  7-10    15  17-18  18-19
        rule folds k <=     3    5    7     9    13     18     23

    Near the switch the two are within a factor of about 1.5 either way;
    at N = 4000 the fold of k = 23 is up to 1.9 times slower.

    Ballot counts (k = n) always take the one-class run.  An endpoint
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


def _strip_columns(n: int, k: int) -> Iterator[list[int]]:
    """The oracle's dynamic program, column by column: column x, for
    x = 0..n, is a fresh list whose entry y counts the strip-confined paths
    to (x, y), for y = 0..n.  A path to (x, y) never passes height y, so
    entry y does not depend on n, and one walk to (n, n) holds every
    f(m, y, k) with m, y <= n."""
    column = [1 if y <= k else 0 for y in range(n + 1)]
    yield column
    for x in range(1, n + 1):
        new = [0] * (n + 1)
        for y in range(x, min(x + k, n) + 1):
            new[y] = column[y] + (new[y - 1] if y > x else 0)
        column = new
        yield column


def f_count_oracle(m: int, n: int, k: int) -> int:
    """Independent dynamic-programming count of the same strip-confined
    paths: entry n of column m of :func:`_strip_columns`, which keeps one
    column at a time."""
    if m < 0 or n < 0 or k < 0:
        raise ValueError("m, n, k must be >= 0")
    if not 0 <= n - m <= k:
        return 0
    return next(islice(_strip_columns(n, k), m, None))[n]


def zeta(p: DyckPath) -> DyckPath:
    """The zeta map: rebuild the path from its area vector, level by level.

    Reading the area vector once per level j, entries equal to j emit a U
    and entries equal to j - 1 emit a D; concatenating the level words gives
    a path of the same semilength.  So each entry a, in order, adds a U to
    level a and a D to level a + 1, and one pass fills every level.  The
    map is a bijection exchanging the height bound for the bounce
    return-point bound.
    """
    area = area_vector(p)
    levels = [[] for _ in range(max(area, default=-1) + 2)]
    for a in area:
        levels[a].append("U")
        levels[a + 1].append("D")
    return DyckPath("".join(map("".join, levels)))


# ---------------------------------------------------------------------------
# Avoider counting
# ---------------------------------------------------------------------------


def brute_avoider_counts(q: DyckPath, n_max: int) -> list[int]:
    """[|Av_0(q)|, ..., |Av_{n_max}(q)|] by one sweep of the up-set of q.

    The level of semilength n + 1 of the up-set holds exactly the paths of
    that semilength that contain q; the avoiders of size n are the rest of
    the C(n + 1) paths.  :func:`~shipat.poset.up_set_sizes` counts each
    level and builds only its frontier, the paths whose canonical parent
    avoids q, so a row costs about the frontiers, not the up-set: on 2
    vCPUs te_3 to size 12 takes 0.14-0.17 s, tv_2 34-65 ms and tg_2
    13-25 ms, each at 16-21 MB peak RSS.  Sizes above
    :data:`BRUTE_MAX_TABLEAU_SIZE` raise
    :class:`~shipat.core.ResourceLimit`.
    """
    if n_max < 0:
        raise ValueError("tableau size must be >= 0")
    _check_brute_size(n_max)
    sizes = up_set_sizes(q, n_max + 1)
    return [catalan(n + 1) - sizes[n + 1] for n in range(n_max + 1)]


def count_avoiders_brute(q: DyckPath, n: int) -> int:
    """|Av_n(q)|, the last row of :func:`brute_avoider_counts`."""
    return brute_avoider_counts(q, n)[-1]


def _check_brute_size(n: int) -> None:
    """Refuse a row, or the CLI's family size ``--k``, of tableau size
    above :data:`BRUTE_MAX_TABLEAU_SIZE`, before it is built."""
    _check_cap("brute avoider counting", "size", n, BRUTE_MAX_TABLEAU_SIZE)


def _check_closed_size(n: int) -> None:
    """Reject a negative size, then one above :data:`CLOSED_MAX_TABLEAU_SIZE`."""
    if n < 0:
        raise ValueError("tableau size must be >= 0")
    _check_cap("closed avoider counting", "size", n, CLOSED_MAX_TABLEAU_SIZE)


def _bounded_height_family(tag: str, k: int) -> bool:
    """Whether the avoiders of the family are the paths of height <= k."""
    return tag in ("te", "tf") or (tag == "tg" and k >= 3)


def _strip_walk(k: int, n_max: int) -> tuple[list[int], list[int]]:
    """One walk over the columns x = 0..n_max of the strip x <= y <= x + k - 1,
    giving for each column f(x, x, k - 1) and A_x[0] below, in two lists.

    At column x the walk holds

    * ``col[h]`` = f(x, x + h, k - 1).  A path enters (x, x + h) from
      (x - 1, x + h) or from (x, x + h - 1), so each column is a running
      sum of the one before; ``col[k]`` = 0 stands for the point
      (x - 1, x + k) outside the strip;
    * ``conv[j]`` = A_x[j], the sum over x' < x and h of
      C(x - 1 - x', h - j) f(x', x' + h, k - 1), so that the tv_k row n is
      A_n[0] + f(n, n, k - 1).  Pascal's rule gives
      A_{x+1}[j] = A_x[j] + A_x[j + 1] + f(x, x + j, k - 1), and no
      binomial is computed.

    Only index 0 is read, which needs column x only up to index n_max - x,
    so the walk narrows as it nears n_max: at most (n_max + 1) k steps of
    three integer additions.
    """
    col = [1] * k + [0]
    conv = [0] * (k + 1)
    diagonal, below = [], []
    for x in range(n_max + 1):
        diagonal.append(col[0])
        below.append(conv[0])
        run = 0
        for h in range(min(k, n_max - x)):
            conv[h] += conv[h + 1] + col[h]
            run += col[h + 1]
            col[h] = run
    return diagonal, below


def avoider_rows(tag: str, k: int, n_max: int) -> list[int]:
    """[|Av_0|, ..., |Av_{n_max}|] of the family pattern by the closed
    formulas, every row from one walk of a strip (:func:`_strip_walk`).

    No tableau of size below k contains the pattern, so rows n < k are the
    Catalan numbers C(n + 1) in every family.  te, tf and (for k >= 3) tg
    avoiders are the paths of height at most k, so row n is
    f(n + 1, n + 1, k), read off the walk of width k + 1.  tv and tor
    avoiders split by the number l of non-empty rows: a full-size strip
    count f(n, n, k - 1) for l = n, and for l < n a convolution of free
    prefixes with strip-confined suffix paths, the sum over h of
    C(n - l + h - 1, h) f(l - h, l, k - 1), the ballot number B(n, l) for
    l < k, where the strip does not bind; row n is the sum of both lists
    of the walk of width k.  At size two tg sits in the tv/tor Wilf class
    instead, with C(n+1, 2) + 1 avoiders, which is what the tv walk gives
    there.  The family, the size and :data:`CLOSED_MAX_TABLEAU_SIZE`
    (:class:`~shipat.core.ResourceLimit`) are checked before any work.
    """
    _check_family(tag, k)
    _check_closed_size(n_max)
    # C(n + 2) = C(n + 1) 2(2n + 3) / (n + 3)
    rows = [1]
    for n in range(min(k, n_max + 1) - 1):
        rows.append(rows[-1] * 2 * (2 * n + 3) // (n + 3))
    if n_max < k:
        return rows
    if _bounded_height_family(tag, k):
        return rows + _strip_walk(k + 1, n_max + 1)[0][k + 1:]
    diagonal, below = _strip_walk(k, n_max)
    return rows + [a + b for a, b in zip(diagonal[k:], below[k:])]


def count_avoiders_closed(tag: str, k: int, n: int) -> int:
    """|Av_n| of the family pattern by the closed formulas: one
    :func:`bounded_height_count` for te/tf/tg, which is faster for one value
    than a walk, or the last row of :func:`avoider_rows`."""
    _check_family(tag, k)
    _check_closed_size(n)
    if _bounded_height_family(tag, k):
        return bounded_height_count(n + 1, k)
    return avoider_rows(tag, k, n)[-1]


def sequence_csv(counts: list[int]) -> str:
    """CSV rendering ``n,count`` of an avoider sequence indexed from n = 0."""
    lines = ["n,count"]
    lines += [f"{n},{value}" for n, value in enumerate(counts)]
    return "\n".join(lines) + "\n"


def sequence_oeis(counts: list[int]) -> str:
    """One-line OEIS lookup format: space-separated terms."""
    return " ".join(str(value) for value in counts) + "\n"
