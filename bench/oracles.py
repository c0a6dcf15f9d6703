"""Independent reference values the benchmark checks ``shipat`` outputs against.

None of these call into ``shipat``; they are written from the definitions.
"""

from __future__ import annotations

import math

# Published avoider counts |Av_n(tv_5)| and |Av_n(tv_6)| for n = 0..13.
TV5_TERMS = (1, 2, 5, 14, 42, 131, 413, 1294, 4007, 12272,
             37277, 112622, 339152, 1019457)
TV6_TERMS = (1, 2, 5, 14, 42, 132, 428, 1411, 4675, 15463,
             50928, 166999, 545682, 1778631)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def completions(prefix: str, s: int) -> int:
    """Dyck words of semilength ``s`` that start with ``prefix``.

    The rest is a path of r = 2s - |prefix| steps from height h down to 0
    that never goes below 0; by reflection there are
    C(r, (r - h) / 2) - C(r, (r - h) / 2 - 1) of them.
    """
    h = prefix.count("U") - prefix.count("D")
    r = 2 * s - len(prefix)
    if h < 0 or r < h or (r - h) % 2:
        return 0
    downs = (r + h) // 2
    return math.comb(r, downs) - math.comb(r, downs + 1)


def bounded_height(s: int, k: int) -> int:
    """Dyck words of semilength ``s`` whose height never exceeds ``k``."""
    ways = [1] + [0] * k  # ways[h]: prefixes ending at height h
    for _ in range(2 * s):
        ways = [(ways[h - 1] if h else 0) + (ways[h + 1] if h < k else 0)
                for h in range(k + 1)]
    return ways[0]


def avoider_count(tag: str, k: int, n: int) -> int:
    """|Av_n| of the family pattern of size k, tableaux of size n.

    te_k and tf_k avoiders (and tg_k for k >= 3) are the paths of height
    <= k; tv_k, tor_k and tg_2 avoiders are counted by the DP below.
    """
    if tag in ("te", "tf") or (tag == "tg" and k >= 3):
        return bounded_height(n + 1, k)
    return tv_avoider_count(k, n)


def lower_cover_words(word: str) -> set[str]:
    """Every result of one bounce deletion: drop U_i and D_i or D_(i-1)."""
    ups = [pos for pos, c in enumerate(word) if c == "U"]
    downs = [pos for pos, c in enumerate(word) if c == "D"]
    if len(ups) < 2:
        return set()
    out = set()
    for i, u in enumerate(ups, start=1):
        for k in (i - 1, i) if i >= 2 else (i,):
            d = downs[k - 1]
            lo, hi = min(u, d), max(u, d)
            out.add(word[:lo] + word[lo + 1:hi] + word[hi + 1:])
    return out


def upper_cover_words(word: str) -> set[str]:
    """Every Dyck word q with ``word`` among the bounce deletions of q.

    The inserted U becomes U_i of q and the inserted D becomes D_k with
    k in {i - 1, i}, so the D goes into the gap of ``word`` that holds
    exactly k - 1 D steps before it.  A D placed before the U lowers the
    heights in between by one, which is legal iff they are all >= 1.
    """
    n = len(word)
    heights = [0]
    for c in word:
        heights.append(heights[-1] + (1 if c == "U" else -1))
    downs = [pos for pos, c in enumerate(word) if c == "D"]
    out = set()
    i = 1
    for u in range(n + 1):  # the new U goes before word[u]
        for k in (i - 1, i):
            if k < 1:
                continue
            lo = downs[k - 2] + 1 if k >= 2 else 0
            hi = downs[k - 1] if k - 1 < len(downs) else n
            for d in range(lo, hi + 1):  # the new D goes before word[d]
                if d >= u:
                    out.add(word[:u] + "U" + word[u:d] + "D" + word[d:])
                if d <= u and min(heights[d:u + 1]) >= 1:
                    out.add(word[:d] + "D" + word[d:u] + "U" + word[u:])
        if u < n and word[u] == "U":
            i += 1
    return out


def tv_avoider_count(k: int, n: int) -> int:
    """|Av_n(tv_k)| from the stripped-tableau characterization, by a DP.

    A Shi tableau of size n is an area vector a_1..a_{n+1} with a_1 = 0 and
    0 <= a_{i+1} <= a_i + 1.  Its empty rows (a_i = i - 1) form a prefix;
    call the rows after it j = 1, 2, ...  The tableau avoids tv_k iff every
    such row has min(a, j - 1) <= k - 2, so from row j = k on a <= k - 2.
    The DP keeps, per row, the number of vectors by (min(j, k), a).  tor_k
    has the same count (mirror image); at k = 2 so has tg_2.
    """
    rows = n + 1
    # counts[j][a] for j = 1..k (index k means "k or later"); row 1 is empty.
    counts = [[] for _ in range(k + 1)]
    for i in range(1, rows):  # move from row i to row i + 1
        new = [[0] * (i + 1) for _ in range(k + 1)]
        # leave the empty prefix: row i + 1 becomes the first nonempty row
        for a in range(0, i):
            new[1][a] += 1
        for j in range(1, k + 1):
            old = counts[j]
            if not old:
                continue
            nj = min(j + 1, k)
            top = i if nj < k else min(i, k - 2)
            # new[nj][b] gains sum(old[a] for a >= b - 1)
            tail = 0
            suffix = [0] * (len(old) + 1)
            for a in range(len(old) - 1, -1, -1):
                tail += old[a]
                suffix[a] = tail
            for b in range(0, min(top, len(old)) + 1):
                new[nj][b] += suffix[max(b - 1, 0)]
        counts = new
    return 1 + sum(sum(row) for row in counts)
