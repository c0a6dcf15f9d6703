#!/usr/bin/env python3
"""Pattern avoidance: characterizations, counting formulas, and the zeta map.

Five families of patterns generalize the five size-2 tableaux.  Avoidance of
each family is a structural property (bounded height, bounded bounce
returns, no high valleys, or a stripped-tableau condition), so avoiders can
be counted without any search; the zeta map explains why two of the
families are equinumerous.
"""

from shipat import (
    avoider_rows,
    avoids_characterized,
    ballot_count,
    bounce_path,
    brute_avoider_counts,
    count_avoiders_brute,
    count_avoiders_closed,
    enumerate_paths,
    f_count,
    f_count_oracle,
    flatten_high_peaks,
    height,
    parse_path,
    pattern,
    return_points,
    zeta,
)
from shipat.avoidance import sequence_oeis

print("the five size-2 patterns:")
for tag in ("te", "tg", "tor", "tv", "tf"):
    print(f"  {tag:3s} = {pattern(tag, 2).word}")

# Structural avoidance: no poset search involved.
p = parse_path("UUDDUDUD")
print("\npath", p.word)
print("  avoids te_2 (height <= 2)?        ", avoids_characterized(p, "te", 2))
print("  avoids tf_2 (<= 2 bounce returns)?", avoids_characterized(p, "tf", 2))
print("  avoids tv_2?                      ", avoids_characterized(p, "tv", 2))

# Counting: closed formulas against brute force.
print("\navoiders of te_2 (2^n) and tg_2 (n(n+1)/2 + 1):")
for n in range(2, 7):
    print(f"  n={n}: te {count_avoiders_closed('te', 2, n):3d}"
          f" (brute {count_avoiders_brute(pattern('te', 2), n):3d})"
          f"   tg {count_avoiders_closed('tg', 2, n):3d}"
          f" (brute {count_avoiders_brute(pattern('tg', 2), n):3d})")

# Wilf classes at size 2: {te, tf} and {tg, tor, tv}.  Two patterns are
# Wilf-equivalent when their avoider rows are equal for every size n.
te_row, tf_row = (brute_avoider_counts(pattern(tag, 2), 6)
                  for tag in ("te", "tf"))
print("\nte vs tf:", "equal" if te_row == tf_row else "differ")
te_row, tg_row = (tuple(brute_avoider_counts(pattern(tag, 2), 4))
                  for tag in ("te", "tg"))
divergence = next(n for n, (a, b) in enumerate(zip(te_row, tg_row)) if a != b)
print("te vs tg:", f"first divergence at n={divergence}", te_row, tg_row)

# The published avoider sequences for tv_5 and tv_6.
print("\ntv_5 avoiders:", sequence_oeis(avoider_rows("tv", 5, 13)).strip())
print("tv_6 avoiders:", sequence_oeis(avoider_rows("tv", 6, 13)).strip())

# Ingredients of the tv formula: ballot numbers and strip-confined paths.
print("\nballot numbers row n=5:", [ballot_count(5, l) for l in range(6)])
print("strip counts F(m, 6, 2):", [f_count(m, 6, 2) for m in range(4, 7)],
      "(DP oracle agrees:",
      all(f_count(m, 6, 2) == f_count_oracle(m, 6, 2) for m in range(4, 7)), ")")

# The zeta map sends height bounds to bounce-return bounds.
print("\nzeta on all of D_3:")
for q in enumerate_paths(3):
    z = zeta(q)
    print(f"  {q.word}  ->  {z.word}   height {height(q)} -> "
          f"{len(return_points(z))} bounce returns")

# Flattening the peaks above the cut line pairs tg_k with te_k avoiders.
r = parse_path("UUDDUUUDDDUD")
print("\nflattening", r.word, "above level 2 gives",
      flatten_high_peaks(r, 2).word)
print("bounce path of", r.word, "is", bounce_path(r).word)
