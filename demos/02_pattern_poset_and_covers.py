#!/usr/bin/env python3
"""The pattern order: bounce deletions, covers, and exact cover counts.

Deleting the pair (U_i, D_i) or (U_i, D_{i-1}) from a path gives a path one
size down; these deletions are the cover relations of a poset on all Dyck
paths.  Cover sets can be enumerated by brute force, and their sizes have
closed formulas which this script compares against the enumeration.
"""

from shipat import (
    Deletion,
    audit_cover_counts,
    bounce_delete,
    classify_branch,
    compose_inside,
    contains_pattern,
    count_lower_covers,
    count_upper_covers,
    export_dot,
    hasse,
    lower_covers,
    parse_path,
    upper_covers,
)

p = parse_path("UUDUUDUDDUDD")
print("two deletions of", p.word)
print("  delta(3,2) ->", bounce_delete(p, Deletion(3, 2)).word)
print("  delta(3,3) ->", bounce_delete(p, Deletion(3, 3)).word)

q = parse_path("UUDUDD")
print("\nlower covers of", q.word, "=", sorted(c.word for c in lower_covers(q)))
print("upper covers of UD =", sorted(c.word for c in upper_covers(parse_path("UD"))))

# Containment = reachability by repeated deletions.  The word UUDD occurs
# inside UDUDUD as a subsequence, but not as a pattern in this order.
print("\nUDUDUD contains UUDD as a pattern?",
      contains_pattern(parse_path("UDUDUD"), parse_path("UUDD")))
print("UUDUDD contains UD?",
      contains_pattern(parse_path("UUDUDD"), parse_path("UD")))

# Closed cover counts, by dispatch branch.
for word in ["UDUDUD", "UUUDDD", "UUDUDD", "UUUDUDDD", "UUUUDDUDDD", "UUDDUD"]:
    path = parse_path(word)
    print(f"\n{word:12s} branch={classify_branch(path)}")
    print("  lower: closed", count_lower_covers(path),
          "brute", len(lower_covers(path)))
    print("  upper: closed", count_upper_covers(path),
          "brute", len(upper_covers(path)))

# The worked composition: two strongly irreducible paths glued at ground
# level and at height one.
pi1 = parse_path("UUUUDDUDDD")
pi2 = parse_path("UUUUDUDDDD")
plain = pi1.concat(pi2)
raised = compose_inside(pi1, pi2)
print("\n|UC| of the parts:", count_upper_covers(pi1), count_upper_covers(pi2))
print("|UC| of", plain.word, "=", count_upper_covers(plain))
print("|UC| of", raised.word, "=", count_upper_covers(raised))

# The audit replays every closed formula against brute force.
report = audit_cover_counts(6)
print()
print("\n".join(report.summary_lines()))

# The first levels of the poset, as DOT.
print()
print(export_dot(hasse(3)))
