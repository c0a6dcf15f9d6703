"""Seeded input generators: Dyck words, branch-shaped words, deletion pairs.

Everything here works on plain step words over {U, D} and never calls
``shipat``, so the inputs a workload hands to it do not depend on the code
being measured.  The same ``random.Random`` state gives
the same words.
"""

from __future__ import annotations

import random

import oracles

# The nine dispatch branches of ``shipat.covers.classify_branch``, in its
# precedence order.  ``shaped_word`` builds a word for each of them.
BRANCHES = (
    "empty", "minimum", "zigzag", "pyramid", "peak-run", "symmetric",
    "strongly-irreducible", "irreducible-composite", "reducible",
)

FAMILIES = ("te", "tg", "tor", "tv", "tf")


def family_word(tag: str, k: int) -> str:
    """The pattern of a family at size k, a word of semilength k + 1."""
    return {
        "te": "U" * (k + 1) + "D" * (k + 1),
        "tg": "U" * k + "DU" + "D" * k,
        "tor": "U" * k + "D" * k + "UD",
        "tv": "UD" + "U" * k + "D" * k,
        "tf": "UD" * (k + 1),
    }[tag]


def dyck_prefixes(s: int, length: int) -> list[str]:
    """Every prefix of the given length of a Dyck word of semilength ``s``."""
    out = [""]
    for _ in range(length):
        out = [p + c for p in out for c in "UD"
               if p.count("U") + (c == "U") <= s
               and p.count("D") + (c == "D") <= p.count("U") + (c == "U")]
    return out


def uniform_dyck_word(rng: random.Random, s: int) -> str:
    """A uniformly random Dyck word of semilength ``s`` (cycle lemma).

    Shuffle s U steps and s + 1 D steps; exactly one rotation keeps every
    proper prefix at height >= 0, namely the one starting right after the
    first minimum of the prefix heights.  Dropping its final D gives each
    Dyck word with probability 1 / C(s).
    """
    steps = ["U"] * s + ["D"] * (s + 1)
    rng.shuffle(steps)
    height = lowest = 0
    cut = 0
    for pos, step in enumerate(steps, start=1):
        height += 1 if step == "U" else -1
        if height < lowest:
            lowest, cut = height, pos
    rotated = steps[cut:] + steps[:cut]
    return "".join(rotated[:-1])


def _irreducible(inner: str) -> str:
    return "U" + inner + "D"


def _is_special(word: str) -> bool:
    """Whether an irreducible word is one of the named special families."""
    s = len(word) // 2
    if word in ("U" * s + "D" * s, "U" + "UD" * (s - 1) + "D"):
        return True
    arm = len(word) - len(word.lstrip("U"))
    body = word[arm:len(word) - arm]
    return (arm >= 3 and word.endswith("D" * arm)
            and not word.endswith("D" * (arm + 1))
            and len(body) >= 2 and body == "DU" * (len(body) // 2))


def _strongly_irreducible(rng: random.Random, s: int) -> str:
    """U U w D D with w uniform; redrawn while it hits a special family."""
    while True:
        word = _irreducible(_irreducible(uniform_dyck_word(rng, s - 2)))
        if not _is_special(word):
            return word


def shaped_word(rng: random.Random, branch: str, s: int) -> str:
    """A word of the given dispatch branch; semilength ``s`` where it is free.

    ``empty`` and ``minimum`` have one word each.  The composite branches
    glue uniform random pieces, so they sample the branch broadly rather
    than a single extremal word.  Needs s >= 5: below that every strongly
    irreducible word belongs to a special family.
    """
    if s < 5:
        raise ValueError("shaped words need semilength >= 5")
    if branch == "empty":
        return ""
    if branch == "minimum":
        return "UD"
    if branch == "zigzag":
        return "UD" * s
    if branch == "pyramid":
        return "U" * s + "D" * s
    if branch == "peak-run":
        return "U" + "UD" * (s - 1) + "D"
    if branch == "symmetric":
        arm = rng.randint(3, s - 1)
        return "U" * arm + "DU" * (s - arm) + "D" * arm
    if branch == "strongly-irreducible":
        return _strongly_irreducible(rng, s)
    while branch == "irreducible-composite":
        # U x y D with x, y nonempty Dyck words: two interior ground factors.
        left = rng.randint(1, s - 2)
        word = _irreducible(_irreducible(uniform_dyck_word(rng, left - 1))
                            + uniform_dyck_word(rng, s - 1 - left))
        if not _is_special(word):
            return word
    while branch == "reducible":
        left = rng.randint(1, s - 1)
        word = (_irreducible(uniform_dyck_word(rng, left - 1))
                + uniform_dyck_word(rng, s - left))
        if word != "UD" * s:
            return word
    raise ValueError(f"unknown branch {branch!r}")


def bounce_deletions(rng: random.Random, word: str, count: int) -> str:
    """Apply ``count`` random bounce deletions, each to a uniform distinct child.

    The children come from ``oracles.lower_cover_words``, independently of
    ``shipat.poset``, so the result is a pattern the host is known to contain.
    """
    for _ in range(count):
        word = rng.choice(sorted(oracles.lower_cover_words(word)))
    return word
