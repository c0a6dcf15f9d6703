from hypothesis import strategies as st

from shipat import DyckPath


@st.composite
def dyck_paths(draw, min_semilength=0, max_semilength=7):
    """Uniform-ish random Dyck paths built step by step."""
    s = draw(st.integers(min_semilength, max_semilength))
    ups = downs = 0
    chars = []
    while len(chars) < 2 * s:
        can_up = ups < s
        can_down = downs < ups
        if can_up and (not can_down or draw(st.booleans())):
            chars.append("U")
            ups += 1
        else:
            chars.append("D")
            downs += 1
    return DyckPath("".join(chars))


def uniform_word(rng, s):
    """A uniform Dyck word of semilength s, by the cycle lemma."""
    steps = ["U"] * s + ["D"] * (s + 1)
    rng.shuffle(steps)
    height = lowest = start = 0
    for pos, step in enumerate(steps, start=1):
        height += 1 if step == "U" else -1
        if height < lowest:
            lowest, start = height, pos
    return "".join(steps[start:] + steps[:start])[:-1]
