"""Workload `growth`: element primitives and ball growth.

Ops are seeded random words in E7 and E8, each taken through
from_word -> .word -> .inversion_set() -> .inverse(), and a few `ball`
growths, each in a freshly built system (ball caches its levels on the
system, so reusing one would time a lookup).  `elements` and `linalg` do
nearly all the work; `biclosed` and `order` are bypassed.
"""

from __future__ import annotations

import random

import refs

# About one pass (set-up and op list); a run makes --seconds / PASS_SECONDS.
PASS_SECONDS = 3.1
WORD_TYPES = {"E7": 7, "E8": 8}
WORDS_PER_TYPE = 24
# E6 twice, so that the tail (the eleventh-slowest sample) lies inside the
# E6 samples rather than on the edge between E6 and F4
BALLS = (("F4", 8), ("E6", 4), ("E6", 4), ("B~3", 6))
TINY_BALLS = (("F4", 3), ("E6", 2), ("B~3", 3))


def generate(seed: int, tiny: bool = False) -> dict:
    rng = random.Random(f"growth:{seed}")
    ops = []
    count = 3 if tiny else WORDS_PER_TYPE
    for typ, ngens in WORD_TYPES.items():
        # lengths 10..40 evenly, so every seed has the same cost mix
        for k in range(count):
            length = 10 + 30 * k // (count - 1)
            ops.append(("word", typ, tuple(rng.randrange(ngens)
                                           for _ in range(length))))
    ops.extend(("ball", typ, radius)
               for typ, radius in (TINY_BALLS if tiny else BALLS))
    rng.shuffle(ops)
    return {"ops": ops}


def setup(cx, spec) -> dict:
    return {"cx": cx,
            "systems": {typ: cx.build_system(typ) for typ in WORD_TYPES}}


def run(session, i, op):
    cx = session["cx"]
    if op[0] == "word":
        el = cx.from_word(session["systems"][op[1]], op[2])
        word = el.word
        inversions = el.inversion_set()
        inverse = el.inverse()
        return word, len(inversions), inverse.word
    elements = cx.ball(cx.build_system(op[1]), op[2])
    histogram = [0] * (op[2] + 1)
    for el in elements:
        histogram[el.length] += 1
    return tuple(histogram)


def referee(cx, spec, items) -> dict:
    """Ball level sizes against the Poincaré series; word answers against
    the element they name (same matrix, reduced, parity, inverse)."""
    bad = {}
    systems = {typ: cx.build_system(typ) for typ in WORD_TYPES}
    for i, op, ans in items:
        if op[0] == "ball":
            want = tuple(refs.poincare(op[1], op[2]))
            if ans != want:
                bad[i] = f"ball level sizes {ans} != Poincaré {want}"
            continue
        system = systems[op[1]]
        word, n_inversions, inverse_word = ans
        el = cx.from_word(system, op[2])
        if cx.from_word(system, word) != el:
            bad[i] = "word names another element"
        elif n_inversions != len(word):
            bad[i] = "inversion count differs from the reduced length"
        elif len(word) > len(op[2]) or (len(op[2]) - len(word)) % 2:
            bad[i] = "reduced length has the wrong size or parity"
        elif not (el * cx.from_word(system, inverse_word)).is_identity:
            bad[i] = "inverse word does not invert"
    return bad
