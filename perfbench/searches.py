"""Workload `searches`: whole-structure computations, each on a fresh oracle.

enumerate_biclosed over A4 Φ⁺, D4 Φ⁺, B3 Φ⁺ and A3 Φ; classify_finite_biclosed
of seeded full-Φ biclosed sets of A3 and B3 (given as root literals, made
by the referee's own signed-permutation model); check_meet_semilattice at
radius 3 for the A~2 and G~2 negative hat forms, twice each; classify of
seeded twists of B~3 hat forms.  The work sits in `biclosed`,
`feasibility`, `infwords` and `order.check_meet_semilattice`.  Only
inversion-set oracles go to check, so its verdict is "ok" by theory.
"""

from __future__ import annotations

import random

import refs

# About one pass (set-up and op list); a run makes --seconds / PASS_SECONDS.
PASS_SECONDS = 6.2
ENUMERATE = (("A4", "positive"), ("D4", "positive"), ("B3", "positive"),
             ("A3", "full"))
CHECKS = (("A~2", "hat 0,1,0::"), ("G~2", "hat 0,1,0,1,0,1::"))
CHECK_RADIUS = 3
CHECK_REPEATS = 2  # each on its own oracle, so the tail lies inside the checks
TWISTS = 3
FINITE_SETS = {"A3": 18, "B3": 18}
CLASSIFY_LEVEL = 4  # membership agreement is checked up to this δ-level

TINY = {"enumerate": (("A2", "positive"), ("B2", "full")), "radius": 1,
        "twists": 1, "finite_sets": {"A3": 1, "B3": 1}}


def _finite_sets(rng, model, count):
    """Seeded twisted positive systems of Φ, as sorted root literals.

    classify_finite_biclosed scans the group in ShortLex order and stops at
    the first u that fits, so its cost follows that u's place in the order.
    The places are stratified, and each set is drawn with its first fitting
    u at the lowest place of its stratum that is some set's first fit, so
    that every seed draws sets of the same cost; the seed picks among the
    sets that first fit there."""
    n = model.n
    pairs = [(d1, d2) for d1 in _subsets(range(n)) for d2 in _subsets(range(n))
             if not set(d1) & set(d2) and model.orthogonal(d1, d2)]
    group = model.shortlex()
    first = {}  # (pair, set) -> place of the first u giving it
    for pair in pairs:
        for place, u in enumerate(group):
            first.setdefault((pair, model.twisted_positive_system(u, *pair)), place)
    out = []
    for k in range(count):
        lo = k * len(group) // count
        hi = max((k + 1) * len(group) // count, lo + 1)
        fits = [(place, pair) for place in range(lo, hi) for pair in pairs
                if first[pair, model.twisted_positive_system(group[place], *pair)]
                == place]
        low = min(place for place, _ in fits)
        place, pair = rng.choice([fit for fit in fits if fit[0] == low])
        out.append(tuple(sorted(model.twisted_positive_system(group[place], *pair))))
    return out


def _subsets(items):
    items = list(items)
    return [tuple(x for t, x in enumerate(items) if mask >> t & 1)
            for mask in range(1 << len(items))]


def generate(seed: int, tiny: bool = False) -> dict:
    rng = random.Random(f"searches:{seed}")
    enumerate_ops = TINY["enumerate"] if tiny else ENUMERATE
    radius = TINY["radius"] if tiny else CHECK_RADIUS
    ops = [("enumerate", typ, ambient) for typ, ambient in enumerate_ops]
    ops += [("check", typ, expr, radius) for typ, expr in CHECKS
            for _ in range(1 if tiny else CHECK_REPEATS)]
    for _ in range(TINY["twists"] if tiny else TWISTS):
        w = ",".join(str(rng.randrange(4)) for _ in range(rng.randint(1, 4)))
        u = ",".join(str(rng.randrange(3)) for _ in range(rng.randint(0, 4)))
        ops.append(("classify", "B~3", f"twist {w} (hat {u or 'e'}::)"))
    for typ, count in (TINY["finite_sets"] if tiny else FINITE_SETS).items():
        model = refs.ClassicalModel(typ[0], int(typ[1:]))
        ops += [("finite", typ, gamma) for gamma in _finite_sets(rng, model, count)]
    rng.shuffle(ops)
    return {"ops": ops}


def setup(cx, spec) -> dict:
    types = {op[1] for op in spec["ops"]}
    systems = {typ: cx.build_system(typ) for typ in types}
    inputs = []
    for op in spec["ops"]:
        system = systems[op[1]]
        if op[0] == "enumerate":
            roots = system.positive_roots
            if op[2] == "full":
                roots = roots + tuple(-r for r in roots)
            inputs.append(roots)
        elif op[0] == "finite":
            inputs.append(frozenset(cx.parse_root(lit, system.rank_finite)
                                    for lit in op[2]))
        else:
            inputs.append(cx.parse_biclosed(system, op[2]))
    return {"cx": cx, "systems": systems, "inputs": inputs}


def run(session, i, op):
    cx = session["cx"]
    system = session["systems"][op[1]]
    arg = session["inputs"][i]
    if op[0] == "enumerate":
        found = cx.enumerate_biclosed(system, arg)
        sizes = [0] * (len(arg) + 1)
        for s in found:
            sizes[len(s)] += 1
        return tuple(sizes)
    if op[0] == "finite":
        u, d1, d2 = cx.classify_finite_biclosed(system, arg)
        return tuple(u.word), tuple(sorted(d1)), tuple(sorted(d2))
    if op[0] == "check":
        result = cx.check_meet_semilattice(system, arg, op[3])
        return result.status, result.checked
    cls = cx.classify(arg)
    word = cls.word
    return (cls.kind,) + ((tuple(word.prefix), tuple(word.period)) if word else ())


def referee(cx, spec, items) -> dict:
    """Counts from the Poincaré series and the twisted-positive-system
    formula; finite witnesses re-expanded by the signed-permutation model
    (and by expand_psi); checks against the ball size; classify witnesses
    by membership agreement of the word's inversion set with the oracle."""
    expand_psi = cx.biclosed.expand_psi
    bad = {}
    for i, op, ans in items:
        kind, typ = op[0], op[1]
        letter, n, _ = refs.split_type(typ)
        system = cx.build_system(typ)
        if kind == "enumerate":
            if op[2] == "positive":
                want = refs.poincare(typ, len(system.positive_roots))
                if list(ans) != want:
                    bad[i] = f"biclosed sets by size {ans} != Poincaré {want}"
            elif sum(ans) != refs.full_phi_biclosed_count(letter, n):
                bad[i] = "biclosed count of Φ differs from the formula"
        elif kind == "finite":
            u, d1, d2 = ans
            model = refs.ClassicalModel(letter, n)
            gamma = frozenset(cx.parse_root(lit, n) for lit in op[2])
            if (tuple(sorted(model.twisted_positive_system(u, d1, d2))) != op[2]
                    or expand_psi(system, cx.from_word(system, u), d1, d2) != gamma):
                bad[i] = "witness does not expand back to the set"
        elif kind == "check":
            size = refs.ball_size(typ, op[3])
            if ans != ("ok", size * (size - 1) // 2):
                bad[i] = f"check gave {ans}, not ok over every pair"
        else:
            oracle = cx.parse_biclosed(system, op[2])
            if ans[0] != "infinite":
                bad[i] = f"twisted hat form classified as {ans[0]}"
                continue
            word = cx.WordInvSet(cx.validate_periodic(system, ans[1], ans[2]))
            if any(word.member(r) != oracle.member(r)
                   for r in system.positive_roots_up_to(CLASSIFY_LEVEL)):
                bad[i] = "witness word's inversion set differs from the oracle"
    return bad
