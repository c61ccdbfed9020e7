"""Workload `queries`: a long-lived library session on A~2, C~2, G~2, B~3.

Setup parses biclosed forms like the standard battery plus seeded twists,
and builds the chain/interval pairs by walking up covers.  Each op is one
twisted_length, le, chain, interval, meet or join, with its elements built
from seeded words by from_word inside the op.  Words come from a pool of
0.35 times the number of element references, so about a fifth of the
references are first touches (the run record states the share): the
oracle memos pay off on some queries and not on others.  meet is drawn
only for forms that classify as an inversion set and join only for forms
whose complement does, so every query has an answer; the first meet or
join on an oracle pays for `classify`, which is the tail.
"""

from __future__ import annotations

import random

# finite rank, a reduced word of the longest element of the finite part
# About one pass (set-up and op list); a run makes --seconds / PASS_SECONDS.
PASS_SECONDS = 2.9
SYSTEMS = {"A~2": (2, "0,1,0"), "C~2": (2, "0,1,0,1"),
           "G~2": (2, "0,1,0,1,0,1"), "B~3": (3, "0,1,2,0,1,2,0,1,2")}
OPS_PER_SYSTEM = {"tlen": 30, "le": 30, "chain": 8, "interval": 8,
                  "meet": 8, "join": 8}
TINY_OPS = dict.fromkeys(OPS_PER_SYSTEM, 1)
POOL_SHARE = 0.35
REFEREE_MEETS = 4  # meet/join answers re-derived by exhaustive search
REFEREE_RADIUS = 5  # ...among those whose search ball is at most this


def _word(rng, ngens, lo, hi):
    out = []
    for _ in range(rng.randint(lo, hi)):
        out.append(rng.choice([s for s in range(ngens) if not out or s != out[-1]]))
    return tuple(out)


def _text(word):
    return ",".join(map(str, word)) or "e"


def _forms(rng, rank, w0):
    """The biclosed expressions of one system's session."""
    ngens = rank + 1
    twist = (f"twist {_text(_word(rng, ngens, 1, 3))} "
             f"(hat {_text(_word(rng, rank, 0, 3))}::)")
    return [
        "empty",
        "full",
        f"invset {_text(_word(rng, ngens, 2, 4))}",  # an inversion set
        f"invset {_text(_word(rng, ngens, 3, 5))}",
        "word-inf 0;",
        f"hat {w0}::",  # an infinite word's inversion set, and so its complement
        "hat e::",  # likewise
        f"twist 0 (hat {w0}::)",
        f"word-inf ;{_text(range(ngens))}",  # infinite word; complement is not
        "hat e::0",
        twist,
    ]


# Forms that get meets (they classify as inversion sets) and joins (their
# complements do).  Fixed, so that every seed pays for the same classify
# calls: each one's first meet or join is the tail.
MEET_FORMS = (2, 5, 8)
JOIN_FORMS = (6,)


def generate(seed: int, tiny: bool = False) -> dict:
    rng = random.Random(f"queries:{seed}")
    counts = TINY_OPS if tiny else OPS_PER_SYSTEM
    forms, walks, ops = {}, [], []
    refs_total = refs_first = 0
    for typ, (rank, w0) in SYSTEMS.items():
        ngens = rank + 1
        forms[typ] = _forms(rng, rank, w0)
        n_refs = (counts["tlen"] + 2 * (counts["le"] + counts["meet"]
                  + counts["join"]) + counts["chain"] + counts["interval"])
        pool = [_word(rng, ngens, 1 + k % 4, 1 + k % 4)
                for k in range(max(2, round(POOL_SHARE * n_refs)))]
        touched = set()

        def pick():
            nonlocal refs_total, refs_first
            w = rng.choice(pool)
            refs_total += 1
            refs_first += w not in touched
            touched.add(w)
            return w

        any_form = range(len(forms[typ]))

        def walk():
            # x, then 1-3 seeded up-cover steps; setup resolves the letters
            walks.append((typ, rng.choice(any_form), pick(),
                          tuple(rng.random() for _ in range(rng.randint(1, 3)))))
            return len(walks) - 1

        for kind, n in counts.items():
            for _ in range(n):
                if kind == "tlen":
                    ops.append(("tlen", typ, rng.choice(any_form), pick()))
                elif kind == "le":
                    if rng.random() < 0.5:
                        ops.append(("le", typ, rng.choice(any_form), pick(), pick()))
                    else:
                        ops.append(("le-walk", typ, walk(), rng.random() < 0.5))
                elif kind in ("chain", "interval"):
                    ops.append((kind, typ, walk()))
                else:
                    chosen = MEET_FORMS if kind == "meet" else JOIN_FORMS
                    ops.append((kind, typ, rng.choice(chosen), pick(), pick()))
    rng.shuffle(ops)
    return {"seed": seed, "forms": forms, "walks": walks, "ops": ops,
            "first_touch_share": refs_first / refs_total}


def setup(cx, spec) -> dict:
    systems = {typ: cx.build_system(typ) for typ in SYSTEMS}
    oracles = {typ: [cx.parse_biclosed(systems[typ], f) for f in forms]
               for typ, forms in spec["forms"].items()}
    pairs = []
    for typ, form, x, choices in spec["walks"]:
        system, oracle = systems[typ], oracles[typ][form]
        z, letters = cx.from_word(system, x), []
        for c in choices:
            ups = [s for s in range(system.ngens) if cx.is_up_cover(z, s, oracle)]
            if not ups:  # z is maximal in this order
                break
            s = ups[int(c * len(ups))]
            z = z.mul_simple(s)
            letters.append(s)
        pairs.append((form, x, x + tuple(letters)))
    return {"cx": cx, "systems": systems, "oracles": oracles, "pairs": pairs}


def _words(elements):
    return tuple(tuple(w.word) for w in elements)


def run(session, i, op):
    cx = session["cx"]
    kind, typ = op[0], op[1]
    system = session["systems"][typ]
    if kind in ("chain", "interval", "le-walk"):
        form, x, y = session["pairs"][op[2]]
        if kind == "le-walk" and op[3]:
            x, y = y, x
    else:
        form, x = op[2], op[3]
        y = op[4] if len(op) > 4 else None
    oracle = session["oracles"][typ][form]
    ex = cx.from_word(system, x)
    if kind == "tlen":
        return cx.twisted_length(ex, oracle)
    ey = cx.from_word(system, y)
    if kind in ("le", "le-walk"):
        return cx.le(ex, ey, oracle)
    if kind == "chain":
        return _words(cx.chain(ex, ey, oracle))
    if kind == "interval":
        return _words(cx.interval(ex, ey, oracle))
    return tuple((cx.meet if kind == "meet" else cx.join)(ex, ey, oracle).word)


def referee(cx, spec, items) -> dict:
    """Recompute every tlen/le with coxtw.oracle's brute-force scans, check
    chains and intervals step by step with them, and re-derive a seeded
    subset of meets/joins by exhaustive search (oracle_meet)."""
    oracle_le, oracle_meet, oracle_tlen = cx.oracle_le, cx.oracle_meet, cx.oracle_tlen
    systems = {typ: cx.build_system(typ) for typ in SYSTEMS}
    # fresh oracles: no memo filled by the code under test
    oracles = {typ: [cx.parse_biclosed(systems[typ], f) for f in forms]
               for typ, forms in spec["forms"].items()}
    bad, searchable = {}, []
    for i, op, ans in items:
        kind, typ = op[0], op[1]
        system = systems[typ]

        def el(word):
            return cx.from_word(system, word)

        if kind == "tlen":
            oracle = oracles[typ][op[2]]
            if oracle_tlen(el(op[3]), oracle) != ans:
                bad[i] = "twisted length differs from the root scan"
        elif kind == "le":
            oracle = oracles[typ][op[2]]
            if oracle_le(el(op[3]), el(op[4]), oracle) != ans:
                bad[i] = "le differs from the unit-step search"
        elif kind in ("meet", "join"):
            searchable.append((i, op, ans))
        else:
            form, x, y = _walk_pair(cx, system, oracles[typ], spec["walks"][op[2]])
            oracle = oracles[typ][form]
            if kind == "le-walk":
                a, b = (y, x) if op[3] else (x, y)
                if oracle_le(el(a), el(b), oracle) != ans:
                    bad[i] = "le differs from the unit-step search"
            elif kind == "chain":
                reason = _check_chain(cx, system, oracle, x, y, ans)
                if reason:
                    bad[i] = reason
            else:
                ex, ey = el(x), el(y)
                got = [el(w) for w in ans]
                if (ex not in got or ey not in got or len(set(got)) != len(got)
                        or not all(oracle_le(ex, u, oracle) and oracle_le(u, ey, oracle)
                                   for u in got)):
                    bad[i] = "interval holds an element outside [x, y]"
    rng = random.Random(f"queries-referee:{spec['seed']}")
    rng.shuffle(searchable)
    checked = 0
    for i, op, ans in searchable:
        system = systems[op[1]]
        x, y, m = (cx.from_word(system, w) for w in (op[3], op[4], ans))
        radius = max(m.length, x.length + y.length) + 1
        if radius > REFEREE_RADIUS:
            continue
        oracle = oracles[op[1]][op[2]]
        if op[0] == "join":
            oracle = cx.Complement(oracle)
        if oracle_meet(x, y, oracle, radius) != (m,):
            bad[i] = f"{op[0]} differs from the exhaustive search"
        checked += 1
        if checked == REFEREE_MEETS:
            break
    return bad


def _walk_pair(cx, system, oracles, walk):
    """The (form, x, y) a walk names, resolved with the referee's oracles."""
    _, form, x, choices = walk
    oracle_tlen, oracle = cx.oracle_tlen, oracles[form]
    z, letters = cx.from_word(system, x), []
    for c in choices:
        t = oracle_tlen(z, oracle)
        ups = [s for s in range(system.ngens)
               if oracle_tlen(z.mul_simple(s), oracle) == t + 1]
        if not ups:
            break
        s = ups[int(c * len(ups))]
        z = z.mul_simple(s)
        letters.append(s)
    return form, x, x + tuple(letters)


def _check_chain(cx, system, oracle, x, y, ans):
    oracle_tlen = cx.oracle_tlen
    steps = [cx.from_word(system, w) for w in ans]
    ex, ey = cx.from_word(system, x), cx.from_word(system, y)
    if not steps or steps[0] != ex or steps[-1] != ey:
        return "chain has the wrong endpoints"
    if len(steps) - 1 != len(ex.inversion_set() ^ ey.inversion_set()):
        return "chain length differs from |Φx △ Φy|"
    for a, b in zip(steps, steps[1:]):
        if (oracle_tlen(b, oracle) != oracle_tlen(a, oracle) + 1
                or not any(a.mul_simple(s) == b for s in range(system.ngens))):
            return "chain step is not a cover"
    return None
