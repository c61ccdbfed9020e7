"""The in-process reports, on this checkout's `src/`: python tools/report.py

What the paper's objects cost, section by section, every time read by `best`
and every count by `counting`.  The numbers are read, not gated."""

import json
import random
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager, suppress
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coxtw import (BiclosedOracle, GroupElement, JoinSearchError, Root, ball,  # noqa: E402
                   biclosed, build_system, classify, elements, from_word, identity, order,
                   parse_biclosed, system as system_module)


def best(call, repeats, fresh=tuple):
    """The least wall time, in seconds, of `repeats` runs of call(*fresh()); each
    run gets a new fresh(), whose own time is not counted."""
    times = []
    for _ in range(repeats):
        args = fresh()
        start = perf_counter()
        call(*args)
        times.append(perf_counter() - start)
    return min(times)


@contextmanager
def counting(owner, name, size=lambda *args: 1):
    """Inside the block, owner.name adds size(*args), default 1, per call to the
    one-item list yielded; on exit, by an exception too, owner gets back the very
    object it bound (a staticmethod stays one).  Refuses a name not in vars(owner)."""
    if name not in vars(owner):
        raise AttributeError(f"{owner.__name__} binds no {name!r}")
    original = vars(owner)[name]
    static = isinstance(original, staticmethod)
    call, count = original.__func__ if static else original, [0]
    def counted(*args, **kwargs):
        count[0] += size(*args)
        return call(*args, **kwargs)
    setattr(owner, name, staticmethod(counted) if static else counted)
    try:
        yield count
    finally:
        setattr(owner, name, original)


def cone_table_size():
    """Cone tests, sets found and time (min of 5) of enumerate_biclosed, and the
    time (min of 5) of its cone table alone: how many cone questions the
    per-plane table asks, and how the time splits between table and search."""
    for spec, full in (("A4", 0), ("D4", 0), ("B3", 0), ("A3", 1), ("F4", 0),
                       ("D4", 1), ("B3", 1), ("A5", 0)):
        system = build_system(spec)
        ambient = system.finite_roots if full else system.positive_roots
        with counting(biclosed, "cone_contains") as tests:
            found = biclosed.enumerate_biclosed(system, ambient)
        total = best(lambda: biclosed.enumerate_biclosed(system, ambient), 5)
        roots = biclosed._checked_roots(system, ambient)
        table = best(lambda: biclosed._cone_table(roots), 5)
        print(f"{spec} {'Φ' if full else 'Φ⁺'}: {tests[0]} cone tests, {len(found)} sets, "
              f"{total * 1e3:.2f} ms, cone table {table * 1e3:.2f} ms")


def semilattice_check():
    """check_meet_semilattice on hat forms from rank 2 to E~6: status, pairs
    checked, universe (the witness prefix's frame below the ball, or
    ball(3·radius) with no witness), time (min of 3, fresh system and oracle)
    and tracemalloc peak (one more run); then, for hat e:0:, whose complement
    has no witness, join over ball(2) pairs, which searches the same
    l_B-ordered ball: time (min of 3, after a first join) and members calls."""
    def joins(oracle, pairs):
        for x, y in pairs:
            with suppress(JoinSearchError):
                order.join(x, y, oracle)
    for spec, expr, radius in (("A~2", "hat 0,1,0::", 3), ("G~2", "hat 0,1,0,1,0,1::", 3),
                               ("B~3", "hat 0,1,2::", 3), ("A~4", "hat 0,1::", 3),
                               ("E~6", "hat e::", 2), ("A~2", "hat e::0", 3),
                               ("B~3", "hat e::0", 2)):
        def fresh():
            system = build_system(spec)
            return system, parse_biclosed(system, expr)
        time = best(lambda *args: order.check_meet_semilattice(*args, radius), 3, fresh)
        system, oracle = fresh()
        tracemalloc.start()
        res = order.check_meet_semilattice(system, oracle, radius)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
        elems = ball(system, radius)
        if order._has_witness(oracle):
            z = order._lower_bound(oracle, [u.inversion_mask() for u in elems])
            size = sum(1 for _ in order._frame(z, elems))
        else:
            size = len(ball(system, 3 * radius))
        print(f"{spec} {expr} radius {radius}: {res.status}, {res.checked} checked, "
              f"universe {size}, {time * 1e3:.1f} ms, peak {peak:.1f} MiB")
    for spec in ("A~2", "C~2", "B~3"):
        def fresh():
            system = build_system(spec)
            oracle, elems = parse_biclosed(system, "hat e:0:"), ball(system, 2)
            pairs = [(x, y) for i, x in enumerate(elems) for y in elems[i:]]
            joins(oracle, pairs[:1])
            return oracle, pairs
        time = best(joins, 3, fresh)
        oracle, pairs = fresh()
        joins(oracle, pairs)   # as warm as after a timed run
        with counting(BiclosedOracle, "members") as calls:
            joins(oracle, pairs)
        print(f"{spec} hat e:0: join over {len(pairs)} ball(2) pairs: "
              f"{time * 1e3:.1f} ms, {calls[0] / len(pairs):.1f} members calls per join")


def finite_classification_and_ball_products():
    """µs per set (witness word included) of classify_finite_biclosed on every
    biclosed set of A3 Φ, B3 Φ and D4 Φ; µs per `_psi_pattern` on 60 seeded
    (u, Δ1, Δ2) of F4, E6 and E8 (N ≫ k: Φ⁺_Δ is read off k support masks);
    `_element` calls (e included) against the elements of two balls, and ms
    per ball (fresh system, build not timed); µs per fresh build_system of
    E6, E7, E8, F4, B~3 and E~6 (Φ⁺ raised on packed integers).  Min of 5."""
    for spec in ("A3", "B3", "D4"):
        system = build_system(spec)
        sets = biclosed.enumerate_biclosed(system, system.finite_roots)
        time = best(lambda: [biclosed.classify_finite_biclosed(system, g)[0].word for g in sets], 5)
        print(f"{spec} Φ: {len(sets)} sets, {time / len(sets) * 1e6:.0f} µs per set")
    rng = random.Random(7)
    for spec in ("F4", "E6", "E8"):
        system = build_system(spec)
        k, triples = system.rank_finite, []
        for _ in range(60):
            u = from_word(system, [rng.randrange(k) for _ in range(rng.randint(0, 20))])
            shuffled = rng.sample(range(k), k)
            d1 = frozenset(shuffled[:rng.randint(0, k // 2)])
            rest = [j for j in shuffled if j not in d1 and all(system.form[i][j] == 0 for i in d1)]
            triples.append((u, d1, frozenset(rest[:rng.randint(0, len(rest))])))
        time = best(lambda: [biclosed._psi_pattern(system, *triple) for triple in triples], 5)
        empty = sum(not d1 for _, d1, _ in triples), sum(not d2 for _, _, d2 in triples)
        print(f"{spec}: {len(triples)} triples ({empty[0]} with Δ1 = ∅, "
              f"{empty[1]} with Δ2 = ∅), {time / len(triples) * 1e6:.1f} µs per _psi_pattern")
    for spec, radius in (("E6", 8), ("A~3", 12)):
        time = best(lambda system: ball(system, radius), 5, lambda: (build_system(spec),))
        with counting(elements, "_element") as built:
            size = len(ball(build_system(spec), radius))
        print(f"ball({spec}, {radius}): {built[0]} elements built for {size} elements, "
              f"{time * 1e3:.2f} ms per ball")
    for spec in ("E6", "E7", "E8", "F4", "B~3", "E~6"):
        time = best(lambda: build_system(spec), 5)
        print(f"build_system({spec}): {time * 1e6:.0f} µs per fresh build (min of 5)")


def classification_of_the_hat_forms():
    """The 762 hat forms that criteria 11 and 12 pin, by kind; per kind, the
    Roots (checked or trusted), Fractions and letters (through `_walk`, the one
    walk) classify spends; and its time (min of 3) on fresh oracles."""
    rows = [row for name in ("rank2_hat_forms.json", "rank3_hat_forms.json")
            for row in json.loads((ROOT / "tests" / "data" / name).read_text())]
    systems = {spec: build_system(spec) for spec in {row["type"] for row in rows}}
    for system in systems.values():
        system.finite_roots   # built before counting: classify finds it built
    def fresh():
        return [parse_biclosed(systems[row["type"]], row["form"]) for row in rows],
    counts = Counter()
    with counting(Root, "__init__") as checked, counting(system_module, "_root") as trusted, \
            counting(Fraction, "__new__") as fractions, \
            counting(elements, "_walk", size=lambda s, columns, mask, word: len(word)) as letters:
        for oracle in fresh()[0]:
            checked[0] = trusted[0] = fractions[0] = letters[0] = 0
            kind = classify(oracle).kind
            counts.update({(kind, "rows"): 1, (kind, "Roots"): checked[0] + trusted[0],
                           (kind, "Fractions"): fractions[0], (kind, "letters"): letters[0]})
    time = best(lambda oracles: [classify(oracle) for oracle in oracles], 3, fresh)
    for kind in sorted({kind for kind, _ in counts}):
        print(f"{kind}: {counts[kind, 'rows']} rows; inside classify "
              f"{counts[kind, 'Roots']} Roots built, {counts[kind, 'Fractions']} Fractions "
              f"built, {counts[kind, 'letters']} letters walked")
    print(f"{len(rows)} rows: {time * 1e3:.0f} ms (min of 3)")


def words_inverses_and_certification():
    """On 40 seeded E8 and B~3 reduced words of length 10–40: µs per .word,
    .inverse(), .inverse().word, .inverse() after .word, certified
    GroupElement(system, matrix), .inversion_set(), first (decoding) .matrix
    read, a * b (b's word walked from a) and from_word letter; the Roots one
    .inversion_set() pass builds through the checked Root.__init__ (those above
    δ-level 0 take the trusted system._root); then µs per from_word of the 200
    seeded 1–4-letter words per A~2, C~2, G~2 and B~3 that `queries` draws.
    Min of 5, a fresh system each time."""
    for spec in ("E8", "B~3"):
        system, rng, words = build_system(spec), random.Random(spec), []
        for _ in range(40):
            w = identity(system)
            for _ in range(rng.randint(10, 40)):
                w = w.mul_simple(rng.choice([s for s in range(system.ngens)
                                             if w.apply(system.simple_root(s)).is_positive]))
            words.append(w.word)
        def per_call(read, make=from_word):
            def fresh():
                system = build_system(spec)
                system.integer_form, system.positive_roots   # built before the clock
                return [make(system, word) for word in words],
            return best(lambda els: [read(el) for el in els], 5, fresh) / len(words) * 1e6
        following = dict(zip(words, words[1:] + words[:1]))
        reads = ((".word", lambda el: el.word),
                 (".inverse()", lambda el: el.inverse()),
                 (".inverse().word", lambda el: el.inverse().word),
                 (".inverse() after .word", lambda el: el.inverse(),
                  lambda s, w: (el := from_word(s, w), el.word)[0]),
                 ("GroupElement(system, matrix)", lambda pair: GroupElement(*pair),
                  lambda s, w: (s, from_word(s, w).matrix)),
                 (".inversion_set()", lambda el: el.inversion_set()),
                 ("first .matrix read", lambda el: el.matrix),
                 ("a * b", lambda pair: pair[0] * pair[1],
                  lambda s, w: (from_word(s, w), from_word(s, following[w]))))
        times = ", ".join(f"{per_call(*how):.1f} µs per {label}" for label, *how in reads)
        letter = per_call(lambda pair: from_word(*pair), lambda *pair: pair) * len(words)
        els = [from_word(system, word) for word in words]
        with counting(Root, "__init__") as checked:
            inversions = sum(len(el.inversion_set()) for el in els)
        print(f"{spec}, {len(words)} reduced words of length 10–40: {times}, "
              f"{letter / sum(map(len, words)):.2f} µs per from_word letter, "
              f"{checked[0]} checked Roots built for {inversions} inversions")
    for spec in ("A~2", "C~2", "G~2", "B~3"):
        rng, pool, ngens = random.Random(spec), [], build_system(spec).ngens
        for _ in range(200):   # as `queries` draws them: no letter twice in a row
            word = []
            for _ in range(rng.randint(1, 4)):
                word.append(rng.choice([s for s in range(ngens) if not word or s != word[-1]]))
            pool.append(tuple(word))
        time = best(lambda s: [from_word(s, w) for w in pool], 5, lambda: (build_system(spec),))
        print(f"{spec}: {time / len(pool) * 1e6:.2f} µs per from_word of a 1–4-letter word")


if __name__ == "__main__":
    for section in (cone_table_size, semilattice_check, finite_classification_and_ball_products,
                    classification_of_the_hat_forms, words_inverses_and_certification):
        print(f"== {section.__name__.replace('_', ' ')} ==")
        section()
