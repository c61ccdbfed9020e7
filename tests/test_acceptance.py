"""Acceptance battery: one test per shipped guarantee, one line of output each.

Each test prints `criterion-NN <label>: PASS (T s)` on success and enforces
its runtime budget, so a slow regression fails even when the math is right.
"""

import itertools
import json
import random
import time
from collections import Counter
from pathlib import Path

from coxtw.biclosed import (Complement, Explicit, HatForm, act_on_biclosed,
                            classify_finite_biclosed, enumerate_biclosed,
                            expand_psi)
from coxtw.elements import ball, from_word, identity, translation
from coxtw.errors import ClassificationError
from coxtw.figures import emit_figure
from coxtw.infwords import classify
from coxtw.oracle import (longest_finite, oracle_le, oracle_meet,
                          standard_battery)
from coxtw.order import (chain, check_meet_semilattice, cover_neighbors,
                         interval, join, le, meet, twisted_length)
from coxtw.system import Root, build_system

GOLDEN = Path(__file__).parent / "data" / "a1_twist.dot"

A2 = build_system("A2")
B2 = build_system("B2")
A1T = build_system("A~1")
A2T = build_system("A~2")


def _stamp(num: int, label: str, t0: float, budget: float):
    dt = time.time() - t0
    assert dt < budget, f"criterion-{num:02d} blew its {budget}s budget: {dt:.2f}s"
    print(f"criterion-{num:02d} {label}: PASS ({dt:.2f}s)")


def test_criterion_01_figure_a1_twist_golden():
    t0 = time.time()
    graph, labels = emit_figure("a1-twist")
    assert len(graph.nodes) == 6 and len(graph.edges) == 5
    data = graph.to_json()
    assert [n["tlen"] for n in data["nodes"]] == [-2, -1, 0, 1, 2, 3]
    assert data["edges"] == [[i, i + 1] for i in range(5)]
    assert graph.to_dot(labels) == GOLDEN.read_text()
    _stamp(1, "figure-a1-twist golden DOT", t0, 1.0)


def test_criterion_02_figure_a2_twist_fixture():
    t0 = time.time()
    # emit_figure itself asserts the computed covers equal the transcribed ones
    graph, labels = emit_figure("a2-twist")
    assert len(graph.nodes) == 21
    assert len(graph.edges) == 25
    assert len(labels) == 21
    dot = graph.to_dot(labels)
    assert dot.count(" -> ") == 25
    _stamp(2, "figure-a2-twist fixture", t0, 5.0)


def test_criterion_03_order_equivalence():
    t0 = time.time()
    mismatches = 0
    for sys_ in (A2, B2, A1T, A2T):
        elems = ball(sys_, 4)
        for name, orc in standard_battery(sys_):
            for x in elems:
                for y in elems:
                    if le(x, y, orc) != oracle_le(x, y, orc):
                        mismatches += 1
    assert mismatches == 0
    _stamp(3, "le == oracle_le on ball(4) x battery", t0, 120.0)


def test_criterion_04_biclosed_enumeration_is_inversion_sets():
    t0 = time.time()
    expected = {"A2": 6, "B2": 8, "G2": 12, "A3": 24}
    for spec, count in expected.items():
        sys_ = build_system(spec)
        found = set(enumerate_biclosed(sys_, sys_.positive_roots))
        assert len(found) == count, spec
        npos = len(sys_.positive_roots)
        assert found == {w.inversion_set() for w in ball(sys_, 2 * npos)}, spec
    _stamp(4, "biclosed(Phi+) = inversion sets", t0, 30.0)


def test_criterion_05_finite_classification_full_phi():
    t0 = time.time()
    for sys_, count in ((A2, 20), (B2, 26)):
        full = tuple(sys_.positive_roots) + tuple(-r for r in sys_.positive_roots)
        sets = enumerate_biclosed(sys_, full)
        assert len(sets) == count
        for gamma in sets:
            u, d1, d2 = classify_finite_biclosed(sys_, gamma)
            assert expand_psi(sys_, u, d1, d2) == gamma
    _stamp(5, "full-Phi biclosed classified (20/26)", t0, 30.0)


def test_criterion_06_straight_translations():
    t0 = time.time()
    for sys_ in (A1T, A2T):
        k = sys_.rank_finite
        subsets = [s for r in range(1, k + 1)
                   for s in itertools.combinations(range(k), r)]
        for keep in subsets:
            avoid = tuple(i for i in range(k) if i not in keep)
            gamma = sys_.dominant_coweight_for(avoid)
            assert any(gamma)
            t = translation(sys_, gamma)
            powers = [t]
            for _ in range(7):
                powers.append(powers[-1] * t)
            assert all(p.length == (i + 1) * t.length
                       for i, p in enumerate(powers))
            invs = [p.inversion_set() for p in powers]
            for small, big in zip(invs, invs[1:]):
                assert small <= big, (sys_.type_string, keep)
            union6 = {r for r in invs[-1] if r.delta <= 6}
            # (β, γ) from the form, independently of the translation matrix
            jset = {b for b in sys_.finite_roots
                    if sum(c * f * g for c, row in zip(b.coeffs, sys_.form)
                           for f, g in zip(row, gamma)) > 0}
            hat6 = {r for r in sys_.positive_roots_up_to(6) if Root(r.coeffs) in jset}
            assert union6 == hat6, (sys_.type_string, keep)
    _stamp(6, "t_gamma straight, union = hat form", t0, 60.0)


def test_criterion_07_meet_semilattice_and_noncompleteness():
    t0 = time.time()
    for sys_ in (A1T, A2T):
        for name, orc in standard_battery(sys_):
            res = classify(orc)
            if res.kind == "infinite":
                rep = check_meet_semilattice(sys_, orc, 3)
                assert rep.status == "ok", (sys_.type_string, name, rep)
                w = res.word
                letters = tuple(itertools.islice(
                    itertools.chain(w.prefix, itertools.cycle(w.period)),
                    max(7, len(w.prefix))))
                truncs = [from_word(sys_, letters[:n])
                          for n in range(len(w.prefix), len(letters) + 1)]
                bounds = [z for z in ball(sys_, 6)
                          if all(le(z, tr, orc) for tr in truncs)]
                assert not bounds, (sys_.type_string, name)
            elif res.kind == "neither":
                rep = check_meet_semilattice(sys_, orc, 3)
                assert rep.status == "counterexample", (sys_.type_string, name)
                r1, r2 = res.bad_pair
                assert Root(r1.coeffs) == -Root(r2.coeffs)
                assert r1.delta >= 0 and r2.delta >= 0
                assert orc.member(r1) and orc.member(r2)
                x, y = rep.pair
                union = x.inversion_set() | y.inversion_set()
                assert any(Root(p.coeffs) == -Root(q.coeffs)
                           and orc.member(p) and orc.member(q)
                           for p in union for q in union), (name,)
    _stamp(7, "infinite=>ok, neither=>bad-pair counterexample", t0, 120.0)


def test_criterion_08_hat_form_lattice():
    t0 = time.time()
    for sys_ in (A1T, A2T):
        pos = HatForm(sys_, identity(sys_), (), ())
        neg = HatForm(sys_, longest_finite(sys_), (), ())
        elems = ball(sys_, 3)
        for orc in (pos, neg):
            comp = Complement(orc)
            for x, y in itertools.combinations_with_replacement(elems, 2):
                m = meet(x, y, orc)
                r = max(m.length, x.length + y.length) + 1
                assert oracle_meet(x, y, orc, r) == (m,), (x.word, y.word)
                j = join(x, y, orc)
                r = max(j.length, x.length + y.length) + 1
                assert oracle_meet(x, y, comp, r) == (j,), (x.word, y.word)
    _stamp(8, "hat forms: meets and joins vs oracle", t0, 120.0)


def test_criterion_09_interval_invariance():
    t0 = time.time()
    rng = random.Random(20260819)
    pool = []
    for sys_ in (A2, B2, A1T, A2T):
        elems = ball(sys_, 3)
        for name, orc in standard_battery(sys_):
            pool.append((sys_, orc, elems))
    triples = 0
    while triples < 200:
        sys_, orc, elems = pool[rng.randrange(len(pool))]
        x = elems[rng.randrange(len(elems))]
        y = x
        for _ in range(rng.randrange(1, 4)):
            ups, _ = cover_neighbors(y, orc)
            if not ups:
                break
            y = ups[rng.randrange(len(ups))]
        box = interval(x, y, orc)
        assert box == interval(x, y, Explicit(sys_, x.inversion_set()))
        assert set(interval(y, x, Complement(orc))) == set(box)
        empty = Explicit(sys_, set())
        xinv = x.inverse()
        plain = interval(identity(sys_), xinv * y, empty)
        assert {xinv * u for u in box} == set(plain)
        for u in box:
            for v in box:
                assert le(u, v, orc) == le(xinv * u, xinv * v, empty)
        triples += 1
    _stamp(9, "200 intervals independent of B", t0, 60.0)


def test_criterion_10_invariant_suite():
    t0 = time.time()
    elems = ball(A2T, 3)
    battery = standard_battery(A2T)
    for name, orc in battery:
        comp = Complement(orc)
        for w in elems:
            tl = twisted_length(w, orc)
            assert (tl - w.length) % 2 == 0, (name, w.word)
            for s in range(A2T.ngens):
                assert abs(twisted_length(w.mul_simple(s), orc) - tl) == 1
        for x in elems:
            for y in elems:
                lo = le(x, y, orc)
                assert lo == le(y, x, comp), (name, x.word, y.word)
                if lo:
                    steps = chain(x, y, orc)
                    assert len(steps) - 1 == len(
                        x.inversion_set() ^ y.inversion_set())
    probe = A2T.positive_roots_up_to(5)
    for name, orc in battery:
        assert act_on_biclosed(identity(A2T), orc).key() == orc.key()
        for w in elems[:10]:
            for v in elems[:10]:
                left = act_on_biclosed(w, act_on_biclosed(v, orc))
                right = act_on_biclosed(w * v, orc)
                assert all(left.member(rho) == right.member(rho)
                           for rho in probe), (name, w.word, v.word)
    for w in elems:
        for u in elems:
            acted = act_on_biclosed(w, Explicit(A2T, u.inversion_set()))
            target = (w * u).inversion_set()
            assert all(acted.member(rho) == (rho in target)
                       for rho in A2T.positive_roots_up_to(w.length + u.length + 1))
    _stamp(10, "parity/covers/duality/chains/action laws", t0, 120.0)


# Per affine rank-2 type: the number of hat forms, one per twisted positive
# system of the finite Φ, and their (classify kind, check status) counts.
_DICHOTOMY = {
    "A~2": (20, {("finite", "ok"): 1, ("infinite", "ok"): 12,
                 ("neither", "counterexample"): 7}),
    "C~2": (26, {("finite", "ok"): 1, ("infinite", "ok"): 16,
                 ("neither", "counterexample"): 9}),
    "G~2": (38, {("finite", "ok"): 1, ("infinite", "ok"): 24,
                 ("neither", "counterexample"): 10, ("neither", "inconclusive"): 3}),
}
# Every row of `_hat_rows(_DICHOTOMY, 3)`, one JSON object a line, recorded
# once; rewrite it only where a change of verdict is meant.
RANK2 = Path(__file__).parent / "data" / "rank2_hat_forms.json"


def _hat_rows(specs, radius):
    """One row per hat form of each affine type in specs: its expression,
    d2 = Δ2, the `classify` kind and witness, and `check_meet_semilattice` at
    the given radius."""
    rows = []
    for spec in specs:
        affine, finite = build_system(spec), build_system(spec.replace("~", ""))
        full = finite.positive_roots + tuple(-r for r in finite.positive_roots)
        for gamma in enumerate_biclosed(finite, full):
            u, d1, d2 = classify_finite_biclosed(finite, gamma)
            hat = HatForm(affine, from_word(affine, u.word), d1, d2)
            try:
                cls = classify(hat)
                kind, witness = cls.kind, cls.witness_json()
            except ClassificationError:
                kind, witness = "unclassified", None
            word = ",".join(map(str, u.word)) or "e"
            d1, d2 = (",".join(map(str, sorted(d))) for d in (d1, d2))
            rows.append({"type": spec, "form": f"hat {word}:{d1}:{d2}",
                         "d2": d2, "kind": kind, "witness": witness,
                         "check": check_meet_semilattice(affine, hat, radius).to_json()})
    return rows


def _assert_dichotomy(rows, table):
    """Each type's form count and (kind, status) counts are as in table, and
    every row has Δ2 = ∅ ⇔ kind ≠ neither ⇔ ok, and a pair ⇔ counterexample."""
    for spec, (forms, counts) in table.items():
        seen = Counter((r["kind"], r["check"]["status"]) for r in rows if r["type"] == spec)
        assert sum(seen.values()) == forms and seen == counts, (spec, seen)
    for r in rows:
        status = r["check"]["status"]
        assert (not r["d2"]) == (r["kind"] != "neither") == (status == "ok"), r
        assert (status == "counterexample") == (r["check"]["pair"] is not None), r


def test_criterion_11_rank2_hat_form_dichotomy():
    # the paper's dichotomy on every hat form of rank 2: ≤_B is a meet
    # semilattice exactly when B is an inversion set, and the hat form is one
    # exactly when Δ2 = ∅; at radius 3 the check proves "ok" or finds a
    # counterexample for all but three G~2 forms
    t0 = time.time()
    rows = _hat_rows(_DICHOTOMY, 3)
    _assert_dichotomy(rows, _DICHOTOMY)
    # left for a certificate that these three have no meet-semilattice
    assert {(r["type"], r["form"]) for r in rows if r["check"]["status"] == "inconclusive"} == {
        ("G~2", "hat 0,1,0,1,0::1"), ("G~2", "hat 1,0,1,0::1"), ("G~2", "hat e::1")}
    assert rows == json.loads(RANK2.read_text())
    _stamp(11, "rank-2 hat forms: inversion set <=> meet semilattice", t0, 60.0)


# As `_DICHOTOMY`, for the affine rank-3 types at radius 2.
_DICHOTOMY3 = {
    "A~3": (138, {("finite", "ok"): 1, ("infinite", "ok"): 74,
                  ("neither", "counterexample"): 27, ("neither", "inconclusive"): 36}),
    "B~3": (270, {("finite", "ok"): 1, ("infinite", "ok"): 146,
                  ("neither", "counterexample"): 66, ("neither", "inconclusive"): 57}),
    "C~3": (270, {("finite", "ok"): 1, ("infinite", "ok"): 146,
                  ("neither", "counterexample"): 79, ("neither", "inconclusive"): 44}),
}
# Every row of `_hat_rows(_DICHOTOMY3, 2)`, recorded as RANK2 is.
RANK3 = Path(__file__).parent / "data" / "rank3_hat_forms.json"


def test_criterion_12_rank3_hat_form_dichotomy():
    # criterion 11's dichotomy on every hat form of rank 3, at radius 2; the
    # 137 forms left "inconclusive" are all "neither", left for a certificate
    t0 = time.time()
    rows = _hat_rows(_DICHOTOMY3, 2)
    _assert_dichotomy(rows, _DICHOTOMY3)
    assert rows == json.loads(RANK3.read_text())
    _stamp(12, "rank-3 hat forms: inversion set <=> meet semilattice", t0, 30.0)
