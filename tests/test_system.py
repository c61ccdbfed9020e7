import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import mul

import dense_referee as dense
import pytest

from coxtw import linalg
from coxtw.elements import from_word, translation
from coxtw.errors import DomainError, ExprError, ValidationError
from coxtw.system import (CoxeterSystem, Root, _auto_symmetrizer, build_system,
                          parse_cartan_file, parse_root)


def test_type_strings_and_rank_bounds():
    assert build_system("A1").ngens == 1
    assert build_system("E8").rank_finite == 8
    assert build_system("A~2").ngens == 3
    for bad in ("A0", "B1", "C1", "D3", "E5", "E9", "F3", "G3", "H3", "", "2A"):
        with pytest.raises(ExprError):
            build_system(bad)


def test_root_is_an_immutable_value():
    r = Root((1, -2), 3)
    same = [Root([1, -2], 3), Root((1, -2), 3), Root((Fraction(1), Fraction(-4, 2)), Fraction(3)),
            Root((Fraction(c) for c in (1, -2)), 3)]
    for other in same:
        assert other == r and hash(other) == hash(r)
        assert other.coeffs == (1, -2) and type(other.coeffs[0]) is int
    assert r != Root((1, -2), 2) and r != Root((1, -1), 3)
    assert r != ((1, -2), 3) and r != (3, (1, -2))
    assert -(-r) == r and -r == Root((-1, 2), -3)
    assert {r: "x"}[Root([1, -2], 3)] == "x"
    assert Root((1, -2), 3) in frozenset({r}) and len({r, *same}) == 1
    assert repr(r) == "Root(delta=3, coeffs=(1, -2))"
    assert copy.deepcopy(r) == r and pickle.loads(pickle.dumps(r)) == r
    for name in ("delta", "coeffs", "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    with pytest.raises(AttributeError):
        del r.delta
    assert (r.delta, r.coeffs) == (3, (1, -2))


def test_root_refuses_entries_that_are_not_integers():
    for coeffs, delta in (((1.7, 0), 0), (("1", 0), 0), ((1, 0), Fraction(1, 2)),
                          ((1.0, 0), 0), ((None,), 0)):
        with pytest.raises(DomainError, match="not all integers"):
            Root(coeffs, delta)
    with pytest.raises(DomainError):
        build_system("A2").root_bit(Root((1.9, 0.2)))


def test_positive_root_counts():
    for spec, count in (("A2", 3), ("B2", 4), ("C3", 9), ("G2", 6),
                        ("A3", 6), ("D4", 12), ("F4", 24), ("E6", 36)):
        assert len(build_system(spec).positive_roots) == count, spec


def test_symmetrizer_normalization():
    assert build_system("A3").symmetrizer == (1, 1, 1)
    assert build_system("B2").symmetrizer == (2, 1)
    assert build_system("C3").symmetrizer == (1, 1, 2)
    assert build_system("F4").symmetrizer == (2, 2, 1, 1)
    assert build_system("G2").symmetrizer == (3, 1)


def test_highest_roots():
    assert build_system("A~2").highest_root == Root((1, 1))
    assert build_system("B~2").highest_root == Root((1, 2))
    assert build_system("G~2").highest_root == Root((2, 3))


def test_connection_index():
    for spec, idx in (("A2", 3), ("A3", 4), ("B2", 2), ("D4", 4),
                      ("E6", 3), ("F4", 1), ("G2", 1)):
        assert build_system(spec).connection_index == idx, spec


def test_connection_index_guard_is_not_an_assert():
    # the connection index is det(cartan), the last leading minor, an int with
    # no check needed: `leading_minors` reads its input through `operator.index`
    # and divides exactly in integers, so a Fraction entry never gets that far
    for spec in ("A2", "G2", "E8", "B~3"):
        assert type(build_system(spec).connection_index) is int, spec
    with pytest.raises(TypeError):
        linalg.leading_minors([[Fraction(2), -1], [-1, 2]])


@pytest.mark.parametrize("cartan, t", [
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 3),
    ([[2, -2], [-2, 2]], 2),
    ([[2, -3], [-3, 2]], 2),                  # a negative minor, not a zero one
    ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -2, 2]], 4),
])
def test_positive_definite_message_names_the_first_bad_minor(cartan, t):
    with pytest.raises(ValidationError, match=rf"\(leading minor {t} is non-positive\)"):
        build_system(cartan=cartan)


def _a_chain(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def test_rank_is_capped_where_cartan_data_enters():
    # every simple root is named by one letter
    assert build_system(cartan=_a_chain(26)).simple_names[-1] == "z"
    with pytest.raises(ValidationError, match="rank 27"):
        build_system(cartan=_a_chain(27))
    text = "rank 27\n" + "".join(" ".join(map(str, row)) + "\n" for row in _a_chain(27))
    with pytest.raises(ValidationError, match="rank 27"):
        parse_cartan_file(text)


REFEREE_SPECS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                 + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
                 + ["E6", "E7", "E8", "F4", "G2", "A~1", "A~2", "A~3", "B~2", "B~3",
                    "C~2", "C~3", "D~4", "E~6", "E~8", "F~4", "G~2"])


def _referee_systems():
    systems = [build_system(spec) for spec in REFEREE_SPECS]
    # the finite part of B~3 with a rational symmetrizer
    return systems + [build_system(cartan=[[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
                                   symmetrizer=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)),
                                   affine=True)]


def test_system_build_matches_the_dense_referee():
    for system in _referee_systems():
        form, k = system.form, system.rank_finite
        minors = dense.leading_minors(form)
        assert len(minors) == k and all(m > 0 for m in minors), system
        assert linalg.leading_minors(system.gram) == dense.leading_minors(system.gram), system
        assert minors[-1] == dense.det(form), system
        assert system.connection_index == dense.det(system.cartan) == minors[-1] / prod(system.symmetrizer)
        # (G, H, N): G the form in integers, N = det G and H = N·G⁻¹ = adj G
        g, h, n = system.integer_form
        assert g == system.gram == tuple(tuple(int(x * system.form_scale) for x in row) for row in form)
        assert tuple(tuple(Fraction(x, n) for x in row) for row in h) == dense.inverse(g), system
        assert n == dense.det(g), system


def test_dominant_coweights_match_the_dense_referee():
    # c·Σ_{i∉L} ω_i, c the connection index, for L empty, one simple, and all but one
    for system in _referee_systems():
        k, inverse = system.rank_finite, dense.inverse(system.form)
        singles = [{i} for i in range(k)]
        for avoid in [set()] + singles + [set(range(k)) - s for s in singles]:
            want = tuple(system.connection_index * sum(inverse[i][j] for i in range(k) if i not in avoid)
                         for j in range(k))
            assert system.dominant_coweight_for(avoid) == want, (system, avoid)


def _block_diagonal(*blocks):
    n = sum(map(len, blocks))
    out, at = [[0] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            out[at + i][at:at + len(row)] = row
        at += len(block)
    return out


B2_, C3_, G2_ = ([[2, -1], [-2, 2]], [[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [[2, -1], [-3, 2]])


def test_integer_symmetrizer_matches_the_fraction_referee():
    # reducible matrices are rescaled component by component
    reducible = [_block_diagonal(*blocks) for blocks in
                 (([[2]], [[2]]), (B2_, G2_), (C3_, G2_), (G2_, C3_), (G2_, B2_, [[2]]))]
    for cartan in [system.cartan for system in _referee_systems()] + reducible:
        d = _auto_symmetrizer(cartan)
        assert d == dense.symmetrizer(cartan) and all(type(x) is int for x in d), cartan
    for cartan in reducible:
        assert build_system(cartan=cartan).symmetrizer == dense.symmetrizer(cartan)
    # random symmetrizable matrices d_i a_ij = -m_ij lcm(d_i, d_j), cycles included,
    # and each again with one entry doubled: on an edge of a cycle, that leaves none
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randrange(1, 7)
        d = [rng.choice((1, 2, 3, 4, 6)) for _ in range(k)]
        m = [[0] * k for _ in range(k)]
        for i, j in combinations(range(k), 2):
            m[i][j] = m[j][i] = rng.choice((0, 0, 1, 2))
        cartan = [[2 if i == j else -m[i][j] * lcm(d[i], d[j]) // d[i] for j in range(k)]
                  for i in range(k)]
        assert _auto_symmetrizer(cartan) == dense.symmetrizer(cartan), cartan
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        cartan[i][j] *= 2
        try:
            want = dense.symmetrizer(cartan)
        except ValueError:
            with pytest.raises(ValidationError, match="no symmetrizer"):
                _auto_symmetrizer(cartan)
        else:
            assert _auto_symmetrizer(cartan) == want, cartan
    no_symmetrizer = [[2, -1, -1], [-1, 2, -1], [-1, -2, 2]]
    with pytest.raises(ValueError):
        dense.symmetrizer(no_symmetrizer)
    with pytest.raises(ValidationError, match="no symmetrizer"):
        build_system(cartan=no_symmetrizer)


def test_type_string_builds_are_integer():
    for spec in REFEREE_SPECS:
        system = build_system(spec)
        _, cartan, d = system.key
        assert all(type(x) is int for x in d), spec
        assert all(type(x) is int for m in (system.form, system.gram) for row in m for x in row), spec
        assert all(type(x) is Fraction for x in system.symmetrizer), spec
        assert system.symmetrizer == dense.symmetrizer(cartan) == d, spec
    a2 = [[2, -1], [-1, 2]]
    given = build_system(cartan=a2, symmetrizer=(1, 1))
    assert build_system("A2") == given and hash(build_system("A2")) == hash(given)


def _positive_roots_by_closure(cartan):
    # every root is a W-image of a simple root: close the simples under every s_i
    k = len(cartan)
    roots = {tuple(int(i == j) for j in range(k)) for i in range(k)}
    todo = list(roots)
    while todo:
        v = todo.pop()
        for i in range(k):
            w = tuple(x - (j == i) * sum(a * y for a, y in zip(cartan[i], v)) for j, x in enumerate(v))
            if w not in roots:
                roots.add(w)
                todo.append(w)
    return sorted(v for v in roots if min(v) >= 0)


def test_positive_roots_match_the_closure_of_the_simple_roots():
    # two reducible inputs, A1×A2 and B2×G2, the second as `--cartan` reads it
    reducible = [build_system(cartan=_block_diagonal([[2]], [[2, -1], [-1, 2]])),
                 parse_cartan_file("rank 4\n2 -1 0 0\n-2 2 0 0\n0 0 2 -1\n0 0 -3 2\n")]
    assert [len(system.positive_roots) for system in reducible] == [4, 10]
    for system in _referee_systems() + reducible:
        want = _positive_roots_by_closure(system.cartan)
        assert [r.coeffs for r in system.positive_roots] == want, system
        assert all(r.delta == 0 for r in system.positive_roots)
    for spec, count in (("A8", 36), ("B8", 64), ("C8", 64), ("D8", 56), ("E7", 63), ("E8", 120)):
        assert len(build_system(spec).positive_roots) == count, spec


def test_reflection_table_matches_the_fraction_form():
    # row s holds the nonzero 2(α_t, α_s)/(α_s, α_s) as (t, int) pairs, read here off
    # the Fraction form with δ pairing to zero, so the affine α_k = δ − θ pairs as −θ
    for system in _referee_systems():
        form, k = system.form, system.rank_finite
        simples = [system.simple_root(s).coeffs for s in range(system.ngens)]

        def dot(u, v):
            return sum(u[i] * form[i][j] * v[j] for i in range(k) for j in range(k))

        for s, a in enumerate(simples):
            want = tuple((t, Fraction(2 * dot(b, a), dot(a, a)))
                         for t, b in enumerate(simples) if dot(b, a))
            assert system._reflections[s] == want, (system, s)
            assert all(type(c) is int for _, c in system._reflections[s]), (system, s)


def test_affine_pairing_guard_is_not_an_assert(monkeypatch):
    # 2a+b is no root of B2: its coroot pairs with a to 6/5
    monkeypatch.setattr(CoxeterSystem, "_find_highest_root", lambda self: Root((2, 1)))
    with pytest.raises(DomainError, match="not an integer"):
        build_system("B~2")


def test_simple_names_affine_label():
    assert build_system("A~1").simple_names == ("a", "d-a")
    assert build_system("A~2").simple_names == ("a", "b", "d-a-b")
    assert build_system("G~2").simple_names == ("a", "b", "d-2a-3b")


def test_affine_simple_root():
    a1 = build_system("A~1")
    assert a1.simple_root(1) == Root((-1,), 1)
    assert a1.simple_root(0) == Root((1,))


def test_roots_up_to_counts():
    a1 = build_system("A~1")
    assert len(dense.roots_up_to(a1, 0)) == 2
    assert len(dense.roots_up_to(a1, 1)) == 6
    assert len(a1.positive_roots_up_to(0)) == 1
    assert len(a1.positive_roots_up_to(1)) == 3
    # each level past 0 adds one string element per finite root
    assert len(a1.positive_roots_up_to(3)) == 7


@pytest.mark.parametrize("spec", ["A2", "B3", "A~1", "A~2", "B~3", "G~2", "E~6", "F~4"])
def test_roots_up_to_match_a_filter_of_every_level(spec):
    # positive_roots_up_to builds only the roots it returns: the same tuple as every
    # root at δ-levels −L..L (level 0 alone if finite) in `Root.key` order, filtered
    # to the positive ones, and the referee's roots_up_to, −Φ⁺ then Φ⁺, is that whole list
    system = build_system(spec)
    for level in range(6):
        levels = range(-level, level + 1) if system.kind == "affine" else (0,)
        every = sorted((Root(v.coeffs, n) for n in levels for v in system.finite_roots),
                       key=lambda r: r.key)
        assert dense.roots_up_to(system, level) == tuple(every), (spec, level)
        assert system.positive_roots_up_to(level) == tuple(
            r for r in every if r.is_positive), (spec, level)


def test_fundamental_coweights_a2():
    # c·ω_i, for c = 3 the connection index, is the dominant coweight that
    # vanishes on every simple root but α_i
    a2 = build_system("A2")
    assert a2.connection_index == 3
    assert a2.dominant_coweight_for({1}) == (2, 1)   # 3·(2/3, 1/3)
    assert a2.dominant_coweight_for({0}) == (1, 2)   # 3·(1/3, 2/3)


def test_dominant_coweight():
    a2 = build_system("A~2")
    assert a2.dominant_coweight_for(()) == (3, 3)
    assert a2.dominant_coweight_for((1,)) == (2, 1)


def test_coroot_lattice_b2():
    # λ = Σ λ_i·α_i is in the coroot lattice iff each λ_i·d_i is an integer,
    # and t_λ(α_j) = α_j + (α_j, λ)·δ
    b2 = build_system("B~2")
    for lam in ((Fraction(1, 2), 1), (1, 1)):
        t = translation(b2, lam)
        for j in range(2):
            alpha = b2.simple_root(j)
            assert t.apply(alpha) == Root(alpha.coeffs, sum(map(mul, lam, b2.form[j])))
        assert t == from_word(b2, t.word) and not t.is_identity
    with pytest.raises(DomainError, match="coroot lattice"):
        translation(b2, (Fraction(1, 2), Fraction(1, 2)))


def test_inner_products():
    a2 = build_system("A2")
    assert a2.form == ((2, -1), (-1, 2))
    g2 = build_system("G2")
    assert g2.form[0][0] == 6
    assert g2.form[1][1] == 2


def test_is_root():
    a2 = build_system("A2")
    assert a2.is_root(Root((1, 1)))
    assert not a2.is_root(Root((2, 1)))
    assert not a2.is_root(Root((0, 0)))
    aff = build_system("A~1")
    assert aff.is_root(Root((-1,), 1))
    assert not aff.is_root(Root((0,), 1))   # delta itself is not a root


def test_pattern_names_each_root_once():
    # a repeated root sets its own bit once and names no other root (adding
    # the bits carried a repeat of (0,1) on A2 into the bit of (1,0))
    rng = random.Random(41)
    a2 = build_system("A2")
    r = a2.positive_roots[0]
    assert a2.pattern_roots(a2.pattern([r, r])) == {r}
    for spec in ("A2", "B3", "G2", "D4", "A~2"):
        system = build_system(spec)
        pool = system.finite_roots
        for _ in range(30):
            roots = [rng.choice(pool) for _ in range(rng.randint(0, 3 * len(pool)))]
            assert system.pattern_roots(system.pattern(roots)) == set(roots), (spec, roots)


def test_bad_cartan_rejected():
    with pytest.raises(ValidationError):
        build_system(cartan=[[2, -1], [0, 2]])     # asymmetric zero pattern
    with pytest.raises(ValidationError):
        build_system(cartan=[[2, 1], [1, 2]])      # positive off-diagonal
    with pytest.raises(ValidationError):
        build_system(cartan=[[1, 0], [0, 2]])      # diagonal not 2
    with pytest.raises(ValidationError):
        build_system(cartan=[[2, -2], [-2, 2]])    # not positive definite
    with pytest.raises(ValidationError, match="integers"):
        build_system(cartan=[[2, -1.5], [-1, 2]])  # not an integer
    with pytest.raises(ValidationError, match="irreducible"):
        build_system(cartan=[[2, 0], [0, 2]], affine=True)  # reducible
    with pytest.raises(ValidationError, match="square and nonempty"):
        CoxeterSystem([[2, -1]])
    with pytest.raises(ValidationError, match="positive vector of length rank"):
        build_system(cartan=[[2, -1], [-1, 2]], symmetrizer=[1])
    with pytest.raises(ExprError, match="needs a type string or a Cartan matrix"):
        build_system()


def test_explicit_symmetrizer_checked():
    with pytest.raises(ValidationError):
        build_system(cartan=[[2, -1], [-2, 2]], symmetrizer=[1, 1])
    ok = build_system(cartan=[[2, -1], [-2, 2]], symmetrizer=[2, 1])
    assert ok.symmetrizer == (2, 1)


def test_root_literals_roundtrip():
    r = Root((-1, 2), 3)
    assert r.literal() == "-1.2:3"
    assert parse_root(r.literal(), 2) == r
    assert parse_root("1.0", 2) == Root((1, 0))
    with pytest.raises(ExprError):
        parse_root("1.x", 2)
    with pytest.raises(ExprError):
        parse_root("1.0.0", 2)
    with pytest.raises(ExprError, match="bad delta level"):
        parse_root("1.0:x", 2)


def test_root_ordering_and_signs():
    assert Root((1, 0)).is_positive
    assert not Root((0, 0)).is_positive
    assert Root((-1, 0), 1).is_positive     # positive by delta level
    assert Root((1, 0), -1).is_negative
    assert -Root((1, 2), 1) == Root((-1, -2), -1)
    assert not Root((0, 0)).is_negative
    for spec in ("A~2", "C~2", "G~2"):
        for rho in dense.roots_up_to(build_system(spec), 2):
            assert rho.is_negative == (-rho).is_positive, (spec, rho)


def test_cartan_file():
    sys2 = parse_cartan_file("# a B2 system\nrank 2\n2 -1\n-2 2\n")
    assert sys2.kind == "finite" and len(sys2.positive_roots) == 4
    aff = parse_cartan_file("rank 2 affine\n2 -1\n-1 2\nsymmetrizer 1 1\n")
    assert aff.kind == "affine" and aff.ngens == 3
    for bad in ("", "rank x\n2", "rank 2\n2 -1\n", "rank 2\n2 -1\n-2 2\njunk\n",
                "rank 2 extra flag\n2 -1\n-2 2\n", "rank 2\n2 -1 0\n-2 2\n"):
        with pytest.raises(ValidationError):
            parse_cartan_file(bad)


def test_metadata_shape():
    b2t = build_system("B~2")
    assert b2t.kind == "affine"
    assert b2t.type_string == "B~2"
    assert b2t.cartan == ((2, -1), (-2, 2))
    assert b2t.simple_names == ("a", "b", "d-a-2b")


def test_system_equality_and_key():
    assert build_system("A2") == build_system("A2")
    assert build_system("A2") != build_system("A~2")
    assert hash(build_system("B2")) == hash(build_system("B2"))
