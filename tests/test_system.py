import copy
import pickle
from fractions import Fraction
from math import lcm, prod

import dense_referee as dense
import pytest

from coxtw import linalg
from coxtw.errors import DomainError, ExprError, ValidationError
from coxtw.system import (CoxeterSystem, Root, build_system, parse_cartan_file,
                          parse_root)


def test_type_strings_and_rank_bounds():
    assert build_system("A1").ngens == 1
    assert build_system("E8").rank_finite == 8
    assert build_system("A~2").ngens == 3
    for bad in ("A0", "B1", "C1", "D3", "E5", "E9", "F3", "G3", "H3", "", "2A"):
        with pytest.raises(ExprError):
            build_system(bad)


def test_root_is_an_immutable_value():
    r = Root((1, -2), 3)
    same = [Root([1, -2], 3), Root((1, -2), 3), Root((Fraction(1), Fraction(-4, 2)), Fraction(3))]
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


def test_connection_index_guard_is_not_an_assert(monkeypatch):
    # leading minors of 1/2 pass the positive-definite test, and the last is det(form)
    monkeypatch.setattr(linalg, "leading_minors", lambda a: (Fraction(1, 2),) * len(a))
    with pytest.raises(DomainError, match="determinant"):
        build_system("A2")


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
        assert linalg.leading_minors(form) == minors, system
        assert linalg.det(form) == minors[-1] == dense.det(form), system
        assert system.connection_index == dense.det(system.cartan) == minors[-1] / prod(system.symmetrizer)
        inverse = dense.inverse(form)
        assert system.fundamental_coweights == inverse, system
        # (G, H, N): G the form in integers, H = N·G⁻¹ with N the least such scale
        g, h, n = system.integer_form
        assert g == system.gram == tuple(tuple(int(x * system.form_scale) for x in row) for row in form)
        assert tuple(tuple(Fraction(x, n) for x in row) for row in h) == dense.inverse(g), system
        scale = lcm(*(x.denominator for row in inverse for x in row))
        assert n == scale * system.form_scale, system


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
    for system in _referee_systems():
        want = _positive_roots_by_closure(system.cartan)
        assert [r.coeffs for r in system.positive_roots] == want, system
        assert all(r.delta == 0 for r in system.positive_roots)
    for spec, count in (("A8", 36), ("B8", 64), ("C8", 64), ("D8", 56), ("E7", 63), ("E8", 120)):
        assert len(build_system(spec).positive_roots) == count, spec


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
    assert len(a1.roots_up_to(0)) == 2
    assert len(a1.roots_up_to(1)) == 6
    assert len(a1.positive_roots_up_to(0)) == 1
    assert len(a1.positive_roots_up_to(1)) == 3
    # each level past 0 adds one string element per finite root
    assert len(a1.positive_roots_up_to(3)) == 7


def test_fundamental_coweights_a2():
    a2 = build_system("A2")
    w = a2.fundamental_coweights
    assert w[0] == (Fraction(2, 3), Fraction(1, 3))
    assert w[1] == (Fraction(1, 3), Fraction(2, 3))


def test_dominant_coweight():
    a2 = build_system("A~2")
    assert a2.dominant_coweight_for(()) == (3, 3)
    assert a2.dominant_coweight_for((1,)) == (2, 1)


def test_coroot_lattice_b2():
    b2 = build_system("B2")
    assert b2.in_coroot_lattice((Fraction(1, 2), 1))
    assert b2.in_coroot_lattice((1, 1))
    assert not b2.in_coroot_lattice((Fraction(1, 2), Fraction(1, 2)))


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


def test_bad_cartan_rejected():
    with pytest.raises(ValidationError):
        build_system(cartan=[[2, -1], [0, 2]])     # asymmetric zero pattern
    with pytest.raises(ValidationError):
        build_system(cartan=[[2, 1], [1, 2]])      # positive off-diagonal
    with pytest.raises(ValidationError):
        build_system(cartan=[[1, 0], [0, 2]])      # diagonal not 2
    with pytest.raises(ValidationError):
        build_system(cartan=[[2, -2], [-2, 2]])    # not positive definite
    with pytest.raises(ValidationError):
        build_system(cartan=[[2, 0], [0, 2]], affine=True)  # reducible


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


def test_root_ordering_and_signs():
    assert Root((1, 0)).is_positive
    assert not Root((0, 0)).is_positive
    assert Root((-1, 0), 1).is_positive     # positive by delta level
    assert Root((1, 0), -1).is_negative
    assert -Root((1, 2), 1) == Root((-1, -2), -1)
    assert Root((1, 0), 1).fin() == Root((1, 0))
    assert not Root((0, 0)).is_negative
    for spec in ("A~2", "C~2", "G~2"):
        for rho in build_system(spec).roots_up_to(2):
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
