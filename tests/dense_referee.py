"""Referee kernels for the tests: plain Fraction Gaussian elimination, a
Fraction phase-1 simplex, a Fraction symmetrizer, a scan of all 2ⁿ
subsets for the biclosed ones, twisted positive systems root by root, and
root-by-root oracle membership, with a periodic word's Weyl order and
translation from its own period powers (read through an element's finite
Weyl part, its matrix cut to the finite block), words and inversion sets from a
walk down by descents on whole columns, an element's matrix as a product
of dense reflection matrices, and the roots of both signs up to a δ-level.

These are the textbook algorithms that `coxtw.linalg` replaced with one
fraction-free elimination, `coxtw.feasibility` with an integer two-column
test, `coxtw.system` with an integer symmetrizer, `coxtw.elements` with a
walk on one height per generator,
`coxtw.biclosed.enumerate_biclosed` with a backtracking search,
`coxtw.biclosed.expand_psi` with bit operations on a pattern, and the
oracles with one periodic pattern and one exception mask, kept here so that
the kernels and everything built on them are checked against code that
shares none of them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from coxtw.biclosed import Complement, Explicit, HatForm, Twisted
from coxtw.elements import GroupElement, from_word
from coxtw.errors import DomainError
from coxtw.infwords import WordInvSet
from coxtw.system import Root


def symmetrizer(cartan):
    """The coprime positive d with d_i a_ij = d_j a_ji on each component of the
    Coxeter graph, by propagating Fraction ratios along its edges; ValueError
    if there is none."""
    k = len(cartan)
    d = [None] * k
    for start in range(k):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        component = [start]
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(k):
                if cartan[i][j] == 0 or i == j:
                    continue
                val = d[i] * Fraction(cartan[i][j], cartan[j][i])
                if d[j] is None:
                    d[j] = val
                    component.append(j)
                    stack.append(j)
                elif d[j] != val:
                    raise ValueError("Cartan matrix admits no symmetrizer")
        denom_lcm = lcm(*(d[i].denominator for i in component))
        g = gcd(*(int(d[i] * denom_lcm) for i in component))
        for i in component:
            d[i] = d[i] * denom_lcm / g
    return tuple(d)


def det(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return result


def solve(a, b):
    """x with a x = b, by Gauss-Jordan over all columns of b; ZeroDivisionError if a is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(x) for x in rhs]
         for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def inverse(a):
    n = len(a)
    return solve(a, [[int(i == j) for j in range(n)] for i in range(n)])


def roots_up_to(system, level):
    """All roots up to |δ-level| level (Φ if finite) in `Root.key` order, which
    negation reverses: −Φ⁺ reversed, then Φ⁺."""
    positive = system.positive_roots_up_to(level)
    return tuple(-rho for rho in reversed(positive)) + positive


def peel(system, matrix, guard=100000):
    """(ShortLex word of w⁻¹, Φ_w as a mask) for the integer matrix of w, from
    one walk down by smallest right descent on the whole images v(α_t): with
    v_0 = w and v_{i+1} = v_i·s_i the letters s_i spell the word, and the roots
    −v_i(α_{s_i}) are Φ_w = −w(Φ_{w⁻¹}).  A root is negative by its δ-entry if
    that is nonzero, else by its coefficients.  Four guards reject a matrix that
    is no group element: a descent image that is no negative root, an inversion
    met twice, a walk longer than guard, and a walk that ends away from e."""
    affine = system.kind == "affine"
    images = [[sum(x * c for x, c in zip(row, column)) for row in matrix]
              for column in system.simple_columns]
    out, mask = [], 0
    for _ in range(guard):
        for s, a in enumerate(images):
            if (a[-1] < 0) if affine and a[-1] else min(a) < 0:
                rho = [-c for c in a]
                if (bit := system.column_bit(rho)) is None or bit < 0:
                    raise DomainError(f"inversion {rho} of a reduced word is not positive")
                if mask >> bit & 1:
                    raise DomainError("inversions of a reduced word are not distinct")
                out.append(s)
                mask |= 1 << bit
                for t, c in system.reflection(s):
                    images[t] = [x - c * y for x, y in zip(images[t], a)]
                break
        else:
            break
    else:
        raise DomainError("word extraction did not terminate")
    if tuple(map(tuple, images)) != system.simple_columns:
        raise DomainError("word extraction did not reach the identity")
    return tuple(out), mask


def word_start(w):
    """The heights `GroupElement.word` walks down from, by the dense start it replaced:
    h = (f′·adj G)·w̄ᵀ·G on α_1..α_k, for w̄ the finite block of w's row matrix, G the
    integer Gram matrix, N = det G and adj G = N·G⁻¹ by Fraction elimination, and
    f′ = 1 − (ht θ + 1)·r for r the δ-levels of the w(α_j) (f′ = 1 if finite); and
    N·(ht θ + 1) − Σ θ_i·h_i on the affine α_k.  So h_t = N·f(w⁻¹(α_t)), for f the
    height plus (ht θ + 1)·δ."""
    system, m, k = w.system, w.matrix, w.system.rank_finite
    gram, n = system.gram, int(det(system.gram))
    adj = [[int(x * n) for x in row] for row in inverse(gram)]
    top = sum(system.highest_root.coeffs) + 1 if system.kind == "affine" else 0
    fprime = [1 - top * m[k][j] if top else 1 for j in range(k)]
    fadj = [sum(fprime[i] * adj[i][j] for i in range(k)) for j in range(k)]
    wf = [sum(m[i][j] * fadj[j] for j in range(k)) for i in range(k)]
    h = [sum(wf[i] * gram[i][t] for i in range(k)) for t in range(k)]
    if top:
        h.append(n * top - sum(c * x for c, x in zip(system.highest_root.coeffs, h)))
    return h


def form_content(system):
    """The content (gcd of the entries) of the integer Gram matrix G times that of
    adj G, both by Fraction elimination: the factor by which the dense start's h
    exceeds the one `GroupElement.word` reads."""
    n = det(system.gram)
    adj = [x * n for row in inverse(system.gram) for x in row]
    return gcd(*(x for row in system.gram for x in row)) * gcd(*map(int, adj))


def form_pairings(system, coeffs):
    """(α_t, r) for t < k and r = Σ c_i·α_i, on the primitive integer multiple of the
    Fraction form: the entries of one slot of `CoxeterSystem._pairings`."""
    scale = lcm(*(Fraction(x).denominator for row in system.form for x in row))
    ints = [[int(x * scale) for x in row] for row in system.form]
    g = gcd(*(x for row in ints for x in row))
    return [sum(x * c for x, c in zip(row, coeffs)) // g for row in ints]


def word_matrix(system, word):
    """The row matrix of s_1⋯s_m over (α_1..α_k, δ if affine), a product of dense
    reflection matrices: s(v) = v − 2(v, α_s)/(α_s, α_s)·α_s, with the Fraction
    form on the finite coordinates, so δ pairs to zero and α_k = δ − θ if affine."""
    k, dim = system.rank_finite, system.dim
    simples = [[int(i == s) for i in range(dim)] for s in range(k)]
    if system.kind == "affine":
        simples.append([-c for c in system.highest_root.coeffs] + [1])

    def pair(u, v):
        return sum(u[i] * system.form[i][j] * v[j] for i in range(k) for j in range(k))

    m = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for s in word:
        a = simples[s]
        cols = [[int(i == j) - Fraction(2 * pair([int(i == j) for i in range(dim)], a),
                                        pair(a, a)) * a[i]
                 for i in range(dim)] for j in range(dim)]
        m = [[sum(row[t] * cols[j][t] for t in range(dim)) for j in range(dim)] for row in m]
    return tuple(map(tuple, m))


def leading_minors(a):
    """Every leading principal minor, each a determinant of its own, up to the first zero."""
    out = []
    for t in range(1, len(a) + 1):
        out.append(det([row[:t] for row in a[:t]]))
        if not out[-1]:
            break
    return tuple(out)


def solve_nonneg(rows, rhs):
    """A nonnegative x with rows·x = rhs, or None: a phase-1 simplex over
    Fractions with Bland's rule, which terminates without degeneracy tricks."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    tab = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    for i in range(m):
        if b[i] < 0:
            tab[i] = [-x for x in tab[i]]
            b[i] = -b[i]

    # Columns 0..n-1 are the original variables, n..n+m-1 the artificials.
    for i in range(m):
        tab[i].extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
    basis = [n + i for i in range(m)]

    # Objective: minimize the sum of artificials.  cost[j] holds the reduced
    # cost, cost_b the current (negated) objective value.
    total = n + m
    cost = [Fraction(0)] * total
    cost_b = Fraction(0)
    for i in range(m):
        for j in range(total):
            cost[j] -= tab[i][j]
        cost_b -= b[i]

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland: among rows with tab[i][enter] > 0, pick the one whose basic
        # variable has the smallest index, after the min-ratio filter.
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = b[i] / tab[i][enter]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            # Unbounded phase-1 cannot happen (objective is bounded below by
            # zero), but guard anyway.
            return None
        _, row = best
        piv = tab[row][enter]
        tab[row] = [x / piv for x in tab[row]]
        b[row] /= piv
        for i in range(m):
            if i != row and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
                b[i] -= f * b[row]
        if cost[enter]:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[row])]
            cost_b -= f * b[row]
        basis[row] = enter

    if cost_b != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = b[i]
        elif b[i] != 0:
            # Artificial stuck in the basis at a nonzero value despite a zero
            # objective is impossible; keep the honest answer if it happens.
            return None
    return x


def biclosed_subsets(roots, in_cone):
    """Every subset S of the roots (a list) with S and its complement both
    2-closed, as sorted tuples of indices, by scanning all 2ⁿ bitmasks.
    in_cone(g1, g2, t) says whether root t is a nonnegative combination of
    roots g1 and g2."""
    n = len(roots)
    cones = {}
    for i, j in combinations(range(n), 2):
        cones[i, j] = sum(1 << t for t in range(n)
                          if t in (i, j) or in_cone(roots[i], roots[j], roots[t]))

    def closed(s):
        idx = [t for t in range(n) if s >> t & 1]
        return all(cones[i, j] & ~s == 0 for i, j in combinations(idx, 2))

    full = (1 << n) - 1
    return [tuple(t for t in range(n) if s >> t & 1)
            for s in range(1 << n) if closed(s) and closed(full & ~s)]


@lru_cache(maxsize=256)
def twisted_positive_system(u, delta1, delta2) -> frozenset:
    """u((Φ⁺ ∖ R≥0Δ1) ∪ RΔ2∩Φ) as a set of roots: for each β > 0, u(β) unless
    β's support lies in Δ1, and −u(β) too if it lies in Δ2.  Δ1 and Δ2 are
    frozensets, and are not validated."""
    out = set()
    for beta in u.system.positive_roots:
        support = {i for i, c in enumerate(beta.coeffs) if c}
        image = u.apply(beta)
        if not support <= delta1:
            out.add(image)
        if support <= delta2:
            out |= {image, -image}
    return frozenset(out)


def member(oracle, rho) -> bool:
    """Is the positive root ρ in B?  Asked of each kind by its own definition."""
    if isinstance(oracle, Explicit):
        return rho in oracle.roots
    if isinstance(oracle, HatForm):
        return Root(rho.coeffs) in twisted_positive_system(oracle.u, oracle.delta1, oracle.delta2)
    if isinstance(oracle, Complement):
        return not member(oracle.inner, rho)
    if isinstance(oracle, Twisted):   # w·B through w⁻¹
        sigma = oracle.w.inverse().apply(rho)
        return member(oracle.inner, sigma) if sigma.is_positive else not member(oracle.inner, -sigma)
    if isinstance(oracle, WordInvSet):
        return _word_member(oracle.word, rho)
    raise TypeError(f"no referee for {type(oracle).__name__}")


def weyl_part(w):
    """The finite Weyl component of w = w̄·t_λ, embedded back as an affine element."""
    if w.system.kind != "affine":
        return w
    k = w.system.rank_finite
    m = [list(row[:k]) + [0] for row in w.matrix[:k]]
    return GroupElement(w.system, m + [[0] * k + [1]])


def period_translation(word):
    """(m, t_μ): the order m of the period's Weyl part and period^m = t_μ, by
    products of the period's element with itself; (0, None) with no period."""
    if not word.period:
        return 0, None
    step = from_word(word.system, word.period)
    power, order = step, 1
    while not weyl_part(power).is_identity:
        power, order = power * step, order + 1
    return order, power


def _pairs_positively(beta, t_mu) -> bool:
    """(β, μ) > 0, read off the δ-row ((α_j, μ))_j of t_μ."""
    row = t_mu.matrix[-1]
    return sum(c * d for c, d in zip(beta.coeffs, row)) > 0


def _word_member(word, rho) -> bool:
    """ρ ∈ Φ_x for x = prefix·period^∞: ρ ∈ Φ_prefix, or σ = prefix⁻¹ρ is sent
    negative by some period^{-k}.  With k = i·m + j, period^{-k}(σ) is
    period^{-j}(σ) − i·(σ, μ)·δ, so (σ, μ) > 0 or some j < m decides."""
    sigma = from_word(word.system, word.prefix).inverse().apply(rho)
    if sigma.is_negative:
        return True
    order, t_mu = period_translation(word)
    if not order:
        return False
    if _pairs_positively(sigma, t_mu):
        return True
    step = power = from_word(word.system, word.period).inverse()
    for _ in range(1, order):
        if power.apply(sigma).is_negative:
            return True
        power = power * step
    return False


def limit_roots(oracle) -> frozenset:
    """The finite roots whose δ-strings end inside B, kind by kind."""
    system = oracle.system
    if isinstance(oracle, Explicit):
        return frozenset()
    if isinstance(oracle, HatForm):
        return twisted_positive_system(oracle.u, oracle.delta1, oracle.delta2)
    if isinstance(oracle, Complement):
        return frozenset(system.finite_roots) - limit_roots(oracle.inner)
    if isinstance(oracle, Twisted):
        wbar = weyl_part(oracle.w)
        return frozenset(wbar.apply(alpha) for alpha in limit_roots(oracle.inner))
    if isinstance(oracle, WordInvSet):
        word = oracle.word
        order, t_mu = period_translation(word)
        pbar = weyl_part(from_word(system, word.prefix))
        return frozenset(pbar.apply(beta) for beta in system.finite_roots
                         if order and _pairs_positively(beta, t_mu))
    raise TypeError(f"no referee for {type(oracle).__name__}")
