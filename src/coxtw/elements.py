"""Group elements as exact integer matrices acting on the root lattice.

An element is the matrix of its action on the basis (α_1,...,α_k) for a
finite system, or (α_1,...,α_k,δ) for an affine one; column j is the image
of basis vector j.  Equality of elements is equality of matrices, so words
never need to be compared up to braid moves.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index, mul

from .errors import DomainError
from .system import CoxeterSystem, Root

_WORD_GUARD = 100000


class GroupElement:
    __slots__ = ("system", "matrix", "_word", "_mask")

    def __init__(self, system: CoxeterSystem, matrix):
        self.system = system
        self.matrix = tuple(map(tuple, matrix))
        self._word = self._mask = None

    # -- identity, equality --------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.system.key == other.system.key
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.system.key, self.matrix))

    def __repr__(self):
        return f"GroupElement({list(self.word)})"

    @property
    def is_identity(self) -> bool:
        return self.matrix == self.system.identity_matrix

    # -- multiplication ------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.system.key != other.system.key:
            raise DomainError("cannot multiply elements of different systems")
        cols = list(zip(*other.matrix))
        return GroupElement(self.system, [[sum(map(mul, row, col)) for col in cols]
                                          for row in self.matrix])

    def mul_simple(self, s: int, image=None, mask=None) -> "GroupElement":
        """w·s, column by column: (w·s)(α_j) = w(α_j) − ⟨α_j, α_s^∨⟩·w(α_s), where
        image is w(α_s), in the caller's hand, and mask Φ_ws if read off it; with
        no image, w·s is walked, which certifies a bare w first and records Φ_ws."""
        if image is None:
            return walk(self, (s,))
        pairs = self.system.reflection(s)[0]
        rows = []
        for row, x in zip(self.matrix, image):
            if x:
                row = list(row)
                for j, c in pairs:
                    row[j] -= c * x
            rows.append(row)
        el = GroupElement(self.system, rows)
        el._mask = mask
        return el

    def inverse(self) -> "GroupElement":
        """w⁻¹ = s_m⋯s_1 for the word s_1⋯s_m of w, walked from e, so Φ_{w⁻¹} is recorded."""
        return walk(identity(self.system), self.word[::-1])

    # -- action on roots -----------------------------------------------

    def apply(self, rho: Root) -> Root:
        """Image of a root-lattice vector; no root-validity check, but the vector
        must have rank_finite coefficients, and δ-level 0 on a finite system."""
        k = self.system.rank_finite
        if len(rho.coeffs) != k or (rho.delta and self.system.kind == "finite"):
            raise DomainError(f"{rho} is not in the root lattice of this system")
        vec = (rho.coeffs + (rho.delta,))[:self.system.dim]
        out = [sum(map(mul, row, vec)) for row in self.matrix]
        return Root(out[:k], out[k] if len(out) > k else 0)

    # -- words and lengths ---------------------------------------------

    def _read_word(self) -> None:
        """Set the ShortLex word of w by walking v = w⁻¹ down by its smallest right
        descent, which is the first s with h_s < 0 for h_t = N·f(v(α_t)): f is the
        height, plus (ht θ + 1)·δ if affine, so it is positive exactly on Φ⁺, and
        v·s moves h_t −= ⟨α_t, α_s^∨⟩·h_s.  w̄ preserves the form G, so w̄⁻¹ =
        adj G·w̄ᵀ·G / N, and w⁻¹ = [[w̄⁻¹, 0], [−r·w̄⁻¹, 1]] for r the δ-row of w:
        the start is h = (f′·adj G)·w̄ᵀ·G on α_1..α_k with f′ = f − f(δ)·r, with
        no inverse matrix.  A matrix with no Φ recorded is certified by walking
        its word from e, which records Φ_w; a failure sets nothing."""
        system, m = self.system, self.matrix
        gram, adj, n = system.integer_form   # both symmetric: rows are columns
        k = system.rank_finite
        top = 0
        f = [1] * k
        if system.kind == "affine":
            top = sum(system.highest_root.coeffs) + 1   # f(δ)
            f = [1 - top * r for r in m[k][:k]]
        fadj = [sum(map(mul, f, row)) for row in adj]
        wf = [sum(map(mul, row, fadj)) for row in m[:k]]
        h = [sum(map(mul, wf, row)) for row in gram]
        if top:   # the affine α_k = δ − θ
            h.append(n * top - sum(map(mul, h, system.highest_root.coeffs)))
        reflections, word = system._reflections, []
        for _ in range(_WORD_GUARD):
            for s, x in enumerate(h):
                if x < 0:
                    break
            else:
                break
            word.append(s)
            for t, c in reflections[s][1]:
                h[t] -= c * x
        else:
            raise DomainError("word extraction did not terminate")
        if self._mask is None:
            built = from_word(system, word)
            if built.matrix != m:
                raise DomainError("matrix is no group element: its word does not rebuild it")
            self._mask = built._mask
        self._word = tuple(word)

    @property
    def word(self) -> tuple[int, ...]:
        """The ShortLex-minimal reduced word."""
        if self._word is None:
            self._read_word()
        return self._word

    @property
    def length(self) -> int:
        """l(w) = |word| if the word is known, else |Φ_w|."""
        if self._word is not None:
            return len(self._word)
        return self.inversion_mask().bit_count()

    def inversion_mask(self) -> int:
        """Φ_w over the system's root index, as recorded by the walk that built w,
        or by the walk that certified its word."""
        if self._mask is None:
            self._read_word()
        return self._mask

    def inversion_set(self) -> frozenset[Root]:
        """Φ_w = {positive roots sent negative by w^{-1}}, decoded from the mask."""
        mask, bit_root = self.inversion_mask(), self.system.bit_root
        return frozenset(bit_root(b) for b in range(mask.bit_length()) if mask >> b & 1)

    def label(self) -> str:
        names = [self.system.simple_names[s] for s in self.word]
        return " ".join(f"s_{nm}" if len(nm) == 1 else f"s_{{{nm}}}" for nm in names) or "e"


def identity(system: CoxeterSystem) -> GroupElement:
    el = GroupElement(system, system.identity_matrix)
    el._word, el._mask = (), 0
    return el


def simple(system: CoxeterSystem, s: int) -> GroupElement:
    return identity(system).mul_simple(s)


def from_word(system: CoxeterSystem, word) -> GroupElement:
    """s_1⋯s_m, walked from e."""
    return walk(identity(system), word)


def walk(w: GroupElement, word) -> GroupElement:
    """w·s_1⋯s_m by column updates on one mutable matrix, recording Φ on the way: each
    letter s, an index below ngens by `operator.index`, has the signed bit b of w(α_s),
    and by the exchange property Φ_ws is Φ_w ⊔ {b} if b ≥ 0, else Φ_w ∖ {~b}."""
    system = w.system
    k, reflections, column_bit = system.rank_finite, system._reflections, system.column_bit
    rows = [list(row) for row in w.matrix]
    mask = w.inversion_mask()
    for letter in word:
        try:   # a negative index would wrap, so it reads the empty tuple instead
            pairs = (reflections[s] if (s := index(letter)) >= 0 else ())[0]
        except (TypeError, IndexError):
            raise DomainError(f"no simple reflection with index {letter!r}") from None
        image = [row[s] for row in rows] if s < k else _image(system, rows, s)
        bit = column_bit(image)
        if bit is None or (mask >> (b := ~bit if bit < 0 else bit) & 1) != (bit < 0):
            raise DomainError(f"the inversions of the word lost track at letter {s}")
        mask ^= 1 << b
        for row, x in zip(rows, image):
            if x:
                for j, c in pairs:
                    row[j] -= c * x
    el = GroupElement(system, rows)
    el._mask = mask
    return el


def _image(system: CoxeterSystem, rows, s: int) -> list[int]:
    """w(α_s) as an integer column of w's rows: column s itself for a finite simple root."""
    if s < system.rank_finite:
        return [row[s] for row in rows]
    column = system.simple_columns[s]
    return [sum(map(mul, row, column)) for row in rows]


# Weak-order walks.  In the right weak order x ≤ y iff Φ_x ⊆ Φ_y, and
# Φ_{ws} = Φ_w ⊔ {w(α_s)} whenever w(α_s) is positive: a walk up from e
# adds one inversion per step, so each step is an ascent iff Φ only grows.


def grow(system: CoxeterSystem, level, keep=None) -> list[GroupElement]:
    """One level up: the w·s (w in level) with w(α_s) positive, that is of bit ≥ 0,
    and that bit kept by keep (None keeps all), each built once, for a new Φ_ws =
    Φ_w ⊔ {w(α_s)}.  level must hold every length-d element whose inversions are all
    kept, in ShortLex order, as on any walk up from e; then y is first found from its
    least (rank of w, s), so NF(y) = NF(w)·s: each word is inherited, in ShortLex order."""
    grown = {}
    for w in level:
        mask, word = w.inversion_mask(), w.word
        for s in range(system.ngens):
            image = _image(system, w.matrix, s)
            if (bit := system.column_bit(image)) < 0 or keep and not keep(bit):
                continue
            if (up := mask | 1 << bit) not in grown:
                y = grown[up] = w.mul_simple(s, image, up)
                y._word = word + (s,)
    return list(grown.values())


def ascend(system: CoxeterSystem, mask: int) -> GroupElement:
    """Greedy ascent from e: step to w·s, smallest s first, while w(α_s) is in mask.

    mask must be a finite set of positive roots.  The walk ends at a maximal
    element x whose inversion set lies inside mask: x itself on Φ_x, and the
    ordinary meet of a and b on Φ_a ∩ Φ_b.  Each step is the smallest left
    descent of w⁻¹x, so the letters are x's ShortLex word, kept as its `word`."""
    w, word = identity(system), []
    while True:
        for s in range(system.ngens):
            image = _image(system, w.matrix, s)
            if (bit := system.column_bit(image)) >= 0 and mask >> bit & 1:
                w = w.mul_simple(s, image, w._mask | 1 << bit)   # Φ_ws = Φ_w ⊔ {w(α_s)}
                word.append(s)
                break
        else:
            w._word = tuple(word)
            return w


def ball(system: CoxeterSystem, radius: int) -> tuple[GroupElement, ...]:
    """All elements of length <= radius in (length, ShortLex word) order, grown from e."""
    if (index(radius) if hasattr(radius, "__index__") else -1) < 0:
        raise DomainError(f"ball radius {radius!r} is not a nonnegative integer")
    level = [identity(system)]
    out = list(level)
    for _ in range(radius):
        level = grow(system, level)
        if not level:
            break
        out.extend(level)
    return tuple(out)


def weyl_part(w: GroupElement) -> GroupElement:
    """The finite Weyl component of w = w̄·t_λ, embedded back as an affine element."""
    if w.system.kind != "affine":
        return w
    k = w.system.rank_finite
    m = [list(row[:k]) + [0] for row in w.matrix[:k]]
    return GroupElement(w.system, m + [[0] * k + [1]])


def translation(system: CoxeterSystem, lam) -> GroupElement:
    """t_λ for λ in the coroot lattice, given in simple-root coordinates."""
    if system.kind != "affine":
        raise DomainError("translations only exist in affine systems")
    vec = tuple(Fraction(x) for x in lam)
    if len(vec) != system.rank_finite:
        raise DomainError("translation vector has the wrong length")
    if not system.in_coroot_lattice(vec):
        raise DomainError("translation vector is not in the coroot lattice")
    k = system.rank_finite
    # (α_j, α_i^∨) = a_ij, so (α_j, λ) = Σ_i c_i·a_ij for λ = Σ_i c_i·α_i^∨
    coords = [int(x) for x in system.coroot_coordinates(vec)]
    m = [[1 if r == c else 0 for c in range(k + 1)] for r in range(k + 1)]
    for j in range(k):
        m[k][j] = sum(coords[i] * system.cartan[i][j] for i in range(k))
    return GroupElement(system, m)
