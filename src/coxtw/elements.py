"""Group elements as exact integer matrices acting on the root lattice.

An element is the matrix of its action on the basis (α_1,...,α_k) for a
finite system, or (α_1,...,α_k,δ) for an affine one; column j is the image
of basis vector j.  Equality of elements is equality of matrices, so words
never need to be compared up to braid moves.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import DomainError
from .system import CoxeterSystem, Root

_WORD_GUARD = 100000
# Entries of a `CoxeterSystem.peels` or `.inverses` table before it is cleared: a
# `queries` pass needs under 100 per system; at worst 512 E8 peels of 37 KB, 19 MB.
_TABLE_BOUND = 512


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

    def mul_simple(self, s: int, image=None) -> "GroupElement":
        """w·s, column by column: (w·s)(α_j) = w(α_j) − ⟨α_j, α_s^∨⟩·w(α_s), where
        image is w(α_s) if the caller has it in hand."""
        pairs = self.system.reflection(s)[0]   # validates s before any column read
        rows = []
        for row, x in zip(self.matrix, image or _image(self.system, self.matrix, s)):
            if x:
                row = list(row)
                for j, c in pairs:
                    row[j] -= c * x
            rows.append(row)
        return GroupElement(self.system, rows)

    def inverse(self) -> "GroupElement":
        """w⁻¹, a fresh element read through the `inverses` table: w̄⁻¹ = H·w̄ᵀ·G / N on
        the finite block, and [[w̄, 0], [r, 1]]⁻¹ = [[w̄⁻¹, 0], [−r·w̄⁻¹, 1]] if affine."""
        if (rows := self.system.inverses.get(self.matrix)) is None:
            gram, inv, n = self.system.integer_form
            k = self.system.rank_finite
            m = self.matrix
            wcols = list(zip(*m[:k]))[:k]
            gcols = [[sum(map(mul, c, g)) for c in wcols] for g in gram]  # columns of w̄ᵀ·G
            qr = [[divmod(sum(map(mul, h, c)), n) for c in gcols] for h in inv]
            if any(r for row in qr for _, r in row):
                raise DomainError("matrix does not preserve the invariant form")
            rows = tuple(tuple(q for q, _ in row) for row in qr)
            if self.system.kind == "affine":
                bottom = [-sum(map(mul, m[k][:k], col)) for col in zip(*rows)]
                rows = tuple(row + (0,) for row in rows) + (tuple(bottom) + (1,),)
            if len(self.system.inverses) >= _TABLE_BOUND - 1:
                self.system.inverses.clear()
            self.system.inverses.update({m: rows, rows: m})
        return GroupElement(self.system, rows)

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

    def _peel(self) -> tuple[tuple[int, ...], int]:
        """(ShortLex word of w⁻¹, Φ_w as a mask) from one walk down by smallest
        right descent: with v_0 = w and v_{i+1} = v_i·s_i the letters s_i spell
        the word, and the roots −v_i(α_{s_i}) are Φ_w = −w(Φ_{w⁻¹}).  Only the
        images v(α_t) are kept: v·s moves each t with ⟨α_t, α_s^∨⟩ ≠ 0 by
        v(α_t) −= ⟨α_t, α_s^∨⟩·v(α_s), and v = e when every v(α_t) is α_t.
        Read through the `peels` table, which keeps only walks past every guard."""
        system = self.system
        if (hit := system.peels.get(self.matrix)) is not None:
            return hit
        gens = range(system.ngens)
        images = [_image(system, self.matrix, t) for t in gens]
        out, mask = [], 0
        for _ in range(_WORD_GUARD):
            for s in gens:
                a = images[s]
                if _negative(system, a):
                    rho = [-c for c in a]
                    if (bit := system.column_bit(rho)) < 0:
                        raise DomainError(f"inversion {rho} of a reduced word is not positive")
                    if mask >> bit & 1:
                        raise DomainError("inversions of a reduced word are not distinct")
                    out.append(s)
                    mask |= 1 << bit
                    for t, c in system.reflection(s)[1]:
                        images[t] = [x - c * y for x, y in zip(images[t], a)]
                    break
            else:
                break
        else:
            raise DomainError("word extraction did not terminate")
        if tuple(map(tuple, images)) != system.simple_columns:
            raise DomainError("word extraction did not reach the identity")
        if len(system.peels) >= _TABLE_BOUND:
            system.peels.clear()
        system.peels[self.matrix] = hit = tuple(out), mask
        return hit

    @property
    def word(self) -> tuple[int, ...]:
        """The ShortLex-minimal reduced word: the peel of w⁻¹, through both tables."""
        if self._word is None:
            self._word = self.inverse()._peel()[0]
        return self._word

    @property
    def length(self) -> int:
        """l(w) = |word| if the word is known, else |Φ_w|."""
        if self._word is not None:
            return len(self._word)
        return self.inversion_mask().bit_count()

    def inversion_mask(self) -> int:
        """Φ_w over the system's root index, as recorded by the walk that built w, or peeled."""
        if self._mask is None:
            self._mask = self._peel()[1]
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
    """w·s_1⋯s_m by column updates on one mutable matrix, recording Φ on the way:
    each letter s has w(α_s) in hand, and by the exchange property Φ_{ws} is
    Φ_w ⊔ {w(α_s)} if w(α_s) > 0, else Φ_w ∖ {−w(α_s)}, for unreduced words too."""
    system = w.system
    rows = [list(row) for row in w.matrix]
    mask = w.inversion_mask()
    for s in map(int, word):
        pairs = system.reflection(s)[0]   # validates s before any column read
        image = _image(system, rows, s)
        neg = _negative(system, image)
        bit = system.column_bit([-x for x in image] if neg else image)
        if bit < 0 or (mask >> bit & 1) != neg:
            raise DomainError(f"the inversions of the word lost track at letter {s}")
        mask ^= 1 << bit
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


def _negative(system: CoxeterSystem, image) -> bool:
    """Whether an integer image w(α_s) is negative: by its δ-entry if nonzero, else any entry < 0."""
    if system.kind == "affine" and image[-1]:
        return image[-1] < 0
    return min(image) < 0


# Weak-order walks.  In the right weak order x ≤ y iff Φ_x ⊆ Φ_y, and
# Φ_{ws} = Φ_w ⊔ {w(α_s)} whenever w(α_s) is positive: a walk up from e
# adds one inversion per step, so each step is an ascent iff Φ only grows.


def grow(system: CoxeterSystem, level, keep=None) -> list[GroupElement]:
    """One level up: the w·s (w in level) with w(α_s) positive and kept by keep
    (None keeps all), de-duplicated by matrix.  level must hold every length-d
    element whose inversions are all kept, in ShortLex order, as on any walk up
    from e; then y is first found from its least (rank of w, s), so NF(y) =
    NF(w)·s: each word is inherited and the result is again in ShortLex order."""
    grown = {}
    gens = range(system.ngens)
    for w in level:
        mask, word = w.inversion_mask(), w.word
        for s in gens:
            image = _image(system, w.matrix, s)
            if _negative(system, image) or (
                    keep and not keep(w.apply(system.simple_root(s)))):
                continue
            y = w.mul_simple(s, image)
            if grown.setdefault(y.matrix, y) is y:
                y._word, y._mask = word + (s,), mask | 1 << system.column_bit(image)
    return list(grown.values())


def ascend(system: CoxeterSystem, mask: int) -> GroupElement:
    """Greedy ascent from e: step to w·s, smallest s first, while w(α_s) is in mask.

    mask must be a finite set of positive roots.  The walk ends at a
    maximal element whose inversion set lies inside mask: x itself on Φ_x,
    and the ordinary meet of a and b on Φ_a ∩ Φ_b."""
    w = identity(system)
    while True:
        for s in range(system.ngens):
            if (bit := system.column_bit(_image(system, w.matrix, s))) >= 0 and mask >> bit & 1:
                w = walk(w, (s,))
                break
        else:
            return w


def ball(system: CoxeterSystem, radius: int) -> tuple[GroupElement, ...]:
    """All elements of length <= radius in (length, ShortLex word) order, grown from e."""
    if radius < 0:
        raise DomainError("ball radius must be nonnegative")
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
