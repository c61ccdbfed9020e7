"""Group elements as the images of the simple roots, packed one integer per column.

Column s of an element w is w(α_s) for the s-th simple root (the affine one
last), packed by `CoxeterSystem.pack`: each finite coefficient a signed byte,
the δ-level on top.  A letter s changes column t by −⟨α_t, α_s^∨⟩·w(α_s), one
integer product per pairing, exact because every column is a root.  Equality
of elements is equality of columns, so words never need to be compared up to
braid moves; the row matrix of the action on (α_1,...,α_k, δ if affine), column
j the image of basis vector j, is decoded only when asked for.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index, mul

from .errors import DomainError, ResourceError
from .system import CoxeterSystem, Root

_WORD_GUARD = 100000


class GroupElement:
    __slots__ = ("system", "columns", "_matrix", "_word", "_mask")

    def __init__(self, system: CoxeterSystem, matrix):
        """The element of a dim × dim row matrix over (α_1,...,α_k, δ if affine),
        certified where it enters: its columns pack into signed bytes, and the word
        read off its heights walks from e back to them, which records Φ_w."""
        self.system = system
        self._matrix = rows = tuple(map(tuple, matrix))
        if len(rows) != system.dim or any(len(row) != system.dim for row in rows):
            raise DomainError(f"matrix is no group element: it is not {system.dim}×{system.dim}")
        images = list(zip(*rows))[:system.rank_finite]
        if system.kind == "affine":   # the affine α_k = δ − θ
            images.append([sum(map(mul, row, system.simple_columns[-1])) for row in rows])
        try:
            self.columns = tuple(map(system.pack, images))
        except (TypeError, ValueError):   # an entry that is no signed byte
            raise DomainError("matrix is no group element: it sends a simple root to no root") from None
        self._word = self._mask = None
        self._read_word()

    # -- identity, equality --------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.system.key == other.system.key
                and self.columns == other.columns)

    def __hash__(self):
        return hash((self.system.key, self.columns))

    def __repr__(self):
        return f"GroupElement({list(self.word)})"

    @property
    def is_identity(self) -> bool:
        return self.columns == self.system.identity_columns

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The row matrix, decoded from the columns on first read."""
        if self._matrix is None:
            self._matrix = _decode(self.system, self.columns)
        return self._matrix

    # -- multiplication ------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """w·v, walked from w along the word of v, which records Φ_wv."""
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.system.key != other.system.key:
            raise DomainError("cannot multiply elements of different systems")
        return walk(self, other.word)

    def mul_simple(self, s: int, image=None, mask=None) -> "GroupElement":
        """w·s, column by column: (w·s)(α_t) = w(α_t) − ⟨α_t, α_s^∨⟩·w(α_s), where
        image is w(α_s), in the caller's hand, and mask Φ_ws if read off it; with
        no image, w·s is walked, which records Φ_ws."""
        if image is None:
            return walk(self, (s,))
        cols = list(self.columns)
        for t, c in self.system._reflections[s]:
            cols[t] -= c * image
        return _element(self.system, tuple(cols), mask)

    def inverse(self) -> "GroupElement":
        """w⁻¹: its ShortLex word is `_descend` from w's own heights f(w(α_t)), kept,
        and walked from e, so Φ_{w⁻¹} is recorded."""
        system = self.system
        word = _descend(system, list(map(system.height, self.columns)))
        inv = _walk(system, system.identity_columns, 0, word)
        inv._word = word
        return inv

    # -- action on roots -----------------------------------------------

    def apply(self, rho: Root) -> Root:
        """Image of a root-lattice vector, through the row matrix, since the bytes of
        packed columns hold roots only; no root-validity check, but the vector
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
        descent (`_descend`) from h_t = N·f(v(α_t)): f is the height, plus
        (ht θ + 1)·δ if affine, so it is positive exactly on Φ⁺.  w̄ preserves the
        form G, so w̄⁻¹ = adj G·w̄ᵀ·G / N, and w⁻¹ = [[w̄⁻¹, 0], [−r·w̄⁻¹, 1]] for r
        the δ-levels of the w(α_j): the start is h = (f′·adj G)·w̄ᵀ·G on α_1..α_k
        with f′ = f − f(δ)·r, with no inverse matrix.  w̄ is read as the bytes b of
        the columns, w̄ = b − 128, so w̄·x = b·x − 128·Σx.  A w with no Φ recorded (a
        matrix being certified or a translation) records the Φ_w of the walk of its
        word from e, which must rebuild its columns; a failure sets nothing."""
        system = self.system
        gram, adj, n = system.integer_form   # both symmetric: rows are columns
        k, bias, fin, top = system.rank_finite, system._bias, system._fin, system._top
        biased = [c + bias for c in self.columns[:k]]
        if top:
            f = [1 - top * (c >> system._shift) for c in biased]
            fadj = [sum(map(mul, f, row)) for row in adj]
        else:
            fadj = [sum(row) for row in adj]   # f′·adj G for f′ = 1
        rows = zip(*[(c & fin).to_bytes(k, "little") for c in biased])
        shift = 128 * sum(fadj)
        wf = [sum(map(mul, row, fadj)) - shift for row in rows]
        h = [sum(map(mul, wf, row)) for row in gram]
        if top:   # the affine α_k = δ − θ
            h.append(n * top - sum(map(mul, h, system.highest_root.coeffs)))
        word = _descend(system, h)
        if self._mask is None:
            built = from_word(system, word)
            if built.columns != self.columns:
                raise DomainError("matrix is no group element: its word does not rebuild it")
            self._mask = built._mask
        self._word = word

    @property
    def word(self) -> tuple[int, ...]:
        """The ShortLex-minimal reduced word."""
        if self._word is None:
            self._read_word()
        return self._word

    @property
    def length(self) -> int:
        """l(w) = |Φ_w|."""
        return self.inversion_mask().bit_count()

    def inversion_mask(self) -> int:
        """Φ_w over the system's root index, as recorded by the walk that built w,
        or by the walk of its word."""
        if self._mask is None:
            self._read_word()
        return self._mask

    def inversion_set(self) -> frozenset[Root]:
        """Φ_w = {positive roots sent negative by w^{-1}}, decoded from the mask."""
        mask, bit_root, roots = self.inversion_mask(), self.system.bit_root, []
        while mask:   # the set bits, lowest first
            roots.append(bit_root((low := mask & -mask).bit_length() - 1))
            mask ^= low
        return frozenset(roots)

    def label(self) -> str:
        names = [self.system.simple_names[s] for s in self.word]
        return " ".join(f"s_{nm}" if len(nm) == 1 else f"s_{{{nm}}}" for nm in names) or "e"


def identity(system: CoxeterSystem) -> GroupElement:
    return _element(system, system.identity_columns, 0, ())


def _element(system: CoxeterSystem, columns: tuple, mask=None, word=None) -> GroupElement:
    """The element of packed columns, with Φ and the word if known."""
    el = GroupElement.__new__(GroupElement)
    el.system, el.columns, el._matrix, el._mask, el._word = system, columns, None, mask, word
    return el


def _descend(system: CoxeterSystem, h: list) -> tuple[int, ...]:
    """The ShortLex word of v⁻¹, from h_t a positive multiple of f(v(α_t)): v walks down
    by its first s with h_s < 0, and v·s moves h_t −= ⟨α_t, α_s^∨⟩·h_s.  A word longer
    than _WORD_GUARD letters is a ResourceError."""
    reflections, word = system._reflections, []
    for _ in range(_WORD_GUARD):
        for s, x in enumerate(h):
            if x < 0:
                break
        else:
            return tuple(word)
        word.append(s)
        for t, c in reflections[s]:
            h[t] -= c * x
    raise ResourceError(f"word extraction passed the cap of {_WORD_GUARD} letters")


def _decode(system: CoxeterSystem, columns) -> tuple[tuple[int, ...], ...]:
    """The row matrix of packed columns: basis column j is w(α_j) for j < k, and
    w(δ) = w(α_k) + Σ θ_i·w(α_i) for the affine α_k = δ − θ."""
    basis = list(columns[:system.rank_finite])
    if system.kind == "affine":
        basis.append(columns[-1] + sum(map(mul, system.highest_root.coeffs, basis)))
    return tuple(zip(*map(system.unpack, basis)))


def simple(system: CoxeterSystem, s: int) -> GroupElement:
    return _walk(system, system.identity_columns, 0, (s,))


def from_word(system: CoxeterSystem, word) -> GroupElement:
    """s_1⋯s_m, walked from e's columns."""
    return _walk(system, system.identity_columns, 0, word)


def walk(w: GroupElement, word) -> GroupElement:
    """w·s_1⋯s_m, walked from w's columns and Φ_w."""
    return _walk(w.system, w.columns, w.inversion_mask(), word)


def _walk(system: CoxeterSystem, columns, mask: int, word) -> GroupElement:
    """The walk of a word on one list of packed columns, recording Φ: each letter s, an index
    below ngens by `operator.index`, has the signed bit b of w(α_s), read inline as `grow` reads
    it, and by the exchange property Φ_ws is Φ_w ⊔ {b} if b ≥ 0, else Φ_w ∖ {~b}."""
    reflections, keys, bias, fin = system._reflections, system._keys, system._bias, system._fin
    shift, width, flips, cols = system._shift, system._level_bits, system._flips, list(columns)
    for letter in word:
        try:   # a negative index would wrap, so it reads past the end instead
            pairs = reflections[s if (s := index(letter)) >= 0 else len(reflections)]
        except (TypeError, IndexError):
            raise DomainError(f"no simple reflection with index {letter!r}") from None
        off = keys.get((biased := (image := cols[s]) + bias) & fin)
        if off is not None and (bit := off + (width and width * (biased >> shift))) < 0:
            bit += flips[off]   # ~b for the negative of the root of bit b
        if off is None or (mask >> (b := ~bit if bit < 0 else bit) & 1) != (bit < 0):
            raise DomainError(f"the inversions of the word lost track at letter {s}")
        mask ^= 1 << b
        for t, c in pairs:
            cols[t] -= c * image
    return _element(system, tuple(cols), mask)


# Weak-order walks.  In the right weak order x ≤ y iff Φ_x ⊆ Φ_y, and
# Φ_{ws} = Φ_w ⊔ {w(α_s)} whenever w(α_s) is positive: a walk up from e
# adds one inversion per step, so each step is an ascent iff Φ only grows.


def grow(system: CoxeterSystem, level, keep=None) -> list[GroupElement]:
    """One level up: the w·s (w in level) with w(α_s) positive and its bit kept by keep
    (None keeps all), each built once, for a new Φ_ws = Φ_w ⊔ {w(α_s)}.  The bit is the
    nonnegative branch of `column_bit`, read inline: one `_keys` entry, plus 2N·level if
    affine.  level must hold every length-d element whose inversions are all kept, in
    ShortLex order, as on any walk up from e; then y is first found from its least (rank
    of w, s), so NF(y) = NF(w)·s: each word is inherited, in ShortLex order."""
    grown, keys, bias, fin = {}, system._keys, system._bias, system._fin
    shift, width = system._shift, system._level_bits
    for w in level:
        mask, word = w.inversion_mask(), w.word
        for s, image in enumerate(w.columns):
            bit = keys[image + bias & fin] + (width and width * (image + bias >> shift))
            if bit >= 0 and (not keep or keep(bit)) and (up := mask | 1 << bit) not in grown:
                y = grown[up] = w.mul_simple(s, image, up)
                y._word = word + (s,)
    return list(grown.values())


def ascend(system: CoxeterSystem, mask: int) -> GroupElement:
    """Greedy ascent from e: step to w·s, smallest s first, while w(α_s) is in mask.

    mask must be a finite set of positive roots.  The walk ends at a maximal
    element x whose inversion set lies inside mask: x itself on Φ_x, and the
    ordinary meet of a and b on Φ_a ∩ Φ_b.  Each step is the smallest left
    descent of w⁻¹x, so the letters are x's ShortLex word, kept as its `word`;
    each adds w(α_s) to Φ_w, on one list of packed columns."""
    reflections, column_bit = system._reflections, system.column_bit
    cols, inside, word = list(system.identity_columns), 0, []
    while True:
        for s, image in enumerate(cols):
            if (bit := column_bit(image)) >= 0 and mask >> bit & 1:
                inside |= 1 << bit
                word.append(s)
                for t, c in reflections[s]:
                    cols[t] -= c * image
                break
        else:
            return _element(system, tuple(cols), inside, tuple(word))


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


def translation(system: CoxeterSystem, lam) -> GroupElement:
    """t_λ for λ in the coroot lattice, given in simple-root coordinates."""
    if system.kind != "affine":
        raise DomainError("translations only exist in affine systems")
    if len(lam := tuple(lam)) != system.rank_finite:
        raise DomainError("translation vector has the wrong length")
    # λ = Σ_i c_i·α_i^∨ for c_i = λ_i·d_i, and (α_j, α_i^∨) = a_ij, so (α_j, λ) = Σ_i c_i·a_ij
    coords, rems = zip(*(divmod(Fraction(x) * d, 1) for x, d in zip(lam, system.symmetrizer)))
    if any(rems):
        raise DomainError("translation vector is not in the coroot lattice")
    return _translation(system, [sum(map(mul, coords, column)) for column in zip(*system.cartan)])


def _translation(system: CoxeterSystem, pairs) -> GroupElement:
    """t_λ from its integer pairings (α_j, λ): t_λ(α) = α + (α, λ)·δ on each simple root α."""
    return _element(system, tuple(c + (sum(map(mul, a, pairs)) << system._shift)
                                  for c, a in zip(system.identity_columns, system.simple_columns)))
