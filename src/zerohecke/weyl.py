"""The affine Weyl group as a semidirect product of coweights by the finite group.

Elements are kept in canonical (translation, finite part) form: the finite
part is an integer matrix acting on coweights, the translation a coweight.
Group law: ``(t^lam u)(t^mu v) = t^(lam + u(mu)) (uv)``.  Equality and
multiplication are therefore O(rank^2) with no word rewriting.

The generator of index 0 is the affine reflection in the hyperplane of the
highest root at level one, realized as ``t^(theta_coroot) s_theta``.  Length
and descents are computed through the action on affine root pairs
``(alpha, m)``:

    x . (alpha, m) = (u(alpha), m - <lam, u(alpha)>)      for x = t^lam u,

a convention validated by the translation length identity (the pairing of
the coweight against the sum of the positive roots) rather than trusted.

>>> rs = build_root_system("A", 1)
>>> s0, s1 = generator(rs, 0), generator(rs, 1)
>>> (s0 * s1).translation
(1,)
>>> length(s0 * s1)
2
>>> reduced_word(s0 * s1)
(0, 1)
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .rootdata import Matrix, RootSystem, Vector, build_root_system

__all__ = [
    "AffineWeylElement",
    "FinitePart",
    "ResourceBoundError",
    "all_reduced_words",
    "antidominant_orbit_rep",
    "antidominant_rep",
    "bruhat_leq",
    "coxeter_order",
    "element_from_jsonable",
    "element_sort_key",
    "element_to_jsonable",
    "enumerate_ball",
    "from_word",
    "generator",
    "generators",
    "identity_element",
    "is_right_descent",
    "length",
    "longest_finite_element",
    "min_coset_rep",
    "reduced_word",
    "translation_element",
]


class ResourceBoundError(RuntimeError):
    """An enumeration exceeded its configured resource bound."""

    def __init__(self, message: str, attained_depth: int | None = None):
        super().__init__(message)
        self.attained_depth = attained_depth


# -- exact integer matrix helpers ---------------------------------------


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _matvec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = tuple(tuple(x for x in row[n:]) for row in aug)
    assert all(x.denominator == 1 for row in out for x in row)
    return tuple(tuple(int(x) for x in row) for row in out)


# -- elements ------------------------------------------------------------


class FinitePart:
    """An element of the finite Weyl group, as its matrix on coweights.

    The companion matrix on root coordinates is carried along so that the
    affine-root action stays in integer arithmetic; it is determined by the
    coweight matrix, so equality and hashing use the latter only.
    """

    __slots__ = ("mat", "root_mat", "_hash")

    def __init__(self, mat: Matrix, root_mat: Matrix):
        self.mat = mat
        self.root_mat = root_mat
        self._hash = None

    def __eq__(self, other):
        return isinstance(other, FinitePart) and self.mat == other.mat

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.mat)
        return self._hash

    def __repr__(self):
        return f"FinitePart({self.mat})"

    def is_identity(self) -> bool:
        n = len(self.mat)
        return self.mat == _identity_matrix(n)


class AffineWeylElement:
    """A group element in canonical (translation, finite part) form.

    Immutable; equality is componentwise, so two elements are equal exactly
    when they are the same group element.
    """

    __slots__ = ("system", "translation", "finite", "_hash", "_length")

    def __init__(self, system: RootSystem, translation: Vector, finite: FinitePart):
        self.system = system
        self.translation = translation
        self.finite = finite
        self._hash = None
        self._length = None

    def __eq__(self, other):
        return (
            isinstance(other, AffineWeylElement)
            and self.system == other.system
            and self.translation == other.translation
            and self.finite == other.finite
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.system.lie_type, self.system.rank, self.translation, self.finite.mat)
            )
        return self._hash

    def __repr__(self):
        word = ".".join(f"s{i}" for i in reduced_word(self)) or "e"
        return f"<{word}|t{self.translation}>"

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.translation) and self.finite.is_identity()

    def __mul__(self, other: AffineWeylElement) -> AffineWeylElement:
        if not isinstance(other, AffineWeylElement):
            return NotImplemented
        if self.system != other.system:
            raise ValueError(
                f"cannot multiply elements over {self.system!r} and {other.system!r}"
            )
        trans = tuple(
            a + b
            for a, b in zip(self.translation, _matvec(self.finite.mat, other.translation))
        )
        finite = FinitePart(
            _matmul(self.finite.mat, other.finite.mat),
            _matmul(self.finite.root_mat, other.finite.root_mat),
        )
        return AffineWeylElement(self.system, trans, finite)

    def inverse(self) -> AffineWeylElement:
        mat_inv = _mat_inverse(self.finite.mat)
        root_inv = _mat_inverse(self.finite.root_mat)
        trans = tuple(-c for c in _matvec(mat_inv, self.translation))
        return AffineWeylElement(self.system, trans, FinitePart(mat_inv, root_inv))


# -- constructors --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def identity_element(system: RootSystem) -> AffineWeylElement:
    n = system.rank
    ident = _identity_matrix(n)
    return AffineWeylElement(system, (0,) * n, FinitePart(ident, ident))


@functools.lru_cache(maxsize=None)
def generator(system: RootSystem, i: int) -> AffineWeylElement:
    """The i-th Coxeter generator, 0 <= i <= rank.

    Index 0 is the affine reflection ``t^(theta_coroot) s_theta``; indices
    1..rank are the simple reflections with zero translation.

    >>> rs = build_root_system("A", 1)
    >>> generator(rs, 0).translation
    (1,)
    """
    if not 0 <= i <= system.rank:
        raise ValueError(f"generator index {i} out of range 0..{system.rank}")
    if i == 0:
        finite = FinitePart(system.theta_reflection_coweight, system.theta_reflection_root)
        return AffineWeylElement(system, system.highest_coroot, finite)
    finite = FinitePart(
        system.simple_reflections_coweight[i - 1],
        system.simple_reflections_root[i - 1],
    )
    return AffineWeylElement(system, (0,) * system.rank, finite)


def generators(system: RootSystem) -> tuple[AffineWeylElement, ...]:
    return tuple(generator(system, i) for i in range(system.rank + 1))


def translation_element(system: RootSystem, lam: Vector) -> AffineWeylElement:
    """The pure translation by the coweight lam."""
    if len(lam) != system.rank:
        raise ValueError(f"coweight of length {len(lam)} for rank {system.rank}")
    ident = identity_element(system)
    return AffineWeylElement(system, tuple(int(c) for c in lam), ident.finite)


def from_word(system: RootSystem, letters) -> AffineWeylElement:
    x = identity_element(system)
    for i in letters:
        x = _mul_gen(x, i)
    return x


@functools.lru_cache(maxsize=None)
def _mul_gen(x: AffineWeylElement, i: int) -> AffineWeylElement:
    return x * generator(x.system, i)


# -- affine root action, length, descents --------------------------------


def _simple_affine_root(system: RootSystem, i: int) -> tuple[Vector, int]:
    if i == 0:
        return tuple(-c for c in system.highest_root), 1
    return tuple(int(i - 1 == j) for j in range(system.rank)), 0


def _affine_root_is_negative(root: Vector, level: int) -> bool:
    if level != 0:
        return level < 0
    return any(c < 0 for c in root)  # roots have coords of one sign


def _act_on_affine_root(
    x: AffineWeylElement, root: Vector, level: int
) -> tuple[Vector, int]:
    image = _matvec(x.finite.root_mat, root)
    return image, level - x.system.pairing(x.translation, image)


@functools.lru_cache(maxsize=None)
def is_right_descent(x: AffineWeylElement, i: int) -> bool:
    """True iff right-multiplying by generator i shortens x.

    >>> rs = build_root_system("A", 1)
    >>> is_right_descent(generator(rs, 0), 0)
    True
    """
    root, level = _simple_affine_root(x.system, i)
    return _affine_root_is_negative(*_act_on_affine_root(x, root, level))


def length(x: AffineWeylElement) -> int:
    """Coxeter length, as the number of affine-root inversions of x.

    Enumerates positive affine root pairs up to the level bound beyond
    which no sign change can occur.
    """
    if x._length is not None:
        return x._length
    system = x.system
    lam = x.translation
    all_roots = [r for r in system.positive_roots]
    all_roots += [tuple(-c for c in r) for r in system.positive_roots]
    bound = max(abs(system.pairing(lam, r)) for r in all_roots) + 1 if all_roots else 1
    count = 0
    for root in all_roots:
        positive_root = all(c >= 0 for c in root)
        image, shift = _act_on_affine_root(x, root, 0)
        m_min = 0 if positive_root else 1
        for m in range(m_min, bound + 1):
            if _affine_root_is_negative(image, m + shift):
                count += 1
    x._length = count
    return count


# -- reduced words -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def reduced_word(x: AffineWeylElement) -> tuple[int, ...]:
    """The canonical reduced word: peel the smallest right descent.

    >>> rs = build_root_system("A", 1)
    >>> reduced_word(translation_element(rs, (1,)))
    (0, 1)
    """
    letters = []
    cur = x
    while not cur.is_identity():
        for i in range(cur.system.rank + 1):
            if is_right_descent(cur, i):
                letters.append(i)
                cur = _mul_gen(cur, i)
                break
        else:  # pragma: no cover - would mean a broken descent computation
            raise AssertionError(f"no descent found for non-identity element {cur!r}")
    return tuple(reversed(letters))


@functools.lru_cache(maxsize=None)
def _all_reduced_words(x: AffineWeylElement) -> tuple[tuple[int, ...], ...]:
    if x.is_identity():
        return ((),)
    words = []
    for i in range(x.system.rank + 1):
        if is_right_descent(x, i):
            for w in _all_reduced_words(_mul_gen(x, i)):
                words.append(w + (i,))
    return tuple(words)


def all_reduced_words(x: AffineWeylElement, max_length: int = 10) -> tuple[tuple[int, ...], ...]:
    """Every reduced word of x, by branching over right descents.

    Guarded: the number of words grows quickly, so elements longer than
    ``max_length`` are rejected.
    """
    n = length(x)
    if n > max_length:
        raise ResourceBoundError(
            f"element has length {n} > guard {max_length}; raise max_length "
            "to branch over all reduced words anyway"
        )
    return _all_reduced_words(x)


# -- Bruhat order --------------------------------------------------------


def bruhat_leq(u: AffineWeylElement, w: AffineWeylElement) -> bool:
    """Bruhat-Chevalley order via the descent (lifting) property.

    Peel a right descent s of w; u <= w iff u' <= ws, where u' is us when s
    is a descent of u and u otherwise.  Each step shortens w by one, so the
    walk is a loop with both lengths tracked.

    >>> rs = build_root_system("A", 1)
    >>> bruhat_leq(generator(rs, 0), from_word(rs, [0, 1]))
    True
    >>> bruhat_leq(from_word(rs, [0, 1]), from_word(rs, [1, 0]))
    False
    """
    if u.system != w.system:
        raise ValueError("Bruhat comparison across different root systems")
    lu, lw = length(u), length(w)
    while lu:
        if lu > lw:
            return False
        i = next(i for i in range(w.system.rank + 1) if is_right_descent(w, i))
        w = _mul_gen(w, i)
        lw -= 1
        if is_right_descent(u, i):
            u = _mul_gen(u, i)
            lu -= 1
    return True


# -- enumeration ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def enumerate_ball(
    system: RootSystem, max_len: int, max_elements: int = 1_000_000
) -> tuple[tuple[AffineWeylElement, ...], ...]:
    """All elements of length <= max_len, grouped by length.

    Breadth-first generator application with canonical-form deduplication;
    shell k is exactly the set of elements of length k.  Each shell is
    sorted by canonical reduced word, so the output order is deterministic.
    """
    ident = identity_element(system)
    seen = {ident}
    shells = [(ident,)]
    frontier = [ident]
    total = 1
    for depth in range(1, max_len + 1):
        nxt = []
        for x in frontier:
            for i in range(system.rank + 1):
                y = _mul_gen(x, i)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        total += len(nxt)
        if total > max_elements:
            raise ResourceBoundError(
                f"ball enumeration exceeded {max_elements} elements at depth "
                f"{depth} (completed depth {depth - 1})",
                attained_depth=depth - 1,
            )
        shells.append(tuple(sorted(nxt, key=reduced_word)))
        frontier = nxt
    return tuple(shells)


def element_sort_key(x: AffineWeylElement):
    return (length(x), reduced_word(x))


# -- distinguished elements and coset representatives --------------------


@functools.lru_cache(maxsize=None)
def longest_finite_element(system: RootSystem) -> AffineWeylElement:
    """The longest element of the finite Weyl group, by greedy ascent."""
    x = identity_element(system)
    while True:
        for i in range(1, system.rank + 1):
            if not is_right_descent(x, i):
                x = _mul_gen(x, i)
                break
        else:
            return x


def min_coset_rep(x: AffineWeylElement, parabolic) -> AffineWeylElement:
    """Minimal-length element of x * W_parabolic, by peeling descents."""
    parabolic = frozenset(parabolic)
    for i in parabolic:
        if not 0 <= i <= x.system.rank:
            raise ValueError(f"parabolic index {i} out of range 0..{x.system.rank}")
    while True:
        for i in sorted(parabolic):
            if is_right_descent(x, i):
                x = _mul_gen(x, i)
                break
        else:
            return x


def antidominant_rep(system: RootSystem, lam: Vector) -> AffineWeylElement:
    """The translation by an antidominant coweight, as its coset's minimum."""
    if not system.is_dominant(tuple(-c for c in lam)):
        raise ValueError(f"coweight {lam} is not antidominant")
    x = translation_element(system, lam)
    finite_gens = frozenset(range(1, system.rank + 1))
    assert x == min_coset_rep(x, finite_gens)
    return x


def antidominant_orbit_rep(system: RootSystem, lam: Vector) -> Vector:
    """The unique antidominant coweight in the finite Weyl orbit of lam."""
    lam = tuple(int(c) for c in lam)
    while True:
        for i in range(system.rank):
            if system.pairing(lam, tuple(int(i == j) for j in range(system.rank))) > 0:
                lam = _matvec(system.simple_reflections_coweight[i], lam)
                break
        else:
            return lam


@functools.lru_cache(maxsize=None)
def coxeter_order(system: RootSystem, i: int, j: int, cutoff: int = 12) -> int | None:
    """Order of generator(i) * generator(j); None when infinite (above cutoff)."""
    prod = generator(system, i) * generator(system, j)
    x = prod
    for order in range(1, cutoff + 1):
        if x.is_identity():
            return order
        x = x * prod
    return None


# -- serialization -------------------------------------------------------


def element_to_jsonable(x: AffineWeylElement) -> dict:
    """Element as translation coordinates plus the finite part's word."""
    finite_only = AffineWeylElement(x.system, (0,) * x.system.rank, x.finite)
    return {
        "lambda": list(x.translation),
        "word": list(reduced_word(finite_only)),
    }


def element_from_jsonable(system: RootSystem, data: dict) -> AffineWeylElement:
    lam = tuple(int(c) for c in data["lambda"])
    if len(lam) != system.rank:
        raise ValueError(f"lambda of length {len(lam)} for rank {system.rank}")
    word = list(data["word"])
    if any(not 1 <= i <= system.rank for i in word):
        raise ValueError(f"finite-part word {word} has letters outside 1..{system.rank}")
    return translation_element(system, lam) * from_word(system, word)
