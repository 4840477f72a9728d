"""The affine Weyl group as a semidirect product of coweights by the finite group.

Elements are kept in canonical (translation, finite part) form: the finite
part is an integer matrix acting on coweights, the translation a coweight.
Group law: ``(t^lam u)(t^mu v) = t^(lam + u(mu)) (uv)``.  Finite parts are
interned per root system and memoize their products, so after the first
O(rank^3) product of two parts, multiplication costs one dict lookup plus
O(rank^2) for u(mu), and O(rank) when mu is zero; equality is O(rank).

The generator of index 0 is the affine reflection in the hyperplane of the
highest root at level one, realized as ``t^(theta_coroot) s_theta``.
Descents are computed through the action on affine root pairs ``(alpha, m)``:

    x . (alpha, m) = (u(alpha), m - <lam, u(alpha)>)      for x = t^lam u,

a convention validated by the translation length identity (the pairing of
the coweight against the sum of the positive roots) rather than trusted.
Length counts its inversions in closed form (Iwahori-Matsumoto).

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
from operator import mul

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
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def _matvec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in a)


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

    The library interns parts per root system, so one element of W0 is one
    object.  A part memoizes, on first use, its products with other parts
    and the images of the simple affine roots and of the positive roots.
    """

    __slots__ = ("mat", "root_mat", "_hash", "_identity", "_products",
                 "_simple_images", "_positive_images")

    def __init__(self, mat: Matrix, root_mat: Matrix):
        self.mat = mat
        self.root_mat = root_mat
        self._hash = hash(mat)
        self._identity = mat == _identity_matrix(len(mat))
        self._products: dict[FinitePart, FinitePart] = {}
        self._simple_images = self._positive_images = None

    def __eq__(self, other):
        return self is other or (isinstance(other, FinitePart) and self.mat == other.mat)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FinitePart({self.mat})"

    def is_identity(self) -> bool:
        return self._identity


# One table per root system, from coweight matrix to its part.  Keyed by
# system: B3 and C3 share some coweight matrices, but the root images a part
# memoizes depend on the system's highest root and positive roots.
_FINITE_PARTS: dict[RootSystem, dict[Matrix, FinitePart]] = {}


def _finite_parts(system: RootSystem) -> dict[Matrix, FinitePart]:
    table = _FINITE_PARTS.get(system)
    if table is None:
        seeds = [(_identity_matrix(system.rank),) * 2,
                 (system.theta_reflection_coweight, system.theta_reflection_root),
                 *zip(system.simple_reflections_coweight, system.simple_reflections_root)]
        table = _FINITE_PARTS[system] = {m: FinitePart(m, r) for m, r in seeds}
    return table


def _intern(system: RootSystem, mat: Matrix, root_mat_of) -> FinitePart:
    """The part of system with coweight matrix mat; root_mat_of() builds a new one's."""
    table = _finite_parts(system)
    part = table.get(mat)
    if part is None:
        part = table[mat] = FinitePart(mat, root_mat_of())
    return part


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
                (self.system.lie_type, self.system.rank, self.translation, self.finite._hash)
            )
        return self._hash

    def __repr__(self):
        word = ".".join(f"s{i}" for i in reduced_word(self)) or "e"
        return f"<{word}|t{self.translation}>"

    def is_identity(self) -> bool:
        return not any(self.translation) and self.finite.is_identity()

    def __mul__(self, other: AffineWeylElement) -> AffineWeylElement:
        if not isinstance(other, AffineWeylElement):
            return NotImplemented
        system, u, v = self.system, self.finite, other.finite
        if system is not other.system and system != other.system:
            raise ValueError(
                f"cannot multiply elements over {system!r} and {other.system!r}"
            )
        trans = self.translation
        if any(other.translation):
            trans = tuple(a + b for a, b in zip(trans, _matvec(u.mat, other.translation)))
        uv = u._products.get(v)
        if uv is None:
            uv = u._products[v] = _intern(
                system, _matmul(u.mat, v.mat), lambda: _matmul(u.root_mat, v.root_mat)
            )
        return AffineWeylElement(system, trans, uv)

    def inverse(self) -> AffineWeylElement:
        u = self.finite
        mat_inv = _mat_inverse(u.mat)
        trans = tuple(-c for c in _matvec(mat_inv, self.translation))
        finite = _intern(self.system, mat_inv, lambda: _mat_inverse(u.root_mat))
        return AffineWeylElement(self.system, trans, finite)


# -- constructors --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def identity_element(system: RootSystem) -> AffineWeylElement:
    n = system.rank
    return AffineWeylElement(system, (0,) * n, _finite_parts(system)[_identity_matrix(n)])


@functools.lru_cache(maxsize=None)
def generator(system: RootSystem, i: int) -> AffineWeylElement:
    """The i-th Coxeter generator, 0 <= i <= rank.

    Index 0 is the affine reflection ``t^(theta_coroot) s_theta``; indices
    1..rank are the simple reflections with zero translation.

    >>> rs = build_root_system("A", 1)
    >>> generator(rs, 0).translation
    (1,)
    >>> s1 = generator(rs, 1)
    >>> (s1 * s1 * s1).finite is s1.finite
    True
    """
    if not 0 <= i <= system.rank:
        raise ValueError(f"generator index {i} out of range 0..{system.rank}")
    parts = _finite_parts(system)
    if i == 0:
        return AffineWeylElement(
            system, system.highest_coroot, parts[system.theta_reflection_coweight]
        )
    return AffineWeylElement(
        system, (0,) * system.rank, parts[system.simple_reflections_coweight[i - 1]]
    )


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


def _act_on_affine_root(x: AffineWeylElement, i: int) -> tuple[Vector, int]:
    """x on the i-th simple affine root: (alpha_i, 0), or (-theta, 1) for i = 0."""
    part = x.finite
    if part._simple_images is None:  # u(alpha_i) is column i of u's root matrix
        minus_theta = tuple(-c for c in x.system.highest_root)
        part._simple_images = [_matvec(part.root_mat, minus_theta), *zip(*part.root_mat)]
    image = part._simple_images[i]
    return image, int(i == 0) - x.system.pairing(x.translation, image)


@functools.lru_cache(maxsize=None)
def is_right_descent(x: AffineWeylElement, i: int) -> bool:
    """True iff right-multiplying by generator i shortens x.

    >>> rs = build_root_system("A", 1)
    >>> is_right_descent(generator(rs, 0), 0)
    True
    """
    image, level = _act_on_affine_root(x, i)
    return level < 0 if level else any(c < 0 for c in image)  # roots have coords of one sign


def length(x: AffineWeylElement) -> int:
    """Coxeter length by the Iwahori-Matsumoto formula, independent of |lam|.

    For x = t^lam w, each positive root beta contributes |<lam, w beta>|
    when w beta is positive and |<lam, w beta> + 1| when it is negative,
    that is |<lam, alpha> - 1| for alpha = -w beta.  The finite part keeps
    the images w beta, so the cost is O(|positive roots| * rank) for every
    translation after its first use.

    >>> rs = build_root_system("A", 1)
    >>> length(translation_element(rs, (10**6,)))
    2000000
    """
    if x._length is None:
        part = x.finite
        if part._positive_images is None:
            images = (_matvec(part.root_mat, beta) for beta in x.system.positive_roots)
            part._positive_images = [(image, any(c < 0 for c in image)) for image in images]
        lam_on_simple = _matvec(x.system.cartan, x.translation)
        total = 0
        for image, negative in part._positive_images:
            pairing = sum(map(mul, image, lam_on_simple))
            total += abs(pairing + 1) if negative else abs(pairing)
        x._length = total
    return x._length


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
