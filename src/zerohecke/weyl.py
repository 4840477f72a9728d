"""The affine Weyl group as a semidirect product of coweights by the finite group.

Elements are kept in canonical (translation, finite part) form: the finite
part is an integer matrix acting on coweights, the translation a coweight.
Group law: ``(t^lam u)(t^mu v) = t^(lam + u(mu)) (uv)``.  Finite parts are
interned per root system and memoize their products and one step record
per generator, so after the first O(rank^3) product of two parts,
multiplication costs one dict lookup plus O(rank^2) for u(mu), and O(rank)
when mu is zero; the inverse of u is its last power before the identity.

The generator of index 0 is the affine reflection in the hyperplane of the
highest root at level one, realized as ``t^(theta_coroot) s_theta``.
Descents are computed through the action on affine root pairs ``(alpha, m)``:

    x . (alpha, m) = (u(alpha), m - <lam, u(alpha)>)      for x = t^lam u,

a convention validated by the translation length identity (the pairing of
the coweight against the sum of the positive roots) rather than trusted;
with the step record it is one O(rank) dot product.  Length counts its
inversions in closed form (Iwahori-Matsumoto).

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
from dataclasses import dataclass
from operator import add, mul

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


# -- elements ------------------------------------------------------------


class FinitePart:
    """An element of the finite Weyl group, as its matrix on coweights.

    The companion matrix on root coordinates is carried along so that the
    affine-root action stays in integer arithmetic; it is determined by the
    coweight matrix, so equality and hashing use the latter only.

    The library interns parts per root system, so one element of W0 is one
    object.  A part memoizes, on first use, its products with other parts,
    the signed duals of the positive roots' images (see
    :func:`_signed_duals`) and one :class:`_Step` per generator.
    Its inverse is the last power of u before the identity, walked through
    the product memo.
    """

    __slots__ = ("mat", "root_mat", "_hash", "_identity", "_products",
                 "_steps", "_positive_duals")

    def __init__(self, mat: Matrix, root_mat: Matrix):
        self.mat = mat
        self.root_mat = root_mat
        self._hash = hash(mat)
        self._identity = mat == _identity_matrix(len(mat))
        self._products: dict[FinitePart, FinitePart] = {}
        self._steps = self._positive_duals = None

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


def _product(system: RootSystem, u: FinitePart, v: FinitePart) -> FinitePart:
    """The part uv: u's product memo, else the table, else a new part."""
    uv = u._products.get(v)
    if uv is None:
        table, mat = _finite_parts(system), _matmul(u.mat, v.mat)
        uv = table.get(mat)
        if uv is None:
            uv = table[mat] = FinitePart(mat, _matmul(u.root_mat, v.root_mat))
        u._products[v] = uv
    return uv


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
            trans = tuple(map(add, trans, _matvec(u.mat, other.translation)))
        return AffineWeylElement(system, trans, _product(system, u, v))

    def inverse(self) -> AffineWeylElement:
        inv = u = self.finite
        while not (power := _product(self.system, inv, u)).is_identity():
            inv = power
        trans = tuple(-c for c in _matvec(inv.mat, self.translation))
        return AffineWeylElement(self.system, trans, inv)


@dataclass(slots=True)
class _Step:
    """Generator i as seen by a part u: the signed dual of u(alpha_i), with
    alpha_0 := -theta; the shift u(theta_coroot), for i = 0 only; and the
    part u s_i, set on first use.
    """

    dual: Vector
    negative: bool
    shift: Vector | None
    product: FinitePart | None = None


def _signed_duals(system: RootSystem, part: FinitePart, roots) -> list[tuple[Vector, bool]]:
    """(cartan^T u(beta), u(beta) < 0) for each beta in roots; <lam, u(beta)> = lam . dual."""
    cartan_t = tuple(zip(*system.cartan))
    images = (_matvec(part.root_mat, beta) for beta in roots)
    return [(_matvec(cartan_t, image), any(c < 0 for c in image)) for image in images]


def _build_steps(x: AffineWeylElement) -> list[_Step]:
    """Give x's part one step record per generator."""
    system, part = x.system, x.finite
    simple = [tuple(-c for c in system.highest_root), *_identity_matrix(system.rank)]
    shifts = [_matvec(part.mat, system.highest_coroot), *[None] * system.rank]
    duals = _signed_duals(system, part, simple)
    part._steps = [_Step(dual, negative, shift) for (dual, negative), shift in zip(duals, shifts)]
    return part._steps


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


def _mul_gen(x: AffineWeylElement, i: int) -> AffineWeylElement:
    """x times generator i, read off the step record of x's part."""
    if not 0 <= i <= x.system.rank:
        raise ValueError(f"generator index {i} out of range 0..{x.system.rank}")
    step = (x.finite._steps or _build_steps(x))[i]
    if step.product is None:
        step.product = _product(x.system, x.finite, generator(x.system, i).finite)
    trans = x.translation if step.shift is None else tuple(map(add, x.translation, step.shift))
    return AffineWeylElement(x.system, trans, step.product)


# -- length, descents ------------------------------------------------------


def is_right_descent(x: AffineWeylElement, i: int) -> bool:
    """True iff right-multiplying by generator i shortens x.

    >>> rs = build_root_system("A", 1)
    >>> is_right_descent(generator(rs, 0), 0)
    True
    """
    step = (x.finite._steps or _build_steps(x))[i]
    level = (i == 0) - sum(map(mul, x.translation, step.dual))
    return level < 0 if level else step.negative  # roots have coords of one sign


def length(x: AffineWeylElement) -> int:
    """Coxeter length by the Iwahori-Matsumoto formula, independent of |lam|.

    For x = t^lam w, each positive root beta contributes |<lam, w beta>|
    when w beta is positive and |<lam, w beta> + 1| when it is negative,
    that is |<lam, alpha> - 1| for alpha = -w beta.  The finite part keeps
    the signed duals of the images w beta, so the cost is
    O(|positive roots| * rank) for every translation after its first use.

    >>> rs = build_root_system("A", 1)
    >>> length(translation_element(rs, (10**6,)))
    2000000
    """
    if x._length is None:
        part = x.finite
        if part._positive_duals is None:
            part._positive_duals = _signed_duals(x.system, part, x.system.positive_roots)
        total = 0
        for dual, negative in part._positive_duals:
            pairing = sum(map(mul, x.translation, dual))
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
