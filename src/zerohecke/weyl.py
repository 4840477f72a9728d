"""The affine Weyl group as a semidirect product of coweights by the finite group.

Elements are kept in canonical (translation, finite part) form, the
translation a coweight.  Group law: ``(t^lam u)(t^mu v) = t^(lam + u(mu)) (uv)``.
With alpha_0 := -theta, a finite part u is keyed by the root indices of
u(alpha_0), ..., u(alpha_rank) in the system's root table (Casselman,
Invent. Math. 1994; Bjorner-Brenti, GTM 231, 4): its root-permutation
representation.  Since u s_j u^-1 = s_{u(alpha_j)}, the key of u s_j is
u's with each entry reflected in u(alpha_j), one memo lookup per entry, so
a part is made from its parent in O(rank).  Parts are interned per root
system, u(mu) is the sum of mu_j times the coroot of u(alpha_j), and a
product walks u along the right factor's canonical word.

Generator 0 is ``t^(theta_coroot) s_theta``.  x = t^lam u sends the
simple affine root i to the pair (level_i, height_i) = ([i = 0] -
<lam, u(alpha_i)>, ht(u(alpha_i))), read off the root table at u's key;
i is a right descent iff the pair is below (0, 0) lexicographically
(Bjorner-Brenti, GTM 231, 4.4).
Peeling i changes the pairs linearly, so reduced words are walked on
integers alone (Casselman, Invent. Math. 1994), and length counts the
inversions in closed form (Iwahori-Matsumoto) from the same pairs.

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
from operator import add, mul, sub

from .rootdata import RootSystem, Vector, build_root_system, int_vector

__all__ = [
    "AffineWeylElement",
    "FinitePart",
    "MAX_ELEMENTS",
    "ResourceBoundError",
    "all_reduced_words",
    "antidominant_orbit_rep",
    "antidominant_rep",
    "bruhat_leq",
    "check_element_jsonable",
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


MAX_ELEMENTS = 1_000_000  # the default bound on the elements one enumeration makes


# -- elements ------------------------------------------------------------


class FinitePart:
    """An element u of the finite Weyl group, as its key: the root indices
    of u(alpha_0), ..., u(alpha_rank), with alpha_0 := -theta.

    Parts are interned per root system, so one element of W0 is one
    object, and parts compare by identity.  A part holds its product with
    each generator once made, and its canonical word once
    :func:`_part_word` has read it.
    """

    __slots__ = ("key", "_products", "_word")

    def __init__(self, key: tuple[int, ...]):
        self.key = key
        self._products: list[FinitePart | None] = [None] * len(key)
        self._word: tuple[int, ...] | None = None

    def __repr__(self):
        return f"FinitePart(key={self.key}, word={self._word})"

    def is_identity(self) -> bool:
        return self.key == tuple(range(len(self.key)))


# One table per root system, from key to part, seeded with the identity;
# keys index the system's own roots, so B3's and C3's coincide.
_FINITE_PARTS: dict[RootSystem, dict[tuple[int, ...], FinitePart]] = {}


def _times_generator(system: RootSystem, u: FinitePart, j: int) -> FinitePart:
    """The part u s_j: u's pointer, else the table, else a new part.

    Entry i of its key is u(alpha_i) - affine_cartan[j][i] u(alpha_j), the
    reflection of u(alpha_i) in u(alpha_j): one lookup in that root's memo
    row, which maps the entries orthogonal to it to themselves.
    """
    part = u._products[j]
    if part is None:
        row = system.reflections[u.key[j]]
        key = tuple(map(row.__getitem__, u.key))
        table = _FINITE_PARTS[system]
        part = table.get(key)
        if part is None:
            part = table[key] = FinitePart(key)
        u._products[j] = part
    return part


def _act(system: RootSystem, u: FinitePart, mu: Vector) -> Vector:
    """u(mu) for a coweight mu: the sum of mu_j times the coroot of u(alpha_j)."""
    coroot, image = system.coroot, (0,) * len(mu)
    for c, r in zip(mu, u.key[1:]):
        if c:
            image = tuple(x + c * y for x, y in zip(image, coroot[r]))
    return image


def _part_word(system: RootSystem, u: FinitePart) -> tuple[int, ...]:
    """The canonical word of t^0 u, read off the heights of u(alpha_i) and kept on u: every
    peel keeps pair 0 at level 1 and the others at level 0, so the smallest right descent
    is the first i >= 1 of negative height, and peeling it takes a_ik h_i off each h_k."""
    if u._word is None:
        heights, letters, nodes = [system.height[r] for r in u.key], [], range(1, len(u.key))
        for _ in range(system.num_positive_roots):  # at most one letter per inversion
            for i in nodes:
                if heights[i] < 0:
                    break
            else:
                break
            letters.append(i)
            h = heights[i]
            for k, a in system.neighbours[i]:
                heights[k] -= a * h
        u._word = tuple(reversed(letters))
    return u._word


class AffineWeylElement:
    """A group element in canonical (translation, finite part) form.

    Immutable.  Two elements are equal iff they hold the same part object,
    which fixes the root system, and equal translations: exactly when they
    are the same group element.  Its hash, length and canonical word are
    kept in slots once known.
    """

    __slots__ = ("system", "translation", "finite", "_hash", "_length", "_word")

    def __init__(self, system: RootSystem, translation: Vector, finite: FinitePart):
        self.system = system
        self.translation = translation
        self.finite = finite
        self._hash = None
        self._length = None
        self._word = None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, AffineWeylElement)
            and self.finite is other.finite
            and self.translation == other.translation
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.translation, self.finite))
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
        if system is not other.system:
            raise ValueError(f"cannot multiply elements over {system!r} and {other.system!r}")
        trans = tuple(map(add, self.translation, _act(system, u, other.translation)))
        for j in _part_word(system, v):
            u = _times_generator(system, u, j)
        return AffineWeylElement(system, trans, u)

    def inverse(self) -> AffineWeylElement:
        """t^(-u^-1(lam)) u^-1, with u^-1 walked along u's word reversed."""
        system, inv = self.system, identity_element(self.system).finite
        for j in reversed(_part_word(system, self.finite)):
            inv = _times_generator(system, inv, j)
        trans = tuple(-c for c in _act(system, inv, self.translation))
        return AffineWeylElement(system, trans, inv)


# -- constructors --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def identity_element(system: RootSystem) -> AffineWeylElement:
    """The identity, with its length and word; its part seeds the system's table."""
    key = tuple(range(system.rank + 1))
    part = _FINITE_PARTS.setdefault(system, {}).setdefault(key, FinitePart(key))
    e = AffineWeylElement(system, (0,) * system.rank, part)
    e._length, e._word = 0, ()
    return e


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
    _read_letters(system, (i,))
    return _mul_gen(identity_element(system), i)


def generators(system: RootSystem) -> tuple[AffineWeylElement, ...]:
    return tuple(generator(system, i) for i in range(system.rank + 1))


def translation_element(system: RootSystem, lam: Vector) -> AffineWeylElement:
    """The pure translation by the coweight lam."""
    return AffineWeylElement(system, int_vector(lam, system.rank), identity_element(system).finite)


def _step(system: RootSystem, lam: Vector, u: FinitePart, i: int) -> tuple[Vector, FinitePart]:
    """(t^lam u) s_i as its (translation, part); s_0 shifts lam by
    u(theta^vee), minus the coroot of u(alpha_0)."""
    part = u._products[i] or _times_generator(system, u, i)
    if i == 0:
        lam = tuple(map(sub, lam, system.coroot[u.key[0]]))
    return lam, part


def _descends(system: RootSystem, lam: Vector, u: FinitePart, i: int) -> bool:
    """True iff i is a right descent of t^lam u: its (level, height) pair is below (0, 0)."""
    r = u.key[i]
    level = (i == 0) - sum(map(mul, lam, system.dual[r]))
    return level < 0 if level else system.height[r] < 0


def _read_letters(system: RootSystem, letters, what: str = "generator") -> tuple[int, ...]:
    """letters as a tuple, else ValueError at the first that is no int in 0..rank (a bool,
    float or string is none); a word passes at C speed, by its sets of types and letters."""
    letters = tuple(letters)
    if not (set(map(type, letters)) <= {int} and system.letters.issuperset(letters)):
        bad = next(i for i in letters if type(i) is not int or i not in system.letters)
        raise ValueError(f"{what} index {bad!r} out of range 0..{system.rank}")
    return letters


def from_word(system: RootSystem, letters) -> AffineWeylElement:
    """The product of the generators in letters, walked on raw state: one element in all."""
    letters, e = _read_letters(system, letters), identity_element(system)
    lam, u = e.translation, e.finite
    for i in letters:
        lam, u = _step(system, lam, u, i)
    return AffineWeylElement(system, lam, u)


def _mul_gen(x: AffineWeylElement, i: int) -> AffineWeylElement:
    """x times generator i, a letter the library made or checked."""
    lam, part = _step(x.system, x.translation, x.finite, i)
    return AffineWeylElement(x.system, lam, part)


# -- length, descents ------------------------------------------------------


def is_right_descent(x: AffineWeylElement, i: int) -> bool:
    """True iff right-multiplying by generator i shortens x.

    >>> rs = build_root_system("A", 1)
    >>> is_right_descent(generator(rs, 0), 0)
    True
    """
    if type(i) is not int or i not in x.system.letters:
        _read_letters(x.system, (i,))
    return _descends(x.system, x.translation, x.finite, i)


def length(x: AffineWeylElement) -> int:
    """Coxeter length by the Iwahori-Matsumoto formula, independent of |lam|.

    For x = t^lam w, each positive root beta contributes |<lam, w beta>|
    when w beta is positive and |<lam, w beta> + 1| when it is negative.
    The simple roots' (level, height) pairs give every positive root's by
    one addition along ``root_chain``: O(rank^2 + |roots|).

    >>> rs = build_root_system("A", 1)
    >>> length(translation_element(rs, (10**6,)))
    2000000
    """
    if x._length is None:
        simple = _root_pairs(x)[1:]
        images, total = [], 0
        for p, k in x.system.root_chain:
            level, height = simple[k]
            if p >= 0:
                pl, ph = images[p]
                level, height = level + pl, height + ph
            images.append((level, height))
            total += abs(level - 1) if height < 0 else abs(level)
        x._length = total
    return x._length


# -- reduced words -------------------------------------------------------


def _root_pairs(x: AffineWeylElement) -> list[tuple[int, int]]:
    """The (level, height) pair of x(alpha_i) for each generator i."""
    lam, dual, height = x.translation, x.system.dual, x.system.height
    return [((i == 0) - sum(map(mul, lam, dual[r])), height[r])
            for i, r in enumerate(x.finite.key)]


def reduced_word(x: AffineWeylElement) -> tuple[int, ...]:
    """The canonical reduced word: peel the smallest right descent, length(x) times.

    Peeling i sends pair k to pair_k - affine_cartan[i][k] * pair_i; a
    descent must exist at every step and none may be left at the end.  The
    word is kept on x.

    >>> rs = build_root_system("A", 1)
    >>> reduced_word(translation_element(rs, (1,)))
    (0, 1)
    """
    if x._word is not None:
        return x._word
    letters, pairs, rows = [], _root_pairs(x), x.system.neighbours
    for _ in range(length(x)):
        for i, pair in enumerate(pairs):
            if pair < (0, 0):
                break
        else:
            break
        letters.append(i)
        level, height = pairs[i]
        for k, a in rows[i]:
            pairs[k] = (pairs[k][0] - a * level, pairs[k][1] - a * height)
    else:
        if not any(pair < (0, 0) for pair in pairs):
            x._word = tuple(reversed(letters))
            return x._word
    raise AssertionError(f"broken descent walk for t{x.translation} {x.finite!r}")


def all_reduced_words(x: AffineWeylElement, max_length: int = 10) -> tuple[tuple[int, ...], ...]:
    """Every reduced word of x, by branching over right descents.

    Each step down lowers the length by one, so only x's is computed.
    Guarded: the number of words grows quickly, so elements longer than
    ``max_length`` are rejected.
    """
    n = length(x)
    if n > max_length:
        raise ResourceBoundError(
            f"element has length {n} > guard {max_length}; raise max_length "
            "to branch over all reduced words anyway"
        )
    if not n:
        return ((),)
    words = []
    for i in range(x.system.rank + 1):
        if is_right_descent(x, i):
            y = _mul_gen(x, i)
            y._length = n - 1
            words += [w + (i,) for w in all_reduced_words(y, max_length)]
    return tuple(words)


# -- Bruhat order --------------------------------------------------------


def bruhat_leq(u: AffineWeylElement, w: AffineWeylElement) -> bool:
    """Bruhat-Chevalley order via the descent (lifting) property.

    Peel a right descent s of w; u <= w iff u' <= ws, where u' is us when s
    is a descent of u and u otherwise.  Read backwards, w's canonical word
    lists the smallest descents that peeling w meets one by one, so only u
    is walked, on raw state, with both lengths tracked: a loop, not a
    recursion, whatever the lengths.

    >>> rs = build_root_system("A", 1)
    >>> bruhat_leq(generator(rs, 0), from_word(rs, [0, 1]))
    True
    >>> bruhat_leq(from_word(rs, [0, 1]), from_word(rs, [1, 0]))
    False
    """
    if u.system is not w.system:
        raise ValueError("Bruhat comparison across different root systems")
    system, lam, v = u.system, u.translation, u.finite
    word = reduced_word(w)
    lu, lw = length(u), len(word)
    for i in reversed(word):
        if not lu or lu > lw:
            break
        lw -= 1
        if _descends(system, lam, v, i):
            lam, v = _step(system, lam, v, i)
            lu -= 1
    return not lu


# -- enumeration ---------------------------------------------------------


# One ball per root system: its shells from length 0 up, seeded with the
# identity's and grown past the last only when a call reaches further.
_BALLS: dict[RootSystem, list[tuple[AffineWeylElement, ...]]] = {}


def enumerate_ball(
    system: RootSystem, max_len: int, max_elements: int = MAX_ELEMENTS
) -> tuple[tuple[AffineWeylElement, ...], ...]:
    """All elements of length <= max_len, grouped by length, by reverse search.

    One rule: y = x s_i is kept iff i is the smallest right descent of y,
    which makes i an ascent of x.  Then x is y's canonical parent, the
    canonical word of y is x's followed by i, and each element is made
    exactly once (Avis-Fukuda, Discrete Appl. Math. 65, 1996).  Walking
    shell k in order with i ascending thus leaves shell k + 1 sorted by
    canonical word.  y's pairs are x's changed as ``reduced_word`` peels i,
    so a rejected y is never built, and each kept y carries its word and
    its length, the depth.  Shells are shared: a smaller ball is a prefix
    of a larger one, made of the same objects, and the bound counts kept
    shells as it counts new ones, none of which is kept past it.
    """
    rows, total = system.affine_cartan, 1
    shells = _BALLS.setdefault(system, [(identity_element(system),)])
    for depth in range(1, max_len + 1):
        grow = depth == len(shells)
        nxt = [] if grow else shells[depth]
        for x in shells[-1] if grow else ():
            pairs = _root_pairs(x)
            for i, (level, height) in enumerate(pairs):
                first = next((j for j, ((lj, hj), a) in enumerate(zip(pairs, rows[i][:i + 1]))
                              if (lj - a * level, hj - a * height) < (0, 0)), None)
                if first == i:
                    y = _mul_gen(x, i)
                    y._word, y._length = x._word + (i,), depth
                    nxt.append(y)
        if (total := total + len(nxt)) > max_elements:
            raise ResourceBoundError(
                f"ball enumeration exceeded {max_elements} elements at depth "
                f"{depth} (completed depth {depth - 1})"
            )
        if grow:
            shells.append(tuple(nxt))
    return tuple(shells[:max(max_len, 0) + 1])


def element_sort_key(x: AffineWeylElement):
    return (length(x), reduced_word(x))


# -- distinguished elements and coset representatives --------------------


def _greedy(x: AffineWeylElement, letters, descend: bool) -> AffineWeylElement:
    """Multiply x on the right by the first letter that is a descent of it
    (an ascent, with descend false) until none is: this ends at the shortest
    (longest) element of x W_J, J the letters, W_J finite when ascending."""
    while True:
        for i in letters:
            if is_right_descent(x, i) == descend:
                x = _mul_gen(x, i)
                break
        else:
            return x


@functools.lru_cache(maxsize=None)
def longest_finite_element(system: RootSystem) -> AffineWeylElement:
    """The longest element of the finite Weyl group, by greedy ascent."""
    return _greedy(identity_element(system), range(1, system.rank + 1), False)


def min_coset_rep(x: AffineWeylElement, parabolic) -> AffineWeylElement:
    """Minimal-length element of x * W_parabolic, by peeling descents."""
    parabolic = _read_letters(x.system, parabolic, "parabolic")
    return _greedy(x, sorted(set(parabolic)), True)


def antidominant_rep(system: RootSystem, lam: Vector) -> AffineWeylElement:
    """The translation by an antidominant coweight, as its coset's minimum."""
    x = translation_element(system, lam)
    if not system.is_dominant(tuple(-c for c in x.translation)):
        raise ValueError(f"coweight {lam} is not antidominant")
    assert x == min_coset_rep(x, range(1, system.rank + 1))
    return x


def antidominant_orbit_rep(system: RootSystem, lam: Vector) -> Vector:
    """The unique antidominant coweight in the finite Weyl orbit of lam."""
    lam = list(int_vector(lam, system.rank))
    while (i := next((i for i, row in enumerate(system.cartan)
                      if sum(map(mul, row, lam)) > 0), -1)) >= 0:
        lam[i] -= sum(map(mul, system.cartan[i], lam))  # s_i, as <lam, alpha_i> > 0
    return tuple(lam)


_COXETER_ORDERS = (2, 3, 4, 6)  # m_ij for i != j, by a_ij a_ji; infinite from 4 on


def coxeter_order(system: RootSystem, i: int, j: int) -> int | None:
    """Order of generator(i) * generator(j), None when infinite: read off the
    affine Cartan matrix (Kac, Infinite-dimensional Lie algebras, Prop. 3.13)."""
    _read_letters(system, (i, j))
    if i == j:
        return 1
    n = system.affine_cartan[i][j] * system.affine_cartan[j][i]
    return _COXETER_ORDERS[n] if n < 4 else None


# -- serialization -------------------------------------------------------


def element_to_jsonable(x: AffineWeylElement) -> dict:
    """Element as translation coordinates plus the finite part's word."""
    return {"lambda": list(x.translation), "word": list(_part_word(x.system, x.finite))}


def check_element_jsonable(system: RootSystem, data) -> None:
    """ValueError unless data is {"lambda": [rank ints], "word": [letters 1..rank]}.

    The keys come in that order; a JSON string, float or bool is no int.
    """
    if not (type(data) is dict and list(data) == ["lambda", "word"]
            and type(data["lambda"]) is list and type(data["word"]) is list
            and all(type(c) is int for c in data["lambda"] + data["word"])):
        raise ValueError(f"malformed element {data!r}")
    int_vector(data["lambda"], system.rank, "lambda")
    if any(not 1 <= i <= system.rank for i in data["word"]):
        raise ValueError(f"finite-part word {data['word']} has letters outside 1..{system.rank}")


def element_from_jsonable(system: RootSystem, data: dict) -> AffineWeylElement:
    """Inverse of :func:`element_to_jsonable`; ValueError on any other shape."""
    check_element_jsonable(system, data)
    # t^lam u: the translation as read, with u walked once along its word
    return AffineWeylElement(system, tuple(data["lambda"]), from_word(system, data["word"]).finite)
