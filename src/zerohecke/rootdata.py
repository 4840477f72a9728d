"""Root-system data for the split simply connected simple groups.

Everything in this package works with two coordinate systems and one
pairing, fixed here once and for all:

* roots are integer vectors in the simple-root basis,
* coweights (cocharacters of the maximal torus) are integer vectors in
  the simple-coroot basis,
* ``cartan[i][j]`` is the value of the j-th simple coroot paired against
  the i-th simple root.

All pairings route through the ``cartan`` matrix, so the transpose
conventions of the non-simply-laced types live in exactly one place.
There is no Euclidean embedding anywhere: arithmetic is exact, on
unbounded Python integers.

Each system lays out one root table at construction, from what the
generation of its positive roots computes: index 0 is -theta, index i
the simple root alpha_i, then the other positive roots, then the other
negative roots.  Per index it keeps the root, its dual row cartan^T beta
(so <lam, beta> = lam . dual), its height and its coroot in the
simple-coroot basis; a negative root takes the negated rows.  Only the
reflection memo is lazy: row b maps g to the index of s_beta(gamma),
made on first lookup.

>>> rs = build_root_system("A", 2)
>>> rs.num_positive_roots
3
>>> rs.highest_root
(1, 1)
>>> rs.roots[:rs.rank + 1]  # -theta, alpha_1, alpha_2
((-1, -1), (1, 0), (0, 1))
>>> rs.pairing((1, 0), (0, 1))
-1
"""

from __future__ import annotations

import functools
import itertools
from operator import mul, neg

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def int_vector(data, n: int, what: str = "coweight") -> Vector:
    """data as a tuple of exactly n ints, else ValueError (a bool, float or string is
    no int): the one reader of coweights and exponent vectors, n their torus's rank."""
    vec = tuple(data)
    if len(vec) != n:
        raise ValueError(f"{what} of length {len(vec)} for rank {n}")
    if not set(map(type, vec)) <= {int}:
        raise ValueError(f"{what} {vec} has an entry that is not an int")
    return vec


def _chain(n: int) -> list[tuple[int, int, int, int]]:
    """The simply-laced bonds of the chain of nodes 0, 1, ..., n - 1."""
    return [(i, i + 1, -1, -1) for i in range(n - 1)]


# Per Lie type: the ranks l it exists in, its number of positive roots (a
# self-check on the generated roots, which one algorithm makes for all types)
# and its Dynkin bonds (i, j, A[i][j], A[j][i]), A[i][j] = <coroot_i, root_j>.
# Nodes form a chain 0, 1, ...; D attaches the last node to the
# third-from-last, E to the fourth-from-last.  In B the last chain node is
# short, in C it is long; in F nodes 2 and 3 are short, in G node 0.
_TYPES = {
    "A": (lambda l: l >= 1, lambda l: l * (l + 1) // 2, _chain),
    "B": (lambda l: l >= 2, lambda l: l * l, lambda l: _chain(l - 1) + [(l - 2, l - 1, -1, -2)]),
    "C": (lambda l: l >= 2, lambda l: l * l, lambda l: _chain(l - 1) + [(l - 2, l - 1, -2, -1)]),
    "D": (lambda l: l >= 4, lambda l: l * (l - 1),
          lambda l: _chain(l - 1) + [(l - 3, l - 1, -1, -1)]),
    "E": (lambda l: l in (6, 7, 8), lambda l: {6: 36, 7: 63, 8: 120}[l],
          lambda l: _chain(l - 1) + [(l - 4, l - 1, -1, -1)]),
    "F": (lambda l: l == 4, lambda l: 24, lambda l: _chain(2) + [(1, 2, -1, -2), (2, 3, -1, -1)]),
    "G": (lambda l: l == 2, lambda l: 6, lambda l: [(0, 1, -3, -1)]),
}


class RootSystem:
    """Cartan data and the root table of one irreducible type, fixed at construction
    but for the reflection memo.

    Do not instantiate directly; use :func:`build_root_system`, which
    validates the (type, rank) pair and interns the instances, so root
    systems compare by identity.
    """

    def __init__(self, lie_type: str, rank: int):
        if lie_type not in _TYPES or not _TYPES[lie_type][0](rank):
            raise ValueError(
                f"invalid root system type ({lie_type!r}, {rank}): supported are "
                "A(l>=1), B(l>=2), C(l>=2), D(l>=4), E(6,7,8), F(4), G(2)"
            )
        self.lie_type, self.rank = lie_type, rank
        _, count, bonds = _TYPES[lie_type]

        # spec convention: cartan[i][j] = <coroot_j, root_i> = A[j][i]
        cartan = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
        for i, j, aij, aji in bonds(rank):
            cartan[j][i], cartan[i][j] = aij, aji
        self.cartan: Matrix = tuple(map(tuple, cartan))

        found = self._generate_positive_roots()
        expected = count(rank)
        if len(found) != expected:
            raise AssertionError(
                f"root closure for {lie_type}{rank} produced "
                f"{len(found)} roots, expected {expected}"
            )

        self.positive_roots = tuple(sorted((beta for beta, _, _ in found),
                                           key=lambda beta: (sum(beta), beta)))
        self.highest_root: Vector = self.positive_roots[-1]  # the one root of greatest height
        if any(b > t for beta in self.positive_roots for b, t in zip(beta, self.highest_root)):
            raise AssertionError("highest root is not coordinatewise maximal")
        self.two_rho: Vector = tuple(map(sum, zip(*self.positive_roots)))

        # the root table: -theta, the simple roots, the other positive roots
        # as found, then the other negative roots, each with negated rows
        t = next(r for r, (beta, _, _) in enumerate(found) if beta == self.highest_root)
        negated = [tuple(tuple(map(neg, row)) for row in record) for record in found]
        table = [negated[t], *found, *negated[:t], *negated[t + 1:]]
        self.roots, self.coroot, self.dual = (tuple(column) for column in zip(*table))
        self.height = tuple(map(sum, self.roots))
        self._ids = {beta: r for r, beta in enumerate(self.roots)}
        self.reflections = tuple(_Reflections(self, b) for b in range(len(table)))

        self.highest_coroot: Vector = found[t][1]
        assert self.pairing(self.highest_coroot, self.highest_root) == 2

        # affine_cartan[j][i] = <alpha_j^vee, alpha_i> for 0 <= i, j <= rank,
        # with alpha_0 = -theta and alpha_0^vee = -theta^vee
        ends = range(rank + 1)
        self.affine_cartan: Matrix = tuple(
            tuple(sum(map(mul, self.coroot[j], self.dual[i])) for i in ends) for j in ends
        )
        self.letters = frozenset(ends)  # the affine nodes: the letters of affine Weyl words
        # per node i, each (k, affine_cartan[i][k]) that is nonzero: the pairs peeling i moves
        self.neighbours = tuple(tuple((k, a) for k, a in enumerate(row) if a)
                                for row in self.affine_cartan)
        # (p, k) per positive root: root p plus alpha_k, or alpha_k itself
        # when p = -1; p comes first, since roots go by height
        index = {beta: r for r, beta in enumerate(self.positive_roots)}
        self.root_chain = tuple(
            next((index.get(low, -1), k) for k in range(rank)
                 if beta[k] and ((low := beta[:k] + (beta[k] - 1,) + beta[k + 1:]) in index
                                 or not any(low)))
            for beta in self.positive_roots
        )

    # -- generation ------------------------------------------------------

    def _generate_positive_roots(self) -> list[tuple[Vector, Vector, Vector]]:
        # The simple roots' orbit under the simple reflections, kept positive:
        # s_i raises beta by -<coroot_i, beta> alpha_i when that is positive,
        # and every positive root is reached so.  Each root comes as (root,
        # coroot, dual row), the simple roots first.  The dual row, entry j
        # <coroot_j, beta>, is row i of cartan for alpha_i; s_i moves it by c
        # times row i as it moves beta by c alpha_i, and moves the coroot as
        # s_i(beta^vee) = beta^vee - <beta^vee, alpha_i> coroot_i.
        units = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        found, seen = list(zip(units, units, self.cartan)), set(units)
        for beta, coroot, dual in found:
            for i, c in enumerate(dual):
                if c < 0 and (gamma := beta[:i] + (beta[i] - c,) + beta[i + 1:]) not in seen:
                    seen.add(gamma)
                    d = sum(map(mul, coroot, self.cartan[i]))
                    found.append((gamma, coroot[:i] + (coroot[i] - d,) + coroot[i + 1:],
                                  tuple(x - c * y for x, y in zip(dual, self.cartan[i]))))
        return found

    # -- queries ---------------------------------------------------------

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def pairing(self, lam: Vector, beta: Vector) -> int:
        """Pair a coweight against a root, both in their simple bases.

        >>> build_root_system("A", 2).pairing((1, 1), (2, 2))
        4
        """
        if len(lam) != self.rank or len(beta) != self.rank:
            raise ValueError(
                f"dimension mismatch: rank is {self.rank}, got coweight of "
                f"length {len(lam)} and root of length {len(beta)}"
            )
        lam, beta = int_vector(lam, self.rank), int_vector(beta, self.rank, "root")
        return sum(
            beta[i] * sum(self.cartan[i][j] * lam[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def is_dominant(self, lam: Vector) -> bool:
        """True iff the coweight pairs >= 0 with every simple root."""
        lam = int_vector(lam, self.rank)
        return all(sum(map(mul, row, lam)) >= 0 for row in self.cartan)

    def dominant_coweights(self, max_coord: int) -> list[Vector]:
        """All dominant coweights with coordinates in 0..max_coord."""
        out = []
        for coords in itertools.product(range(max_coord + 1), repeat=self.rank):
            if self.is_dominant(coords):
                out.append(coords)
        return out

    # -- plumbing --------------------------------------------------------

    def __repr__(self):
        return f"RootSystem({self.lie_type!r}, {self.rank})"

    def to_jsonable(self) -> dict:
        return {"type": self.lie_type, "rank": self.rank}


class _Reflections(dict):
    """The memo row of one root beta: index g -> the index of s_beta(gamma)
    = gamma - <beta^vee, gamma> beta, made on first lookup and looked up in
    the closed table, so a vector that is no root raises KeyError there."""

    __slots__ = ("system", "b")

    def __init__(self, system: RootSystem, b: int):
        self.system, self.b = system, b

    def __missing__(self, g: int) -> int:
        system, b = self.system, self.b
        a = sum(map(mul, system.coroot[b], system.dual[g]))
        gamma = tuple(x - a * y for x, y in zip(system.roots[g], system.roots[b]))
        self[g] = r = system._ids[gamma]
        return r


def build_root_system(lie_type: str, rank: int) -> RootSystem:
    """Construct (and intern) the root system of one irreducible type:
    one object per (type, rank), however the call is spelled.

    >>> build_root_system("G", 2).num_positive_roots
    6
    >>> build_root_system("A", 0)
    Traceback (most recent call last):
        ...
    ValueError: invalid root system type ('A', 0): supported are A(l>=1), \
B(l>=2), C(l>=2), D(l>=4), E(6,7,8), F(4), G(2)
    """
    if isinstance(rank, bool) or int(rank) != rank:
        raise ValueError(f"rank must be an integer, got {rank!r}")
    return _interned(lie_type, int(rank))


@functools.lru_cache(maxsize=None)
def _interned(lie_type: str, rank: int) -> RootSystem:
    return RootSystem(lie_type, rank)


def root_system_from_jsonable(data: dict) -> RootSystem:
    return build_root_system(data["type"], data["rank"])
