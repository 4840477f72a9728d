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

>>> rs = build_root_system("A", 2)
>>> rs.num_positive_roots
3
>>> rs.highest_root
(1, 1)
>>> rs.pairing((1, 0), (0, 1))
-1
"""

from __future__ import annotations

import functools
import itertools
from operator import mul, neg

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

VALID_TYPES = {
    "A": lambda l: l >= 1,
    "B": lambda l: l >= 2,
    "C": lambda l: l >= 2,
    "D": lambda l: l >= 4,
    "E": lambda l: l in (6, 7, 8),
    "F": lambda l: l == 4,
    "G": lambda l: l == 2,
}

# Number of positive roots per family, used as a self-check on the
# generated tables (the generation itself is one algorithm for all types).
_POSITIVE_ROOT_COUNTS = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
    "F": lambda l: 24,
    "G": lambda l: 6,
}


def _pairing_matrix(lie_type: str, rank: int) -> list[list[int]]:
    """Matrix ``A[i][j] = <coroot_i, root_j>`` for one irreducible type.

    Node numbering: types A-D and E use a chain 0,1,...; D attaches the
    last node to the third-from-last, E attaches the last node to the
    fourth-from-last.  In B the last chain node is short, in C it is long.
    """
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if lie_type == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif lie_type == "B":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -1, -2)
    elif lie_type == "C":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -2, -1)
    elif lie_type == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif lie_type == "E":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 4, rank - 1)
    elif lie_type == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif lie_type == "G":
        bond(0, 1, -3, -1)
    return a


class RootSystem:
    """Cartan data of one irreducible type, fixed at construction but for its root index.

    Do not instantiate directly; use :func:`build_root_system`, which
    validates the (type, rank) pair and interns the instances, so root
    systems compare by identity.
    """

    def __init__(self, lie_type: str, rank: int):
        if lie_type not in VALID_TYPES or not VALID_TYPES[lie_type](rank):
            raise ValueError(
                f"invalid root system type ({lie_type!r}, {rank}): supported are "
                "A(l>=1), B(l>=2), C(l>=2), D(l>=4), E(6,7,8), F(4), G(2)"
            )
        self.lie_type, self.rank = lie_type, rank

        a = _pairing_matrix(lie_type, rank)
        self._a = tuple(tuple(row) for row in a)
        # spec convention: cartan[i][j] = <coroot_j, root_i>
        self.cartan: Matrix = tuple(tuple(a[j][i] for j in range(rank)) for i in range(rank))

        self.positive_roots, self.highest_coroot = self._generate_positive_roots()
        expected = _POSITIVE_ROOT_COUNTS[lie_type](rank)
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"root closure for {lie_type}{rank} produced "
                f"{len(self.positive_roots)} roots, expected {expected}"
            )

        self.highest_root: Vector = self.positive_roots[-1]  # the one root of greatest height
        if any(b > t for beta in self.positive_roots for b, t in zip(beta, self.highest_root)):
            raise AssertionError("highest root is not coordinatewise maximal")
        self.two_rho: Vector = tuple(map(sum, zip(*self.positive_roots)))

        assert self.pairing(self.highest_coroot, self.highest_root) == 2

        # affine_cartan[j][i] = <alpha_j^vee, alpha_i> for 0 <= i, j <= rank,
        # with alpha_0 = -theta and alpha_0^vee = -theta^vee
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        roots = [tuple(-c for c in self.highest_root), *units]
        coroots = [tuple(-c for c in self.highest_coroot), *units]
        duals = [[self._coroot_pairing(m, beta) for m in range(rank)] for beta in roots]
        self.affine_cartan: Matrix = tuple(
            tuple(sum(map(mul, cor, dual)) for dual in duals) for cor in coroots
        )
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

    def _coroot_pairing(self, i: int, beta: Vector) -> int:
        # <coroot_i, beta> for beta in root coordinates
        return sum(self._a[i][k] * beta[k] for k in range(self.rank))

    def _generate_positive_roots(self) -> tuple[tuple[Vector, ...], Vector]:
        # The simple roots' orbit under the simple reflections, kept positive:
        # s_i raises beta by -<coroot_i, beta> alpha_i when that is positive,
        # and every positive root is reached so.  The coroot goes along as
        # s_i(beta^vee) = beta^vee - <beta^vee, alpha_i> coroot_i.  The roots
        # are listed by height, with the coroot of the last, the highest.
        units = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        found, seen = list(zip(units, units)), set(units)
        for beta, coroot in found:
            for i in range(self.rank):
                if (c := self._coroot_pairing(i, beta)) < 0 and (
                        gamma := beta[:i] + (beta[i] - c,) + beta[i + 1:]) not in seen:
                    seen.add(gamma)
                    d = sum(map(mul, coroot, self.cartan[i]))
                    found.append((gamma, coroot[:i] + (coroot[i] - d,) + coroot[i + 1:]))
        found.sort(key=lambda pair: (sum(pair[0]), pair[0]))
        return tuple(beta for beta, _ in found), found[-1][1]

    @functools.cached_property
    def root_index(self) -> RootIndex:
        """The roots met so far, as ints: made on first use, not at construction."""
        return RootIndex(self)

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
        return sum(
            beta[i] * sum(self.cartan[i][j] * lam[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def is_dominant(self, lam: Vector) -> bool:
        """True iff the coweight pairs >= 0 with every simple root."""
        if len(lam) != self.rank:
            raise ValueError(f"coweight of length {len(lam)} for rank {self.rank}")
        return all(
            sum(self.cartan[i][j] * lam[j] for j in range(self.rank)) >= 0
            for i in range(self.rank)
        )

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


class RootIndex:
    """The roots of one system as ints, each interned when first reached.

    alpha_0 := -theta is 0 and alpha_i is i, so that the identity of W0 keys
    as range(rank + 1); the rest join as reflections reach them, never listed
    up front.  Per index it keeps the root, its dual row cartan^T beta (so
    <lam, beta> = lam . dual), its height, its coroot in the simple-coroot
    basis and its row of the reflection memo.
    """

    def __init__(self, system: RootSystem):
        self.system, self._ids = system, {}
        self.roots, self.dual, self.height, self.coroot, self.reflections = [], [], [], [], []
        self.intern(tuple(map(neg, system.highest_root)), tuple(map(neg, system.highest_coroot)))
        for i in range(system.rank):
            unit = tuple(int(i == j) for j in range(system.rank))
            self.intern(unit, unit)

    def intern(self, root: Vector, coroot: Vector) -> int:
        """The index of root, whose coroot is given, made on first reach."""
        if root not in self._ids:
            if len(self.roots) == 2 * self.system.num_positive_roots:
                raise AssertionError(f"{root} is no root of {self.system!r}")
            self._ids[root] = r = len(self.roots)
            self.roots.append(root)
            self.dual.append(tuple(sum(map(mul, row, root)) for row in self.system._a))
            self.height.append(sum(root))
            self.coroot.append(coroot)
            self.reflections.append(_Reflections(self, r))
        return self._ids[root]


class _Reflections(dict):
    """The memo row of one root beta: index g -> the index of s_beta(gamma)
    = gamma - <beta^vee, gamma> beta, whose coroot is gamma^vee -
    <gamma^vee, beta> beta^vee; made on first lookup."""

    __slots__ = ("index", "b")

    def __init__(self, index: RootIndex, b: int):
        self.index, self.b = index, b

    def __missing__(self, g: int) -> int:
        index, b = self.index, self.b
        a = sum(map(mul, index.coroot[b], index.dual[g]))
        c = sum(map(mul, index.coroot[g], index.dual[b]))
        self[g] = r = index.intern(
            tuple(x - a * y for x, y in zip(index.roots[g], index.roots[b])),
            tuple(x - c * y for x, y in zip(index.coroot[g], index.coroot[b])))
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
    return _interned(lie_type, int(rank))


@functools.lru_cache(maxsize=None)
def _interned(lie_type: str, rank: int) -> RootSystem:
    return RootSystem(lie_type, rank)


def root_system_from_jsonable(data: dict) -> RootSystem:
    return build_root_system(data["type"], data["rank"])
