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
from operator import mul

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
    """Cartan data of one irreducible type, immutable after construction.

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
        self.lie_type = lie_type
        self.rank = rank

        a = _pairing_matrix(lie_type, rank)
        self._a = tuple(tuple(row) for row in a)
        # spec convention: cartan[i][j] = <coroot_j, root_i>
        self.cartan: Matrix = tuple(tuple(a[j][i] for j in range(rank)) for i in range(rank))

        self.positive_roots: tuple[Vector, ...] = self._generate_positive_roots()
        expected = _POSITIVE_ROOT_COUNTS[lie_type](rank)
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"root closure for {lie_type}{rank} produced "
                f"{len(self.positive_roots)} roots, expected {expected}"
            )

        self.highest_root: Vector = self._find_highest_root()
        self.two_rho: Vector = tuple(
            sum(col) for col in zip(*self.positive_roots)
        )
        self.highest_coroot: Vector = self._coroot_of_highest_root()

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

    def _generate_positive_roots(self) -> tuple[Vector, ...]:
        # Build by height: beta + alpha_i is a root iff the alpha_i-string
        # through beta has q = p - <beta, coroot_i> >= 1, where p is the
        # largest k with beta - k*alpha_i already found.
        rank = self.rank
        simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        found = set(simples)
        level = list(simples)
        levels = [list(simples)]
        while level:
            nxt = []
            for beta in level:
                for i in range(rank):
                    p = 0
                    lower = list(beta)
                    while True:
                        lower[i] -= 1
                        if tuple(lower) in found:
                            p += 1
                        else:
                            break
                    if p - self._coroot_pairing(i, beta) >= 1:
                        gamma = list(beta)
                        gamma[i] += 1
                        gamma = tuple(gamma)
                        if gamma not in found:
                            found.add(gamma)
                            nxt.append(gamma)
            if nxt:
                levels.append(nxt)
            level = nxt
        ordered = []
        for lev in levels:
            ordered.extend(sorted(lev))
        return tuple(ordered)

    def _find_highest_root(self) -> Vector:
        top = max(self.positive_roots, key=lambda r: (sum(r), r))
        for beta in self.positive_roots:
            if any(b > t for b, t in zip(beta, top)):
                raise AssertionError("highest root is not coordinatewise maximal")
        return top

    def _coroot_of_highest_root(self) -> Vector:
        # reflect theta down to a simple root alpha_k, then carry its coroot
        # back up, using (s_i beta)^vee = s_i(beta^vee)
        beta, path = self.highest_root, []
        while sum(beta) > 1:
            i, c = next((i, c) for i in range(self.rank) if (c := self._coroot_pairing(i, beta)) > 0)
            beta = beta[:i] + (beta[i] - c,) + beta[i + 1:]
            path.append(i)
        coroot = list(beta)  # alpha_k^vee has the coordinates of alpha_k
        for i in reversed(path):
            coroot[i] -= sum(map(mul, self.cartan[i], coroot))
        return tuple(coroot)

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
