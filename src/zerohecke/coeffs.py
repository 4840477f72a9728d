"""Coefficient arithmetic: GF(p), the torus group ring, the dominant monoid ring.

The group ring of the extended torus is a ring of Laurent "monomial sums"
in rank+1 integer exponents: index 0 is the loop-rotation factor, indices
1..rank the characters of the maximal torus.  Coefficients live in GF(p)
for a configured prime p.  All values are canonical sparse mappings: a zero
coefficient is never stored, so equality is plain dict equality.

Exponents are unbounded Python integers, so there is no wraparound to
guard against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .rootdata import RootSystem, Vector


# Sorenson and Webster (Math. Comp. 2017): below this bound, a strong
# probable prime to the first thirteen prime bases is prime.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


@functools.lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n below 3.3 * 10**24.

    Raises ValueError at or above that bound, where no fixed base set is
    proven exact.
    """
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(
            f"{n} is at or above the primality bound {_MILLER_RABIN_BOUND}"
        )
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


# -- the prime field ------------------------------------------------------


class FieldElement:
    """An element of GF(p).  Supports +, -, *, bool and equality."""

    __slots__ = ("p", "residue")

    def __init__(self, p: int, value: int):
        self.p = p
        self.residue = value % p

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"mixed characteristics {self.p} and {other.p}")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.p, self.residue + other.residue)

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.p, self.residue - other.residue)

    def __neg__(self):
        return FieldElement(self.p, -self.residue)

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.p, self.residue * other.residue)

    def inverse(self) -> "FieldElement":
        if self.residue == 0:
            raise ZeroDivisionError("inverting 0 in GF(p)")
        return FieldElement(self.p, pow(self.residue, self.p - 2, self.p))

    def __bool__(self):
        return self.residue != 0

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.p == other.p
            and self.residue == other.residue
        )

    def __hash__(self):
        return hash((self.p, self.residue))

    def __repr__(self):
        return f"FieldElement({self.p}, {self.residue})"

    def to_jsonable(self) -> int:
        return self.residue


# -- sparse maps -------------------------------------------------------------


class SparseElement:
    """A finitely supported map from keys to coefficients, never storing zero.

    The common shape of the torus group ring, the dominant monoid ring, the
    Hecke algebra and the Schubert-class modules.  A subclass names its two
    parameters in ``_params`` and is built as ``Cls(param, param, terms)``;
    two values add, and compare equal, only when they share class and
    parameters.  It canonicalizes and validates keys in ``_key``, orders
    them by ``_sort_key`` and formats one term in ``_term_repr``; the
    integer rings also reduce coefficients mod p in ``_reduce``.  Since
    zeros are pruned, equality is dict equality.
    """

    __slots__ = ("terms",)
    _params: tuple[str, str]

    def __init__(self, first, second, terms: Mapping | None = None):
        a, b = self._params
        setattr(self, a, first)
        setattr(self, b, second)
        self.terms = {}
        for key, c in (terms or {}).items():
            self.add_term(self._key(key), c)

    def _reduce(self, c):
        return c

    @staticmethod
    def _sort_key(key):
        return key

    def _param_values(self) -> tuple:
        a, b = self._params
        return getattr(self, a), getattr(self, b)

    def _like(self, terms: dict):
        """A value with self's parameters and the given canonical terms."""
        out = object.__new__(type(self))
        a, b = self._params
        setattr(out, a, getattr(self, a))
        setattr(out, b, getattr(self, b))
        out.terms = terms
        return out

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self._param_values() != other._param_values():
            raise ValueError(
                f"mixed {type(self).__name__} parameters "
                f"{self._param_values()} and {other._param_values()}"
            )

    def add_term(self, key, c) -> None:
        """Add c to the coefficient of a canonical key in place, pruning zero.

        For accumulating into a value that no one else holds yet.
        """
        terms = self.terms
        old = terms.get(key)
        c = self._reduce(c if old is None else old + c)
        if c:
            terms[key] = c
        elif old is not None:
            del terms[key]

    def __add__(self, other):
        self._check(other)
        out = self._like(dict(self.terms))
        for key, c in other.terms.items():
            out.add_term(key, c)
        return out

    def __neg__(self):
        return self._like({key: self._reduce(-c) for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        out = self._like({})
        for key, v in self.terms.items():
            out.add_term(key, v * c)
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._param_values() == other._param_values()
            and self.terms == other.terms
        )

    __hash__ = None

    def sorted_terms(self) -> list:
        """The (key, coefficient) pairs in canonical order."""
        return sorted(self.terms.items(), key=lambda t: self._sort_key(t[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(self._term_repr(key, c) for key, c in self.sorted_terms())


class _ModPRing(SparseElement):
    """Integer coefficients mod ``p``; keys add coordinatewise under ``*``."""

    __slots__ = ()

    def _reduce(self, c):
        return c % self.p

    def __mul__(self, other):
        self._check(other)
        p = self.p
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                v = (terms.get(key, 0) + c1 * c2) % p
                if v:
                    terms[key] = v
                elif key in terms:
                    del terms[key]
        return self._like(terms)


# -- the torus group ring --------------------------------------------------


class GroupRingElement(_ModPRing):
    """A finitely supported map from exponent vectors to GF(p), as a ring.

    ``nvars`` is rank+1: one loop-rotation exponent plus one per simple
    root.  Multiplication convolves exponents additively.
    """

    __slots__ = _params = ("p", "nvars")

    def _key(self, exp):
        exp = tuple(int(e) for e in exp)
        if len(exp) != self.nvars:
            raise ValueError(f"exponent {exp} has length != {self.nvars}")
        return exp

    def _term_repr(self, exp, c):
        return f"{c}*x^{list(exp)}"

    def to_jsonable(self) -> list:
        return [{"exp": list(exp), "coeff": c} for exp, c in self.sorted_terms()]


def specialize_at_identity(a: GroupRingElement) -> FieldElement:
    """Evaluate every character at the identity of the torus: sum of coefficients.

    This is the ring homomorphism induced by collapsing all exponents; it
    is checked, not assumed, to be multiplicative in the test suite.
    """
    return FieldElement(a.p, sum(a.terms.values()))


# -- ring descriptors ------------------------------------------------------

# HeckeElement and SchubertVector are generic over their coefficient ring;
# these two small descriptors carry the parameters and build constants.


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        _check_prime(self.p)

    def zero(self) -> FieldElement:
        return FieldElement(self.p, 0)

    def one(self) -> FieldElement:
        return FieldElement(self.p, 1)

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self.p, n)

    def coeff_from_jsonable(self, data) -> FieldElement:
        return FieldElement(self.p, int(data))


@dataclass(frozen=True)
class TorusRing:
    p: int
    nvars: int

    def __post_init__(self):
        _check_prime(self.p)
        if self.nvars < 1:
            raise ValueError("torus ring needs at least one exponent")

    def zero(self) -> GroupRingElement:
        return GroupRingElement(self.p, self.nvars)

    def one(self) -> GroupRingElement:
        return GroupRingElement(self.p, self.nvars, {(0,) * self.nvars: 1})

    def monomial(self, exponents: Iterable[int], coeff: int = 1) -> GroupRingElement:
        return GroupRingElement(self.p, self.nvars, {tuple(exponents): coeff})

    def from_int(self, n: int) -> GroupRingElement:
        return GroupRingElement(self.p, self.nvars, {(0,) * self.nvars: n})

    def coeff_from_jsonable(self, data) -> GroupRingElement:
        return GroupRingElement(
            self.p, self.nvars, {tuple(t["exp"]): t["coeff"] for t in data}
        )

    def lift_field(self, c: FieldElement) -> GroupRingElement:
        if c.p != self.p:
            raise ValueError(f"mixed characteristics {c.p} and {self.p}")
        return self.from_int(c.residue)


def torus_ring(system: RootSystem, p: int) -> TorusRing:
    """The group ring of the extended torus of the given root system."""
    return TorusRing(p, system.rank + 1)


# -- the dominant monoid ring ----------------------------------------------


class DominantMonoidElement(_ModPRing):
    """Finitely supported map from dominant coweights to GF(p), as a ring.

    Keys add coweight-wise under multiplication; dominance is preserved
    because the dominant coweights form a monoid.
    """

    __slots__ = _params = ("system", "p")

    def __init__(self, system: RootSystem, p: int, terms: Mapping | None = None):
        super().__init__(system, _check_prime(p), terms)

    def _key(self, lam):
        lam = tuple(int(x) for x in lam)
        if not self.system.is_dominant(lam):
            raise ValueError(f"coweight {lam} is not dominant")
        return lam

    def _term_repr(self, lam, c):
        return f"{c}*t^{list(lam)}"


def monoid_unit(system: RootSystem, p: int) -> DominantMonoidElement:
    return DominantMonoidElement(system, p, {(0,) * system.rank: 1})


def monoid_monomial(
    system: RootSystem, p: int, lam: Vector, coeff: int = 1
) -> DominantMonoidElement:
    return DominantMonoidElement(system, p, {tuple(lam): coeff})
