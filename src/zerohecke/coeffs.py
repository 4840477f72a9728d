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
from collections.abc import Iterable, Mapping
from operator import add

from .rootdata import RootSystem, Vector, int_vector


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
    Hecke algebra and the Schubert-class modules.  Every value holds its two
    parameters in the slots ``_first`` and ``_second``, which a subclass
    binds to public names (``p, nvars = SparseElement._first,
    SparseElement._second``); it is built as ``Cls(first, second, terms)``.
    Building, copying and comparing a value read and write those two slots
    directly, with no lookup by name.  Two values add, and compare equal,
    only when they share class and parameters.  A subclass canonicalizes and
    validates keys in ``_key``, orders them by ``_sort_key`` and formats one
    term in ``_term_repr``; the integer rings also reduce coefficients mod p
    in ``_reduce``.  The constructor checks each coefficient in ``_coeff``.
    Since zeros are pruned, equality is dict equality.
    """

    __slots__ = ("_first", "_second", "terms")

    def __init__(self, first, second, terms: Mapping | None = None):
        self._first, self._second = first, second
        self.terms = {}
        for key, c in (terms or {}).items():
            self.add_term(self._key(key), self._coeff(c))

    def _coeff(self, c):
        """c in the coefficient ring ``_second``: a plain int through its
        ``from_int``, anything else only if it lies in that ring."""
        ring = self._second
        if type(c) is int:
            return ring.from_int(c)
        if c not in ring:
            raise ValueError(f"coefficient {c!r} does not lie in {ring!r}")
        return c

    def _reduce(self, c):
        return c

    @staticmethod
    def _sort_key(key):
        return key

    @classmethod
    def _from_canonical(cls, first, second, terms: dict):
        """A value from canonical terms, which are not validated again."""
        out = object.__new__(cls)
        out._first, out._second, out.terms = first, second, terms
        return out

    def _like(self, terms: dict):
        """A value with self's parameters and the given canonical terms."""
        return self._from_canonical(self._first, self._second, terms)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        mine, theirs = (self._first, self._second), (other._first, other._second)
        if mine != theirs:
            raise ValueError(f"mixed {type(self).__name__} parameters {mine} and {theirs}")

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
        """Every coefficient times c, in one pass: each coefficient ring here
        is an integral domain, so a nonzero c makes no term vanish."""
        reduce = self._reduce
        c = reduce(c)
        if not c:
            return self._like({})
        return self._like({key: reduce(v * c) for key, v in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and (self._first, self._second) == (other._first, other._second)
            and self.terms == other.terms
        )

    __hash__ = None

    def sorted_terms(self) -> list:
        """The (key, coefficient) pairs in canonical order; one term needs no key."""
        if len(self.terms) < 2:
            return list(self.terms.items())
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

    @staticmethod
    def _coeff(c):  # the one int rule of coefficients: a bool, float or string is none
        if type(c) is not int:
            raise ValueError(f"coefficient {c!r} is not an int")
        return c

    def __mul__(self, other):
        self._check(other)
        return self._like(_reduced(add_raw(None, self, other), self.p))


def add_raw(raw, c, s):
    """raw + c*s unreduced, as no coefficient object: an int for a GF(p) c,
    else an exponent -> int dict written in place (raw None starts a sum).
    s is a GF(p) scalar or an element of c's ring; the rings' ``wrap`` reduces."""
    if type(c) is FieldElement:
        return (raw or 0) + c.residue * s.residue
    if raw is None:
        raw = {}
    if type(s) is FieldElement:
        r = s.residue
        for exp, e in c.terms.items():
            raw[exp] = raw.get(exp, 0) + e * r
        return raw
    for k1, c1 in c.terms.items():
        for k2, c2 in s.terms.items():
            key = tuple(map(add, k1, k2))
            raw[key] = raw.get(key, 0) + c1 * c2
    return raw


def _reduced(raw: dict, p: int) -> dict:
    return {key: r for key, e in raw.items() if (r := e % p)}


# -- the torus group ring --------------------------------------------------


class GroupRingElement(_ModPRing):
    """A finitely supported map from exponent vectors to GF(p), as a ring.

    ``nvars`` is rank+1: one loop-rotation exponent plus one per simple
    root.  Multiplication convolves exponents additively.
    """

    __slots__ = ()
    p, nvars = SparseElement._first, SparseElement._second

    def _key(self, exp):
        return int_vector(exp, self.nvars, "exponent")

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


class _Ring:
    """A ring descriptor keyed by the parameters ``_fields`` names, set once with
    their tuple ``_values``, after which assigning or deleting a slot raises
    AttributeError.  Equal only within its class, hashed and pickled by the
    values, shown as ``PrimeField(p=3)``; ``zero`` and ``one`` come from ``from_int``."""

    __slots__ = ("_values",)
    _fields = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._values

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)


class PrimeField(_Ring):
    """GF(p) for a prime p."""

    __slots__ = ("p",)
    _fields = ("p",)

    def __init__(self, p: int):
        super().__init__(_check_prime(p))

    @property
    def field(self) -> PrimeField:
        return self

    def __contains__(self, c) -> bool:
        return type(c) is FieldElement and c.p == self.p

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self.p, n)

    def coeff_from_jsonable(self, data) -> FieldElement:
        return FieldElement(self.p, _ModPRing._coeff(data))

    def wrap(self, acc: dict) -> dict:
        """Canonical terms from raw sums per key (see :func:`add_raw`)."""
        p = self.p
        return {key: FieldElement(p, r) for key, raw in acc.items() if (r := raw % p)}


class TorusRing(_Ring):
    """The torus group ring over GF(p) in ``nvars`` exponents.

    ``field`` is GF(p), built once per ring: coefficients specialize into
    it.  It is not one of the ring's ``_fields``.
    """

    __slots__ = ("p", "nvars", "field")
    _fields = ("p", "nvars")

    def __init__(self, p: int, nvars: int):
        field = PrimeField(p)
        if nvars < 1:
            raise ValueError("torus ring needs at least one exponent")
        super().__init__(p, nvars)
        object.__setattr__(self, "field", field)

    def __contains__(self, c) -> bool:
        return type(c) is GroupRingElement and (c.p, c.nvars) == self._values

    def monomial(self, exponents: Iterable[int], coeff: int = 1) -> GroupRingElement:
        return GroupRingElement(self.p, self.nvars, {tuple(exponents): coeff})

    def from_int(self, n: int) -> GroupRingElement:
        return GroupRingElement(self.p, self.nvars, {(0,) * self.nvars: n})

    def coeff_from_jsonable(self, data) -> GroupRingElement:
        return GroupRingElement(
            self.p, self.nvars, {tuple(t["exp"]): t["coeff"] for t in data}
        )

    def wrap(self, acc: dict) -> dict:
        """Canonical terms from raw sums per key (see :func:`add_raw`)."""
        p, n = self.p, self.nvars
        return {key: GroupRingElement._from_canonical(p, n, t)
                for key, raw in acc.items() if (t := _reduced(raw, p))}

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

    __slots__ = ()
    system, p = SparseElement._first, SparseElement._second

    def __init__(self, system: RootSystem, p: int, terms: Mapping | None = None):
        super().__init__(system, _check_prime(p), terms)

    def _key(self, lam):
        lam = int_vector(lam, self.system.rank)
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
