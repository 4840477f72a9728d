"""GF(p) arithmetic, the torus group ring, and the dominant monoid ring."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerohecke.coeffs import (
    FieldElement,
    GroupRingElement,
    PrimeField,
    TorusRing,
    is_prime,
    monoid_monomial,
    monoid_unit,
    specialize_at_identity,
    torus_ring,
)
from zerohecke.rootdata import build_root_system

A2 = build_root_system("A", 2)


# -- prime field ----------------------------------------------------------------


@pytest.mark.parametrize("p", (2, 3, 5))
def test_field_axioms_exhaustive(p):
    elems = [FieldElement(p, n) for n in range(p)]
    zero, one = FieldElement(p, 0), FieldElement(p, 1)
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a:
            assert a * a.inverse() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_field_mixed_characteristics_rejected():
    with pytest.raises(ValueError, match="mixed"):
        FieldElement(3, 1) + FieldElement(5, 1)


def test_prime_field_descriptor_rejects_composites():
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(6)
    with pytest.raises(ValueError, match="not prime"):
        TorusRing(9, 2)


# -- torus group ring --------------------------------------------------------------


def test_unit_and_monomials():
    ring = torus_ring(A2, 5)
    x = ring.monomial((1, 0, -2), 3)
    assert ring.one() * x == x
    assert x * ring.one() == x
    assert not ring.zero() * x


def test_frobenius_characteristic_two():
    ring = TorusRing(2, 2)
    chi = ring.monomial((1, 0))
    square = (chi + ring.one()) * (chi + ring.one())
    assert square == ring.monomial((2, 0)) + ring.one()


def _random_ring_element(ring, rng, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = tuple(rng.randrange(-3, 4) for _ in range(ring.nvars))
        terms[exp] = rng.randrange(ring.p)
    return GroupRingElement(ring.p, ring.nvars, terms)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_ring_laws_randomized(p):
    rng = random.Random(p)
    ring = TorusRing(p, 3)
    for _ in range(40):
        a, b, c = (_random_ring_element(ring, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ring.zero()


def test_no_zero_divisors_among_monomials():
    ring = TorusRing(3, 2)
    exps = list(itertools.product(range(-2, 3), repeat=2))
    for e1 in exps:
        for e2 in exps:
            for c1 in (1, 2):
                for c2 in (1, 2):
                    assert ring.monomial(e1, c1) * ring.monomial(e2, c2)


def test_canonical_form_never_stores_zero():
    rng = random.Random(11)
    ring = TorusRing(3, 2)
    for _ in range(50):
        a = _random_ring_element(ring, rng)
        b = _random_ring_element(ring, rng)
        for out in (a + b, a - b, a * b, -a):
            assert all(c % 3 for c in out.terms.values())


def test_mixed_ring_parameters_rejected():
    a = TorusRing(3, 2).one()
    with pytest.raises(ValueError, match="mixed"):
        a + TorusRing(3, 3).one()
    with pytest.raises(ValueError, match="mixed"):
        a * TorusRing(5, 2).one()


def test_exponent_length_validated():
    with pytest.raises(ValueError, match="length"):
        GroupRingElement(3, 2, {(1, 2, 3): 1})


# -- specialization -----------------------------------------------------------------


def test_specialize_examples():
    ring = TorusRing(3, 2)
    assert specialize_at_identity(ring.monomial((4, -1), 2)) == FieldElement(3, 2)
    mixed = ring.monomial((1, 0), 1) + ring.monomial((0, 1), 2)
    assert specialize_at_identity(mixed) == FieldElement(3, 0)


@settings(max_examples=60)
@given(data=st.data())
def test_specialize_is_ring_homomorphism(data):
    ring = TorusRing(5, 2)
    def draw_elem():
        n = data.draw(st.integers(0, 3))
        terms = {}
        for _ in range(n):
            exp = tuple(data.draw(st.integers(-2, 2)) for _ in range(2))
            terms[exp] = data.draw(st.integers(0, 4))
        return GroupRingElement(5, 2, terms)

    a, b = draw_elem(), draw_elem()
    assert specialize_at_identity(a + b) == specialize_at_identity(a) + specialize_at_identity(b)
    assert specialize_at_identity(a * b) == specialize_at_identity(a) * specialize_at_identity(b)


# -- dominant monoid ring ---------------------------------------------------------------


def test_monoid_unit():
    one = monoid_unit(A2, 3)
    x = monoid_monomial(A2, 3, (1, 1), 2)
    assert one * x == x


def test_monoid_single_monomials():
    a1 = build_root_system("A", 1)
    e = monoid_monomial(a1, 3, (1,))
    assert e * e == monoid_monomial(a1, 3, (2,))


def test_monoid_expansion():
    theta = A2.highest_coroot
    e = monoid_monomial(A2, 3, theta)
    s = e + monoid_unit(A2, 3)
    two_theta = tuple(2 * c for c in theta)
    assert s * e == monoid_monomial(A2, 3, two_theta) + e


def test_monoid_rejects_non_dominant_keys():
    with pytest.raises(ValueError, match="not dominant"):
        monoid_monomial(A2, 3, (1, 0))


def test_monoid_products_stay_dominant():
    rng = random.Random(5)
    dom = A2.dominant_coweights(2)
    for _ in range(30):
        a = monoid_monomial(A2, 5, rng.choice(dom), rng.randrange(1, 5))
        b = monoid_monomial(A2, 5, rng.choice(dom), rng.randrange(1, 5))
        for lam in (a * b).terms:
            assert A2.is_dominant(lam)


# -- serialization -------------------------------------------------------------------------


def test_group_ring_json_sorted_and_roundtrips():
    ring = TorusRing(5, 2)
    a = ring.monomial((1, -1), 2) + ring.monomial((-1, 3), 4) + ring.monomial((0, 0), 1)
    data = a.to_jsonable()
    exps = [tuple(t["exp"]) for t in data]
    assert exps == sorted(exps)
    assert ring.coeff_from_jsonable(data) == a


def test_field_json():
    assert FieldElement(7, 9).to_jsonable() == 2
    assert PrimeField(7).coeff_from_jsonable(2) == FieldElement(7, 2)


# -- primality -------------------------------------------------------------------------


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-5, 5000) if is_prime(n)] == [
        n for n in range(-5, 5000) if trial(n)
    ]


@pytest.mark.parametrize(
    "n, prime",
    [
        (1000000000000000003, True),
        (2**61 - 1, True),
        (10**24 + 7, True),
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # ... to the first nine prime bases
        (318665857834031151167461, False),  # ... to the first twelve
    ],
)
def test_is_prime_large(n, prime):
    assert is_prime(n) is prime


def test_is_prime_rejects_numbers_beyond_its_bound():
    # the smallest strong pseudoprime to the first thirteen prime bases
    with pytest.raises(ValueError, match="bound"):
        is_prime(3317044064679887385961981)
