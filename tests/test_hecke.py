"""The 0-parameter Hecke algebra: bases, products, the dominant embedding."""

import random

import pytest

from zerohecke import checks, weyl
from zerohecke.coeffs import PrimeField, monoid_monomial, monoid_unit, torus_ring
from zerohecke.hecke import (
    HeckeElement,
    basis_y,
    basis_ytilde,
    convert_basis,
    demazure_product,
    embed_dominant,
    from_jsonable,
    hecke_unit,
    hecke_zero,
    multiply_hecke,
    to_jsonable,
)
from zerohecke.rootdata import build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)
GF3 = PrimeField(3)


def flat_ball(system, n):
    return [x for shell in weyl.enumerate_ball(system, n) for x in shell]


# -- bases ---------------------------------------------------------------------


def test_basis_at_identity_is_unit():
    assert basis_y(weyl.identity_element(A2), GF3) == hecke_unit(A2, GF3)
    h = basis_y(weyl.generator(A2, 1), GF3)
    assert multiply_hecke(hecke_unit(A2, GF3), h) == h


def test_sign_twist_relates_bases():
    for w in flat_ball(A2, 3):
        sign = GF3.from_int((-1) ** weyl.length(w))
        assert basis_y(w, GF3) == basis_ytilde(w, GF3).scale(sign)


def test_sign_twist_trivial_mod_two():
    gf2 = PrimeField(2)
    for w in flat_ball(A2, 3):
        assert basis_y(w, gf2) == basis_ytilde(w, gf2)
        h = basis_y(w, gf2)
        assert convert_basis(h, "y_to_ytilde") == h


def test_convert_basis_roundtrip_and_example():
    rng = random.Random(2)
    ball = flat_ball(C2, 3)
    for _ in range(20):
        terms = {rng.choice(ball): GF3.from_int(rng.randrange(1, 3)) for _ in range(2)}
        h = HeckeElement(C2, GF3, terms)
        back = convert_basis(convert_basis(h, "y_to_ytilde"), "ytilde_to_y")
        assert back == h
    # a single twisted term at a generator picks up one sign
    s0 = weyl.generator(A1, 0)
    h = convert_basis(basis_y(s0, GF3), "ytilde_to_y")
    assert h == basis_y(s0, GF3).scale(GF3.from_int(-1))
    with pytest.raises(ValueError, match="direction"):
        convert_basis(h, "sideways")


# -- products --------------------------------------------------------------------


def test_generator_idempotents():
    for system in (A1, A2, C2):
        for i in range(system.rank + 1):
            y = basis_y(weyl.generator(system, i), GF3)
            assert multiply_hecke(y, y) == y


def test_signed_generator_quadratic_relation():
    # in the sign-twisted labels the square of a generator is minus itself
    for i in range(3):
        w = weyl.generator(A2, i)
        yt_sq_in_y = multiply_hecke(basis_ytilde(w, GF3), basis_ytilde(w, GF3))
        assert yt_sq_in_y == basis_ytilde(w, GF3).scale(GF3.from_int(-1))


def test_length_additive_products():
    s0, s1 = weyl.generator(A1, 0), weyl.generator(A1, 1)
    assert multiply_hecke(basis_y(s0, GF3), basis_y(s1, GF3)) == basis_y(s0 * s1, GF3)
    a = basis_y(weyl.from_word(A1, [0, 1]), GF3)
    b = basis_y(weyl.from_word(A1, [1, 0]), GF3)
    assert multiply_hecke(a, b) == basis_y(weyl.from_word(A1, [0, 1, 0]), GF3)


@pytest.mark.parametrize("system", (A2, C2), ids=("A2", "C2"))
def test_length_additive_products_exhaustive(system):
    ball = flat_ball(system, 5)
    for u in ball:
        for v in ball:
            uv = u * v
            if weyl.length(uv) == weyl.length(u) + weyl.length(v):
                got = multiply_hecke(basis_y(u, GF3), basis_y(v, GF3))
                assert got == basis_y(uv, GF3)


@pytest.mark.parametrize("system", (A2, C2), ids=("A2", "C2"))
def test_associativity_exhaustive_basis_triples(system):
    ball = flat_ball(system, 4)
    ys = {w: basis_y(w, GF3) for w in ball}
    products = {
        (u, v): multiply_hecke(ys[u], ys[v]) for u in ball for v in ball
    }
    for u in ball:
        for v in ball:
            uv = products[u, v]
            for w in ball:
                lhs = multiply_hecke(uv, ys[w])
                rhs = multiply_hecke(ys[u], products[v, w])
                assert lhs == rhs


def test_associativity_randomized_sparse():
    rng = random.Random(9)
    ring = torus_ring(A2, 3)
    ball = flat_ball(A2, 3)

    def rand():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            exp = tuple(rng.randrange(-2, 3) for _ in range(3))
            terms[rng.choice(ball)] = ring.monomial(exp, rng.randrange(1, 3))
        return HeckeElement(A2, ring, terms)

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert multiply_hecke(multiply_hecke(a, b), c) == multiply_hecke(
            a, multiply_hecke(b, c)
        )


def test_product_independent_of_right_operand_words():
    # re-run the product along every reduced word of the right factor
    for x in flat_ball(A2, 4):
        expected = None
        for word in weyl.all_reduced_words(x):
            acc = weyl.from_word(A2, [0, 1])
            for i in word:
                if not weyl.is_right_descent(acc, i):
                    acc = acc * weyl.generator(A2, i)
            expected = acc if expected is None else expected
            assert acc == expected
        assert demazure_product(weyl.from_word(A2, [0, 1]), x) == expected


def reference_demazure_product(w, x):
    """The greedy product walked on elements, one element per letter."""
    acc = w
    for i in weyl.reduced_word(x):
        if not weyl.is_right_descent(acc, i):
            acc = weyl._mul_gen(acc, i)
    return acc


@pytest.mark.parametrize("system", [A1, A2, C2, build_root_system("G", 2)], ids=repr)
def test_demazure_product_matches_the_element_walk(system):
    ball = flat_ball(system, 4)
    for w in ball:
        for x in ball:
            product = demazure_product(w, x)
            assert product == reference_demazure_product(w, x), (w, x)
            assert product.finite is reference_demazure_product(w, x).finite


@pytest.mark.parametrize(
    "system,n",
    [(A1, 6), (A2, 4), (C2, 4), (build_root_system("G", 2), 4), (build_root_system("A", 3), 3)],
    ids=repr,
)
def test_demazure_product_is_the_longest_subword_product(system, n):
    # the product by a maximum, not by the greedy letters: every subword of
    # u's canonical word followed by v's multiplies to something below it
    ball = flat_ball(system, n)
    for u in ball:
        for v in ball:
            products = checks._subword_products(
                system, weyl.reduced_word(u) + weyl.reduced_word(v))
            top = max(map(weyl.length, products))
            (longest,) = [x for x in products if weyl.length(x) == top]
            assert demazure_product(u, v) == longest, (u, v)


def test_demazure_product_returns_w_when_nothing_goes_up():
    # w ends in the longest finite element: every word in 1, 2 is absorbed
    w = weyl.from_word(A2, [0, 1, 2, 1])
    absorbed = [x for x in flat_ball(A2, 3)
                if all(weyl.is_right_descent(w, i) for i in weyl.reduced_word(x))]
    assert len(absorbed) > 2
    for x in absorbed:
        assert demazure_product(w, x) is w


@pytest.mark.parametrize("system", [A1, A2])
@pytest.mark.parametrize("torus", [False, True])
def test_product_operator_is_multiply_hecke(system, torus):
    ring = torus_ring(system, 3) if torus else GF3
    ball = flat_ball(system, 3)
    for u in ball:
        for v in ball:
            a, b = basis_y(u, ring), basis_y(v, ring)
            assert a * b == multiply_hecke(a, b)
    with pytest.raises(TypeError):
        basis_y(ball[-1], ring) * 2


def test_multiply_rejects_mixed_parameters():
    with pytest.raises(ValueError, match="mixed"):
        multiply_hecke(hecke_unit(A2, GF3), hecke_unit(A2, PrimeField(5)))
    with pytest.raises(ValueError, match="mixed"):
        hecke_unit(A2, GF3) + hecke_unit(C2, GF3)


def test_basis_keys_from_another_system_rejected():
    for key in (weyl.generator(C2, 0), weyl.identity_element(A1)):
        with pytest.raises(ValueError, match="lies in"):
            HeckeElement(A2, GF3, {key: 1})


def test_zero_behaviour():
    z = hecke_zero(A2, GF3)
    h = basis_y(weyl.generator(A2, 0), GF3)
    assert not z
    assert multiply_hecke(z, h) == z
    assert h + (-h) == z


# -- the dominant-monoid embedding ---------------------------------------------------


def test_embed_dominant_examples():
    assert embed_dominant(monoid_unit(A1, 3)) == hecke_unit(A1, GF3)
    image = embed_dominant(monoid_monomial(A1, 3, (1,)))
    assert image == basis_y(weyl.from_word(A1, [0, 1]), GF3)


def test_embed_dominant_injective_on_translations():
    seen = {}
    for lam in A2.dominant_coweights(3):
        (key,) = embed_dominant(monoid_monomial(A2, 3, lam)).terms
        assert key not in seen
        seen[key] = lam


def test_embed_dominant_multiplicative_random():
    rng = random.Random(4)
    dom = C2.dominant_coweights(2)
    for _ in range(25):
        a = monoid_monomial(C2, 5, rng.choice(dom), rng.randrange(1, 5))
        b = monoid_monomial(C2, 5, rng.choice(dom), rng.randrange(1, 5))
        assert embed_dominant(a * b) == multiply_hecke(embed_dominant(a), embed_dominant(b))


# -- serialization ----------------------------------------------------------------------


def test_hecke_json_roundtrip_both_bases():
    rng = random.Random(6)
    ring = torus_ring(A2, 3)
    ball = flat_ball(A2, 3)
    for basis in ("Y", "Ytilde"):
        for _ in range(10):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                exp = tuple(rng.randrange(-1, 2) for _ in range(3))
                terms[rng.choice(ball)] = ring.monomial(exp, rng.randrange(1, 3))
            h = HeckeElement(A2, ring, terms)
            data = to_jsonable(h, basis=basis)
            assert from_jsonable(A2, ring, data, basis=basis) == h


def test_hecke_json_sorted_by_length_then_word():
    h = basis_y(weyl.from_word(A2, [0, 1]), GF3) + basis_y(
        weyl.generator(A2, 2), GF3
    ) + hecke_unit(A2, GF3)
    data = to_jsonable(h)
    words = [tuple(t["elem"]["word"]) for t in data]
    lambdas = [tuple(t["elem"]["lambda"]) for t in data]
    keys = [
        weyl.element_sort_key(weyl.element_from_jsonable(A2, t["elem"])) for t in data
    ]
    assert keys == sorted(keys)
    assert len(words) == len(lambdas) == 3


@pytest.mark.parametrize("basis", ["ytilde", "y", "X", ""])
def test_json_rejects_an_unknown_basis_both_ways(basis):
    # an unknown label is an error on the way in as on the way out, never read as Y
    gf5 = PrimeField(5)
    h = basis_y(weyl.generator(A1, 0), gf5)
    data = to_jsonable(h, basis="Ytilde")
    with pytest.raises(ValueError, match="basis must be 'Y' or 'Ytilde'"):
        to_jsonable(h, basis=basis)
    with pytest.raises(ValueError, match="basis must be 'Y' or 'Ytilde'"):
        from_jsonable(A1, gf5, data, basis=basis)
    assert from_jsonable(A1, gf5, data, basis="Ytilde") == h
