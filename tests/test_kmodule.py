"""Demazure operators on Schubert classes and the module structures."""

import itertools
import random

import pytest

from zerohecke import checks, coeffs, kmodule, weyl
from zerohecke.coeffs import PrimeField, torus_ring
from zerohecke.hecke import HeckeElement, basis_y, hecke_unit, multiply_hecke
from zerohecke.kmodule import (
    GrassmannianVector,
    SchubertVector,
    basis_class,
    demazure_apply,
    demazure_letters_apply,
    demazure_word_apply,
    grassmannian_class,
    grassmannian_from_jsonable,
    grassmannian_pullback,
    grassmannian_to_jsonable,
    hecke_act,
    hecke_from_schubert,
    is_spherical_key,
    module_zero,
    schubert_from_hecke,
    schubert_from_jsonable,
    schubert_to_jsonable,
    specialize,
    spherical_act,
)
from zerohecke.rootdata import build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)
G2 = build_root_system("G", 2)
A3 = build_root_system("A", 3)

T3_A1 = torus_ring(A1, 3)
T3_A2 = torus_ring(A2, 3)


def flat_ball(system, n):
    return [x for shell in weyl.enumerate_ball(system, n) for x in shell]


# -- single operators ----------------------------------------------------------


def test_descent_class_is_fixed():
    s0 = weyl.generator(A1, 0)
    v = basis_class(s0, T3_A1)
    assert demazure_apply(v, 0) == v


def test_ascent_class_moves_up():
    v = basis_class(weyl.identity_element(A1), T3_A1)
    assert demazure_apply(v, 0) == basis_class(weyl.generator(A1, 0), T3_A1)


def test_linearity_and_collision():
    one = basis_class(weyl.identity_element(A1), T3_A1)
    s0 = basis_class(weyl.generator(A1, 0), T3_A1)
    out = demazure_apply(one + s0, 0)
    assert out == s0.scale(T3_A1.from_int(2))
    # the same collision cancels entirely mod 2
    t2 = torus_ring(A1, 2)
    one2 = basis_class(weyl.identity_element(A1), t2)
    s02 = basis_class(weyl.generator(A1, 0), t2)
    assert not demazure_apply(one2 + s02, 0)


def test_operator_index_validated():
    v = basis_class(weyl.identity_element(A2), T3_A2)
    with pytest.raises(ValueError, match="index"):
        demazure_apply(v, 7)


# -- composite operators ---------------------------------------------------------


def test_identity_word_is_identity_operator():
    v = basis_class(weyl.generator(A2, 1), T3_A2)
    assert demazure_word_apply(v, weyl.identity_element(A2)) == v


def test_two_raising_steps():
    v = basis_class(weyl.identity_element(A1), T3_A1)
    out = demazure_word_apply(v, weyl.from_word(A1, [0, 1]))
    assert out == basis_class(weyl.from_word(A1, [0, 1]), T3_A1)


def test_braid_equality_on_a_class():
    v = basis_class(weyl.generator(A2, 1), T3_A2)
    lhs = demazure_letters_apply(v, [1, 2, 1])
    rhs = demazure_letters_apply(v, [2, 1, 2])
    assert lhs == rhs


def test_operators_compose_left_to_right():
    # v . D_u . D_v must equal v . D_(uv); the reversed order would land on
    # a different class, pinning the opposite-endomorphism convention
    v = basis_class(weyl.identity_element(A2), T3_A2)
    u, w = weyl.generator(A2, 1), weyl.generator(A2, 2)
    via_steps = demazure_word_apply(demazure_word_apply(v, u), w)
    assert via_steps == demazure_word_apply(v, u * w)
    assert via_steps == basis_class(u * w, T3_A2)
    assert via_steps != basis_class(w * u, T3_A2)


def _letter_by_letter(v, letters):
    # reference: one intermediate vector per letter, pruned as it goes
    for i in letters:
        terms = {}
        for w, c in v.terms.items():
            target = kmodule.demazure_basis_target(w, i)
            terms[target] = terms[target] + c if target in terms else c
        v = SchubertVector(v.system, v.ring, terms)
    return v


def test_one_walk_matches_letter_by_letter_through_cancellation():
    ring = torus_ring(A2, 3)
    x = weyl.from_word(A2, [1, 2])
    c = ring.monomial((1, 0, -1), 2)
    # x and x s_0 collide on x s_0 at the first letter and cancel mod 3 there
    v = SchubertVector(A2, ring, {x: c, weyl._mul_gen(x, 0): -c,
                                  weyl.generator(A2, 2): ring.one()})
    letters = [0, 1, 2, 0, 1]
    assert len(_letter_by_letter(v, letters[:1]).terms) == 1
    assert demazure_letters_apply(v, letters) == _letter_by_letter(v, letters)
    rng = random.Random(5)
    ball = flat_ball(A2, 4)
    for _ in range(50):
        terms = {rng.choice(ball): ring.monomial((0, 0, 0), rng.randrange(1, 3))
                 for _ in range(rng.randrange(1, 6))}
        v = SchubertVector(A2, ring, terms)
        letters = [rng.randrange(3) for _ in range(rng.randrange(6))]
        assert demazure_letters_apply(v, letters) == _letter_by_letter(v, letters)


def test_out_of_range_letter_anywhere_is_rejected():
    v = basis_class(weyl.identity_element(A2), T3_A2)
    for letters in ([3], [1, 2, 7], [0, -1, 1], [1, 1, 1, 3]):
        bad = next(i for i in letters if not 0 <= i <= 2)
        for vec in (v, module_zero(A2, T3_A2)):
            with pytest.raises(ValueError, match=f"operator index {bad} out of range 0..2"):
                demazure_letters_apply(vec, letters)


def test_word_apply_and_action_read_the_live_rule(monkeypatch):
    s0 = weyl.generator(A2, 0)
    v = basis_class(s0, T3_A2)
    assert demazure_word_apply(v, s0) == v  # s0 is a descent: fixed
    monkeypatch.setattr(kmodule, "demazure_basis_target", lambda w, i: weyl._mul_gen(w, i))
    moved = basis_class(weyl.identity_element(A2), T3_A2)  # s0 s0 = e
    assert demazure_word_apply(v, s0) == moved
    assert hecke_act(v, basis_y(s0, PrimeField(3))) == moved


@pytest.mark.parametrize(
    "system,pairs",
    [
        (A2, [(1, 2)]),        # order 3
        (A3, [(0, 2), (1, 3)]),  # order 2
        (C2, [(1, 2)]),        # order 4
        (G2, [(1, 2)]),        # order 6
    ],
    ids=("A2", "A3", "C2", "G2"),
)
def test_braid_relations_smoke(system, pairs):
    ring = torus_ring(system, 3)
    for i, j in pairs:
        m = weyl.coxeter_order(system, i, j)
        word_ij = [i if k % 2 == 0 else j for k in range(m)]
        word_ji = [j if k % 2 == 0 else i for k in range(m)]
        for w in flat_ball(system, 3):
            v = basis_class(w, ring)
            assert demazure_letters_apply(v, word_ij) == demazure_letters_apply(v, word_ji)


def test_idempotency_random_vectors():
    rng = random.Random(1)
    ball = flat_ball(C2, 4)
    ring = torus_ring(C2, 5)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            exp = tuple(rng.randrange(-2, 3) for _ in range(3))
            terms[rng.choice(ball)] = ring.monomial(exp, rng.randrange(1, 5))
        v = SchubertVector(C2, ring, terms)
        for i in range(3):
            once = demazure_apply(v, i)
            assert demazure_apply(once, i) == once


# -- the right Hecke action --------------------------------------------------------


def test_unit_acts_trivially():
    v = basis_class(weyl.from_word(A2, [0, 1]), T3_A2)
    assert hecke_act(v, hecke_unit(A2, T3_A2)) == v


def test_idempotency_through_action():
    v = basis_class(weyl.identity_element(A2), T3_A2)
    ys = basis_y(weyl.generator(A2, 0), T3_A2)
    assert hecke_act(v, multiply_hecke(ys, ys)) == hecke_act(v, ys)


def test_action_path_equals_product_path():
    rng = random.Random(8)
    ball = flat_ball(A2, 3)

    def rand_hecke():
        terms = {}
        for _ in range(rng.randrange(1, 3)):
            exp = tuple(rng.randrange(-1, 2) for _ in range(3))
            terms[rng.choice(ball)] = T3_A2.monomial(exp, rng.randrange(1, 3))
        return HeckeElement(A2, T3_A2, terms)

    def rand_vector():
        terms = {}
        for _ in range(rng.randrange(1, 3)):
            exp = tuple(rng.randrange(-1, 2) for _ in range(3))
            terms[rng.choice(ball)] = T3_A2.monomial(exp, rng.randrange(1, 3))
        return SchubertVector(A2, T3_A2, terms)

    for _ in range(30):
        v, a, b = rand_vector(), rand_hecke(), rand_hecke()
        assert hecke_act(hecke_act(v, a), b) == hecke_act(v, multiply_hecke(a, b))


def test_action_freeness_witness():
    rng = random.Random(12)
    ball = flat_ball(C2, 3)
    ring = torus_ring(C2, 2)
    for _ in range(20):
        v = basis_class(rng.choice(ball), ring)
        h = basis_y(rng.choice(ball), ring)
        out = hecke_act(v, h)
        for key, coeff in out.terms.items():
            assert isinstance(key, weyl.AffineWeylElement)
            assert coeff.p == 2 and coeff.nvars == 3


def test_action_rejects_mismatched_parameters():
    v = basis_class(weyl.identity_element(A2), T3_A2)
    with pytest.raises(ValueError, match="different root systems"):
        hecke_act(v, hecke_unit(C2, torus_ring(C2, 3)))
    with pytest.raises(ValueError, match="cannot act"):
        hecke_act(v, hecke_unit(A2, torus_ring(A2, 5)))


def test_action_lifts_prime_field_coefficients():
    v = basis_class(weyl.identity_element(A2), T3_A2)
    h = basis_y(weyl.generator(A2, 0), PrimeField(3))
    assert hecke_act(v, h) == basis_class(weyl.generator(A2, 0), T3_A2)


def test_suite_actions_match_rings_by_identity(monkeypatch):
    # both suites act with the module's own ring or its field, so the action's
    # ring test never needs the descriptors' __eq__
    calls = []
    true_eq = coeffs._Ring.__eq__
    monkeypatch.setattr(coeffs._Ring, "__eq__", lambda a, b: calls.append(b) or true_eq(a, b))
    assert checks.check_specialize(A2, 3, n_instances=20, rng=random.Random(0)).passed
    assert checks.check_xi(A2, 3, exhaustive_bound=2, n_random=5, rng=random.Random(0)).passed
    assert calls == []
    # a ring equal to the module's, but another object, still acts
    v = basis_class(weyl.identity_element(A2), T3_A2)
    assert hecke_act(v, hecke_unit(A2, torus_ring(A2, 3))) == v
    assert calls



def _lift_coefficients(h, ring):
    """h over the torus ring, its GF(p) coefficients lifted to constants."""
    return HeckeElement(h.system, ring, {x: ring.lift_field(c) for x, c in h.terms.items()})


@pytest.mark.parametrize("p", [2, 3, 1000003])
@pytest.mark.parametrize("system", [A1, A2, C2, G2], ids=["A1", "A2", "C2", "G2"])
def test_prime_field_action_matches_lifted_torus_action(system, p):
    # the residue-wise GF(p) path against torus x torus convolution by constants
    ring, field = torus_ring(system, p), PrimeField(p)
    rng = random.Random(p + system.rank)
    ball = flat_ball(system, 3)
    for _ in range(40):
        v = SchubertVector(system, ring, {
            rng.choice(ball): ring.monomial([rng.randrange(-2, 3) for _ in range(ring.nvars)],
                                            rng.randrange(1, p))
            for _ in range(rng.randrange(1, 4))})
        h = HeckeElement(system, field, {rng.choice(ball): field.from_int(rng.randrange(1, p))
                                         for _ in range(rng.randrange(1, 4))})
        assert hecke_act(v, h) == hecke_act(v, _lift_coefficients(h, ring))


def test_prime_field_action_cancels_colliding_classes_mod_2():
    ring, field = torus_ring(A2, 2), PrimeField(2)
    x, s0 = weyl.from_word(A2, [1, 2]), weyl.generator(A2, 0)
    c = ring.monomial((1, 0, -1))
    # x and x s_0 both land on x s_0 under D_0, and 2c = 0 mod 2
    v = SchubertVector(A2, ring, {x: c, weyl._mul_gen(x, 0): c})
    h = basis_y(s0, field)
    assert not hecke_act(v, h) and not hecke_act(v, _lift_coefficients(h, ring))
    # Y_e + Y_{s_0} sends [x s_0] to itself twice
    h = HeckeElement(A2, field, {weyl.identity_element(A2): field.one(), s0: field.one()})
    v = SchubertVector(A2, ring, {weyl._mul_gen(x, 0): c})
    assert not hecke_act(v, h) and not hecke_act(v, _lift_coefficients(h, ring))

# -- the module relabeling -----------------------------------------------------------


def test_relabeling_examples():
    assert schubert_from_hecke(hecke_unit(A2, T3_A2)) == basis_class(
        weyl.identity_element(A2), T3_A2
    )
    w = weyl.from_word(A1, [0, 1])
    assert schubert_from_hecke(basis_y(w, T3_A1)) == basis_class(w, T3_A1)


def test_relabelings_are_mutually_inverse():
    rng = random.Random(3)
    ball = flat_ball(A2, 3)
    for _ in range(20):
        terms = {rng.choice(ball): T3_A2.monomial((1, 0, -1), rng.randrange(1, 3))}
        h = HeckeElement(A2, T3_A2, terms)
        assert hecke_from_schubert(schubert_from_hecke(h)).terms == h.terms
        v = SchubertVector(A2, T3_A2, terms)
        assert schubert_from_hecke(hecke_from_schubert(v)).terms == v.terms


def test_relabeling_intertwines_exhaustively_small():
    ball = flat_ball(A2, 3)
    for u in ball:
        yu = basis_y(u, T3_A2)
        for v in ball:
            yv = basis_y(v, T3_A2)
            lhs = schubert_from_hecke(multiply_hecke(yu, yv))
            rhs = hecke_act(schubert_from_hecke(yu), yv)
            assert lhs == rhs


# -- the Grassmannian side ----------------------------------------------------------


def test_grassmannian_keys_normalize():
    g = grassmannian_class(A1, (1,), T3_A1)
    assert list(g.terms) == [(-1,)]
    h = GrassmannianVector(A2, T3_A2, {(1, 1): T3_A2.one()})
    assert list(h.terms) == [(-1, -1)]


def test_grassmannian_orbit_collision_adds():
    one = T3_A1.one()
    g = GrassmannianVector(A1, T3_A1, {(1,): one, (-1,): one})
    assert g.terms == {(-1,): one + one}


def test_pullback_of_base_class():
    g = grassmannian_class(A1, (0,), T3_A1)
    assert grassmannian_pullback(g) == basis_class(weyl.longest_finite_element(A1), T3_A1)


def test_pullback_lengths_add():
    g = grassmannian_class(A1, (-1,), T3_A1)
    (key,) = grassmannian_pullback(g).terms
    assert weyl.length(key) == 3
    assert key == weyl.translation_element(A1, (-1,)) * weyl.longest_finite_element(A1)


def test_pullback_injective_on_small_keys():
    keys = set()
    for lam in A2.dominant_coweights(2):
        anti = tuple(-c for c in lam)
        (key,) = grassmannian_pullback(grassmannian_class(A2, anti, T3_A2)).terms
        assert key not in keys
        keys.add(key)


def test_grassmannian_json_roundtrip():
    g = GrassmannianVector(
        A2, T3_A2, {(-1, -1): T3_A2.one(), (0, 0): T3_A2.monomial((1, 0, 0), 2)}
    )
    data = grassmannian_to_jsonable(g)
    assert [tuple(t["lambda"]) for t in data] == sorted(tuple(t["lambda"]) for t in data)
    assert grassmannian_from_jsonable(A2, T3_A2, data) == g


# -- the spherical submodule -----------------------------------------------------------


def test_spherical_identity_action():
    v = basis_class(weyl.longest_finite_element(A2), T3_A2)
    assert spherical_act((0, 0), v) == v


def test_spherical_shift_example():
    v = basis_class(weyl.longest_finite_element(A1), T3_A1)
    out = spherical_act((1,), v)
    expected_key = weyl.longest_finite_element(A1) * weyl.translation_element(A1, (1,))
    assert out == basis_class(expected_key, T3_A1)
    assert weyl.length(expected_key) == 3


def test_spherical_shift_and_specialize_land_in_the_prime_field():
    w0 = weyl.longest_finite_element(A1)
    f3 = PrimeField(3)
    out = spherical_act((1,), basis_class(w0, f3))
    assert out == basis_class(w0 * weyl.translation_element(A1, (1,)), f3)
    assert specialize(basis_class(w0, T3_A1)).ring is T3_A1.field


def test_spherical_basis_rule_matches_hecke_route():
    # independent route: the action must shift the dominant label additively
    w0 = weyl.longest_finite_element(A2)
    for mu in A2.dominant_coweights(2):
        start = basis_class(w0 * weyl.translation_element(A2, mu), T3_A2)
        for lam in A2.dominant_coweights(2):
            out = spherical_act(lam, start)
            total = tuple(a + b for a, b in zip(mu, lam))
            expected = basis_class(w0 * weyl.translation_element(A2, total), T3_A2)
            assert out == expected


def test_spherical_support_stays_closed():
    rng = random.Random(10)
    w0 = weyl.longest_finite_element(A2)
    dom = A2.dominant_coweights(2)
    v = module_zero(A2, T3_A2)
    for mu in rng.sample(dom, 2):
        v = v + basis_class(w0 * weyl.translation_element(A2, mu), T3_A2)
    out = spherical_act(rng.choice(dom), v)
    for key in out.terms:
        assert is_spherical_key(A2, key)


def test_spherical_preconditions():
    v = basis_class(weyl.longest_finite_element(A2), T3_A2)
    with pytest.raises(ValueError, match="not dominant"):
        spherical_act((-1, 0), v)
    bad = basis_class(weyl.identity_element(A2), T3_A2)
    with pytest.raises(ValueError, match="spherical"):
        spherical_act((1, 1), bad)


@pytest.mark.parametrize("system", (A1, A2, C2, G2, A3), ids=("A1", "A2", "C2", "G2", "A3"))
def test_spherical_keys_are_read_off_the_key(monkeypatch, system):
    # w is spherical iff w0 w is a dominant translation: that product, against the
    # check, which multiplies no elements, here and in spherical_act
    w0 = weyl.longest_finite_element(system)
    parts = [x for shell in weyl.enumerate_ball(system, 2) for x in shell
             if not any(x.translation)] + [w0, w0 * weyl.generator(system, 1)]
    keys = [weyl.translation_element(system, lam) * u
            for lam in itertools.product(range(-2, 3), repeat=system.rank) for u in parts]
    expected = [(t := w0 * w).finite.is_identity() and system.is_dominant(t.translation)
                for w in keys]
    assert 0 < sum(expected) < len(keys)
    calls = []
    mul = weyl.AffineWeylElement.__mul__
    monkeypatch.setattr(weyl.AffineWeylElement, "__mul__",
                        lambda x, y: calls.append(1) or mul(x, y))
    assert [is_spherical_key(system, w) for w in keys] == expected
    escaped = next(w for w, ok in zip(keys, expected) if not ok)
    ring = torus_ring(system, 3)
    v = SchubertVector(system, ring, {**{w: 1 for w, ok in zip(keys, expected) if ok},
                                      escaped: 1})
    with pytest.raises(ValueError, match="spherical"):
        spherical_act((0,) * system.rank, v)
    assert not calls


def test_spherical_key_of_another_system_rejected():
    for key in (weyl.longest_finite_element(C2), weyl.identity_element(A1)):
        with pytest.raises(ValueError, match="lies in"):
            is_spherical_key(A2, key)


def test_class_keys_from_another_system_rejected():
    with pytest.raises(ValueError, match="lies in"):
        SchubertVector(A2, T3_A2, {weyl.generator(C2, 0): 1})


# -- specialization ----------------------------------------------------------------------


def test_specialize_constant_coefficients_unchanged():
    v = basis_class(weyl.generator(A2, 0), T3_A2).scale(T3_A2.from_int(2))
    out = specialize(v)
    (coeff,) = out.terms.values()
    assert coeff == PrimeField(3).from_int(2)


def test_specialize_drops_cancelling_terms():
    c = T3_A2.monomial((1, 0, 0), 1) + T3_A2.monomial((0, 1, 0), 2)
    v = basis_class(weyl.generator(A2, 1), T3_A2).scale(c)
    assert not specialize(v)


def test_specialize_intertwines_action():
    rng = random.Random(14)
    ball = flat_ball(A2, 4)
    field = PrimeField(3)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            exp = tuple(rng.randrange(-2, 3) for _ in range(3))
            terms[rng.choice(ball)] = T3_A2.monomial(exp, rng.randrange(1, 3))
        v = SchubertVector(A2, T3_A2, terms)
        i = rng.randrange(3)
        assert specialize(demazure_apply(v, i)) == demazure_apply(specialize(v), i)
        h = basis_y(rng.choice(ball), field)
        assert specialize(hecke_act(v, h)) == hecke_act(specialize(v), h)


def test_specialize_idempotent_over_prime_field():
    v = basis_class(weyl.generator(A2, 0), PrimeField(3))
    assert specialize(v) is v


# -- serialization -------------------------------------------------------------------------


def test_schubert_json_roundtrip():
    v = (
        basis_class(weyl.from_word(A2, [0, 1]), T3_A2)
        + basis_class(weyl.identity_element(A2), T3_A2).scale(
            T3_A2.monomial((0, 1, -1), 2)
        )
    )
    data = schubert_to_jsonable(v)
    keys = [
        weyl.element_sort_key(weyl.element_from_jsonable(A2, t["elem"])) for t in data
    ]
    assert keys == sorted(keys)
    assert schubert_from_jsonable(A2, T3_A2, data) == v
