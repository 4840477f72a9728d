"""Raw accumulation in the Hecke product and the right Hecke action.

Sums are built in place, so no call may write into an input, and classes
whose coefficients cancel mod p must leave no term.
"""

import operator

import pytest

from zerohecke import hecke, kmodule, weyl
from zerohecke.coeffs import PrimeField, SparseElement, torus_ring
from zerohecke.rootdata import build_root_system

A1 = build_root_system("A", 1)
T3, GF3 = torus_ring(A1, 3), PrimeField(3)
E, S0, S1 = weyl.identity_element(A1), weyl.generator(A1, 0), weyl.generator(A1, 1)


def _coeffs(ring):
    if isinstance(ring, PrimeField):
        return ring.from_int(1), ring.from_int(2)
    return ring.monomial((1, 0), 2) + ring.monomial((0, -1)), ring.monomial((0, -1), 2)


def _vector(ring):
    """E and S0 meet at S0 under D_0 and under Y_S0."""
    a, b = _coeffs(ring)
    return kmodule.SchubertVector(A1, ring, {E: a, S0: b, S1: a})


def _hecke(ring):
    """The unit-scalar term first: its classes start the sums."""
    a, b = _coeffs(ring)
    return hecke.HeckeElement(A1, ring, {S0: a, E: b})


def _json(x):
    if isinstance(x, kmodule.SchubertVector):
        return kmodule.schubert_to_jsonable(x)
    if isinstance(x, hecke.HeckeElement):
        return hecke.to_jsonable(x)
    return x.to_jsonable() if hasattr(x, "to_jsonable") else x


CALLS = {
    "hecke_act": lambda r: (kmodule.hecke_act, _vector(r), _hecke(r)),
    "hecke_act_gf3_algebra": lambda r: (kmodule.hecke_act, _vector(r), _hecke(GF3)),
    "multiply_hecke": lambda r: (hecke.multiply_hecke, _hecke(r), _hecke(r)),
    "demazure_letters_apply": lambda r: (kmodule.demazure_letters_apply, _vector(r), (0, 1, 0)),
    "specialize": lambda r: (kmodule.specialize, _vector(r)),
    "scale": lambda r: (SparseElement.scale, _vector(r), _coeffs(r)[1]),
    "add": lambda r: (operator.add, _vector(r), _vector(r)),
    "schubert_from_hecke": lambda r: (kmodule.schubert_from_hecke, _hecke(r)),
    "hecke_from_schubert": lambda r: (kmodule.hecke_from_schubert, _vector(r)),
}


@pytest.mark.parametrize("ring", [T3, GF3], ids=["torus", "gf3"])
@pytest.mark.parametrize("name", CALLS)
def test_no_input_is_written(name, ring):
    fn, *args = CALLS[name](ring)
    before = [_json(x) for x in args]
    out = fn(*args)
    assert [_json(x) for x in args] == before
    if all(out is not x for x in args):  # GF(p) specialize returns its input
        # the result is the caller's to accumulate into: it holds no input's terms
        for key, c in list(out.terms.items()):
            out.add_term(key, c)
        assert [_json(x) for x in args] == before


@pytest.mark.parametrize("ring", [T3, GF3], ids=["torus", "gf3"])
def test_cancelling_classes_leave_no_term(ring):
    _, b = _coeffs(ring)
    y = hecke.basis_y(S0, ring)
    v = kmodule.SchubertVector(A1, ring, {E: b, S0: -b})
    assert kmodule.hecke_act(v, y).terms == {}
    h = hecke.HeckeElement(A1, ring, {E: b, S0: -b})
    assert hecke.multiply_hecke(h, y).terms == {}


def test_partial_cancellation_keeps_the_surviving_exponents():
    a, b = _coeffs(T3)
    y = hecke.basis_y(S0, T3)
    v = kmodule.SchubertVector(A1, T3, {E: a + b, S0: -b})
    assert kmodule.hecke_act(v, y).terms == {S0: a}
    h = hecke.HeckeElement(A1, T3, {E: a + b, S0: -b})
    assert hecke.multiply_hecke(h, y).terms == {S0: a}


def test_torus_module_gf3_algebra_cancels_residue_wise():
    _, b = _coeffs(T3)
    v = kmodule.SchubertVector(A1, T3, {E: b, S0: b})
    h = hecke.HeckeElement(A1, GF3, {S0: GF3.from_int(1)})
    twice = kmodule.hecke_act(v, h)
    assert twice.terms == {S0: b + b}
    h3 = hecke.HeckeElement(A1, GF3, {S0: GF3.from_int(1), E: GF3.from_int(1)})
    # E, S0 -> S0 twice under Y_S0 plus S0 once under Y_E: 3b = 0 mod 3
    assert kmodule.hecke_act(v, h3).terms == {E: b}
