"""The public surface shared by the five sparse coefficient maps.

One case per class pins its repr, its JSON form, the errors raised when
values of different parameters or types meet, and that values are
unhashable.
"""

import pytest

from zerohecke import hecke, kmodule, weyl
from zerohecke.coeffs import PrimeField, TorusRing, monoid_monomial, monoid_unit
from zerohecke.rootdata import build_root_system

A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)
GF3 = PrimeField(3)
T3 = TorusRing(3, 3)


def _group_ring():
    a = T3.monomial((1, 0, -1), 2) + T3.monomial((0, 0, 0), 1)
    return a, TorusRing(5, 3).one(), a.to_jsonable()


def _monoid():
    m = monoid_monomial(A2, 3, (1, 1), 2) + monoid_unit(A2, 3)
    return m, monoid_unit(C2, 3), None


def _hecke():
    h = hecke.basis_y(weyl.from_word(A2, [0, 1]), GF3) + hecke.basis_y(
        weyl.from_word(A2, [2]), GF3
    ).scale(GF3.from_int(2))
    return h, hecke.hecke_unit(A2, PrimeField(5)), hecke.to_jsonable(h)


def _schubert():
    v = kmodule.basis_class(weyl.from_word(A2, [1, 2]), T3) + kmodule.basis_class(
        weyl.identity_element(A2), T3
    ).scale(T3.monomial((0, 1, 0)))
    return v, kmodule.basis_class(weyl.identity_element(A2), GF3), kmodule.schubert_to_jsonable(v)


def _grassmannian():
    g = kmodule.GrassmannianVector(
        A2, GF3, {(1, 0): GF3.one(), (0, -2): GF3.from_int(2), (-1, 0): GF3.one()}
    )
    other = kmodule.grassmannian_class(C2, (0, 0), GF3)
    return g, other, kmodule.grassmannian_to_jsonable(g)


CASES = {
    "GroupRingElement": (
        _group_ring,
        ("p", "nvars"),
        "1*x^[0, 0, 0] + 2*x^[1, 0, -1]",
        [{"exp": [0, 0, 0], "coeff": 1}, {"exp": [1, 0, -1], "coeff": 2}],
    ),
    "DominantMonoidElement": (_monoid, ("system", "p"), "1*t^[0, 0] + 2*t^[1, 1]", None),
    "HeckeElement": (
        _hecke,
        ("system", "ring"),
        "(FieldElement(3, 2))*Y(2,) + (FieldElement(3, 1))*Y(0, 1)",
        [
            {"elem": {"lambda": [0, 0], "word": [2]}, "coeff": 2},
            {"elem": {"lambda": [1, 1], "word": [1, 2]}, "coeff": 1},
        ],
    ),
    "SchubertVector": (
        _schubert,
        ("system", "ring"),
        "(1*x^[0, 1, 0])*[S()] + (1*x^[0, 0, 0])*[S(1, 2)]",
        [
            {"elem": {"lambda": [0, 0], "word": []},
             "coeff": [{"exp": [0, 1, 0], "coeff": 1}]},
            {"elem": {"lambda": [0, 0], "word": [1, 2]},
             "coeff": [{"exp": [0, 0, 0], "coeff": 1}]},
        ],
    ),
    "GrassmannianVector": (
        _grassmannian,
        ("system", "ring"),
        "(FieldElement(3, 2))*[G[-2, -2]] + (FieldElement(3, 2))*[G[-1, -1]]",
        [{"lambda": [-2, -2], "coeff": 2}, {"lambda": [-1, -1], "coeff": 2}],
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_sparse_surface(name):
    build, params, expected_repr, expected_json = CASES[name]
    value, other_params, data = build()
    assert type(value).__name__ == name
    assert repr(value) == expected_repr
    assert data == expected_json
    assert repr(type(value)(*(getattr(value, n) for n in params))) == "0"
    assert value != other_params
    with pytest.raises(ValueError, match="mixed"):
        value + other_params
    with pytest.raises(TypeError):
        value + 1
    with pytest.raises(TypeError):
        hash(value)

