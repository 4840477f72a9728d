"""Every public entry point reads its letters, coweights, exponent vectors and
JSON coefficients by one rule: an exact int (no bool, float or string), a
letter in 0..rank, a vector of the exact length.  Anything else is a
ValueError, not a coercion, a TypeError or an IndexError."""

import re

import pytest

from zerohecke import hecke, kmodule, weyl
from zerohecke.coeffs import DominantMonoidElement, GroupRingElement, PrimeField, TorusRing
from zerohecke.rootdata import build_root_system

A2 = build_root_system("A", 2)
GF3 = PrimeField(3)
X = weyl.from_word(A2, [0, 1, 2])
V = kmodule.basis_class(X, GF3)
SPHERICAL = kmodule.basis_class(weyl.longest_finite_element(A2), GF3)


def _element(coeff):
    return [{"elem": {"lambda": [0, 0], "word": []}, "coeff": coeff}]


# name: (input kind, the call on one input, a valid input)
SITES = {
    "generator": ("letter", lambda i: weyl.generator(A2, i), 1),
    "from_word": ("letter", lambda i: weyl.from_word(A2, [0, 1, i, 2]), 1),
    "is_right_descent": ("letter", lambda i: weyl.is_right_descent(X, i), 1),
    "coxeter_order-first": ("letter", lambda i: weyl.coxeter_order(A2, i, 2), 1),
    "coxeter_order-second": ("letter", lambda i: weyl.coxeter_order(A2, 0, i), 1),
    "min_coset_rep": ("letter", lambda i: weyl.min_coset_rep(X, [2, i]), 1),
    "demazure_letters_apply": ("letter", lambda i: kmodule.demazure_letters_apply(V, [0, i]), 1),
    "demazure_apply": ("letter", lambda i: kmodule.demazure_apply(V, i), 1),
    "translation_element": ("vector", lambda lam: weyl.translation_element(A2, lam), (1, 0)),
    "is_dominant": ("vector", A2.is_dominant, (1, 1)),
    "antidominant_orbit_rep": ("vector", lambda lam: weyl.antidominant_orbit_rep(A2, lam), (1, 0)),
    "antidominant_rep": ("vector", lambda lam: weyl.antidominant_rep(A2, lam), (-1, -1)),
    "DominantMonoidElement": ("vector", lambda lam: DominantMonoidElement(A2, 3, {lam: 1}), (1, 1)),
    "spherical_act": ("vector", lambda lam: kmodule.spherical_act(lam, SPHERICAL), (1, 1)),
    "GrassmannianVector": ("vector", lambda lam: kmodule.GrassmannianVector(A2, GF3, {lam: 1}),
                           (1, 0)),
    "GroupRingElement": ("vector", lambda exp: GroupRingElement(3, 3, {exp: 1}), (0, 1, 0)),
    "TorusRing.coeff_from_jsonable": (
        "vector", lambda exp: TorusRing(3, 3).coeff_from_jsonable([{"exp": exp, "coeff": 1}]),
        (0, 1, 0)),
    "hecke.from_jsonable": ("coefficient", lambda c: hecke.from_jsonable(A2, GF3, _element(c)), 2),
    "schubert_from_jsonable": (
        "coefficient", lambda c: kmodule.schubert_from_jsonable(A2, GF3, _element(c)), 2),
    "grassmannian_from_jsonable": (
        "coefficient",
        lambda c: kmodule.grassmannian_from_jsonable(A2, GF3, [{"lambda": [1, 0], "coeff": c}]), 2),
}


def _bad_inputs(kind, valid):
    """(input, the error it must raise) for each way an input of the kind goes wrong."""
    if kind == "letter":
        return [(i, f"index {i!r} out of range 0..2") for i in (True, 1.0, "1", 3, -1)]
    if kind == "coefficient":
        return [(c, "not an int") for c in (True, 1.7, 2.0, "2")]
    return ([((c,) + valid[1:], "not an int") for c in (True, 1.0, "1")]
            + [(valid[:-1], f"length {len(valid) - 1} for rank"),
               (valid + (0,), f"length {len(valid) + 1} for rank")])


@pytest.mark.parametrize("name", SITES)
def test_entry_point_reads_only_exact_ints(name):
    kind, call, valid = SITES[name]
    call(valid)
    for bad, message in _bad_inputs(kind, valid):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)
