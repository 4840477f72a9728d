"""The free module on Schubert classes with its Demazure operator action.

The module is the free torus-group-ring module on the affine Weyl group:
a vector is a finitely supported map from group elements ("classes") to
coefficients.  The Demazure operator of index i fixes a class whose key
has i as a right descent and otherwise moves it up by the generator;
coefficients are never touched (the operators are linear over the
coefficient ring), but distinct keys may collide on the same target, in
which case their coefficients add and may cancel mod p.

All operators act on the RIGHT, and composite operators follow the
opposite-endomorphism convention: ``v . D_w`` applies the letters of the
canonical reduced word of w left to right.  Every function here writes the
vector first and the operator second to keep that order visible.
"""

from __future__ import annotations

import functools

from . import hecke, weyl
from .coeffs import PrimeField, SparseElement, TorusRing, add_raw, specialize_at_identity
from .hecke import HeckeElement, Ring, basis_y
from .rootdata import RootSystem, Vector, int_vector
from .weyl import AffineWeylElement


class SchubertVector(SparseElement):
    """A sparse vector over the Schubert-class basis of the full flag module."""

    __slots__ = ()
    system, ring = SparseElement._first, SparseElement._second
    _sort_key = staticmethod(weyl.element_sort_key)

    def _key(self, w):
        if w.system != self.system:
            raise ValueError(f"class key {w!r} lies in {w.system!r}")
        return w

    def _term_repr(self, w, c):
        return f"({c!r})*[S{weyl.reduced_word(w)}]"


def module_zero(system: RootSystem, ring: Ring) -> SchubertVector:
    return SchubertVector(system, ring)


def basis_class(w: AffineWeylElement, ring: Ring) -> SchubertVector:
    """The Schubert class of w with coefficient one."""
    return SchubertVector(w.system, ring, {w: ring.one()})


# -- the Demazure operators ------------------------------------------------


@functools.lru_cache(maxsize=None)
def demazure_basis_target(w: AffineWeylElement, i: int) -> AffineWeylElement:
    """Where the i-th Demazure operator sends the class of w.

    Descent keys are fixed, ascent keys move up by the generator.  All
    operator machinery (module action, check suites) routes through this
    single rule.
    """
    if weyl.is_right_descent(w, i):
        return w
    return weyl._mul_gen(w, i)


def demazure_apply(v: SchubertVector, i: int) -> SchubertVector:
    """Apply one Demazure operator on the right: ``v . D_i``."""
    return demazure_letters_apply(v, (i,))


def demazure_word_apply(v: SchubertVector, w: AffineWeylElement) -> SchubertVector:
    """Apply the composite operator of w along its canonical reduced word."""
    return demazure_letters_apply(v, weyl.reduced_word(w))


def demazure_letters_apply(v: SchubertVector, letters) -> SchubertVector:
    """Apply operators for an explicit letter sequence, left to right.

    Each class goes through all letters by :func:`demazure_basis_target`
    and is added once; by linearity, classes that collide on the way meet
    again at the end, where their coefficients add and may cancel mod p.

    >>> rs, f3 = weyl.build_root_system("A", 1), PrimeField(3)
    >>> v = basis_class(weyl.identity_element(rs), f3) + basis_class(weyl.generator(rs, 0), f3)
    >>> demazure_letters_apply(v, [0, 1])
    (FieldElement(3, 2))*[S(0, 1)]
    """
    letters = weyl._read_letters(v.system, letters, "operator")
    out = v._like({})
    for w, c in _walk(v.terms, letters):
        out.add_term(w, c)
    return out


def _walk(terms: dict, letters):
    """Send each class through the letters: its (target, coefficient) pairs.

    The one reading of the Demazure rule, live at every letter.
    """
    for w, c in terms.items():
        for i in letters:
            w = demazure_basis_target(w, i)
        yield w, c


# -- the right Hecke action -------------------------------------------------


def hecke_act(v: SchubertVector, h: HeckeElement) -> SchubertVector:
    """The right action ``v . h``: each basis term (x, c) of h walks v along
    the canonical word of x, adding each walked coefficient times c into one
    raw sum per class (:func:`coeffs.add_raw`), wrapped once at the end.

    Scalars act through the module's own ring.  A GF(p) algebra acts on a
    torus-ring module residue-wise, with no constant to convolve:

    >>> rs, t3, f3 = weyl.build_root_system("A", 1), TorusRing(3, 2), PrimeField(3)
    >>> v = basis_class(weyl.identity_element(rs), t3).scale(t3.monomial((1, -1)))
    >>> hecke_act(v, basis_y(weyl.generator(rs, 0), f3).scale(f3.from_int(2)))
    (2*x^[1, -1])*[S(0,)]
    """
    if v.system is not h.system:
        raise ValueError("module and algebra over different root systems")
    # identity first: the suites act with the module's own ring or its field
    if (h.ring is not v.ring and h.ring is not v.ring.field
            and h.ring not in (v.ring, v.ring.field)):
        raise ValueError(
            f"cannot act with coefficients in {h.ring!r} on a module over {v.ring!r}"
        )
    acc = {}
    for x, c in h.terms.items():
        for w, d in _walk(v.terms, weyl.reduced_word(x)):
            acc[w] = add_raw(acc.get(w), d, c)
    return v._like(v.ring.wrap(acc))


# -- the module isomorphism --------------------------------------------------


def schubert_from_hecke(h: HeckeElement) -> SchubertVector:
    """Relabel an algebra element termwise onto Schubert classes, unvalidated."""
    return SchubertVector._from_canonical(h.system, h.ring, dict(h.terms))


def hecke_from_schubert(v: SchubertVector) -> HeckeElement:
    """Inverse relabeling of :func:`schubert_from_hecke`."""
    return HeckeElement._from_canonical(v.system, v.ring, dict(v.terms))


# -- the Grassmannian side ----------------------------------------------------


class GrassmannianVector(SparseElement):
    """A sparse vector over Schubert classes of the Grassmannian quotient.

    Keys are coweights labeling classes on translations; they are
    normalized to the antidominant representative of their finite Weyl
    orbit, which is the minimal-length labeling of the underlying coset.
    """

    __slots__ = ()
    system, ring = SparseElement._first, SparseElement._second

    def _key(self, lam):
        return weyl.antidominant_orbit_rep(self.system, lam)

    def _term_repr(self, lam, c):
        return f"({c!r})*[G{list(lam)}]"


def grassmannian_class(system: RootSystem, lam: Vector, ring: Ring) -> GrassmannianVector:
    return GrassmannianVector(system, ring, {tuple(lam): ring.one()})


def grassmannian_pullback(g: GrassmannianVector) -> SchubertVector:
    """Pull back classes along the projection from the full flag module.

    The class at an antidominant key goes to the class of the maximal
    representative of its coset: the translation times the longest finite
    element.  Injective, since distinct keys give distinct canonical forms.
    """
    w0 = weyl.longest_finite_element(g.system)
    terms = {weyl.translation_element(g.system, lam) * w0: c for lam, c in g.terms.items()}
    return SchubertVector(g.system, g.ring, terms)


# -- the antidominant (spherical) submodule -----------------------------------


def is_spherical_key(system: RootSystem, w: AffineWeylElement) -> bool:
    """True iff w is w0 t^lam, lam dominant; as w0 t^lam = t^(w0 lam) w0, iff
    w's finite part is w0's and minus w's translation is dominant."""
    if w.system is not system:
        raise ValueError(f"key {w!r} lies in {w.system!r}, not {system!r}")
    return (w.finite is weyl.longest_finite_element(system).finite
            and system.is_dominant([-c for c in w.translation]))


def spherical_act(lam: Vector, v: SchubertVector) -> SchubertVector:
    """Act by a dominant coweight on a vector in the pulled-back submodule.

    Implemented through the dominant-monoid embedding and the Hecke
    action; the basis-level shift rule is a consequence checked in tests.
    """
    system = v.system
    lam = int_vector(lam, system.rank)
    if not system.is_dominant(lam):
        raise ValueError(f"coweight {lam} is not dominant")
    for w in v.terms:
        if not is_spherical_key(system, w):
            raise ValueError(
                f"support key {w!r} is not of the spherical form "
                "(longest finite element times a dominant translation)"
            )
    h = basis_y(weyl.translation_element(system, lam), v.ring.field)
    return hecke_act(v, h)


# -- specialization ------------------------------------------------------------


def specialize(v: SchubertVector) -> SchubertVector:
    """Specialize every coefficient at the identity of the torus.

    Returns a vector over GF(p), filled in one pass over v's classes, which
    are already valid keys; terms whose coefficient sums to zero mod p are
    dropped.  Specialization commutes with the whole right action since
    the operators never touch coefficients.
    """
    if isinstance(v.ring, PrimeField):
        return v
    return SchubertVector._from_canonical(
        v.system, v.ring.field,
        {w: s for w, c in v.terms.items() if (s := specialize_at_identity(c))})


# -- serialization --------------------------------------------------------------


def schubert_to_jsonable(v: SchubertVector) -> list:
    """The schema of Hecke elements in the Y basis, through the isomorphism."""
    return hecke.to_jsonable(hecke_from_schubert(v))


def schubert_from_jsonable(system: RootSystem, ring: Ring, data: list) -> SchubertVector:
    return schubert_from_hecke(hecke.from_jsonable(system, ring, data))


def grassmannian_to_jsonable(g: GrassmannianVector) -> list:
    return [
        {"lambda": list(lam), "coeff": c.to_jsonable()} for lam, c in g.sorted_terms()
    ]


def grassmannian_from_jsonable(
    system: RootSystem, ring: Ring, data: list
) -> GrassmannianVector:
    terms = {tuple(t["lambda"]): ring.coeff_from_jsonable(t["coeff"]) for t in data}
    return GrassmannianVector(system, ring, terms)
