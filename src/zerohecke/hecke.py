"""The Iwahori-Hecke algebra of the affine Weyl group with all parameters zero.

Elements are finitely supported maps from group elements to coefficients,
stored in the Y basis throughout: the basis in which every generator is
idempotent and products of basis elements are again basis elements.  The
product of two basis elements is computed by factoring the right operand
into generators and applying the one-step rule

    Y_x * Y_s = Y_(xs)  if xs is longer than x,  else  Y_x,

so the basis product is the Demazure (greedy) product of the underlying
group elements.  The sign-twisted basis labels (the double-coset
characteristic functions) are available through :func:`convert_basis`.

Coefficients are either GF(p) scalars or torus group-ring elements; the
ring is carried explicitly so that the zero element knows its parameters.
"""

from __future__ import annotations

from . import weyl
from .coeffs import DominantMonoidElement, PrimeField, SparseElement, TorusRing, add_raw
from .rootdata import RootSystem
from .weyl import AffineWeylElement

Ring = PrimeField | TorusRing

BASIS_DIRECTIONS = ("y_to_ytilde", "ytilde_to_y")


class HeckeElement(SparseElement):
    """A sparse algebra element over an explicit coefficient ring."""

    __slots__ = ()
    system, ring = SparseElement._first, SparseElement._second
    _sort_key = staticmethod(weyl.element_sort_key)

    def _key(self, w):
        if w.system != self.system:
            raise ValueError(f"basis element {w!r} lies in {w.system!r}")
        return w

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return multiply_hecke(self, other)
        return NotImplemented

    def _term_repr(self, w, c):
        return f"({c!r})*Y{weyl.reduced_word(w)}"


def hecke_zero(system: RootSystem, ring: Ring) -> HeckeElement:
    return HeckeElement(system, ring)


def hecke_unit(system: RootSystem, ring: Ring) -> HeckeElement:
    return HeckeElement(system, ring, {weyl.identity_element(system): ring.one()})


def basis_y(w: AffineWeylElement, ring: Ring) -> HeckeElement:
    """The basis element Y_w with coefficient one."""
    return HeckeElement(w.system, ring, {w: ring.one()})


def basis_ytilde(w: AffineWeylElement, ring: Ring) -> HeckeElement:
    """The sign-twisted basis element, expressed in Y coordinates."""
    return convert_basis(basis_y(w, ring), "y_to_ytilde")


def convert_basis(h: HeckeElement, direction: str) -> HeckeElement:
    """Relabel coefficients between the Y basis and the sign-twisted basis.

    Both directions multiply the coefficient of w by (-1)^length(w); the
    direction argument records which labels the input carried.  The map is
    an involution, and the identity map in characteristic 2.
    """
    if direction not in BASIS_DIRECTIONS:
        raise ValueError(f"direction must be one of {BASIS_DIRECTIONS}, got {direction!r}")
    return h._like(
        {w: c * h.ring.from_int((-1) ** weyl.length(w)) for w, c in h.terms.items()}
    )


def demazure_product(w: AffineWeylElement, x: AffineWeylElement) -> AffineWeylElement:
    """The greedy product: absorb the letters of x that still go up.

    Walked on raw (translation, part) state, one element at the end; w
    itself when no letter goes up.
    """
    system, lam, u = w.system, w.translation, w.finite
    moved = False
    for i in weyl.reduced_word(x):
        if not weyl._descends(system, lam, u, i):
            lam, u = weyl._step(system, lam, u, i)
            moved = True
    return AffineWeylElement(system, lam, u) if moved else w


def multiply_hecke(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Bilinear extension of the Y-basis product.

    Colliding targets add into one raw sum (:func:`coeffs.add_raw`), which
    can cancel mod p; the ring's ``wrap`` prunes it once at the end.
    """
    a._check(b)
    acc = {}
    for w, cw in a.terms.items():
        for x, cx in b.terms.items():
            key = demazure_product(w, x)
            acc[key] = add_raw(acc.get(key), cw, cx)
    return a._like(a.ring.wrap(acc))


def embed_dominant(m: DominantMonoidElement) -> HeckeElement:
    """Embed the dominant monoid ring: each coweight goes to Y at its translation.

    Multiplicative because lengths are additive on dominant translations;
    that is an assertion of the test suite, not of this function.
    """
    system = m.system
    ring = PrimeField(m.p)
    return HeckeElement(
        system, ring,
        {weyl.translation_element(system, lam): ring.from_int(c) for lam, c in m.terms.items()},
    )


def _check_basis(basis: str) -> None:
    if basis not in ("Y", "Ytilde"):
        raise ValueError(f"basis must be 'Y' or 'Ytilde', got {basis!r}")


def to_jsonable(h: HeckeElement, basis: str = "Y") -> list:
    """Terms sorted by (length, canonical word); basis selects the labels."""
    _check_basis(basis)
    src = h if basis == "Y" else convert_basis(h, "y_to_ytilde")
    return [
        {"elem": weyl.element_to_jsonable(w), "coeff": c.to_jsonable()}
        for w, c in src.sorted_terms()
    ]


def from_jsonable(
    system: RootSystem, ring: Ring, data: list, basis: str = "Y"
) -> HeckeElement:
    """Inverse of :func:`to_jsonable`, with the same basis labels."""
    _check_basis(basis)
    terms = {
        weyl.element_from_jsonable(system, t["elem"]): ring.coeff_from_jsonable(t["coeff"])
        for t in data
    }
    h = HeckeElement(system, ring, terms)
    if basis == "Ytilde":
        h = convert_basis(h, "ytilde_to_y")
    return h
