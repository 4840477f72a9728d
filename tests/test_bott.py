"""Shell sizes of every type against Bott's formula, from exponents alone.

Bott's formula gives the length generating function of an affine Weyl group
from the exponents m_i of its finite type (Bott, Bull. Soc. Math. France 84,
1956; Macdonald, Math. Ann. 199, 1972):

    sum over w of t^l(w) = prod_i (1 + t + ... + t^{m_i}) / (1 - t^{m_i}),

and at the finite group, |W_0| = prod (m_i + 1) and l(w_0) = sum m_i.  The
exponents are typed in from the table of degrees d_i = m_i + 1 (Humphreys,
Reflection Groups and Coxeter Groups, 3.7), not read from ``rootdata``.
B and C share their exponents, so these counts cannot tell them apart.
"""

import pytest

from zerohecke import weyl
from zerohecke.rootdata import build_root_system

EXPONENTS = {
    "A": lambda n: tuple(range(1, n + 1)),
    "B": lambda n: tuple(range(1, 2 * n, 2)),
    "C": lambda n: tuple(range(1, 2 * n, 2)),
    "D": lambda n: (*range(1, 2 * n - 2, 2), n - 1),
    "E": lambda n: {6: (1, 4, 5, 7, 8, 11), 7: (1, 5, 7, 9, 11, 13, 17),
                    8: (1, 7, 11, 13, 17, 19, 23, 29)}[n],
    "F": lambda n: (1, 5, 7, 11),
    "G": lambda n: (1, 5),
}


def bott_series(exponents, n: int) -> list[int]:
    """The coefficients of t^0 .. t^n in Bott's product."""
    series = [1] + [0] * n
    for m in exponents:
        # times 1 + t + ... + t^m, then divided by 1 - t^m, both truncated at t^n
        series = [sum(series[max(0, d - m):d + 1]) for d in range(n + 1)]
        for d in range(m, n + 1):
            series[d] += series[d - m]
    return series


def test_bott_series_of_a1_and_g2():
    # A~1 is the infinite dihedral group: two elements of every positive length
    assert bott_series((1,), 5) == [1, 2, 2, 2, 2, 2]
    assert bott_series((1, 5), 7) == [1, 3, 5, 7, 9, 12, 15, 17]


SHELLS = [
    *(("A", rank, 7) for rank in range(1, 8)),
    *((lie_type, rank, 6) for lie_type in "BC" for rank in range(2, 6)),
    *(("D", rank, 5) for rank in (4, 5, 6)),
    *(("E", rank, 4) for rank in (6, 7, 8)),
    ("F", 4, 6), ("G", 2, 9),
]


@pytest.mark.parametrize("lie_type,rank,n", SHELLS)
def test_ball_shells_follow_bott(lie_type, rank, n):
    shells = weyl.enumerate_ball(build_root_system(lie_type, rank), n)
    assert [len(shell) for shell in shells] == bott_series(EXPONENTS[lie_type](rank), n)


@pytest.mark.parametrize("lie_type,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_finite_weyl_group_order_and_longest_length(lie_type, rank):
    system = build_root_system(lie_type, rank)
    exponents = EXPONENTS[lie_type](rank)
    assert len(exponents) == rank
    # W_0 by breadth-first search over the finite generators s_1 .. s_rank
    gens = [weyl.generator(system, i) for i in range(1, rank + 1)]
    group = frontier = {weyl.identity_element(system)}
    while frontier:
        frontier = {x * s for x in frontier for s in gens} - group
        group = group | frontier
    order = 1
    for m in exponents:
        order *= m + 1
    assert len(group) == order
    assert max(map(weyl.length, group)) == sum(exponents)
    assert weyl.length(weyl.longest_finite_element(system)) == sum(exponents)
