"""Root system construction, pairing and dominance."""

from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerohecke import weyl
from zerohecke.rootdata import RootSystem, build_root_system, root_system_from_jsonable

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
    ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]


def reflection_closure_positive_roots(rs):
    """Oracle: orbit of the simple roots under simple reflections, kept positive.

    Uses only the published cartan field, not the generation code under test.
    """
    rank = rs.rank

    def reflect(i, beta):
        # s_i(beta) = beta - <coroot_i, beta> alpha_i, with
        # <coroot_i, alpha_k> = cartan[k][i]
        c = sum(rs.cartan[k][i] * beta[k] for k in range(rank))
        out = list(beta)
        out[i] -= c
        return tuple(out)

    simples = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    roots = set(simples)
    frontier = set(simples)
    while frontier:
        new = set()
        for beta in frontier:
            for i in range(rank):
                img = reflect(i, beta)
                if img not in roots:
                    roots.add(img)
                    new.add(img)
        frontier = new
    return {r for r in roots if all(c >= 0 for c in r)}


# -- construction ------------------------------------------------------------


def test_a1_is_forced():
    rs = build_root_system("A", 1)
    assert rs.positive_roots == ((1,),)
    assert rs.highest_root == (1,)
    assert rs.two_rho == (1,)


def test_a_corrupted_reflection_fails_at_its_first_lookup():
    # the table is closed: with alpha_1's coroot doubled, s_1(alpha_2) would be
    # 2 alpha_1 + alpha_2, which has no index
    a2 = build_root_system("A", 2)
    assert a2.roots[a2.reflections[1][2]] == (1, 1)
    rs = RootSystem("A", 2)
    rs.coroot = tuple((2, 0) if r == 1 else c for r, c in enumerate(rs.coroot))
    with pytest.raises(KeyError):
        rs.reflections[1][2]
    assert 2 not in rs.reflections[1]


def test_a2_closure():
    rs = build_root_system("A", 2)
    assert set(rs.positive_roots) == reflection_closure_positive_roots(rs)
    assert rs.num_positive_roots == 3
    assert rs.highest_root == (1, 1)


def test_g2_closure():
    rs = build_root_system("G", 2)
    assert set(rs.positive_roots) == reflection_closure_positive_roots(rs)
    assert rs.num_positive_roots == 6


# cartan[i][j] = <alpha_j^vee, alpha_i> = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), typed
# from the standard tables (Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates II-IX)
# in this package's node numbering: a chain 0, 1, ...; in B3 alpha_2 is short, in C3
# long; D4 hangs node 3 on node 1, E6 node 5 on node 2; in F4 alpha_0 and alpha_1 are
# long, alpha_2 and alpha_3 short; in G2 alpha_0 is short.
STANDARD_CARTAN = {
    ("B", 3): ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    ("C", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("D", 4): ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    ("E", 6): ((2, -1, 0, 0, 0, 0), (-1, 2, -1, 0, 0, 0), (0, -1, 2, -1, 0, -1),
               (0, 0, -1, 2, -1, 0), (0, 0, 0, -1, 2, 0), (0, 0, -1, 0, 0, 2)),
    ("F", 4): ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    ("G", 2): ((2, -1), (-3, 2)),
}


@pytest.mark.parametrize("lie_type,rank", STANDARD_CARTAN)
def test_cartan_matrices_match_the_standard_tables(lie_type, rank):
    assert build_root_system(lie_type, rank).cartan == STANDARD_CARTAN[lie_type, rank]


@pytest.mark.parametrize("lie_type,rank", ALL_TYPES)
def test_positive_roots_match_reflection_oracle(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    assert set(rs.positive_roots) == reflection_closure_positive_roots(rs)


@pytest.mark.parametrize("lie_type,rank", ALL_TYPES)
def test_type_invariants(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    for i in range(rank):
        assert rs.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan[i][j] in (0, -1, -2, -3)
    # each simple root exactly once, no duplicates
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    for alpha in simples:
        assert rs.positive_roots.count(alpha) == 1
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)
    # closed under adding a simple root whenever the sum is a root
    all_roots = set(rs.positive_roots) | reflection_closure_positive_roots(rs)
    for beta in rs.positive_roots:
        for alpha in simples:
            gamma = tuple(b + a for b, a in zip(beta, alpha))
            if gamma in all_roots:
                assert gamma in rs.positive_roots
    # highest root is the unique coordinatewise maximum
    theta = rs.highest_root
    for beta in rs.positive_roots:
        assert all(b <= t for b, t in zip(beta, theta))
    # theta is dominant at the root level
    for i in range(rank):
        assert sum(rs.cartan[k][i] * theta[k] for k in range(rank)) >= 0
    assert rs.two_rho == tuple(sum(col) for col in zip(*rs.positive_roots))


@pytest.mark.parametrize("lie_type,rank", ALL_TYPES)
def test_root_table(lie_type, rank):
    # every root once: -theta, the simple roots, then the rest; the dual rows
    # are computed here from cartan, and s_beta, made from the coroot, permutes
    # the roots and sends beta to -beta, whose coroot is -beta^vee
    rs = build_root_system(lie_type, rank)
    negative = {tuple(-c for c in beta) for beta in rs.positive_roots}
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    assert len(set(rs.roots)) == len(rs.roots) == 2 * rs.num_positive_roots
    assert set(rs.roots) == set(rs.positive_roots) | negative
    assert rs.roots[:rank + 1] == (tuple(-c for c in rs.highest_root), *units)
    assert len(rs.coroot) == len(rs.dual) == len(rs.height) == len(rs.reflections) == len(rs.roots)
    index = {beta: r for r, beta in enumerate(rs.roots)}
    for r, beta in enumerate(rs.roots):
        assert rs.dual[r] == tuple(sum(rs.cartan[k][j] * beta[k] for k in range(rank))
                                   for j in range(rank)), beta
        assert rs.height[r] == sum(beta)
        assert rs.pairing(rs.coroot[r], beta) == 2, beta
        # <beta^vee, gamma> as the coroot against gamma's dual row, checked above
        images = {tuple(g - sum(map(mul, rs.coroot[r], dual)) * b for g, b in zip(gamma, beta))
                  for gamma, dual in zip(rs.roots, rs.dual)}
        assert images == set(rs.roots), beta
        assert rs.coroot[index[tuple(-c for c in beta)]] == tuple(-c for c in rs.coroot[r])


@pytest.mark.parametrize("lie_type,rank", ALL_TYPES)
def test_positive_root_count_is_longest_element_length(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    w0 = weyl.longest_finite_element(rs)
    assert weyl.length(w0) == rs.num_positive_roots


@pytest.mark.parametrize(
    "lie_type,rank", [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)]
)
def test_invalid_pairs_rejected(lie_type, rank):
    with pytest.raises(ValueError, match=f"{lie_type}"):
        build_root_system(lie_type, rank)


# -- pairing -----------------------------------------------------------------


def test_pairing_examples():
    a1 = build_root_system("A", 1)
    assert a1.pairing((1,), (1,)) == 2
    a2 = build_root_system("A", 2)
    assert a2.pairing((1, 0), (0, 1)) == -1
    # the highest coroot against the positive-root sum
    assert a2.pairing((1, 1), (2, 2)) == 4


def test_pairing_dimension_mismatch():
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        a2.pairing((1,), (0, 1))


@pytest.mark.parametrize("lam", [(1.5, 0), (True, 0)])
def test_pairing_reads_int_vectors(lam):
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError, match="not an int"):
        a2.pairing(lam, (1, 0))
    with pytest.raises(ValueError, match="not an int"):
        a2.pairing((1, 0), lam)


@settings(max_examples=100)
@given(
    lam=st.tuples(*[st.integers(-5, 5)] * 2),
    mu=st.tuples(*[st.integers(-5, 5)] * 2),
    beta=st.tuples(*[st.integers(-5, 5)] * 2),
    gamma=st.tuples(*[st.integers(-5, 5)] * 2),
)
def test_pairing_bilinear(lam, mu, beta, gamma):
    rs = build_root_system("C", 2)
    s = tuple(a + b for a, b in zip(lam, mu))
    assert rs.pairing(s, beta) == rs.pairing(lam, beta) + rs.pairing(mu, beta)
    t = tuple(a + b for a, b in zip(beta, gamma))
    assert rs.pairing(lam, t) == rs.pairing(lam, beta) + rs.pairing(lam, gamma)


# -- dominance ----------------------------------------------------------------


def test_dominance_examples():
    a1 = build_root_system("A", 1)
    assert a1.is_dominant((1,))
    a2 = build_root_system("A", 2)
    assert a2.is_dominant((1, 0)) is False
    assert a2.is_dominant((1, 1)) is True


def test_dominance_checks_the_coweight_length():
    a2 = build_root_system("A", 2)
    for lam in ((1,), (1, 1, 1), ()):
        with pytest.raises(ValueError, match=f"length {len(lam)} for rank 2"):
            a2.is_dominant(lam)


def test_dominance_equals_positive_root_condition():
    for lie_type, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(lie_type, rank)
        import itertools

        for lam in itertools.product(range(-2, 3), repeat=rank):
            via_simples = rs.is_dominant(lam)
            via_all = all(rs.pairing(lam, beta) >= 0 for beta in rs.positive_roots)
            assert via_simples == via_all


@settings(max_examples=60)
@given(
    lam=st.tuples(*[st.integers(0, 4)] * 2),
    mu=st.tuples(*[st.integers(0, 4)] * 2),
)
def test_dominant_monoid_closure(lam, mu):
    rs = build_root_system("G", 2)
    if rs.is_dominant(lam) and rs.is_dominant(mu):
        assert rs.is_dominant(tuple(a + b for a, b in zip(lam, mu)))


def test_dominant_coweights_listing():
    # in the coroot lattice of A2 the only dominant coweights with
    # coordinates <= 1 are zero and the highest coroot
    a2 = build_root_system("A", 2)
    assert a2.dominant_coweights(1) == [(0, 0), (1, 1)]
    a1 = build_root_system("A", 1)
    assert a1.dominant_coweights(2) == [(0,), (1,), (2,)]


# -- serialization ------------------------------------------------------------


def test_json_roundtrip():
    rs = build_root_system("C", 3)
    data = rs.to_jsonable()
    assert data == {"type": "C", "rank": 3}
    assert root_system_from_jsonable(data) is rs


def test_one_object_per_type_and_rank():
    rs = build_root_system("C", 3)
    assert build_root_system(lie_type="C", rank=3) is rs
    assert build_root_system("C", rank=3.0) is rs


@pytest.mark.parametrize("rank", [3.5, True, "3", 2.999])
def test_rank_must_be_an_integer(rank):
    # int() would truncate or parse each of these into a valid rank
    with pytest.raises(ValueError, match="rank"):
        build_root_system("A", rank)


def test_rank_from_json_must_be_an_integer():
    with pytest.raises(ValueError, match="rank"):
        root_system_from_jsonable({"type": "G", "rank": "2"})
    assert root_system_from_jsonable({"type": "G", "rank": 2}) is build_root_system("G", 2)
