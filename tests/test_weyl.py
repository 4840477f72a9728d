"""Affine Weyl group arithmetic, length, words, Bruhat order, cosets."""

import itertools
import random

import pytest

from zerohecke import checks, weyl
from zerohecke.rootdata import RootSystem, build_root_system
from zerohecke.weyl import (
    AffineWeylElement,
    FinitePart,
    ResourceBoundError,
    all_reduced_words,
    antidominant_rep,
    bruhat_leq,
    element_from_jsonable,
    element_to_jsonable,
    enumerate_ball,
    from_word,
    generator,
    generators,
    identity_element,
    is_right_descent,
    length,
    longest_finite_element,
    min_coset_rep,
    reduced_word,
    translation_element,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)


def flat_ball(system, n):
    return [x for shell in enumerate_ball(system, n) for x in shell]


# -- multiplication -----------------------------------------------------------


def test_generators_are_involutions():
    for system in (A1, A2, C2):
        for s in generators(system):
            assert (s * s).is_identity()


def test_a1_s0_s1_is_translation():
    s0, s1 = generators(A1)
    e = s0 * s1
    assert e.translation == (1,)
    assert e.finite.is_identity()


def test_generator_zero_components():
    s0 = generator(A1, 0)
    assert s0.translation == (1,)  # the highest coroot
    assert not s0.finite.is_identity()
    s1 = generator(A2, 1)
    assert s1.translation == (0, 0)


def test_generator_index_range():
    with pytest.raises(ValueError, match="out of range"):
        generator(A2, 3)


def test_translation_coweight_length_checked():
    for lam in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match=f"length {len(lam)} for rank 2"):
            translation_element(A2, lam)


def _order_by_powers(system, i, j, cutoff=12):
    prod = x = generator(system, i) * generator(system, j)
    for order in range(1, cutoff + 1):
        if x.is_identity():
            return order
        x = x * prod
    return None


@pytest.mark.parametrize("lie_type,rank", [("A", 1), ("A", 2), ("C", 2), ("G", 2), ("B", 3),
                                           ("D", 4)], ids=("A1", "A2", "C2", "G2", "B3", "D4"))
def test_coxeter_orders_are_read_off_the_cartan_matrix(monkeypatch, lie_type, rank):
    # the order of s_i s_j by powering the product, against coxeter_order, which
    # multiplies no elements
    system = build_root_system(lie_type, rank)
    pairs = [(i, j) for i in range(rank + 1) for j in range(rank + 1)]
    expected = {(i, j): _order_by_powers(system, i, j) for i, j in pairs}
    calls = []
    mul = AffineWeylElement.__mul__
    monkeypatch.setattr(AffineWeylElement, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    assert {(i, j): weyl.coxeter_order(system, i, j) for i, j in pairs} == expected
    assert not calls
    assert (expected[0, 1] is None) == (system is A1)


def test_coxeter_order_index_range():
    for i, j in ((3, 0), (0, 3), (-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="out of range 0..2"):
            weyl.coxeter_order(A2, i, j)


def test_from_word_equals_the_generator_fold():
    # one walk on raw state lands on the element, and the part object, that
    # multiplying by one generator at a time reaches
    rng = random.Random(13)
    for lie_type, rank in (("A", 2), ("C", 2), ("G", 2), ("B", 3), ("E", 8)):
        system = build_root_system(lie_type, rank)
        for _ in range(20):
            word = [rng.randint(0, rank) for _ in range(rng.randint(0, 300))]
            x = identity_element(system)
            for i in word:
                x = weyl._mul_gen(x, i)
            y = from_word(system, word)
            assert y.translation == x.translation and y.finite is x.finite, word


def test_from_word_checks_every_letter():
    for system in (A2, build_root_system("G", 2)):
        for bad in (-1, system.rank + 1):
            for word in ([bad], [0, 1, bad], [0, 1, 2] * 50 + [bad] + [1, 2]):
                with pytest.raises(ValueError, match=f"generator index {bad} out of range"):
                    from_word(system, word)


def test_random_inverses():
    rng = random.Random(7)
    systems = [build_root_system(t, r) for t, r in (("G", 2), ("B", 3), ("F", 4), ("E", 8))]
    for system in (A2, C2, *systems):
        for _ in range(20):
            word = [rng.randrange(system.rank + 1) for _ in range(rng.randrange(8))]
            x = from_word(system, word)
            assert (x * x.inverse()).is_identity()
            assert (x.inverse() * x).is_identity()


def _assert_inverse(x):
    inv = x.inverse()
    assert (x * inv).is_identity() and (inv * x).is_identity(), x
    assert inv.inverse() == x, x
    assert weyl._FINITE_PARTS[x.system][inv.finite.key] is inv.finite, x


def test_inverse_by_powers_on_every_part_and_long_elements():
    b3 = build_root_system("B", 3)
    ball = flat_ball(b3, 9)
    assert len({x.finite for x in ball}) == 48  # every element of W0
    for x in ball:
        _assert_inverse(x)
    rng = random.Random(11)
    for system in (b3, C2, build_root_system("G", 2)):
        for _ in range(5):
            lam = tuple(rng.choice((-1, 1)) * rng.randrange(100, 200) for _ in range(system.rank))
            x = translation_element(system, lam) * from_word(
                system, [rng.randrange(system.rank + 1) for _ in range(12)])
            assert length(x) >= 200, x
            _assert_inverse(x)


def test_mixed_systems_rejected():
    with pytest.raises(ValueError, match="cannot multiply"):
        generator(A2, 1) * generator(C2, 1)


def test_associativity_spot_checks():
    rng = random.Random(3)
    for _ in range(30):
        x, y, z = (
            from_word(A2, [rng.randrange(3) for _ in range(rng.randrange(6))])
            for _ in range(3)
        )
        assert (x * y) * z == x * (y * z)


# -- interned finite parts ------------------------------------------------------


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _reflection(beta, beta_coroot, pair):
    # the matrix of gamma -> gamma - pair(beta_coroot, gamma) beta on unit vectors;
    # with the roles of root and coroot swapped it reflects coweights
    rank = len(beta)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    images = [tuple(g - pair(beta_coroot, unit) * b for g, b in zip(unit, beta)) for unit in units]
    return tuple(zip(*images))


def _root_reflections(system):
    # plain root-coordinate matrices of s_theta, s_1, ..., s_rank, built here
    rank = system.rank
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]

    def pair(coroot, root):  # <coroot, root>, coroot in the simple-coroot basis
        return sum(c * root[i] * system.cartan[i][j] for j, c in enumerate(coroot)
                   for i in range(rank))

    return [_reflection(system.highest_root, system.highest_coroot, pair),
            *(_reflection(u, u, pair) for u in units)]


def _coweight_reflections(system):
    # plain coweight matrices of s_theta, s_1, ..., s_rank: lam -> lam - <lam, beta> beta^vee
    units = [tuple(int(i == j) for j in range(system.rank)) for i in range(system.rank)]

    def pair(root, coweight):
        return system.pairing(coweight, root)

    return [_reflection(system.highest_coroot, system.highest_root, pair),
            *(_reflection(u, u, pair) for u in units)]


def _word_matrix(reflections, word):
    # the plain product of the generators' matrices along a word
    rank = len(reflections[0])
    mat = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    for i in word:
        mat = _matmul(mat, reflections[i])
    return mat


def _part_matrix(system, part):
    # the part's coweight matrix as the library sees it: column j is the coroot of u(alpha_j)
    return tuple(zip(*(system.coroot[r] for r in part.key[1:])))


@pytest.mark.parametrize("lie_type,rank,n", [("B", 3, 5), ("C", 3, 5), ("G", 2, 8),
                                             ("F", 4, 3), ("E", 6, 3)])
def test_interned_parts_match_matrix_products(lie_type, rank, n):
    # oracle: plain products of the generator matrices along the reduced word,
    # R on roots and M on coweights.  Key entry i is the root R alpha_i, with
    # alpha_0 = -theta; the root table holds its dual cartan^T R alpha_i, its
    # height ht(R alpha_i) and its coroot M alpha_i^vee, so that the i = 0
    # shift, minus the coroot of R alpha_0, is M theta_coroot.
    system = build_root_system(lie_type, rank)
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    cartan_t = tuple(zip(*system.cartan))
    simple = [tuple(-c for c in system.highest_root), *ident]
    simple_coroots = [tuple(-c for c in system.highest_coroot), *ident]
    reflections = _root_reflections(system)
    coweight_reflections = _coweight_reflections(system)
    for depth, shell in enumerate(enumerate_ball(system, n)):
        for x in shell:
            root_mat = _word_matrix(reflections, reduced_word(x))
            mat = _word_matrix(coweight_reflections, reduced_word(x))
            assert _part_matrix(system, x.finite) == mat, x
            for i, (r, alpha, coroot) in enumerate(zip(x.finite.key, simple, simple_coroots)):
                image = _matvec(root_mat, alpha)
                assert system.roots[r] == image, (x, i)
                assert system.dual[r] == _matvec(cartan_t, image), (x, i)
                assert system.height[r] == sum(image), (x, i)
                assert system.coroot[r] == _matvec(mat, coroot), (x, i)
            shift = tuple(-c for c in system.coroot[x.finite.key[0]])
            assert shift == _matvec(mat, system.highest_coroot), x
            assert length(AffineWeylElement(system, x.translation, x.finite)) == depth, x


@pytest.mark.parametrize("lie_type,rank", [("B", 3), ("G", 2), ("F", 4)])
def test_general_products_match_matrix_products(lie_type, rank):
    # products whose pointers are unset walk the left part along the right
    # part's word; the oracle is the plain product of the coweight matrices
    system = build_root_system(lie_type, rank)
    reflections = _coweight_reflections(system)
    rng = random.Random(17)
    for _ in range(200):
        words = [[rng.randrange(rank + 1) for _ in range(rng.randrange(12))] for _ in range(2)]
        x, y = (from_word(system, word) for word in words)
        expected = _matmul(*(_word_matrix(reflections, word) for word in words))
        assert _part_matrix(system, (x * y).finite) == expected, (x, y)


@pytest.mark.parametrize("lie_type,rank", [("B", 3), ("C", 3), ("G", 2), ("F", 4)])
def test_reflection_memo_matches_the_reflection_formula(lie_type, rank):
    # every memo entry reached by a ball is s_beta(gamma) = gamma - <beta^vee, gamma> beta,
    # with the pairing taken from the Cartan matrix here, and carries the coroot
    # s_beta(gamma^vee) = gamma^vee - <gamma^vee, beta> beta^vee
    system = build_root_system(lie_type, rank)
    enumerate_ball(system, 6)
    for b, row in enumerate(system.reflections):
        beta, beta_vee = system.roots[b], system.coroot[b]
        for g, r in row.items():
            gamma, gamma_vee = system.roots[g], system.coroot[g]
            a, c = system.pairing(beta_vee, gamma), system.pairing(gamma_vee, beta)
            assert system.roots[r] == tuple(x - a * y for x, y in zip(gamma, beta)), (b, g)
            assert system.coroot[r] == tuple(x - c * y for x, y in zip(gamma_vee, beta_vee)), (b, g)


def test_reflection_memo_is_lazy():
    # a fresh D32 lays out all 1,984 roots but reflects none until a part is
    # made, and eleven letters fill a few hundred of the memo's entries
    d32 = RootSystem("D", 32)
    assert len(d32.roots) == 2 * d32.num_positive_roots == 1984
    assert not any(d32.reflections)
    assert length(from_word(d32, range(11))) == 11
    assert sum(map(len, d32.reflections)) < 400


def test_b3_and_c3_share_no_parts():
    b3, c3 = build_root_system("B", 3), build_root_system("C", 3)
    parts = [{x.finite.key: x.finite for x in flat_ball(system, 5)} for system in (b3, c3)]
    shared = parts[0].keys() & parts[1].keys()
    assert shared  # the identity at least
    assert all(parts[0][k] is not parts[1][k] for k in shared)


def test_b3_and_c3_identities_differ():
    b3, c3 = (identity_element(build_root_system(t, 3)) for t in "BC")
    assert b3.finite.key == c3.finite.key and b3.translation == c3.translation
    assert b3 != c3


def test_equal_elements_share_one_finite_part():
    for system in (A2, C2, build_root_system("G", 2)):
        seen = {}
        for x in flat_ball(system, 5):
            inv = x.inverse()
            for y in (x, inv, inv.inverse(), x * inv,
                      element_from_jsonable(system, element_to_jsonable(x))):
                assert seen.setdefault(y.finite.key, y.finite) is y.finite, y
        assert seen[identity_element(system).finite.key] is identity_element(system).finite


@pytest.mark.parametrize(
    "lie_type,rank,n,order", [("A", 2, 10, 6), ("G", 2, 12, 12), ("B", 3, 9, 48)]
)
def test_intern_table_is_the_finite_weyl_group(lie_type, rank, n, order):
    system = build_root_system(lie_type, rank)
    enumerate_ball(system, n)
    assert len(weyl._FINITE_PARTS[system]) == order


def test_is_identity_of_parts_built_outside_the_table():
    e = identity_element(A2).finite
    assert FinitePart(e.key) is not e and FinitePart(e.key).is_identity()
    assert FinitePart((0, 1, 2)).is_identity()
    s1 = generator(A2, 1).finite
    assert not FinitePart(s1.key).is_identity()


# -- length ---------------------------------------------------------------------


def test_length_identity_and_generators():
    assert length(identity_element(A2)) == 0
    for system in (A1, A2, C2):
        for s in generators(system):
            assert length(s) == 1


def test_translation_lengths():
    assert length(translation_element(A1, (1,))) == A1.pairing((1,), A1.two_rho) == 2
    assert length(translation_element(A2, A2.highest_coroot)) == 4


@pytest.mark.parametrize(
    "lie_type,rank,n",
    [("A", 1, 6), ("A", 2, 8), ("C", 2, 8), ("G", 2, 8), ("A", 3, 6), ("B", 3, 5),
     ("D", 4, 4)],
    ids=("A1", "A2", "C2", "G2", "A3", "B3", "D4"),
)
def test_length_equals_bfs_depth(lie_type, rank, n):
    # oracle: bfs shells from the identity only use multiplication/equality;
    # fresh copies, so no cached length is read
    system = build_root_system(lie_type, rank)
    for depth, shell in enumerate(enumerate_ball(system, n)):
        for x in shell:
            assert length(AffineWeylElement(system, x.translation, x.finite)) == depth, x


def test_translation_length_formula_small():
    for system in (A2, C2):
        for lam in system.dominant_coweights(2):
            assert length(translation_element(system, lam)) == system.pairing(
                lam, system.two_rho
            )


# -- descents ---------------------------------------------------------------------


def test_descent_examples():
    assert not any(is_right_descent(identity_element(A1), i) for i in (0, 1))
    assert is_right_descent(generator(A1, 0), 0)
    e = from_word(A1, [0, 1])
    assert is_right_descent(e, 1)
    assert not is_right_descent(e, 0)


def test_descents_track_length_change():
    # non-simply-laced types catch a transposed Cartan matrix in the step
    # records; x * s_i by the generic product checks the record's product
    # and the i = 0 shift; bfs depth is the length oracle
    for lie_type, rank, n in (("A", 2, 4), ("C", 2, 4), ("G", 2, 6), ("B", 3, 4),
                              ("C", 3, 4), ("D", 4, 3), ("F", 4, 3), ("E", 6, 2)):
        system = build_root_system(lie_type, rank)
        shells = enumerate_ball(system, n + 1)
        depth = {x: k for k, shell in enumerate(shells) for x in shell}
        for x in flat_ball(system, n):
            for i in range(system.rank + 1):
                step = x * generator(system, i)
                assert weyl._mul_gen(x, i) == step, (x, i)
                delta = depth[step] - depth[x]
                assert delta in (-1, 1) and length(step) - length(x) == delta
                assert is_right_descent(x, i) == (delta == -1), (x, i)


def test_descent_index_is_checked():
    for system in (A2, build_root_system("G", 2)):
        x = from_word(system, [0, 1, 2])
        for bad in (-1, system.rank + 1):
            with pytest.raises(ValueError, match=f"generator index {bad} out of range 0..2"):
                is_right_descent(x, bad)


# -- reduced words -----------------------------------------------------------------


def test_reduced_word_examples():
    assert reduced_word(identity_element(A1)) == ()
    assert reduced_word(translation_element(A1, (1,))) == (0, 1)
    assert len(reduced_word(longest_finite_element(A2))) == 3


def test_reduced_words_reconstruct():
    for system in (A2, C2):
        for x in flat_ball(system, 5):
            word = reduced_word(x)
            assert len(word) == length(x)
            assert from_word(system, word) == x


def _reference_word(x):
    # peel the smallest right descent, one generic step at a time
    letters = []
    while not x.is_identity():
        i = next(i for i in range(x.system.rank + 1) if is_right_descent(x, i))
        letters.append(i)
        x = weyl._mul_gen(x, i)
    return tuple(reversed(letters))


@pytest.mark.parametrize(
    "lie_type,rank,n",
    [("A", 1, 8), ("A", 2, 8), ("C", 2, 8), ("G", 2, 8), ("A", 3, 3), ("B", 3, 3),
     ("C", 3, 3), ("D", 4, 3), ("F", 4, 3), ("E", 6, 3), ("E", 8, 3)],
)
def test_reduced_word_is_the_smallest_descent_peel(lie_type, rank, n):
    system = build_root_system(lie_type, rank)
    for x in flat_ball(system, n):
        assert reduced_word(x) == _reference_word(x), x


def test_reduced_word_of_long_elements_is_the_smallest_descent_peel():
    rng = random.Random(23)
    for system in (A2, C2, build_root_system("G", 2), build_root_system("A", 3)):
        for _ in range(5):
            lam = tuple(rng.choice((-1, 1)) * rng.randrange(600, 900) for _ in range(system.rank))
            x = translation_element(system, lam) * from_word(
                system, [rng.randrange(system.rank + 1) for _ in range(10)])
            assert length(x) >= 1000, x
            assert reduced_word(x) == _reference_word(x), x


def _peeled_part_word(system, u):
    # the reference: the canonical word of t^0 u, peeled on its (level, height) pairs
    return reduced_word(AffineWeylElement(system, (0,) * system.rank, u))


@pytest.mark.parametrize(
    "lie_type,rank,n",
    [("A", 1, 8), ("A", 2, 6), ("B", 3, 4), ("C", 3, 4), ("D", 4, 4), ("E", 6, 3),
     ("E", 8, 3), ("F", 4, 4), ("G", 2, 8)],
)
def test_part_word_read_off_heights_is_the_peel_of_t0_u(lie_type, rank, n):
    system = build_root_system(lie_type, rank)
    ball = flat_ball(system, n)
    for u in {x.finite for x in ball} | {longest_finite_element(system).finite}:
        word = _peeled_part_word(system, u)
        # a copy outside the table has no word kept, so it is walked here
        assert weyl._part_word(system, FinitePart(u.key)) == word, u
        assert weyl._part_word(system, u) == word and u._word == word, u
    for x in ball:
        assert element_from_jsonable(system, element_to_jsonable(x)) == x, x


def test_all_reduced_words_examples():
    assert all_reduced_words(identity_element(A1)) == ((),)
    # infinite dihedral: every element has exactly one reduced word
    for x in flat_ball(A1, 6):
        assert len(all_reduced_words(x)) == 1
    w0 = longest_finite_element(A2)
    assert set(all_reduced_words(w0)) == {(1, 2, 1), (2, 1, 2)}


def test_all_reduced_words_properties():
    for x in flat_ball(A2, 4):
        words = all_reduced_words(x)
        assert len(set(words)) == len(words)
        for w in words:
            assert len(w) == length(x)
            assert from_word(A2, w) == x


def test_all_reduced_words_reads_lengths_down_the_recursion(monkeypatch):
    # each step down lowers the length by one, so a ball element, whose
    # length the walk has set, needs no closed-form length below it
    x = enumerate_ball(build_root_system("E", 6), 6)[6][-1]
    assert len(all_reduced_words(x)) > 1
    calls = []
    true_pairs = weyl._root_pairs
    monkeypatch.setattr(weyl, "_root_pairs", lambda y: calls.append(y) or true_pairs(y))
    words = all_reduced_words(x)
    assert not calls
    assert all(from_word(x.system, w) == x and len(w) == 6 for w in words)


def test_all_reduced_words_guard():
    x = from_word(A2, [0, 1, 2, 0, 1, 2])
    with pytest.raises(ResourceBoundError, match="guard"):
        all_reduced_words(x, max_length=3)


# -- Bruhat order -------------------------------------------------------------------


def bruhat_subword(u, w):
    word = reduced_word(w)
    k = length(u)
    return any(
        from_word(u.system, [word[p] for p in positions]) == u
        for positions in itertools.combinations(range(len(word)), k)
    )


def test_bruhat_examples():
    s0 = generator(A1, 0)
    assert bruhat_leq(s0, from_word(A1, [0, 1]))
    assert not bruhat_leq(from_word(A1, [0, 1]), from_word(A1, [1, 0]))
    for x in flat_ball(A2, 3):
        assert bruhat_leq(identity_element(A2), x)
        assert bruhat_leq(x, x)


def test_bruhat_across_systems_rejected():
    with pytest.raises(ValueError, match="across different root systems"):
        bruhat_leq(identity_element(A2), generator(C2, 1))


def test_bruhat_matches_subword_oracle():
    ball = flat_ball(A2, 4)
    for u in ball:
        for w in ball:
            assert bruhat_leq(u, w) == bruhat_subword(u, w)


def test_bruhat_on_long_dominant_translations():
    # t^(a lam) is a prefix of t^(b lam) for dominant lam and 0 <= a <= b,
    # and the larger multiples are words of 1000 letters and more
    for lie_type, rank in (("A", 2), ("C", 2), ("G", 2), ("B", 3)):
        system = build_root_system(lie_type, rank)
        lam = system.highest_coroot
        step = length(translation_element(system, lam))
        multiples = (0, 1, 1000 // step, 1000 // step + 1, 1500 // step)
        elements = {a: translation_element(system, tuple(a * c for c in lam))
                    for a in multiples}
        assert length(elements[multiples[-1]]) >= 1000
        for a, x in elements.items():
            for b, y in elements.items():
                assert bruhat_leq(x, y) == (a <= b), (lie_type, a, b)


def test_bruhat_is_partial_order():
    ball = flat_ball(C2, 4)
    rel = {(u, w) for u in ball for w in ball if bruhat_leq(u, w)}
    for u in ball:
        assert (u, u) in rel
    for u, w in rel:
        if u != w:
            assert (w, u) not in rel
    for u, w in rel:
        for z in ball:
            if (w, z) in rel:
                assert (u, z) in rel


# -- enumeration ---------------------------------------------------------------------


def test_ball_counts():
    assert [len(s) for s in enumerate_ball(A1, 3)] == [1, 2, 2, 2]
    assert [len(s) for s in enumerate_ball(A2, 1)] == [1, 3]
    assert [len(s) for s in enumerate_ball(A2, 0)] == [1]


def bfs_ball(system, n):
    """Plain breadth-first search, deduplicated by a seen set, each shell sorted by word."""
    shells = [(identity_element(system),)]
    seen = set(shells[0])
    for _ in range(n):
        nxt = []
        for x in shells[-1]:
            for s in generators(system):
                y = x * s
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        shells.append(tuple(sorted(nxt, key=reduced_word)))
    return tuple(shells)


@pytest.mark.parametrize(
    "lie_type,rank,n",
    [("A", 1, 8), ("A", 2, 10), ("C", 2, 8), ("G", 2, 12), ("A", 3, 6), ("B", 3, 5),
     ("C", 3, 5), ("D", 4, 4), ("F", 4, 4), ("E", 6, 3), ("E", 8, 4)],
)
def test_ball_equals_bfs_shell_by_shell(lie_type, rank, n):
    system = build_root_system(lie_type, rank)
    ball = enumerate_ball(system, n)
    assert ball == bfs_ball(system, n)
    # the words and lengths the walk stores agree with a fresh equal
    # element's peel and closed form, and each part's word with a fresh
    # peel of the finite-only element
    parts = set()
    for x in itertools.chain.from_iterable(ball):
        fresh = AffineWeylElement(system, x.translation, x.finite)
        assert (reduced_word(fresh), length(fresh)) == (x._word, x._length), x
        assert from_word(system, reduced_word(x)) == x
        parts.add(x.finite)
    for part in parts:
        finite_only = AffineWeylElement(system, (0,) * rank, part)
        assert weyl._part_word(system, part) == reduced_word(finite_only), part


def test_ball_elements_unique():
    ball = flat_ball(C2, 5)
    assert len(set(ball)) == len(ball)


def test_ball_resource_bound():
    with pytest.raises(ResourceBoundError) as info:
        enumerate_ball(A2, 9, max_elements=10)
    # shells of 1, 3, 6 and 9 elements: the shell at depth 3 takes the ball past 10
    assert str(info.value) == (
        "ball enumeration exceeded 10 elements at depth 3 (completed depth 2)")


# -- the shared ball ---------------------------------------------------------------------


@pytest.mark.parametrize("order", [(3, 5), (5, 3)])
def test_smaller_ball_is_a_prefix_of_the_same_shells(monkeypatch, order):
    monkeypatch.setattr(weyl, "_BALLS", {})
    balls = {n: enumerate_ball(A2, n) for n in order}
    assert len(balls[3]) == 4 and len(balls[5]) == 6
    assert all(small is large for small, large in zip(balls[3], balls[5]))


@pytest.mark.parametrize("lie_type,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_ball_grown_from_a_cleared_table_equals_bfs(monkeypatch, lie_type, rank):
    # a cold call, then calls that each continue from the last shell kept
    monkeypatch.setattr(weyl, "_BALLS", {})
    system = build_root_system(lie_type, rank)
    expected = bfs_ball(system, 6)
    for n in (0, 2, 6, 4):
        assert enumerate_ball(system, n) == expected[:n + 1]
    assert len(weyl._BALLS[system]) == 7


# (N, max_elements): the message of a fresh enumeration on A2, whose running
# totals are 1, 4, 10, 19, 31, 46, 64, 85; None where the ball fits
_A2_BOUND_MESSAGES = {
    (9, 10): "ball enumeration exceeded 10 elements at depth 3 (completed depth 2)",
    (2, 4): "ball enumeration exceeded 4 elements at depth 2 (completed depth 1)",
    (5, 1): "ball enumeration exceeded 1 elements at depth 1 (completed depth 0)",
    (6, 0): "ball enumeration exceeded 0 elements at depth 1 (completed depth 0)",
    (7, 27): "ball enumeration exceeded 27 elements at depth 4 (completed depth 3)",
    (6, 46): "ball enumeration exceeded 46 elements at depth 6 (completed depth 5)",
    (5, 46): None,
    (0, 0): None,
}


def _bound_message(n, max_elements):
    try:
        enumerate_ball(A2, n, max_elements)
    except ResourceBoundError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("pair", sorted(_A2_BOUND_MESSAGES), ids="N{0[0]}-bound{0[1]}".format)
def test_bound_messages_do_not_depend_on_the_table(monkeypatch, pair):
    monkeypatch.setattr(weyl, "_BALLS", {})
    assert _bound_message(*pair) == _A2_BOUND_MESSAGES[pair]
    enumerate_ball(A2, 8)
    assert _bound_message(*pair) == _A2_BOUND_MESSAGES[pair]


def test_shell_past_the_bound_is_not_kept(monkeypatch):
    monkeypatch.setattr(weyl, "_BALLS", {})
    with pytest.raises(ResourceBoundError):
        enumerate_ball(A2, 9, max_elements=10)
    assert [len(shell) for shell in weyl._BALLS[A2]] == [1, 3, 6]


@pytest.mark.parametrize("warm", [False, True])
def test_radius_zero_ball_under_a_zero_bound(monkeypatch, warm):
    # a negative radius gives the identity shell, as radius 0 does
    monkeypatch.setattr(weyl, "_BALLS", {})
    if warm:
        enumerate_ball(A2, 4)
    assert enumerate_ball(A2, 0, 0) == ((identity_element(A2),),)
    assert enumerate_ball(A2, -2) == ((identity_element(A2),),)


def test_b3_and_c3_keep_separate_balls():
    for system in (build_root_system("B", 3), build_root_system("C", 3)):
        ball = enumerate_ball(system, 3)
        assert weyl._BALLS[system][:4] == list(ball)
        assert all(x.system is system for shell in ball for x in shell)


@pytest.mark.parametrize("name", ["words", "compose", "xi"])
def test_suite_reports_match_with_a_cold_and_a_warm_table(monkeypatch, name):
    def report():
        data = checks.run_suite(name, A2, 3, 4).to_jsonable()
        del data["elapsed"]
        return data

    monkeypatch.setattr(weyl, "_BALLS", {})
    cold = report()
    assert cold["instance_count"] and report() == cold


# -- distinguished elements -------------------------------------------------------------


def test_longest_finite_element():
    assert longest_finite_element(A1) == generator(A1, 1)
    w0 = longest_finite_element(A2)
    assert length(w0) == 3
    assert (w0 * w0).is_identity()
    assert length(longest_finite_element(C2)) == 4


def test_min_coset_rep_examples():
    x = from_word(A1, [0, 1])
    assert min_coset_rep(x, ()) == x
    assert min_coset_rep(x, {1}) == generator(A1, 0)
    assert min_coset_rep(x, {1}) == min_coset_rep(x, frozenset({1}))


def test_min_coset_rep_length_additive():
    finite = frozenset(range(1, 3))
    w0 = longest_finite_element(A2)
    for x in flat_ball(A2, 4):
        rep = min_coset_rep(x, finite)
        # the coset contains rep * v with lengths adding, for v = w0 at least
        assert length(rep * w0) == length(rep) + length(w0)


def test_min_coset_rep_bad_index():
    with pytest.raises(ValueError, match="parabolic index"):
        min_coset_rep(identity_element(A2), {5})


def test_unique_minimal_coset_element():
    finite = frozenset(range(1, 3))
    cosets = {}
    for x in flat_ball(A2, 4):
        cosets.setdefault(min_coset_rep(x, finite), []).append(x)
    for rep, members in cosets.items():
        no_finite_descent = [
            x for x in members
            if not any(is_right_descent(x, i) for i in finite)
        ]
        assert no_finite_descent == [rep]


def test_antidominant_rep():
    assert antidominant_rep(A1, (0,)).is_identity()
    x = antidominant_rep(A1, (-1,))
    assert length(x) == 2
    assert length(antidominant_rep(A2, (-1, -1))) == 4
    with pytest.raises(ValueError, match="not antidominant"):
        antidominant_rep(A2, (1, 1))


def test_antidominant_rep_is_coset_minimum_brute_force():
    finite_elements = []
    seen = set()
    for x in flat_ball(A2, 3):
        if all(c == 0 for c in x.translation) and x not in seen:
            seen.add(x)
            finite_elements.append(x)
    for lam in [(-1, -1), (-2, -2)]:
        e = antidominant_rep(A2, lam)
        for u in finite_elements:
            assert length(e * u) >= length(e)


def test_antidominant_translation_length_additivity():
    for system in (A2, C2):
        w0 = longest_finite_element(system)
        finite = [w0 * w0]  # identity
        # collect the finite Weyl group by closure
        frontier = [identity_element(system)]
        group = set(frontier)
        while frontier:
            nxt = []
            for x in frontier:
                for i in range(1, system.rank + 1):
                    y = x * generator(system, i)
                    if y not in group:
                        group.add(y)
                        nxt.append(y)
            frontier = nxt
        for lam in system.dominant_coweights(2):
            e = translation_element(system, tuple(-c for c in lam))
            for w in group:
                assert length(e * w) == length(e) + length(w)


# -- serialization ------------------------------------------------------------------------


def test_element_json_roundtrip():
    for system in (A1, A2, C2):
        for x in flat_ball(system, 4):
            data = element_to_jsonable(x)
            assert set(data) == {"lambda", "word"}
            assert all(1 <= i <= system.rank for i in data["word"])
            assert element_from_jsonable(system, data) == x


def test_element_json_roundtrip_shares_interned_parts():
    # a rebuilt element carries the very part object the ball walk made
    e8 = build_root_system("E", 8)
    for x in flat_ball(e8, 3):
        y = element_from_jsonable(e8, element_to_jsonable(x))
        assert y == x and y.finite is x.finite


def test_element_json_validation():
    with pytest.raises(ValueError, match="lambda"):
        element_from_jsonable(A2, {"lambda": [1], "word": []})
    with pytest.raises(ValueError, match="letters"):
        element_from_jsonable(A2, {"lambda": [0, 0], "word": [0]})
    for junk in (42, "x", [], {"lambda": [0, 0]}, {"lambda": 5, "word": []},
                 {"lambda": [0, 0], "word": 5}, {"lambda": [0, 0], "word": [None]},
                 {"lambda": ["0", 0], "word": []}, {"lambda": [0.0, 0], "word": []},
                 {"lambda": [0, 0], "word": [True]}):
        with pytest.raises(ValueError, match="malformed"):
            element_from_jsonable(A2, junk)
