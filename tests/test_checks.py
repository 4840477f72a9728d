"""The property-check suites: green runs, determinism, mutation detection."""

import importlib.util
import itertools
import json
import random
import re
from pathlib import Path

import pytest

from zerohecke import checks, cli, hecke, kmodule, weyl
from zerohecke.coeffs import FieldElement, torus_ring
from zerohecke.rootdata import build_root_system

A2 = build_root_system("A", 2)


@pytest.mark.parametrize("name", checks.SUITES)
def test_suites_pass_on_a2(name):
    report = checks.run_suite(name, A2, 3, 3, seed=5)
    assert report.passed, report.failures[:3]
    assert report.instance_count > 0
    assert report.elapsed >= 0


@pytest.mark.parametrize(
    "lie_type,rank", [("A", 2), ("A", 3), ("C", 2), ("G", 2)]
)
def test_braid_relations_on_length_six_balls(lie_type, rank):
    system = build_root_system(lie_type, rank)
    report = checks.check_braid(system, 3, basis_bound=6)
    assert report.passed, report.failures[:3]


def test_random_instances_are_pinned():
    """The random inputs of the algebra suites are a fixed function of the seed."""
    ring = torus_ring(A2, 3)
    ball = checks._flat_ball(A2, 4, 1_000_000)
    rng = random.Random(0)
    vectors = [kmodule.schubert_to_jsonable(checks._random_vector(A2, ring, ball, rng))
               for _ in range(3)]
    assert vectors == [
        [{"elem": {"lambda": [1, 0], "word": [1]}, "coeff": [{"exp": [1, -2, 0], "coeff": 2}]},
         {"elem": {"lambda": [0, 0], "word": [1, 2, 1]},
          "coeff": [{"exp": [0, 1, 0], "coeff": 1}]}],
        [{"elem": {"lambda": [1, 0], "word": [2, 1]},
          "coeff": [{"exp": [0, -1, -2], "coeff": 2}]}],
        [{"elem": {"lambda": [1, 1], "word": [1]}, "coeff": [{"exp": [-2, 0, 1], "coeff": 1}]},
         {"elem": {"lambda": [2, 1], "word": [1, 2]}, "coeff": [{"exp": [2, -1, 0], "coeff": 1}]},
         {"elem": {"lambda": [0, -1], "word": [1, 2]},
          "coeff": [{"exp": [1, 0, 2], "coeff": 1}]}],
    ]
    rng = random.Random(0)
    report = checks.check_specialize(A2, 3, n_instances=50, rng=rng)
    assert (report.instance_count, report.failures) == (50, [])
    assert rng.random() == 0.5682329433322765
    rng = random.Random(0)
    report = checks.check_xi(A2, 3, exhaustive_bound=2, n_random=50, rng=rng)
    assert (report.instance_count, report.failures) == (150, [])
    assert rng.random() == 0.9720932443736168


_SMALL_SEEDED = {
    "braid": lambda p, rng: checks.check_braid(A2, p, basis_bound=3, n_random=5, rng=rng),
    "words": lambda p, rng: checks.check_words(
        A2, p, word_bound=3, basis_bound=3, n_random=2, rng=rng),
    "compose": lambda p, rng: checks.check_compose(
        A2, p, pair_bound=3, basis_bound=3, n_random=5, rng=rng),
    "theta": lambda p, rng: checks.check_theta(A2, p, max_coord=1, n_random=5, rng=rng),
}


@pytest.mark.parametrize("name,p,count,after", [
    ("braid", 2, 72, 0.5442354114772292),
    ("braid", 1000003, 72, 0.9369691586445807),
    ("words", 2, 63, 0.5512672460905512),
    ("words", 1000003, 63, 0.44796957143557037),
    ("compose", 2, 1316, 0.08044581855253541),
    ("compose", 1000003, 1316, 0.44796957143557037),
    ("theta", 2, 9, 0.47214271545271336),
    ("theta", 1000003, 9, 0.799402574081021),
])
def test_other_seeded_suites_are_pinned(name, p, count, after):
    """Each seeded suite leaves its generator where the same draws, in the same
    order, leave it: a slip in the order or the range of one draw moves it."""
    rng = random.Random(0)
    report = _SMALL_SEEDED[name](p, rng)
    assert (report.instance_count, report.failures) == (count, [])
    assert rng.random() == after


def test_below_draws_as_randrange():
    for n in (1, 2, 3, 5, 31, 2**20, 2**20 + 1, 1000002):
        a, b = random.Random(n), random.Random(n)
        assert [checks._below(a, n) for _ in range(500)] == [b.randrange(n) for _ in range(500)]
        assert a.getstate() == b.getstate()
    for n in (0, -1):
        with pytest.raises(ValueError):
            checks._below(random.Random(0), n)


def test_reports_are_deterministic_given_seed():
    a = checks.run_suite("xi", A2, 3, 3, seed=42)
    b = checks.run_suite("xi", A2, 3, 3, seed=42)
    assert a.instance_count == b.instance_count
    assert a.failures == b.failures


@pytest.mark.parametrize(
    "lie_type,rank,count", [("A", 1, 4), ("A", 2, 8), ("C", 2, 6), ("G", 2, 3)]
)
def test_length_formula_counts_and_bound(lie_type, rank, count):
    # the suite scans (max_coord + 1)^rank coweights: 4^rank here
    system = build_root_system(lie_type, rank)
    report = checks.check_length_formula(system, max_coord=3, max_elements=4**rank)
    assert report.passed and report.instance_count == count
    with pytest.raises(weyl.ResourceBoundError):
        checks.check_length_formula(system, max_coord=3, max_elements=4**rank - 1)



@pytest.mark.parametrize(
    "lie_type,rank,theta,spherical",
    [("A", 1, 59, 24), ("A", 2, 75, 64), ("C", 2, 66, 42), ("G", 2, 54, 13)],
)
def test_theta_and_spherical_counts_and_bound(lie_type, rank, theta, spherical):
    # theta scans the (max_coord + 1)^rank box of coweights, 3^rank at its
    # default; spherical the (max(max_coord, pair_coord) + 1)^rank box, 5^rank
    system = build_root_system(lie_type, rank)
    report = checks.check_theta(system, 3, max_elements=3**rank)
    assert report.passed and report.instance_count == theta
    with pytest.raises(weyl.ResourceBoundError):
        checks.check_theta(system, 3, max_elements=3**rank - 1)
    report = checks.check_spherical(system, 3, max_elements=5**rank)
    assert report.passed and report.instance_count == spherical
    with pytest.raises(weyl.ResourceBoundError):
        checks.check_spherical(system, 3, max_elements=5**rank - 1)
    # the pair box bounds the suite when it is the larger one
    assert checks.check_spherical(system, 3, max_coord=1, max_elements=3**rank).passed
    with pytest.raises(weyl.ResourceBoundError):
        checks.check_spherical(system, 3, max_coord=1, max_elements=3**rank - 1)

def test_report_jsonable_shape():
    report = checks.run_suite("length-formula", A2, 3, 2)
    data = report.to_jsonable()
    # check prints reports with json.dumps(sort_keys=False): this order is its output
    assert list(data) == ["check_name", "instance_count", "failures", "elapsed"]
    assert data["check_name"] == "length-formula"


def test_report_counts_records_and_serializes_its_failures():
    report = checks.CheckReport("braid")
    assert report.to_jsonable() == {
        "check_name": "braid", "instance_count": 0, "failures": [], "elapsed": 0.0}
    assert report.passed
    report.count()
    report.count(4)
    report.fail({"word": [0, 1]})
    data = report.to_jsonable()
    assert (data["instance_count"], data["failures"]) == (5, [{"word": [0, 1]}])
    assert not report.passed
    data["failures"].append({})  # the JSON is a copy: the report keeps its own list
    assert report.failures == [{"word": [0, 1]}]
    assert repr(report) == ("CheckReport(check_name='braid', instance_count=5, "
                            "failures=[{'word': [0, 1]}], elapsed=0.0)")


_RELATIONS_SCALE = {
    "check_compose": {"pair_bound": 5, "basis_bound": 6},
    "check_words": {"word_bound": 5, "basis_bound": 7},
    "check_braid": {},
}


@pytest.mark.parametrize(
    "suite,lie_type,count",
    [
        ("check_compose", "A", 16724),
        ("check_compose", "C", 12845),
        ("check_compose", "G", 10264),
        ("check_compose", "A3", 165770),
        ("check_words", "A", 2160),
        ("check_words", "C", 2025),
        ("check_braid", "A", 252),
        ("check_braid", "C", 231),
    ],
)
def test_instance_counts_at_relations_scale(suite, lie_type, count):
    # the counts the relations benchmark expects; a bare type letter is rank 2
    system = build_root_system(lie_type[0], int(lie_type[1:] or 2))
    report = getattr(checks, suite)(system, 3, **_RELATIONS_SCALE[suite])
    assert report.passed, report.failures[:3]
    assert report.instance_count == count


@pytest.mark.parametrize(
    "name,largest",
    [("braid", 3), ("words", 5), ("compose", 3), ("xi", 3), ("specialize", 3),
     ("bruhat-oracle", 3)],
)
def test_suites_enumerate_their_balls_under_max_elements(name, largest):
    # at N = 3 each suite's largest ball has radius `largest`; the bound is
    # met at exactly that ball's size and exceeded one below it
    size = sum(len(shell) for shell in weyl.enumerate_ball(A2, largest))
    with pytest.raises(weyl.ResourceBoundError):
        checks.run_suite(name, A2, 3, 3, max_elements=size - 1)
    assert checks.run_suite(name, A2, 3, 3, max_elements=size).passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown check suite"):
        checks.run_suite("nope", A2, 3, 3)


# -- mutation sanity ------------------------------------------------------------


def _flip_descent_branch(w, i):
    # the descent branch no longer fixes its class: every class moves
    return weyl._mul_gen(w, i)


def _swap_branches(w, i):
    # descent keys move down, ascent keys stay: the lowering variant
    if weyl.is_right_descent(w, i):
        return weyl._mul_gen(w, i)
    return w


def test_flipped_rule_breaks_compose_and_xi(monkeypatch):
    monkeypatch.setattr(kmodule, "demazure_basis_target", _flip_descent_branch)
    assert checks.run_suite("compose", A2, 3, 3, seed=1).failures
    assert checks.run_suite("xi", A2, 3, 3, seed=1).failures


def test_word_independence_is_immune_to_branch_flips(monkeypatch):
    # Both branch-level corruptions still produce reduced-word-independent
    # operator families: flipping the descent output makes every operator a
    # right multiplication, and swapping the branches yields the lowering
    # action, which satisfies the same braid relations.  The words suite
    # therefore cannot detect them; this pins that (proved) behaviour.
    for mutation in (_flip_descent_branch, _swap_branches):
        monkeypatch.setattr(kmodule, "demazure_basis_target", mutation)
        report = checks.run_suite("words", A2, 3, 3, seed=1)
        assert report.passed


def test_swapped_branches_break_xi(monkeypatch):
    monkeypatch.setattr(kmodule, "demazure_basis_target", _swap_branches)
    assert checks.run_suite("xi", A2, 3, 3, seed=1).failures


def test_failure_records_replay(monkeypatch):
    monkeypatch.setattr(kmodule, "demazure_basis_target", _flip_descent_branch)
    first = checks.run_suite("compose", A2, 3, 3, seed=9)
    second = checks.run_suite("compose", A2, 3, 3, seed=9)
    assert first.failures == second.failures


def test_bruhat_oracle_helper_matches_library():
    ball = [x for shell in weyl.enumerate_ball(A2, 3) for x in shell]
    for u in ball:
        for w in ball:
            assert checks.bruhat_subword_oracle(u, w) == weyl.bruhat_leq(u, w)


# -- the run-local class table ------------------------------------------------------

_TRUE_RULE = kmodule.demazure_basis_target


def _pin_identity(w, i):
    # operator 1 fixes the identity class: breaks word independence
    if i == 1 and w.is_identity():
        return w
    return _TRUE_RULE(w, i)


def _ref_walk(w, letters):
    for i in letters:
        w = kmodule.demazure_basis_target(w, i)
    return w


def _word(x):
    return list(weyl.reduced_word(x))


def _ball(system, n):
    return [x for shell in weyl.enumerate_ball(system, n) for x in shell]


def _ref_braid(system, basis_bound):
    records = []
    for i in range(system.rank + 1):
        for j in range(i + 1, system.rank + 1):
            m = weyl.coxeter_order(system, i, j)
            if m is None:
                continue
            word_ij = tuple(i if k % 2 == 0 else j for k in range(m))
            word_ji = tuple(j if k % 2 == 0 else i for k in range(m))
            for w in _ball(system, basis_bound):
                lhs, rhs = _ref_walk(w, word_ij), _ref_walk(w, word_ji)
                if lhs != rhs:
                    records.append({"i": i, "j": j, "m": m, "basis": _word(w),
                                    "lhs": _word(lhs), "rhs": _word(rhs)})
    return records


def _ref_words(system, word_bound, basis_bound):
    records = []
    for x in _ball(system, word_bound):
        words = weyl.all_reduced_words(x, max_length=word_bound)
        for w in _ball(system, basis_bound):
            target = _ref_walk(w, words[0])
            for other in words[1:]:
                got = _ref_walk(w, other)
                if got != target:
                    records.append({"element": _word(x), "word": list(other),
                                    "reference_word": list(words[0]), "basis": _word(w),
                                    "lhs": _word(target), "rhs": _word(got)})
    return records


def _ref_compose(system, pair_bound, basis_bound):
    records = []
    basis = _ball(system, basis_bound)
    for s in range(system.rank + 1):
        for w in basis:
            once = _ref_walk(w, (s,))
            twice = _ref_walk(once, (s,))
            if twice != once:
                records.append({"generator": s, "basis": _word(w),
                                "lhs": _word(twice), "rhs": _word(once)})
    pool = _ball(system, pair_bound)
    for u in pool:
        for v in pool:
            lu, lv = weyl.length(u), weyl.length(v)
            if not 0 < lu + lv <= pair_bound or weyl.length(u * v) != lu + lv:
                continue
            wu, wv, wuv = _word(u), _word(v), _word(u * v)
            for w in basis:
                lhs, rhs = _ref_walk(_ref_walk(w, wu), wv), _ref_walk(w, wuv)
                if lhs != rhs:
                    records.append({"u": wu, "v": wv, "basis": _word(w),
                                    "lhs": _word(lhs), "rhs": _word(rhs)})
    return records


@pytest.mark.parametrize(
    "mutation,bites",
    [
        # (compose, words, braid) exhaustive layers that report failures
        (_flip_descent_branch, (True, False, False)),
        (_swap_branches, (False, False, False)),
        (_pin_identity, (True, True, True)),
    ],
)
def test_int_walk_matches_element_walk(monkeypatch, mutation, bites):
    monkeypatch.setattr(kmodule, "demazure_basis_target", mutation)
    compose = checks.check_compose(A2, 3, pair_bound=3, basis_bound=3, n_random=0)
    words = checks.check_words(A2, 3, word_bound=3, basis_bound=4, n_random=0)
    braid = checks.check_braid(A2, 3, basis_bound=3, n_random=0)
    assert compose.failures == _ref_compose(A2, 3, 3)
    assert words.failures == _ref_words(A2, 3, 4)
    assert braid.failures == _ref_braid(A2, 3)
    assert (bool(compose.failures), bool(words.failures), bool(braid.failures)) == bites


def _stall_length_three(w, i):
    # classes of length 3 stay put: only walks that pass through them go wrong
    if weyl.length(w) == 3:
        return w
    return _TRUE_RULE(w, i)


@pytest.mark.parametrize(
    "lie_type,rank,pair_bound", [("A", 2, 5), ("C", 2, 5), ("G", 2, 5), ("A", 3, 4)]
)
def test_int_walk_matches_element_walk_at_depth(monkeypatch, lie_type, rank, pair_bound):
    # compose builds its columns along the canonical-word tree: only branches
    # at least three letters deep meet the broken classes
    system = build_root_system(lie_type, rank)
    monkeypatch.setattr(kmodule, "demazure_basis_target", _stall_length_three)
    compose = checks.check_compose(system, 3, pair_bound=pair_bound, basis_bound=6, n_random=0)
    words = checks.check_words(system, 3, word_bound=pair_bound, basis_bound=6, n_random=0)
    braid = checks.check_braid(system, 3, basis_bound=6, n_random=0)
    assert compose.failures == _ref_compose(system, pair_bound, 6)
    reference = _ref_words(system, pair_bound, 6)
    assert words.failures == _at_descent_edges(system, reference)
    assert bool(words.failures) == bool(reference)
    assert braid.failures == _ref_braid(system, 6)
    assert compose.failures and words.failures and braid.failures


def _additive_pairs(system, pair_bound):
    # brute force: pool pairs, e e aside, whose product is as long as both together
    pool = _ball(system, pair_bound)
    return sum(0 < weyl.length(u) + weyl.length(v) <= pair_bound
               and weyl.length(u * v) == weyl.length(u) + weyl.length(v)
               for u in pool for v in pool)


@pytest.mark.parametrize(
    "lie_type,rank,pair_bound",
    [("A", 2, 5), ("C", 2, 5), ("G", 2, 5), ("A", 3, 4), ("B", 3, 3)],
)
def test_compose_finds_additive_pairs_without_products(monkeypatch, lie_type, rank, pair_bound):
    # each pair is reached from its parent pair by one descent test: no group product
    system = build_root_system(lie_type, rank)
    additive = _additive_pairs(system, pair_bound)
    calls = []
    true_mul = weyl.AffineWeylElement.__mul__
    monkeypatch.setattr(weyl.AffineWeylElement, "__mul__",
                        lambda x, y: calls.append((x, y)) or true_mul(x, y))
    report = checks.check_compose(system, 3, pair_bound=pair_bound, basis_bound=3, n_random=0)
    assert report.passed and not calls
    # the idempotence layer counts one instance per basis class and generator
    assert report.instance_count == len(_ball(system, 3)) * (additive + rank + 1)


def _fix_letter_zero_at_length_two(w, i):
    # operator 0 fixes the classes of length 2: a few columns differ, deep in the pool
    if i == 0 and weyl.length(w) == 2:
        return w
    return _TRUE_RULE(w, i)


def test_identity_harness_types_the_same_broken_rules():
    # tools/identity.py runs the suites under its own copies of the four rules above
    spec = importlib.util.spec_from_file_location(
        "identity", Path(__file__).resolve().parent.parent / "tools" / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    ours = {rule.__name__: rule for rule in (_flip_descent_branch, _swap_branches,
                                             _stall_length_three, _fix_letter_zero_at_length_two)}
    assert set(identity.BROKEN_RULES) == set(ours)
    for system in (A2, build_root_system("G", 2)):
        ball = [w for shell in weyl.enumerate_ball(system, 4) for w in shell]
        for name in identity.BROKEN_RULES:
            theirs = identity._broken_rule(weyl, _TRUE_RULE, name)
            assert all(theirs(w, i) == ours[name](w, i)
                       for w in ball for i in range(system.rank + 1)), name


def _per_pair_compose(system, pair_bound, basis_bound):
    # compose's exhaustive layer with every additive pair's column walked from
    # u's tree column along v's whole word: no pair is derived from another
    report = checks.CheckReport("compose")
    shells = weyl.enumerate_ball(system, max(pair_bound, basis_bound))
    basis = [x for shell in shells[:basis_bound + 1] for x in shell]
    table = checks._ClassTable(system, basis)
    for s in range(system.rank + 1):
        checks._same_classes(report, table, (s, s), [({"generator": s}, (s,))])
    pool = [x for shell in shells[:pair_bound + 1] for x in shell]
    columns = checks._tree_columns(table, pool)
    pairs = []
    for u in pool:
        for v in pool:
            lu, lv = weyl.length(u), weyl.length(v)
            if not 0 < lu + lv <= pair_bound or weyl.length(u * v) != lu + lv:
                continue
            wu, wv, wuv = weyl.reduced_word(u), weyl.reduced_word(v), weyl.reduced_word(u * v)
            inputs = {"u": list(wu), "v": list(wv)}
            pairs.append((wu + wv, [(inputs, wuv)]))
            report.count(len(basis))
            checks._class_records(report, table, table.walk(columns[wu], wv),
                                  [(inputs, columns[wuv])])
    return report, basis, pairs


@pytest.mark.parametrize("mutation", [_TRUE_RULE, _flip_descent_branch, _swap_branches,
                                      _stall_length_three, _fix_letter_zero_at_length_two])
@pytest.mark.parametrize("lie_type,rank,pair_bound,basis_bound",
                         [("A", 2, 5, 6), ("C", 2, 5, 6), ("G", 2, 5, 6), ("A", 3, 4, 4),
                          ("B", 3, 3, 4)])
def test_compose_matches_the_per_pair_walk(monkeypatch, mutation, lie_type, rank,
                                           pair_bound, basis_bound):
    system = build_root_system(lie_type, rank)
    monkeypatch.setattr(kmodule, "demazure_basis_target", mutation)
    exhaustive, basis, pairs = _per_pair_compose(system, pair_bound, basis_bound)
    for p, seed in itertools.product((2, 3), (0, 1)):
        # the random layer as check_compose draws it, after the exhaustive one
        report, rng = checks.CheckReport("compose"), random.Random(seed)
        report.count(exhaustive.instance_count)
        report.failures = list(exhaustive.failures)
        for _ in range(20):
            lhs, cases = pairs[checks._below(rng, len(pairs))]
            vector = checks._random_vector(system, torus_ring(system, p), basis, rng)
            checks._same_vectors(report, vector, lhs, cases)
        got_rng = random.Random(seed)
        got = checks.check_compose(system, p, pair_bound=pair_bound, basis_bound=basis_bound,
                                   rng=got_rng).to_jsonable()
        want = report.to_jsonable()
        del got["elapsed"], want["elapsed"]
        assert json.dumps(got) == json.dumps(want)
        assert got_rng.getstate() == rng.getstate()


def _at_descent_edges(system, records):
    # the per-word records whose word is canon(y s_j) + (j,) for a right
    # descent j of the element y other than its smallest: one per DAG edge
    def edge_words(element):
        y = weyl.from_word(system, element)
        descents = [j for j in range(system.rank + 1) if weyl.is_right_descent(y, j)]
        return [_word(y * weyl.generator(system, j)) + [j] for j in descents[1:]]

    return [record for record in records if record["word"] in edge_words(record["element"])]


@pytest.mark.parametrize("mutation", [_stall_length_three, _pin_identity, _flip_descent_branch])
def test_words_records_at_three_descents(monkeypatch, mutation):
    # affine B3's generators 0, 1 and 3 commute: s0 s1 s3 has three right
    # descents, so the suite compares two DAG edges there, not one
    system = build_root_system("B", 3)
    monkeypatch.setattr(kmodule, "demazure_basis_target", mutation)
    words = checks.check_words(system, 3, word_bound=3, basis_bound=3, n_random=0)
    reference = _ref_words(system, 3, 3)
    assert words.failures == _at_descent_edges(system, reference)
    assert bool(words.failures) == bool(reference)
    if mutation is _stall_length_three:
        assert any(r["element"] == [3, 1, 0] and r["word"][-1] == 3 for r in words.failures)


def test_words_exhaustive_layer_enumerates_no_reduced_words(monkeypatch):
    calls = []
    true_all = weyl.all_reduced_words
    monkeypatch.setattr(weyl, "all_reduced_words",
                        lambda *args, **kwargs: calls.append(args) or true_all(*args, **kwargs))
    assert checks.check_words(A2, 3, word_bound=5, basis_bound=5, n_random=0).passed
    assert not calls
    assert checks.check_words(A2, 3, word_bound=3, basis_bound=3, n_random=1).passed
    assert not calls


def test_words_enumerates_one_ball(monkeypatch):
    # the word ball is a prefix of the basis ball, or the other way round
    calls = []
    true_ball = weyl.enumerate_ball
    monkeypatch.setattr(weyl, "enumerate_ball",
                        lambda *args, **kwargs: calls.append(args) or true_ball(*args, **kwargs))
    for word_bound, basis_bound in ((3, 5), (5, 3)):
        calls.clear()
        assert checks.check_words(A2, 3, word_bound=word_bound, basis_bound=basis_bound).passed
        assert len(calls) == 1


@pytest.mark.parametrize(
    "lie_type,rank,word_bound", [("A", 2, 5), ("C", 2, 5), ("G", 2, 5), ("A", 3, 4)]
)
def test_words_count_is_the_reduced_word_count(lie_type, rank, word_bound):
    # the path-count DP over the weak-order DAG against the enumerator
    system = build_root_system(lie_type, rank)
    report = checks.check_words(system, 3, word_bound=word_bound, basis_bound=3, n_random=0)
    others = sum(len(weyl.all_reduced_words(x, max_length=word_bound)) - 1
                 for x in _ball(system, word_bound))
    assert report.passed
    assert report.instance_count == len(_ball(system, 3)) * others


def _ref_xi(system, p, exhaustive_bound):
    # the per-pair path: Y_u Y_v relabelled against u's class acted on by Y_v
    records, ring, js = [], torus_ring(system, p), kmodule.schubert_to_jsonable
    ball = _ball(system, exhaustive_bound)
    for u in ball:
        for v in ball:
            yu, yv = hecke.basis_y(u, ring), hecke.basis_y(v, ring)
            lhs = kmodule.schubert_from_hecke(hecke.multiply_hecke(yu, yv))
            rhs = kmodule.hecke_act(kmodule.schubert_from_hecke(yu), yv)
            if lhs != rhs:
                records.append({"u": _word(u), "v": _word(v), "lhs": js(lhs), "rhs": js(rhs)})
    return records


@pytest.mark.parametrize(
    "mutation,bites",
    [(_TRUE_RULE, False), (_flip_descent_branch, True), (_swap_branches, True),
     (_stall_length_three, True)],
)
@pytest.mark.parametrize("lie_type", ["A", "C", "G"])
def test_xi_columns_match_the_per_pair_product(monkeypatch, lie_type, mutation, bites):
    system = build_root_system(lie_type, 2)
    monkeypatch.setattr(kmodule, "demazure_basis_target", mutation)
    xi = checks.check_xi(system, 3, exhaustive_bound=4, n_random=0)
    assert xi.failures == _ref_xi(system, 3, 4)
    assert bool(xi.failures) == bites


def _ref_subword_oracle(u, w):
    # the position-set search: some l(u) letters of w's canonical word give u
    word = weyl.reduced_word(w)
    return any(weyl.from_word(u.system, [word[k] for k in positions]) == u
               for positions in itertools.combinations(range(len(word)), weyl.length(u)))


@pytest.mark.parametrize("lie_type", ["A", "G"])
def test_subword_sets_match_the_position_search(lie_type):
    ball = _ball(build_root_system(lie_type, 2), 4)
    for u in ball:
        for w in ball:
            assert checks.bruhat_subword_oracle(u, w) == _ref_subword_oracle(u, w), (u, w)


def test_bruhat_oracle_records_match_the_position_search(monkeypatch):
    true_leq = weyl.bruhat_leq
    # the order answers wrongly on every pair of total length three
    monkeypatch.setattr(weyl, "bruhat_leq", lambda u, w: true_leq(u, w) != (
        weyl.length(u) + weyl.length(w) == 3))
    for system in (A2, build_root_system("G", 2)):
        ball = _ball(system, 4)
        records = [{"u": _word(u), "w": _word(w), "recursion": weyl.bruhat_leq(u, w)}
                   for u in ball for w in ball
                   if weyl.bruhat_leq(u, w) != _ref_subword_oracle(u, w)]
        report = checks.check_bruhat_oracle(system, max_len=4)
        assert report.failures == records and records


def test_no_class_table_outlives_its_suite_call(monkeypatch):
    assert checks.check_compose(A2, 3, pair_bound=3, basis_bound=3, n_random=0).passed
    monkeypatch.setattr(kmodule, "demazure_basis_target", _flip_descent_branch)
    assert checks.check_compose(A2, 3, pair_bound=3, basis_bound=3, n_random=0).failures


# -- both sides in every failure record ----------------------------------------------

_TRUE_LETTERS_APPLY = kmodule.demazure_letters_apply


def _drop_first_letter(v, letters):
    # a word no longer composes its letters: relations fail on random vectors
    return _TRUE_LETTERS_APPLY(v, tuple(letters)[1:])


@pytest.mark.parametrize("name", ["braid", "words", "compose"])
def test_random_layer_records_carry_both_sides(monkeypatch, name):
    # the exhaustive layers read the true rule, so every failure is a random one
    monkeypatch.setattr(kmodule, "demazure_letters_apply", _drop_first_letter)
    report = checks.run_suite(name, A2, 3, 3, seed=0)
    assert report.failures
    for record in report.failures:
        assert {"vector", "lhs", "rhs"} <= set(record)
        assert record["lhs"] != record["rhs"]


def test_theta_records_carry_both_sides(monkeypatch):
    # the greedy product keeps its left factor: translations stop adding up
    monkeypatch.setattr(hecke, "demazure_product", lambda w, x: w)
    report = checks.run_suite("theta", A2, 3, 3, seed=0)
    assert len(report.failures) == 99
    for record in report.failures:
        assert {"lhs", "rhs"} <= set(record) and record["lhs"] != record["rhs"]
        assert {"lambda", "mu"} <= set(record) or {"a", "b"} <= set(record)


def test_spherical_records_carry_both_sides(monkeypatch):
    # each action also keeps its input: the action is no longer multiplicative
    true_act = kmodule.spherical_act
    monkeypatch.setattr(kmodule, "spherical_act", lambda lam, v: true_act(lam, v) + v)
    report = checks.run_suite("spherical", A2, 3, 3)
    assert report.failures
    for record in report.failures:
        assert set(record) == {"lambda", "mu", "vector", "lhs", "rhs"}
        assert record["lhs"] != record["rhs"]


@pytest.mark.parametrize("lie_type", ["A", "C", "G"])
def test_spherical_reports_keys_that_escape_the_submodule(monkeypatch, lie_type):
    # the lowering rule sends the first action out of the submodule, where the
    # second may not act: the suite records the escaped keys and returns
    system = build_root_system(lie_type, 2)
    monkeypatch.setattr(kmodule, "demazure_basis_target", _swap_branches)
    report = checks.run_suite("spherical", system, 3, 3)
    escaped = [record for record in report.failures if "escaped_key" in record]
    assert escaped
    # an escape of the first action names λ alone, one of the second also its μ
    assert {frozenset(record) for record in escaped} == {
        frozenset({"lambda", "escaped_key"}), frozenset({"lambda", "mu", "escaped_key"})}
    for record in escaped:
        key = weyl.from_word(system, record["escaped_key"])
        assert not kmodule.is_spherical_key(system, key)


@pytest.mark.parametrize("lie_type", ["A", "C", "G"])
def test_spherical_records_each_escape_once(monkeypatch, lie_type):
    # an escape of act(λ, start) is one record under λ alone, whatever μ the
    # pair box holds; only an escape of act(μ, act(λ, start)) names its μ
    system = build_root_system(lie_type, 2)
    monkeypatch.setattr(kmodule, "demazure_basis_target", _swap_branches)
    report = checks.run_suite("spherical", system, 3, 3)
    ring, w0 = torus_ring(system, 3), weyl.longest_finite_element(system)
    lam0 = max(system.dominant_coweights(3), key=sum)
    starts = [kmodule.basis_class(w0, ring),
              kmodule.basis_class(w0 * weyl.translation_element(system, lam0), ring)]
    pairs = [tuple(lam) for lam in system.dominant_coweights(2)]

    def out(v):
        return {weyl.reduced_word(key) for key in v.terms
                if not kmodule.is_spherical_key(system, key)}

    mids = [(lam, kmodule.spherical_act(lam, v)) for lam in pairs for v in starts]
    first = {(lam, (), key) for lam, mid in mids for key in out(mid)}
    second = {(lam, mu, key) for lam, mid in mids if not out(mid)
              for mu in pairs for key in out(kmodule.spherical_act(mu, mid))}
    escapes = [(tuple(r["lambda"]), tuple(r.get("mu", ())), tuple(r["escaped_key"]))
               for r in report.failures if "escaped_key" in r]
    assert first and second
    assert len(set(escapes)) == len(escapes)
    assert set(escapes) == first | second


def test_check_spherical_reports_escaped_keys_through_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(kmodule, "demazure_basis_target", _swap_branches)
    assert cli.main(["check", "spherical", "--max-length", "3"]) == cli.EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["check_name"] == "spherical" and report["failures"] and not err
    assert cli.main(["check", "all", "--max-length", "3"]) == cli.EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    assert [r["check_name"] for r in json.loads(out)] == list(checks.SUITES) and not err


def _ref_words_random(system, word_bound, basis_bound, n_random, rng):
    records, later_cases = [], 0
    ring, ball = torus_ring(system, 3), _ball(system, basis_bound)
    js = kmodule.schubert_to_jsonable
    for x in _ball(system, word_bound):
        ref, *others = weyl.all_reduced_words(x, max_length=word_bound)
        for _ in range(n_random if others else 0):
            v = checks._random_vector(system, ring, ball, rng)
            lhs = kmodule.demazure_letters_apply(v, ref)
            for n, other in enumerate(others):
                rhs = kmodule.demazure_letters_apply(v, other)
                if rhs != lhs:
                    later_cases += n > 0
                    records.append({"element": _word(x), "word": list(other),
                                    "reference_word": list(ref), "vector": js(v),
                                    "lhs": js(lhs), "rhs": js(rhs)})
    return records, later_cases


def test_vector_walk_matches_reference(monkeypatch):
    # every reduced word of an element against the first, on the same random
    # vectors; at word bound 5, A2 has elements with three reduced words
    monkeypatch.setattr(kmodule, "demazure_letters_apply", _drop_first_letter)
    words = checks.check_words(A2, 3, word_bound=5, basis_bound=3, n_random=2,
                               rng=random.Random(0))
    records, later_cases = _ref_words_random(A2, 5, 3, 2, random.Random(0))
    assert words.failures == records and later_cases > 0


# -- records that only a broken subject produces ---------------------------------------

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _schema_names() -> set:
    """The record keys README's check-report schema names, in backquotes."""
    start = _README.index("* check report:")
    return set(re.findall(r"`(\w+)`", _README[start:_README.index("\n\n", start)]))


def _twice(name):
    first = checks.run_suite(name, A2, 3, 3, seed=2)
    second = checks.run_suite(name, A2, 3, 3, seed=2)
    assert first.failures == second.failures
    return first.failures


def test_length_formula_records_name_both_counts(monkeypatch):
    # translations (and the identity) read one inversion too many
    true_length = weyl.length
    monkeypatch.setattr(weyl, "length", lambda x: true_length(x) + x.finite.is_identity())
    records = _twice("length-formula")
    assert len(records) == checks.run_suite("length-formula", A2, 3, 3).instance_count
    assert {"inversions", "pairing"} <= _schema_names()
    for record in records:
        assert set(record) == {"lambda", "inversions", "pairing"}
        assert record["inversions"] == record["pairing"] + 1


def test_specialize_records_carry_both_sides(monkeypatch):
    # only the first coefficient of each group-ring element survives specialization
    monkeypatch.setattr(kmodule, "specialize_at_identity",
                        lambda c: FieldElement(c.p, next(iter(c.terms.values()))))
    records = _twice("specialize")
    assert records
    for record in records:
        assert set(record) == {"vector", "hecke", "lhs", "rhs"} <= _schema_names()
        assert record["lhs"] != record["rhs"]


def test_spherical_records_name_missing_and_extra_keys(monkeypatch):
    # the pullback forgets the longest finite element: no image key is hit
    true_translation = weyl.translation_element
    monkeypatch.setattr(kmodule, "grassmannian_pullback", lambda g: kmodule.SchubertVector(
        g.system, g.ring, {true_translation(g.system, lam): c for lam, c in g.terms.items()}))
    records = _twice("spherical")
    dom = A2.dominant_coweights(3)
    missing = [r for r in records if "missing_from_image" in r]
    extra = [r for r in records if "extra_image_keys" in r]
    assert [r["lambda"] for r in missing] == [list(lam) for lam in dom]
    assert len(extra) == 1 and len(extra[0]["extra_image_keys"]) == len(dom)
    assert len(missing) + len(extra) == len(records)
    assert set(missing[0]) == {"lambda", "missing_from_image"}
    assert set(extra[0]) == {"extra_image_keys"}
    assert {"missing_from_image", "extra_image_keys"} <= _schema_names()


def test_spherical_records_name_colliding_coweights(monkeypatch):
    # translations clip each coordinate at 1: larger coweights collide with smaller ones
    true_translation = weyl.translation_element
    monkeypatch.setattr(weyl, "translation_element", lambda system, lam: true_translation(
        system, tuple(min(c, 1) for c in lam)))
    records = _twice("spherical")
    collisions = [r for r in records if "collides_with" in r]
    assert collisions and all(max(r["lambda"]) > 1 for r in collisions)
    for record in collisions:
        assert set(record) == {"lambda", "collides_with"} and "collides_with" in _schema_names()
        clipped = [min(c, 1) for c in record["lambda"]]
        assert [min(c, 1) for c in record["collides_with"]] == clipped
