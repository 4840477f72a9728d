"""Property-check suites over configurable scales.

Each suite replays one family of algebraic identities exhaustively on a
length-truncated ball (plus a randomized linear-combination layer where
coefficients matter) and returns a :class:`CheckReport`.  Failures carry
the offending inputs and both sides in serialized form, so a reported
counterexample can be replayed.  :data:`SUITES` maps each suite's name to
its call at truncation N; :func:`run_suite` looks the name up there.

Operator-level suites read ``kmodule.demazure_basis_target`` once per call
into a run-local table of int class ids built from the suite's basis, so
basis[k] is class k, with one step map per operator filled on a miss; a
word moves a whole column of class ids one letter at a time.  No table
outlives its call, so corrupting the rule (as the mutation-sanity tests do)
corrupts the suites' subject and must surface as failures.  The compose, xi
and words suites walk their columns along the canonical-word tree of a pool
(:func:`_tree_columns`), each from its parent's in one step.  Compose finds
each length-additive (u, v) from (u, v's parent) by one descent test and
its verdict across one edge, walking only non-tree edges, once each, and
pairs below one that differed; xi reads entry u of v's column against the
Demazure product; words reads its count, edges and random-layer words off
one weak-order DAG of one ball, stepping a column along each other edge.
Braid, words and compose record failures only through
:func:`_class_records` and :func:`_same_vectors`: the inputs, then
``basis`` or ``vector``, then ``lhs``, ``rhs``.  Bruhat lower intervals
are subword sets.
"""

from __future__ import annotations

import random
import time

from . import hecke, kmodule, weyl
from .coeffs import GroupRingElement, PrimeField, monoid_monomial, torus_ring
from .rootdata import RootSystem


class CheckReport:
    """One suite's result: its name, instances checked, failure records, seconds."""

    __slots__ = ("check_name", "instance_count", "failures", "elapsed")

    def __init__(self, check_name: str):
        self.check_name = check_name
        self.instance_count = 0
        self.failures = []
        self.elapsed = 0.0

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_jsonable().items())
        return f"CheckReport({fields})"

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self, n: int = 1):
        self.instance_count += n

    def fail(self, record: dict):
        self.failures.append(record)

    def to_jsonable(self) -> dict:
        return {"check_name": self.check_name, "instance_count": self.instance_count,
                "failures": list(self.failures), "elapsed": self.elapsed}


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.elapsed = time.perf_counter() - t0
        return report

    return wrapper


def _flat_ball(system: RootSystem, n: int, max_elements: int):
    return [x for shell in weyl.enumerate_ball(system, n, max_elements) for x in shell]


class _StepMap(dict):
    """Operator i on class ids: a dict from class id to class id, filled on
    a miss from its table's rule."""

    def __init__(self, table: _ClassTable, i: int):
        super().__init__()
        self.table, self.i = table, i

    def __missing__(self, k: int) -> int:
        table = self.table
        nxt = self[k] = table.intern(table.rule(table.elements[k], self.i))
        return nxt


class _ClassTable:
    """Classes interned as ints for one suite call, basis[k] as k.

    ``steps[i]`` sends a class id to the id of the class that operator i
    sends it to, filled on first use from the rule read at construction.
    A column is a list of class ids, the basis column ``range(len(basis))``;
    :meth:`walk` moves a whole column one letter at a time.
    """

    def __init__(self, system: RootSystem, basis):
        self.rule = kmodule.demazure_basis_target
        self.elements = list(basis)
        self.index = {w: k for k, w in enumerate(self.elements)}
        self.basis = range(len(self.elements))
        self.steps = [_StepMap(self, i) for i in range(system.rank + 1)]

    def intern(self, w) -> int:
        k = self.index.get(w)
        if k is None:
            k = self.index[w] = len(self.elements)
            self.elements.append(w)
        return k

    def walk(self, column: list, letters) -> list:
        """The column reached from ``column`` by applying the operators of letters."""
        steps = self.steps
        for i in letters:
            column = list(map(steps[i].__getitem__, column))
        return column


def _wordstr(x) -> list:
    return list(weyl.reduced_word(x))


def _tree_columns(table: _ClassTable, pool) -> dict:
    """Canonical word -> the basis column walked along it, for each element of a
    pool in ball order: one step from its canonical parent's column, made earlier."""
    columns = {(): table.basis}
    for x in pool[1:]:
        wx = weyl.reduced_word(x)
        columns[wx] = table.walk(columns[wx[:-1]], wx[-1:])
    return columns


def _class_records(report: CheckReport, table: _ClassTable, left, rights):
    """Record every basis class whose ``left`` column entry differs from a right
    column's, by class, then by case; a right is (inputs, column)."""
    if all(right == left for _, right in rights):
        return
    for k, lhs in enumerate(left):
        for inputs, right in rights:
            if right[k] != lhs:
                report.fail({**inputs, "basis": _wordstr(table.elements[k]),
                             "lhs": _wordstr(table.elements[lhs]),
                             "rhs": _wordstr(table.elements[right[k]])})


def _same_classes(report: CheckReport, table: _ClassTable, lhs, cases):
    """The basis column walked along ``lhs`` equals it walked along every
    case's letters; a case is (inputs, letters), its inputs lead each record."""
    report.count(len(table.basis) * len(cases))
    _class_records(report, table, table.walk(table.basis, lhs),
                   [(inputs, table.walk(table.basis, letters)) for inputs, letters in cases])


def _same_vectors(report: CheckReport, v, lhs, cases):
    """The vector v sent along ``lhs`` equals v sent along every case's letters."""
    report.count(len(cases))
    js = kmodule.schubert_to_jsonable
    left = kmodule.demazure_letters_apply(v, lhs)
    for inputs, letters in cases:
        right = kmodule.demazure_letters_apply(v, letters)
        if right != left:
            report.fail({**inputs, "vector": js(v), "lhs": js(left), "rhs": js(right)})


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``, drawn as ``random.Random`` draws it: getrandbits of
    n's bit length, again while the draw is n or more.  The same stream, without
    randrange's argument handling."""
    if n < 1:
        raise ValueError(f"empty range for _below: {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_terms(ring, pool, rng: random.Random) -> dict:
    """1..3 pool keys, each with a monomial of the torus ring and a nonzero
    coefficient: canonical by construction, so never validated.  The terms are
    a fixed function of rng's state, drawn as ``randrange`` and ``choice`` draw
    them: the count, then per term the exponents, the coefficient and the key."""
    terms = {}
    for _ in range(1 + _below(rng, 3)):
        exps = tuple([_below(rng, 5) - 2 for _ in range(ring.nvars)])
        coeff = 1 + _below(rng, ring.p - 1)
        terms[pool[_below(rng, len(pool))]] = GroupRingElement._from_canonical(
            ring.p, ring.nvars, {exps: coeff})
    return terms


def _random_vector(system, ring, pool, rng: random.Random):
    return kmodule.SchubertVector._from_canonical(system, ring, _random_terms(ring, pool, rng))


def _escaped_keys(system: RootSystem, vectors) -> dict:
    """The keys of the vectors outside the spherical submodule, each once, in order."""
    return dict.fromkeys(key for v in vectors for key in v.terms
                         if not kmodule.is_spherical_key(system, key))


def _bound_box(name: str, system: RootSystem, max_coord: int, max_elements: int):
    """Refuse to scan the (max_coord + 1)^rank box of coweights above ``max_elements``."""
    side = max_coord + 1
    if side ** system.rank > max_elements:
        raise weyl.ResourceBoundError(
            f"{name} would scan {side}^{system.rank} coweights, more than {max_elements}")


# -- suites ----------------------------------------------------------------


@_timed
def check_length_formula(system: RootSystem, max_coord: int = 3,
                         max_elements: int = weyl.MAX_ELEMENTS) -> CheckReport:
    """Translation length equals the pairing against the positive-root sum,
    over the (max_coord + 1)^rank coweights of a box, at most ``max_elements``."""
    _bound_box("length-formula", system, max_coord, max_elements)
    report = CheckReport("length-formula")
    for lam in system.dominant_coweights(max_coord):
        report.count()
        by_inversions = weyl.length(weyl.translation_element(system, lam))
        by_pairing = system.pairing(lam, system.two_rho)
        if by_inversions != by_pairing:
            report.fail(
                {"lambda": list(lam), "inversions": by_inversions, "pairing": by_pairing}
            )
    return report


@_timed
def check_braid(
    system: RootSystem,
    p: int,
    basis_bound: int = 6,
    n_random: int = 20,
    rng: random.Random | None = None,
    max_elements: int = weyl.MAX_ELEMENTS,
) -> CheckReport:
    """Alternating Demazure words of the Coxeter order agree, per generator pair."""
    rng = rng or random.Random(0)
    report = CheckReport("braid")
    ball = _flat_ball(system, basis_bound, max_elements)
    table = _ClassTable(system, ball)
    ring = torus_ring(system, p)
    for i in range(system.rank + 1):
        for j in range(i + 1, system.rank + 1):
            m = weyl.coxeter_order(system, i, j)
            if m is None:
                continue
            word_ij, word_ji = ((i, j) * m)[:m], ((j, i) * m)[:m]
            cases = [({"i": i, "j": j, "m": m}, word_ji)]
            _same_classes(report, table, word_ij, cases)
            for _ in range(n_random):
                _same_vectors(report, _random_vector(system, ring, ball, rng), word_ij, cases)
    return report


@_timed
def check_words(
    system: RootSystem,
    p: int,
    word_bound: int = 5,
    basis_bound: int = 7,
    n_random: int = 5,
    rng: random.Random | None = None,
    max_elements: int = weyl.MAX_ELEMENTS,
) -> CheckReport:
    """Every reduced word of an element induces the same operator.

    The word ball is prefix-closed, so every reduced word of every y in it
    walks the basis column to one column iff, for each right descent j of y but the
    smallest, i0, canon(y s_j)'s column walked by j is that of
    canon(y) = canon(y s_i0) + (i0,): by induction on l(y), for any rule,
    as a reduced word of y ends in a descent j after one of y s_j.  A DP
    over the same edges lists y's reduced words in the order of
    ``weyl.all_reduced_words``: words(e) = [()], else w + (j,) for each
    descent j ascending and each w in words(y s_j), so canon(y) comes
    first.  Each y counts len(basis) * (len(words(y)) - 1) instances.  The
    random layer draws vectors per element and walks each along every
    reduced word, which the induction does not cover.
    """
    rng = rng or random.Random(0)
    report = CheckReport("words")
    n = max(word_bound, basis_bound)
    shells = weyl.enumerate_ball(system, n, max_elements)
    ball = [x for shell in shells[:basis_bound + 1] for x in shell]
    table = _ClassTable(system, ball)
    ring = torus_ring(system, p)
    pool = [x for shell in shells[:word_bound + 1] for x in shell]
    columns = _tree_columns(table, pool)
    canon = {x: weyl.reduced_word(x) for x in pool}
    words = {(): [()]}
    for y in pool[1:]:
        wy = canon[y]
        # (j, canon(y s_j)) for each right descent j; the first is wy's parent
        below = [(j, canon[weyl._mul_gen(y, j)])
                 for j in range(system.rank + 1) if weyl.is_right_descent(y, j)]
        ref, *others = words[wy] = [w + (j,) for j, wb in below for w in words[wb]]
        report.count(len(ball) * len(others))
        _class_records(report, table, columns[wy], [
            ({"element": list(wy), "word": list(w + (j,)), "reference_word": list(wy)},
             table.walk(columns[w], (j,))) for j, w in below[1:]])
        cases = [({"element": list(wy), "word": list(other), "reference_word": list(ref)},
                  other) for other in others]
        for _ in range(n_random if others else 0):
            _same_vectors(report, _random_vector(system, ring, ball, rng), ref, cases)
    return report


@_timed
def check_compose(
    system: RootSystem,
    p: int,
    pair_bound: int = 5,
    basis_bound: int = 6,
    n_random: int = 20,
    rng: random.Random | None = None,
    max_elements: int = weyl.MAX_ELEMENTS,
) -> CheckReport:
    """Composites multiply along lengths, and every generator is idempotent.

    (u, v' s_j) inherits "u's column is uv's tree column" from (u, v') across a tree
    edge of uv'; a non-tree edge is walked once per call, and only below a pair
    that differed is a column walked on its own."""
    rng = rng or random.Random(0)
    report = CheckReport("compose")
    n = max(pair_bound, basis_bound)
    shells = weyl.enumerate_ball(system, n, max_elements)
    basis = [x for shell in shells[:basis_bound + 1] for x in shell]
    table = _ClassTable(system, basis)
    ring = torus_ring(system, p)

    for s in range(system.rank + 1):
        _same_classes(report, table, (s, s), [({"generator": s}, (s,))])

    pool = [x for shell in shells[:pair_bound + 1] for x in shell]
    columns = _tree_columns(table, pool)
    # l(uv) <= l(u) + l(v) <= pair_bound, so uv is a pool element, whose
    # length and word the ball walk has already set
    pooled = {x: x for x in pool}
    edges = {}  # (canon(x), j) -> x's tree column walked by j, or None if that is x s_j's
    pairs = []  # u's word then v's against uv's, where l(uv) = l(u) + l(v)
    for u in pool:
        wu, lu = weyl.reduced_word(u), weyl.length(u)
        # v's word -> (uv, canon(uv), u's column walked along v's word or None while
        # that is uv's tree column), for additive (u, v): with v = v' s_j, v' its canonical
        # parent, wu + wv is reduced iff wu + wv' is, an earlier pair, and l(uv' s_j) > l(uv').
        walked = {(): (u, wu, None)}
        for v in pool:
            lv, wv = weyl.length(v), weyl.reduced_word(v)
            if lu + lv > pair_bound:
                break
            if not lu + lv or wv[:-1] not in walked:
                continue
            uv, wuv, column = walked[wv[:-1]]  # (u, v'), or (u, e) itself
            if wv:
                if weyl.is_right_descent(uv, wv[-1]):
                    continue
                wx, uv = wuv, pooled[weyl._mul_gen(uv, wv[-1])]
                wuv = weyl.reduced_word(uv)
                if column is not None:  # below a pair that differed: walk on
                    column = table.walk(column, wv[-1:])
                elif wuv != wx + wv[-1:]:  # a non-tree edge: walked and compared once
                    if (wx, wv[-1]) not in edges:
                        column = table.walk(columns[wx], wv[-1:])
                        edges[wx, wv[-1]] = None if column == columns[wuv] else column
                    column = edges[wx, wv[-1]]
                walked[wv] = uv, wuv, column
            inputs = {"u": list(wu), "v": list(wv)}
            pairs.append((wu + wv, [(inputs, wuv)]))
            report.count(len(basis))
            if column is not None:
                _class_records(report, table, column, [(inputs, columns[wuv])])
    for _ in range(n_random if pairs else 0):
        lhs, cases = pairs[_below(rng, len(pairs))]
        _same_vectors(report, _random_vector(system, ring, basis, rng), lhs, cases)
    return report


@_timed
def check_xi(
    system: RootSystem,
    p: int,
    exhaustive_bound: int = 4,
    n_random: int = 1000,
    rng: random.Random | None = None,
    max_elements: int = weyl.MAX_ELEMENTS,
) -> CheckReport:
    """The basis relabeling intertwines the algebra product with the action."""
    rng = rng or random.Random(0)
    report = CheckReport("xi")
    ring = torus_ring(system, p)
    ball = _flat_ball(system, exhaustive_bound, max_elements)
    # Each side is one class with coefficient one: Y_u Y_v's at the Demazure
    # product of u and v, and the action's at entry u of v's column.
    table = _ClassTable(system, ball)
    columns = _tree_columns(table, ball)
    walked = [columns[weyl.reduced_word(v)] for v in ball]
    for n, u in enumerate(ball):
        report.count(len(ball))
        for v, column in zip(ball, walked):
            rhs = table.elements[column[n]]
            lhs = hecke.demazure_product(u, v)
            if lhs != rhs:
                report.fail({"u": _wordstr(u), "v": _wordstr(v),
                             "lhs": kmodule.schubert_to_jsonable(kmodule.basis_class(lhs, ring)),
                             "rhs": kmodule.schubert_to_jsonable(kmodule.basis_class(rhs, ring))})

    def random_hecke():
        return hecke.HeckeElement._from_canonical(system, ring, _random_terms(ring, ball, rng))

    for _ in range(n_random):
        report.count()
        a, b = random_hecke(), random_hecke()
        lhs = kmodule.schubert_from_hecke(hecke.multiply_hecke(a, b))
        rhs = kmodule.hecke_act(kmodule.schubert_from_hecke(a), b)
        if lhs != rhs:
            report.fail({"a": hecke.to_jsonable(a), "b": hecke.to_jsonable(b),
                         "lhs": kmodule.schubert_to_jsonable(lhs),
                         "rhs": kmodule.schubert_to_jsonable(rhs)})
    return report


@_timed
def check_theta(
    system: RootSystem,
    p: int,
    max_coord: int = 2,
    n_random: int = 50,
    rng: random.Random | None = None,
    max_elements: int = weyl.MAX_ELEMENTS,
) -> CheckReport:
    """The dominant-monoid embedding is multiplicative on translations,
    over the (max_coord + 1)^rank box of coweights, at most ``max_elements``."""
    _bound_box("theta", system, max_coord, max_elements)
    rng = rng or random.Random(0)
    report = CheckReport("theta")
    ring = PrimeField(p)
    dom = system.dominant_coweights(max_coord)
    for lam in dom:
        for mu in dom:
            report.count()
            y_lam = hecke.basis_y(weyl.translation_element(system, lam), ring)
            y_mu = hecke.basis_y(weyl.translation_element(system, mu), ring)
            total = tuple(a + b for a, b in zip(lam, mu))
            lhs = hecke.multiply_hecke(y_lam, y_mu)
            rhs = hecke.basis_y(weyl.translation_element(system, total), ring)
            if lhs != rhs:
                report.fail({"lambda": list(lam), "mu": list(mu),
                             "lhs": hecke.to_jsonable(lhs), "rhs": hecke.to_jsonable(rhs)})
    for _ in range(n_random):
        report.count()
        a = monoid_monomial(system, p, dom[_below(rng, len(dom))], 1 + _below(rng, p - 1))
        b = monoid_monomial(system, p, dom[_below(rng, len(dom))], 1 + _below(rng, p - 1))
        lhs = hecke.embed_dominant(a * b)
        rhs = hecke.multiply_hecke(hecke.embed_dominant(a), hecke.embed_dominant(b))
        if lhs != rhs:
            report.fail({"a": repr(a), "b": repr(b),
                         "lhs": hecke.to_jsonable(lhs), "rhs": hecke.to_jsonable(rhs)})
    return report


@_timed
def check_spherical(
    system: RootSystem,
    p: int,
    max_coord: int = 4,
    pair_coord: int = 2,
    max_elements: int = weyl.MAX_ELEMENTS,
) -> CheckReport:
    """The pulled-back submodule is free of rank one over the dominant monoid,
    over the (max(max_coord, pair_coord) + 1)^rank box of coweights, at most
    ``max_elements``."""
    _bound_box("spherical", system, max(max_coord, pair_coord), max_elements)
    report = CheckReport("spherical")
    ring = torus_ring(system, p)
    w0 = weyl.longest_finite_element(system)

    dom = system.dominant_coweights(max_coord)
    image_keys = set()
    for lam in dom:
        anti = tuple(-c for c in lam)
        g = kmodule.grassmannian_class(system, anti, ring)
        (key,) = kmodule.grassmannian_pullback(g).terms
        image_keys.add(key)
    mapped = {}
    for lam in dom:
        report.count()
        key = w0 * weyl.translation_element(system, lam)
        if key in mapped:
            report.fail({"lambda": list(lam), "collides_with": list(mapped[key])})
        mapped[key] = lam
        if key not in image_keys:
            report.fail({"lambda": list(lam), "missing_from_image": _wordstr(key)})
    report.count()
    if set(mapped) != image_keys:
        report.fail({"extra_image_keys": [
            _wordstr(k) for k in sorted(image_keys - set(mapped), key=weyl.element_sort_key)
        ]})

    starts = [kmodule.basis_class(w0, ring)]
    lam0 = max(dom, key=sum, default=())
    if sum(lam0) > 0:
        starts.append(kmodule.basis_class(w0 * weyl.translation_element(system, lam0), ring))
    pairs = system.dominant_coweights(pair_coord)
    for lam in pairs:
        # a key that escaped the submodule is recorded once, under the action it
        # escaped, λ's here and μ's below; no further action applies to it
        mids = [kmodule.spherical_act(lam, v) for v in starts]
        escaped = _escaped_keys(system, mids)
        for key in escaped:
            report.fail({"lambda": list(lam), "escaped_key": _wordstr(key)})
        acting = [(v, mid) for v, mid in zip(starts, mids) if escaped.keys().isdisjoint(mid.terms)]
        for mu in pairs:
            total = tuple(a + b for a, b in zip(lam, mu))
            report.count(len(starts))
            sides = [(v, kmodule.spherical_act(mu, mid), kmodule.spherical_act(total, v))
                     for v, mid in acting]
            for v, lhs, rhs in sides:
                if lhs != rhs:
                    report.fail({"lambda": list(lam), "mu": list(mu),
                                 "vector": kmodule.schubert_to_jsonable(v),
                                 "lhs": kmodule.schubert_to_jsonable(lhs),
                                 "rhs": kmodule.schubert_to_jsonable(rhs)})
            for key in _escaped_keys(system, [lhs for _, lhs, _ in sides]):
                report.fail({"lambda": list(lam), "mu": list(mu), "escaped_key": _wordstr(key)})
    return report


@_timed
def check_specialize(
    system: RootSystem,
    p: int,
    n_instances: int = 1000,
    key_bound: int = 4,
    rng: random.Random | None = None,
    max_elements: int = weyl.MAX_ELEMENTS,
) -> CheckReport:
    """Specializing at the torus identity intertwines the right action."""
    rng = rng or random.Random(0)
    report = CheckReport("specialize")
    ring = torus_ring(system, p)
    field = ring.field
    # keys up to length key_bound, operators up to length 3, from one ball
    shells = weyl.enumerate_ball(system, max(key_bound, 3), max_elements)
    ball = [x for shell in shells[:key_bound + 1] for x in shell]
    ops = [x for shell in shells[:4] for x in shell]
    for _ in range(n_instances):
        report.count()
        v = _random_vector(system, ring, ball, rng)
        terms = {}
        for _ in range(1 + _below(rng, 2)):
            coeff = 1 + _below(rng, p - 1)
            terms[ops[_below(rng, len(ops))]] = field.from_int(coeff)
        h = hecke.HeckeElement._from_canonical(system, field, terms)
        lhs = kmodule.specialize(kmodule.hecke_act(v, h))
        rhs = kmodule.hecke_act(kmodule.specialize(v), h)
        if lhs != rhs:
            report.fail({"vector": kmodule.schubert_to_jsonable(v),
                         "hecke": hecke.to_jsonable(h),
                         "lhs": kmodule.schubert_to_jsonable(lhs),
                         "rhs": kmodule.schubert_to_jsonable(rhs)})
    return report


@_timed
def check_bruhat_oracle(
    system: RootSystem, max_len: int = 5, max_elements: int = weyl.MAX_ELEMENTS
) -> CheckReport:
    """Descent-peeling Bruhat order equals subword containment, by one set per w."""
    report = CheckReport("bruhat-oracle")
    ball = _flat_ball(system, max_len, max_elements)
    lower = [_subword_products(system, weyl.reduced_word(w)) for w in ball]
    for u in ball:
        report.count(len(ball))
        for w, below in zip(ball, lower):
            if weyl.bruhat_leq(u, w) != (u in below):
                report.fail({"u": _wordstr(u), "w": _wordstr(w),
                             "recursion": weyl.bruhat_leq(u, w)})
    return report


def _subword_products(system: RootSystem, letters) -> set:
    """Every subword product of letters (from {e}, each q makes S into S | S s_q);
    for a reduced word of w, the interval [e, w] (Bjorner-Brenti, GTM 231, 2.2.2)."""
    products = {weyl.identity_element(system)}
    for q in letters:
        products |= {weyl._mul_gen(x, q) for x in products}
    return products


def bruhat_subword_oracle(u, w) -> bool:
    """u <= w iff the canonical word of w has a subword multiplying to u."""
    return u in _subword_products(w.system, weyl.reduced_word(w))


# name: the suite's call at truncation n with the run's prime p, rng and ball bound
SUITES = {
    "braid": lambda system, p, n, rng, bound: check_braid(
        system, p, basis_bound=n, rng=rng, max_elements=bound),
    "words": lambda system, p, n, rng, bound: check_words(
        system, p, word_bound=min(n, 6), basis_bound=n + 2, rng=rng, max_elements=bound),
    "compose": lambda system, p, n, rng, bound: check_compose(
        system, p, pair_bound=min(n, 6), basis_bound=n, rng=rng, max_elements=bound),
    "xi": lambda system, p, n, rng, bound: check_xi(
        system, p, exhaustive_bound=min(n, 4), n_random=200, rng=rng, max_elements=bound),
    "theta": lambda system, p, n, rng, bound: check_theta(
        system, p, max_coord=min(n, 3), rng=rng, max_elements=bound),
    "spherical": lambda system, p, n, rng, bound: check_spherical(
        system, p, max_coord=min(n, 4), max_elements=bound),
    "specialize": lambda system, p, n, rng, bound: check_specialize(
        system, p, n_instances=200, key_bound=min(n, 4), rng=rng, max_elements=bound),
    "bruhat-oracle": lambda system, p, n, rng, bound: check_bruhat_oracle(
        system, max_len=min(n, 5), max_elements=bound),
    "length-formula": lambda system, p, n, rng, bound: check_length_formula(
        system, max_coord=n, max_elements=bound),
}


def run_suite(
    name: str, system: RootSystem, p: int, max_length: int, seed: int = 0,
    max_elements: int = weyl.MAX_ELEMENTS,
) -> CheckReport:
    """Run one named suite at a scale driven by the configured truncation;
    every ball a suite reads is enumerated under ``max_elements``, and every
    box of coweights it scans has at most that many points."""
    if name not in SUITES:
        raise ValueError(f"unknown check suite {name!r}; choose from {tuple(SUITES)} or 'all'")
    return SUITES[name](system, p, max_length, random.Random(seed), max_elements)
