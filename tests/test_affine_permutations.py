"""Type A~ against affine permutations, a model with no Cartan data.

An affine permutation w of Z with w(k + n) = w(k) + n is fixed by its
window [w(1), ..., w(n)]; these model the affine Weyl group of type
A_{n-1} (Bjorner-Brenti, GTM 231, 8.3), letter i acting on the right as
s_i, which swaps the values at positions i and i + 1 (mod n).  Length is
Shi's inversion count, sum over 1 <= i < j <= n of |floor((w(j) - w(i)) / n)|
(Shi, LNM 1179, 1986).  Nothing here reads ``rootdata``: the library is
asked only for words, equality and hashes, lengths, inverses, products,
ball shells and the suite's count, and each answer is checked on windows.
"""

import random

import pytest

from zerohecke import checks, weyl
from zerohecke.rootdata import build_root_system


def _apply(window, k):
    # w(k) for any integer k, from the window
    q, r = divmod(k - 1, len(window))
    return window[r] + q * len(window)


def _times_letter(window, i):
    # w s_i: positions i and i + 1 swap; s_0 swaps positions 0 and 1, i.e. n and n + 1
    n, w = len(window), list(window)
    if i:
        w[i - 1], w[i] = w[i], w[i - 1]
    else:
        w[0], w[n - 1] = window[n - 1] - n, window[0] + n
    return tuple(w)


def _from_word(n, letters):
    window = tuple(range(1, n + 1))
    for i in letters:
        window = _times_letter(window, i)
    return window


def _compose(u, v):
    # (uv)(k) = u(v(k))
    return tuple(_apply(u, k) for k in v)


def _inverse(window):
    # w(k) = r + q n with 1 <= r <= n gives w^-1(r) = k - q n
    n, inv = len(window), [0] * len(window)
    for k, v in enumerate(window, 1):
        q, r = divmod(v - 1, n)
        inv[r] = k - q * n
    return tuple(inv)


def _window(x):
    return _from_word(x.system.rank + 1, weyl.reduced_word(x))


def _shi_length(window):
    n = len(window)
    return sum(abs((window[j] - window[i]) // n) for i in range(n) for j in range(i + 1, n))


def test_model_generators_are_involutions_with_the_cycle_braids():
    n = 4
    e = _from_word(n, ())
    for i in range(n):
        assert _shi_length(_from_word(n, (i,))) == 1
        assert _from_word(n, (i, i)) == e
        # the affine diagram of A3 is a 4-cycle: i and i + 1 (mod n) braid in 3,
        # i and i + 2 commute
        j, k = (i + 1) % n, (i + 2) % n
        assert _from_word(n, (i, j, i)) == _from_word(n, (j, i, j))
        assert _from_word(n, (i, k)) == _from_word(n, (k, i)) != e


@pytest.mark.parametrize("rank,pair_bound", [(2, 5), (3, 4)])
def test_compose_pair_count_matches_affine_permutations(rank, pair_bound):
    n = rank + 1
    system = build_root_system("A", rank)
    pool = [x for shell in weyl.enumerate_ball(system, pair_bound) for x in shell]
    words = [weyl.reduced_word(x) for x in pool]
    windows = [_from_word(n, word) for word in words]
    # canonical words are reduced, and name distinct elements
    assert [_shi_length(w) for w in windows] == [len(word) for word in words]
    assert len(set(windows)) == len(pool)
    additive = sum(0 < len(wu) + len(wv) <= pair_bound
                   and _shi_length(_compose(u, v)) == len(wu) + len(wv)
                   for u, wu in zip(windows, words) for v, wv in zip(windows, words))
    report = checks.check_compose(system, 3, pair_bound=pair_bound, basis_bound=2, n_random=0)
    basis = sum(map(len, weyl.enumerate_ball(system, 2)))
    # the idempotence layer counts one instance per basis class and generator
    assert report.passed
    assert report.instance_count == basis * (additive + n)


RANKS = pytest.mark.parametrize("rank", [1, 2, 3, 5], ids=lambda r: f"A~{r}")


def _random_words(rank, count, max_len, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(rank + 1) for _ in range(rng.randrange(max_len + 1)))
            for _ in range(count)]


@RANKS
def test_equality_and_hash_match_windows(rank):
    # short words collide often; two words agree as windows iff they give equal elements
    system = build_root_system("A", rank)
    words = _random_words(rank, 160, 7, rank)
    windows = [_from_word(rank + 1, word) for word in words]
    elements = [weyl.from_word(system, word) for word in words]
    assert len(set(windows)) < len(words)
    for u, x in zip(windows, elements):
        for v, y in zip(windows, elements):
            assert (u == v) == (x == y), (u, v)
            assert u != v or hash(x) == hash(y), (u, v)


@RANKS
def test_group_law_length_and_words_match_windows(rank):
    # inverse, products, Shi's length and canonical words, on long random words
    system, n = build_root_system("A", rank), rank + 1
    words = _random_words(rank, 60, 40, 100 + rank)
    for word, other in zip(words, reversed(words)):
        x, y = weyl.from_word(system, word), weyl.from_word(system, other)
        u, v = _from_word(n, word), _from_word(n, other)
        reduced = weyl.reduced_word(x)
        assert _from_word(n, reduced) == u, word
        assert weyl.length(x) == len(reduced) == _shi_length(u), word
        assert _window(x.inverse()) == _inverse(u), word
        assert _compose(_inverse(u), u) == _from_word(n, ()), word
        assert _window(x * y) == _compose(u, v), (word, other)


@pytest.mark.parametrize("rank,n", [(1, 9), (2, 7), (3, 6), (5, 4)],
                         ids=("A~1", "A~2", "A~3", "A~5"))
def test_ball_shells_match_breadth_first_search_on_windows(rank, n):
    # the model's shells by breadth-first search from the identity, with a seen set
    system = build_root_system("A", rank)
    seen = {_from_word(rank + 1, ())}
    shells = [list(seen)]
    for _ in range(n):
        shell = []
        for w in shells[-1]:
            for i in range(rank + 1):
                if (nxt := _times_letter(w, i)) not in seen:
                    seen.add(nxt)
                    shell.append(nxt)
        shells.append(shell)
    ball = weyl.enumerate_ball(system, n)
    assert [len(shell) for shell in ball] == [len(shell) for shell in shells]
    assert [sorted(map(_window, shell)) for shell in ball] == [sorted(s) for s in shells]


# -- type C~: signed affine permutations ------------------------------------------
#
# A signed affine permutation u of Z has u(k + N) = u(k) + N and u(-k) = -u(k),
# with N = 2n + 1, and is fixed by its window [u(1), ..., u(n)] (Bjorner-Brenti,
# GTM 231, 8.4).  These model the affine Weyl group of type C~_n, letter b acting
# on the right: b = 0 negates u(1), 0 < b < n swaps positions b and b + 1, and
# b = n sends u(n) to u(n + 1) = N - u(n).  Letter b is a right descent iff
# u(b) > u(b + 1), with u(0) = 0.  The model's letters 0..n-1 generate the signed
# permutations, a finite group, so its affine letter is n; the library's is 0.
# Both diagrams are the path 0 =4= 1 - ... - (n-1) =4= n, so library letter i is
# model letter n - i: a test below checks the Coxeter matrices agree under it.


def _c_apply(window, k):
    # u(k) for any integer k, from the window
    n = len(window)
    q, r = divmod(k, 2 * n + 1)
    if not r:
        return q * (2 * n + 1)
    return (window[r - 1] if r <= n else 2 * n + 1 - window[2 * n - r]) + q * (2 * n + 1)


def _c_times_letter(window, b):
    n, w = len(window), list(window)
    if b == 0:
        w[0] = -window[0]
    elif b < n:
        w[b - 1], w[b] = window[b], window[b - 1]
    else:
        w[n - 1] = 2 * n + 1 - window[n - 1]
    return tuple(w)


def _c_descent(window, b):
    return _c_apply(window, b) > _c_apply(window, b + 1)


def _c_from_word(n, letters):
    # library letters, mapped to the model's by i -> n - i
    window = tuple(range(1, n + 1))
    for i in letters:
        window = _c_times_letter(window, n - i)
    return window


def _c_compose(u, v):
    return tuple(_c_apply(u, k) for k in v)


def _c_inverse(window):
    # u(k) = v gives u^-1(v) = k; read the value in 1..n of the class of +-v mod N
    n, inv = len(window), [0] * len(window)
    for k, v in enumerate(window, 1):
        q, r = divmod(v, 2 * n + 1)
        if r <= n:
            inv[r - 1] = k - q * (2 * n + 1)
        else:
            inv[2 * n - r] = (q + 1) * (2 * n + 1) - k
    return tuple(inv)


def _c_length(window):
    # the number of descents peeled down to the identity
    n, steps = len(window), 0
    while (b := next((b for b in range(n + 1) if _c_descent(window, b)), None)) is not None:
        window, steps = _c_times_letter(window, b), steps + 1
    assert window == tuple(range(1, n + 1))
    return steps


def _c_window(x):
    return _c_from_word(x.system.rank, weyl.reduced_word(x))


C_RANKS = pytest.mark.parametrize("rank", [2, 3], ids=lambda r: f"C~{r}")


@C_RANKS
def test_c_letter_map_matches_the_coxeter_diagram(rank):
    # the model's letters 0..n-1 keep windows inside the signed permutations,
    # as the library's 1..n keep the translation zero; orders of products agree
    n, system = rank, build_root_system("C", rank)
    e = _c_from_word(n, ())
    for i in range(rank + 1):
        finite = all(abs(c) <= n for c in _c_from_word(n, (i,)))
        assert finite == (i != 0) == (not any(weyl.generator(system, i).translation))
        for j in range(rank + 1):
            order = 1
            while _c_from_word(n, (i, j) * order) != e:
                order += 1
            assert order == weyl.coxeter_order(system, i, j), (i, j)


@C_RANKS
def test_c_equality_hash_and_descents_match_windows(rank):
    system = build_root_system("C", rank)
    words = _random_words(rank, 120, 7, 200 + rank)
    windows = [_c_from_word(rank, word) for word in words]
    elements = [weyl.from_word(system, word) for word in words]
    assert len(set(windows)) < len(words)
    for u, x in zip(windows, elements):
        assert [weyl.is_right_descent(x, i) for i in range(rank + 1)] == \
            [_c_descent(u, rank - i) for i in range(rank + 1)], u
        for v, y in zip(windows, elements):
            assert (u == v) == (x == y), (u, v)
            assert u != v or hash(x) == hash(y), (u, v)


@C_RANKS
def test_c_group_law_length_and_words_match_windows(rank):
    system = build_root_system("C", rank)
    words = _random_words(rank, 40, 30, 300 + rank)
    for word, other in zip(words, reversed(words)):
        x, y = weyl.from_word(system, word), weyl.from_word(system, other)
        u, v = _c_from_word(rank, word), _c_from_word(rank, other)
        reduced = weyl.reduced_word(x)
        assert _c_from_word(rank, reduced) == u, word
        assert weyl.length(x) == len(reduced) == _c_length(u), word
        assert _c_window(x.inverse()) == _c_inverse(u), word
        assert _c_compose(_c_inverse(u), u) == _c_from_word(rank, ()), word
        assert _c_window(x * y) == _c_compose(u, v), (word, other)


@pytest.mark.parametrize("rank,n", [(2, 8), (3, 6)], ids=("C~2", "C~3"))
def test_c_ball_shells_match_breadth_first_search_on_windows(rank, n):
    system = build_root_system("C", rank)
    seen = {_c_from_word(rank, ())}
    shells = [list(seen)]
    for _ in range(n):
        shell = []
        for w in shells[-1]:
            for b in range(rank + 1):
                if (nxt := _c_times_letter(w, b)) not in seen:
                    seen.add(nxt)
                    shell.append(nxt)
        shells.append(shell)
    ball = weyl.enumerate_ball(system, n)
    assert [sorted(map(_c_window, shell)) for shell in ball] == [sorted(s) for s in shells]
