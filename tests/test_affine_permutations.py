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
