"""Type A~ against affine permutations, a model with no Cartan data.

An affine permutation w of Z with w(k + n) = w(k) + n is fixed by its
window [w(1), ..., w(n)]; these model the affine Weyl group of type
A_{n-1} (Bjorner-Brenti, GTM 231, 8.3), letter i acting on the right as
s_i, which swaps the values at positions i and i + 1 (mod n).  Length is
Shi's inversion count, sum over 1 <= i < j <= n of |floor((w(j) - w(i)) / n)|
(Shi, LNM 1179, 1986).  Nothing here reads ``rootdata``: only the words
and the suite's count come from the library.
"""

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
