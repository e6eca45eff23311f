import math
import random

import pytest

from quadsieve import (
    element_at,
    index_of,
    is_prime,
    make_params,
)


def test_params_c1():
    p = make_params(1)
    assert (p.c, p.r, p.t, p.y, p.j_threshold) == (1, 0, 1, 0, 0)


def test_params_c61():
    p = make_params(61)
    assert (p.r, p.t, p.y, p.j_threshold) == (0, 1, 15, 15)


def test_params_c4_even():
    p = make_params(4)
    assert (p.r, p.t, p.y, p.j_threshold) == (1, 2, 0, 0)


def test_params_split_reconstructs_c():
    for c in range(1, 500):
        p = make_params(c)
        assert p.t >= 1
        assert c + 1 - p.r == 2**p.t * (2 * p.y + 1)
        assert p.j_threshold == (c - 1) // 4


def test_element_examples():
    assert element_at(make_params(1), 0).n == 1
    el = element_at(make_params(61), 15)
    assert (el.x, el.n) == (30, 961)
    el = element_at(make_params(3), 6)
    assert (el.x, el.n) == (12, 147)


def test_element_values_odd_and_increasing():
    for c in (1, 2, 3, 4, 7, 15, 61):
        p = make_params(c)
        prev = 0
        for j in range(200):
            el = element_at(p, j)
            assert el.n % 2 == 1
            assert el.x == 2 * j + p.r
            assert el.n > prev
            prev = el.n


def test_index_round_trip():
    for c in (1, 2, 5, 12):
        p = make_params(c)
        for j in range(50):
            assert index_of(p, element_at(p, j).x) == j


def test_isqrt_of_elements_past_threshold():
    # past the head range the abscissa is recoverable from the value
    for c in (1, 3, 4, 61, 100):
        p = make_params(c)
        for j in range(p.j_threshold + 1, p.j_threshold + 40):
            el = element_at(p, j)
            assert math.isqrt(el.n) == el.x


def test_is_prime_small_and_carmichael():
    odd_primes = {3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n == 2 or n in odd_primes)
    assert not is_prime(561)
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**59 - 1)


# psi_k, the smallest strong pseudoprime to the first k prime bases, for
# k = 1..11 (OEIS A014233), with psi_7 = psi_8 and psi_9 = psi_10 =
# psi_11 listed once
MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)


def test_is_prime_tiers_match_sympy():
    isprime = pytest.importorskip("sympy").isprime
    for n in range(200_000):
        assert is_prime(n) == isprime(n), n
    # bit lengths drawn uniformly, so every size tier gets samples
    rng = random.Random(1373653)
    for _ in range(20_000):
        n = rng.getrandbits(rng.randint(2, 63))
        assert is_prime(n) == isprime(n), n
    for psi in MR_PSI:
        assert not isprime(psi)
        assert not is_prime(psi), psi
