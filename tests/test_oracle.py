import ast
import random
from pathlib import Path

import pytest

from quadsieve import (
    atkin_primes,
    brute_sets,
    compare,
    element_at,
    is_prime,
    make_params,
    oracle,
    trial_factor,
)
from reference import run_python

# primes on either side of 2^16, where the oracle's prime table ends, and
# 2^32, the bound below which the table alone suffices
TABLE_EDGE_CASES = (
    65521**2,
    65521 * 65537,
    65537**2,
    65537 * 65539,
    3 * 65537**2,
    2**32,
    2**32 + 1,
)


def wheel_factor(n):
    """Reference factorizer: trial division by 2, 3 and every 6k +- 1."""
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                out.append((q, e))
        p += 6
    if n > 1:
        out.append((n, 1))
    return out


def seeded_grid(count, seed=23):
    rng = random.Random(seed)
    return [rng.randrange(1, 2**40) for _ in range(count)]


def test_trial_factor_examples():
    assert trial_factor(1) == []
    assert trial_factor(325) == [(5, 2), (13, 1)]
    assert trial_factor(961) == [(31, 2)]
    assert trial_factor(2) == [(2, 1)]
    assert trial_factor(97) == [(97, 1)]


def test_trial_factor_rejects_non_positive():
    with pytest.raises(ValueError):
        trial_factor(0)
    with pytest.raises(ValueError):
        trial_factor(-6)


def test_trial_factor_round_trip():
    for n in (*range(1, 2000), *TABLE_EDGE_CASES, *seeded_grid(200)):
        prod = 1
        prev = 1
        for p, e in trial_factor(n):
            assert p > prev and e >= 1
            assert is_prime(p)
            prev = p
            prod *= p**e
        assert prod == n


def test_trial_factor_matches_wheel():
    for n in (*range(1, 200_000), *seeded_grid(2000), *TABLE_EDGE_CASES):
        assert trial_factor(n) == wheel_factor(n), n


def test_trial_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in (*range(1, 3000), *seeded_grid(500, seed=7), *TABLE_EDGE_CASES):
        assert trial_factor(n) == sorted(sympy.factorint(n).items()), n


def test_prime_table_is_the_oracles_own():
    assert list(oracle._small_primes()) == atkin_primes(2**16 - 1)
    assert not hasattr(oracle, "atkin_primes")
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "atkin_primes" not in imported


TABLE_PROBE = """
import quadsieve.cli
from quadsieve import oracle
print(oracle._small_primes.cache_info().currsize)
oracle.trial_factor(10)
print(oracle._small_primes.cache_info().currsize)
"""


def test_importing_the_cli_builds_no_prime_table():
    done = run_python("-c", TABLE_PROBE, check=True)
    assert done.stdout.split() == ["0", "1"]


def test_brute_sets_examples():
    p_set, d_set = brute_sets(make_params(1), 10)
    assert len(p_set) == 7 and d_set == [5]
    p_set, d_set = brute_sets(make_params(3), 10)
    assert len(p_set) == 6 and d_set == [3, 7]
    assert brute_sets(make_params(1), 0) == ([], [])


def test_compare_matches_sieve():
    for c in (1, 61, 4):
        report = compare(make_params(c), 10_000)
        assert report.matched
        assert report.first_divergence is None


def test_compare_agrees_with_brute_sets():
    from quadsieve import run_sieve

    for c in (2, 7):
        params = make_params(c)
        out = run_sieve(params, 300)
        assert (out.p_set, out.d_set) == brute_sets(params, 300)


def test_compare_stops_at_first_divergence(monkeypatch):
    params, k = make_params(4), 37
    bad_n = element_at(params, k).n
    real_factor, real_stream = oracle.trial_factor, oracle.factorizations
    pulled = []

    def spy_stream(*args, **kwargs):
        for rec in real_stream(*args, **kwargs):
            pulled.append(rec.j)
            yield rec

    def wrong_at_k(n):
        return real_factor(n) + [(3, 1)] if n == bad_n else real_factor(n)

    monkeypatch.setattr(oracle, "factorizations", spy_stream)
    monkeypatch.setattr(oracle, "trial_factor", wrong_at_k)
    report = compare(params, 2000)
    assert not report.matched
    j, rec, expected = report.first_divergence
    assert j == k and rec.n == bad_n and expected[-1] == (3, 1)
    assert pulled == list(range(k + 1))


def test_compare_calls_on_match_per_record():
    params = make_params(61)
    matched = []
    assert compare(params, 200, matched.append).matched
    assert [rec.j for rec in matched] == list(range(201))
