"""Brute-force ground truth for sieve runs.

Everything here factors elements directly by trial division, with no
progression machinery involved, so a sieve run can be checked against
results obtained the slow way; compare() walks the sieve's record
stream alongside.  trial_factor divides by the primes below 2^16 first,
which covers every n < 2^32 with primes alone, then goes on with the
6k +- 1 candidates from 65537.  The prime table comes from the oracle's
own sieve of Eratosthenes, built on the first call: not from
sieve.atkin_primes, whose primes also seed the sieve's head, so a prime
missing there cannot hide from both the sieve and its oracle.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from itertools import compress
from math import isqrt

from .core import EcParams, element_at
from .sieve import factorizations


@dataclass(frozen=True)
class OracleReport:
    """Outcome of a sieve-versus-oracle comparison.

    first_divergence is None when matched, else a triple of the index,
    the sieve's record there and the oracle's expected factor list.
    """

    matched: bool
    first_divergence: tuple | None


_TABLE_LIMIT = 1 << 16


@cache
def _small_primes() -> tuple[int, ...]:
    """The primes below _TABLE_LIMIT, ascending."""
    flags = bytearray([1]) * _TABLE_LIMIT
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(_TABLE_LIMIT - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, _TABLE_LIMIT, p)))
    return tuple(compress(range(_TABLE_LIMIT), flags))


def trial_factor(n: int) -> list[tuple[int, int]]:
    """Prime-power factorization of n >= 1 by trial division, ascending.

    Divides by each prime below 2^16 in turn, then by the 6k +- 1
    candidates from 65537, stopping once the candidate's square passes
    what is left of n; a remainder above 1 is then prime.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    root = isqrt(n)
    for p in _small_primes():
        if p > root:
            break
        if n % p == 0:
            n, e = _divide_out(n, p)
            out.append((p, e))
            root = isqrt(n)
    else:
        # 65537 = 6 * 10922 + 5, so the wheel goes on where the table
        # ends: 65522..65536 are all composite
        p = _TABLE_LIMIT + 1
        while p <= root:
            if n % p == 0 or n % (p + 2) == 0:
                for q in (p, p + 2):
                    if n % q == 0:
                        n, e = _divide_out(n, q)
                        out.append((q, e))
                root = isqrt(n)
            p += 6
    if n > 1:
        out.append((n, 1))
    return out


def _divide_out(n: int, p: int) -> tuple[int, int]:
    """n with every factor p removed, and the number removed."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def brute_sets(params: EcParams, j_max: int) -> tuple[list[int], list[int]]:
    """P and D over the first j_max + 1 elements, each factored directly."""
    p_set: list[int] = []
    d_seen: set[int] = set()
    for j in range(j_max + 1):
        n = element_at(params, j).n
        if n == 1:
            continue
        factors = trial_factor(n)
        if factors[0][0] == n:
            p_set.append(n)
        for p, _ in factors:
            if p <= j_max:
                d_seen.add(p)
    return p_set, sorted(d_seen)


def compare(
    params: EcParams, j_max: int, on_match: Callable | None = None
) -> OracleReport:
    """Check each record of one sieve pass against a direct factorization
    of the same element, stopping at the first divergence.  on_match,
    when given, is called with every record that agrees."""
    stream = factorizations(params, j_max)
    for j in range(j_max + 1):
        rec = next(stream, None)
        el = element_at(params, j)
        expected = tuple(trial_factor(el.n)) if el.n > 1 else ()
        if rec != (j, el.x, el.n, expected):
            return OracleReport(matched=False, first_divergence=(j, rec, expected))
        if on_match is not None:
            on_match(rec)
    return OracleReport(matched=True, first_divergence=None)
