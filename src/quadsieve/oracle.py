"""Brute-force ground truth for sieve runs.

Everything here factors elements directly by trial division, with no
progression machinery involved, so a sieve run can be checked against
results obtained the slow way; compare() walks the sieve's record
stream alongside.  Performance is a non-goal.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

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


def trial_factor(n: int) -> list[tuple[int, int]]:
    """Prime-power factorization of n >= 1 by trial division, ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
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
