"""Two-phase factorization sieve over E_c.

Elements are processed in index order.  Head indices, up to the
parameter threshold, are sieved by root classes, as the quadratic sieve
treats polynomial values, through a calendar (O'Neill's incremental
sieve): a dict from each index to the primes due there, seeded with the
first index of each class on which X**2 == -c (mod p) for every odd
prime p up to the square root of the last head element.  Each head
element is divided by exactly its due primes, to their full powers,
which leaves 1 or one prime.  Due primes are filed again p indices on,
a cofactor at its next index in each class, and nothing past the run's
last index.  A prime whose classes miss the head is divided out at its
first hit past it instead of being found there as a new cofactor; the
records are the same.  Past the threshold each element is divided by
exactly the primes whose index progressions predict a hit there; the
cofactor left is 1 or a single new prime to the first power, which gets
registered in turn.  Both phases divide through one factor step,
_factor, and differ only in the bound a cofactor must exceed.  The
progression table is built only when a run goes past the head, with the
calendar's entries as its first slots, so a run that ends inside the
head never builds it and never imports numpy.  Its slots are (prime,
next index) pairs, and each step scans them once for hits.

factorizations() is that single pass, yielding one record per element;
run_sieve() tallies P, D and checkpoint rows over it, and the oracle
and the command line consume the same stream.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import NamedTuple

from .core import EcParams, element_at, is_prime
from .progressions import _index_classes
from .uz import special_pair_one, special_pair_two

class SieveError(RuntimeError):
    """A factorization step or the run's D contradicted what the
    family's structure guarantees."""


class RegisteredPrime(NamedTuple):
    """What register_prime opened for one odd prime, returned to the
    caller and kept by no one: next_hits holds the first index past the
    discovery of each slot opened, see _next_hits."""

    next_hits: list[int]


class FactorizationRecord(NamedTuple):
    """Complete factorization of one element, factors ascending."""

    j: int
    x: int
    n: int
    factors: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Checkpoint:
    j: int
    p_count: int
    d_count: int
    elapsed_seconds: float


@dataclass
class SieveOutput:
    """Prime element values, prime divisors up to the run bound and the
    requested checkpoint rows."""

    p_set: list[int]
    d_set: list[int]
    checkpoints: list[Checkpoint]


def atkin_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending.

    A sieve of Eratosthenes over the odd numbers in a bytearray; the
    name is kept from the quadratic-form (Atkin) sieve it replaced.
    """
    if limit < 2:
        return []
    # flag i stands for the odd number 2*i + 1
    size = (limit + 1) // 2
    flags = bytearray([1]) * size
    flags[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, size, p)))
    return [2, *compress(range(1, limit + 1, 2), flags)]


def _next_hits(p: int, j: int, r: int) -> list[int]:
    """The indices past j at which an odd prime p >= X = 2j + r, first
    seen at index j, next divides an element: j + p, and the dual index
    p - r - j of the other root -X of X**2 == -c (mod p) unless it is j
    (p = X) or j + p (j = r = 0).  A prime p < X raises ValueError.
    """
    dual = p - r - j
    if dual < j:
        raise ValueError(f"prime {p} is below X = {2 * j + r} at index {j}")
    return [j + p] if dual in (j, j + p) else [j + p, dual]


class SieveState:
    """Progression table for one run past the head.

    Slot i is one progression: the prime _prime[i] and the next index
    _next[i] it divides.  due, the head's calendar, maps indices in
    (threshold, j_max] to the primes due there; each (index, prime) pair
    is a slot.  A later prime opens at most two slots and each index
    past the head brings at most one, so the arrays have room for
    2 * (j_max - threshold) more.  Unlike the calendar, registrations
    also open slots due past j_max, which never fire.  The table keeps
    no set of its primes: a prime registered at index j is at least
    X = 2j + r, and an odd prime p >= X that divides N_j divides no
    earlier element, since p | N_j - N_i = 4(j - i)(i + j + r) with both
    factors below p, so it is neither a calendar prime nor an earlier
    registration.  One vectorized comparison per element finds every
    due slot.  The table is the one user of numpy, which it imports
    when it is built, so runs that end inside the head never load it.
    """

    def __init__(self, params: EcParams, j_max: int, due: Mapping[int, list[int]]):
        import numpy as np

        self.params = params
        self.j_max = j_max
        primes = [p for ps in due.values() for p in ps]
        self._size = len(primes)
        slots = self._size + 2 * (j_max - params.j_threshold)
        self._next = np.empty(slots, dtype=np.int64)
        self._prime = np.empty(slots, dtype=np.int64)
        self._next[: self._size] = [k for k, ps in due.items() for _ in ps]
        self._prime[: self._size] = primes

    def register_prime(self, p: int, j_found: int) -> RegisteredPrime:
        """Open a slot at each next hit of an odd prime p first seen at
        index j_found past the head, see _next_hits, whatever that hit: a
        slot due past j_max stays in the scan and never fires.  The
        caller passes a prime seen for the first time, which the table
        does not check: a prime registered twice opens its slots twice.
        """
        next_hits = _next_hits(p, j_found, self.params.r)
        i, end = self._size, self._size + len(next_hits)
        self._next[i:end] = next_hits
        self._prime[i:end] = p
        self._size = end
        return RegisteredPrime(next_hits)

    def pop_due(self, j: int) -> list[int]:
        """The primes of the slots due at index j, in slot order; each of
        those slots moves on to its next hit."""
        due = (self._next[: self._size] == j).nonzero()[0]
        primes = self._prime[due]
        self._next[due] += primes
        return primes.tolist()


def _crosscheck_pairs(params: EcParams) -> None:
    """Check the distinguished sequence pairs' product identity on a
    window of terms before trusting a verified run."""
    for pair in (special_pair_one(params), special_pair_two(params)):
        if pair is None:
            continue
        u_prev, z_prev = pair.terms(-5)
        for n in range(-4, 6):
            u, z = pair.terms(n)
            if u_prev * u_prev + params.c != z_prev * z:
                raise SieveError(
                    f"sequence pair identity fails at term {n - 1} for c = {params.c}"
                )
            u_prev, z_prev = u, z


def _check_d_closed_form(params: EcParams, j_max: int, d_set: list[int]) -> None:
    """Raise SieveError unless d_set, ascending, holds exactly the odd
    primes p <= j_max with (-c)**((p - 1) / 2) != -1 (mod p).

    Those are the odd primes for which -c is a square mod p or p | c,
    the ones with a root class; the first element such a p divides has
    an index below p, and no element is even.
    """
    expected = [
        p for p in atkin_primes(j_max)[1:] if pow(-params.c, (p - 1) // 2, p) != p - 1
    ]
    if d_set != expected:
        first = min(set(d_set) ^ set(expected))
        where = "missing from" if first in expected else "extra in"
        raise SieveError(
            f"prime {first} is {where} D up to {j_max} for c = {params.c}"
        )


def validate_run(params: EcParams, j_max: int, marks: Collection[int] = ()) -> None:
    """Raise ValueError unless 0 <= every mark <= j_max, and OverflowError
    if an element up to j_max leaves the 63-bit range."""
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    element_at(params, j_max)
    if marks and (min(marks) < 0 or max(marks) > j_max):
        raise ValueError(f"checkpoints must lie in [0, {j_max}]")


def factorizations(
    params: EcParams, j_max: int, *, verify: bool = False
) -> Iterator[FactorizationRecord]:
    """Factor every element with index <= j_max, yielding one record per
    element in index order.

    The head, indices up to min(threshold, j_max), is sieved by the root
    classes of the odd primes up to the square root of its last element,
    so each head element is divided by exactly the primes that divide
    it.  Arguments are checked when this is called, not at the first
    record.  A due prime that does not divide its element, a head
    cofactor at or below that square root and a progression-phase
    cofactor below X = 2j + r each raise SieveError.  With verify on,
    the sequence pairs are cross-checked up front and every cofactor is
    confirmed prime with a deterministic test.
    """
    validate_run(params, j_max)
    if verify:
        _crosscheck_pairs(params)
    return _factor_pass(params, j_max, verify)


def _factor(
    j: int, n: int, due: Collection[int], bound: int, verify: bool
) -> tuple[list[tuple[int, int]], int]:
    """Divide n, the element at index j, by each due prime to its full
    power; return the factors ascending, the cofactor left included, and
    that cofactor.

    Every prime up to bound that divides n must be due, so the cofactor
    is 1 or a prime above bound.  A due prime that does not divide n, a
    cofactor > 1 at most bound and, with verify on, a cofactor that is
    not prime each raise SieveError, which ends with the due primes.
    """

    def failure(what: str) -> SieveError:
        primes = ", ".join(map(str, sorted(due))) or "none"
        return SieveError(f"index {j}: {what}; due: {primes}")

    factors = []
    rem = n
    for p in due:
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        if e == 0:
            raise failure(f"prime {p} was due but does not divide {n}")
        factors.append((p, e))
    if rem > 1:
        if rem <= bound:
            raise failure(
                f"cofactor {rem} of {n} is at most {bound}, so a due prime was missed"
            )
        if verify and not is_prime(rem):
            raise failure(f"cofactor {rem} of {n} is not prime")
        factors.append((rem, 1))
    factors.sort()
    return factors, rem


def _factor_pass(
    params: EcParams, j_max: int, verify: bool
) -> Iterator[FactorizationRecord]:
    c, r = params.c, params.r
    head_end = min(params.j_threshold, j_max)
    limit = isqrt(element_at(params, head_end).n)
    # the calendar: each index up to j_max that a known prime divides,
    # with the primes due there
    due: dict[int, list[int]] = {}
    for p in atkin_primes(limit)[1:]:
        classes = _index_classes(params, p, 1)
        if classes is not None:
            for k in classes[1]:
                if k <= j_max:
                    due.setdefault(k, []).append(p)
    for j in range(head_end + 1):
        x = 2 * j + r
        n = x * x + c
        marked = due.pop(j, ())
        # every prime up to limit >= sqrt(n) that divides n is due here
        factors, rem = _factor(j, n, marked, limit, verify)
        for p in marked:
            k = j + p
            if k <= j_max:
                if k in due:
                    due[k].append(p)
                else:
                    due[k] = [p]
        if rem > 1:
            # rem > limit >= X at head_end, so both of its next hits
            # lie past the head
            for k in _next_hits(rem, j, r):
                if k <= j_max:
                    due.setdefault(k, []).append(rem)
        yield FactorizationRecord(j, x, n, tuple(factors))
    if j_max == head_end:
        return
    # the hand-off: the calendar's entries become the table's first slots
    state = SieveState(params, j_max, due)
    for j in range(head_end + 1, j_max + 1):
        x = 2 * j + r
        n = x * x + c
        # A prime p < X dividing N_j also divides an earlier element, at
        # index j mod p or at the dual index p - r - j, so it is due;
        # p == X can only hold when X divides c.
        factors, rem = _factor(j, n, state.pop_due(j), x - 1, verify)
        if rem > 1:
            # A first sighting: _factor has checked that rem >= X, so a
            # prime rem divides no earlier element (see SieveState) and
            # is neither a calendar prime nor an earlier registration.
            # A composite rem is what verify's is_prime rejects, at its
            # own index.
            state.register_prime(rem, j)
        yield FactorizationRecord(j, x, n, tuple(factors))


def run_sieve(
    params: EcParams,
    j_max: int,
    checkpoint_js: Iterable[int] | None = None,
    *,
    on_record: Callable[[FactorizationRecord], object] | None = None,
    verify: bool = False,
) -> SieveOutput:
    """Tally P and D over one pass of factorizations(params, j_max).

    checkpoint_js lists indices after which a (j, |P|, |D|, elapsed)
    row is taken; it defaults to [j_max].  |D| at a checkpoint counts
    the prime divisors seen so far that are <= that checkpoint's index.
    on_record, when given, is called with each record as it passes;
    verify is handed to the pass.  After the pass D is checked against
    its closed form, see _check_d_closed_form.
    """
    marks = {j_max} if checkpoint_js is None else {int(j) for j in checkpoint_js}
    validate_run(params, j_max, marks)
    stream = factorizations(params, j_max, verify=verify)
    p_set: list[int] = []
    d_seen: set[int] = set()
    rows: list[tuple[int, int, float]] = []
    t0 = time.perf_counter()
    for rec in stream:
        j, _, n, factors = rec
        if factors and factors[0][0] == n:
            p_set.append(n)
        for p, _ in factors:
            if p <= j_max:
                d_seen.add(p)
        if on_record is not None:
            on_record(rec)
        if j in marks:
            rows.append((j, len(p_set), time.perf_counter() - t0))
    d_set = sorted(d_seen)
    _check_d_closed_form(params, j_max, d_set)
    # Every element is odd, and an odd prime q dividing N_i divides
    # N_(i mod q) too, so a prime q <= j is first seen at an index below
    # q: the divisors seen by index j that are <= j are all of D up to j.
    checkpoints = [Checkpoint(j, p, bisect_right(d_set, j), t) for j, p, t in rows]
    return SieveOutput(p_set=p_set, d_set=d_set, checkpoints=checkpoints)
