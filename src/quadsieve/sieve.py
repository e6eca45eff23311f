"""Factorization sieve over E_c: one marching loop over the indices.

Elements are processed in index order.  Each is divided, to full
powers, by exactly the primes due at its index, which leaves 1 or one
new prime; the new prime is filed at its next index in each of its root
classes, and each due prime again p indices on.  The head's primes, up
to the parameter threshold, live in a calendar (O'Neill's incremental
sieve): a dict from each index to the primes due there, which _seed
fills with the first index of each class on which X**2 == -c (mod p)
for every odd prime p up to limit, the square root of the last head
element, the way the quadratic sieve treats polynomial values.  It
keeps them to the run's last index and files nothing past it.  A prime first seen past
the head goes to a progression table that starts empty there, so a run
that ends inside the head never builds it and never imports numpy.  Its
slots are (prime, next index) pairs in two columns, the index a 4-byte
int32 that holds j_max + 1 for a hit past the run, and each step
compares every slot once; slots that can no longer fire stay in the
scan.  One bound serves every index, max(limit, X - 1): a cofactor at
or below it means a due prime was missed.  A prime whose classes miss
the head is divided out at its first hit past it instead of being found
there as a new cofactor; the records are the same.

factorizations() is that single pass, yielding one record per element;
run_sieve() tallies P, D and checkpoint rows over it, and the oracle
and the command line consume the same stream.  Its loop body divides,
re-files, checks and builds each record inline.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections.abc import Callable, Collection, Iterable, Iterator
from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import NamedTuple

from .core import EcParams, element_at, is_prime
from .progressions import _index_classes
from .uz import _exact_terms, special_pair_one, special_pair_two

class SieveError(RuntimeError):
    """A factorization step or the run's D contradicted what the
    family's structure guarantees."""


class RegisteredPrime(NamedTuple):
    """What register_prime opened for one odd prime, returned to the
    caller and kept by no one: next_hits holds the first index past the
    discovery of each slot opened, see _next_hits.  The pass ignores
    it; test_pop_due_follows_the_slots_register_prime_opens and the
    benchmark's sieve.register_prime hook read it, which is why it
    stays."""

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
    """Progression table of the primes first seen past the head.

    Slot i is one progression: the prime _prime[i], an int64 since a
    cofactor prime reaches about 4 * j_max**2 + c, and the next index
    _next[i] it divides, an int32.  The table starts empty and only
    register_prime opens slots: at most two per prime, and each index
    past the head brings at most one, so the arrays have room for
    2 * (j_max - threshold).  Unlike the calendar, registrations also
    open slots due past j_max.  Such a slot, like one that moves past
    j_max, holds j_max + 1, an index the loop never reaches: it never
    fires but stays in the scan.  Dropping those dead slots would
    shorten the scan and change the scaling that acceptance criterion 7
    times, which is left open.  Every element up to j_max lies inside
    the 63-bit range, so j_max < 1.6e9 and j_max + 1 fits the int32
    column; a larger j_max raises OverflowError before any column is
    built.  The table keeps no set of its primes: a prime registered at
    index j is at least X = 2j + r, and an odd prime p >= X that divides
    N_j divides no earlier element, since p | N_j - N_i =
    4(j - i)(i + j + r) with both factors below p, so it is neither a
    calendar prime nor an earlier registration.  One vectorized
    comparison per element finds every due slot, and scalar writes move
    each one on.  The table is the one user of numpy, which it imports
    when it is built, so runs that end inside the head never load it.
    """

    def __init__(self, params: EcParams, j_max: int):
        import numpy as np

        # every index the scan compares, j_max + 1 included, is an int32
        if j_max + 1 > np.iinfo(np.int32).max:
            raise OverflowError(f"j_max {j_max} leaves the int32 index column")
        self.params = params
        self.j_max = j_max
        self._size = 0
        slots = 2 * (j_max - params.j_threshold)
        self._next = np.empty(slots, dtype=np.int32)
        self._prime = np.empty(slots, dtype=np.int64)

    def register_prime(self, p: int, j_found: int) -> RegisteredPrime:
        """Open a slot at each next hit of an odd prime p first seen at
        index j_found past the head, see _next_hits, whatever that hit: a
        slot due past j_max is stored at j_max + 1, stays in the scan and
        never fires.  The caller passes a prime seen for the first time,
        which the table does not check: a prime registered twice opens
        its slots twice.
        """
        next_hits = _next_hits(p, j_found, self.params.r)
        i = self._size
        for k in next_hits:
            self._next[i] = min(k, self.j_max + 1)
            self._prime[i] = p
            i += 1
        self._size = i
        return RegisteredPrime(next_hits)

    def pop_due(self, j: int) -> list[int]:
        """The primes of the slots due at index j, in slot order; each of
        those slots moves on to its next hit, or to j_max + 1 past j_max."""
        nxt, prime, stop = self._next, self._prime, self.j_max + 1
        primes = []
        for i in (nxt[: self._size] == j).nonzero()[0].tolist():
            p = prime.item(i)
            nxt[i] = min(j + p, stop)
            primes.append(p)
        return primes


def _crosscheck_pairs(params: EcParams) -> None:
    """Check the distinguished sequence pairs' product identity on the
    terms n = -5..5 before trusting a verified run.

    The identity holds over the integers, so the terms are evaluated
    exactly: at large c they leave the 63-bit range that terms() keeps.
    """
    for pair in (special_pair_one(params), special_pair_two(params)):
        if pair is None:
            continue
        window = [_exact_terms(pair, n) for n in range(-5, 7)]
        for n, ((u, z), (_, z_next)) in enumerate(zip(window, window[1:]), -5):
            if u * u + params.c != z * z_next:
                raise SieveError(
                    f"sequence pair identity fails at term {n} for c = {params.c}"
                )


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
    """Raise ValueError unless every mark is an integer, one whose type
    has __index__ and is not bool, with 0 <= mark <= j_max, and
    OverflowError if an element up to j_max leaves the 63-bit range."""
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    element_at(params, j_max)
    for mark in marks:
        # a bool has __index__ too, but True names no index
        if isinstance(mark, bool) or not hasattr(type(mark), "__index__"):
            raise ValueError(f"checkpoints must be integers, got {mark!r}")
    if marks and (min(marks) < 0 or max(marks) > j_max):
        raise ValueError(f"checkpoints must lie in [0, {j_max}]")


def factorizations(
    params: EcParams, j_max: int, *, verify: bool = False
) -> Iterator[FactorizationRecord]:
    """Factor every element with index <= j_max, yielding one record per
    element in index order.

    Each element is divided, to full powers, by exactly the primes due
    at its index: in the head, indices up to min(threshold, j_max), the
    odd primes up to limit, the square root of its last element, through
    their root classes; past it also the primes of the progressions met
    so far.  Arguments are checked when this is called, not at the first
    record.  A due prime that does not divide its element, a cofactor at
    or below max(limit, X - 1) with X = 2j + r, and a whole element that
    fails a base-2 Fermat test each raise SieveError, whose message ends
    with the primes due there, ascending, as in "; due: 5, 13".  With
    verify on, the sequence pairs are cross-checked up front and every
    cofactor is confirmed prime with a deterministic test instead of the
    Fermat test.
    """
    validate_run(params, j_max)
    if verify:
        _crosscheck_pairs(params)
    return _factor_pass(params, j_max, verify)


def _failure(j: int, due: Iterable[int], what: str) -> SieveError:
    """The factor-step error at index j: what went wrong, then the
    primes due there, ascending."""
    primes = ", ".join(map(str, sorted(due))) or "none"
    return SieveError(f"index {j}: {what}; due: {primes}")


def _file(
    due: dict[int, list[int]], indices: Iterable[int], p: int, j_max: int
) -> None:
    """File prime p in the calendar at each of indices up to j_max."""
    for k in indices:
        if k <= j_max:
            due.setdefault(k, []).append(p)


def _seed(params: EcParams, limit: int, j_max: int) -> dict[int, list[int]]:
    """The calendar a pass starts from: each index k <= j_max mapped to
    the odd primes p <= limit, ascending, with k < p and p | N_k, that
    is each such prime at the first index of each of its root classes."""
    due: dict[int, list[int]] = {}
    for p in atkin_primes(limit)[1:]:
        classes = _index_classes(params, p, 1)
        if classes is not None:
            _file(due, classes[1], p, j_max)
    return due


def _factor_pass(
    params: EcParams, j_max: int, verify: bool
) -> Iterator[FactorizationRecord]:
    """The pass behind factorizations(), from the calendar _seed builds.
    Each element is divided by each due prime to its full power, and
    each calendar prime is filed again p indices on.  What is left is 1
    or a new prime above the bound, filed at its next hits: in the
    calendar up to the head's end, in the progression table past it."""
    c, r = params.c, params.r
    head_end = min(params.j_threshold, j_max)
    limit = isqrt(element_at(params, head_end).n)
    due = _seed(params, limit, j_max)
    state: SieveState | None = None
    # builds a FactorizationRecord without the Python-level __new__ that
    # a NamedTuple's constructor runs
    record = tuple.__new__
    for j in range(j_max + 1):
        if j == head_end + 1:
            state = SieveState(params, j_max)
        x = 2 * j + r
        n = x * x + c
        filed = due.pop(j, ())
        if state is None:
            marked = filed
        else:
            marked = state.pop_due(j)
            marked += filed
        factors = []
        rem = n
        for p in marked:
            if rem % p:
                raise _failure(j, marked, f"prime {p} was due but does not divide {n}")
            rem //= p
            e = 1
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
        for p in filed:
            if j + p <= j_max:
                due.setdefault(j + p, []).append(p)
        if rem > 1:
            # Every prime up to the bound max(limit, X - 1) that divides n
            # is due.  In the head the bound is limit >= sqrt(n).  Past it,
            # where c < 4 * X_head_end + 4 gives limit <= X - 1, it is
            # X - 1: a prime p < X dividing N_j also divides an earlier
            # element, at index j mod p or at the dual index p - r - j
            # (p == X only when X divides c).
            if rem <= limit or rem < x:
                bound = max(limit, x - 1)
                what = f"cofactor {rem} of {n} is at most {bound}, so a due prime was missed"
                raise _failure(j, marked, what)
            # With verify on every cofactor gets a deterministic test;
            # without it only a whole element, which P would count, gets
            # a base-2 Fermat test.
            if verify:
                if not is_prime(rem):
                    raise _failure(j, marked, f"cofactor {rem} of {n} is not prime")
            elif rem == n and pow(2, n - 1, n) != 1:
                raise _failure(
                    j, marked, f"cofactor {n} of {n} fails the base-2 Fermat test"
                )
            factors.append((rem, 1))
            # A first sighting: rem > bound >= X - 1 and, if prime, it
            # divides no earlier element (see SieveState).
            if state is None:
                # the dual index rem - r - j is the nearer next hit
                if rem - r - j <= j_max:
                    _file(due, _next_hits(rem, j, r), rem, j_max)
            else:
                state.register_prime(rem, j)
        factors.sort()
        yield record(FactorizationRecord, (j, x, n, tuple(factors)))


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
    marks = {j_max} if checkpoint_js is None else set(checkpoint_js)
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
