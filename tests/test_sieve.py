import hashlib
import random
import tracemalloc
from math import isqrt

import numpy as np
import pytest

import quadsieve
from quadsieve import (
    INT63_MAX,
    SieveError,
    atkin_primes,
    brute_sets,
    element_at,
    factorizations,
    is_prime,
    make_params,
    run_sieve,
    sieve,
    trial_factor,
    uz,
)
from quadsieve.cli import render_factors
from quadsieve.sieve import SieveState
from reference import eratosthenes


def test_atkin_edges():
    assert atkin_primes(0) == []
    assert atkin_primes(1) == []
    assert atkin_primes(2) == [2]
    assert atkin_primes(3) == [2, 3]
    assert atkin_primes(4) == [2, 3]
    assert atkin_primes(25) == [2, 3, 5, 7, 11, 13, 17, 19, 23]


def test_atkin_matches_classic_sieve():
    for limit in (5, 6, 7, 29, 30, 31, 97, 1000, 1024, 9973, 10000):
        assert atkin_primes(limit) == eratosthenes(limit), limit


def test_run_c1_small():
    out = run_sieve(make_params(1), 10)
    assert out.p_set == [5, 17, 37, 101, 197, 257, 401]
    assert out.d_set == [5]


def test_run_c3_small():
    out = run_sieve(make_params(3), 10)
    assert out.p_set == [3, 7, 19, 67, 103, 199]
    assert out.d_set == [3, 7]


def test_unit_element_joins_neither_set():
    out = run_sieve(make_params(1), 0)
    records = list(factorizations(make_params(1), 0))
    assert out.p_set == [] and out.d_set == []
    assert records[0].factors == ()


def _inject(monkeypatch, name, edit):
    # sieve.<name>(*args) returns edit(args, what it returned)
    real = getattr(sieve, name)
    monkeypatch.setattr(sieve, name, lambda *args: edit(args, real(*args)))


def _calendar(change):
    # a _seed edit: the pass pops the primes due at index j from the
    # calendar _seed returns, and change(j, primes) edits what it pops there
    class Calendar(dict):
        def pop(self, j, *default):
            return change(j, list(super().pop(j, *default)))

    return lambda args, due: Calendar(due)


def _drop(j, p):
    # a _seed edit: the calendar loses prime p at index j
    return _calendar(lambda i, primes: [q for q in primes if (i, q) != (j, p)])


def _add_3(j):
    # a _seed edit: 3 is due at index j, which lies past the head
    def edit(args, due):
        assert j > args[0].j_threshold
        return _calendar(lambda i, primes: primes + [3] if i == j else primes)(args, due)

    return edit


def _lose_hits(p, *lost):
    # a _next_hits edit: prime p, at its first sighting, loses the hits in lost
    return lambda args, hits: [k for k in hits if args[0] != p or k not in lost]


def _classes_of_5(change):
    # an _index_classes edit: change(classes) edits the index classes of 5
    return lambda args, found: (found[0], change(found[1])) if args[1] == 5 else found


# each row: (seam, edit, c, J, verify, the SieveError text, or None for a
# run whose P and D still equal brute_sets)
GUARD_FAULTS = {
    # at c = 1, 5 first seen at N_1 with no next hits leaves
    # N_4 = 65 = 5 * 13 whole, and P would count it: the base-2 Fermat
    # test stops a plain run there
    "5-loses-its-hits": ("_next_hits", _lose_hits(5, 4, 6), 1, 19, False,
        "index 4: cofactor 65 of 65 fails the base-2 Fermat test; due: none"),
    # at c = 61, dropping 5 at index 16 alone leaves it as the whole
    # cofactor of N_16 = 1085 = 5 * 7 * 31, below the bound
    # max(isqrt(N_15), X - 1) = 31, with 7 and 31 due there
    "calendar-drops-5-at-16": ("_seed", _drop(16, 5), 61, 20, False,
        "index 16: cofactor 5 of 1085 is at most 31, so a due prime was missed; due: 7, 31"),
    # at c = 34, J_c = 8 and limit = isqrt(N_8) = 17; 19, first seen as
    # the cofactor of N_8 = 17 * 19, is due at its dual index 10, where
    # N_10 = 475 = 5^2 * 19 and 19 = X - 2 sits just under the bound
    # X - 1 = 20 past the head
    "calendar-drops-19-at-10": ("_seed", _drop(10, 19), 34, 20, False,
        "index 10: cofactor 19 of 475 is at most 20, so a due prime was missed; due: 5"),
    # at c = 1, N_15 = 30^2 + 1 = 901 = 17 * 53, and 15 is the dual
    # index of 17, first seen at N_2; without it the cofactor 901 passes
    # the bound X - 1 = 29, and P would count it, so the primality test
    # stops a verified run and the base-2 Fermat test a plain one at once
    "17-loses-15-verify": ("_next_hits", _lose_hits(17, 15), 1, 20, True,
        "index 15: cofactor 901 of 901 is not prime; due: none"),
    **{f"17-loses-15-plain-{j_max}": ("_next_hits", _lose_hits(17, 15), 1, j_max, False,
        "index 15: cofactor 901 of 901 fails the base-2 Fermat test; due: none")
       for j_max in (20, 100)},
    # at c = 81, N_24 = 48^2 + 81 = 2385 = 3^2 * 5 * 53: without the
    # calendar's 3 the cofactor 477 is not the whole element, so a plain
    # run files it as a prime and hides 53, with P and D still right,
    # until 53 is left as the cofactor of N_29 = 5 * 13 * 53, below
    # X - 1 = 57
    "calendar-drops-3-at-24-verify": ("_seed", _drop(24, 3), 81, 28, True,
        "index 24: cofactor 477 of 2385 is not prime; due: 5"),
    "calendar-drops-3-at-24-plain-28": ("_seed", _drop(24, 3), 81, 28, False, None),
    "calendar-drops-3-at-24-plain-29": ("_seed", _drop(24, 3), 81, 29, False,
        "index 29: cofactor 53 of 3445 is at most 57, so a due prime was missed; due: 5, 13"),
    # for c = 61 the multiples of 5 sit at j == 1, 4 (mod 5); moving the
    # second class to 0 marks 5 at N_0 = 61
    "class-of-5-moved-to-0": ("_index_classes", _classes_of_5(lambda cls: (cls[0], 0)),
        61, 15, False, "index 0: prime 5 was due but does not divide 61; due: 5"),
    # dropping the class j == 4 (mod 5) leaves N_4 = 125 whole, which
    # the base-2 Fermat test catches without verify and the primality
    # test with it
    "first-class-of-5-only-plain": ("_index_classes", _classes_of_5(lambda cls: cls[:1]),
        61, 15, False, "index 4: cofactor 125 of 125 fails the base-2 Fermat test; due: none"),
    "first-class-of-5-only-verify": ("_index_classes", _classes_of_5(lambda cls: cls[:1]),
        61, 15, True, "index 4: cofactor 125 of 125 is not prime; due: none"),
    # dropping the class j == 1 (mod 5) instead leaves 5 alone of
    # N_1 = 65 = 5 * 13, below the square root bound isqrt(N_15) = 31
    "second-class-of-5-only": ("_index_classes", _classes_of_5(lambda cls: cls[1:]), 61, 15,
        False, "index 1: cofactor 5 of 65 is at most 31, so a due prime was missed; due: 13"),
    # J_c = 0: 5, first seen at N_1, divides N_4 = 65 = 5 * 13, the
    # added 3 does not divide the 13 left, and the due primes are sorted
    "calendar-adds-3-at-4": ("_seed", _add_3(4), 1, 14, False,
        "index 4: prime 3 was due but does not divide 65; due: 3, 5"),
    # J_c = 15: the added 3 comes before the calendar's 11 that
    # divides N_20 = 1661 = 11 * 151, and both are named
    "calendar-adds-3-at-20": ("_seed", _add_3(20), 61, 30, False,
        "index 20: prime 3 was due but does not divide 1661; due: 3, 11"),
    # every run checks D against its closed form: a prime table without 13
    # leaves the c = 1 head (N_0 = 1) as it is but makes the 13 in D extra
    "atkin-primes-lose-13": ("atkin_primes", lambda args, ps: [p for p in ps if p != 13],
        1, 20, False, "prime 13 is extra in D up to 20 for c = 1"),
}


@pytest.mark.parametrize("fault", GUARD_FAULTS.values(), ids=list(GUARD_FAULTS))
def test_each_guard_stops_its_injected_fault(monkeypatch, fault):
    name, edit, c, j_max, verify, message = fault
    _inject(monkeypatch, name, edit)
    if message is None:
        out = run_sieve(make_params(c), j_max, verify=verify)
        assert (out.p_set, out.d_set) == brute_sets(make_params(c), j_max)
        return
    with pytest.raises(SieveError) as err:
        run_sieve(make_params(c), j_max, verify=verify)
    assert str(err.value) == message


def test_next_hits_are_the_first_index_past_j_in_each_class():
    for c in (1, 4, 61, 80002):
        params = make_params(c)
        for p in atkin_primes(2000)[1:]:
            classes = sieve._index_classes(params, p, 1)
            if classes is None:
                continue
            for j in classes[1]:
                if 2 * j + params.r > p:
                    continue
                hits = sieve._next_hits(p, j, params.r)
                first = [j + 1 + (rho - j - 1) % p for rho in classes[1]]
                assert sorted(hits) == sorted(first), (c, p, j)
                assert hits[0] == j + p
                if c % p == 0:
                    assert len(hits) == 1, (c, p, j)
    assert sieve._next_hits(61, 0, 0) == [61]


def test_seed_files_each_prime_at_the_first_index_of_its_classes():
    # the calendar a pass starts from, by brute force: each index
    # k <= J holds the odd primes p <= limit with k < p and p | N_k,
    # ascending, for J = min(J_c, 2000) and limit = isqrt(N_J)
    for c in [*range(1, 151), 4 * 5**8, 7**2 * 11**2 * 13]:
        params = make_params(c)
        j_max = min(params.j_threshold, 2000)
        limit = isqrt(element_at(params, j_max).n)
        ns = [element_at(params, k).n for k in range(j_max + 1)]
        expected = {}
        for p in eratosthenes(limit)[1:]:
            for k in range(min(p, j_max + 1)):
                if ns[k] % p == 0:
                    expected.setdefault(k, []).append(p)
        assert sieve._seed(params, limit, j_max) == expected, c


def test_every_registration_is_a_first_sighting(monkeypatch):
    # the pass keeps no set of the primes it has seen: each prime first
    # seen at index j is at least X = 2j + r, so it divides no earlier
    # element and is neither a seeded prime nor an earlier sighting.  Its
    # next hit other than j + p is the index of U_1 in the pair with
    # U_0 = X and Z_1 = p, the paper's step U_1 = 2 Z_1 - U_0
    seeded, sighted = set(), []
    _inject(monkeypatch, "_seed", lambda args, due: seeded.update(*due.values()) or due)
    _inject(monkeypatch, "_next_hits",
            lambda args, hits: sighted.append((*args[:2], hits)) or hits)
    cases = [(c, make_params(c).j_threshold + 40) for c in range(1, 200)]
    cases += [(c, 3000) for c in (1, 4, 61)]
    sightings = 0
    for c, j_max in cases:
        params = make_params(c)
        list(factorizations(params, j_max))
        primes = [p for p, _, _ in sighted]
        assert len(set(primes)) == len(primes), c
        assert seeded.isdisjoint(primes), c
        for p, j, hits in sighted:
            x = 2 * j + params.r
            assert p >= x, (c, p, j)
            u1, z1 = uz._pair(c, x, (x * x + c) // p).terms(1)
            assert z1 == p and u1 == 2 * p - x, (c, p, j)
            assert all(k == j + p or 2 * k + params.r == u1 for k in hits), (c, p, j)
            if j_max <= 300:
                earlier = (element_at(params, i).n for i in range(j))
                assert all(n % p for n in earlier), (c, p, j)
        sightings += len(sighted)
        seeded.clear()
        sighted.clear()
    assert sightings


def test_registration_keeps_no_python_objects():
    # a registration writes its slots into the arrays and nothing else:
    # a set of registered primes would grow the heap by about 100 B each
    st = SieveState(make_params(1), 50000)
    primes = atkin_primes(300000)[1:20001]
    assert len(primes) == 20000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for j, p in enumerate(primes, 1):
            st.register_prime(p, j)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < len(primes), grown


def _slot_schedule(params, registrations, j_max, lo=0):
    # registers each (p, j_found) in a fresh table, which must report
    # _next_hits and pop at each j in [lo, j_max], in slot order, the
    # primes of the slots with first hit f <= j and p | j - f
    st = SieveState(params, j_max)
    records = [st.register_prime(p, j_found) for p, j_found in registrations]
    hits = [sieve._next_hits(p, j_found, params.r) for p, j_found in registrations]
    assert [rec.next_hits for rec in records] == hits
    slots = [(p, f) for (p, _), fs in zip(registrations, hits) for f in fs]
    expected = {j: [] for j in range(lo, j_max + 1)}
    for p, first in slots:
        for j in range(first, j_max + 1, p):
            if j >= lo:
                expected[j].append(p)
    popped = {j: st.pop_due(j) for j in range(lo, j_max + 1)}
    assert popped == expected
    return records, popped


@pytest.mark.parametrize(
    "scenario", ["examples", "live", "past-j-max-1", "past-j-max-4", "past-int32"]
)
def test_pop_due_follows_the_slots_register_prime_opens(scenario):
    if scenario == "examples":
        # 5, first seen at N_1 = 5 for c = 1, is due at 6 and its dual 4;
        # first seen at N_0 = 5, at 5 and 4 for c = 4, at 5 alone for c = 5
        for c, j_found, hits in ((1, 1, [6, 4]), (5, 0, [5]), (4, 0, [5, 4])):
            (rec,), _ = _slot_schedule(make_params(c), [(5, j_found)], 100)
            assert rec.next_hits == hits, c
        with pytest.raises(ValueError, match="prime 5 is below X = 6 at index 3"):
            SieveState(make_params(1), 100).register_prime(5, 3)
    elif scenario == "past-int32":
        # c = 4e9 + 1 has its head up to index 1e9, so a run to 1e9 + 100
        # stays inside 63 bits; a prime first seen just past the head fires
        # at its dual index and then moves to j + p, past 2**31
        params = make_params(4 * 10**9 + 1)
        j_max = params.j_threshold + 100
        element_at(params, j_max)
        j_found = params.j_threshold + 1
        p = next(q for q in range(2 * j_found + 1, 2 * j_found + 1000, 2) if is_prime(q))
        (rec,), _ = _slot_schedule(params, [(p, j_found)], j_max, lo=j_found + 1)
        dual = rec.next_hits[1]
        assert dual <= j_max < 2**31 < dual + p
    else:
        # shuffled live primes, each at its smaller class index (the only
        # one with 2j + r <= p; at c = 4, r = 1 and the dual is not j), and
        # for past-j-max primes seen at random indices whose slots lie past
        # the bound, up to 2**63: they keep their place in the scan, unfired
        c = 4 if scenario == "live" else int(scenario[-1])
        limit, seed = (30000, 17) if scenario == "live" else (4000, c)
        params = make_params(c)
        live = [(p, cls[1]) for p in atkin_primes(limit)[1:]
                if (cls := sieve._index_classes(params, p, 1))][:1200]
        bound = 3 * max(p for p, _ in live)
        starts = (bound + 1000, bound + 5000, 2**31, 2**32)
        past = [next(q for q in range(n | 1, n + 1000, 2) if is_prime(q)) for n in starts]
        past = [] if scenario == "live" else past + [2**31 - 1, 2**63 - 25]
        assert all(is_prime(q) for q in past)
        rng = random.Random(seed)
        order = live + [(q, None) for q in past]
        rng.shuffle(order)
        found = [(p, rng.randrange(50) if cls is None else cls[0]) for p, cls in order]
        records, popped = _slot_schedule(params, found, bound)
        for (p, cls), (_, j_found), rec in zip(order, found, records):
            # the first hit is the class's first index past the discovery
            assert rec.next_hits[0] == j_found + p
            assert all(j_found < first <= j_found + p for first in rec.next_hits)
            assert cls is None or tuple(sorted(h % p for h in rec.next_hits)) == cls
            assert cls is not None or min(rec.next_hits) > bound
        for j, due in popped.items():
            assert all(p in popped[j + p] for p in due if j + p <= bound)
        assert not set(past) & {p for due in popped.values() for p in due}


def test_element_at_overflows_before_the_int32_index_column():
    # the table stores j_max + 1 in an int32, and no run that stays in
    # the 63-bit range gets near it: element_at refuses j = 2**31 - 2
    for c in (1, INT63_MAX):
        with pytest.raises(OverflowError):
            element_at(make_params(c), 2**31 - 2)


def test_records_on_the_grid_are_pinned():
    # sha256 over one line per record on a grid of 210 runs: every c up
    # to 199 just past its head, long progression phases, a long head,
    # square-heavy and large c; verify on for c divisible by 3
    cases = [(c, make_params(c).j_threshold + 40) for c in range(1, 200)]
    cases += [(c, 3000) for c in (1, 3, 4, 61)]
    cases += [(80002, 20300)]
    cases += [(c, 2000) for c in (3**12, 10**9 + 7, 4 * 5**8, 7**2 * 11**2 * 13, 9 * 2**20)]
    cases += [(2**40 + 1, 300)]
    digest = hashlib.sha256()
    for c, j_max in cases:
        for j, x, n, factors in factorizations(make_params(c), j_max, verify=c % 3 == 0):
            digest.update(f"{c},{j},{x},{n},{render_factors(factors)}\n".encode())
    assert digest.hexdigest() == (
        "52d7558951f3d521cf7c45980365cca4f9d85b9572a6e590cdd542bc95b23c9e"
    )


def test_one_cofactor_bound_serves_both_phases():
    # the pass bounds a cofactor by max(limit, X - 1), limit the square
    # root of the head's last element N_J at J = J_c: limit >= X there,
    # and limit <= X + 1, the next index's X - 1, since c < 4 * X + 4
    for c in [*range(1, 10**5 + 1), *range(2**62 - 200, 2**62)]:
        params = make_params(c)
        x = 2 * params.j_threshold + params.r
        assert x <= isqrt(x * x + c) <= x + 1, c


def test_one_new_prime_at_a_time_past_threshold():
    for c in (1, 3, 4, 61):
        params = make_params(c)
        records = list(factorizations(params, 2000))
        seen = set()
        for rec in records:
            fresh = [(p, e) for p, e in rec.factors if p not in seen]
            if rec.j > params.j_threshold:
                assert len(fresh) <= 1, (c, rec.j)
                for p, e in fresh:
                    assert e == 1, (c, rec.j, p)
            seen.update(p for p, _ in rec.factors)


def test_progression_prediction_is_complete():
    # each prime divides exactly the elements its recorded residues
    # predict, across the whole checked range
    for c in (1, 3, 4):
        params = make_params(c)
        records = list(factorizations(params, 2000))
        first_seen = {}
        for rec in records:
            for p, _ in rec.factors:
                first_seen.setdefault(p, rec.j)
        for p, j0 in first_seen.items():
            if p > 2000:
                continue
            residues = {j0 % p, (p - params.r - j0) % p}
            for rec in records:
                assert (rec.n % p == 0) == (rec.j % p in residues), (c, p, rec.j)


def test_checkpoints_sorted_and_monotone():
    out = run_sieve(make_params(1), 2000, [0, 1, 500, 1000, 2000])
    js = [cp.j for cp in out.checkpoints]
    assert js == [0, 1, 500, 1000, 2000]
    for a, b in zip(out.checkpoints, out.checkpoints[1:]):
        assert a.p_count <= b.p_count
        assert a.d_count <= b.d_count
        assert a.elapsed_seconds <= b.elapsed_seconds
    # any integer type with __index__ names a checkpoint
    assert run_sieve(make_params(1), 10, [np.int64(5)]).checkpoints[0].j == 5


def test_checkpoint_counts_match_shorter_run():
    long = run_sieve(make_params(1), 1000, [400, 1000])
    short = run_sieve(make_params(1), 400)
    assert long.checkpoints[0].p_count == short.checkpoints[0].p_count
    assert long.checkpoints[0].d_count == short.checkpoints[0].d_count
    for c in (1, 4, 61):
        params = make_params(c)
        out = run_sieve(params, 600, [0, 1, 14, 15, 60, 61, 62, 250, 599, 600])
        assert len(out.checkpoints) == 10
        for cp in out.checkpoints:
            p_set, d_set = brute_sets(params, cp.j)
            assert (cp.p_count, cp.d_count) == (len(p_set), len(d_set)), (c, cp.j)


def test_stream_checks_arguments_when_called(monkeypatch):
    # the up-front pair cross-check of a verified run fails the call
    # itself, before any record is pulled, as its argument checks do
    # (test_refusals.py)
    _inject(monkeypatch, "_exact_terms", lambda args, uz: (uz[0] + (args[1] == 2), uz[1]))
    with pytest.raises(SieveError, match="sequence pair identity fails at term 2 for c = 15"):
        factorizations(make_params(15), 10, verify=True)


def test_on_record_sees_the_stream():
    params = make_params(61)
    seen = []
    out = run_sieve(params, 300, on_record=seen.append)
    assert seen == list(factorizations(params, 300))
    assert out.p_set == [rec.n for rec in seen if rec.factors == ((rec.n, 1),)]


def test_verify_mode_matches_plain_run():
    for c in (1, 15):
        plain = run_sieve(make_params(c), 500)
        checked = run_sieve(make_params(c), 500, verify=True)
        assert plain.p_set == checked.p_set
        assert plain.d_set == checked.d_set
        assert list(factorizations(make_params(c), 500)) == list(
            factorizations(make_params(c), 500, verify=True)
        )


@pytest.mark.parametrize("c", [2**62 - 1, 10**18 + 15])
def test_verify_checks_pairs_whose_terms_leave_63_bits(c):
    # the special pairs' terms at n = -5..5 exceed 2**63 here, yet the
    # product identity holds and every element in range must stay usable;
    # the records are not drawn, as the head would seed every prime < 2**31
    factorizations(make_params(c), 0, verify=True)


def test_d_set_bounded_by_run_length():
    out = run_sieve(make_params(1), 10)
    # 13 divides the element at j = 4 but exceeds the bound
    assert 13 not in out.d_set
    out = run_sieve(make_params(1), 13)
    assert 13 in out.d_set


def test_head_sieve_matches_trial_division():
    # the square-heavy c and the c near 10**9 have heads longer than the
    # range factored here
    cases = [(c, (c - 1) // 4) for c in range(1, 301)]
    cases += [(3**12, 1000), (4 * 5**8, 1000), (7**2 * 11**2 * 13, 1000)]
    cases += [(10**9 + 7, 2000)]
    for c, j_max in cases:
        params = make_params(c)
        assert j_max <= params.j_threshold
        for rec in factorizations(params, j_max):
            expected = tuple(trial_factor(rec.n)) if rec.n > 1 else ()
            assert rec.factors == expected, (c, rec.j)


def test_d_set_matches_closed_form():
    # D holds the odd primes p <= J with (-c)^((p-1)/2) != -1 (mod p)
    odd_primes = eratosthenes(3000)[1:]
    for c in [*range(1, 151), 1000, 4096, 9999, 80002, 123456]:
        expected = [p for p in odd_primes if pow(-c, (p - 1) // 2, p) != p - 1]
        assert run_sieve(make_params(c), 3000).d_set == expected, c


def test_d_closed_form_check_names_the_first_wrong_prime():
    params = make_params(1)
    sieve._check_d_closed_form(params, 20, [5, 13, 17])
    with pytest.raises(SieveError, match="prime 13 is missing from D up to 20 for c = 1"):
        sieve._check_d_closed_form(params, 20, [5, 17])
    with pytest.raises(SieveError, match="prime 3 is extra in D up to 20 for c = 1"):
        sieve._check_d_closed_form(params, 20, [3, 5, 13, 17])


def test_hand_off_to_the_progression_phase_matches_trial_division(monkeypatch):
    # the records around J_c, where the bound passes from the head's
    # limit to X - 1; for c = 61 the head cofactor 61 at j = 0 is its
    # own dual and is filed once, at 61.  The calendar keeps its primes
    # to J and no key past it, so the run leaves the dict _seed built
    # empty.
    calendars = []
    _inject(monkeypatch, "_seed", lambda args, due: calendars.append(due) or due)
    for c in (61, 80002, 4 * 10**5 + 2, 3**12):
        params = make_params(c)
        j_c = params.j_threshold
        for rec in factorizations(params, j_c + 500):
            if rec.j >= j_c - 100:
                assert rec.factors == tuple(trial_factor(rec.n)), (c, rec.j)
        assert calendars == [{}], c
        calendars.clear()


def test_every_table_slot_comes_from_register_prime(monkeypatch):
    # pins the progression table, private to the sieve and not package
    # API, and goes with it in stage B.  The table is built once, empty,
    # at J_c + 1: its slots are exactly those its registrations report,
    # and it has room for two per index past J_c
    tables, opened, seen = [], [], []
    init, register = SieveState.__init__, SieveState.register_prime

    def spy_init(self, params, j_max):
        tables.append((self, params, j_max, len(seen)))
        init(self, params, j_max)

    def spy_register(self, p, j_found):
        rec = register(self, p, j_found)
        opened.append(len(rec.next_hits))
        return rec

    assert not {"SieveState", "RegisteredPrime"} & {*quadsieve.__all__, *dir(quadsieve)}
    monkeypatch.setattr(SieveState, "__init__", spy_init)
    monkeypatch.setattr(SieveState, "register_prime", spy_register)
    for c in (61, 80002, 4 * 10**5 + 2):
        params = make_params(c)
        j_c = params.j_threshold
        for rec in factorizations(params, j_c + 300):
            seen.append(rec.j)
        ((table, *built),) = tables
        assert built == [params, j_c + 300, j_c + 1], c
        assert opened and table._size == sum(opened), c
        assert len(table._next) == len(table._prime) == 2 * 300, c
        tables.clear()
        opened.clear()
        seen.clear()


def test_run_inside_the_head_builds_no_schedule(monkeypatch):
    # a run that ends inside the head files no new prime: each cofactor
    # there is above limit >= X, so its dual index lies past J
    sighted = []
    _inject(monkeypatch, "_next_hits", lambda args, hits: sighted.append(args[0]) or hits)
    out = run_sieve(make_params(80002), 20000)
    assert (len(out.p_set), len(out.d_set)) == (2818, 1158)
    assert sighted == []
    run_sieve(make_params(80002), 20100)
    assert sighted
