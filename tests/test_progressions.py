import math
import random
import time

import pytest

from quadsieve import (
    INT63_MAX,
    dual_for_prime,
    dual_for_prime_power,
    first_occurrence,
    is_prime,
    lift_solutions,
    make_params,
    power_plan,
    sequence_exists,
)
from quadsieve.progressions import _sqrt_mod_prime
from reference import brute_hit_indices

ODD_PRIMES_50 = [p for p in range(3, 50, 2) if is_prime(p)]


def test_first_occurrence_examples():
    hit = first_occurrence(make_params(1), 5)
    assert (hit.x0, hit.j0, hit.cofactor_b) == (2, 1, 1)
    assert first_occurrence(make_params(1), 3) is None
    hit = first_occurrence(make_params(61), 961)
    assert (hit.x0, hit.j0, hit.cofactor_b) == (30, 15, 1)


def test_sequence_exists_examples():
    p1 = make_params(1)
    assert sequence_exists(p1, 1, first_occurrence(p1, 5))
    p2 = make_params(2)
    hit = first_occurrence(p2, 9)
    assert hit.x0 == 5
    assert not sequence_exists(p2, 3, hit)
    p25 = make_params(25)
    hit = first_occurrence(p25, 25)
    assert hit.x0 == 0
    assert sequence_exists(p25, 5, hit)


def test_dual_for_prime_examples():
    dp = dual_for_prime(make_params(1), 5)
    assert (dp.difference, dp.residues, dp.self_dual) == (5, (1, 4), False)
    dp = dual_for_prime(make_params(5), 5)
    assert (dp.residues, dp.self_dual) == ((0,), True)
    dp = dual_for_prime(make_params(1), 13)
    assert dp.residues == (4, 9)


def test_dual_for_prime_power_examples():
    dp = dual_for_prime_power(make_params(1), 5, 2)
    assert (dp.difference, dp.residues) == (25, (9, 16))
    dp = dual_for_prime_power(make_params(25), 5, 2)
    assert (dp.difference, dp.residues, dp.self_dual) == (5, (0,), True)
    assert dual_for_prime_power(make_params(3), 5, 1) is None


def test_dual_for_prime_power_reduced_family():
    # c = 18 = 2 * 3^2: the cube 27 rides the reduced c = 2 family
    dp = dual_for_prime_power(make_params(18), 3, 3)
    assert (dp.difference, dp.residues) == (9, (1, 7))
    # odd valuation leaves no room for the power
    assert dual_for_prime_power(make_params(3), 3, 2) is None


def test_power_plan_fields():
    plan = power_plan(make_params(1), 5, 2)
    assert (plan.val_x0, plan.split, plan.val_c) == (0, 0, 0)
    plan = power_plan(make_params(25), 5, 2)
    assert plan.val_x0 == float("inf")
    assert (plan.split, plan.val_c) == (1, 2)


def test_power_plan_split_zero_when_p_coprime_to_c():
    for c in range(1, 30):
        for p in (3, 5, 7):
            if c % p == 0:
                continue
            for alpha in (1, 2, 3):
                plan = power_plan(make_params(c), p, alpha)
                if plan is None:
                    continue
                assert plan.split == 0
                assert plan.split == min(plan.val_x0, alpha // 2)


def test_first_occurrence_bound_and_equality_cases():
    # equality at the bound needs p^alpha | c+1 for odd c, and p | c with
    # alpha = 1 for even c; a higher power of a divisor of even c first
    # appears at the much earlier index (p^ceil(alpha/2) - 1) / 2
    prime_powers = [
        (p, a)
        for p in range(3, 200, 2)
        if is_prime(p)
        for a in (1, 2, 3, 4)
        if p**a <= 200
    ]
    for c in range(1, 101):
        params = make_params(c)
        for p, alpha in prime_powers:
            modulus = p**alpha
            hit = first_occurrence(params, modulus)
            if hit is None:
                continue
            bound = (modulus - 1) // 2
            assert hit.j0 <= bound
            at_edge = (c % 2 == 0 and c % modulus == 0 and alpha == 1) or (
                c % 2 == 1 and (c + 1) % modulus == 0
            )
            assert (hit.j0 == bound) == at_edge, (c, modulus)


def test_first_occurrence_of_squared_divisor_of_even_c():
    # 9 | 18 but the first element divisible by 9 sits at j = 1 (27 = 9*3),
    # far below the single-prime bound (9 - 1) / 2
    hit = first_occurrence(make_params(18), 9)
    assert (hit.x0, hit.j0, hit.cofactor_b) == (3, 1, 3)
    for c, p, alpha in [(18, 3, 2), (50, 5, 2), (54, 3, 3), (98, 7, 2)]:
        assert c % p**alpha == 0
        hit = first_occurrence(make_params(c), p**alpha)
        half = p ** ((alpha + 1) // 2)
        assert hit.j0 == (half - 1) // 2, (c, p, alpha)


def test_power_escalation():
    # once p^alpha divides some element without dividing c, so does p^(alpha+1)
    for c in range(1, 30):
        params = make_params(c)
        for p in (3, 5, 7, 11):
            for alpha in (1, 2):
                modulus = p**alpha
                if c % modulus == 0:
                    continue
                if dual_for_prime_power(params, p, alpha) is None:
                    continue
                lifted = brute_hit_indices(c, modulus * p, modulus * p)
                assert lifted, (c, p, alpha)


def test_lift_solutions_examples():
    p1 = make_params(1)
    sol = lift_solutions(p1, 5, 1, first_occurrence(p1, 5))
    assert (sol.k_offset, sol.k_base) == (1, 3)
    sol = lift_solutions(p1, 13, 1, first_occurrence(p1, 13))
    assert (sol.k_offset, sol.k_base) == (2, 10)


def test_lift_solutions_predict_next_power_hits():
    # walking k along either dual progression, the predicted k classes
    # are exactly where the next power divides; at power_exp = 3 the
    # valuation 2 of c = 18, 45 (p = 3), 50 (p = 5) and 98 (p = 7) drops
    # the difference below p**power_exp
    for c in (1, 2, 4, 6, 10, 18, 45, 50, 98):
        params = make_params(c)
        for p in (3, 5, 7, 13):
            for power_exp in (1, 2, 3):
                if c % p**power_exp == 0:
                    continue
                hit = first_occurrence(params, p**power_exp)
                if hit is None:
                    continue
                dp = dual_for_prime_power(params, p, power_exp)
                m, case = dp.difference, (c, p, power_exp)
                sol = lift_solutions(params, p, power_exp, hit)
                j_dual = next(rho for rho in dp.residues if rho != hit.j0 % m)
                j_hi = 3 * m * p
                lifted = brute_hit_indices(c, p ** (power_exp + 1), j_hi)
                predicted = set()
                for start, k_class in ((hit.j0, sol.k_base), (j_dual, sol.k_offset)):
                    assert isinstance(k_class, int) and 0 <= k_class < p, case
                    predicted |= set(range(start + m * k_class, j_hi + 1, m * p))
                assert predicted == lifted, case


def test_lift_solutions_solve_the_papers_congruences():
    # for p not dividing c, with u = p - x0 and b the cofactor of the
    # first hit: 4*x0*k_base + b == 0 and 4*u*(k_offset + 1) + b == 0 (mod p)
    checked = 0
    for c in range(1, 80):
        params = make_params(c)
        for p in ODD_PRIMES_50:
            if c % p == 0:
                continue
            hit = first_occurrence(params, p)
            if hit is None:
                continue
            sol = lift_solutions(params, p, 1, hit)
            x0, b, u = hit.x0, hit.cofactor_b, p - hit.x0
            assert (4 * x0 * sol.k_base + b) % p == 0, (c, p)
            assert (4 * u * (sol.k_offset + 1) + b) % p == 0, (c, p)
            checked += 1
    assert checked > 300


# c with square prime-power factors, whose root classes mod p^k have a
# modulus below p^k
SQUARE_HEAVY_C = (2 * 3**6, 5**4, 3**4 * 7**2, 2 * 3**2 * 5**2, 7**4 * 2)


def test_first_occurrence_matches_scan_exhaustively():
    # the scan covers every X = 2j + r in [0, a], which holds a root of
    # X^2 == -c (mod a) of the family parity whenever there is one
    for c in (*range(1, 121), *SQUARE_HEAVY_C):
        params = make_params(c)
        for a in range(1, 400, 2):
            hit = first_occurrence(params, a)
            hits = brute_hit_indices(c, a, (a - params.r) // 2)
            assert (hit is None) == (not hits), (c, a)
            if hit is not None:
                assert hit.j0 == min(hits), (c, a)
                assert hit.x0 == 2 * hit.j0 + params.r
                assert hit.modulus_a * hit.cofactor_b == hit.x0**2 + c


def test_first_occurrence_matches_sympy_roots():
    sqrt_mod = pytest.importorskip("sympy.ntheory").sqrt_mod
    rng = random.Random(20221)
    seen = set()
    for case in range(60):
        a = rng.getrandbits(rng.randint(2, 62)) | 1
        c = rng.randint(1, 10**6) if case % 3 else rng.choice(SQUARE_HEAVY_C) * rng.randint(1, 9) ** 2
        params = make_params(c)
        roots = sqrt_mod(-c % a, a, all_roots=True)
        want = min((s if s % 2 == params.r else s + a for s in roots), default=None)
        if want is not None and want > math.isqrt(INT63_MAX - c):
            with pytest.raises(OverflowError):
                first_occurrence(params, a)
            seen.add("overflow")
            continue
        hit = first_occurrence(params, a)
        assert (None if hit is None else hit.x0) == want, (c, a)
        seen.add("none" if hit is None else "hit")
    assert seen == {"none", "hit", "overflow"}


def timed(call, *args):
    t0 = time.perf_counter()
    out = call(*args)
    assert time.perf_counter() - t0 < 2.0
    return out


def test_first_occurrence_large_prime_without_root():
    # 2^61 - 1 is a prime = 3 (mod 4): -1 is no square modulo it
    assert timed(first_occurrence, make_params(1), 2**61 - 1) is None


def test_first_occurrence_balanced_semiprime():
    # two ~31-bit primes = 1 (mod 4) with 1931522040^2 + 1 = p * q
    p, q, x = 2999998009, 1243593289, 1931522040
    assert is_prime(p) and is_prime(q) and p % 4 == q % 4 == 1
    assert x * x + 1 == p * q
    hit = timed(first_occurrence, make_params(1), p * q)
    assert (hit.x0 * hit.x0 + 1) % (p * q) == 0
    assert hit.x0 % 2 == 0 and hit.x0 <= x <= p * q


def test_first_occurrence_at_the_63_bit_edge():
    # c = 2^63 - 17 leaves room for X <= 4 only: 4^2 + c = 2^63 - 1 is the
    # last element in range
    hit = first_occurrence(make_params(INT63_MAX - 16), INT63_MAX)
    assert (hit.x0, hit.cofactor_b) == (4, 1)


def test_sqrt_mod_prime_matches_brute_force():
    # every branch: p == 3 (mod 4), p == 5 (mod 8) and Tonelli-Shanks
    # for p == 1 (mod 8), against the squares of 1..p-1
    for p in range(3, 3000, 2):
        if not is_prime(p):
            continue
        squares = {x * x % p for x in range(1, p)}
        for n in range(1, p):
            root = _sqrt_mod_prime(n, p)
            if n in squares:
                assert root is not None and root * root % p == n, (p, n)
            else:
                assert root is None, (p, n)
        # callers pass -c, a representative outside 1..p-1
        assert (_sqrt_mod_prime(-1, p) is None) == (p % 4 == 3), p
