"""End-to-end acceptance checks.

Each test prints one [criterion N] line with PASS or FAIL before
asserting, so a full run reads as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import tempfile
import time
from pathlib import Path

from quadsieve import (
    dual_for_prime_power,
    first_occurrence,
    make_params,
    pair_from_factorization,
    run_sieve,
    special_pair_one,
    special_pair_two,
    z_values_distinct,
)
from quadsieve.cli import main
from quadsieve.uz import appendix_pair, family_coeffs
from reference import brute_hit_indices, divisors_of, eratosthenes

_c1_rows = {}


def _c1_row(j_max):
    """(p_count, d_count, elapsed) of `run --c 1 --J j_max`, cached."""
    if j_max not in _c1_rows:
        path = Path(tempfile.mkdtemp()) / "stats.csv"
        assert main(["run", "--c", "1", "--J", str(j_max), "--stats", str(path)]) == 0
        row = path.read_text().splitlines()[1].split(",")
        _c1_rows[j_max] = (int(row[1]), int(row[2]), float(row[3]))
    return _c1_rows[j_max]


def _report(number, label, ok):
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def identity_holds(pair, lo=-50, hi=50):
    terms = [pair.terms(n) for n in range(lo, hi + 2)]
    return all(
        terms[i][0] ** 2 + pair.c == terms[i][1] * terms[i + 1][1]
        for i in range(hi - lo + 1)
    )


def test_criterion_1_reference_counts():
    expected = {10000: (1558, 609), 50000: (6655, 2549), 100000: (12390, 4783)}
    ok = True
    for j_max, (p_count, d_count) in expected.items():
        got_p, got_d, elapsed = _c1_row(j_max)
        ok = ok and (got_p, got_d) == (p_count, d_count) and elapsed <= 10.0
    _report(1, "exact P and D counts for c=1 at three scales, each within 10 s", ok)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    ok = all(
        main(["verify", "--c", str(c), "--J", "2000"]) == 0
        for c in (1, 2, 3, 4, 7, 15, 61)
    )
    ok = ok and time.perf_counter() - t0 <= 5.0
    _report(2, "sieve matches trial-division oracle for 7 families within 5 s", ok)


def test_criterion_3_fermat_cross_check():
    ok = True
    for j_max in (1000, 10000):
        fermat = sum(1 for p in eratosthenes(j_max) if p % 4 == 1)
        out = run_sieve(make_params(1), j_max)
        ok = ok and out.checkpoints[0].d_count == fermat
    _report(3, "c=1 divisor counts equal counts of primes 1 mod 4", ok)


def test_criterion_4_product_identity_suite():
    ok = True
    cases = 0
    for c in range(1, 21):
        params = make_params(c)
        for j in range(11):
            x = 2 * j + params.r
            for d in divisors_of(x * x + c):
                ok = ok and identity_holds(pair_from_factorization(params, x, d))
                cases += 1
    ok = ok and cases >= 200
    for c in range(1, 26):
        params = make_params(c)
        for a in range(1, 51, 2):
            hit = first_occurrence(params, a)
            if hit is None:
                continue
            for k in range(6):
                ok = ok and identity_holds(family_coeffs(params, hit, hit.j0, k))
    for c in range(1, 201):
        params = make_params(c)
        ok = ok and identity_holds(special_pair_one(params))
        pair = special_pair_two(params)
        if pair is not None:
            ok = ok and identity_holds(pair)
    for c in range(1, 16):
        params = make_params(c)
        for j in range(7):
            for k in range(5):
                for variant in ("a", "b"):
                    ok = ok and identity_holds(appendix_pair(params, j, k, variant))
    _report(4, "U_n^2 + c = Z_n * Z_{n+1} across every pair constructor", ok)


def _progressions_hold(c, p, alpha):
    """Criterion 5's checks for one prime power p^alpha on j <= 5 p^alpha."""
    params = make_params(c)
    modulus = p**alpha
    dp = dual_for_prime_power(params, p, alpha)
    brute = brute_hit_indices(c, modulus, 5 * modulus)
    if dp is None:
        return not brute
    predicted = {j for j in range(5 * modulus + 1) if j % dp.difference in dp.residues}
    ok = predicted == brute
    if len(dp.residues) == 2 and c % p != 0:
        ok = ok and sum(dp.residues) == dp.difference - params.r
    ok = ok and dp.self_dual == (c % modulus == 0)
    return ok and dp.self_dual == (len(dp.residues) == 1)


def test_criterion_5_progression_coverage():
    grid = [
        (c, p, alpha)
        for c in range(1, 51)
        for p in eratosthenes(50)[1:]
        for alpha in (1, 2, 3)
    ]
    failed = next((case for case in grid if not _progressions_hold(*case)), None)
    label = "predicted divisor progressions equal brute force on the full grid"
    if failed is not None:
        label += f", first failing at (c, p, alpha) = {failed}"
    _report(5, label, failed is None)


def test_criterion_6_verified_long_runs():
    ok = True
    for c in (1, 3, 4, 61):
        try:
            out = run_sieve(make_params(c), 100000, verify=True)
        except Exception:
            ok = False
            break
        if c == 1:
            ok = ok and (len(out.p_set), len(out.d_set)) == _c1_row(100000)[:2]
    _report(6, "verification mode observes zero violations to J=100000", ok)


def test_criterion_7_scaling_window():
    half, full = _c1_row(50000)[2], _c1_row(100000)[2]
    ratio = full / half
    ok = 2.5 <= ratio <= 6.5
    label = f"doubling J scales elapsed time by {ratio:.2f} ({half:.2f} s -> {full:.2f} s)"
    _report(7, f"{label}, inside [2.5, 6.5]", ok)


def test_criterion_8_distinct_z_values():
    ok = True
    for c in range(1, 201):
        params = make_params(c)
        pair = special_pair_one(params)
        distinct = z_values_distinct(pair)
        ok = ok and distinct == (params.t > 1 or params.r == 1)
        window = [pair.terms(n)[1] for n in range(-20, 21)]
        ok = ok and distinct == (len(set(window)) == len(window))
    for c in range(15, 501, 16):
        pair = special_pair_two(make_params(c))
        window = [pair.terms(n)[1] for n in range(-20, 21)]
        ok = ok and pair is not None and len(set(window)) == len(window)
    _report(8, "Z-value injectivity criterion and windows hold exactly", ok)
