import random
from math import isqrt
from types import SimpleNamespace

import pytest

from quadsieve import (
    INT63_MAX,
    UZPair,
    appendix_pair,
    family_coeffs,
    first_occurrence,
    make_params,
    pair_from_factorization,
    special_pair_one,
    special_pair_two,
    uz,
    z_values_distinct,
)
from reference import divisors_of


def check_identity(pair, lo=-50, hi=50):
    """U_n**2 + c == Z_n * Z_{n+1} over [lo, hi], term by term, with
    acc > 0 and every Z_n > 0, which uz-demo's range check relies on."""
    assert pair.acc > 0
    terms = [pair.terms(n) for n in range(lo, hi + 2)]
    for i in range(hi - lo + 1):
        u, z = terms[i]
        _, z_next = terms[i + 1]
        assert z > 0
        assert u * u + pair.c == z * z_next


def test_terms_examples():
    pair = UZPair(acc=2, step0=-2, u0=2, c=1)
    assert pair.terms(0) == (2, 5)
    assert pair.terms(1) == (0, 1)
    assert pair.terms(2)[1] == 1
    pair = UZPair(acc=2, step0=2, u0=0, c=1)
    assert pair.terms(0) == (0, 1)
    assert pair.terms(1) == (2, 1)
    assert pair.terms(2)[1] == 5


def test_pair_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        UZPair(acc=2, step0=3, u0=2, c=1)  # odd step
    with pytest.raises(ValueError):
        UZPair(acc=2, step0=-2, u0=1, c=1)  # u0 parity
    with pytest.raises(ValueError):
        UZPair(acc=4, step0=-2, u0=2, c=1)  # fails to close on c


def test_pair_coefficients_pinned_by_closure():
    # closure determines acc from the rest; nudging it always breaks
    for pair in (
        pair_from_factorization(make_params(1), 2, 5),
        special_pair_one(make_params(12)),
        special_pair_two(make_params(15)),
    ):
        for delta in (-1, 1):
            with pytest.raises(ValueError):
                UZPair(acc=pair.acc + delta, step0=pair.step0, u0=pair.u0, c=pair.c)


def test_terms_overflow():
    pair = pair_from_factorization(make_params(1), 2, 5)
    with pytest.raises(OverflowError):
        pair.terms(2**32)


def test_pair_from_factorization_examples():
    pair = pair_from_factorization(make_params(1), 2, 5)
    assert (pair.acc, pair.step0, pair.u0) == (2, -2, 2)
    assert (pair.z0, pair.z_step) == (5, -4)
    for c in (7, 15, 61):
        pair = pair_from_factorization(make_params(c), 0, c)
        assert (pair.acc, pair.step0, pair.z0) == (c + 1, 2, c)
    pair = pair_from_factorization(make_params(1), 8, 5)
    assert (pair.acc, pair.step0, pair.z0) == (2, 10, 5)


def test_pair_from_factorization_rejects_bad_input():
    p1 = make_params(1)
    with pytest.raises(ValueError):
        pair_from_factorization(p1, 2, 3)  # 3 does not divide 5
    with pytest.raises(ValueError):
        pair_from_factorization(p1, 3, 5)  # wrong parity
    with pytest.raises(ValueError):
        pair_from_factorization(p1, -2, 5)


def test_pair_from_factorization_grid():
    # every divisor of every small element closes into a valid pair
    cases = 0
    for c in range(1, 21):
        params = make_params(c)
        for j in range(11):
            x = 2 * j + params.r
            n = x * x + c
            for a in divisors_of(n):
                pair = pair_from_factorization(params, x, a)
                assert pair.terms(0) == (x, a)
                assert pair.terms(1)[1] == n // a
                check_identity(pair)
                cases += 1
    assert cases >= 200


def test_family_step_zero_matches_direct_pair():
    p1 = make_params(1)
    hit = first_occurrence(p1, 5)
    fam = family_coeffs(p1, hit, hit.j0, 0)
    direct = pair_from_factorization(p1, 2 * hit.j0 + p1.r, 5)
    assert (fam.acc, fam.step0, fam.u0) == (direct.acc, direct.step0, direct.u0)


def test_family_step_examples():
    p1 = make_params(1)
    hit = first_occurrence(p1, 5)
    fam = family_coeffs(p1, hit, hit.j0, 1)
    assert (fam.acc, fam.step0, fam.z_step) == (10, 34, 24)
    direct = pair_from_factorization(p1, 12, 5)
    assert (fam.acc, fam.step0, fam.u0) == (direct.acc, direct.step0, direct.u0)
    fam = family_coeffs(p1, hit, hit.j0, 2)
    direct = pair_from_factorization(p1, 22, 5)
    assert (fam.acc, fam.step0, fam.u0) == (direct.acc, direct.step0, direct.u0)


def test_family_rejects_index_off_progression():
    p1 = make_params(1)
    hit = first_occurrence(p1, 5)
    with pytest.raises(ValueError):
        family_coeffs(p1, hit, hit.j0 + 1, 0)
    # -1 reduces to index 4, which is on a progression of 5
    for base_j, k in ((-1, 0), (hit.j0, -3)):
        with pytest.raises(ValueError):
            family_coeffs(p1, hit, base_j, k)


def test_family_consistency_grid():
    # each step k reproduces the direct pair at the walked index, keeps
    # z0 on the divisor, and satisfies the product identity
    for c in range(1, 26):
        params = make_params(c)
        for a in range(1, 51, 2):
            hit = first_occurrence(params, a)
            if hit is None:
                continue
            x0 = 2 * hit.j0 + params.r
            for k in range(6):
                fam = family_coeffs(params, hit, hit.j0, k)
                direct = pair_from_factorization(params, x0 + 2 * k * a, a)
                assert (fam.acc, fam.step0, fam.u0) == (
                    direct.acc,
                    direct.step0,
                    direct.u0,
                ), (c, a, k)
                assert fam.z0 == a
                check_identity(fam, -10, 10)


def test_family_second_differences():
    for c in (1, 7, 12):
        params = make_params(c)
        for a in (5, 9, 13, 25):
            hit = first_occurrence(params, a)
            if hit is None:
                continue
            pairs = [family_coeffs(params, hit, hit.j0, k) for k in range(6)]
            for seq, want in (
                ([p.acc for p in pairs], 8 * a),
                ([p.step0 for p in pairs], 16 * a),
                ([p.z_step for p in pairs], 8 * a),
            ):
                second = [
                    seq[i + 2] - 2 * seq[i + 1] + seq[i] for i in range(len(seq) - 2)
                ]
                assert second == [want] * len(second), (c, a)


def test_special_pair_one_examples():
    pair = special_pair_one(make_params(1))
    assert (pair.acc, pair.step0, pair.u0, pair.z0) == (2, 2, 0, 1)
    pair = special_pair_one(make_params(4))
    assert (pair.acc, pair.step0, pair.u0, pair.z0) == (8, 12, -1, 1)
    pair = special_pair_one(make_params(7))
    assert (pair.acc, pair.step0, pair.u0, pair.z0) == (8, 14, 0, 1)


def check_first_factorization(pair):
    """The pair is the one its first factorization u0**2 + c = z0 * z1
    fixes."""
    n = pair.u0 ** 2 + pair.c
    assert n % pair.z0 == 0
    z1 = n // pair.z0
    assert (pair.acc, pair.step0) == (pair.z0 + z1 - 2 * pair.u0, 2 * (z1 - pair.u0))


def test_special_pair_one_z0_is_odd_part():
    for c in range(1, 201):
        params = make_params(c)
        pair = special_pair_one(params)
        assert pair.z0 == 2 * params.y + 1
        check_first_factorization(pair)
        check_identity(pair)


def test_special_pair_two_examples():
    pair = special_pair_two(make_params(15))
    assert (pair.u0, pair.z0) == (6, 3)
    assert pair.terms(1) == (28, 17)  # 6**2 + 15 = 51 = 3 * 17
    pair = special_pair_two(make_params(8))
    assert (pair.u0, pair.z0) == (1, 3)
    assert pair.terms(1)[1] == 3  # 1 + 8 = 9 = 3 * 3
    assert special_pair_two(make_params(1)) is None


def test_special_pair_two_threshold():
    for c in range(1, 201):
        params = make_params(c)
        pair = special_pair_two(params)
        assert (pair is not None) == (params.t >= 4 - params.r)
        if pair is not None:
            check_first_factorization(pair)
            check_identity(pair)


def test_z_values_distinct_examples():
    assert not z_values_distinct(special_pair_one(make_params(1)))
    assert z_values_distinct(special_pair_one(make_params(4)))
    assert z_values_distinct(special_pair_two(make_params(31)))
    with pytest.raises(ValueError):
        z_values_distinct(SimpleNamespace(acc=0, step0=4))


def test_appendix_examples():
    for c in (1, 3, 7, 15):
        params = make_params(c)
        pair = appendix_pair(params, 0, 0, "a")
        assert (pair.acc, pair.step0, pair.u0) == (c + 1, 4 * c + 2, 2 * c)
        mirror = appendix_pair(params, 0, 0, "b")
        assert (mirror.acc, mirror.step0, mirror.u0) == (
            pair.acc,
            pair.step0,
            pair.u0,
        )
    pair = appendix_pair(make_params(1), 1, 0, "a")
    assert (pair.acc, pair.u0, pair.z0) == (2, 8, 5)
    pair = appendix_pair(make_params(4), 0, 0, "a")
    assert (pair.acc, pair.step0, pair.u0) == (4, 16, 9)
    pair = appendix_pair(make_params(4), 0, 0, "b")
    assert (pair.acc, pair.step0, pair.u0) == (8, 28, 11)


def test_appendix_rejects_bad_arguments():
    p1 = make_params(1)
    with pytest.raises(ValueError):
        appendix_pair(p1, -1, 0)
    with pytest.raises(ValueError):
        appendix_pair(p1, 0, -1)
    with pytest.raises(ValueError):
        appendix_pair(p1, 0, 0, "c")


def test_appendix_consistency_grid():
    # both variants anchor z0 on the source element and agree with the
    # direct pair built from their own U_0 against it
    for c in range(1, 16):
        params = make_params(c)
        r = params.r
        for j in range(7):
            n = (2 * j + r) ** 2 + c
            for k in range(5):
                for variant in ("a", "b"):
                    pair = appendix_pair(params, j, k, variant)
                    assert pair.z0 == n, (c, j, k, variant)
                    direct = pair_from_factorization(params, pair.u0, n)
                    assert (pair.acc, pair.step0) == (direct.acc, direct.step0)
                    check_identity(pair)


def test_appendix_z_step_closed_forms():
    # the z-side linear coefficient recomputed from scratch, not via
    # step0 - acc
    for c in range(1, 16):
        params = make_params(c)
        r = params.r
        for j in range(7):
            for k in range(5):
                vk = 4 * k * (k - 1) + 12 * k + 2
                e = c + (1 - r)
                g1 = c * vk + e
                g2 = (
                    4 * j
                    + 12 * j * (j - (1 - r))
                    + 40 * j * k
                    + 48 * k * j * (j - 1)
                    + 16 * j * (j - r) * k * (k - 1)
                    + 4 * k * r * (12 * j + 8 * j * (k - 1) + k + 1)
                )
                pair = appendix_pair(params, j, k, "a")
                assert pair.z_step == g1 + g2, (c, j, k)
                pair = appendix_pair(params, j, k, "b")
                assert pair.z_step == g1 + 8 * r + g2 + 8 * (2 * j + 2 * j * k) + 8 * k * r


def _fits(pair, n):
    return max(map(abs, uz._exact_terms(pair, n))) <= INT63_MAX


def _random_pairs(rng):
    """One pair of each constructor at a random c, small to near 2**63."""
    c = rng.choice([rng.randint(1, 200), rng.randint(1, 10**12),
                    rng.randint(2**40, INT63_MAX - 2**33)])
    params = make_params(c)
    yield special_pair_one(params)
    two = special_pair_two(params)
    if two is not None:
        yield two
    hit = None
    while hit is None:
        hit = first_occurrence(params, rng.randrange(1, 10**6, 2))
    yield family_coeffs(params, hit, hit.j0, rng.randint(0, 5))
    yield appendix_pair(params, rng.randint(0, 1000), rng.randint(0, 5), rng.choice("ab"))


def test_both_ends_of_a_term_range_decide_it():
    # uz-demo checks only U_lo, Z_lo and U_{hi+1}, Z_{hi+1}: Z_n is a
    # positive convex quadratic, so the two ends fit in 63 bits exactly
    # when every term from lo to hi + 1 does; windows sit around the
    # vertex, near the 63-bit edges and near n = +-2**31
    rng = random.Random(20221)
    windows = mixed = 0
    for _ in range(150):
        for pair in _random_pairs(rng):
            vertex = (pair.acc - pair.step0) // (2 * pair.acc)
            reach = isqrt(INT63_MAX // pair.acc)
            for center in (vertex, vertex - reach, vertex + reach, -(2**31), 2**31):
                lo = center + rng.randint(-300, 300)
                hi = lo + rng.randint(0, 298)
                fit = [_fits(pair, n) for n in range(lo, hi + 2)]
                assert (fit[0] and fit[-1]) == all(fit), (pair, lo, hi)
                windows += 1
                mixed += len(set(fit)) == 2
    assert windows >= 2000 and mixed >= 200
