"""Index progressions of the divisors of a family E_c.

An odd integer A divides an element X**2 + c of E_c exactly when X is a
square root of -c modulo A.  Those roots are computed, not searched
for, and one rule, _index_classes, turns them into indices: each prime
power p**k contributes at most two index classes modulo a divisor m of
p**k (a square root modulo p, a Hensel lift, then j = (X - r) / 2
mod m).  A is factored (trial division, Miller-Rabin, Pollard-Brent
rho) and the classes of its prime powers combine by the CRT, so the
first element divisible by A has an index below A.

The indices of the multiples of A form one or two arithmetic
progressions, one per index class.  For A coprime to c the common
difference is A itself and the two residues pair up around the first
occurrence; the progressions merge into a single self-dual one exactly
when A divides c.  For prime powers p**a with p | c the difference
drops below p**a.  The classes of p**(a+1) refine those of p**a, which
places the next power on each progression.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import INT63_MAX, EcParams, is_prime

# Trial divisors taken out of a modulus before Pollard-Brent rho.
_SMALL_PRIMES = tuple(p for p in range(3, 1000, 2) if is_prime(p))
# Steps of the rho walk multiplied together between two gcds.
_RHO_BATCH = 128


@dataclass(frozen=True)
class FirstHit:
    """First element of E_c divisible by modulus_a.

    x0 is the smallest abscissa of the family parity with
    modulus_a | x0**2 + c, j0 its index and cofactor_b the quotient
    (x0**2 + c) // modulus_a.
    """

    modulus_a: int
    x0: int
    j0: int
    cofactor_b: int


@dataclass(frozen=True)
class DualProgression:
    """Index progressions of the multiples of one odd prime power.

    The modulus divides the element at index j exactly when
    j % difference is in residues.  residues holds one entry when the
    two progressions coincide (self_dual) and two otherwise; distinct
    residues sum to difference - r modulo difference.
    """

    difference: int
    residues: tuple[int, ...]
    self_dual: bool


@dataclass(frozen=True)
class PowerPlan:
    """Valuation bookkeeping for the multiples of p**power_exp.

    val_x0 is the p-adic valuation of the first abscissa (math.inf when
    the abscissa is 0), val_c the valuation of c, and
    split = min(val_x0, power_exp // 2) the exponent by which the
    common difference of the index progressions drops below p**power_exp.
    """

    p: int
    power_exp: int
    val_x0: int | float
    split: int
    val_c: int


@dataclass(frozen=True)
class LiftSolutions:
    """Residues k (mod p) placing a factor p**(power_exp + 1).

    Each branch follows one of the two index progressions of
    p**power_exp: k_base counts steps along the progression through the
    first occurrence, k_offset along the progression through its dual.
    """

    k_offset: int
    k_base: int


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n (Pollard-Brent rho)."""
    for step in itertools.count(1):
        y, q, g, span = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(span):
                y = (y * y + step) % n
            done = 0
            while done < span and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, span - done)):
                    y = (y * y + step) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                done += _RHO_BATCH
            span *= 2
        if g == n:
            # the batch overshot; replay it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + step) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g


def _factor(n: int) -> dict[int, int]:
    """Prime factorization {p: k} of the odd n >= 1."""
    exps: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            exps[p] = exps.get(p, 0) + 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
        else:
            d = _rho(m)
            pending += [d, m // d]
    return exps


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p, or None when n is a
    non-residue.  n must be coprime to p.

    For p == 3 (mod 4) and p == 5 (mod 8) one exponentiation gives the
    only candidate (Atkin's formula for the latter), and squaring it
    tells a residue from a non-residue; other p use Euler's criterion
    and then Tonelli-Shanks.
    """
    n %= p
    if p % 4 == 3:
        root = pow(n, (p + 1) // 4, p)
        return root if root * root % p == n else None
    if p % 8 == 5:
        v = pow(2 * n, (p - 5) // 8, p)
        root = n * v * (2 * n * v * v - 1) % p
        return root if root * root % p == n else None
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    gen, t, root = pow(z, odd, p), pow(n, odd, p), pow(n, (odd + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(gen, 1 << (s - i - 1), p)
        s, gen = i, b * b % p
        t, root = t * gen % p, root * b % p
    return root


def _index_classes(params: EcParams, p: int, k: int) -> tuple[int, tuple[int, ...]] | None:
    """Index classes of the elements of E_c divisible by p**k, for an odd
    prime p, as (m, sorted residues j mod m) with m dividing p**k; None
    when there are none.

    The abscissae X = 2j + r of those elements are the roots of
    X**2 == -c (mod p**k).  With nu the valuation of c at p: for nu >= k
    they are the multiples of p**ceil(k/2); for odd nu < k there are
    none; otherwise X = +-p**(nu/2) * Y with Y**2 == -c/p**nu
    (mod p**(k - nu)).  A root class s (mod m) holds the indices
    j == (s - r) / 2 (mod m), and m is odd.
    """
    c = params.c
    nu = _valuation(c, p)
    if nu >= k:
        m, roots = p ** ((k + 1) // 2), (0,)
    else:
        if nu % 2:
            return None
        unit = c // p**nu
        y = _sqrt_mod_prime(-unit, p)
        if y is None:
            return None
        target, mod = p ** (k - nu), p
        while mod < target:
            # Newton step: doubles the p-adic precision of the root
            mod = min(mod * mod, target)
            y = (y - (y * y + unit) * pow(2 * y, -1, mod)) % mod
        h = p ** (nu // 2)
        m, roots = h * target, (h * y, -h * y)
    half = (m + 1) // 2
    return m, tuple(sorted({(s - params.r) * half % m for s in roots}))


def first_occurrence(params: EcParams, a: int) -> FirstHit | None:
    """Smallest element of E_c divisible by the odd modulus a, if any.

    Combines the index classes of the prime powers of a by the CRT and
    takes the smallest index, which is below a.  The cost is
    polylogarithmic in a apart from Pollard rho on a composite left
    after trial division.  None means a divides no element at all;
    OverflowError means the first hit leaves the 63-bit range.
    """
    if a < 1 or a % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 1, got {a}")
    if a > INT63_MAX:
        raise OverflowError(f"modulus {a} exceeds the 63-bit range")
    c, r = params.c, params.r
    modulus, indices = 1, [0]
    for p, k in _factor(a).items():
        classes = _index_classes(params, p, k)
        if classes is None:
            return None
        m, residues = classes
        inv = pow(modulus, -1, m)
        indices = [s + modulus * ((t - s) * inv % m) for s in indices for t in residues]
        modulus *= m
    x0 = 2 * min(indices) + r
    if x0 > math.isqrt(INT63_MAX - c):
        raise OverflowError(
            f"first element divisible by {a} leaves the 63-bit range"
        )
    return FirstHit(modulus_a=a, x0=x0, j0=(x0 - r) // 2,
                    cofactor_b=(x0 * x0 + c) // a)


def sequence_exists(params: EcParams, a_divisor: int, hit: FirstHit) -> bool:
    """Whether the divisor pair (a_divisor, modulus_a/a_divisor) supports
    an index progression: gcd of the pair must divide the first abscissa."""
    if a_divisor < 1 or hit.modulus_a % a_divisor != 0:
        raise ValueError(f"{a_divisor} does not divide modulus {hit.modulus_a}")
    g = math.gcd(a_divisor, hit.modulus_a // a_divisor)
    return hit.x0 % g == 0


def _check_prime_power(p: int, power_exp: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if power_exp < 1:
        raise ValueError(f"exponent must be >= 1, got {power_exp}")


def dual_for_prime(params: EcParams, p: int) -> DualProgression | None:
    """Index progressions of the multiples of an odd prime p, or None
    when p divides no element.  Self-dual exactly when p | c."""
    return dual_for_prime_power(params, p, 1)


def dual_for_prime_power(params: EcParams, p: int, power_exp: int) -> DualProgression | None:
    """Index progressions of the multiples of p**power_exp, or None.

    Each root class s (mod m) of X**2 == -c (mod p**power_exp) gives the
    progression of indices j == (s - r) / 2 (mod m), so the difference
    is m: p**power_exp when p does not divide c, p**ceil(power_exp/2)
    when p**power_exp divides c (one self-dual progression), and
    p**(power_exp - nu/2) in between, where nu is the (even) valuation
    of c at p.
    """
    _check_prime_power(p, power_exp)
    if p**power_exp > INT63_MAX:
        raise OverflowError(f"modulus {p}**{power_exp} exceeds the 63-bit range")
    classes = _index_classes(params, p, power_exp)
    if classes is None:
        return None
    m, residues = classes
    return DualProgression(m, residues, len(residues) == 1)


def power_plan(params: EcParams, p: int, power_exp: int) -> PowerPlan | None:
    """Valuation summary for p**power_exp, or None when it divides no
    element of E_c."""
    _check_prime_power(p, power_exp)
    hit = first_occurrence(params, p**power_exp)
    if hit is None:
        return None
    val_x0 = math.inf if hit.x0 == 0 else _valuation(hit.x0, p)
    return PowerPlan(p=p, power_exp=power_exp, val_x0=val_x0,
                     split=int(min(val_x0, power_exp // 2)),
                     val_c=_valuation(params.c, p))


def lift_solutions(params: EcParams, p: int, power_exp: int,
                   hit: FirstHit) -> LiftSolutions:
    """Where the next power p**(power_exp + 1) lands on each progression.

    hit must be the first occurrence of p**power_exp, and p**power_exp
    must not divide c; a hit whose index holds no multiple of
    p**power_exp raises ValueError.  The index classes of the next power
    (mod m*p) refine those of p**power_exp (mod m); a branch reads the
    one inside its class as the step count k (mod p) along its
    progression, from hit.j0 for k_base and from the other residue for
    k_offset.  There is always exactly one: with p**power_exp not
    dividing c, each root of X**2 == -c (mod p**power_exp) is p**(v/2)
    times a unit root, v = v_p(c), whose Hensel lift is unique.
    """
    _check_prime_power(p, power_exp)
    a = p**power_exp
    if hit.modulus_a != a:
        raise ValueError(f"hit describes modulus {hit.modulus_a}, expected {a}")
    if params.c % a == 0:
        raise ValueError(f"{p}**{power_exp} divides c = {params.c}; "
                         "the two branches degenerate")
    classes = _index_classes(params, p, power_exp)
    if classes is None or hit.j0 % classes[0] not in classes[1]:
        raise ValueError(f"index {hit.j0} holds no multiple of {a} for c = {params.c}")
    m, residues = classes
    _, lifted = _index_classes(params, p, power_exp + 1)

    def steps(start: int) -> int:
        return next((s - start) // m for s in lifted if (s - start) % m == 0)

    dual = next(j for j in residues if j != hit.j0 % m)
    return LiftSolutions(k_offset=steps(dual), k_base=steps(hit.j0))
