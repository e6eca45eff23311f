"""Parameters and index arithmetic for the quadratic families E_c.

For a fixed constant c >= 1 the family E_c consists of the integers
X**2 + c where X runs over the non-negative integers of parity opposite
to c.  Every element is odd.  Writing X = 2*j + r with r = 1 - (c % 2),
each element is addressed by its index j >= 0, and the map j -> X**2 + c
is strictly increasing.

All quantities are kept inside a 63-bit magnitude so results stay in
machine-integer range; arithmetic that would leave it raises
OverflowError instead of silently widening.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

INT63_MAX = 2**63 - 1

# Witness set that makes Miller-Rabin deterministic below 3.1e23, well
# past the 63-bit cap used throughout.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k for k = 1..11 (OEIS A014233): the smallest strong pseudoprime
# to all of the first k bases, so those k bases decide every n < psi_k.
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
)


@dataclass(frozen=True)
class EcParams:
    """Constants attached to one family E_c.

    r is the parity bit shared by all X values (X = 2*j + r), and (t, y)
    is the unique split c + 1 - r = 2**t * (2*y + 1) with t >= 1.
    Indices j <= j_threshold = (c - 1) // 4 form the head of the family;
    past it every element contributes at most one previously unseen
    prime divisor, and never a squared one.
    """

    c: int
    r: int
    t: int
    y: int
    j_threshold: int


def make_params(c: int) -> EcParams:
    """Validate c and derive the family constants."""
    if c < 1:
        raise ValueError(f"family constant must be >= 1, got {c}")
    if c > INT63_MAX:
        raise OverflowError(f"family constant {c} exceeds the 63-bit range")
    r = 1 - c % 2
    m = c + 1 - r
    t = (m & -m).bit_length() - 1
    y = ((m >> t) - 1) // 2
    return EcParams(c=c, r=r, t=t, y=y, j_threshold=(c - 1) // 4)


@dataclass(frozen=True)
class EcElement:
    """One member of E_c: index j, abscissa x = 2*j + r, value n = x*x + c."""

    j: int
    x: int
    n: int


def element_at(params: EcParams, j: int) -> EcElement:
    """Element of E_c at index j; raises OverflowError past the 63-bit cap."""
    if j < 0:
        raise ValueError(f"index must be >= 0, got {j}")
    x = 2 * j + params.r
    n = x * x + params.c
    if n > INT63_MAX:
        raise OverflowError(f"element at index {j} exceeds the 63-bit range")
    return EcElement(j=j, x=x, n=n)


def index_of(params: EcParams, x: int) -> int:
    """Index j with 2*j + r == x.  x must carry the family parity."""
    if x < 0 or x % 2 != params.r:
        raise ValueError(f"abscissa {x} does not belong to E_{params.c}")
    return (x - params.r) // 2


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n <= 2**63 - 1,
    with as few of the prime bases as the size of n allows."""
    if n < 0 or n > INT63_MAX:
        raise ValueError(f"primality test out of range: {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
