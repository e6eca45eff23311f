"""Second-order sequence pairs certifying factorizations inside E_c.

A pair of sequences U_n = acc*n*(n-1) + step0*n + u0 and
Z_n = acc*n*(n-1) + (step0 - acc)*n + z0 with z0 = acc - step0/2 + u0
satisfies U_n**2 + c = Z_n * Z_{n+1} for every integer n exactly when
the coefficients close on c, meaning c = acc*u0 + acc*step0/2 -
step0**2/4.  The terms of a pair factor one element of E_c per n.

A pair is fixed by its first factorization U_0**2 + c = Z_0 * Z_1:
closing on c forces acc = Z_0 + Z_1 - 2*U_0 and step0 = 2*(Z_1 - U_0).
Every constructor below only names its first terms (U_0, Z_0), and any
factorization X**2 + c = A*B of an element yields the pair (X, A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import INT63_MAX, EcParams, index_of
from .progressions import FirstHit


@dataclass(frozen=True)
class UZPair:
    """Coefficients of one (U, Z) pair over the family constant c.

    acc is the shared second-order coefficient, step0 the linear
    coefficient of U (always even), u0 the value U_0.  The Z side is
    derived: z_step = step0 - acc and z0 = acc - step0/2 + u0.
    Construction fails unless the coefficients close on c.
    """

    acc: int
    step0: int
    u0: int
    c: int
    z_step: int = field(init=False)
    z0: int = field(init=False)

    def __post_init__(self) -> None:
        if self.step0 % 2:
            raise ValueError(f"step0 must be even, got {self.step0}")
        if (self.u0 - self.c) % 2 == 0:
            raise ValueError(f"u0 = {self.u0} must have parity opposite to c = {self.c}")
        half = self.step0 // 2
        if self.acc * (self.u0 + half) - half * half != self.c:
            raise ValueError("coefficients do not close on c; the product "
                             "identity U_n**2 + c = Z_n * Z_{n+1} would fail")
        object.__setattr__(self, "z_step", self.step0 - self.acc)
        object.__setattr__(self, "z0", self.acc - half + self.u0)

    def terms(self, n: int) -> tuple[int, int]:
        """(U_n, Z_n) at any integer n; OverflowError past the 63-bit cap."""
        u, z = _exact_terms(self, n)
        if max(abs(u), abs(z)) > INT63_MAX:
            raise OverflowError(f"pair terms at n = {n} exceed the 63-bit range")
        return u, z


def _exact_terms(pair: UZPair, n: int) -> tuple[int, int]:
    """(U_n, Z_n) over the integers, with no range check."""
    w = n * (n - 1)
    return (pair.acc * w + pair.step0 * n + pair.u0,
            pair.acc * w + pair.z_step * n + pair.z0)


def _pair(c: int, u0: int, z0: int) -> UZPair:
    """The pair whose first factorization is u0**2 + c = z0 * z1.

    Its acc = z0 + z1 - 2*u0 is positive: z0, z1 > 0 and z0 * z1 =
    u0**2 + c > u0**2, so z0 + z1 >= 2*sqrt(z0 * z1) > 2*|u0|.  Every
    Z_n is positive, since Z_n * Z_{n+1} = U_n**2 + c >= 1 and Z_0 = z0
    >= 1.  uz-demo relies on both to check a term range at its two ends.
    """
    n = u0 * u0 + c
    if z0 < 1 or n % z0 != 0:
        raise ValueError(f"{z0} does not divide {n}")
    z1 = n // z0
    return UZPair(acc=z0 + z1 - 2 * u0, step0=2 * (z1 - u0), u0=u0, c=c)


def pair_from_factorization(params: EcParams, x: int, a: int) -> UZPair:
    """Pair whose n = 0 terms realize x**2 + c = a * b: U_0 = x, Z_0 = a,
    Z_1 = b."""
    index_of(params, x)
    return _pair(params.c, x, a)


def family_coeffs(params: EcParams, hit: FirstHit, base_j: int, k: int) -> UZPair:
    """Pair attached to step k along the index progression of
    hit.modulus_a through base_j: U_0 = x0 + 2*k*a and Z_0 = a, where
    x0 is the abscissa at base_j reduced modulo a.

    The reduced index must lie on one of the divisor progressions, i.e.
    the modulus must divide its element.  Every returned pair keeps z0
    equal to the modulus, so the Z side tracks its cofactors along the
    progression.
    """
    if base_j < 0 or k < 0:
        raise ValueError(f"base_j and k must be >= 0, got base_j = {base_j}, k = {k}")
    a = hit.modulus_a
    x0 = 2 * (base_j % a) + params.r
    if (x0 * x0 + params.c) % a != 0:
        raise ValueError(f"index {base_j} is not on a divisor progression of {a}")
    return _pair(params.c, x0 + 2 * k * a, a)


def special_pair_one(params: EcParams) -> UZPair:
    """Distinguished pair read off the two-adic split c + 1 - r =
    2**t * (2y + 1): Z_0 = 2y + 1, the odd part, with U_0 = 2y for
    r = 0 and U_0 = -(2y + 1) for r = 1."""
    y = params.y
    return _pair(params.c, 2 * y if params.r == 0 else -(2 * y + 1), 2 * y + 1)


def special_pair_two(params: EcParams) -> UZPair | None:
    """Second distinguished pair, defined only when t >= 4 - r:
    (U_0, Z_0) = (3(c + 1)/8, (c + 9)/8) for r = 0 and
    (c/4 - 1, c/4 + 1) for r = 1."""
    if params.t < 4 - params.r:
        return None
    c = params.c
    if params.r == 0:
        return _pair(c, 3 * (c + 1) // 8, (c + 9) // 8)
    return _pair(c, c // 4 - 1, c // 4 + 1)


def z_values_distinct(pair: UZPair) -> bool:
    """Whether n -> Z_n is injective over the integers: true exactly when
    acc does not divide step0."""
    if pair.acc == 0:
        raise ValueError("degenerate pair with acc == 0")
    return pair.step0 % pair.acc != 0


def appendix_pair(params: EcParams, j: int, k: int, variant: str = "a") -> UZPair:
    """Pair tied to N = (2j + r)**2 + c whose z0 equals N itself.

    U_0 = 2w + r, where variant "a" walks the index progression
    w = N - j - r + k*N and variant "b" the dual progression
    w = j + (k + 1)*N; both keep every Z term a cofactor of N against
    later elements.
    """
    if j < 0 or k < 0:
        raise ValueError(f"j and k must be >= 0, got j = {j}, k = {k}")
    v = variant.lower()
    if v not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    r = params.r
    n_val = (2 * j + r) ** 2 + params.c
    w = n_val - j - r + k * n_val if v == "a" else j + (k + 1) * n_val
    return _pair(params.c, 2 * w + r, n_val)
