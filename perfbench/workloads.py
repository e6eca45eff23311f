"""Workloads of the quadsieve benchmark and the checks on their outputs.

Every workload is a closed loop with one client: a pass runs its steps
one after another, each in one child process, and the next pass starts
when the last step has exited.  Each workload puts most of its work
into one layer; README.md says which, and which change it should show.

The checks here share no code with quadsieve: counts and digests are
pinned from the paper or from the seed program, and first-hit results
are checked against roots found with Euler's criterion, Tonelli-Shanks
and a Hensel lift.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1
# Terms of each first-hit family pair the driver evaluates; n = 0 and 1
# give the first hit itself (U_0 = x0, Z_0 = a, Z_1 = cofactor).
FAMILY_TERMS = range(-2, 4)
CSV_HEADER = "J,P_count,D_count,elapsed_seconds"

# audit-records: c = 61 has a self-dual progression (61 | c).
AUDIT_C, AUDIT_J, AUDIT_EVERY = 61, 12500, 250
VERIFY_C, VERIFY_J = 4, 5000
AUDIT_ROWS_SHA256 = "b9294b00569a1aea98dd90972d1df669d09a7af4f47b9ba00eebc46b21908070"
AUDIT_CSV_SHA256 = "66c156f3f9fb641116b2c53b3dc8e2144fdc3dfb7a733f838455822d383490d4"
VERIFY_OUT_SHA256 = "40de9a8101b4e67aaff5ce59c06abf88685fbe100273217f9c048ec9486e03b2"

# first-hit: the scan first_occurrence makes is as long as the first
# root x0, or the whole modulus a when there is none, so the cost of a
# pass is dominated by its largest moduli.  To keep that cost the same
# for every seed, log10(a) is stratified (one call per stratum), each
# couple of adjacent strata holds one modulus with a root and one
# without, and the roots of consecutive couples sit near x0/a = v and
# 1 - v for a random v.
FIRST_HIT_PAIRS = 200
FIRST_HIT_C_MAX = 10**6
FIRST_HIT_LOG10_A = (3.0, 7.3)
FIRST_HIT_SQUARE_SHARE = 0.25
FIRST_HIT_SPOT_WIDTH = 0.02
FIRST_HIT_SEED1_SHA256 = "8f47fd163bd7fb0f4b4176981524c20fb2d7ceeb5012fe8b8ffa354f2cb82f0f"


@dataclass(frozen=True)
class Step:
    """One operation of a pass.

    kind "cli" runs `quadsieve *args`; kind "first-hit" runs the
    first-hit driver on the inputs file args[0], which makes ops calls.
    check takes the exit code and standard output and returns how many
    of the ops failed.
    """

    kind: str
    args: tuple[str, ...]
    ops: int
    check: Callable[[int, str], int]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Callable[[int, str], list[Step]]  # (seed, scratch dir) -> steps
    # (label, predicate on the traced per-layer metrics) pairs that hold
    # when the workload isolates the layer it was chosen for.
    isolation: tuple[tuple[str, Callable[[dict], bool]], ...]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def count_rows(stdout: str) -> list[tuple[int, int, int]] | None:
    """(J, P_count, D_count) of each CSV row `quadsieve run` printed."""
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    try:
        return [tuple(int(v) for v in line.split(",")[:3]) for line in lines[1:]]
    except ValueError:
        return None


def _run_steps(c: int, j_max: int, p_count: int, d_count: int):
    """Steps of a workload that is one `quadsieve run` with known counts."""

    def check(code: int, stdout: str) -> int:
        return int(code != 0 or count_rows(stdout) != [(j_max, p_count, d_count)])

    return lambda seed, scratch: [Step("cli", ("run", "--c", str(c), "--J", str(j_max)), 1, check)]


def _audit_steps(seed: int, scratch: str) -> list[Step]:
    csv_path = os.path.join(scratch, "factorizations.csv")
    marks = ",".join(str(j) for j in range(AUDIT_EVERY, AUDIT_J + 1, AUDIT_EVERY))

    def check_run(code: int, stdout: str) -> int:
        try:
            csv_sha = sha256_file(csv_path)
            os.remove(csv_path)
        except OSError:
            return 1
        return int(
            code != 0
            or sha256_text(repr(count_rows(stdout))) != AUDIT_ROWS_SHA256
            or csv_sha != AUDIT_CSV_SHA256
        )

    def check_verify(code: int, stdout: str) -> int:
        verified = f"verified: c={VERIFY_C} J={VERIFY_J}, {VERIFY_J + 1} records match the oracle\n"
        return int(
            code != 0
            or not stdout.endswith(verified)
            or sha256_text(stdout) != VERIFY_OUT_SHA256
        )

    return [
        Step(
            "cli",
            ("run", "--c", str(AUDIT_C), "--J", str(AUDIT_J), "--checkpoints", marks,
             "--factorizations", csv_path, "--verify"),
            1,
            check_run,
        ),
        Step("cli", ("verify", "--c", str(VERIFY_C), "--J", str(VERIFY_J), "--verbose"),
             1, check_verify),
    ]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.2e9 (bases 2, 3, 5, 7)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def has_root(c: int, q: int, e: int) -> bool:
    """Whether X**2 = -c has a solution mod q**e, for an odd prime q and
    e in {1, 2}: Euler's criterion when q does not divide c (a root mod
    q lifts to q**2), else X = 0 mod q, which needs q**e | c."""
    if c % q == 0:
        return c % q**e == 0
    return pow(-c % q, (q - 1) // 2, q) == 1


def _sqrt_mod_prime(n: int, q: int) -> int:
    """A square root of the quadratic residue n mod the odd prime q
    (Tonelli-Shanks)."""
    n %= q
    s, d = 0, q - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    m, cz, t, x = s, pow(z, d, q), pow(n, d, q), pow(n, (d + 1) // 2, q)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % q
        b = pow(cz, 1 << (m - i - 1), q)
        m, cz, t, x = i, b * b % q, t * b * b % q, x * b % q
    return x


def smallest_root(c: int, q: int, e: int) -> int | None:
    """Smallest abscissa x >= 0 of the family parity r = 1 - c % 2 with
    q**e | x**2 + c, for an odd prime q and e in {1, 2}; None if none.

    When q does not divide c there are two roots mod a = q**e, s and
    a - s (Hensel-lifted from mod q); they have opposite parity, so the
    one of parity r is the only candidate in [0, a].  When q | c the
    roots are the multiples of q, the smallest of parity r being r*q.
    """
    if not has_root(c, q, e):
        return None
    r = 1 - c % 2
    if c % q == 0:
        return r * q
    a = q**e
    s = _sqrt_mod_prime(-c, q)
    if e == 2:
        s = (s - (s * s + c) * pow(2 * s, -1, a)) % a
    return s if s % 2 == r else a - s


def first_hit_inputs(seed: int) -> list[tuple[int, int, int, int]]:
    """FIRST_HIT_PAIRS tuples (c, a, q, e) with a = q**e a prime or
    (with FIRST_HIT_SQUARE_SHARE) a prime square and c in
    [1, FIRST_HIT_C_MAX], drawn as the comment on FIRST_HIT_PAIRS says."""
    rng = random.Random(seed)
    lo, hi = FIRST_HIT_LOG10_A
    out = []
    for couple in range(FIRST_HIT_PAIRS // 2):
        spot = rng.random() if couple % 2 == 0 else 1 - spot
        for slot, want_root in enumerate(rng.sample((True, False), 2)):
            stratum = 2 * couple + slot
            target = 10 ** (lo + (hi - lo) * (stratum + rng.random()) / FIRST_HIT_PAIRS)
            if rng.random() < FIRST_HIT_SQUARE_SHARE:
                q, e = _next_prime(math.isqrt(int(target)) + 1), 2
            else:
                q, e = _next_prime(int(target)), 1
            while True:
                c = rng.randint(1, FIRST_HIT_C_MAX)
                x0 = smallest_root(c, q, e)
                if x0 is None and not want_root:
                    break
                if x0 is not None and want_root and abs(x0 / q**e - spot) <= FIRST_HIT_SPOT_WIDTH:
                    break
            out.append((c, q**e, q, e))
    return out


def hit_ok(c: int, a: int, q: int, e: int, res: dict | None) -> bool:
    """Check one first_occurrence result against smallest_root, and the
    family pair's terms: they must close on c and start at (x0, a, b)."""
    x0 = smallest_root(c, q, e)
    if res is None or x0 is None:
        return res is None and x0 is None
    r = 1 - c % 2
    if (res["x0"], res["j0"], res["b"] * a) != (x0, (x0 - r) // 2, x0 * x0 + c):
        return False
    terms = res["terms"]
    zero = FAMILY_TERMS.index(0)
    (u0, z0), (_, z1) = terms[zero], terms[zero + 1]
    return (u0, z0, z1) == (x0, a, res["b"]) and all(
        u * u + c == z * z_next for (u, z), (_, z_next) in zip(terms, terms[1:])
    )


def first_hit_digest(inputs, results) -> str:
    """Digest of the (c, a, x0 or None) list of one pass."""
    return sha256_text(
        json.dumps([[c, a, res and res["x0"]] for (c, a, _, _), res in zip(inputs, results)])
    )


def _first_hit_steps(seed: int, scratch: str) -> list[Step]:
    inputs = first_hit_inputs(seed)
    path = os.path.join(scratch, "first_hit_inputs.json")
    with open(path, "w") as fh:
        json.dump([[c, a] for c, a, _, _ in inputs], fh)

    def check(code: int, stdout: str) -> int:
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError, TypeError):
            return len(inputs)
        if code != 0 or len(results) != len(inputs):
            return len(inputs)
        if seed == DEFAULT_SEED and first_hit_digest(inputs, results) != FIRST_HIT_SEED1_SHA256:
            return len(inputs)
        return sum(not hit_ok(*inp, res) for inp, res in zip(inputs, results))

    return [Step("first-hit", (path,), len(inputs), check)]


def _share(part: str, whole: str, limit: float):
    return lambda m: m[part] <= limit * m[whole]


_NO_FIRST_HIT = ("no first_occurrence calls",
                 lambda m: m["progressions.first_occurrence.calls"] == 0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "c1-progression",
            _run_steps(1, 50000, 6655, 2549),
            (_NO_FIRST_HIT,
             ("head_s < 1% of run_sieve_s", _share("sieve.head_s", "sieve.run_sieve_s", 0.01))),
        ),
        Workload(
            "head-trial",
            _run_steps(80002, 20000, 2818, 1158),
            (_NO_FIRST_HIT,
             ("progression_s < 1% of run_sieve_s",
              _share("sieve.progression_s", "sieve.run_sieve_s", 0.01))),
        ),
        Workload("audit-records", _audit_steps, (_NO_FIRST_HIT,)),
        Workload(
            "first-hit",
            _first_hit_steps,
            (("no run_sieve calls", lambda m: m["sieve.run_sieve.calls"] == 0),),
        ),
    )
}
