"""Brute-force references the tests share.

Each helper computes its answer directly, from the definitions, and
imports nothing from quadsieve, so a test that compares the package with
one of them compares two independent computations.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def eratosthenes(limit):
    """All primes <= limit, ascending, by the classic sieve."""
    composite = bytearray(limit + 1)
    primes = []
    for n in range(2, limit + 1):
        if not composite[n]:
            primes.append(n)
            for m in range(n * n, limit + 1, n):
                composite[m] = 1
    return primes


def brute_hit_indices(c, modulus, j_hi):
    """Indices j <= j_hi whose element X^2 + c, X = 2j + r, is divisible
    by modulus, by scanning every one."""
    r = 1 - c % 2
    js = np.arange(j_hi + 1, dtype=np.int64)
    xs = 2 * js + r
    return set(js[(xs * xs + c) % modulus == 0].tolist())


def divisors_of(n):
    """Every positive divisor of n, ascending."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def run_python(*args, **kwargs):
    """Run `python *args` in a child process that imports quadsieve from
    this checkout's src, capturing its output as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        **kwargs,
    )
