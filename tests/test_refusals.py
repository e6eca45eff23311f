import ast
import re
import shlex
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from quadsieve import FirstHit, cli, core, oracle, progressions, sieve, uz

P1 = core.make_params(1)
# at c = 1, 5 first divides N_1 = 2^2 + 1: x0 = 2, j0 = 1, cofactor 1
HIT_5 = FirstHit(5, 2, 1, 1)
# the 63-bit range message of element_at, here past j = 2**32
PAST_2_32 = "element at index 4294967296 exceeds the 63-bit range"

# each row: (call, exception type, its exact message)
LIBRARY_REFUSALS = {
    "params-c-zero": (lambda: core.make_params(0), ValueError,
        "family constant must be >= 1, got 0"),
    "params-c-negative": (lambda: core.make_params(-3), ValueError,
        "family constant must be >= 1, got -3"),
    "params-c-past-63-bits": (lambda: core.make_params(core.INT63_MAX + 1), OverflowError,
        "family constant 9223372036854775808 exceeds the 63-bit range"),
    "element-index-negative": (lambda: core.element_at(P1, -1), ValueError,
        "index must be >= 0, got -1"),
    "element-past-63-bits": (lambda: core.element_at(P1, 2**32), OverflowError, PAST_2_32),
    "index-wrong-parity-odd-c": (lambda: core.index_of(P1, 31), ValueError,
        "abscissa 31 does not belong to E_1"),
    "index-wrong-parity-even-c": (lambda: core.index_of(core.make_params(4), 30), ValueError,
        "abscissa 30 does not belong to E_4"),
    "index-negative-abscissa": (lambda: core.index_of(P1, -2), ValueError,
        "abscissa -2 does not belong to E_1"),
    "is-prime-negative": (lambda: core.is_prime(-2), ValueError,
        "primality test out of range: -2"),
    "is-prime-past-63-bits": (lambda: core.is_prime(core.INT63_MAX + 1), ValueError,
        "primality test out of range: 9223372036854775808"),
    "trial-factor-zero": (lambda: oracle.trial_factor(0), ValueError, "cannot factor 0"),
    "trial-factor-negative": (lambda: oracle.trial_factor(-6), ValueError, "cannot factor -6"),
    "first-hit-even-modulus": (lambda: progressions.first_occurrence(P1, 4), ValueError,
        "modulus must be odd and >= 1, got 4"),
    "first-hit-zero-modulus": (lambda: progressions.first_occurrence(P1, 0), ValueError,
        "modulus must be odd and >= 1, got 0"),
    "first-hit-modulus-past-63-bits": (lambda: progressions.first_occurrence(P1, 2**63 + 1),
        OverflowError, "modulus 9223372036854775809 exceeds the 63-bit range"),
    # 2305843009213693973 is a prime = 1 (mod 4) whose least even root of
    # X^2 = -1 passes isqrt(2^63 - 2)
    "first-hit-past-the-cap": (
        lambda: progressions.first_occurrence(P1, 2305843009213693973), OverflowError,
        "first element divisible by 2305843009213693973 leaves the 63-bit range"),
    # c = 2^63 - 17 leaves room for X <= 4 only, and 53 first divides
    # 6^2 + c = 2^63 + 19
    "first-hit-at-the-63-bit-edge": (
        lambda: progressions.first_occurrence(core.make_params(core.INT63_MAX - 16), 53),
        OverflowError, "first element divisible by 53 leaves the 63-bit range"),
    "sequence-non-divisor": (lambda: progressions.sequence_exists(P1, 3, HIT_5), ValueError,
        "3 does not divide modulus 5"),
    "sequence-zero-divisor": (lambda: progressions.sequence_exists(P1, 0, HIT_5), ValueError,
        "0 does not divide modulus 5"),
    "dual-composite": (lambda: progressions.dual_for_prime(P1, 9), ValueError,
        "9 is not an odd prime"),
    "dual-even-prime": (lambda: progressions.dual_for_prime(P1, 2), ValueError,
        "2 is not an odd prime"),
    "dual-power-exponent-zero": (lambda: progressions.dual_for_prime_power(P1, 5, 0),
        ValueError, "exponent must be >= 1, got 0"),
    "dual-power-past-63-bits": (lambda: progressions.dual_for_prime_power(P1, 3, 40),
        OverflowError, "modulus 3**40 exceeds the 63-bit range"),
    # at c = 25, 5 divides c and its two index progressions coincide
    "lift-degenerate": (
        lambda: progressions.lift_solutions(core.make_params(25), 5, 1, FirstHit(5, 0, 0, 5)),
        ValueError, "5**1 divides c = 25; the two branches degenerate"),
    "lift-hit-of-another-modulus": (lambda: progressions.lift_solutions(P1, 5, 2, HIT_5),
        ValueError, "hit describes modulus 5, expected 25"),
    # at c = 1, 3 divides no element and 5 does not divide N_0 = 1
    "lift-no-root": (lambda: progressions.lift_solutions(P1, 3, 1, FirstHit(3, 0, 0, 0)),
        ValueError, "index 0 holds no multiple of 3 for c = 1"),
    "lift-not-a-hit": (lambda: progressions.lift_solutions(P1, 5, 1, FirstHit(5, 7, 0, 0)),
        ValueError, "index 0 holds no multiple of 5 for c = 1"),
    "pair-odd-step": (lambda: uz.UZPair(acc=2, step0=3, u0=2, c=1), ValueError,
        "step0 must be even, got 3"),
    "pair-u0-parity": (lambda: uz.UZPair(acc=2, step0=-2, u0=1, c=1), ValueError,
        "u0 = 1 must have parity opposite to c = 1"),
    "pair-open-on-c": (lambda: uz.UZPair(acc=4, step0=-2, u0=2, c=1), ValueError,
        "coefficients do not close on c; the product identity "
        "U_n**2 + c = Z_n * Z_{n+1} would fail"),
    "terms-past-63-bits": (lambda: uz.UZPair(acc=2, step0=-2, u0=2, c=1).terms(2**32),
        OverflowError, "pair terms at n = 4294967296 exceed the 63-bit range"),
    # 3 does not divide 2^2 + 1 = 5
    "factorization-non-divisor": (lambda: uz.pair_from_factorization(P1, 2, 3), ValueError,
        "3 does not divide 5"),
    "factorization-wrong-parity": (lambda: uz.pair_from_factorization(P1, 3, 5), ValueError,
        "abscissa 3 does not belong to E_1"),
    "factorization-negative-abscissa": (lambda: uz.pair_from_factorization(P1, -2, 5),
        ValueError, "abscissa -2 does not belong to E_1"),
    # 5 divides N_j at j = 1, 4 (mod 5), and N_2 = 17
    "family-off-progression": (lambda: uz.family_coeffs(P1, HIT_5, 2, 0), ValueError,
        "index 2 is not on a divisor progression of 5"),
    # -1 reduces to index 4, which is on a progression of 5
    "family-negative-base": (lambda: uz.family_coeffs(P1, HIT_5, -1, 0), ValueError,
        "base_j and k must be >= 0, got base_j = -1, k = 0"),
    "family-negative-step": (lambda: uz.family_coeffs(P1, HIT_5, 1, -3), ValueError,
        "base_j and k must be >= 0, got base_j = 1, k = -3"),
    # UZPair itself cannot close on c >= 1 with acc = 0
    "z-values-acc-zero": (lambda: uz.z_values_distinct(SimpleNamespace(acc=0, step0=4)),
        ValueError, "degenerate pair with acc == 0"),
    "appendix-negative-j": (lambda: uz.appendix_pair(P1, -1, 0), ValueError,
        "j and k must be >= 0, got j = -1, k = 0"),
    "appendix-negative-k": (lambda: uz.appendix_pair(P1, 0, -1), ValueError,
        "j and k must be >= 0, got j = 0, k = -1"),
    "appendix-variant-unknown": (lambda: uz.appendix_pair(P1, 0, 0, "c"), ValueError,
        "variant must be 'a' or 'b', got 'c'"),
    "appendix-variant-upper-case": (lambda: uz.appendix_pair(P1, 0, 0, "B"), ValueError,
        "variant must be 'a' or 'b', got 'B'"),
    "run-negative-j-max": (lambda: sieve.run_sieve(P1, -1), ValueError,
        "j_max must be >= 0, got -1"),
    "run-past-63-bits": (lambda: sieve.run_sieve(P1, 2**32), OverflowError, PAST_2_32),
    "run-mark-past-j-max": (lambda: sieve.run_sieve(P1, 10, [11]), ValueError,
        "checkpoints must lie in [0, 10]"),
    "run-mark-negative": (lambda: sieve.run_sieve(P1, 10, [-1]), ValueError,
        "checkpoints must lie in [0, 10]"),
    "run-mark-float": (lambda: sieve.run_sieve(P1, 10, [5.7]), ValueError,
        "checkpoints must be integers, got 5.7"),
    "run-mark-str": (lambda: sieve.run_sieve(P1, 10, ["5"]), ValueError,
        "checkpoints must be integers, got '5'"),
    # operator.index(True) is 1, but a bool names no index
    "run-mark-bool": (lambda: sieve.run_sieve(P1, 10, [True, 10]), ValueError,
        "checkpoints must be integers, got True"),
    # no record is pulled: the stream refuses its arguments when called
    "stream-negative-j-max": (lambda: sieve.factorizations(P1, -1), ValueError,
        "j_max must be >= 0, got -1"),
    "stream-past-63-bits": (lambda: sieve.factorizations(P1, 2**32), OverflowError,
        PAST_2_32),
    # a prime first seen at index j is at least X = 2j + r, here 6
    "next-hits-prime-below-x": (lambda: sieve._next_hits(5, 3, 0), ValueError,
        "prime 5 is below X = 6 at index 3"),
    # the table stores j_max + 1 in an int32 index column
    "table-past-int32": (lambda: sieve.SieveState(P1, 2**31 - 1), OverflowError,
        "j_max 2147483647 leaves the int32 index column"),
}


@pytest.mark.parametrize("row", LIBRARY_REFUSALS.values(), ids=list(LIBRARY_REFUSALS))
def test_library_refuses(row):
    call, kind, message = row
    t0 = time.perf_counter()
    with pytest.raises(kind) as err:
        call()
    assert time.perf_counter() - t0 < 2.0
    assert (type(err.value), str(err.value)) == (kind, message)


# each row: (argv, the line it prints on stderr); of a line of argparse's,
# which starts "quadsieve", only the start through the argument's name is
# pinned, since argparse words its choices differently across versions
CLI_REFUSALS = {
    "run-c-zero": ("run --c 0 --J 5", "family constant must be >= 1, got 0"),
    "run-negative-j-max": ("run --c 1 --J -5", "j_max must be >= 0, got -5"),
    "run-past-63-bits": ("run --c 1 --J 4294967296", PAST_2_32),
    "run-mark-past-j-max": ("run --c 1 --J 10 --checkpoints 11",
        "checkpoints must lie in [0, 10]"),
    "run-marks-comma": ("run --c 1 --J 10 --checkpoints ,",
        "checkpoints must name at least one index"),
    "run-marks-spaced-comma": ("run --c 1 --J 10 --checkpoints ' , '",
        "checkpoints must name at least one index"),
    "run-marks-empty": ("run --c 1 --J 10 --checkpoints ''",
        "checkpoints must name at least one index"),
    "run-mark-not-an-integer": ("run --c 1 --J 5 --checkpoints 5,a",
        "checkpoints must be integers, got 'a'"),
    "run-without-j": ("run --c 1",
        "quadsieve run: error: the following arguments are required: --J"),
    "run-unknown-format": ("run --c 1 --J 10 --format xml",
        "quadsieve run: error: argument --format"),
    "unknown-command": ("bogus", "quadsieve: error: argument command"),
    "no-command": ("", "quadsieve: error: the following arguments are required: command"),
    "verify-c-zero": ("verify --c 0 --J 10", "family constant must be >= 1, got 0"),
    "verify-negative-j-max": ("verify --c 1 --J -1", "j_max must be >= 0, got -1"),
    "verify-past-63-bits": ("verify --c 1 --J 4294967296", PAST_2_32),
    # c = 1 has t = 1, and the second pair needs t >= 4 - r
    "special2-unavailable": ("uz-demo --c 1 --which special2",
        "the second distinguished pair needs t >= 4; c = 1 has t = 1"),
    "family-without-modulus": ("uz-demo --c 1 --which family",
        "--A is required with --which family"),
    "family-even-modulus": ("uz-demo --c 1 --which family --A 4",
        "modulus must be odd and >= 1, got 4"),
    # -1 is no square modulo 3
    "family-absent-divisor": ("uz-demo --c 1 --which family --A 3",
        "3 divides no element of the c = 1 family"),
    # 2**61 - 1 is a prime = 3 (mod 4), so -1 has no square root modulo it
    "family-large-absent-divisor": ("uz-demo --c 1 --which family --A 2305843009213693951",
        "2305843009213693951 divides no element of the c = 1 family"),
    "family-negative-base": ("uz-demo --c 1 --which family --A 5 --base-j -1",
        "base_j and k must be >= 0, got base_j = -1, k = 0"),
    "family-negative-step": ("uz-demo --c 1 --which family --A 5 --k -3",
        "base_j and k must be >= 0, got base_j = 1, k = -3"),
    "appendix-negative-j": ("uz-demo --c 1 --which appendix --j -1",
        "j and k must be >= 0, got j = -1, k = 0"),
    "appendix-variant-upper-case": ("uz-demo --c 1 --which appendix --variant B",
        "quadsieve uz-demo: error: argument --variant"),
    # the range check at n = hi + 1 = 2 fails before the header is printed
    "special1-past-63-bits": ("uz-demo --c 4611686018427387904 --which special1 --n 0..1",
        "pair terms at n = 2 exceed the 63-bit range"),
    "special2-past-63-bits": ("uz-demo --c 4611686018427387903 --which special2 --n 0..1",
        "pair terms at n = 2 exceed the 63-bit range"),
    "empty-term-range": ("uz-demo --c 1 --which special1 --n 5..1",
        "quadsieve uz-demo: error: argument --n: empty term range '5..1'"),
    "malformed-term-range": ("uz-demo --c 1 --which special1 --n abc",
        "quadsieve uz-demo: error: argument --n: expected lo..hi, got 'abc'"),
}


@pytest.mark.parametrize("row", CLI_REFUSALS.values(), ids=list(CLI_REFUSALS))
def test_cli_refuses(row, tmp_path, capsys):
    argv, line = shlex.split(row[0]), row[1]
    path = tmp_path / "rows.csv"
    argv += ["--factorizations", str(path)] if argv[:1] == ["run"] else []
    t0 = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - t0 < 2.0
    out, err = capsys.readouterr()
    assert out == ""
    if line.startswith("quadsieve"):
        assert err.splitlines()[-1].startswith(line)
    else:
        assert err == f"error: {line}\n"
    assert not path.exists()


def test_every_refusal_has_a_row():
    # each ValueError, OverflowError and ArgumentTypeError the package
    # raises, its message's literal parts joined by ".*?", matches a row
    messages = [row[-1] for row in [*LIBRARY_REFUSALS.values(), *CLI_REFUSALS.values()]]
    for source in Path(core.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = ast.unparse(node.exc.func).rpartition(".")[2]
                if name in ("ValueError", "OverflowError", "ArgumentTypeError"):
                    site = (source.name, node.lineno)
                    assert len(node.exc.args) == 1, site
                    (text,) = node.exc.args
                    parts = text.values if isinstance(text, ast.JoinedStr) else [text]
                    pattern = ".*?".join(re.escape(p.value) for p in parts
                                         if isinstance(p, ast.Constant))
                    # a message with no literal text cannot be matched to a row
                    assert pattern, site
                    assert any(re.search(pattern, m) for m in messages), (*site, pattern)
