"""Command-line front end.

Three subcommands: "run" sieves a family up to an index bound and
emits checkpoint counts (plus optional per-element factorizations),
"verify" checks each record of one pass against the trial-division
oracle as it is produced, and "uz-demo" prints terms of the
factorization-generating sequence pairs together with the product
identity check.

Exit codes: 0 success, 1 verification or I/O failure, 2 usage or range error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import nullcontext

from .core import make_params
from .oracle import compare
from .progressions import first_occurrence
from .sieve import SieveError, run_sieve, validate_run
from .uz import (
    appendix_pair,
    family_coeffs,
    special_pair_one,
    special_pair_two,
)

_RANGE = re.compile(r"^-?\d+\.\.-?\d+$")


def render_factors(factors) -> str:
    """Render ((p1, a1), (p2, a2), ...) as p1^a1*p2^a2, with bare p
    for exponent 1 and the empty string for no factors."""
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


def _render_record(rec) -> str:
    return f"{rec.j},{rec.x},{rec.n},{render_factors(rec.factors)}"


def _parse_n_range(text: str) -> tuple[int, int]:
    if not _RANGE.match(text):
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")
    lo_text, hi_text = text.split("..", 1)
    lo, hi = int(lo_text), int(hi_text)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty term range {text!r}")
    return lo, hi


def _checkpoint(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"checkpoints must be integers, got {text.strip()!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadsieve",
        description="Factorization sieve and sequence pairs for the "
        "families E_c = {X^2 + c : X opposite parity to c}.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="factor all elements up to an index bound and count primes"
    )
    run.add_argument("--c", type=int, required=True, help="family constant, >= 1")
    run.add_argument(
        "--J", type=int, required=True, dest="j_max", help="largest index to factor"
    )
    run.add_argument(
        "--checkpoints",
        default=None,
        metavar="J1,J2,...",
        help="indices at which to report counts (default: J)",
    )
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument(
        "--factorizations",
        metavar="PATH",
        help="also write per-element rows j,X,N,factorization to PATH",
    )
    run.add_argument(
        "--stats",
        metavar="PATH",
        help="write checkpoint rows to PATH instead of stdout",
    )
    run.add_argument(
        "--verify",
        action="store_true",
        help="confirm each cofactor prime as the run goes and re-multiply "
        "written factorization rows",
    )

    ver = sub.add_parser(
        "verify", help="compare a full run against trial-division ground truth"
    )
    ver.add_argument("--c", type=int, required=True, help="family constant, >= 1")
    ver.add_argument(
        "--J", type=int, required=True, dest="j_max", help="largest index to check"
    )
    ver.add_argument(
        "--verbose", action="store_true", help="print every matched record"
    )

    demo = sub.add_parser(
        "uz-demo", help="print sequence pair terms with the product identity check"
    )
    demo.add_argument("--c", type=int, required=True, help="family constant, >= 1")
    demo.add_argument(
        "--which",
        choices=("special1", "special2", "family", "appendix"),
        required=True,
        help="which pair construction to evaluate",
    )
    demo.add_argument(
        "--n",
        type=_parse_n_range,
        default=(0, 5),
        metavar="LO..HI",
        help="term range; a negative bound works as --n -2..2 or --n=-2..2",
    )
    demo.add_argument(
        "--A",
        type=int,
        dest="modulus",
        help="family: divisor whose index progression to follow",
    )
    demo.add_argument(
        "--base-j",
        type=int,
        default=None,
        help="family: index the progression starts from (default: first occurrence)",
    )
    demo.add_argument(
        "--k", type=int, default=0, help="family/appendix: step along the progression"
    )
    demo.add_argument(
        "--j", type=int, default=0, help="appendix: index of the source element"
    )
    demo.add_argument(
        "--variant",
        choices=("a", "b"),
        default="a",
        help="appendix: which coefficient variant to use",
    )
    return ap


def _cmd_run(args) -> int:
    if args.checkpoints is None:
        marks = [args.j_max]
    else:
        tokens = filter(str.strip, args.checkpoints.split(","))
        marks = sorted(set(map(_checkpoint, tokens)))
        if not marks:
            raise ValueError("checkpoints must name at least one index")
    params = make_params(args.c)
    # checked before any output file is opened, so a rejected run writes none;
    # both are opened before the sieve starts, so an unwritable path fails at once
    validate_run(params, args.j_max, marks)
    path = args.factorizations
    with (
        open(path, "w") if path else nullcontext() as fh,
        open(args.stats, "w") if args.stats else nullcontext(sys.stdout) as stats,
    ):
        if fh:
            fh.write("j,X,N,factorization\n")
        row = lambda rec: fh.write(f"{_render_record(rec)}\n")
        out = run_sieve(
            params, args.j_max, marks, on_record=row if fh else None, verify=args.verify
        )
        rows = [
            (cp.j, cp.p_count, cp.d_count, f"{cp.elapsed_seconds:.3f}")
            for cp in out.checkpoints
        ]
        if args.format == "csv":
            text = "J,P_count,D_count,elapsed_seconds\n"
            text += "".join(f"{j},{p},{d},{t}\n" for j, p, d, t in rows)
        else:
            keys = ("J", "p_count", "d_count", "elapsed_seconds")
            dicts = [dict(zip(keys, (j, p, d, float(t)))) for j, p, d, t in rows]
            text = json.dumps(dicts, indent=2) + "\n"
        stats.write(text)
    if path and args.verify:
        _audit_factorization_file(path)
    return 0


def _audit_factorization_file(path: str) -> None:
    """Re-read a factorization CSV and multiply every row back together."""
    with open(path) as fh:
        next(fh)
        for line in fh:
            j, _x, n, rendered = line.rstrip("\n").split(",")
            prod = 1
            if rendered:
                for part in rendered.split("*"):
                    base, _, exp = part.partition("^")
                    prod *= int(base) ** int(exp or 1)
            if prod != int(n):
                raise SieveError(
                    f"factorization row for index {j} does not multiply back to {n}"
                )


def _cmd_verify(args) -> int:
    params = make_params(args.c)
    show = lambda rec: print(f"{_render_record(rec)},ok")
    report = compare(params, args.j_max, show if args.verbose else None)
    if not report.matched:
        j, sieve_rec, oracle_factors = report.first_divergence
        print(f"divergence at index {j}", file=sys.stderr)
        print(f"  sieve:  {sieve_rec}", file=sys.stderr)
        print(f"  oracle: {oracle_factors}", file=sys.stderr)
        return 1
    print(
        f"verified: c={args.c} J={args.j_max}, "
        f"{args.j_max + 1} records match the oracle"
    )
    return 0


def _select_pair(params, args):
    if args.which == "special1":
        return special_pair_one(params)
    if args.which == "special2":
        pair = special_pair_two(params)
        if pair is None:
            raise ValueError(
                f"the second distinguished pair needs t >= {4 - params.r}; "
                f"c = {params.c} has t = {params.t}"
            )
        return pair
    if args.which == "family":
        if args.modulus is None:
            raise ValueError("--A is required with --which family")
        hit = first_occurrence(params, args.modulus)
        if hit is None:
            raise ValueError(
                f"{args.modulus} divides no element of the c = {params.c} family"
            )
        base = hit.j0 if args.base_j is None else args.base_j
        return family_coeffs(params, hit, base, args.k)
    return appendix_pair(params, args.j, args.k, args.variant)


def _cmd_uz_demo(args) -> int:
    params = make_params(args.c)
    pair = _select_pair(params, args)
    lo, hi = args.n
    # the two ends raise any range error before the header and decide the
    # range: acc > 0 and Z_n > 0 (uz._pair), so Z_n is convex, largest at lo
    # or hi + 1, and inside U_n**2 < Z_n * Z_{n+1} <= (2**63 - 1)**2
    (u, z), last = pair.terms(lo), pair.terms(hi + 1)
    failed = False
    print("n,U_n,Z_n,check")
    for n in range(lo, hi + 1):
        u_next, z_next = pair.terms(n + 1) if n < hi else last
        ok = u * u + params.c == z * z_next
        failed = failed or not ok
        print(f"{n},{u},{z},{'ok' if ok else 'FAIL'}")
        u, z = u_next, z_next
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, tok in enumerate(argv):
        if tok == "--n" and i + 1 < len(argv) and _RANGE.match(argv[i + 1]):
            argv[i : i + 2] = ["--n=" + argv[i + 1]]
            break
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_uz_demo(args)
    except SieveError as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
