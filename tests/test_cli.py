import json
import time

import pytest

from quadsieve import cli, oracle
from quadsieve.cli import main, render_factors
from reference import run_python


def run_cli(*argv):
    return main(list(argv))


def test_render_factors():
    assert render_factors(()) == ""
    assert render_factors(((5, 1),)) == "5"
    assert render_factors(((5, 2), (13, 1))) == "5^2*13"


def test_run_head_counts(capsys):
    # J = J_c for c = 80002, so every element is factored in the head
    assert run_cli("run", "--c", "80002", "--J", "20000") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "J,P_count,D_count,elapsed_seconds"
    assert lines[1].startswith("20000,2818,1158,")


def test_run_zero_length(capsys):
    assert run_cli("run", "--c", "1", "--J", "0") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("0,0,0,")


def test_run_factorization_file(tmp_path, capsys):
    path = tmp_path / "factors.csv"
    assert run_cli("run", "--c", "1", "--J", "10", "--factorizations", str(path)) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == "j,X,N,factorization"
    assert len(lines) == 12
    assert lines[1] == "0,0,1,"
    assert lines[5] == "4,8,65,5*13"
    assert lines[10] == "9,18,325,5^2*13"


def test_run_factorization_file_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("run", "--c", "7", "--J", "200", "--factorizations", str(a))
    run_cli("run", "--c", "7", "--J", "200", "--factorizations", str(b))
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_run_stats_deterministic_modulo_elapsed(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("run", "--c", "3", "--J", "500", "--checkpoints", "100,500", "--stats", str(a))
    run_cli("run", "--c", "3", "--J", "500", "--checkpoints", "100,500", "--stats", str(b))
    capsys.readouterr()
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert strip(a.read_text()) == strip(b.read_text())


def test_run_json_format(capsys):
    assert run_cli("run", "--c", "1", "--J", "100", "--format", "json",
                   "--checkpoints", "50,100") == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["J"] for row in rows] == [50, 100]
    for row in rows:
        assert set(row) == {"J", "p_count", "d_count", "elapsed_seconds"}
    assert rows[1]["p_count"] >= rows[0]["p_count"]


def test_run_checkpoints_normalized(capsys):
    assert run_cli("run", "--c", "1", "--J", "100", "--checkpoints", "100,50,50") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["50", "100"]


def test_run_with_verification_audit(tmp_path, capsys):
    path = tmp_path / "factors.csv"
    assert run_cli("run", "--c", "3", "--J", "300", "--verify",
                   "--factorizations", str(path)) == 0
    capsys.readouterr()
    assert len(path.read_text().splitlines()) == 302


def test_run_verify_audit_catches_a_corrupt_row(tmp_path, capsys, monkeypatch):
    # the audit re-reads the written file, so a row that leaves the
    # record right but renders it wrong still fails the run
    real = cli._render_record
    corrupt = lambda rec: real(rec) + ("*3" if rec.j == 7 else "")
    monkeypatch.setattr(cli, "_render_record", corrupt)
    path = tmp_path / "factors.csv"
    assert run_cli("run", "--c", "3", "--J", "20", "--verify",
                   "--factorizations", str(path)) == 1
    assert capsys.readouterr().err == (
        "verification failure: factorization row for index 7 does not multiply back to 199\n"
    )
    assert "7,14,199,199*3\n" in path.read_text()


def test_run_usage_and_range_errors(capsys):
    assert run_cli("run", "--c", "0", "--J", "5") == 2
    assert run_cli("run", "--c", "1", "--J", "-5") == 2
    assert run_cli("run", "--c", "1", "--J", "10", "--checkpoints", "11") == 2
    for names_no_index in (",", " , ", ""):
        assert run_cli("run", "--c", "1", "--J", "10", "--checkpoints", names_no_index) == 2
    assert run_cli("run", "--c", "1", "--J", "5", "--checkpoints", "5,a") == 2
    assert run_cli("run", "--c", "1") == 2
    assert run_cli("run", "--c", "1", "--J", "10", "--format", "xml") == 2
    assert run_cli("bogus") == 2
    assert run_cli() == 2
    # each of them fails before the CSV header
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: checkpoints must be integers, got 'a'\n" in captured.err


def test_run_overflowing_range(capsys):
    assert run_cli("run", "--c", "1", "--J", str(2**32)) == 2
    assert "error:" in capsys.readouterr().err


def test_run_stats_io_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "missing" / "stats.csv"
    assert run_cli("run", "--c", "1", "--J", "10", "--stats", str(path)) == 1
    capsys.readouterr()
    # the stats file is opened before the sieve starts, not after a long
    # run, and a run that fails leaves a writable one empty
    def fail(*args, **kwargs):
        raise cli.SieveError("the sieve failed")

    monkeypatch.setattr(cli, "run_sieve", fail)
    assert run_cli("run", "--c", "1", "--J", "10", "--stats", str(path)) == 1
    err = capsys.readouterr().err
    assert "No such file or directory" in err and "the sieve failed" not in err
    path = tmp_path / "stats.csv"
    assert run_cli("run", "--c", "1", "--J", "10", "--stats", str(path)) == 1
    assert "the sieve failed" in capsys.readouterr().err
    assert path.read_text() == ""


def test_verify_ok(capsys):
    assert run_cli("verify", "--c", "3", "--J", "10") == 0
    out = capsys.readouterr().out
    assert "verified" in out


def test_verify_verbose_lists_records(capsys):
    assert run_cli("verify", "--c", "3", "--J", "10", "--verbose") == 0
    lines = capsys.readouterr().out.splitlines()
    matched = [line for line in lines if line.endswith(",ok")]
    assert len(matched) == 11
    assert matched[3] == "3,6,39,3*13,ok"


def test_verify_verbose_makes_one_pass(monkeypatch, capsys):
    passes = []
    real_stream = oracle.factorizations

    def spy_stream(*args, **kwargs):
        passes.append(args)
        return real_stream(*args, **kwargs)

    def no_run(*args, **kwargs):
        raise AssertionError("verify must not start a second sieve run")

    monkeypatch.setattr(oracle, "factorizations", spy_stream)
    monkeypatch.setattr(cli, "run_sieve", no_run)
    assert run_cli("verify", "--c", "3", "--J", "10", "--verbose") == 0
    assert len(passes) == 1
    assert capsys.readouterr().out == (
        "0,0,3,3,ok\n"
        "1,2,7,7,ok\n"
        "2,4,19,19,ok\n"
        "3,6,39,3*13,ok\n"
        "4,8,67,67,ok\n"
        "5,10,103,103,ok\n"
        "6,12,147,3*7^2,ok\n"
        "7,14,199,199,ok\n"
        "8,16,259,7*37,ok\n"
        "9,18,327,3*109,ok\n"
        "10,20,403,13*31,ok\n"
        "verified: c=3 J=10, 11 records match the oracle\n"
    )


def test_verify_reports_the_first_divergence(monkeypatch, capsys):
    real = oracle.trial_factor
    monkeypatch.setattr(oracle, "trial_factor", lambda n: [(n, 1)] if n == 39 else real(n))
    assert run_cli("verify", "--c", "3", "--J", "10") == 1
    captured = capsys.readouterr()
    assert "verified:" not in captured.out
    assert captured.err == (
        "divergence at index 3\n"
        "  sieve:  FactorizationRecord(j=3, x=6, n=39, factors=((3, 1), (13, 1)))\n"
        "  oracle: ((39, 1),)\n"
    )


def test_verify_range_error(capsys):
    assert run_cli("verify", "--c", "0", "--J", "10") == 2
    capsys.readouterr()


def test_uz_demo_special2(capsys):
    assert run_cli("uz-demo", "--c", "15", "--which", "special2", "--n", "-2..2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,U_n,Z_n,check"
    assert len(lines) == 6
    assert lines[3] == "0,6,3,ok"


def test_uz_demo_special1_repeats_unit(capsys):
    assert run_cli("uz-demo", "--c", "1", "--which", "special1", "--n", "0..1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "0,0,1,ok"
    assert lines[2] == "1,2,1,ok"


def test_uz_demo_special2_unavailable(capsys):
    assert run_cli("uz-demo", "--c", "1", "--which", "special2") == 2
    assert "error:" in capsys.readouterr().err


def test_uz_demo_family(capsys):
    assert run_cli("uz-demo", "--c", "1", "--which", "family", "--A", "5",
                   "--k", "1", "--n", "0..3") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "0,12,5,ok"
    assert all(line.endswith(",ok") for line in lines[1:])


def test_uz_demo_family_needs_modulus(capsys):
    assert run_cli("uz-demo", "--c", "1", "--which", "family") == 2
    capsys.readouterr()


def test_uz_demo_family_rejects_absent_divisor(capsys):
    assert run_cli("uz-demo", "--c", "1", "--which", "family", "--A", "3") == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", [("--base-j", "-1"), ("--k", "-3")])
def test_uz_demo_family_rejects_negative_index_or_step(capsys, flag):
    assert run_cli("uz-demo", "--c", "1", "--which", "family", "--A", "5", *flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_uz_demo_family_answers_large_absent_divisor_at_once(capsys):
    # 2**61 - 1 is a prime = 3 (mod 4), so -1 has no square root modulo it
    t0 = time.perf_counter()
    assert run_cli("uz-demo", "--c", "1", "--which", "family",
                   "--A", "2305843009213693951") == 2
    assert time.perf_counter() - t0 < 2.0
    assert "divides no element" in capsys.readouterr().err


def test_uz_demo_appendix(capsys):
    assert run_cli("uz-demo", "--c", "1", "--which", "appendix", "--j", "1",
                   "--variant", "b", "--n", "0..4") == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(",ok") for line in lines[1:])


@pytest.mark.parametrize(
    "c, which", [(2**62, "special1"), (2**62 - 1, "special2")]
)
def test_uz_demo_range_error_prints_no_row(capsys, c, which):
    assert run_cli("uz-demo", "--c", str(c), "--which", which, "--n", "0..1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "63-bit" in captured.err


def test_uz_demo_rejects_a_long_range_at_once():
    # U_n = 2n^2 at c = 1 leaves 63 bits at n = 2^31; the range is
    # rejected from its two ends, not after walking 2^31 terms to the edge
    done = run_python("-m", "quadsieve", "uz-demo", "--c", "1",
                      "--which", "special1", "--n", "0..3000000000", timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "63-bit" in done.stderr


def test_uz_demo_bad_range(capsys):
    assert run_cli("uz-demo", "--c", "1", "--which", "special1", "--n", "5..1") == 2
    assert run_cli("uz-demo", "--c", "1", "--which", "special1", "--n", "abc") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "bad",
    [
        ("--J", "10", "--checkpoints", "11"),
        ("--J", "-5"),
        ("--J", "10", "--checkpoints", ","),
        ("--J", "4294967296"),
    ],
)
def test_rejected_run_writes_no_file(tmp_path, capsys, bad):
    path = tmp_path / "rows.csv"
    assert run_cli("run", "--c", "1", "--factorizations", str(path), *bad) == 2
    assert "error:" in capsys.readouterr().err
    assert not path.exists()


NUMPY_PROBE = """
import sys
import quadsieve.cli
from quadsieve import first_occurrence, make_params
first_occurrence(make_params(1), 65)
quadsieve.cli.main(["uz-demo", "--c", "15", "--which", "special2", "--n=-2..2"])
quadsieve.cli.main(["run", "--c", "80002", "--J", "20000"])
print("numpy" in sys.modules)
quadsieve.cli.main(["run", "--c", "80002", "--J", "20001"])
print("numpy" in sys.modules)
"""


def test_only_the_progression_phase_loads_numpy():
    # pins the progression table, the one user of numpy: flips with it in stage B
    done = run_python("-c", NUMPY_PROBE, check=True)
    loaded = [line for line in done.stdout.splitlines() if line in ("False", "True")]
    assert loaded == ["False", "True"]
