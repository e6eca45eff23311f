import pytest

from quadsieve import brute_sets, compare, element_at, make_params, oracle, trial_factor


def test_trial_factor_examples():
    assert trial_factor(1) == []
    assert trial_factor(325) == [(5, 2), (13, 1)]
    assert trial_factor(961) == [(31, 2)]
    assert trial_factor(2) == [(2, 1)]
    assert trial_factor(97) == [(97, 1)]


def test_trial_factor_rejects_non_positive():
    with pytest.raises(ValueError):
        trial_factor(0)
    with pytest.raises(ValueError):
        trial_factor(-6)


def test_trial_factor_round_trip():
    for n in range(1, 2000):
        prod = 1
        prev = 1
        for p, e in trial_factor(n):
            assert p > prev
            prev = p
            prod *= p**e
        assert prod == n


def test_brute_sets_examples():
    p_set, d_set = brute_sets(make_params(1), 10)
    assert len(p_set) == 7 and d_set == [5]
    p_set, d_set = brute_sets(make_params(3), 10)
    assert len(p_set) == 6 and d_set == [3, 7]
    assert brute_sets(make_params(1), 0) == ([], [])


def test_compare_matches_sieve():
    for c in (1, 61, 4):
        report = compare(make_params(c), 2000)
        assert report.matched
        assert report.first_divergence is None


def test_compare_agrees_with_brute_sets():
    from quadsieve import run_sieve

    for c in (2, 7):
        params = make_params(c)
        out = run_sieve(params, 300)
        assert (out.p_set, out.d_set) == brute_sets(params, 300)


def test_compare_stops_at_first_divergence(monkeypatch):
    params, k = make_params(4), 37
    bad_n = element_at(params, k).n
    real_factor, real_stream = oracle.trial_factor, oracle.factorizations
    pulled = []

    def spy_stream(*args, **kwargs):
        for rec in real_stream(*args, **kwargs):
            pulled.append(rec.j)
            yield rec

    def wrong_at_k(n):
        return real_factor(n) + [(3, 1)] if n == bad_n else real_factor(n)

    monkeypatch.setattr(oracle, "factorizations", spy_stream)
    monkeypatch.setattr(oracle, "trial_factor", wrong_at_k)
    report = compare(params, 2000)
    assert not report.matched
    j, rec, expected = report.first_divergence
    assert j == k and rec.n == bad_n and expected[-1] == (3, 1)
    assert pulled == list(range(k + 1))


def test_compare_calls_on_match_per_record():
    params = make_params(61)
    matched = []
    assert compare(params, 200, matched.append).matched
    assert [rec.j for rec in matched] == list(range(201))
