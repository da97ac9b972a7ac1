import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellbeam import metrics
from cellbeam.errors import ContractViolation


# -- CCDF ---------------------------------------------------------------------

def test_ccdf_counts_strictly_greater():
    points = metrics.ccdf(np.array([1.0, 2.0, 3.0]), [2.0])
    assert points == [(2.0, pytest.approx(1.0 / 3.0))]


def test_ccdf_endpoints():
    samples = np.array([5.0, 6.0, 7.0])
    (lo, p_lo), (hi, p_hi) = metrics.ccdf(samples, [0.0, 10.0])
    assert p_lo == 1.0 and p_hi == 0.0


def test_ccdf_monotone_nonincreasing():
    rng = np.random.default_rng(0)
    for _ in range(20):
        samples = rng.normal(size=rng.integers(1, 200)) * 10
        grid = np.sort(rng.uniform(-30, 30, size=25))
        probs = [p for _, p in metrics.ccdf(samples, grid)]
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert all(a >= b for a, b in zip(probs, probs[1:]))



# half-dB steps make samples tie with each other and with thresholds
_HALF_DB = st.integers(-80, 80).map(lambda k: k / 2.0)


@given(st.lists(_HALF_DB | st.floats(-50.0, 50.0), min_size=1, max_size=300),
       st.lists(_HALF_DB, min_size=1, max_size=40))
def test_ccdf_equals_a_per_threshold_count(samples, grid):
    values = np.array(samples)
    reference = [(float(x), float(np.mean(values > x))) for x in np.array(grid)]
    assert metrics.ccdf(values, grid) == reference

def test_ccdf_rejects_empty():
    with pytest.raises(ContractViolation):
        metrics.ccdf(np.array([]), [0.0])


# -- sum rate -------------------------------------------------------------------

def test_sum_rate_unit_gammas():
    assert metrics.sum_rate(np.array([[1.0, 1.0]])) == pytest.approx(2.0)


def test_sum_rate_zero_gammas():
    assert metrics.sum_rate(np.zeros((5, 2))) == 0.0


def test_sum_rate_two_step_hand_computed():
    gammas = np.array([[1.0, 3.0], [0.0, 7.0]])
    expected = (math.log2(2) + math.log2(4) + math.log2(1) + math.log2(8)) / 2
    assert metrics.sum_rate(gammas) == pytest.approx(expected)


def test_sum_rate_extended_horizon_pads_zero_rate():
    gammas = np.array([[1.0, 1.0]])
    assert metrics.sum_rate(gammas, horizon=4) == pytest.approx(0.5)
    with pytest.raises(ContractViolation):
        metrics.sum_rate(np.ones((5, 2)), horizon=3)


def test_sum_rate_rejects_nan_and_negative():
    with pytest.raises(ContractViolation):
        metrics.sum_rate(np.array([[float("nan"), 1.0]]))
    with pytest.raises(ContractViolation):
        metrics.sum_rate(np.array([[-0.5, 1.0]]))


def test_sum_rate_monotone_in_gamma():
    rng = np.random.default_rng(1)
    for _ in range(20):
        gammas = rng.uniform(0, 30, size=(10, 2))
        base = metrics.sum_rate(gammas)
        bumped = gammas.copy()
        idx = (rng.integers(10), rng.integers(2))
        bumped[idx] += rng.uniform(0.1, 5.0)
        assert metrics.sum_rate(bumped) >= base


# -- convergence ------------------------------------------------------------------

def _oracle_convergence(series, window=20, rel_tol=0.05):
    """Brute-force double-loop scan using the same definition."""
    series = np.asarray(series, dtype=float)
    avgs = []
    for e in range(len(series)):
        lo = max(0, e - window + 1)
        avgs.append(np.mean(series[lo:e + 1]))
    for e in range(len(series) - window + 1):
        ref = avgs[e]
        tol = rel_tol * max(abs(ref), 1e-12)
        if all(abs(a - ref) < tol for a in avgs[e:]):
            return e
    return None


def test_convergence_constant_series():
    assert metrics.convergence_point([3.0] * 40) == 0


def test_convergence_unbounded_growth_never_settles():
    assert metrics.convergence_point(np.linspace(0.0, 100.0, 60)) is None


def test_convergence_step_series_matches_oracle():
    series = [10.0] * 30 + [1.0] * 70
    got = metrics.convergence_point(series)
    want = _oracle_convergence(series)
    assert got == want and got is not None


def test_convergence_random_series_match_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        series = np.abs(rng.normal(size=80)).cumsum() / np.arange(1, 81)
        assert metrics.convergence_point(series) == _oracle_convergence(series)


def test_convergence_requires_window_length():
    with pytest.raises(ContractViolation):
        metrics.convergence_point([1.0] * 10)


def test_convergence_handles_nan_prefix():
    series = [float("nan")] * 5 + [2.0] * 40
    assert metrics.convergence_point(series) == 5
    assert metrics.convergence_point([float("nan")] * 25) is None


# -- summaries and writers ----------------------------------------------------------

def test_run_summary_validates_ranges():
    with pytest.raises(ContractViolation):
        metrics.RunSummary("fpa", 1, 0, 1.0, 1.0, 1.5, 0.0)
    with pytest.raises(ContractViolation):
        metrics.RunSummary("fpa", 1, 0, 1.0, 1.0, 0.5, -0.1)


def test_writers_are_deterministic(tmp_path):
    summary = metrics.RunSummary("ddpg", 4, 0, 3.21, 12.5, 0.8, 0.25,
                                 loss_series=[1.0, float("nan"), 0.5],
                                 convergence_episode=2)
    sample_sets = {("ddpg", 4, 0): np.array([1.0, 5.0, 9.0])}
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        metrics.write_summary_csv(d / "summary.csv", [summary])
        metrics.write_ccdf_csv(d / "ccdf.csv", sample_sets, np.arange(0.0, 10.0, 2.5))
        metrics.write_json_summary(d / "summary.json", summary)
    for fname in ("summary.csv", "ccdf.csv", "summary.json"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_summary_csv_long_format(tmp_path):
    summary = metrics.RunSummary("fpa", 1, 3, 2.0, 4.0, 1.0, 0.0)
    path = tmp_path / "summary.csv"
    metrics.write_summary_csv(path, [summary])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "algorithm,m_antennas,seed,metric,value"
    assert any(line.startswith("fpa,1,3,avg_sum_rate,") for line in lines[1:])
    assert len(lines) == 1 + 5  # five metrics per cell
