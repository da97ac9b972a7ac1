"""Performance measures: CCDF coverage, sum-rate capacity, loss convergence.

All functions here are pure; file emitters format floats via repr() so
identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractViolation


@dataclass
class SinrSampleSet:
    """Effective SINR samples (dB) tagged with their experiment cell."""

    samples: np.ndarray
    algorithm: str = ""
    m_antennas: int = 1
    seed: int = 0


@dataclass
class RunSummary:
    """Headline numbers of one (algorithm, M, seed) experiment cell."""

    algorithm: str
    m_antennas: int
    seed: int
    avg_sum_rate: float
    avg_effective_sinr_db: float
    avg_normalized_tx_power: float
    abort_rate: float
    loss_series: list = field(default_factory=list)
    convergence_episode: int | None = None
    greedy_policy: str = "learned"      # "fpa" when the cell evaluated FPA
    validation: dict | None = None      # the baseline check's outcome, when one ran

    def __post_init__(self):
        if not 0.0 <= self.avg_normalized_tx_power <= 1.0:
            raise ContractViolation("normalized transmit power must lie in [0, 1]")
        if not 0.0 <= self.abort_rate <= 1.0:
            raise ContractViolation("abort rate must lie in [0, 1]")

    def metric_items(self):
        yield "avg_sum_rate", self.avg_sum_rate
        yield "avg_effective_sinr_db", self.avg_effective_sinr_db
        yield "avg_normalized_tx_power", self.avg_normalized_tx_power
        yield "abort_rate", self.abort_rate
        yield "convergence_episode", (math.nan if self.convergence_episode is None
                                      else float(self.convergence_episode))


def ccdf(samples, threshold_grid) -> list[tuple[float, float]]:
    """Empirical P(sample > x) for each threshold x, with strict comparison."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ContractViolation("CCDF needs at least one sample")
    if not np.all(np.isfinite(values)):
        raise ContractViolation("CCDF samples must be finite")
    grid = np.asarray(threshold_grid, dtype=float)
    above = values.size - np.searchsorted(np.sort(values, axis=None), grid, side="right")
    return list(zip(grid.tolist(), (above / values.size).tolist()))


def sum_rate(eff_sinr_linear, horizon: int | None = None) -> float:
    """Time-averaged sum of log2(1 + gamma) across base stations.

    `eff_sinr_linear` is (T, n_bs) of linear effective SINRs, already
    capped.  `horizon` defaults to T; passing a larger horizon treats the
    missing frames as delivering zero rate (a link that died early).
    """
    gammas = np.atleast_2d(np.asarray(eff_sinr_linear, dtype=float))
    if gammas.size and not np.all(np.isfinite(gammas)):
        raise ContractViolation("effective SINR values must be finite")
    if np.any(gammas < 0.0):
        raise ContractViolation("effective SINR values must be non-negative")
    horizon = horizon if horizon is not None else gammas.shape[0]
    if horizon < gammas.shape[0] or horizon < 1:
        raise ContractViolation("horizon must cover all provided steps")
    return float(np.log2(1.0 + gammas).sum() / horizon)


def convergence_point(loss_series, window: int = 20, rel_tol: float = 0.05) -> int | None:
    """First episode whose trailing moving average holds within tolerance.

    The moving average uses expanding windows at the start, then a fixed
    trailing window.  The returned index is the first e such that every
    later average stays within rel_tol (relative) of the average at e;
    None when the series never settles.  A candidate needs at least one
    full window of later episodes as evidence, so the trivially-stable
    tail does not count.  NaN entries (episodes without a training step)
    are forward filled; an all-NaN series returns None.
    """
    series = np.asarray(loss_series, dtype=float)
    if series.size < window:
        raise ContractViolation(f"series length must be >= window ({window})")
    finite = np.isfinite(series)
    if not finite.any():
        return None
    first = int(np.argmax(finite))
    # each entry takes the last finite value at or before it
    filled = series[np.maximum.accumulate(np.where(finite, np.arange(len(series)), 0))][first:]

    n = len(filled)
    ends = np.arange(1, n + 1)
    starts = np.maximum(0, ends - window)
    csum = np.concatenate([[0.0], np.cumsum(filled)])
    averages = (csum[ends] - csum[starts]) / (ends - starts)

    # deviation of all later averages from the candidate's value
    for e in range(n - window + 1):
        ref = averages[e]
        tol = rel_tol * max(abs(ref), 1e-12)
        if np.all(np.abs(averages[e:] - ref) < tol):
            return first + e
    return None


# -- file emitters ----------------------------------------------------------

_SUMMARY_COLUMNS = ("algorithm", "m_antennas", "seed", "metric", "value")
_CCDF_COLUMNS = ("algorithm", "m_antennas", "seed", "threshold_db", "probability")


def _summary_rows(summaries):
    """Long-format rows: one per (algorithm, M, seed, metric)."""
    return ((s.algorithm, s.m_antennas, s.seed, metric, value)
            for s in summaries for metric, value in s.metric_items())


def _ccdf_rows(sample_sets, threshold_grid):
    """Long-format CCDF rows for every sample set over one threshold grid."""
    return ((sset.algorithm, sset.m_antennas, sset.seed, threshold, prob)
            for sset in sample_sets for threshold, prob in ccdf(sset.samples, threshold_grid))


def _pool_sample_sets(sample_sets) -> list:
    """Merge per-seed SINR samples into one set per (algorithm, M), tagged seed -1."""
    pooled = {}
    for sset in sample_sets:
        pooled.setdefault((sset.algorithm, sset.m_antennas), []).append(sset.samples)
    return [SinrSampleSet(samples=np.concatenate(chunks), algorithm=algo,
                          m_antennas=m, seed=-1)
            for (algo, m), chunks in pooled.items()]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _null_non_finite(payload):
    """Replace every non-finite float in nested dicts and lists by None, in place."""
    for key, value in payload.items() if isinstance(payload, dict) else enumerate(payload):
        if isinstance(value, float) and not math.isfinite(value):
            payload[key] = None
        elif isinstance(value, (dict, list)):
            _null_non_finite(value)


def _write_json(path, payload) -> None:
    """Stream a freshly built payload as JSON; non-finite floats become null."""
    _null_non_finite(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_episode_csv(path, logs) -> None:
    """One row per training episode with its headline quantities."""
    _write_csv(path, ("episode", "steps", "episode_return", "mean_loss", "aborted",
                      "avg_power_dbm", "avg_norm_power", "mean_eff_sinr_db"),
               [(i, log.steps, log.episode_return, log.mean_loss, log.aborted,
                 log.states[1:, 4:6].copy().mean(),  # a strided view's mean sums in another order
                 log.norm_power.mean(), log.eff_sinr_db.mean())
                for i, log in enumerate(logs)])


def write_summary_csv(path, summaries) -> None:
    _write_csv(path, _SUMMARY_COLUMNS, _summary_rows(summaries))


def write_ccdf_csv(path, sample_sets, threshold_grid) -> None:
    _write_csv(path, _CCDF_COLUMNS, _ccdf_rows(sample_sets, threshold_grid))


def write_json_summary(path, summary: RunSummary) -> None:
    _write_json(path, asdict(summary))


def write_plan_tables(out_dir, out_format: str, summaries, sample_sets,
                      threshold_grid) -> None:
    """A plan's summary and CCDF tables; json puts the pooled CCDF rows in ccdf.json."""
    pooled = _pool_sample_sets(sample_sets)
    if out_format == "csv":
        write_summary_csv(os.path.join(out_dir, "summary.csv"), summaries)
        write_ccdf_csv(os.path.join(out_dir, "ccdf.csv"), sample_sets, threshold_grid)
        write_ccdf_csv(os.path.join(out_dir, "ccdf_pooled.csv"), pooled, threshold_grid)
        return
    for name, columns, rows in (
            ("summary.json", _SUMMARY_COLUMNS, _summary_rows(summaries)),
            ("ccdf.json", _CCDF_COLUMNS, _ccdf_rows(sample_sets + pooled, threshold_grid))):
        _write_json(os.path.join(out_dir, name), [dict(zip(columns, row)) for row in rows])
