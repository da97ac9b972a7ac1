"""Checks on the files a plan writes, and a digest of them.

Every check reads the result files back from disk, the way a user of the
program sees them.  A cell fails when any of its files is missing or
breaks a rule; the plan-level CCDF and summary files are checked too and a
failure there fails every cell of the plan.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

SUMMARY_METRICS = ("avg_sum_rate", "avg_effective_sinr_db", "avg_normalized_tx_power",
                   "abort_rate")


def cell_tag(algo: str, m: int, seed: int) -> str:
    return f"{algo}_m{m}_seed{seed}"


def _check_episode_csv(path, horizon: int) -> tuple[list, int]:
    problems, steps = [], 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        problems.append(f"{path}: no episodes")
    for row in rows:
        n = int(row["steps"])
        steps += n
        if not 1 <= n <= horizon:
            problems.append(f"{path}: episode {row['episode']} has {n} steps (horizon {horizon})")
        norm = float(row["avg_norm_power"])
        if not 0.0 <= norm <= 1.0:
            problems.append(f"{path}: episode {row['episode']} norm power {norm}")
        for key in ("episode_return", "avg_power_dbm", "avg_norm_power", "mean_eff_sinr_db"):
            if not math.isfinite(float(row[key])):
                problems.append(f"{path}: episode {row['episode']} {key} is not finite")
    return problems, steps


def _check_summary(path) -> tuple[list, dict]:
    with open(path) as fh:
        summary = json.load(fh)
    problems = [f"{path}: {key} is not finite" for key in SUMMARY_METRICS
                if not isinstance(summary.get(key), (int, float))
                or not math.isfinite(summary[key])]
    if not problems:
        if not 0.0 <= summary["avg_normalized_tx_power"] <= 1.0:
            problems.append(f"{path}: normalized power outside [0, 1]")
        if not 0.0 <= summary["abort_rate"] <= 1.0:
            problems.append(f"{path}: abort rate outside [0, 1]")
    return problems, summary


def _check_checkpoints(directory, algo: str) -> list:
    from cellbeam.neuralnet import Mlp

    if not os.path.isdir(directory):
        return [f"{directory}: checkpoint directory missing"]
    files = sorted(os.listdir(directory))
    if not files and algo != "fpa":   # fpa has no parameters to save
        return [f"{directory}: no checkpoint files"]
    problems = []
    for name in files:
        path = os.path.join(directory, name)
        if name == "qtable.npz":
            with np.load(path) as data:
                if not np.all(np.isfinite(data["values"])):
                    problems.append(f"{path}: Q-table holds non-finite values")
            continue
        net = Mlp.load(path)
        out = net.forward(np.zeros(net.widths[0]))
        if out.shape != (net.widths[-1],) or not np.all(np.isfinite(out)):
            problems.append(f"{path}: reloaded network gives a non-finite forward pass")
    return problems


def _ccdf_rows(out_dir, out_format: str) -> list:
    if out_format == "csv":
        rows = []
        for name in ("ccdf.csv", "ccdf_pooled.csv"):
            with open(os.path.join(out_dir, name), newline="") as fh:
                rows.extend(csv.DictReader(fh))
    else:
        with open(os.path.join(out_dir, "ccdf.json")) as fh:
            rows = json.load(fh)
    return [((r["algorithm"], int(r["m_antennas"]), int(r["seed"])),
             float(r["threshold_db"]), float(r["probability"])) for r in rows]


def _check_ccdf(out_dir, out_format: str) -> list:
    curves = {}
    for key, threshold, prob in _ccdf_rows(out_dir, out_format):
        curves.setdefault(key, []).append((threshold, prob))
    if not curves:
        return [f"{out_dir}: empty CCDF"]
    problems = []
    for key, points in curves.items():
        points.sort()
        probs = np.array([p for _, p in points])
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            problems.append(f"{out_dir}: CCDF {key} leaves [0, 1]")
        if np.any(np.diff(probs) > 0.0):
            problems.append(f"{out_dir}: CCDF {key} increases with the threshold")
    return problems


def check_plan(out_dir, cells, horizon: int, out_format: str) -> dict:
    """Check every output of one finished plan.

    Returns per-cell problems, the summed ``steps`` column of the episode
    CSVs and each cell's ``avg_sum_rate``.
    """
    problems = {cell: [] for cell in cells}
    steps = 0
    sum_rates = {}
    for cell in cells:
        tag = cell_tag(*cell)
        try:
            for part in ("train", "eval"):
                found, n = _check_episode_csv(os.path.join(out_dir, f"{tag}_{part}.csv"),
                                              horizon)
                problems[cell] += found
                steps += n
            found, summary = _check_summary(os.path.join(out_dir, f"{tag}_summary.json"))
            problems[cell] += found
            sum_rates[cell] = summary.get("avg_sum_rate")
            problems[cell] += _check_checkpoints(
                os.path.join(out_dir, "checkpoints", tag), cell[0])
        except (OSError, KeyError, ValueError) as exc:
            problems[cell].append(f"{tag}: {type(exc).__name__}: {exc}")
    try:
        plan_problems = _check_ccdf(out_dir, out_format)
        summary_name = "summary.csv" if out_format == "csv" else "summary.json"
        if not os.path.isfile(os.path.join(out_dir, summary_name)):
            plan_problems.append(f"{out_dir}: {summary_name} missing")
    except (OSError, KeyError, ValueError) as exc:
        plan_problems = [f"{out_dir}: {type(exc).__name__}: {exc}"]
    for cell in cells:
        problems[cell] += plan_problems
    return {"problems": problems, "steps": steps, "sum_rates": sum_rates}


def result_digest(root_dir) -> tuple[str, int, int]:
    """SHA-256 over every result file under ``root_dir``.

    CSV and JSON files enter byte for byte.  An ``.npz`` checkpoint enters
    through its arrays (name, dtype, shape, bytes), because the zip
    container stamps the write time into the file.  Returns the digest,
    the number of files and their total size in bytes.
    """
    h = hashlib.sha256()
    files = total = 0
    for dirpath, dirnames, filenames in os.walk(root_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            files += 1
            total += os.path.getsize(path)
            h.update(os.path.relpath(path, root_dir).encode() + b"\0")
            if name.endswith(".npz"):
                with np.load(path) as data:
                    for key in sorted(data.files):
                        arr = np.ascontiguousarray(data[key])
                        h.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
                        h.update(arr.tobytes())
            else:
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest(), files, total
