"""cellbeam benchmark: closed-loop workloads driven through ``run_plan``.

Run from the repository root:

    python3 benchmarks/run.py --workload desk_train --seed 0 --seconds 30 --trace 0

Workloads are defined in workloads.py.  One run repeats the workload's
plans, one ``run_plan`` at a time, for about ``--seconds``, and checks
every file each repetition writes.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics plus the tracing
overhead.  Every line of stdout names a metric with its unit, except the
last, which is one JSON object with the keys correct, attempted, failed
and metrics.  A record of the run (context, metrics, deterministic
counts, result digest) is written to .bench_work/records/.

The program is imported from src/ of the same checkout, never from an
installed copy; the run fails with exit code 2 when src/ is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# numpy is imported (through tracer, workloads and checks) only inside
# functions, after main() has pinned the BLAS thread count.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One BLAS thread: the networks are 28 wide, and a single load-generating
# process on a 2-core machine must not compete with its own BLAS threads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9
# Algorithms every workload runs.  Their mean evaluation sum rates are
# reported with the per-layer metrics, which carry no bound: a sum rate is
# fixed by the seed, and from seed to seed it spreads wider than any bound
# an end-to-end metric may have.  Every run prints all its sum rates.
SUM_RATE_ALGORITHMS = ("fpa", "ddpg")

E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("env_steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def layer_metric_catalog():
    """(name, unit, better) of every per-layer metric, in report order."""
    from tracer import SPAN_NAMES
    catalog = []
    for span in SPAN_NAMES:
        catalog += [(f"{span}.calls", "count", "lower"), (f"{span}.busy_s", "s", "lower"),
                    (f"{span}.self_s", "s", "lower")]
    return catalog + [
        ("neuralnet.Mlp.forward.flops", "flop", "lower"),
        ("agents.train_step.useful_ratio", "ratio", "higher"),
        ("environment.abort_ratio", "ratio", "lower"),
        ("environment.steps_per_episode", "count", "higher"),
        ("beamcode.steering_matrix.per_step", "ratio", "lower"),
        ("beamcode.steering_matrix.bytes", "B", "lower"),
        ("metrics.bytes_written", "B", "lower"),
        ("metrics.files_written", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ] + [(f"metrics.sum_rate.{algo}", "bit/s/Hz", "higher") for algo in SUM_RATE_ALGORITHMS]


@dataclass
class Rep:
    """One repetition of a workload's plans."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    digest: str = ""
    files: int = 0
    bytes: int = 0
    sum_rates: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def run_rep(configs, out_root, tracer=None) -> Rep:
    """Run each config's plan in order, then check and digest what it wrote.

    With a tracer, the patches are in place only around ``run_plan``, so
    the benchmark's own checks are not traced.
    """
    from cellbeam import harness
    from checks import check_plan, result_digest
    from tracer import install

    shutil.rmtree(out_root, ignore_errors=True)
    rep = Rep()
    rates = {}
    for _, path in configs:
        cfg = harness.parse_config(path)
        plan = cfg.plan
        cells = [(a, m, s) for a in plan.algorithms for m in plan.antenna_counts
                 for s in plan.seeds]
        rep.attempted += len(cells)
        gc.collect()
        if tracer is not None:
            install(tracer)
            rep.problems += [f"untraced lookup site {site}" for site in tracer.missed_sites()]
        start = time.perf_counter()
        try:
            harness.run_plan(cfg)
        except Exception:  # a failing plan is counted, and the run goes on
            rep.failed += len(cells)
            rep.problems.append(traceback.format_exc())
            continue
        finally:
            rep.wall_s += time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        report = check_plan(plan.output_dir, cells, cfg.env.horizon, plan.out_format)
        for found in report["problems"].values():
            rep.failed += bool(found)
            rep.problems += found
        rep.steps += report["steps"]
        for (algo, _, _), rate in report["sum_rates"].items():
            if rate is not None:
                rates.setdefault(algo, []).append(rate)
    rep.sum_rates = {algo: statistics.fmean(vals) for algo, vals in rates.items()}
    rep.digest, rep.files, rep.bytes = result_digest(out_root)
    return rep


def probe_setup(config_paths) -> float:
    """Median cold set-up time over fresh interpreters started one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                               *config_paths], capture_output=True, text=True,
                              timeout=120, check=True, cwd=ROOT)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def _repeat(seconds: float, once) -> list:
    """Call ``once`` repeatedly for about ``seconds``; at least once.

    Stops at the call boundary nearest to the deadline, so a workload
    whose calls take 15 s runs twice in 30 s, not three times.
    """
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(once())
        now = time.perf_counter()
        if now - start + (now - began) / 2 >= seconds:
            return results


def _consistency_problems(reps) -> list:
    first = reps[0]
    return [f"repetition {i} differs from the first: {what}"
            for i, rep in enumerate(reps[1:], start=1)
            for what, same in (("result digest", rep.digest == first.digest),
                               ("env steps", rep.steps == first.steps),
                               ("sum rates", rep.sum_rates == first.sum_rates))
            if not same]


def measure_end_to_end(configs, out_root, seconds):
    setup_s = probe_setup([path for _, path in configs])
    reps = _repeat(seconds, lambda: run_rep(configs, out_root))
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in reps),
        "env_steps_per_s": statistics.median(r.steps / r.wall_s for r in reps),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, reps, _consistency_problems(reps), {}


def measure_layers(configs, out_root, seconds, workload):
    import numpy as np

    from tracer import (ABORTED_STEPS, FLOPS, FORWARD_B1, FORWARD_BN, SPAN_NAMES,
                        STEER_BYTES, USEFUL_TRAIN, Tracer)

    untraced, traced, tracers = [], [], []

    def pair():
        untraced.append(run_rep(configs, out_root))
        tracers.append(Tracer())
        traced.append(run_rep(configs, out_root, tracers[-1]))

    _repeat(seconds, pair)
    reps = untraced + traced
    problems = _consistency_problems(reps)

    times = [t.layer_times() for t in tracers]
    calls = {name: times[-1][name][0] for name in SPAN_NAMES}
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = statistics.median(t[name][1] for t in times)
        metrics[f"{name}.self_s"] = statistics.median(t[name][2] for t in times)
    problems += [f"traced run never called {name}, which this workload must reach"
                 for name in sorted(workload.reaches) if calls[name] == 0]

    counts = tracers[-1].counts
    episodes = calls["environment.reset"]
    steps = calls["environment.step"]
    train_calls = calls["agents.train_step"]
    metrics.update({
        "neuralnet.Mlp.forward.flops": counts[FLOPS],
        "agents.train_step.useful_ratio":
            counts[USEFUL_TRAIN] / train_calls if train_calls else 0.0,
        "environment.abort_ratio": counts[ABORTED_STEPS] / episodes if episodes else 0.0,
        "environment.steps_per_episode": steps / episodes if episodes else 0.0,
        "beamcode.steering_matrix.per_step":
            calls["beamcode.steering_matrix"] / steps if steps else 0.0,
        "beamcode.steering_matrix.bytes": counts[STEER_BYTES],
        "metrics.bytes_written": traced[-1].bytes,
        "metrics.files_written": traced[-1].files,
        "trace.overhead_s": (statistics.median(r.wall_s for r in traced)
                             - statistics.median(r.wall_s for r in untraced)),
    })
    for algo in SUM_RATE_ALGORITHMS:
        metrics[f"metrics.sum_rate.{algo}"] = traced[-1].sum_rates.get(algo, 0.0)
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(spans_dir / f"{workload.name}.npz", **tracers[-1].spans())
    deterministic = {"forward_calls": calls[FORWARD_B1] + calls[FORWARD_BN],
                     "span_calls": calls}
    return metrics, reps, problems, deterministic


# -- run context --------------------------------------------------------------

def _commit():
    """HEAD commit read from .git when the checkout is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_context(args, workload, numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_library = None
    return {
        "workload": args.workload, "seed": args.seed,
        "plan_seeds": list(workload.plan_seeds(args.seed)),
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": BLAS_ENV, "blas_library": blas_library,
        "commit": _commit(), "source_sha256": _source_digest(),
        "load": "one process, closed loop, one run_plan at a time",
    }


# -- entry point ----------------------------------------------------------------

def _parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)   # before the first numpy import
    args = _parse_args(argv)
    if not (SRC / "cellbeam" / "__init__.py").is_file():
        print(f"error: no cellbeam package under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("CELLBEAM_")]:
        del os.environ[key]   # config overrides from the environment would change the plans
    sys.path.insert(0, str(SRC))
    import numpy

    from workloads import WORKLOADS, write_configs

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_root = run_dir / "out"
    context = run_context(args, workload, numpy)
    print("context " + json.dumps(context, sort_keys=True), flush=True)
    try:
        configs = write_configs(workload, args.seed, run_dir / "config", out_root)
        if args.trace:
            measured = measure_layers(configs, out_root, args.seconds, workload)
            catalog = layer_metric_catalog()
        else:
            measured = measure_end_to_end(configs, out_root, args.seconds)
            catalog = E2E_METRICS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    values, reps, problems, deterministic = measured
    problems = [p for rep in reps for p in rep.problems] + problems
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    first = reps[0]

    for name, unit, _ in catalog:
        print(f"{name:44s} {values[name]:.6g} {unit}")
    print(f"{'failed_frac':44s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} cells)")
    for algo, rate in sorted(first.sum_rates.items()):
        print(f"{'sum_rate.' + algo:44s} {rate!r} bit/s/Hz")
    print(f"{'env_steps':44s} {first.steps} count")
    print(f"{'repetitions':44s} {len(reps)} count")
    print(f"digest {workload.name} seed={args.seed} sha256={first.digest}")
    for problem in problems:
        print("problem: " + problem.rstrip(), file=sys.stderr)

    record = {"context": context, "metrics": values, "attempted": attempted,
              "failed": failed, "problems": problems, "digest": first.digest,
              "env_steps": first.steps, "sum_rates": first.sum_rates,
              "result_files": first.files, "result_bytes": first.bytes,
              "rep_wall_s": [r.wall_s for r in reps], **deterministic}
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit, _ in catalog}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
