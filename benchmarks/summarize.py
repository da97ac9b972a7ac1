"""Summarize benchmark run records across seeds.

After runs such as

    for s in 0 1 2 3 4 5 6 7 8 9; do
        python3 benchmarks/run.py --workload desk_train --seed $s --seconds 20 --trace 0
    done

this prints, per workload and metric, the median, the quartiles and the
spread (distance between the quartiles as a share of the median) over the
recorded seeds, plus each seed's result digest and deterministic counts:

    python3 benchmarks/summarize.py [--records DIR] [--out FILE] [--compare DIR]

``--out`` writes the same summary as JSON.  ``--compare`` summarizes a
second records directory (another set of runs, or the parent commit) and
prints each metric's median change and every seed whose deterministic
values (digest, env steps, sum rates, call counts) differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stats(values) -> dict:
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def summarize(records_dir) -> dict:
    runs = {}
    for path in sorted(Path(records_dir).glob("*.json")):
        record = json.loads(path.read_text())
        ctx = record["context"]
        runs.setdefault((ctx["workload"], ctx["trace"]), []).append(record)
    summary = {}
    for (workload, trace), records in sorted(runs.items()):
        records.sort(key=lambda r: r["context"]["seed"])
        names = [name for name in records[0]["metrics"]
                 if all(name in r["metrics"] for r in records)]
        entry = {
            "context": {k: v for k, v in records[0]["context"].items()
                        if k not in ("seed", "plan_seeds")},
            "metrics": {name: _stats([r["metrics"][name] for r in records]) for name in names},
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "per_seed": {str(r["context"]["seed"]): {
                key: r[key] for key in ("digest", "env_steps", "sum_rates", "forward_calls",
                                        "span_calls") if key in r}
                for r in records},
        }
        summary[f"{workload}.trace{trace}"] = entry
    return summary


def compare(first: dict, second: dict) -> None:
    for key in sorted(first.keys() & second.keys()):
        a, b = first[key], second[key]
        print(f"== {key}: second set against first")
        for name in a["metrics"]:
            ma, mb = a["metrics"][name]["median"], b["metrics"].get(name, {}).get("median")
            if mb is not None and ma:
                print(f"  {name:44s} {ma:.6g} -> {mb:.6g} ({(mb - ma) / abs(ma):+.4f})")
        seeds = sorted(a["per_seed"].keys() & b["per_seed"].keys(), key=int)
        differ = [seed for seed in seeds if a["per_seed"][seed] != b["per_seed"][seed]]
        print(f"  deterministic values identical on {len(seeds) - len(differ)} of "
              f"{len(seeds)} shared seeds" + (f"; differ on {differ}" if differ else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", default=str(ROOT / ".bench_work" / "records"))
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)
    summary = summarize(args.records)
    for key, entry in summary.items():
        print(f"== {key}  failed {entry['failed']} of {entry['attempted']} cells")
        for name, st in entry["metrics"].items():
            spread = "-" if st["spread"] is None else f"{st['spread']:.4f}"
            print(f"  {name:44s} n={st['n']:2d} median={st['median']:.6g} "
                  f"q1={st['q1']:.6g} q3={st['q3']:.6g} spread={spread}")
        for seed, det in entry["per_seed"].items():
            print(f"  seed {seed:>3s} digest={det['digest'][:16]} env_steps={det['env_steps']}")
    if args.compare:
        compare(summary, summarize(args.compare))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
