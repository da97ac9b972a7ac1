"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is the import of cellbeam (numpy included), ``parse_config`` of
every config file and the first ``build_env`` + ``make_agent`` of each
algorithm.  run.py starts this script several times, one process at a
time, and reports the median:

    python3 benchmarks/setup_probe.py CONFIG [CONFIG ...]

The last stdout line is {"setup_s": seconds}.
"""

import json
import sys
import time
from pathlib import Path


def main(paths) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from cellbeam import harness
    from cellbeam.agents import make_agent

    seen = set()
    for path in paths:
        cfg = harness.parse_config(path)
        for algo in cfg.plan.algorithms:
            if algo not in seen:
                seen.add(algo)
                env = harness.build_env(cfg, cfg.plan.antenna_counts[0])
                make_agent(algo, env, cfg.hyper, cfg.plan.seeds[0])
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
