"""Self-tests of the benchmark: recipes, tracer coverage, output checks.

Runs under pytest from the repository root.  The workloads are shrunk
(fewer episodes, smaller minibatches so training starts) to keep the
tests fast; the lists of layers each workload must reach stay as they are.
"""

import csv
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

from cellbeam import harness  # noqa: E402
from cellbeam.neuralnet import Mlp  # noqa: E402

import run  # noqa: E402
from checks import check_plan  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import DESK_RECIPES, WORKLOADS, write_configs  # noqa: E402

SMALL = {
    "desk_train": dict(episodes=30, eval_episodes=3, batch_size=8,
                       controller_batch_size=8, meta_batch_size=8),
    "long_episode_m64": dict(episodes=1, eval_episodes=2, horizon=10),
    "sweep_io": dict(antennas="1,64", episodes=2, eval_episodes=2),
}


def _small(name):
    workload = WORKLOADS[name]
    plans = tuple((plan, dict(keys, **SMALL[name])) for plan, keys in workload.plans)
    return dataclasses.replace(workload, plans=plans)


def test_desk_recipes_match_acceptance_suite():
    spec = importlib.util.spec_from_file_location(
        "acceptance_recipes", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert DESK_RECIPES == module.TRAINING_RECIPES


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.layer_metric_catalog()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reaches_every_named_layer(name, tmp_path):
    workload = _small(name)
    configs = write_configs(workload, 0, tmp_path / "config", tmp_path / "out")
    plain = run.run_rep(configs, tmp_path / "out")
    tracer = Tracer()
    traced = run.run_rep(configs, tmp_path / "out", tracer)

    assert plain.problems == [] and traced.problems == []
    assert plain.failed == traced.failed == 0
    assert traced.digest == plain.digest
    times = tracer.layer_times()
    unreached = [span for span in workload.reaches if times[span][0] == 0]
    assert unreached == []
    for span in SPAN_NAMES:
        calls, busy, own = times[span]
        assert busy >= own - 1e-9 and own >= -1e-9, span
    # the patches are gone once the rep is over
    assert not hasattr(Mlp.forward, "__wrapped__")
    assert not hasattr(harness.run_cell, "__wrapped__")


def test_tracer_patches_every_lookup_site():
    import cellbeam.agents
    import cellbeam.agents.ddpg
    import cellbeam.agents.dqn
    import cellbeam.beamcode
    import cellbeam.channel
    import cellbeam.neuralnet
    from tracer import install

    sites = [(cellbeam.agents.dqn, "soft_update", cellbeam.neuralnet.soft_update),
             (cellbeam.agents.ddpg, "soft_update", cellbeam.neuralnet.soft_update),
             (cellbeam.channel, "steering_matrix", cellbeam.beamcode.steering_matrix),
             (harness, "make_agent", cellbeam.agents.make_agent),
             (harness, "build_env", harness.build_env)]
    tracer = Tracer()
    install(tracer)
    try:
        assert tracer.missed_sites() == []
        for module, attr, original in sites:
            assert getattr(module, attr).__wrapped__ is original, (module.__name__, attr)
    finally:
        tracer.restore()
    for module, attr, original in sites:
        assert getattr(module, attr) is original


def _tiny_plan(tmp_path):
    configs = write_configs(
        dataclasses.replace(WORKLOADS["long_episode_m64"], plans=(("p", dict(
            algo="fpa,ddpg", antennas=1, episodes=2, eval_episodes=3, horizon=5,
            format="csv")),)),
        0, tmp_path / "config", tmp_path / "out")
    cfg = harness.parse_config(configs[0][1])
    harness.run_plan(cfg)
    cells = [(algo, 1, 0) for algo in ("fpa", "ddpg")]
    return cfg.plan.output_dir, cells


def _problems(out_dir, cells):
    report = check_plan(out_dir, cells, 5, "csv")
    return [p for found in report["problems"].values() for p in found]


def test_output_checks_pass_on_real_output_and_catch_broken_files(tmp_path):
    out_dir, cells = _tiny_plan(tmp_path)
    assert _problems(out_dir, cells) == []

    episodes = Path(out_dir) / "ddpg_m1_seed0_train.csv"
    original = episodes.read_text()
    rows = list(csv.reader(original.splitlines()))
    rows[1][1] = "6"  # more steps than the horizon of 5
    episodes.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert any("steps" in p for p in _problems(out_dir, cells))
    episodes.write_text(original)

    ccdf = Path(out_dir) / "ccdf.csv"
    original = ccdf.read_text()
    lines = original.splitlines()
    head = lines[1].split(",")
    head[-1] = "0.0"  # the lowest threshold now reads below the next one
    lines[1] = ",".join(head)
    ccdf.write_text("\n".join(lines) + "\n")
    assert any("increases" in p for p in _problems(out_dir, cells))
    ccdf.write_text(original)

    checkpoint = Path(out_dir) / "checkpoints" / "ddpg_m1_seed0" / "ddpg_actor.npz"
    net = Mlp.load(checkpoint)
    net.weights[0][:] = np.nan
    net.save(checkpoint)
    assert any("non-finite" in p for p in _problems(out_dir, cells))
