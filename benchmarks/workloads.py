"""The benchmark's workloads: plans written as config files for run_plan.

Each workload is a closed loop: one sequential ``run_plan`` per config
file, the next started only when the previous one returns.  The workload
seed chooses the plan seeds and nothing else.

Which end-to-end metric a change to each layer should move, and where:

  neuralnet forward.bN, backward, Adam, soft_update;
  agents train_step, replay sample/push             wall_s on desk_train
  neuralnet forward.b1; agents act, run_episode     env_steps_per_s on long_episode_m64
  environment, channel, beamcode                    env_steps_per_s on long_episode_m64
                                                    (environment.reset: sweep_io)
  harness run_cell, build_env; agents.make_agent;
  metrics writers, ccdf; neuralnet Mlp.save         wall_s and setup_s on sweep_io

A change aimed at one workload should leave the others unchanged: no
minibatch update ever runs in long_episode_m64 or sweep_io, and desk_train
writes few files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from tracer import FORWARD_BN, SPAN_NAMES

ALGORITHMS = ("fpa", "qlearning", "dqn", "ddpg", "hddpg")

# Copy of the criterion-7 training recipes in tests/test_acceptance.py;
# test_benchmark.py fails if the two drift apart.
DESK_RECIPES = {
    "fpa": {},
    "qlearning": dict(q_lr=0.2, train_geometry_cycle=10, eps_decay_frac=0.4),
    "dqn": dict(lr=5e-4, critic_weight_decay=0.1, dqn_greedy_margin=1.0,
                train_geometry_cycle=60, eps_decay_frac=0.4),
    "ddpg": dict(lr=1e-3, noise_scale=0.15, noise_end_frac=1.0, eps_decay_frac=0.4,
                 actor_weight_decay=1.0, critic_weight_decay=1e-2,
                 train_geometry_cycle=60),
}
DESK_RECIPES["hddpg"] = dict(DESK_RECIPES["ddpg"], goal_penalty_weight=0.1)

# Spans that only run once a replay buffer holds a full minibatch.
TRAINING_SPANS = frozenset({FORWARD_BN, "neuralnet.Mlp.backward",
                            "neuralnet.AdamOptimizer.step", "neuralnet.soft_update",
                            "agents.replay.sample"})
CSV_WRITER_SPANS = frozenset({"metrics.write_summary_csv", "metrics.write_ccdf_csv"})


@dataclass(frozen=True)
class Workload:
    name: str
    plans: tuple            # (plan name, {config key: value}) pairs, run in order
    seeds_per_run: int      # plan seeds are seed * n ... seed * n + n - 1
    reaches: frozenset      # span names a traced run must see called

    def plan_seeds(self, seed: int) -> tuple:
        n = self.seeds_per_run
        return tuple(range(seed * n, seed * n + n))


def _desk_plan(algo: str) -> tuple:
    return (algo, dict(algo=algo, antennas=1, episodes=300, eval_episodes=50,
                       scenario="sub6", format="csv", horizon=20, **DESK_RECIPES[algo]))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk_train",
        plans=tuple(_desk_plan(algo) for algo in ALGORITHMS),
        # two seeds: how long 300 episodes train varies with the seed by
        # about a fifth (episodes abort early), so one seed per run spread
        # the runs of a ten-seed set too far apart
        seeds_per_run=2,
        reaches=frozenset(SPAN_NAMES)),
    Workload(
        name="long_episode_m64",
        plans=(("long", dict(algo="fpa,ddpg", antennas=64, episodes=2, eval_episodes=150,
                             scenario="sub6", format="csv", horizon=50,
                             gamma_cutoff_db=-30.0)),),
        seeds_per_run=1,
        reaches=frozenset(SPAN_NAMES) - TRAINING_SPANS),
    Workload(
        name="sweep_io",
        plans=(("sweep", dict(algo=",".join(ALGORITHMS), antennas="1,4,8,16,32,64",
                              episodes=5, eval_episodes=5, scenario="sub6",
                              format="json", horizon=20)),),
        seeds_per_run=2,
        reaches=frozenset(SPAN_NAMES) - TRAINING_SPANS - CSV_WRITER_SPANS),
)}


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def write_configs(workload: Workload, seed: int, config_dir, out_root) -> list:
    """Write one config file per plan; returns (plan name, config path) pairs."""
    os.makedirs(config_dir, exist_ok=True)
    written = []
    for plan_name, keys in workload.plans:
        keys = dict(keys, seeds=workload.plan_seeds(seed),
                    out=os.path.join(out_root, plan_name))
        path = os.path.join(config_dir, f"{workload.name}_{plan_name}.cfg")
        with open(path, "w") as fh:
            fh.writelines(f"{key}={_format(value)}\n" for key, value in keys.items())
        written.append((plan_name, path))
    return written
