"""A position-only yardstick: a fixed policy of the observed state that beats FPA.

The yardstick reads the two UE positions from the 8-feature observation,
computes the four BS-UE path gains g_ij (BS i to UE j, in dB) with
``channel.pathloss_db`` and sets the power ratio

    P0 - P1 = BETA * (g11 + g10 - g00 - g01) / 2,

where BETA = 1 would equalise the two SINRs under path loss alone in the
interference-limited regime.  The stronger side transmits at the top power
and the beams stay at 0.  It learns nothing, so it shows what the 8 features
allow on criterion 7's evaluation episodes, and it leaves ``src/`` as it is.
"""

import functools
from dataclasses import replace

import numpy as np

from cellbeam import harness
from cellbeam.agents import BaseAgent, FpaAgent
from cellbeam.channel import init_topology, pathloss_db

# criterion 7's evaluation episodes: M=1, horizon 20, 50 episodes per plan seed
SEEDS = tuple(range(8))
EVAL_EPISODES = 50
HORIZON = 20
BETA = 0.5


class PositionYardstick(BaseAgent):
    """Powers from the path-loss imbalance of the observed UE positions; beams at 0."""

    name = "yardstick"

    def __init__(self, env, top_dbm: float):
        self.scenario, self.top_dbm = env.scenario, float(top_dbm)
        self.bs_positions = init_topology(env.scenario, 0).bs_positions    # (BS, xy)

    def act(self, state: np.ndarray, explore: bool = False) -> np.ndarray:
        state = np.asarray(state)
        ues = state[..., :4].reshape(state.shape[:-1] + (2, 2))                   # (..., UE, xy)
        offsets = self.bs_positions[:, None, :] - ues[..., None, :, :]            # (..., BS, UE, xy)
        g = -pathloss_db(np.sqrt((offsets * offsets).sum(axis=-1)),
                         self.scenario.carrier_freq_hz, self.scenario.p_los)
        ratio = BETA * 0.5 * (g[..., 1, 1] + g[..., 1, 0] - g[..., 0, 0] - g[..., 0, 1])
        powers = self.top_dbm + np.stack([np.minimum(ratio, 0.0), -np.maximum(ratio, 0.0)], -1)
        return np.concatenate([powers, np.zeros_like(powers)], axis=-1)


def _env():
    cfg = harness.parse_config(None)
    return harness.build_env(replace(cfg, env=replace(cfg.env, horizon=HORIZON)), 1)


@functools.lru_cache(maxsize=None)
def _rates(policy: str) -> tuple:
    """Per-episode evaluation sum rates, seed-major, of "fpa", "cap" or "range_top"."""
    env = _env()
    top = {"cap": env.scenario.max_bs_power_dbm, "range_top": env.action_high[0]}
    agent = FpaAgent(env) if policy == "fpa" else PositionYardstick(env, top[policy])
    return tuple(log.sum_rate(env.horizon) for seed in SEEDS for log in agent.run_episodes(
        env, [harness.eval_env_seed(1, seed, e) for e in range(EVAL_EPISODES)]))


def test_yardstick_beats_fpa_by_two_standard_errors():
    gains = np.array(_rates("cap")) - np.array(_rates("fpa"))
    assert len(gains) == len(SEEDS) * EVAL_EPISODES
    stderr = gains.std(ddof=1) / np.sqrt(len(gains))
    print(f"\nyardstick {np.mean(_rates('cap')):.6f}, FPA {np.mean(_rates('fpa')):.6f}, "
          f"gain {gains.mean():+.4f} +/- {stderr:.4f}")
    assert gains.mean() > 2.0 * stderr


def test_yardstick_scores_the_same_with_its_top_at_the_learners_range_top():
    env = _env()
    assert env.action_high[0] == 40.0 < env.scenario.max_bs_power_dbm
    # interference-limited at M=1: only the power ratio matters, not the level
    assert round(np.mean(_rates("range_top")), 4) == round(np.mean(_rates("cap")), 4)
