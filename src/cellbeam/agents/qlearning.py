"""Tabular Q-learning over a coarse discretization of the 8-feature state."""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolation
from .common import AgentHyperparams, DiscreteAgent, agent_stream


def qlearning_update(table: dict, s, a: int, r: float, s_next, lr: float,
                     discount: float, done: bool = False, n_actions: int = 1) -> dict:
    """One temporal-difference update of the state-action table.

    Q(s,a) += lr * (r + discount * max_a' Q(s',a') - Q(s,a)); missing rows
    read as zero, and terminal transitions drop the bootstrap term.  A zero
    learning rate is an exact no-op.
    """
    if lr < 0.0:
        raise ContractViolation("learning rate must not be negative")
    if lr == 0.0:
        return table
    row = table.get(s)
    if row is None:
        row = np.zeros(n_actions)
        table[s] = row
    next_row = table.get(s_next)
    bootstrap = 0.0 if done or next_row is None else float(next_row.max())
    row[a] += lr * (r + discount * bootstrap - row[a])
    return table


class StateDiscretizer:
    """Bins positions per serving disc, powers into levels, beams natively."""

    def __init__(self, env, position_bins: int = 8, power_levels: int = 4):
        self.position_bins = position_bins
        self.power_levels = power_levels
        self.low = env.state_low
        self.high = env.state_high

    def _bin(self, value: float, lo: float, hi: float, n: int) -> int:
        if hi <= lo:
            return 0
        frac = (value - lo) / (hi - lo)
        return int(np.clip(np.floor(frac * n), 0, n - 1))

    def key(self, state: np.ndarray) -> tuple:
        b = self._bin
        p, q = self.position_bins, self.power_levels
        return (b(state[0], self.low[0], self.high[0], p),
                b(state[1], self.low[1], self.high[1], p),
                b(state[2], self.low[2], self.high[2], p),
                b(state[3], self.low[3], self.high[3], p),
                b(state[4], self.low[4], self.high[4], q),
                b(state[5], self.low[5], self.high[5], q),
                int(round(state[6])), int(round(state[7])))


class QLearningAgent(DiscreteAgent):
    """Epsilon-greedy tabular learner with a linearly decaying epsilon."""

    name = "qlearning"

    def __init__(self, env, hyper: AgentHyperparams, seed: int, lr: float | None = None):
        self._init_actions(env, hyper, hyper.q_power_step_db, agent_stream(seed, 0))
        self.lr = hyper.q_lr if lr is None else lr
        self.table: dict = {}
        self.discretizer = StateDiscretizer(env, hyper.position_bins, hyper.power_levels)

    def greedy_joint(self, state: np.ndarray) -> int:
        row = self.table.get(self.discretizer.key(state))
        return 0 if row is None else int(np.argmax(row))

    def observe(self, state, action, reward, next_state, terminated, truncated=False):
        qlearning_update(self.table, self.discretizer.key(state), self._last_joint,
                         reward, self.discretizer.key(next_state), self.lr,
                         self.hyper.discount, done=terminated, n_actions=len(self.actions))
        return None

    def save(self, directory) -> None:
        keys = np.array(sorted(self.table.keys()))
        values = np.stack([self.table[tuple(k)] for k in keys]) if len(keys) else np.zeros((0, 1))
        np.savez(f"{directory}/qtable.npz", keys=keys, values=values)
