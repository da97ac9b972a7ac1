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
        row = table[s] = np.zeros(n_actions)
    next_row = table.get(s_next)
    bootstrap = 0.0 if done or next_row is None else float(next_row.max())
    row[a] += lr * (r + discount * bootstrap - row[a])
    return table


class StateDiscretizer:
    """Bins positions per serving disc, powers into levels, beams natively.

    Each of the six binned features maps to floor(frac * n) clipped to
    [0, n - 1], with frac its share of [low, high]; a dimension with
    high <= low has one bin.
    """

    def __init__(self, env, position_bins: int = 8, power_levels: int = 4):
        self._low, high = env.state_low[:6], env.state_high[:6]
        single = high <= self._low
        self._span = np.where(single, 1.0, high - self._low)
        self._bins = np.array([position_bins] * 4 + [power_levels] * 2)
        self._top = np.where(single, 0, self._bins - 1)

    def key(self, state: np.ndarray):
        """The table key of one (8,) state, or the list of keys of a (B, 8) block."""
        frac = (state[..., :6] - self._low) / self._span
        bins = np.minimum(np.maximum(np.floor(frac * self._bins), 0), self._top)
        keys = np.concatenate([bins, np.rint(state[..., 6:])], axis=-1).astype(int).tolist()
        return tuple(keys) if np.ndim(state) == 1 else list(map(tuple, keys))


class QLearningAgent(DiscreteAgent):
    """Epsilon-greedy tabular learner with a linearly decaying epsilon."""

    name = "qlearning"
    power_steps_db = (3.0,)     # power deltas, +/- each

    def __init__(self, env, hyper: AgentHyperparams, seed: int):
        self._init_actions(env, hyper, agent_stream(seed, 0))
        self.table: dict = {}
        self._unvisited = np.zeros(len(self.actions))
        self.discretizer = StateDiscretizer(env)
        self._keyed = (None, None)     # (state bytes, key) of the last state keyed

    def _key(self, state: np.ndarray):
        """``discretizer.key(state)``; a step's next state is the next act's and step's state."""
        data = state.tobytes()
        if data != self._keyed[0]:
            self._keyed = (data, self.discretizer.key(state))
        return self._keyed[1]

    def action_values(self, states: np.ndarray) -> np.ndarray:
        # an unvisited row reads as zeros, so its argmax is action 0
        if np.ndim(states) == 1:
            return self.table.get(self._key(states), self._unvisited)
        return np.array([self.table.get(key, self._unvisited)
                         for key in self.discretizer.key(states)])

    def observe(self, state, action, reward, next_state, terminated, truncated=False):
        qlearning_update(self.table, self._key(state), self._last_joint,
                         reward, self._key(next_state), self.hyper.q_lr,
                         self.hyper.discount, done=terminated, n_actions=len(self.actions))
        return None

    def save(self, directory) -> None:
        keys = np.array(sorted(self.table.keys()))
        values = np.stack([self.table[tuple(k)] for k in keys]) if len(keys) else np.zeros((0, 1))
        np.savez(f"{directory}/qtable.npz", keys=keys, values=values)
