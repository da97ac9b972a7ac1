"""Hierarchical DDPG: a meta controller sets goals, a controller chases them.

The agent is itself a DDPG agent, the controller: it acts every step and
trains through the inherited ``observe`` on the environment reward minus
the absolute goal deviation, so greedy acts are the controller's.  The
meta controller is a second DDPG agent that emits one action-shaped goal
per window of `meta_period` steps and is trained through its own
``observe`` on the raw reward summed over the window.  A window that an
abort cuts short still enters the meta buffer, as a terminal meta
transition; one that the horizon cuts short is dropped, so an episode of
T steps that never aborts yields floor(T / meta_period) meta transitions.
"""

from __future__ import annotations

import numpy as np

from ..environment import hierarchical_reward
from .common import AgentHyperparams
from .ddpg import DdpgAgent


class HddpgAgent(DdpgAgent):
    """A DDPG controller that chases the goals of a meta DDPG, ``self.meta``."""

    name = "hddpg"

    def __init__(self, env, hyper: AgentHyperparams, seed: int):
        # the controller derives its streams exactly like a plain DDPG agent
        # with the same seed, so the two degenerate to each other
        super().__init__(env, hyper, seed, batch_size=hyper.controller_batch_size)
        meta_seed = int(np.random.SeedSequence(seed, spawn_key=(1000,)).generate_state(1)[0])
        self.meta = DdpgAgent(env, hyper, meta_seed, batch_size=hyper.meta_batch_size)
        self.meta.name = "hddpg_meta"
        self._goal = self._window_start = None
        self._window_rewards: list[float] = []

    def begin_episode(self, state: np.ndarray) -> None:
        self._window_start = np.asarray(state, dtype=float)
        self._window_rewards = []
        self._goal = self.meta.act(state, explore=True)

    def observe(self, state, action, reward, next_state, terminated, truncated=False):
        shaped = hierarchical_reward(reward, self._goal, action, self.hyper.goal_penalty_weight)
        loss = super().observe(state, action, shaped, next_state, terminated)

        self._window_rewards.append(float(reward))
        full = len(self._window_rewards) == self.hyper.meta_period
        if full or terminated:
            meta_reward = float(np.sum(self._window_rewards))
            self.meta.observe(self._window_start, self._goal, meta_reward, next_state, terminated)
            if full and not (terminated or truncated):
                self._window_start = np.asarray(next_state, dtype=float)
                self._window_rewards = []
                self._goal = self.meta.act(next_state, explore=True)
        return loss

    def end_episode(self, trained: bool) -> None:
        super().end_episode(trained)
        self.meta.end_episode(trained)

    def save(self, directory) -> None:
        # the controller's checkpoints are named apart from the meta's
        self.actor.save(f"{directory}/hddpg_controller_actor.npz")
        self.critic.save(f"{directory}/hddpg_controller_critic.npz")
        self.meta.save(directory)
