"""Deep Q-network over the joint discrete power-step/beam-step action set.

The value function uses a dueling decomposition Q(s,a) = V(s) + A(s,a) -
mean_a A(s,a) with weight decay on the advantage stream: states without
consistent evidence collapse to A ~ 0, so the greedy argmax falls back to
the first (both-powers-up) action instead of acting on fitting noise.
Targets follow the standard bootstrapped rule against a soft-updated
target network, dropping the bootstrap only on an abort.
"""

from __future__ import annotations

import numpy as np

from ..neuralnet import AdamOptimizer, Mlp, soft_update
from .common import FINAL_LAYER_SCALE, AgentHyperparams, DiscreteAgent, ReplayLearner, agent_stream


class DqnAgent(DiscreteAgent, ReplayLearner):
    """Epsilon-greedy value learner with replay and a soft-updated target net."""

    name = "dqn"
    power_steps_db = (1.0, 3.0)     # power deltas, +/- each

    def __init__(self, env, hyper: AgentHyperparams, seed: int):
        super().__init__(env, hyper, seed)
        self._init_actions(env, hyper, agent_stream(seed, 1))
        self.greedy_margin = hyper.dqn_greedy_margin

        init_rng = agent_stream(seed, 0)
        hidden = [hyper.width] * hyper.depth
        self.value_net = Mlp([8] + hidden + [1], rng=init_rng,
                             final_layer_scale=FINAL_LAYER_SCALE)
        self.adv_net = Mlp([8] + hidden + [len(self.actions)], rng=init_rng,
                           final_layer_scale=FINAL_LAYER_SCALE)
        self.target_value_net, self.target_adv_net = self.value_net.copy(), self.adv_net.copy()
        self.value_opt = AdamOptimizer(self.value_net, lr=hyper.lr)
        self.adv_opt = AdamOptimizer(self.adv_net, lr=hyper.lr,
                                     weight_decay=hyper.critic_weight_decay)
        # dQ/dA_j = 1[j = a] - 1/|A| in row a: the bits of -1/|A| + 1[j = a]
        self._dq_dadv = np.eye(len(self.actions)) - 1.0 / len(self.actions)
        self._rows = np.arange(self.batch_size)

    def action_values(self, states: np.ndarray) -> np.ndarray:
        # argmax over Q equals argmax over the advantages alone
        return self.adv_net.forward(self.normalize(states)[..., None, :])[..., 0, :]

    def observe(self, state, action, reward, next_state, terminated, truncated=False):
        return super().observe(state, self._last_joint, reward, next_state, terminated)

    def train_step(self):
        batch = self._minibatch()
        if batch is None:
            return None
        states, actions, rewards, next_states, bootstrap = batch
        n_actions = len(self.actions)
        # Q = V + A - mean_a A; rounding is monotone, so max_a fl(fl(V + A) - mean)
        # is fl(fl(V + max_a A) - mean)
        next_q = self.target_value_net.forward(next_states)[:, 0]
        next_adv = self.target_adv_net.forward(next_states)
        next_q += next_adv.max(axis=1)
        next_q -= np.add.reduce(next_adv, axis=1) / n_actions
        targets = rewards + bootstrap * next_q

        # the online Q only at the taken actions
        action_ids = actions.astype(int)
        error = self.value_net.forward(states)[:, 0]
        adv = self.adv_net.forward(states)
        error += adv[self._rows, action_ids]
        error -= np.add.reduce(adv, axis=1) / n_actions
        error -= targets
        loss = float(np.add.reduce(error * error) / self.batch_size)

        scaled = 2.0 * error / self.batch_size
        # dQ/dV = 1; dQ/dA is the taken action's row of _dq_dadv
        upstream_adv = self._dq_dadv.take(action_ids, axis=0)
        upstream_adv *= scaled[:, None]
        # both online nets still hold the activations of their forward(states) above
        self.value_opt.step(self.value_net.backward(scaled[:, None]))
        self.adv_opt.step(self.adv_net.backward(upstream_adv))
        soft_update(self.target_value_net, self.value_net, self.hyper.tau)
        soft_update(self.target_adv_net, self.adv_net, self.hyper.tau)
        return loss

    def save(self, directory) -> None:
        self.value_net.save(f"{directory}/dqn_value_net.npz")
        self.adv_net.save(f"{directory}/dqn_adv_net.npz")
