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
from .common import (ActionScaler, AgentHyperparams, DiscreteAgent, ReplayBuffer, Transition,
                     agent_stream)


class DqnAgent(DiscreteAgent):
    """Epsilon-greedy value learner with replay and a soft-updated target net."""

    name = "dqn"

    def __init__(self, env, hyper: AgentHyperparams, seed: int):
        self._init_actions(env, hyper, hyper.power_step_db, agent_stream(seed, 1))
        self.greedy_margin = hyper.dqn_greedy_margin
        self.normalize = ActionScaler(env.state_low, env.state_high).to_normalized
        self.updates = 0    # minibatch updates run

        init_rng = agent_stream(seed, 0)
        buffer_rng = agent_stream(seed, 2)

        hidden = [hyper.width] * hyper.depth
        self.value_net = Mlp([8] + hidden + [1], rng=init_rng,
                             final_layer_scale=hyper.final_layer_scale)
        self.adv_net = Mlp([8] + hidden + [len(self.actions)], rng=init_rng,
                           final_layer_scale=hyper.final_layer_scale)
        self.target_value_net, self.target_adv_net = self.value_net.copy(), self.adv_net.copy()
        self.value_opt = AdamOptimizer(self.value_net, lr=hyper.lr)
        self.adv_opt = AdamOptimizer(self.adv_net, lr=hyper.lr,
                                     weight_decay=hyper.critic_weight_decay)
        self.buffer = ReplayBuffer(hyper.replay_capacity, buffer_rng)

    def _q_from(self, value_net: Mlp, adv_net: Mlp, states: np.ndarray) -> np.ndarray:
        value = value_net.forward(states)
        adv = adv_net.forward(states)
        return value + adv - adv.mean(axis=1, keepdims=True)

    def action_values(self, states: np.ndarray) -> np.ndarray:
        # argmax over Q equals argmax over the advantages alone
        return self.adv_net.forward(self.normalize(states)[..., None, :])[..., 0, :]

    def observe(self, state, action, reward, next_state, terminated, truncated=False):
        self.buffer.push(Transition(np.asarray(state, dtype=float), self._last_joint,
                                    float(reward), np.asarray(next_state, dtype=float),
                                    bool(terminated)))
        loss = None
        for _ in range(self.hyper.dqn_updates_per_step):
            step_loss = self.train_step()
            loss = step_loss if step_loss is not None else loss
        return loss

    def train_step(self):
        hyper = self.hyper
        if len(self.buffer) < hyper.batch_size:
            return None
        states, actions, rewards, next_states, terminals = self.buffer.sample(hyper.batch_size)
        states = self.normalize(states)
        next_states = self.normalize(next_states)
        action_ids = actions.astype(int)
        rewards = rewards * hyper.reward_scale
        batch = len(rewards)

        next_q = self._q_from(self.target_value_net, self.target_adv_net, next_states)
        targets = rewards + hyper.discount * (1.0 - terminals) * next_q.max(axis=1)

        q_all = self._q_from(self.value_net, self.adv_net, states)
        rows = np.arange(batch)
        error = q_all[rows, action_ids] - targets
        loss = float(np.mean(error ** 2))

        scaled = 2.0 * error / batch
        n_actions = len(self.actions)
        # dQ/dV = 1; dQ/dA_j = 1[j = a] - 1/|A|
        upstream_adv = np.full((batch, n_actions), -1.0 / n_actions)
        upstream_adv[rows, action_ids] += 1.0
        upstream_adv *= scaled[:, None]
        # both online nets still hold the activations of _q_from(states) above
        self.value_opt.step(self.value_net.backward(scaled[:, None]))
        self.adv_opt.step(self.adv_net.backward(upstream_adv))
        soft_update(self.target_value_net, self.value_net, hyper.tau)
        soft_update(self.target_adv_net, self.adv_net, hyper.tau)
        self.updates += 1
        return loss

    def save(self, directory) -> None:
        self.value_net.save(f"{directory}/dqn_value_net.npz")
        self.adv_net.save(f"{directory}/dqn_adv_net.npz")
