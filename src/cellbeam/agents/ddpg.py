"""Deep deterministic policy gradient with replay and Polyak target nets.

The actor maps the normalized state to a [-1, 1] action per dimension;
the critic scores (normalized state, normalized action) pairs.  Env-unit
actions only exist at the environment boundary.  The critic only ever sees
actions the environment can apply: a dimension with a single applicable
value (the beams of a one-antenna array) reads -1 in every critic input,
stored, bootstrapped or differentiated.
"""

from __future__ import annotations

import numpy as np

from ..neuralnet import AdamOptimizer, GradientSet, Mlp, soft_update
from .common import FINAL_LAYER_SCALE, ActionScaler, AgentHyperparams, ReplayLearner, agent_stream


def actor_policy_gradient(critic: Mlp, actor: Mlp, states_norm: np.ndarray,
                          scaler: ActionScaler) -> GradientSet:
    """Gradient of the batch-mean critic value with respect to actor parameters.

    Implements the sampled deterministic policy gradient: the critic's
    input gradient at (s, mu(s)) is chained through the actor.  Returned
    with a minus sign so a descent-style optimizer ascends Q.  The critic
    sees mu(s) pinned to the scaler's applicable actions, and the pinned
    dimensions pass no gradient back to the actor.
    """
    batch = states_norm.shape[0]
    actions = actor.forward(states_norm)
    actions = scaler.applicable(actions)
    critic.forward(np.concatenate([states_norm, actions], axis=1))
    ones = np.ones((batch, 1))
    dq_dinput = critic.input_gradient(ones / batch)
    dq_daction = dq_dinput[:, states_norm.shape[1]:]
    dq_daction = np.where(scaler.fixed, 0.0, dq_daction)
    return actor.backward(-dq_daction)


class DdpgAgent(ReplayLearner):
    """Continuous power/beam controller with replay and Polyak-averaged targets."""

    name = "ddpg"

    def __init__(self, env, hyper: AgentHyperparams, seed: int, batch_size: int | None = None):
        super().__init__(env, hyper, seed, batch_size)
        self.scaler = ActionScaler(env.action_low, env.action_high)
        init_rng = agent_stream(seed, 0)
        self._noise_rng = agent_stream(seed, 1)
        self._set_noise()

        n_actions = len(env.action_low)
        hidden = [hyper.width] * hyper.depth
        self.actor = Mlp([8] + hidden + [n_actions],
                         output_low=-np.ones(n_actions), output_high=np.ones(n_actions),
                         rng=init_rng, final_layer_scale=FINAL_LAYER_SCALE)
        self.critic = Mlp([8 + n_actions] + hidden + [1], rng=init_rng,
                          final_layer_scale=FINAL_LAYER_SCALE)
        self.target_actor, self.target_critic = self.actor.copy(), self.critic.copy()
        self.actor_opt = AdamOptimizer(self.actor, lr=hyper.lr,
                                       weight_decay=hyper.actor_weight_decay)
        self.critic_opt = AdamOptimizer(self.critic, lr=hyper.lr,
                                        weight_decay=hyper.critic_weight_decay)

    def _set_noise(self) -> None:
        """Set the per-dimension exploration std for the coming episode.

        The std decays linearly with trained episodes to a floor; it is
        None when every entry is zero, so that ``act`` draws nothing.  A
        non-zero floor keeps replay coverage stationary over training,
        which stops the critic from soaking up time-trend confounds.
        """
        frac = self.hyper.decay_progress(self._episode)
        scale = 1.0 + (self.hyper.noise_end_frac - 1.0) * frac
        sigma = self.hyper.noise_scale * scale * (self.scaler.high - self.scaler.low)
        self._noise_std = sigma if np.any(sigma > 0.0) else None

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        """The actor's action, plus Gaussian noise when exploring, clamped to bounds."""
        # a (B, 1, 8) stack gives each row of a block its one-state bits
        normalized = self.actor.forward(self.normalize(state)[..., None, :])[..., 0, :]
        action = self.scaler.to_env(normalized)
        if explore and self._noise_std is not None:
            action = action + self._noise_rng.normal(0.0, 1.0, action.shape) * self._noise_std
        return np.minimum(np.maximum(action, self.scaler.low), self.scaler.high)

    def end_episode(self, trained: bool) -> None:
        super().end_episode(trained)
        self._set_noise()

    def train_step(self):
        """One minibatch update of critic, actor and both target networks.

        Returns the critic loss, or None (no-op) while the buffer is smaller
        than the batch.
        """
        batch = self._minibatch()
        if batch is None:
            return None
        states, actions, rewards, next_states, bootstrap = batch
        scaler, critic, actor = self.scaler, self.critic, self.actor
        next_actions = scaler.applicable(self.target_actor.forward(next_states))
        next_q = self.target_critic.forward(
            np.concatenate([next_states, next_actions], axis=1))[:, 0]
        targets = rewards + bootstrap * next_q

        actions = scaler.applicable(scaler.to_normalized(actions))
        error = critic.forward(np.concatenate([states, actions], axis=1))[:, 0] - targets
        loss = float(np.add.reduce(error * error) / self.batch_size)
        self.critic_opt.step(critic.backward((2.0 * error / self.batch_size)[:, None]))

        self.actor_opt.step(actor_policy_gradient(critic, actor, states, scaler))

        soft_update(self.target_critic, critic, self.hyper.tau)
        soft_update(self.target_actor, actor, self.hyper.tau)
        return loss

    def save(self, directory) -> None:
        self.actor.save(f"{directory}/{self.name}_actor.npz")
        self.critic.save(f"{directory}/{self.name}_critic.npz")
