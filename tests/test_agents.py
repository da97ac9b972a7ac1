import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellbeam import harness, preset
from cellbeam.agents import (ActionScaler, AgentHyperparams, DdpgAgent, DqnAgent, FpaAgent,
                             HddpgAgent, QLearningAgent, ReplayBuffer, StateDiscretizer,
                             Transition, fpa_power, make_agent, qlearning_update)
from cellbeam.agents.common import agent_stream, discrete_action_table
from cellbeam.agents.ddpg import actor_policy_gradient
from cellbeam.environment import DownlinkEnv
from cellbeam.errors import ConfigurationError, ContractViolation


def make_env(m=1, horizon=10, **kwargs):
    return DownlinkEnv(preset("sub6"), m_antennas=m, horizon=horizon, **kwargs)


def small_hyper(**kwargs):
    defaults = dict(batch_size=8, meta_batch_size=8, controller_batch_size=8,
                    replay_capacity=200, total_episodes=5)
    defaults.update(kwargs)
    return AgentHyperparams(**defaults)


# -- FPA ----------------------------------------------------------------------

def test_fpa_power_full_allocation_hits_cap():
    sc = preset("sub6")
    assert fpa_power(sc, 100, 100) == pytest.approx(10 * math.log10(40_000.0))


def test_fpa_power_quarter_allocation():
    sc = preset("sub6")
    assert fpa_power(sc, 100, 25) == pytest.approx(40.0, abs=1e-9)


def test_fpa_power_validates_block_counts():
    sc = preset("sub6")
    with pytest.raises(ContractViolation):
        fpa_power(sc, 0, 1)
    with pytest.raises(ContractViolation):
        fpa_power(sc, 10, 0)
    with pytest.raises(ContractViolation):
        fpa_power(sc, 10, 11)


def test_fpa_agent_is_static():
    env = make_env()
    agent = FpaAgent(env)
    log = agent.run_episode(env, seed=0, train=True)
    powers, beams = log.states[1:, 4:6], log.states[1:, 6:]
    assert np.all(powers == powers[0, 0])
    assert np.all(beams == 0)
    # channel-independent: a different episode requests the same power
    log2 = agent.run_episode(env, seed=1, train=True)
    assert log2.states[1, 4] == powers[0, 0]


# -- replay buffer -------------------------------------------------------------

def _dummy_transition(i):
    return Transition(np.full(8, float(i)), np.zeros(4), float(i), np.zeros(8), False)


def test_replay_evicts_oldest():
    buf = ReplayBuffer(5, np.random.default_rng(0))
    for i in range(8):
        buf.push(_dummy_transition(i))
    stored = {t.reward for t in buf.contents}
    assert stored == {3.0, 4.0, 5.0, 6.0, 7.0}
    assert len(buf) == 5


def test_replay_sample_is_subset_without_replacement():
    buf = ReplayBuffer(10, np.random.default_rng(1))
    for i in range(10):
        buf.push(_dummy_transition(i))
    states, actions, rewards, next_states, terminals = buf.sample(6)
    assert len(set(rewards)) == 6
    stored = {t.reward: t for t in buf.contents}
    for s, a, r, n, d in zip(states, actions, rewards, next_states, terminals):
        t = stored[r]
        assert np.array_equal(s, t.state) and np.array_equal(a, t.action)
        assert np.array_equal(n, t.next_state) and bool(d) == t.terminated
    with pytest.raises(ContractViolation):
        ReplayBuffer(10, np.random.default_rng(2)).sample(1)


class _ListReplay:
    """List-of-Transition ring buffer: the layout the array buffer replaced."""

    def __init__(self, capacity, rng):
        self.capacity, self.rng, self.items, self.next = capacity, rng, [], 0

    def push(self, transition):
        if len(self.items) < self.capacity:
            self.items.append(transition)
        else:
            self.items[self.next] = transition
        self.next = (self.next + 1) % self.capacity

    def sample(self, batch_size):
        idx = self.rng.choice(len(self.items), size=batch_size, replace=False)
        batch = [self.items[i] for i in idx]
        return (np.stack([t.state for t in batch]),
                np.array([t.action for t in batch], dtype=float),
                np.array([t.reward for t in batch]),
                np.stack([t.next_state for t in batch]),
                np.array([t.terminated for t in batch], dtype=float))


@pytest.mark.parametrize("discrete", [False, True])
def test_array_replay_matches_list_reference_through_wraparound(discrete):
    data = np.random.default_rng(3)
    buf = ReplayBuffer(7, np.random.default_rng(4))
    ref = _ListReplay(7, np.random.default_rng(4))
    for i in range(30):
        action = int(data.integers(12)) if discrete else data.standard_normal(4)
        t = Transition(data.standard_normal(8), action, float(data.standard_normal()),
                       data.standard_normal(8), bool(data.integers(2)))
        buf.push(t)
        ref.push(t)
        assert len(buf) == len(ref.items)
        if len(buf) >= 5:
            for got, want in zip(buf.sample(5), ref.sample(5)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [t.reward for t in buf.contents] == [t.reward for t in ref.items]


@pytest.mark.parametrize("capacity", [1, 40, 100, 300])
def test_replay_grows_with_its_use_and_keeps_the_reference_order(capacity):
    data = np.random.default_rng(5)
    buf = ReplayBuffer(capacity, np.random.default_rng(6))
    ref = _ListReplay(capacity, np.random.default_rng(6))
    for k in range(1, 2 * capacity + 50):
        t = Transition(data.standard_normal(8), data.standard_normal(4),
                       float(data.standard_normal()), data.standard_normal(8),
                       bool(data.integers(2)))
        buf.push(t)
        ref.push(t)
        rows = len(buf._arrays[0])
        assert rows < max(2 * k, 64) and rows <= capacity
        if len(buf) >= 3 and k % 7 == 0:
            for got, want in zip(buf.sample(3), ref.sample(3)):
                assert np.array_equal(got, want)
    assert rows == capacity
    assert [t.reward for t in buf.contents] == [t.reward for t in ref.items]


def test_replay_rejects_a_transition_shaped_unlike_the_first():
    buf = ReplayBuffer(4, np.random.default_rng(0))
    buf.push(_dummy_transition(0))
    with pytest.raises(ContractViolation):
        buf.push(Transition(np.zeros(8), 3, 0.0, np.zeros(8), False))


# -- Q-learning -----------------------------------------------------------------

def test_qlearning_update_zero_lr_is_noop():
    table = {}
    qlearning_update(table, (0,), 0, 1.0, (1,), lr=0.0, discount=0.9, n_actions=2)
    assert table == {}


def test_qlearning_update_zero_init_bootstrap():
    table = {}
    qlearning_update(table, (0,), 1, 1.0, (1,), lr=1.0, discount=0.9, n_actions=2)
    assert table[(0,)][1] == pytest.approx(1.0)


def test_qlearning_update_two_steps_hand_computed():
    # scalar recurrence: q1 = q0 + lr (r + a max q(s') - q0)
    table = {}
    lr, a = 0.5, 0.9
    qlearning_update(table, (0,), 0, 2.0, (1,), lr=lr, discount=a, n_actions=2)
    q0 = lr * 2.0
    assert table[(0,)][0] == pytest.approx(q0)
    qlearning_update(table, (1,), 1, 3.0, (0,), lr=lr, discount=a, n_actions=2)
    q1 = lr * (3.0 + a * q0)
    assert table[(1,)][1] == pytest.approx(q1)
    qlearning_update(table, (0,), 0, 2.0, (1,), lr=lr, discount=a, n_actions=2)
    assert table[(0,)][0] == pytest.approx(q0 + lr * (2.0 + a * q1 - q0))


def test_qlearning_terminal_drops_bootstrap():
    table = {(9,): np.array([100.0, 100.0])}
    qlearning_update(table, (0,), 0, 1.0, (9,), lr=1.0, discount=0.9,
                     done=True, n_actions=2)
    assert table[(0,)][0] == pytest.approx(1.0)


def test_qlearning_rejects_negative_lr():
    with pytest.raises(ContractViolation):
        qlearning_update({}, (0,), 0, 1.0, (1,), lr=-0.1, discount=0.9, n_actions=2)


def test_qlearning_converges_to_value_iteration():
    # deterministic 2-state/2-action MDP solved twice, independently
    transitions = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    rewards = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 2.0, (1, 1): -1.0}
    discount = 0.9

    q_star = np.zeros((2, 2))
    for _ in range(2000):
        new = np.array([[rewards[s, a] + discount * q_star[transitions[s, a]].max()
                         for a in (0, 1)] for s in (0, 1)])
        if np.abs(new - q_star).max() < 1e-13:
            q_star = new
            break
        q_star = new

    table = {}
    for _ in range(10_000):
        for s in (0, 1):
            for a in (0, 1):
                qlearning_update(table, s, a, rewards[s, a], transitions[s, a],
                                 lr=0.5, discount=discount, n_actions=2)
    learned = np.array([table[s] for s in (0, 1)])
    assert np.abs(learned - q_star).max() < 1e-6


def _scalar_key(state, low, high, position_bins, power_levels):
    """The per-feature binning rule, one scalar clip at a time."""
    def bin_of(value, lo, hi, n):
        if hi <= lo:
            return 0
        return int(np.clip(np.floor((value - lo) / (hi - lo) * n), 0, n - 1))
    counts = [position_bins] * 4 + [power_levels] * 2
    return tuple(bin_of(state[i], low[i], high[i], counts[i]) for i in range(6)) + (
        int(round(state[6])), int(round(state[7])))


_coord = st.floats(-1e3, 1e3, allow_nan=False)


@given(low=st.lists(_coord, min_size=8, max_size=8),
       spans=st.lists(st.sampled_from([0.0, -1.0, 0.5, 3.0, 700.0]), min_size=8, max_size=8),
       state=st.lists(st.floats(-2e3, 2e3, allow_nan=False), min_size=6, max_size=6),
       beams=st.lists(st.integers(0, 63), min_size=2, max_size=2),
       position_bins=st.integers(1, 12), power_levels=st.integers(1, 6))
def test_discretizer_key_equals_the_scalar_rule(low, spans, state, beams, position_bins,
                                                power_levels):
    low = np.array(low)
    high = low + np.array(spans)     # zero and negative spans give one bin
    env = SimpleNamespace(state_low=low, state_high=high)
    s = np.array(state + [float(b) for b in beams])
    key = StateDiscretizer(env, position_bins, power_levels).key(s)
    assert key == _scalar_key(s, low, high, position_bins, power_levels)
    assert all(type(k) is int for k in key)


def test_discretizer_key_at_the_bin_edges():
    env = SimpleNamespace(state_low=np.zeros(8), state_high=np.array([8.0, 8, 8, 0, 4, 4, 1, 1]))
    disc = StateDiscretizer(env, position_bins=8, power_levels=4)
    assert disc.key(np.array([0.0, 7.999, 8.0, 5.0, -1.0, 9.0, 0.6, 1.0])) == (
        0, 7, 7, 0, 0, 3, 1, 1)


def test_qlearning_agent_actions_respect_bounds():
    env = make_env()
    agent = QLearningAgent(env, small_hyper(), seed=0)
    log = agent.run_episode(env, seed=0, train=True)
    assert np.all(log.actions[:, :2] >= env.power_floor_dbm)
    assert np.all(log.actions[:, :2] <= env.scenario.max_bs_power_dbm)


# -- DQN -------------------------------------------------------------------------

def test_dqn_greedy_reproduces_argmax():
    env = make_env()
    hyper = small_hyper(eps_start=0.0, eps_end=0.0)
    agent = DqnAgent(env, hyper, seed=0)
    # table-like network: zero weights, biases hold the q-values of each action
    for net in (agent.value_net, agent.adv_net):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    qvals = np.linspace(-1.0, 1.0, len(agent.actions))
    best = len(agent.actions) // 2 + 1
    qvals[best] = 5.0
    agent.adv_net.biases[-1][:] = qvals
    state = env.reset(0)
    action = agent.act(state, explore=True)
    expected = agent.actions[best]
    assert int(np.argmax(agent.adv_net.forward(agent.normalize(state)))) == best
    assert np.allclose(action[:2], np.clip(
        [state[4] + expected[0], state[5] + expected[1]],
        env.power_floor_dbm, env.scenario.max_bs_power_dbm))


def test_dqn_trains_and_reports_loss():
    env = make_env()
    agent = DqnAgent(env, small_hyper(), seed=1)
    losses = []
    for e in range(4):
        log = agent.run_episode(env, seed=e, train=True)
        losses.extend(log.losses[np.isfinite(log.losses)])
    assert losses and all(np.isfinite(losses))


@pytest.mark.parametrize("cls, stream", [(QLearningAgent, 0), (DqnAgent, 1)])
def test_discrete_agents_explore_on_their_own_stream(cls, stream):
    env = make_env(m=4)
    agent = cls(env, small_hyper(eps_start=0.8, eps_end=0.1, total_episodes=4), seed=7)
    rng = agent_stream(7, stream)
    for episode in range(4):
        # linear from 0.8 to 0.1 over (total_episodes - 1) trained episodes
        assert agent.epsilon == pytest.approx(0.8 - 0.7 * min(1.0, episode / 3))
        for t in range(5):
            s = env.reset(10 * episode + t)
            explores = rng.random() < agent.epsilon
            action = agent.act(s, explore=True)
            if explores:
                assert agent._last_joint == int(rng.integers(len(agent.actions)))
            dp_l, dp_b, db_l, db_b = agent.actions[agent._last_joint]
            assert np.array_equal(action, [
                np.clip(s[4] + dp_l, env.power_floor_dbm, env.scenario.max_bs_power_dbm),
                np.clip(s[5] + dp_b, env.power_floor_dbm, env.scenario.max_bs_power_dbm),
                (s[6] + db_l) % 4, (s[7] + db_b) % 4])
        agent.end_episode(trained=False)   # only trained episodes decay epsilon
        agent.end_episode(trained=True)


@pytest.mark.parametrize("cls, stream", [(QLearningAgent, 0), (DqnAgent, 1)])
def test_discrete_agents_refuse_an_exploring_block(cls, stream):
    env = make_env(m=4)
    agent = cls(env, small_hyper(eps_start=1.0, eps_end=1.0), seed=7)
    states = env.start(range(6))
    with pytest.raises(ContractViolation, match="one-state"):
        agent.act(states, explore=True)
    # nothing was drawn, and the greedy block act still answers every row
    assert agent._explore_rng.bit_generator.state == agent_stream(7, stream).bit_generator.state
    assert agent.act(states, explore=False).shape == (6, 4)


def test_discrete_action_table_shape_and_order():
    table = discrete_action_table((1.0, 3.0))
    assert len(table) == 64
    # first action raises both powers by the largest step
    assert table[0][:2] == (3.0, 3.0)
    deltas = {t[0] for t in table}
    assert deltas == {3.0, 1.0, -1.0, -3.0}
    # single-beam codebooks collapse the no-op beam directions
    assert len(discrete_action_table((1.0, 3.0), codebook_size=1)) == 16


# -- DDPG ------------------------------------------------------------------------

def test_ddpg_act_deterministic_without_noise():
    env = make_env()
    agent = DdpgAgent(env, small_hyper(), seed=0)
    s = env.reset(0)
    a1 = agent.act(s, explore=False)
    a2 = agent.act(s, explore=False)
    assert np.array_equal(a1, a2)


def test_ddpg_act_bounds_and_noise():
    env = make_env(m=4)
    agent = DdpgAgent(env, small_hyper(noise_scale=0.5), seed=0)
    s = env.reset(1)
    for _ in range(30):
        a = agent.act(s, explore=True)
        assert np.all(a >= env.action_low - 1e-12)
        assert np.all(a <= env.action_high + 1e-12)
    other = DdpgAgent(env, small_hyper(noise_scale=0.5), seed=99)
    assert not np.array_equal(agent.act(s, explore=True), other.act(s, explore=True))


def test_ddpg_act_without_noise_draws_nothing():
    env = make_env(m=4)
    agent = DdpgAgent(env, small_hyper(noise_scale=0.0), seed=0)
    s = env.reset(1)
    before = agent._noise_rng.bit_generator.state
    action = agent.act(s, explore=True)
    assert agent._noise_rng.bit_generator.state == before
    assert np.array_equal(action, agent.act(s, explore=False))


def test_ddpg_noise_std_follows_the_trained_episode_count():
    env = make_env(m=4)
    hyper = small_hyper(noise_scale=0.3, noise_end_frac=0.2, total_episodes=4)
    agent = DdpgAgent(env, hyper, seed=0)
    s = env.reset(1)
    low, high = env.action_low, env.action_high
    for k in range(6):
        scale = 1.0 + (hyper.noise_end_frac - 1.0) * hyper.decay_progress(k)
        sigma = hyper.noise_scale * scale * (high - low)
        for _ in range(2):      # an untrained episode leaves the std where it was
            greedy = agent.act(s, explore=False)
            draw = copy.deepcopy(agent._noise_rng).normal(0.0, 1.0, 4)
            expected = np.minimum(np.maximum(greedy + draw * sigma, low), high)
            assert np.array_equal(agent.act(s, explore=True), expected)
            agent.end_episode(False)
        agent.end_episode(True)


def test_ddpg_train_step_requires_buffer():
    env = make_env()
    agent = DdpgAgent(env, small_hyper(), seed=2)
    assert agent.train_step() is None  # insufficient buffer -> no-op with signal


def test_ddpg_targets_track_with_tau_one():
    env = make_env()
    hyper = small_hyper(tau=1.0)
    agent = DdpgAgent(env, hyper, seed=3)
    s = env.reset(2)
    for _ in range(12):
        a = agent.act(s)
        out = env.step(a)
        agent.observe(s, a, out.reward, out.next_state, out.done)
        s = out.next_state
        if out.done:
            s = env.reset(3)
            agent.begin_episode(s)
    for t, l in zip(agent.target_actor.weights + agent.target_critic.weights,
                    agent.actor.weights + agent.critic.weights):
        assert np.array_equal(t, l)


def test_ddpg_critic_regresses_to_constant():
    # identical transitions with discount 0: critic loss heads toward 0
    env = make_env()
    hyper = small_hyper(discount=1e-9, lr=0.01, reward_scale=1.0)
    agent = DdpgAgent(env, hyper, seed=4)
    s = env.reset(4)
    t = Transition(s, np.array([20.0, 20.0, 0.0, 0.0]), 5.0, s, True)
    for _ in range(20):
        agent.buffer.push(t)
    losses = [agent.train_step() for _ in range(300)]
    assert losses[-1] < losses[0] * 0.05


def test_actor_policy_gradient_matches_finite_difference():
    env = make_env()
    hyper = small_hyper(width=4, depth=1)
    agent = DdpgAgent(env, hyper, seed=5)
    actor, critic = agent.actor, agent.critic
    rng = np.random.default_rng(6)
    states = rng.standard_normal((3, 8)) * 0.5

    def objective():
        a = actor.forward(states)
        return float(np.mean(critic.forward(np.concatenate([states, a], axis=1))))

    # no zero-span dimension, so every action dimension passes its gradient
    grads = actor_policy_gradient(critic, actor, states, ActionScaler(-np.ones(4), np.ones(4)))
    h = 1e-6
    for w, gw in zip(actor.weights, grads.weights):
        for idx in [(0, 0), (0, w.shape[1] - 1), (w.shape[0] - 1, 0)]:
            orig = w[idx]
            w[idx] = orig + h
            plus = objective()
            w[idx] = orig - h
            minus = objective()
            w[idx] = orig
            fd = (plus - minus) / (2 * h)
            # gradient is returned negated for descent-style optimizers
            assert -gw[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_ddpg_full_run_is_bit_reproducible():
    def roll():
        env = make_env()
        agent = DdpgAgent(env, small_hyper(), seed=7)
        logs = [agent.run_episode(env, seed=e, train=True) for e in range(4)]
        return np.concatenate([log.actions.ravel() for log in logs])

    assert np.array_equal(roll(), roll())


# -- h-DDPG ----------------------------------------------------------------------

def test_hddpg_meta_reward_sums_window():
    env = make_env()
    hyper = small_hyper(meta_period=3, batch_size=1000, meta_batch_size=1000,
                        controller_batch_size=1000, replay_capacity=1000)
    agent = HddpgAgent(env, hyper, seed=0)
    s = env.reset(0)
    agent.begin_episode(s)
    for r in (2.0, 3.0, 4.0):
        agent.observe(s, agent.act(s), r, s, False)
    assert len(agent.meta.buffer) == 1
    assert agent.meta.buffer.contents[0].reward == pytest.approx(9.0)


def test_hddpg_meta_buffer_count_floor_t_over_c():
    env = DownlinkEnv(preset("sub6"), m_antennas=1, horizon=50, gamma_cutoff_db=-1e9)
    hyper = small_hyper(meta_period=3, batch_size=10_000, meta_batch_size=10_000,
                        controller_batch_size=10_000, replay_capacity=10_000)
    agent = HddpgAgent(env, hyper, seed=1)
    log = agent.run_episode(env, seed=0, train=True)
    assert log.steps == 50
    assert len(agent.meta.buffer) == 50 // 3


def test_hddpg_degenerates_to_ddpg():
    # c = 1 and zero goal penalty: identical trajectories under shared seeds
    def roll(agent_cls, **agent_kwargs):
        env = make_env(horizon=8)
        hyper = small_hyper(meta_period=1, goal_penalty_weight=0.0,
                            batch_size=8, controller_batch_size=8, meta_batch_size=8)
        agent = agent_cls(env, hyper, seed=11, **agent_kwargs)
        logs = [agent.run_episode(env, seed=e, train=True) for e in range(4)]
        return logs

    ddpg_logs = roll(DdpgAgent)
    hddpg_logs = roll(HddpgAgent)
    for a, b in zip(ddpg_logs, hddpg_logs):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)


def test_hddpg_diverges_with_goal_penalty():
    def roll(agent_cls, weight):
        env = make_env(horizon=8)
        hyper = small_hyper(meta_period=3, goal_penalty_weight=weight,
                            batch_size=8, controller_batch_size=8)
        agent = agent_cls(env, hyper, seed=12)
        return [agent.run_episode(env, seed=e, train=True) for e in range(6)]

    ddpg_logs = roll(DdpgAgent, 1.0)
    hddpg_logs = roll(HddpgAgent, 1.0)
    same = all(np.array_equal(a.actions, b.actions)
               for a, b in zip(ddpg_logs, hddpg_logs))
    assert not same


# -- cross-cutting -----------------------------------------------------------------

def test_all_agents_respect_action_contract():
    env = make_env(m=4)
    hyper = small_hyper()
    for name in ("fpa", "qlearning", "dqn", "ddpg", "hddpg"):
        agent = make_agent(name, env, hyper, seed=3)
        for e in range(2):
            log = agent.run_episode(env, seed=e, train=True)
            assert np.all(np.isfinite(log.actions))
            assert np.all(log.actions[:, :2] >= env.power_floor_dbm - 1e-9)
            assert np.all(log.actions[:, :2] <= env.scenario.max_bs_power_dbm + 1e-9)


def test_make_agent_rejects_unknown():
    env = make_env()
    with pytest.raises(ConfigurationError):
        make_agent("sarsa", env, small_hyper(), seed=0)


def test_hyperparams_validation():
    with pytest.raises(ConfigurationError):
        AgentHyperparams(discount=1.0)
    with pytest.raises(ConfigurationError):
        AgentHyperparams(tau=1.5)
    with pytest.raises(ConfigurationError):
        AgentHyperparams(meta_period=0)
    for key, bad in (("batch_size", 0), ("meta_batch_size", 0), ("controller_batch_size", 0),
                     ("width", 0), ("noise_scale", -0.1), ("train_geometry_cycle", -3),
                     ("q_lr", -0.1), ("replay_capacity", 0), ("depth", -1),
                     ("actor_weight_decay", -1e-3), ("critic_weight_decay", -1e-3),
                     ("noise_end_frac", -1.0), ("goal_penalty_weight", -0.5)):
        with pytest.raises(ConfigurationError, match=f"^{key} "):
            AgentHyperparams(**{key: bad})
    # a replay smaller than a batch never fills one, so its learner would never update
    for key in ("batch_size", "meta_batch_size", "controller_batch_size"):
        with pytest.raises(ConfigurationError, match="^replay_capacity must be >= 200$"):
            AgentHyperparams(**{key: 200}, replay_capacity=199)
    with pytest.raises(ConfigurationError, match="^replay_capacity must be >= 128$"):
        AgentHyperparams(replay_capacity=100)
    edge = AgentHyperparams(q_lr=0.0, depth=0, replay_capacity=1, batch_size=1,
                            meta_batch_size=1, controller_batch_size=1, actor_weight_decay=0.0,
                            critic_weight_decay=0.0, noise_scale=0.0, train_geometry_cycle=0)
    assert (edge.q_lr, edge.depth, edge.replay_capacity) == (0.0, 0, 1)
    defaults = AgentHyperparams()
    assert (defaults.discount, defaults.tau, defaults.lr) == (0.9, 0.1, 1e-4)
    assert (defaults.width, defaults.depth, defaults.meta_period) == (28, 4, 3)
    assert defaults.batch_size == 128
    assert (defaults.meta_batch_size, defaults.controller_batch_size) == (64, 64)


def test_agents_save_checkpoints(tmp_path):
    env = make_env()
    expected = {"qlearning": ["qtable.npz"], "dqn": ["dqn_adv_net.npz", "dqn_value_net.npz"],
                "ddpg": ["ddpg_actor.npz", "ddpg_critic.npz"],
                "hddpg": ["hddpg_controller_actor.npz", "hddpg_controller_critic.npz",
                          "hddpg_meta_actor.npz", "hddpg_meta_critic.npz"]}
    for name, files in expected.items():
        agent = make_agent(name, env, small_hyper(), seed=4)
        agent.run_episode(env, seed=0, train=True)
        target = tmp_path / name
        target.mkdir()
        agent.save(str(target))
        assert sorted(path.name for path in target.glob("*.npz")) == files


def test_mmwave_preset_end_to_end():
    env = DownlinkEnv(preset("mmwave"), m_antennas=4, horizon=5)
    agent = make_agent("ddpg", env, small_hyper(), seed=5)
    log = agent.run_episode(env, seed=0, train=True)
    assert log.steps >= 1 and np.all(np.isfinite(log.rewards))


# -- truncation, critic inputs and the baseline anchor ------------------------------

def _quiet_env(horizon=5):
    return DownlinkEnv(preset("sub6"), m_antennas=1, horizon=horizon, gamma_cutoff_db=-1e9)


def _noisy_env():
    # every UE falls below the cutoff on the first frame
    return DownlinkEnv(preset("sub6", noise_power_dbm=100.0), m_antennas=1, horizon=5)


@pytest.mark.parametrize("name", ["dqn", "ddpg"])
def test_replay_marks_only_aborts_terminal(name):
    hyper = small_hyper(batch_size=10_000, replay_capacity=10_000)
    agent = make_agent(name, _quiet_env(), hyper, seed=0)
    agent.run_episode(_quiet_env(), seed=0, train=True)
    assert [t.terminated for t in agent.buffer.contents] == [False] * 5

    agent = make_agent(name, _noisy_env(), hyper, seed=0)
    agent.run_episode(_noisy_env(), seed=0, train=True)
    assert [t.terminated for t in agent.buffer.contents] == [True]


def test_qlearning_bootstraps_through_truncation_only():
    env = make_env()
    s = env.reset(0)
    for terminated, truncated, expected in ((False, True, 1.0 + 0.9 * 10.0),
                                            (True, False, 1.0)):
        agent = QLearningAgent(env, small_hyper(q_lr=1.0), seed=0)
        agent.act(s, explore=False)
        key = agent.discretizer.key(s)
        agent.table[key] = np.full(len(agent.actions), 10.0)
        agent.observe(s, None, 1.0, s, terminated, truncated)
        assert agent.table[key][agent._last_joint] == pytest.approx(expected)


def test_ddpg_target_bootstraps_unless_terminated():
    env = make_env()
    s = env.reset(0)
    a = np.array([20.0, 20.0, 0.0, 0.0])
    for terminated in (False, True):
        agent = DdpgAgent(env, small_hyper(reward_scale=1.0), seed=1)
        for _ in range(8):
            agent.buffer.push(Transition(s, a, 5.0, s, terminated))
        s_n = agent.normalize(s)
        a_n = agent.scaler.applicable(agent.scaler.to_normalized(a))
        q = agent.critic.forward(np.concatenate([s_n, a_n]))[0]
        next_a = agent.scaler.applicable(agent.target_actor.forward(s_n))
        next_q = agent.target_critic.forward(np.concatenate([s_n, next_a]))[0]
        target = 5.0 + (0.0 if terminated else 0.9 * next_q)
        assert agent.train_step() == pytest.approx((q - target) ** 2, rel=1e-12)


def test_dqn_target_bootstraps_unless_terminated():
    env = make_env()
    s = env.reset(0)
    for terminated in (False, True):
        agent = DqnAgent(env, small_hyper(reward_scale=1.0), seed=1)
        for _ in range(8):
            agent.buffer.push(Transition(s, 3, 5.0, s, terminated))
        s_n = agent.normalize(s)
        adv = agent.adv_net.forward(s_n).copy()
        q = agent.value_net.forward(s_n)[0] + adv[3] - adv.mean()
        next_adv = agent.target_adv_net.forward(s_n).copy()
        next_q = agent.target_value_net.forward(s_n)[0] + next_adv - next_adv.mean()
        target = 5.0 + (0.0 if terminated else 0.9 * next_q.max())
        assert agent.train_step() == pytest.approx((q - target) ** 2, rel=1e-12)


def test_hddpg_pushes_an_aborted_window_as_terminal():
    env = _noisy_env()
    hyper = small_hyper(meta_period=3, batch_size=1000, meta_batch_size=1000,
                        controller_batch_size=1000, replay_capacity=1000)
    agent = HddpgAgent(env, hyper, seed=0)
    log = agent.run_episode(env, seed=0, train=True)
    assert log.steps == 1 and log.aborted
    (meta,) = agent.meta.buffer.contents
    assert meta.terminated and meta.reward == log.rewards[0]


def test_ddpg_critic_sees_only_applicable_beam_inputs_at_one_antenna():
    env = make_env(m=1)
    agent = DdpgAgent(env, small_hyper(), seed=2)
    seen = []
    for net in (agent.critic, agent.target_critic):
        def recording(x, _forward=net.forward):
            seen.append(np.atleast_2d(x).copy())
            return _forward(x)
        net.forward = recording
    for e in range(4):
        agent.run_episode(env, seed=e, train=True)
    assert agent.updates > 0
    inputs = np.concatenate(seen)
    assert np.all(inputs[:, 8 + 2:] == -1.0)
    assert np.any(inputs[:, 8:10] != -1.0)


@pytest.mark.parametrize("name", ["dqn", "ddpg", "hddpg"])
def test_untrained_learner_acts_greedily_as_fpa(name, tmp_path):
    # one 10-step episode fills no minibatch: the check has no evidence, so
    # the cell evaluates FPA
    plan = harness.ExperimentPlan(algorithms=(name,), antenna_counts=(4,), seeds=(0,),
                                  episodes=1, eval_episodes=3, output_dir=str(tmp_path))
    cfg = harness.RunConfig(plan=plan, env=harness.EnvSettings(horizon=10))
    agent, _, eval_logs, summary, _ = harness.run_cell(cfg, name, 4, 0)
    assert agent.updates == 0 and summary.validation is None
    assert summary.greedy_policy == "fpa"
    env = harness.build_env(cfg, 4)
    assert harness.validate_policy(agent, env, [1, 2], z=-1e9) is None
    fpa_logs = FpaAgent(env).run_episodes(
        env, [harness.eval_env_seed(4, 0, e) for e in range(3)])
    for got, want in zip(eval_logs, fpa_logs, strict=True):
        assert np.array_equal(got.actions, want.actions)
        assert np.array_equal(got.eff_sinr_db, want.eff_sinr_db)
    # the agent's own greedy act is not FPA's
    s = env.reset(0)
    assert not np.array_equal(agent.act(s, explore=False), FpaAgent(env).act(s))


def test_validation_keeps_fpa_without_a_gain():
    env = make_env(horizon=5)
    agent = DdpgAgent(env, small_hyper(), seed=3)
    agent.updates = 1
    # a learned policy that is FPA itself shows no gain and is not trusted
    agent.actor.forward = lambda x: np.ones(np.shape(x)[:-1] + (4,))
    agent.scaler.high[:2] = env.scenario.max_bs_power_dbm
    result = harness.validate_policy(agent, env, [0, 1, 2], z=2.0)
    assert not result.trusted
    assert result.episodes == 3 and abs(result.mean_gain) < 1e-9
    # a drained policy is worse and stays untrusted even at a lenient z
    agent.actor.forward = lambda x: -np.ones(np.shape(x)[:-1] + (4,))
    result = harness.validate_policy(agent, env, [0, 1, 2], z=0.0)
    assert result.mean_gain < 0.0 and not result.trusted
    # the rule is mean gain > z standard errors, whatever the sign of z
    result = harness.validate_policy(agent, env, [0, 1, 2], z=-1e9)
    assert result.stderr > 0.0 and result.trusted


@pytest.mark.parametrize("name", ["dqn", "ddpg", "hddpg"])
def test_validation_leaves_the_greedy_act_unchanged(name):
    env = DownlinkEnv(preset("sub6"), m_antennas=4, horizon=5, gamma_cutoff_db=-1e9)
    agent = make_agent(name, env, small_hyper(), seed=0)
    for e in range(3):
        agent.run_episode(env, 100 + e, train=True)
    assert agent.updates > 0
    s = env.reset(0)
    greedy = agent.act(s, explore=False)
    assert not np.array_equal(greedy, FpaAgent(env).act(s))
    # neither outcome of the check moves the agent's greedy act
    for z, trusted in ((1e9, False), (-1e9, True)):
        assert harness.validate_policy(agent, env, [1, 2, 3], z=z).trusted == trusted
        assert np.array_equal(agent.act(s, explore=False), greedy)


# -- per-step costs that keep every bit ---------------------------------------------

def test_qlearning_keys_each_state_once_and_learns_the_same_table(monkeypatch):
    env = make_env(horizon=20, gamma_cutoff_db=-1e9)
    hyper = small_hyper(eps_start=0.5, eps_end=0.5)    # exploring and greedy acts
    keyed, key = [], StateDiscretizer.key
    monkeypatch.setattr(StateDiscretizer, "key",
                        lambda self, state: keyed.append(state.tobytes()) or key(self, state))
    agent = QLearningAgent(env, hyper, seed=3)
    log = agent.run_episode(env, seed=4, train=True)
    assert log.steps == 20
    assert len(keyed) == len(set(keyed)) == log.steps + 1

    uncached = QLearningAgent(env, hyper, seed=3)
    uncached._key = uncached.discretizer.key
    for seed in range(5, 9):
        agent.run_episode(env, seed=seed, train=True)
    for seed in range(4, 9):
        uncached.run_episode(env, seed=seed, train=True)
    assert agent.table.keys() == uncached.table.keys()
    assert all(agent.table[k].tobytes() == uncached.table[k].tobytes() for k in agent.table)


_MAGNITUDES = st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
                        st.sampled_from((-1.0, 1.0)), st.floats(1.0, 9.99), st.integers(-300, 299))


@given(st.data())
def test_dqn_max_target_equals_the_max_over_every_q(data):
    rows, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 40))
    pool = data.draw(st.lists(_MAGNITUDES, min_size=1, max_size=6))   # a small pool makes ties
    draw = st.lists(st.sampled_from(pool), min_size=rows * (n + 1), max_size=rows * (n + 1))
    values = np.array(data.draw(draw)).reshape(rows, n + 1)
    v, a = values[:, 0], values[:, 1:]
    every_q = (v[:, None] + a) - a.mean(axis=1, keepdims=True)
    fast = v + a.max(axis=1)
    fast -= a.sum(axis=1) / n
    assert fast.tobytes() == every_q.max(axis=1).tobytes()


def _full_q_update(agent):
    """One DQN update formed over every action's Q, as a reference for train_step."""
    def q_of(value_net, adv_net, states):
        adv = adv_net.forward(states)
        return value_net.forward(states) + adv - adv.mean(axis=1, keepdims=True)

    states, actions, rewards, next_states, bootstrap = agent._minibatch()
    targets = rewards + bootstrap * q_of(agent.target_value_net, agent.target_adv_net,
                                         next_states).max(axis=1)
    rows, ids = np.arange(agent.batch_size), actions.astype(int)
    error = q_of(agent.value_net, agent.adv_net, states)[rows, ids] - targets
    scaled = 2.0 * error / agent.batch_size
    upstream = np.full((agent.batch_size, len(agent.actions)), -1.0 / len(agent.actions))
    upstream[rows, ids] += 1.0
    upstream *= scaled[:, None]
    agent.value_opt.step(agent.value_net.backward(scaled[:, None]))
    agent.adv_opt.step(agent.adv_net.backward(upstream))
    for target, source in ((agent.target_value_net, agent.value_net),
                           (agent.target_adv_net, agent.adv_net)):
        target.params[...] = (1.0 - agent.hyper.tau) * target.params + agent.hyper.tau * source.params
    return float(np.mean(error ** 2))


def test_dqn_update_equals_the_update_over_every_q():
    env = make_env(m=4)
    hyper = small_hyper(batch_size=16, critic_weight_decay=0.1)
    agent, reference = DqnAgent(env, hyper, seed=5), DqnAgent(env, hyper, seed=5)
    for seed in range(6):
        agent.run_episode(env, seed=seed, train=True)
        reference.run_episode(env, seed=seed, train=True)
    for _ in range(5):
        assert agent.train_step() == _full_q_update(reference)
    for net in ("value_net", "adv_net", "target_value_net", "target_adv_net"):
        assert getattr(agent, net).params.tobytes() == getattr(reference, net).params.tobytes()
