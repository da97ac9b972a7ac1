"""Lockstep block rollouts: each episode equals its one-episode rollout bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellbeam import channel as chan
from cellbeam import environment, preset
from cellbeam.agents import AgentHyperparams, FpaAgent, make_agent
from cellbeam.environment import DownlinkEnv
from cellbeam.harness import VALID_ANTENNA_COUNTS

# learners train a few episodes first, then act on their learned policy
AGENTS = ("fpa", "ddpg", "dqn", "hddpg", "qlearning")
FIELDS = ("states", "actions", "rewards", "losses", "eff_sinr_db", "norm_power")


def _env(m, horizon, cutoff_db):
    return DownlinkEnv(preset("sub6"), m_antennas=m, horizon=horizon, gamma_cutoff_db=cutoff_db)


def _agent(kind, env):
    if kind == "fpa":
        return FpaAgent(env)
    hyper = AgentHyperparams(batch_size=8, meta_batch_size=8, controller_batch_size=8,
                             replay_capacity=200, total_episodes=3)
    agent = make_agent(kind, env, hyper, seed=5)
    # the ranges an agent reads from its env do not depend on horizon or cutoff
    trainer = _env(env.m_antennas, 12, -30.0)
    for e in range(3):
        agent.run_episode(trainer, 1000 + e, train=True)
    # a network learner acts on weights that training moved
    assert kind == "qlearning" or agent.updates > 0
    return agent


def _assert_same(block, single):
    assert len(block) == len(single)
    for got, want in zip(block, single):
        assert got.seed == want.seed and got.aborted == want.aborted
        for name in FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b, equal_nan=True), name


def _sequential(agent, env, seeds, topology_seeds):
    return [agent.run_episode(env, s, train=False, topology_seed=t)
            for s, t in zip(seeds, topology_seeds)]


@given(kind=st.sampled_from(AGENTS), m=st.sampled_from(VALID_ANTENNA_COUNTS),
       episodes=st.integers(1, 20), horizon=st.integers(1, 12),
       cutoff_db=st.sampled_from((-30.0, 4.0, 10.0)), first_seed=st.integers(0, 2 ** 20),
       cycle=st.integers(0, 4))
@settings(max_examples=40)
def test_block_equals_one_episode_rollouts(kind, m, episodes, horizon, cutoff_db,
                                           first_seed, cycle):
    env = _env(m, horizon, cutoff_db)
    agent = _agent(kind, env)
    seeds = [first_seed + i for i in range(episodes)]
    drops = [seeds[i % cycle] for i in range(episodes)] if cycle else [None] * episodes
    block = agent.run_episodes(env, seeds, drops)
    _assert_same(block, _sequential(agent, env, seeds, drops))


@given(kind=st.sampled_from(AGENTS), m=st.sampled_from(VALID_ANTENNA_COUNTS),
       trained=st.booleans(), rows=st.integers(1, 60), seed=st.integers(0, 2 ** 20))
@settings(max_examples=60)
def test_block_act_equals_stacked_one_state_acts(kind, m, trained, rows, seed):
    env = _env(m, 12, 4.0)
    if trained or kind == "fpa":
        agent = _agent(kind, env)
    else:
        agent = make_agent(kind, env, AgentHyperparams(), seed=5)
    rng = np.random.default_rng(seed)
    states = rng.uniform(env.state_low, env.state_high, (rows, 8))
    if kind == "qlearning":
        # every other row is visited, with distinct values; the rest read as zeros
        for state in states[::2]:
            agent.table[agent.discretizer.key(state)] = rng.standard_normal(len(agent.actions))
    if kind in ("qlearning", "dqn"):
        values = agent.action_values(states)
        assert np.array_equal(values, np.stack([agent.action_values(s) for s in states]))
        leads = values.max(axis=1) - values[:, 0]
        if kind == "dqn":
            # rows leading by at most the median fall back to action 0, the rest keep the argmax
            agent.greedy_margin = float(np.median(leads))
    block = agent.act(states, explore=False)
    if kind in ("qlearning", "dqn"):
        assert np.array_equal(agent._last_joint,
                              np.where(leads <= agent.greedy_margin, 0, values.argmax(axis=1)))
    assert block.shape == (rows, 4)
    assert np.array_equal(block, np.stack([agent.act(s, explore=False) for s in states]))


def test_set_over_the_byte_budget_splits_into_blocks(monkeypatch):
    env = _env(4, 10, 4.0)
    per_episode = environment.BLOCK_BYTES // env.block_episodes
    monkeypatch.setattr(environment, "BLOCK_BYTES", 3 * per_episode + 1)
    assert env.block_episodes == 3
    starts = []
    start = env.start
    monkeypatch.setattr(env, "start", lambda seeds, drops: starts.append(len(seeds))
                        or start(seeds, drops))
    seeds = list(range(40, 50))
    for kind in ("fpa", "ddpg"):
        agent = _agent(kind, env)
        starts.clear()
        block = agent.run_episodes(env, seeds)
        assert starts == [3, 3, 3, 1]
        _assert_same(block, _sequential(agent, env, seeds, [None] * len(seeds)))
        # the set holds both ends of an episode: aborts and horizon truncations
        assert {log.aborted for log in block} == {True, False}
        assert any(not log.aborted and log.steps == env.horizon for log in block)


@pytest.mark.parametrize("m, horizon, size", [(64, 50, 12), (1, 20, 48), (4, 20, 45)])
def test_block_sizes_at_the_benchmark_shapes(m, horizon, size):
    assert _env(m, horizon, 4.0).block_episodes == size


@pytest.mark.parametrize("m", VALID_ANTENNA_COUNTS)
def test_a_block_fits_the_byte_budget_at_horizon_50(m):
    _assert_block_fits(m, 50)


@pytest.mark.parametrize("m", VALID_ANTENNA_COUNTS)
def test_a_block_fits_the_byte_budget_at_horizon_20(m):
    _assert_block_fits(m, 20)


def _assert_block_fits(m, horizon):
    env = _env(m, horizon, -1e9)
    size = env.block_episodes
    states = env.start(list(range(size)))
    env.advance(FpaAgent(env).act(states, explore=False))
    # every array the block holds: steering and the whole derived trace
    held = [value for owner in (env, env.channel_state, env._frames)
            for value in vars(owner).values() if isinstance(value, np.ndarray)]
    held_bytes = sum(a.nbytes for a in held)
    assert env.channel_state.steering.shape[0] == size
    assert env.channel_state.path_gains.shape[:2] == (env.horizon + 1, size)
    assert env.channel_state.amplitude.shape[:2] == (env.horizon + 1, size)
    assert env._frames.ue_positions.shape[:2] == (env.horizon + 1, size)
    assert environment.BLOCK_BYTES / 2 < held_bytes <= environment.BLOCK_BYTES


def test_start_derives_the_whole_trace_and_advance_derives_nothing(monkeypatch):
    env = _env(4, 20, -1e9)
    calls = []
    for name in ("step_mobility", "draw_channels"):
        real = getattr(chan, name)
        monkeypatch.setattr(chan, name, lambda *a, real=real, name=name, **k:
                            calls.append(name) or real(*a, **k))
    states = env.start(list(range(6)))
    assert sorted(calls) == ["draw_channels", "step_mobility"]
    calls.clear()
    agent = FpaAgent(env)
    for t in range(env.horizon):
        out = env.advance(agent.act(states, explore=False))
        states = out.next_state
        if t % 7 == 6:      # a block that loses episodes goes on without deriving
            env.keep(np.arange(len(states) - 1))
            states = states[:-1]
    assert calls == [] and out.truncated.all()
