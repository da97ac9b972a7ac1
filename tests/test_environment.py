import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellbeam import channel as chan
from cellbeam import preset
from cellbeam.agents import FpaAgent
from cellbeam.channel import channel_vectors
from cellbeam.environment import GAMMA0_DB, DownlinkEnv, gamma_max_db, hierarchical_reward
from cellbeam.errors import ContractViolation, UsageError
from cellbeam.harness import VALID_ANTENNA_COUNTS


def make_env(**kwargs):
    defaults = dict(m_antennas=1, horizon=10)
    defaults.update(kwargs)
    return DownlinkEnv(preset("sub6"), **defaults)


def test_reset_returns_eight_features_deterministically():
    env = make_env()
    s1 = env.reset(7)
    s2 = env.reset(7)
    assert s1.shape == (8,)
    assert np.array_equal(s1, s2)


def test_reset_initial_controls():
    env = make_env(m_antennas=4)
    s = env.reset(0)
    # powers 3 dB below the cap, beams at index 0
    assert s[4] == pytest.approx(env.scenario.max_bs_power_dbm - 3.0)
    assert s[5] == s[4]
    assert s[6] == 0.0 and s[7] == 0.0
    assert 0 <= s[6] < 4 and 0 <= s[7] < 4


def test_sinr_policy_formulas():
    assert GAMMA0_DB == 5.0 and gamma_max_db(1) == GAMMA0_DB
    assert gamma_max_db(4) == 25.0
    for m in VALID_ANTENNA_COUNTS:
        assert gamma_max_db(m) == GAMMA0_DB + 10.0 * math.log2(m)


def test_env_builds_its_policy_from_the_cutoff_and_its_antenna_count():
    for m in VALID_ANTENNA_COUNTS:
        for cutoff in (-1e9, 3.5, 4.0):
            env = DownlinkEnv(preset("sub6"), m_antennas=m, gamma_cutoff_db=cutoff)
            assert env.gamma_cutoff_db == cutoff
            assert env.gamma_max_db == gamma_max_db(m) == 5.0 + 10.0 * math.log2(m)


def test_effective_sinr_caps_and_floors():
    # quiet noise, a loud BS 0 and a silent BS 1: UE 0 sits above the cap, UE 1 below 0 dB
    env = DownlinkEnv(preset("sub6", noise_power_dbm=-200.0), m_antennas=4, horizon=5,
                      gamma_cutoff_db=-1e9)
    env.start([6, 7])
    out = env.advance(np.array([[46.0, 0.0, 0.0, 0.0]] * 2))
    raw, eff = out.info["sinr_db"], out.info["eff_sinr_db"]
    assert np.all(raw[:, 0] > env.gamma_max_db) and np.all(raw[:, 1] < 0.0)
    assert np.all(eff[:, 0] == env.gamma_max_db) and np.all(eff[:, 1] == 0.0)
    assert np.array_equal(out.reward, [25.0, 25.0]) and not out.terminated.any()


def test_apply_action_clamps_power():
    env = make_env()
    env.reset(0)
    powers, beams = env.apply_action(np.array([50.0, -10.0, 0.0, 0.0]))
    assert powers[0] == pytest.approx(env.scenario.max_bs_power_dbm)  # 46.02 dBm cap
    assert powers[1] == 0.0  # floor
    assert list(beams) == [0, 0]


def test_apply_action_beam_rounding():
    env = make_env(m_antennas=4)
    env.reset(0)
    _, beams = env.apply_action(np.array([10.0, 10.0, 1.5, 3.99]))
    assert list(beams) == [1, 3]


def test_apply_action_rejects_nan():
    env = make_env()
    env.reset(0)
    with pytest.raises(ContractViolation):
        env.apply_action(np.array([np.nan, 10.0, 0.0, 0.0]))


def test_step_reward_matches_info_exactly():
    env = make_env()
    state = env.reset(1)
    out = env.step(np.array([30.0, 30.0, 0.0, 0.0]))
    assert out.reward == out.info["eff_sinr_db"].sum()
    assert out.info["eff_sinr_db"].shape == (2,)
    assert np.all(out.info["eff_sinr_db"] >= 0.0)
    assert np.all(out.info["eff_sinr_db"] <= env.gamma_max_db)
    del state


def test_step_after_done_raises():
    env = make_env(horizon=1)
    env.reset(2)
    out = env.step(np.array([30.0, 30.0, 0.0, 0.0]))
    assert out.done
    with pytest.raises(UsageError):
        env.step(np.array([30.0, 30.0, 0.0, 0.0]))


def test_abort_on_low_sinr():
    # drown everything in noise so SINR falls below any positive cutoff
    env = DownlinkEnv(preset("sub6", noise_power_dbm=100.0), m_antennas=1, horizon=10)
    env.reset(3)
    out = env.step(np.array([40.0, 40.0, 0.0, 0.0]))
    assert out.info["aborted"] and out.done
    assert np.all(out.info["sinr_db"] < env.gamma_cutoff_db)


def test_no_abort_when_cutoff_disabled():
    env = DownlinkEnv(preset("sub6"), m_antennas=1, horizon=5, gamma_cutoff_db=-1e9)
    env.reset(4)
    steps = 0
    done = False
    while not done:
        out = env.step(np.array([40.0, 40.0, 0.0, 0.0]))
        done = out.done
        steps += 1
    assert steps == 5 and not out.info["aborted"]


def test_termination_rule_matches_cutoff():
    env = make_env(horizon=50)
    env.reset(5)
    done, steps = False, 0
    while not done:
        out = env.step(np.array([35.0, 35.0, 0.0, 0.0]))
        steps += 1
        below = np.any(out.info["sinr_db"] < env.gamma_cutoff_db)
        if steps < 50:
            assert out.done == below
        done = out.done


def test_reward_cap_applies_before_summation():
    # quiet noise and a silent interferer push the served SINR above the cap
    env = DownlinkEnv(preset("sub6", noise_power_dbm=-200.0), m_antennas=4, horizon=5,
                      gamma_cutoff_db=-1e9)
    env.reset(6)
    out = env.step(np.array([46.0, 0.0, 0.0, 0.0]))
    # UE 0's raw SINR is astronomical; its effective share is exactly the cap
    assert out.info["sinr_db"][0] > 25.0
    assert out.info["eff_sinr_db"][0] == pytest.approx(25.0)


def test_applied_powers_always_within_bounds():
    env = make_env()
    env.reset(7)
    rng = np.random.default_rng(0)
    for _ in range(50):
        action = rng.uniform(-100, 100, 4)
        powers, beams = env.apply_action(action)
        assert np.all(powers >= env.power_floor_dbm - 1e-12)
        assert np.all(powers <= env.scenario.max_bs_power_dbm + 1e-12)
        assert all(0 <= b < env.codebook.size for b in beams)


def test_hierarchical_reward():
    goal = np.array([10.0, 20.0, 1.0, 2.0])
    assert hierarchical_reward(18.0, goal, goal) == 18.0
    action = goal + np.array([1.0, -2.0, 0.0, 1.0])
    assert hierarchical_reward(18.0, goal, action) == pytest.approx(14.0)
    assert hierarchical_reward(18.0, action, goal) == pytest.approx(14.0)  # symmetric
    assert hierarchical_reward(18.0, goal, action, weight=0.0) == 18.0
    with pytest.raises(ContractViolation):
        hierarchical_reward(1.0, goal, goal[:3])


def test_action_bounds_expose_table_limits():
    env = make_env(m_antennas=8)
    assert np.array_equal(env.action_low, [0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(env.action_high, [40.0, 40.0, 7.0, 7.0])


@pytest.mark.parametrize("m", VALID_ANTENNA_COUNTS)
def test_beam_range_is_the_codebook(m):
    env = make_env(m_antennas=m)
    assert env.action_high[2:].tolist() == [env.codebook.size - 1] * 2
    assert np.array_equal(env.action_high[2:], env.state_high[6:])


def test_full_episode_trajectory_is_deterministic():
    def roll(seed):
        env = make_env(horizon=20)
        s = env.reset(seed)
        rng = np.random.default_rng(99)
        hist = [s]
        done = False
        while not done:
            a = np.array([rng.uniform(0, 40), rng.uniform(0, 40), 0.0, 0.0])
            out = env.step(a)
            hist.append(out.next_state)
            done = out.done
        return np.concatenate(hist)

    assert np.array_equal(roll(11), roll(11))


def test_horizon_truncates_and_abort_terminates():
    env = DownlinkEnv(preset("sub6"), m_antennas=1, horizon=3, gamma_cutoff_db=-1e9)
    env.reset(4)
    flags = [(out.terminated, out.truncated, out.done) for out in
             (env.step(np.array([40.0, 40.0, 0.0, 0.0])) for _ in range(3))]
    assert flags == [(False, False, False)] * 2 + [(False, True, True)]

    noisy = DownlinkEnv(preset("sub6", noise_power_dbm=100.0), m_antennas=1, horizon=1)
    noisy.reset(3)
    out = noisy.step(np.array([40.0, 40.0, 0.0, 0.0]))
    # an abort on the last frame is an abort, not a truncation
    assert out.terminated and not out.truncated and out.done


def test_reset_topology_seed_shares_the_drop_but_not_the_fading():
    env = make_env(m_antennas=4)
    assert np.array_equal(env.reset(5, topology_seed=5), env.reset(5))
    a = env.reset(11, topology_seed=5)
    topo_a, vectors_a = env.topology, channel_vectors(env.channel_state, 0)
    b = env.reset(12, topology_seed=5)
    assert np.array_equal(a, b)
    assert np.array_equal(topo_a.ue_headings, env.topology.ue_headings)
    assert not np.allclose(vectors_a, channel_vectors(env.channel_state, 0))
    assert not np.array_equal(env.reset(12)[:4], b[:4])


def test_episode_builds_its_steering_once(monkeypatch):
    import cellbeam.channel
    calls = []
    build = cellbeam.channel.steering_matrix
    monkeypatch.setattr(cellbeam.channel, "steering_matrix",
                        lambda *args, **kwargs: calls.append(args) or build(*args, **kwargs))
    env = make_env(m_antennas=64, horizon=50, gamma_cutoff_db=-1000.0)
    env.reset(3)
    steps = 0
    while True:
        steps += 1
        out = env.step(np.array([46.0, 46.0, 5.0, 9.0]))
        if out.done:
            break
    assert out.truncated and steps == 50
    assert len(calls) == 1


@given(m=st.sampled_from(VALID_ANTENNA_COUNTS),
       action=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=4, max_size=4))
def test_apply_action_lands_in_range_for_any_finite_action(m, action):
    env = make_env(m_antennas=m)
    powers, beams = env.apply_action(action)
    assert np.all(powers >= env.power_floor_dbm)
    assert np.all(powers <= env.scenario.max_bs_power_dbm)
    assert np.all(beams >= 0) and np.all(beams < env.codebook.size)


def test_block_frames_equal_one_episode_steps_and_step_refuses_a_block():
    env = make_env(m_antennas=4, horizon=6, gamma_cutoff_db=-1e9)
    seeds, actions = [3, 8, 5], np.array([[40.0, 20.0, 1.2, 3.7], [10.0, 46.0, 0.0, 2.0],
                                          [30.0, 30.0, 3.9, 0.5]])
    states = env.start(seeds, [None, 3, None])
    block = [env.advance(actions) for _ in range(3)]
    with pytest.raises(UsageError):
        env.step(actions[0])
    for b, (seed, drop) in enumerate(zip(seeds, [None, 3, None])):
        assert np.array_equal(env.reset(seed, topology_seed=drop), states[b])
        for out in block:
            one = env.step(actions[b])
            assert np.array_equal(one.next_state, out.next_state[b])
            assert one.reward == out.reward[b] and one.terminated == out.terminated[b]
            for key in ("sinr_linear", "sinr_db", "eff_sinr_db", "powers_w"):
                assert np.array_equal(one.info[key], out.info[key][b]), key


def test_next_state_carries_the_applied_controls():
    env = make_env(m_antennas=8, horizon=4, gamma_cutoff_db=-1e9)
    actions = np.array([[99.0, -5.0, 7.5, 0.2], [12.345, 30.0, -3.0, 6.999],
                        [0.5, 46.02, 3.0, 9.0]])
    env.start([2, 9, 4])
    for block in (actions, actions[::-1]):
        powers, beams = env.apply_action(block)
        out = env.advance(block)
        assert out.next_state[:, 4:6].tobytes() == powers.tobytes()
        assert out.next_state[:, 6:].tobytes() == beams.astype(float).tobytes()
    env.reset(5)
    for action in actions:
        powers, beams = env.apply_action(action)
        out = env.step(action)
        assert out.next_state[4:6].tobytes() == powers.tobytes()
        assert out.next_state[6:].tobytes() == beams.astype(float).tobytes()


def test_serving_distance_on_a_started_block_is_one_per_episode():
    env = make_env(m_antennas=4)
    env.start([1, 2, 3])
    got = env.topology.serving_distance_m(0)
    # UE 0 is served by BS 0 at the origin: its distance is the norm of its position
    want = [np.linalg.norm(env.reset(seed)[:2]) for seed in (1, 2, 3)]
    assert got.shape == (3,) and got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx([146.0, 169.0, 129.0], abs=1.0)
    assert np.all(got <= env.scenario.cell_radius_m / 2.0)


def test_start_refuses_topology_seeds_of_another_length():
    env = make_env()
    with pytest.raises(ContractViolation, match="one entry per seed"):
        env.start([1, 2, 3], [7, 8])
    with pytest.raises(ContractViolation, match="one entry per seed"):
        FpaAgent(env).run_episodes(env, [1, 2, 3], [7, 8])


def test_start_takes_array_seeds_like_lists():
    arrays, lists = make_env(m_antennas=4, horizon=3), make_env(m_antennas=4, horizon=3)
    got = arrays.start(np.arange(3), np.arange(7, 10))
    want = lists.start([0, 1, 2], [7, 8, 9])
    assert np.array_equal(got, want)
    action = np.full((3, 4), 20.0)
    assert np.array_equal(arrays.advance(action).next_state, lists.advance(action).next_state)
    # the seeds alone, without topology seeds
    assert np.array_equal(arrays.start(np.arange(3)), lists.start([0, 1, 2]))


def test_start_refuses_an_empty_seed_list():
    env = make_env()
    with pytest.raises(ContractViolation, match="seeds must list at least one episode"):
        env.start([])


def test_advance_past_the_horizon_is_refused():
    env = make_env(horizon=2)
    # a fresh env has no block open yet
    with pytest.raises(UsageError, match=r"call start\(\) first"):
        env.advance(np.full((2, 4), 10.0))
    env.start([4, 5])
    for _ in range(2):
        env.advance(np.full((2, 4), 30.0))
    powers, topology = env._powers_dbm.copy(), env.topology
    with pytest.raises(UsageError, match="horizon"):
        env.advance(np.full((2, 4), 10.0))
    # the refused frame leaves the block as it was
    assert env._t == 2
    assert np.array_equal(env._powers_dbm, powers)
    assert np.array_equal(env.topology.ue_positions, topology.ue_positions)
    assert np.array_equal(env.topology.ue_headings, topology.ue_headings)


# -- the per-episode channel trace ----------------------------------------------

def _reference_episode(env, seed, topology_seed, actions):
    """One episode stepped frame by frame on its own generators, with no trace."""
    sc, m = env.scenario, env.m_antennas
    topo_ss, mob_ss, chan_ss = np.random.SeedSequence(seed).spawn(3)
    if topology_seed is not None:
        topo_ss = np.random.SeedSequence(topology_seed).spawn(1)[0]
    topo = chan.init_topology(sc, topo_ss)
    mobility, state = np.random.default_rng(mob_ss), chan.new_channel_state(chan_ss)
    chan.draw_channels(topo, sc, m, state)
    frames = [(topo.ue_positions, state.vectors, None, None)]
    for action in actions:
        topo = chan.step_mobility(topo, sc, mobility)
        chan.draw_channels(topo, sc, m, state)
        powers_dbm, beams = env.apply_action(action)
        powers_w = np.array([chan.dbm_to_watts(p) for p in powers_dbm])
        sinr = chan.compute_sinr(state, env.codebook.vectors[beams], powers_w, sc)
        raw_db = np.where(sinr > 0.0, 10.0 * np.log10(np.where(sinr > 0.0, sinr, 1.0)), -np.inf)
        frames.append((topo.ue_positions, state.vectors, sinr,
                       np.minimum(np.maximum(raw_db, 0.0), env.gamma_max_db).sum()))
    return frames


_SCENARIOS = (dict(), dict(cell_radius_m=0.3), dict(ue_speed_kmh=30000.0),
              dict(n_paths=3, p_los=0.5, carrier_freq_hz=28e9))


@given(m=st.sampled_from(VALID_ANTENNA_COUNTS), horizon=st.integers(1, 50),
       scenario=st.sampled_from(_SCENARIOS), first_seed=st.integers(0, 2 ** 20),
       cycle=st.integers(0, 3), data=st.data())
@settings(max_examples=40)
def test_trace_equals_generators_stepped_frame_by_frame(m, horizon, scenario, first_seed,
                                                        cycle, data):
    env = DownlinkEnv(preset("sub6", **scenario), m_antennas=m, horizon=horizon)
    episodes = data.draw(st.integers(1, 5))
    seeds = [first_seed + b for b in range(episodes)]
    drops = [seeds[b % cycle] for b in range(episodes)] if cycle else [None] * episodes
    # each episode leaves the block through keep() after its own number of frames
    ends = data.draw(st.lists(st.integers(1, horizon), min_size=episodes, max_size=episodes))
    rng = np.random.default_rng(first_seed)
    actions = np.concatenate([rng.uniform(-10.0, 50.0, (horizon, episodes, 2)),
                              rng.uniform(-1.0, m + 1.0, (horizon, episodes, 2))], axis=-1)
    refs = [_reference_episode(env, s, d, actions[:e, b])
            for b, (s, d, e) in enumerate(zip(seeds, drops, ends))]

    created = []
    make = np.random.default_rng
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", lambda *a: created.append(make(*a)) or created[-1])
        states = env.start(seeds, drops)
    drawn = [g.bit_generator.state for g in created]
    assert len(created) == 3 * episodes   # drop, mobility and fading per episode

    rows = np.arange(episodes)
    for b in rows:
        assert np.array_equal(states[b, :4], refs[b][0][0].reshape(4))
        assert np.array_equal(chan.channel_vectors(env.channel_state, 0)[b], refs[b][0][1])
    for t in range(1, max(ends) + 1):
        out = env.advance(actions[t - 1, rows])
        vectors = chan.channel_vectors(env.channel_state, env._t)
        for i, b in enumerate(rows):
            positions, want_vectors, sinr, reward = refs[b][t]
            assert np.array_equal(env.topology.ue_positions[i], positions)
            assert np.array_equal(out.next_state[i, :4], positions.reshape(4))
            assert np.array_equal(vectors[i], want_vectors)
            assert np.array_equal(out.info["sinr_linear"][i], sinr)
            assert out.reward[i] == reward
        alive = np.array([ends[b] > t for b in rows], dtype=bool)
        env.keep(np.flatnonzero(alive))
        rows = rows[alive]
    # every draw happened in start(): advance() drew nothing
    assert [g.bit_generator.state for g in created] == drawn


# -- applied powers in watts ------------------------------------------------------

def test_advance_converts_each_applied_power_like_dbm_to_watts():
    env = make_env(m_antennas=4)
    env.start([1, 2, 3])
    floor, cap = env.power_floor_dbm, env.scenario.max_bs_power_dbm
    fresh = np.random.default_rng(5).uniform(floor, cap, (3, 3, 2))
    # the floor and the cap, fresh values, the same values again, clamped requests
    for requested in (np.full((3, 2), floor), np.full((3, 2), cap), fresh[0], fresh[1], fresh[0],
                      np.array([[cap + 9.0, floor - 9.0]] * 3), fresh[2], fresh[1]):
        out = env.advance(np.concatenate([requested, np.zeros((3, 2))], axis=1))
        want = [chan.dbm_to_watts(p) for p in out.next_state[:, 4:6].flat]
        assert out.info["powers_w"].shape == (3, 2)
        assert out.info["powers_w"].ravel().tobytes() == np.array(want).tobytes()

