import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellbeam import channel as chan
from cellbeam.beamcode import build_codebook, steering_matrix
from cellbeam.errors import ConfigurationError, ContractViolation
from cellbeam.harness import VALID_ANTENNA_COUNTS


def test_presets_match_expected_pairs():
    sub6 = chan.preset("sub6")
    assert sub6.carrier_freq_hz == 2.1e9
    assert sub6.cell_radius_m == 350.0
    assert sub6.inter_site_distance_m == 525.0
    assert sub6.n_paths == 15
    assert sub6.ue_speed_kmh == 5.0
    mmw = chan.preset("mmwave")
    assert mmw.carrier_freq_hz == 28e9
    assert mmw.cell_radius_m == 150.0
    assert mmw.inter_site_distance_m == 225.0
    assert mmw.n_paths == 4
    assert mmw.ue_speed_kmh == 2.0
    for sc in (sub6, mmw):
        assert sc.p_los == 0.8
        assert sc.max_bs_power_w == 40.0
        assert sc.frame_duration_s == 0.01
        assert sc.tx_antenna_gain_dbi == 3.0


def test_default_noise_is_thermal_over_10mhz():
    assert chan.preset("sub6").noise_power_dbm == pytest.approx(-104.0)


def test_scenario_derived_powers_are_cached_with_their_bits():
    for sc in (chan.preset("sub6"), chan.preset("mmwave", max_bs_power_w=13.7,
                                                noise_power_dbm=-97.3)):
        dbm, noise = sc.max_bs_power_dbm, sc.noise_power_w
        assert dbm is sc.max_bs_power_dbm and noise is sc.noise_power_w
        assert dbm.tobytes() == chan.watts_to_dbm(sc.max_bs_power_w).tobytes()
        assert noise == chan.dbm_to_watts(sc.noise_power_dbm)
        assert type(noise) is type(chan.dbm_to_watts(sc.noise_power_dbm))
    # a replaced scenario derives its own values
    assert dataclasses.replace(sc, max_bs_power_w=40.0).max_bs_power_dbm == pytest.approx(46.0206)


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        chan.Scenario(cell_radius_m=-1.0)
    with pytest.raises(ConfigurationError):
        chan.Scenario(p_los=1.5)
    with pytest.raises(ConfigurationError):
        chan.Scenario(n_paths=0)
    with pytest.raises(ConfigurationError):
        chan.preset("nosuch")


def test_init_topology_two_cells():
    sc = chan.preset("sub6")
    topo = chan.init_topology(sc, seed=0)
    assert np.array_equal(topo.bs_positions, [[0.0, 0.0], [525.0, 0.0]])
    # the drop's draw order feeds every result file, so its bits are pinned
    assert np.array_equal(topo.ue_positions, [[135.06439398301941, 35.5606686132199],
                                              [615.4070677851528, 9.422324740175247]])
    assert np.array_equal(topo.ue_headings, [5.109927617709579, 5.735012432197602])
    for ue in range(2):     # UE u is served by BS u
        dist = np.linalg.norm(topo.ue_positions[ue] - topo.bs_positions[ue])
        assert dist <= sc.cell_radius_m / 2.0 and dist == topo.serving_distance_m(ue)


def test_init_topology_seeded_determinism():
    sc = chan.preset("sub6")
    a = chan.init_topology(sc, seed=0)
    b = chan.init_topology(sc, seed=0)
    assert np.array_equal(a.ue_positions, b.ue_positions)
    assert np.array_equal(a.ue_headings, b.ue_headings)


def test_mobility_zero_speed_keeps_positions():
    sc = chan.preset("sub6", ue_speed_kmh=0.0)
    topo = chan.init_topology(sc, seed=3)
    moved = chan.step_mobility(topo, sc, np.random.default_rng(0))
    assert np.array_equal(moved.ue_positions, topo.ue_positions)


def test_mobility_step_length():
    # 5 km/h over a 10 ms frame is 5000/3600*0.01 m
    sc = chan.preset("sub6")
    topo = chan.init_topology(sc, seed=4)
    moved = chan.step_mobility(topo, sc, np.random.default_rng(0))
    hops = np.linalg.norm(moved.ue_positions - topo.ue_positions, axis=1)
    assert np.allclose(hops, 5000.0 / 3600.0 * 0.01, rtol=1e-9)


def test_mobility_reflects_at_disc_boundary():
    sc = chan.preset("sub6")
    topo = chan.init_topology(sc, seed=5)
    disc = sc.cell_radius_m / 2.0
    # put UE 0 on its boundary heading straight out
    topo.ue_positions[0] = topo.bs_positions[0] + np.array([disc, 0.0])
    topo.ue_headings[0] = 0.0
    moved = chan.step_mobility(topo, sc, np.random.default_rng(1))
    rel = np.linalg.norm(moved.ue_positions[0] - topo.bs_positions[0])
    assert rel <= disc


def test_mobility_never_leaves_disc():
    sc = chan.preset("sub6", ue_speed_kmh=500.0)  # exaggerate to stress the fold
    topo = chan.init_topology(sc, seed=6)
    rng = np.random.default_rng(7)
    disc = sc.cell_radius_m / 2.0
    for _ in range(500):
        topo = chan.step_mobility(topo, sc, rng)
        for ue in range(2):
            assert topo.serving_distance_m(ue) <= disc + 1e-9


def test_doppler_correlation_values():
    sub6 = chan.preset("sub6")
    f_d = sub6.ue_speed_mps * sub6.carrier_freq_hz / chan.SPEED_OF_LIGHT
    x = 2.0 * math.pi * f_d * 0.01
    assert chan.doppler_correlation(sub6) == pytest.approx(1.0 - x * x / 4.0)
    # mmwave preset's Taylor value falls below -1 and must clamp to 0
    assert chan.doppler_correlation(chan.preset("mmwave")) == 0.0


def test_draw_channels_shapes_and_finiteness():
    sc = chan.preset("sub6")
    topo = chan.init_topology(sc, seed=0)
    state = chan.new_channel_state(0)
    for _ in range(3):
        chan.draw_channels(topo, sc, 4, state)
        assert state.vectors.shape == (2, 2, 4)
        assert np.all(np.isfinite(state.vectors.view(float)))


def test_single_path_los_closed_form():
    # N_p=1, p_los=1, M=1: |h|^2 equals pathloss * antenna gain exactly
    sc = chan.preset("sub6", n_paths=1, p_los=1.0)
    topo = chan.init_topology(sc, seed=0)
    state = chan.new_channel_state(1)
    chan.draw_channels(topo, sc, 1, state)
    dists = np.linalg.norm(
        topo.bs_positions[:, None, :] - topo.ue_positions[None, :, :], axis=2)
    expected = (chan.db_to_linear(-chan.pathloss_db(dists, sc.carrier_freq_hz, 1.0))
                * chan.db_to_linear(sc.tx_antenna_gain_dbi))
    assert np.allclose(np.abs(state.vectors[..., 0]) ** 2, expected, rtol=1e-12)


def test_draw_channels_seeded_determinism():
    sc = chan.preset("sub6")
    topo = chan.init_topology(sc, seed=0)
    runs = []
    for _ in range(2):
        state = chan.new_channel_state(42)
        for _ in range(5):
            chan.draw_channels(topo, sc, 2, state)
        runs.append(state.vectors.copy())
    assert np.array_equal(runs[0], runs[1])


def test_channel_energy_scale():
    # ensemble mean of |h|^2 / (PL * G) is 1 within 5%
    sc = chan.preset("sub6", n_paths=4)
    topo = chan.init_topology(sc, seed=0)
    dists = np.linalg.norm(
        topo.bs_positions[:, None, :] - topo.ue_positions[None, :, :], axis=2)
    gain = chan.db_to_linear(sc.tx_antenna_gain_dbi)
    pl = chan.db_to_linear(-chan.pathloss_db(dists, sc.carrier_freq_hz, sc.p_los))
    ratios = np.empty((25_000, 2, 2))
    for i in range(ratios.shape[0]):
        state = chan.new_channel_state(i)
        chan.draw_channels(topo, sc, 1, state)
        ratios[i] = np.abs(state.vectors[..., 0]) ** 2 / (pl * gain)
    assert abs(ratios.mean() - 1.0) < 0.05


def test_pathloss_monotone_and_los_below_nlos():
    d = np.array([10.0, 50.0, 200.0, 600.0])
    los = chan.pathloss_db(d, 2.1e9, p_los=1.0)
    nlos = chan.pathloss_db(d, 2.1e9, p_los=0.0)
    blend = chan.pathloss_db(d, 2.1e9, p_los=0.8)
    assert np.all(np.diff(los) > 0) and np.all(np.diff(nlos) > 0)
    assert np.all(nlos[1:] > los[1:])
    assert np.all((blend[1:] > los[1:]) & (blend[1:] < nlos[1:]))


def _manual_sinr(vectors, beams, powers_w, serving, noise_w):
    """Direct complex-arithmetic SINR, loops only."""
    n_bs, n_ue, _ = vectors.shape
    out = []
    for u in range(n_ue):
        rx = []
        for b in range(n_bs):
            dot = complex(0.0)
            for m in range(vectors.shape[2]):
                dot += vectors[b, u, m] * beams[b, m]
            rx.append(powers_w[b] * abs(dot) ** 2)
        sig = rx[serving[u]]
        interf = sum(rx) - sig
        out.append(sig / (interf + noise_w))
    return np.array(out)


def _random_instance(rng, m):
    sc = chan.preset("sub6")
    topo = chan.init_topology(sc, seed=int(rng.integers(2 ** 31)))
    state = chan.new_channel_state(int(rng.integers(2 ** 31)))
    chan.draw_channels(topo, sc, m, state)
    cb = build_codebook(m)
    beams = cb.vectors[rng.integers(0, m, size=2)]
    powers = rng.uniform(0.0, sc.max_bs_power_w, size=2)
    return sc, state, beams, powers


def test_compute_sinr_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        sc, state, beams, powers = _random_instance(rng, m)
        got = chan.compute_sinr(state, beams, powers, sc)
        want = _manual_sinr(state.vectors, beams, powers, (0, 1), sc.noise_power_w)
        assert np.allclose(got, want, rtol=1e-10)


def test_compute_sinr_zero_power_gives_zero():
    rng = np.random.default_rng(1)
    sc, state, beams, _ = _random_instance(rng, 2)
    got = chan.compute_sinr(state, beams, np.array([0.0, 10.0]), sc)
    assert got[0] == 0.0  # UE 0 served by BS 0 at zero power


def test_compute_sinr_ratio_identity():
    # with zero interference and noise equal to the received power, SINR = 1
    sc = chan.preset("sub6")
    topo = chan.init_topology(sc, seed=2)
    state = chan.new_channel_state(3)
    chan.draw_channels(topo, sc, 1, state)
    beams = build_codebook(1).vectors[[0, 0]]
    powers = np.array([1.0, 0.0])
    rx = powers[0] * abs(state.vectors[0, 0, 0] * beams[0, 0]) ** 2
    quiet = chan.Scenario(noise_power_dbm=chan.watts_to_dbm(rx))
    got = chan.compute_sinr(state, beams, powers, quiet)
    assert got[0] == pytest.approx(1.0, rel=1e-12)


def test_compute_sinr_rejects_bad_powers():
    rng = np.random.default_rng(4)
    sc, state, beams, _ = _random_instance(rng, 1)
    with pytest.raises(ContractViolation):
        chan.compute_sinr(state, beams, np.array([-1.0, 1.0]), sc)
    with pytest.raises(ContractViolation):
        chan.compute_sinr(state, beams, np.array([41.0, 1.0]), sc)


def test_sinr_monotonicity_in_powers():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sc, state, beams, powers = _random_instance(rng, 2)
        base = chan.compute_sinr(state, beams, powers, sc)
        served_up = powers.copy()
        served_up[0] = min(powers[0] * 1.5 + 0.1, sc.max_bs_power_w)
        more = chan.compute_sinr(state, beams, served_up, sc)
        assert more[0] >= base[0] - 1e-15  # UE 0: serving power up
        assert more[1] <= base[1] + 1e-15  # UE 1: interference up


# -- per-episode steering cache ---------------------------------------------

def _reference_vectors(topo, sc, m, state):
    """Channel vectors with the steering rebuilt from the path angles."""
    steer = steering_matrix(state.path_angles, m)
    dists = np.linalg.norm(
        topo.bs_positions[:, None, :] - topo.ue_positions[None, :, :], axis=2)
    pl_lin = chan.db_to_linear(-chan.pathloss_db(dists, sc.carrier_freq_hz, sc.p_los))
    amplitude = np.sqrt(pl_lin * chan.db_to_linear(sc.tx_antenna_gain_dbi) / sc.n_paths)
    return amplitude[..., None] * np.einsum("lupm,lup->lum", steer, state.path_gains)


@given(m=st.sampled_from(VALID_ANTENNA_COUNTS),
       seed=st.integers(0, 2 ** 32 - 1),
       frames=st.integers(1, 30))
def test_cached_steering_matches_per_frame_rebuild(m, seed, frames):
    sc = chan.preset("sub6")
    topo = chan.init_topology(sc, seed=seed)
    mobility = np.random.default_rng(seed)
    state = chan.new_channel_state(seed)
    for _ in range(frames):
        chan.draw_channels(topo, sc, m, state)
        assert np.array_equal(state.vectors, _reference_vectors(topo, sc, m, state))
        topo = chan.step_mobility(topo, sc, mobility)


def test_reused_state_keeps_the_array_of_its_first_draw():
    sc = chan.preset("sub6")
    topo = chan.init_topology(sc, seed=0)
    state = chan.new_channel_state(0)
    for _ in range(3):
        chan.draw_channels(topo, sc, 4, state)
        assert state.steering.shape == (2, 2, sc.n_paths, 4)
        assert np.array_equal(state.vectors, _reference_vectors(topo, sc, 4, state))
    with pytest.raises(ContractViolation, match="antenna count"):
        chan.draw_channels(topo, sc, 8, state)


# -- compute_sinr properties ----------------------------------------------------
#
# compute_sinr forms each UE's interference as total received power minus
# its signal, which rounds to within about one ulp of the signal.  Relative
# to the denominator that is eps * SINR, so the tolerances below carry that
# term on top of the stated relative bound.

EPS = np.finfo(float).eps


def _rounding_bound(sinr, rtol=0.0):
    return (rtol + 4.0 * EPS * (1.0 + sinr)) * sinr


# Powers are zero or at least 1e-12 of the cap: smaller ones make received
# powers subnormal, where floats keep no relative precision at all.
power_fractions = st.one_of(st.just(0.0), st.floats(1e-12, 1.0))
sinr_instances = st.tuples(st.sampled_from(VALID_ANTENNA_COUNTS),
                           st.integers(0, 2 ** 32 - 1),
                           st.lists(power_fractions, min_size=2, max_size=2))


def _sinr_instance(m, seed, fractions):
    sc, state, beams, _ = _random_instance(np.random.default_rng(seed), m)
    return sc, state, beams, sc.max_bs_power_w * np.array(fractions)


@given(instance=sinr_instances, factor=st.floats(1e-3, 1e3))
def test_sinr_invariant_to_common_power_and_noise_scaling(instance, factor):
    sc, state, beams, powers = _sinr_instance(*instance)
    base = chan.compute_sinr(state, beams, powers, sc)
    scaled_sc = dataclasses.replace(
        sc, max_bs_power_w=sc.max_bs_power_w * factor,
        noise_power_dbm=float(chan.watts_to_dbm(sc.noise_power_w * factor)))
    scaled = chan.compute_sinr(state, beams, powers * factor, scaled_sc)
    assert np.all(np.abs(scaled - base) <= _rounding_bound(base, rtol=1e-12))


@given(instance=sinr_instances, ue=st.integers(0, 1), raise_frac=st.floats(0.0, 1.0))
def test_raising_serving_power_never_lowers_sinr(instance, ue, raise_frac):
    sc, state, beams, powers = _sinr_instance(*instance)
    base = chan.compute_sinr(state, beams, powers, sc)
    raised = powers.copy()
    raised[ue] += raise_frac * (sc.max_bs_power_w - powers[ue])
    more = chan.compute_sinr(state, beams, raised, sc)
    assert more[ue] >= base[ue] - _rounding_bound(base[ue])


@given(instance=sinr_instances, ue=st.integers(0, 1), raise_frac=st.floats(0.0, 1.0))
def test_raising_other_bs_power_never_raises_sinr(instance, ue, raise_frac):
    sc, state, beams, powers = _sinr_instance(*instance)
    base = chan.compute_sinr(state, beams, powers, sc)
    other = 1 - ue
    raised = powers.copy()
    raised[other] += raise_frac * (sc.max_bs_power_w - powers[other])
    more = chan.compute_sinr(state, beams, raised, sc)
    # the signal is unchanged and total - signal cannot fall, so this is exact
    assert more[ue] <= base[ue]


# -- turns and normals drawn before: the environment's per-episode trace ---------

@given(seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 40),
       scenario=st.sampled_from((dict(), dict(ue_speed_kmh=30000.0), dict(cell_radius_m=0.3))))
def test_walking_drawn_turns_equals_stepping_the_generator(seed, frames, scenario):
    sc = chan.preset("sub6", **scenario)
    start = chan.init_topology(sc, seed=seed)
    mobility, topo, steps = np.random.default_rng(seed), start, []
    for _ in range(frames):
        topo = chan.step_mobility(topo, sc, mobility)
        steps.append(topo)
    turns = np.random.default_rng(seed).uniform(-chan.MAX_TURN_RAD, chan.MAX_TURN_RAD,
                                                (frames, 2))
    walked = chan.step_mobility(start, sc, turns)
    assert np.array_equal(walked.ue_positions, np.stack([s.ue_positions for s in steps]))
    assert np.array_equal(walked.ue_headings, np.stack([s.ue_headings for s in steps]))
    for ue in range(2):
        assert np.all(walked.serving_distance_m(ue) <= sc.cell_radius_m / 2.0 + 1e-9)


@given(m=st.sampled_from(VALID_ANTENNA_COUNTS), seed=st.integers(0, 2 ** 32 - 1),
       frames=st.integers(1, 20))
def test_fading_drawn_normals_equals_drawing_frame_by_frame(m, seed, frames):
    sc = chan.preset("sub6")
    topo = chan.init_topology(sc, seed=seed)
    state, want = chan.new_channel_state(seed), []
    for _ in range(frames):
        want.append(chan.draw_channels(topo, sc, m, state).vectors)
    fading, shape = np.random.default_rng(seed), (2, 2, sc.n_paths)
    angles, los = chan.draw_paths(fading, sc, shape)
    normals = np.ascontiguousarray(fading.standard_normal((frames, 2) + shape).swapaxes(0, 1))
    framed = dataclasses.replace(topo, ue_positions=np.stack([topo.ue_positions] * frames))
    trace = chan.draw_channels(framed, sc, m, chan.ChannelState(None, path_angles=angles, los=los),
                               normals=normals)
    assert trace.vectors is None and trace.path_gains.shape == (frames,) + shape
    for k in range(frames):
        assert np.array_equal(chan.channel_vectors(trace, k), want[k])
