import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellbeam import beamcode as bc
from cellbeam.errors import ConfigurationError, ContractViolation
from cellbeam.harness import VALID_ANTENNA_COUNTS


def test_single_antenna_codebook():
    cb = bc.build_codebook(1)
    assert cb.size == 1
    assert np.allclose(cb.vectors, [[1.0 + 0.0j]])


def test_entry_modulus_and_norms():
    cb = bc.build_codebook(4)
    assert np.allclose(np.abs(cb.vectors), 0.5, atol=1e-12)
    assert np.allclose(np.linalg.norm(cb.vectors, axis=1), 1.0, atol=1e-12)


def test_two_antenna_hand_oracle():
    # theta_0 = 0, kd = pi: f_0 = (1/sqrt 2) [1, e^{j pi}]
    cb = bc.build_codebook(2)
    expected = np.array([1.0, np.exp(1j * math.pi)]) / math.sqrt(2.0)
    assert np.allclose(cb.vectors[0], expected, atol=1e-12)


def test_codebook_sizes_and_angles():
    for m in (1, 2, 4, 8, 16):
        cb = bc.build_codebook(m)
        assert cb.size == m
        assert np.allclose(cb.angles, math.pi * np.arange(m) / m)


def test_codebook_is_immutable():
    cb = bc.build_codebook(4)
    with pytest.raises(ValueError):
        cb.vectors[0, 0] = 0.0


def test_build_codebook_rejects_zero_antennas():
    with pytest.raises(ConfigurationError):
        bc.build_codebook(0)


def test_steering_matches_codebook_at_grid_angles():
    cb = bc.build_codebook(8)
    for n, theta in enumerate(cb.angles):
        assert np.allclose(bc.steering_matrix(theta, 8), cb.vectors[n], atol=1e-12)


def test_array_gain_bound():
    # max_n |a(theta)^H f_n|^2 <= 1 everywhere, and exactly 1 on grid angles
    for m in (2, 4, 8, 16):
        cb = bc.build_codebook(m)
        thetas = np.linspace(0.0, math.pi, 257)
        responses = bc.steering_matrix(thetas, m)
        gains = np.abs(responses.conj() @ cb.vectors.T) ** 2
        assert np.all(gains.max(axis=1) <= 1.0 + 1e-12)
        on_grid = np.abs(cb.vectors.conj() * cb.vectors).sum(axis=1)
        assert np.allclose(on_grid, 1.0, atol=1e-12)


def test_step_beam_wraps_both_ways():
    assert bc.step_beam(7, 1, 8) == 0
    assert bc.step_beam(0, -1, 8) == 7
    assert bc.step_beam(2, 1, 8) == 3


def test_step_beam_validates():
    with pytest.raises(ContractViolation):
        bc.step_beam(8, 1, 8)
    with pytest.raises(ContractViolation):
        bc.step_beam(-1, 1, 8)
    with pytest.raises(ContractViolation):
        bc.step_beam(0, 2, 8)


@given(size=st.sampled_from(VALID_ANTENNA_COUNTS), n=st.integers(1, 60),
       seed=st.integers(0, 2 ** 20))
@settings(max_examples=40)
def test_step_beam_on_arrays_moves_each_entry_and_refuses_one_bad_entry(size, n, seed):
    rng = np.random.default_rng(seed)
    index, direction = rng.integers(0, size, n), rng.choice([-1, 1], n)
    want = [bc.step_beam(int(i), int(d), size) for i, d in zip(index, direction)]
    assert np.array_equal(bc.step_beam(index, direction, size), want)
    assert np.array_equal(bc.step_beam(index.astype(float), direction.astype(float), size), want)
    k = rng.integers(n)
    bad_index = index.copy()
    bad_index[k] = rng.choice([-1, size, size + 3])
    with pytest.raises(ContractViolation, match="beam index"):
        bc.step_beam(bad_index, direction, size)
    bad_direction = direction.copy()
    bad_direction[k] = rng.choice([0, 2, -2])
    with pytest.raises(ContractViolation, match="direction"):
        bc.step_beam(index, bad_direction, size)


def test_step_beam_is_bijective():
    for size in (1, 3, 8):
        ups = {bc.step_beam(i, 1, size) for i in range(size)}
        downs = {bc.step_beam(i, -1, size) for i in range(size)}
        assert ups == set(range(size)) and downs == set(range(size))
        for i in range(size):
            assert bc.step_beam(bc.step_beam(i, 1, size), -1, size) == i


def test_beam_from_continuous():
    assert bc.beam_from_continuous(3.7, 8) == 3
    assert bc.beam_from_continuous(-0.2, 8) == 0
    assert bc.beam_from_continuous(7.99, 8) == 7
    assert bc.beam_from_continuous(8.0, 8) == 7
    assert bc.beam_from_continuous(0.0, 1) == 0


def test_beam_from_continuous_rejects_nan():
    with pytest.raises(ContractViolation):
        bc.beam_from_continuous(float("nan"), 8)
    with pytest.raises(ContractViolation):
        bc.beam_from_continuous(float("inf"), 8)
