"""Beamsteering codebook for a half-wavelength uniform linear array.

The codebook holds one unit-norm steering vector per angle, with the
steering angles splitting [0, pi) into M equal steps.  Agents address it
by index: circular +/-1 stepping for discrete-action agents, floor of a
continuous output for the deterministic-policy agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolation


def steering_matrix(thetas, m_antennas: int) -> np.ndarray:
    """Responses a(theta) of an M-element half-wavelength ULA, entries of modulus 1/sqrt(M).

    One steering vector per angle: the output shape is thetas.shape + (M,).
    """
    if m_antennas < 1:
        raise ConfigurationError("m_antennas must be >= 1")
    kd = math.pi    # 2 pi d / lambda at d = lambda / 2
    m_idx = np.arange(m_antennas)
    # in place, as a lockstep block's tensors are large
    vectors = np.multiply(1j, kd * np.cos(np.asarray(thetas, dtype=float))[..., None] * m_idx)
    np.exp(vectors, out=vectors)
    vectors /= math.sqrt(m_antennas)
    return vectors


@dataclass(frozen=True)
class Codebook:
    """Immutable ordered set of beamsteering vectors."""

    angles: np.ndarray = field(repr=False)   # (N_CB,) radians
    vectors: np.ndarray = field(repr=False)  # (N_CB, M) complex

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def build_codebook(m_antennas: int) -> Codebook:
    """Codebook with steering angles theta_n = pi n / M, n = 0..M-1."""
    if m_antennas < 1:
        raise ConfigurationError("codebook needs at least one antenna")
    angles = math.pi * np.arange(m_antennas) / m_antennas
    vectors = steering_matrix(angles, m_antennas)
    angles.setflags(write=False)
    vectors.setflags(write=False)
    return Codebook(angles=angles, vectors=vectors)


def step_beam(index, direction, codebook_size: int):
    """Circular +/-1 moves through the codebook: (index +/- 1) mod size, entry by entry."""
    if np.count_nonzero(np.less(index, 0) | np.greater_equal(index, codebook_size)):
        raise ContractViolation(f"beam index {index} outside [0, {codebook_size})")
    if np.count_nonzero(np.abs(direction) != 1):    # cheaper than .any() on a few entries
        raise ContractViolation("direction must be +1 or -1")
    return (index + direction) % codebook_size


def beam_from_continuous(raw, codebook_size: int):
    """Map continuous control values onto beam indices by flooring.

    Values are clamped into [0, codebook_size - 1] after the floor, so any
    finite input yields a valid index; arrays map entry by entry.
    """
    raw = np.asarray(raw, dtype=float)
    if not np.isfinite(raw).all():
        raise ContractViolation("beam control value must be finite")
    return np.minimum(np.maximum(np.floor(raw), 0), codebook_size - 1).astype(int)
