"""Time-varying two-cell downlink channel: geometry, mobility, fading, SINR.

Two base stations (BS) with half-wavelength uniform linear arrays stand one
inter-site distance apart; UE u moves in a disc around BS u, its server, so
SINR_u = P_u |h_uu^T f_u|^2 / (P_{1-u} |h_{1-u,u}^T f_{1-u}|^2 + N).
Channels are multipath sums of steering vectors with autoregressive complex
path gains, scaled by a log-distance path loss.  Everything is driven by
explicit numpy Generators so a (scenario, seed, step count) triple
reproduces the exact same trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .beamcode import steering_matrix
from .errors import ConfigurationError, ContractViolation, reject_nonfinite

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Log-distance path loss exponents (see pathloss_db).
LOS_EXPONENT = 2.0
NLOS_EXPONENT = 3.3
REFERENCE_DISTANCE_M = 1.0

# Largest per-step heading change under the mobility model.
MAX_TURN_RAD = math.pi / 8.0

_UES = np.arange(2)     # UE u is served by BS u


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts) -> float:
    return 10.0 * np.log10(np.asarray(watts, dtype=float) * 1000.0)


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


@dataclass
class Scenario:
    """Static radio parameters of one simulated deployment.

    Two presets mirror the usual sub-6 GHz / mmWave parameter pairs; see
    ``preset``.  Noise defaults to thermal noise over 10 MHz (-104 dBm).
    """

    carrier_freq_hz: float = 2.1e9
    cell_radius_m: float = 350.0
    inter_site_distance_m: float = 525.0
    n_paths: int = 15
    p_los: float = 0.8
    ue_speed_kmh: float = 5.0
    frame_duration_s: float = 0.01
    noise_power_dbm: float = -174.0 + 10.0 * math.log10(10e6)   # thermal, -174 dBm/Hz
    tx_antenna_gain_dbi: float = 3.0
    max_bs_power_w: float = 40.0

    def __post_init__(self):
        reject_nonfinite(self)
        for name in ("cell_radius_m", "inter_site_distance_m", "carrier_freq_hz",
                     "frame_duration_s", "max_bs_power_w"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if not 0.0 <= self.p_los <= 1.0:
            raise ConfigurationError("p_los must lie in [0, 1]")
        if self.n_paths < 1:
            raise ConfigurationError("n_paths must be >= 1")
        if self.ue_speed_kmh < 0:
            raise ConfigurationError("ue_speed_kmh must be >= 0")

    @property
    def ue_speed_mps(self) -> float:
        return self.ue_speed_kmh * 1000.0 / 3600.0

    # derived once per scenario, as the environment reads both every frame;
    # a scenario's fields are not changed after construction (use `replace`)
    @cached_property
    def max_bs_power_dbm(self) -> float:
        return watts_to_dbm(self.max_bs_power_w)

    @cached_property
    def noise_power_w(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)


SCENARIO_PRESETS = {
    "sub6": dict(carrier_freq_hz=2.1e9, cell_radius_m=350.0, inter_site_distance_m=525.0,
                 n_paths=15, ue_speed_kmh=5.0),
    "mmwave": dict(carrier_freq_hz=28e9, cell_radius_m=150.0, inter_site_distance_m=225.0,
                   n_paths=4, ue_speed_kmh=2.0),
}


def preset(name: str, **overrides) -> Scenario:
    """Build a named Scenario preset, optionally overriding single fields."""
    if name not in SCENARIO_PRESETS:
        raise ConfigurationError(
            f"unknown scenario preset {name!r}; choose from {sorted(SCENARIO_PRESETS)}")
    return Scenario(**{**SCENARIO_PRESETS[name], **overrides})


@dataclass
class Topology:
    """BS/UE geometry, UE u served by BS u; UE arrays may lead with more axes."""

    bs_positions: np.ndarray        # (2, 2) metres
    ue_positions: np.ndarray        # (..., 2, 2) metres
    ue_headings: np.ndarray         # (..., 2) radians, mobility direction

    def moved(self, ue_positions, ue_headings) -> "Topology":
        """The same deployment with other UE positions and headings; cheaper than ``replace``."""
        return Topology(self.bs_positions, ue_positions, ue_headings)

    def serving_distance_m(self, ue: int):
        """UE ``ue``'s distance to its serving BS; one per episode on a block."""
        return np.linalg.norm(self.ue_positions[..., ue, :] - self.bs_positions[ue], axis=-1)


def init_topology(scenario: Scenario, seed) -> Topology:
    """Place the two BSs and drop one UE uniformly inside each serving disc.

    The BSs sit on a line one inter-site distance apart.  UE u lands
    uniformly in a disc of radius cell_radius/2 centred on BS u.
    """
    rng = np.random.default_rng(seed)
    bs = np.array([[0.0, 0.0], [scenario.inter_site_distance_m, 0.0]])

    disc_radius = scenario.cell_radius_m / 2.0
    radii = disc_radius * np.sqrt(rng.random(2))
    angles = rng.uniform(0.0, 2.0 * math.pi, 2)
    offsets = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    headings = rng.uniform(0.0, 2.0 * math.pi, 2)
    return Topology(bs_positions=bs, ue_positions=bs + offsets, ue_headings=headings)


def step_mobility(topology: Topology, scenario: Scenario, rng) -> Topology:
    """Advance each UE along a randomly turning heading.

    Per frame a UE turns by a uniform angle in [-MAX_TURN_RAD, MAX_TURN_RAD]
    and moves speed * frame_duration metres.  A UE crossing its serving
    disc boundary is folded back inside and its heading mirrored on the
    boundary tangent, so no UE ever leaves its disc.  ``rng`` draws one
    frame's turns; turns drawn before, (n, ..., 2), walk n frames, and the
    UE arrays of the result then lead with that frame axis.
    """
    drawn = isinstance(rng, np.ndarray)
    turns = rng if drawn else rng.uniform(-MAX_TURN_RAD, MAX_TURN_RAD, (1, 2))
    step_len = scenario.ue_speed_mps * scenario.frame_duration_s
    radius, centers = scenario.cell_radius_m / 2.0, topology.bs_positions
    pos, headings, t = topology.ue_positions, topology.ue_headings, 0
    walked, heads = np.empty(turns.shape + (2,)), np.empty(turns.shape)
    while t < len(turns):
        # headings wrap into [0, 2 pi) frame by frame; the moves add up in one cumsum
        for k in range(t, len(turns)):
            headings = heads[k] = np.mod(headings + turns[k], 2.0 * math.pi)
        moves = np.empty(heads[t:].shape + (2,))
        moves[..., 0], moves[..., 1] = np.cos(heads[t:]), np.sin(heads[t:])
        moves *= step_len
        moves[0] += pos
        rel = np.cumsum(moves, axis=0, out=walked[t:]) - centers
        dist = np.sqrt((rel * rel).sum(axis=-1))
        outside = dist > radius
        if not outside.any():
            break
        # fold the first frame with a crossing, then walk on from it
        f = int(np.argmax(outside.reshape(len(outside), -1).any(axis=1)))
        pos, headings, rel, dist, outside = walked[t + f], heads[t + f], rel[f], dist[f], outside[f]
        unit = rel[outside] / dist[outside][:, None]
        folded = np.clip(2.0 * radius - dist[outside], 0.0, radius)
        pos[outside] = np.broadcast_to(centers, pos.shape)[outside] + unit * folded[:, None]
        # mirror the velocity on the tangent: v' = v - 2 (v.u) u
        vel = np.stack([np.cos(headings[outside]), np.sin(headings[outside])], axis=1)
        vel -= 2.0 * np.sum(vel * unit, axis=1, keepdims=True) * unit
        headings[outside] = np.mod(np.arctan2(vel[:, 1], vel[:, 0]), 2.0 * math.pi)
        t += f + 1
    return topology.moved(walked if drawn else walked[0], heads if drawn else heads[0])


def pathloss_db(distance_m, carrier_freq_hz: float, p_los: float = 1.0) -> np.ndarray:
    """Log-distance path loss with a free-space intercept at 1 m.

    PL(d) = PL(d0) + 10 n log10(d / d0) with the exponent blended by the
    LOS probability: n = p_los * 2.0 + (1 - p_los) * 3.3.  Blending the
    expected excess loss (instead of drawing a hidden per-link exponent)
    keeps the large-scale loss a deterministic function of geometry; the
    LOS/NLOS distinction still drives the small-scale fading statistics.
    Distances below the reference distance are clamped to it.
    """
    d = np.maximum(np.asarray(distance_m, dtype=float), REFERENCE_DISTANCE_M)
    intercept = 20.0 * math.log10(
        4.0 * math.pi * REFERENCE_DISTANCE_M * carrier_freq_hz / SPEED_OF_LIGHT)
    exponent = p_los * LOS_EXPONENT + (1.0 - p_los) * NLOS_EXPONENT
    return intercept + 10.0 * exponent * np.log10(d / REFERENCE_DISTANCE_M)


def doppler_correlation(scenario: Scenario) -> float:
    """AR(1) coefficient for the per-path gains over one frame.

    Second-order Taylor value of the zeroth Bessel function at
    2 pi f_D T with f_D = v f_c / c, clamped into [0, 1] (the expansion
    drops below -1 once the Doppler-frame product is large, where the
    channel is effectively memoryless anyway).
    """
    f_doppler = scenario.ue_speed_mps * scenario.carrier_freq_hz / SPEED_OF_LIGHT
    x = 2.0 * math.pi * f_doppler * scenario.frame_duration_s
    return min(max(1.0 - x * x / 4.0, 0.0), 1.0)


@dataclass
class ChannelState:
    """Evolving multipath state for every (BS, UE) link.

    Path angles and LOS flags are drawn once per episode, and the steering
    vectors built from them at the first draw stay in `steering`; path
    gains evolve as AR(1) between frames.  `rng` is the state's generator;
    a trace drawn before has none (see ``draw_channels``).
    """

    rng: np.random.Generator | None
    vectors: np.ndarray | None = None       # (..., L, U, M) complex
    path_angles: np.ndarray | None = None   # (..., L, U, P) radians
    path_gains: np.ndarray | None = None    # (..., L, U, P) complex
    amplitude: np.ndarray | None = None     # (..., L, U) sqrt(PL_lin * G_lin / N_p)
    los: np.ndarray | None = None           # (..., L, U) bool
    rho: float = field(default=0.0)
    steering: np.ndarray | None = field(default=None, repr=False)  # (..., L, U, P, M) complex


def new_channel_state(seed) -> ChannelState:
    return ChannelState(rng=np.random.default_rng(seed))


def draw_paths(rng: np.random.Generator, scenario: Scenario, shape) -> tuple:
    """Path angles (L, U, P) and LOS flags (L, U) of one episode's links, in draw order."""
    return rng.uniform(0.0, math.pi, shape), rng.random(shape[:2]) < scenario.p_los


def _fade(gains, normals: np.ndarray, rho: float, los: np.ndarray) -> np.ndarray:
    """Path gains over the frames of ``normals``: AR(1) steps on from ``gains``, if any.

    Without ``gains`` the first frame is the stationary draw.  Paths fade
    independently, so pinning LOS first paths after the recursion is exact.
    """
    out = normals[1] * 1j     # unit-power circular Gaussians, formed in place
    out += normals[0]
    out /= math.sqrt(2.0)
    first, gains = (1, out[0]) if gains is None else (0, gains)
    out[first:] *= math.sqrt(1.0 - rho * rho)
    for k in range(first, len(out)):
        gains = out[k] = rho * gains + out[k]
    out[:, los, 0] = 1.0 + 0.0j
    return out


def draw_channels(topology: Topology, scenario: Scenario, m_antennas: int, state: ChannelState,
                  normals=None) -> ChannelState:
    """Advance the fading state and rebuild all channel vectors.

    Each link's channel is

        h = sqrt(PL_lin * G_lin / N_p) * sum_p alpha_p a(theta_p)

    with a(.) the unit-norm steering vector, theta_p fixed within the
    episode, and alpha_p AR(1) complex Gaussian except that a LOS link's
    first path stays pinned at 1.  A fresh state draws angles and LOS
    flags (``draw_paths``) and stationary gains; each later call draws one
    frame's innovations.  Unit ``normals`` drawn before, (2, n, ..., L, U,
    P) real parts then imaginary, advance n frames instead, on a topology
    whose UE arrays lead with those n frames: gains and amplitudes keep
    that frame axis, for ``channel_vectors`` frame by frame.
    """
    if m_antennas < 1:
        raise ConfigurationError("m_antennas must be >= 1")
    shape = (2, 2, scenario.n_paths)
    if state.path_angles is None:
        state.path_angles, state.los = draw_paths(state.rng, scenario, shape)
    if state.steering is None:
        state.rho = doppler_correlation(scenario)
        state.steering = steering_matrix(state.path_angles, m_antennas)
    elif state.steering.shape[-1] != m_antennas:
        raise ContractViolation("a channel state keeps the antenna count of its first draw")
    drawn = normals is not None
    gains = _fade(state.path_gains, normals if drawn
                  else state.rng.standard_normal((2, 1) + shape), state.rho, state.los)
    positions = topology.ue_positions if drawn else topology.ue_positions[None]
    offsets = topology.bs_positions[:, None, :] - positions[..., None, :, :]
    dists = np.sqrt((offsets * offsets).sum(axis=-1))
    pl_lin = db_to_linear(-pathloss_db(dists, scenario.carrier_freq_hz, scenario.p_los))
    state.path_gains, state.amplitude = gains, np.sqrt(
        pl_lin * db_to_linear(scenario.tx_antenna_gain_dbi) / scenario.n_paths)
    if not drawn:
        state.path_gains, state.amplitude = gains[0], state.amplitude[0]
        state.vectors = channel_vectors(state)
    return state


def channel_vectors(state: ChannelState, frame=...) -> np.ndarray:
    """Channel vectors (..., L, U, M) of the state, or of its ``frame`` along a frame axis."""
    vectors = np.einsum("...lupm,...lup->...lum", state.steering, state.path_gains[frame])
    vectors *= state.amplitude[frame][..., None]
    return vectors


def compute_sinr(state: ChannelState, beam_vectors: np.ndarray, powers_w: np.ndarray,
                 scenario: Scenario) -> np.ndarray:
    """Per-UE linear SINR for a per-BS beam assignment and power vector.

    SINR_u = P_u |h_uu^T f_u|^2 / (P_{1-u} |h_{1-u,u}^T f_{1-u}|^2 + noise)

    The code forms the interference as the UE's total received power minus its signal.

    ``state`` is a ChannelState or its channel vectors (..., L, U, M);
    powers (..., L) and beams (..., L, M) carry their episode axes.
    """
    vectors = state.vectors if isinstance(state, ChannelState) else state
    if vectors is None:
        raise ContractViolation("draw_channels must run before compute_sinr")
    powers_w = np.asarray(powers_w, dtype=float)
    if powers_w.shape != vectors.shape[:-2]:
        raise ContractViolation("one transmit power per base station is required")
    if np.count_nonzero(powers_w < 0.0):    # cheaper than .any() on a few entries
        raise ContractViolation("transmit powers must be non-negative")
    if np.count_nonzero(powers_w > scenario.max_bs_power_w * (1.0 + 1e-12)):
        raise ContractViolation("transmit powers must not exceed max_bs_power_w")

    # plain transpose product: the receive model uses h^T f
    rx = np.abs(np.einsum("...lum,...lm->...lu", vectors, np.asarray(beam_vectors)))
    rx *= rx
    rx *= powers_w[..., None]
    signal = rx[..., _UES, _UES]
    interference = np.add.reduce(rx, axis=-2)
    interference -= signal
    interference += scenario.noise_power_w
    return np.divide(signal, interference, out=signal)
