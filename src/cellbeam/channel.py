"""Time-varying two-cell downlink channel: geometry, mobility, fading, SINR.

The world is two base stations (BS) one inter-site distance apart, each
serving user equipments (UEs) scattered in a disc around it.  Channels are
multipath sums of steering vectors with autoregressive complex path gains,
scaled by a log-distance path loss.  Everything is driven by explicit
numpy Generators so a (scenario, seed, step count) triple reproduces the
exact same trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
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


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts) -> float:
    return 10.0 * np.log10(np.asarray(watts, dtype=float) * 1000.0)


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def thermal_noise_dbm(bandwidth_hz: float, density_dbm_per_hz: float = -174.0) -> float:
    """Thermal noise power over a bandwidth, from a flat spectral density."""
    return density_dbm_per_hz + 10.0 * math.log10(bandwidth_hz)


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
    noise_power_dbm: float = thermal_noise_dbm(10e6)
    tx_antenna_gain_dbi: float = 3.0
    max_bs_power_w: float = 40.0

    def __post_init__(self):
        reject_nonfinite(self)
        if self.cell_radius_m <= 0 or self.inter_site_distance_m <= 0:
            raise ConfigurationError("cell radius and inter-site distance must be positive")
        if not 0.0 <= self.p_los <= 1.0:
            raise ConfigurationError("p_los must lie in [0, 1]")
        if self.n_paths < 1:
            raise ConfigurationError("n_paths must be >= 1")
        if self.carrier_freq_hz <= 0 or self.frame_duration_s <= 0:
            raise ConfigurationError("carrier frequency and frame duration must be positive")
        if self.max_bs_power_w <= 0:
            raise ConfigurationError("max_bs_power_w must be positive")
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
    params = dict(SCENARIO_PRESETS[name])
    params.update(overrides)
    return Scenario(**params)


@dataclass
class Topology:
    """BS/UE geometry plus the fixed UE -> serving BS assignment.

    UE arrays may lead with an episode axis (``...``): row b is episode b.
    """

    bs_positions: np.ndarray        # (L, 2) metres
    ue_positions: np.ndarray        # (..., U, 2) metres
    serving_map: np.ndarray         # (U,) BS index per UE
    ue_headings: np.ndarray         # (..., U) radians, mobility direction
    num_bs: int
    ues_per_bs: int

    @property
    def num_ues(self) -> int:
        return self.serving_map.shape[0]

    def serving_distance_m(self, ue: int) -> float:
        bs = self.bs_positions[self.serving_map[ue]]
        return float(np.linalg.norm(self.ue_positions[ue] - bs))


def init_topology(scenario: Scenario, num_bs: int, ues_per_bs: int, seed) -> Topology:
    """Place the two BSs and drop UEs uniformly inside each serving disc.

    The BSs sit on a line one inter-site distance apart.  Each UE lands
    uniformly in a disc of radius cell_radius/2 centred on its serving BS.
    """
    if num_bs != 2:
        raise ConfigurationError("exactly 2 base stations are supported")
    if ues_per_bs < 1:
        raise ConfigurationError("each base station must serve at least 1 UE")
    rng = np.random.default_rng(seed)
    bs = np.array([[0.0, 0.0], [scenario.inter_site_distance_m, 0.0]])

    disc_radius = scenario.cell_radius_m / 2.0
    total = num_bs * ues_per_bs
    serving = np.repeat(np.arange(num_bs), ues_per_bs)
    radii = disc_radius * np.sqrt(rng.random(total))
    angles = rng.uniform(0.0, 2.0 * math.pi, total)
    offsets = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    ue = bs[serving] + offsets
    headings = rng.uniform(0.0, 2.0 * math.pi, total)
    return Topology(bs_positions=bs, ue_positions=ue, serving_map=serving,
                    ue_headings=headings, num_bs=num_bs, ues_per_bs=ues_per_bs)


def _per_stream(rng, draw):
    """``draw(rng)``, or for an array of per-episode generators each one's draw stacked."""
    if isinstance(rng, np.random.Generator):
        return draw(rng)
    return np.stack([draw(g) for g in rng])


def step_mobility(topology: Topology, scenario: Scenario, rng) -> Topology:
    """Advance each UE one frame along a randomly turning heading.

    Per step a UE turns by a uniform angle in [-MAX_TURN_RAD, MAX_TURN_RAD]
    and moves speed * frame_duration metres.  A UE crossing its serving
    disc boundary is folded back inside and its heading mirrored on the
    boundary tangent, so no UE ever leaves its disc.  With an episode axis,
    ``rng`` holds one generator per episode.
    """
    step_len = scenario.ue_speed_mps * scenario.frame_duration_s
    turns = _per_stream(rng, lambda g: g.uniform(-MAX_TURN_RAD, MAX_TURN_RAD,
                                                  topology.num_ues))
    headings = np.mod(topology.ue_headings + turns, 2.0 * math.pi)
    direction = np.empty(headings.shape + (2,))
    direction[..., 0], direction[..., 1] = np.cos(headings), np.sin(headings)
    pos = topology.ue_positions + step_len * direction

    disc_radius = scenario.cell_radius_m / 2.0
    centers = topology.bs_positions[topology.serving_map]
    rel = pos - centers
    dist = np.sqrt((rel * rel).sum(axis=-1))
    outside = dist > disc_radius
    if outside.any():
        centers = np.broadcast_to(centers, pos.shape)
        unit = rel[outside] / dist[outside][:, None]
        folded = np.clip(2.0 * disc_radius - dist[outside], 0.0, disc_radius)
        pos[outside] = centers[outside] + unit * folded[:, None]
        # mirror the velocity on the tangent: v' = v - 2 (v.u) u
        vel = np.stack([np.cos(headings[outside]), np.sin(headings[outside])], axis=1)
        vel -= 2.0 * np.sum(vel * unit, axis=1, keepdims=True) * unit
        headings[outside] = np.mod(np.arctan2(vel[:, 1], vel[:, 0]), 2.0 * math.pi)

    return Topology(topology.bs_positions, pos, topology.serving_map, headings,
                    topology.num_bs, topology.ues_per_bs)


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
    return float(np.clip(1.0 - x * x / 4.0, 0.0, 1.0))


@dataclass
class ChannelState:
    """Evolving multipath state for every (BS, UE) link.

    `vectors` holds the composite channel h for each link, (L, U, M)
    complex.  Path angles and the LOS flag are drawn once per episode;
    the complex path gains evolve as an AR(1) process between frames.
    Because the angles stay fixed, the steering vectors built from them at
    the first draw are kept in `steering`, so a state stays bound to the
    array of its first draw.  With an array of generators in `rng`, one
    per episode, every array carries that leading episode axis.
    """

    rng: np.random.Generator | np.ndarray   # or one generator per episode
    vectors: np.ndarray | None = None       # (..., L, U, M) complex
    path_angles: np.ndarray | None = None   # (..., L, U, P) radians
    path_gains: np.ndarray | None = None    # (..., L, U, P) complex
    los: np.ndarray | None = None           # (..., L, U) bool
    rho: float = field(default=0.0)
    steering: np.ndarray | None = field(default=None, repr=False)  # (..., L, U, P, M) complex

    def take(self, rows) -> ChannelState:
        """The episodes at ``rows`` of a state with an episode axis."""
        return replace(self, **{f.name: getattr(self, f.name)[rows] for f in fields(self)
                                if isinstance(getattr(self, f.name), np.ndarray)})


def new_channel_state(seed) -> ChannelState:
    return ChannelState(rng=np.random.default_rng(seed))


def _complex_normal(rng, shape) -> np.ndarray:
    """Unit-power circular Gaussians; each generator draws all real parts, then all imaginary."""
    parts = (rng.standard_normal((2,) + shape) if isinstance(rng, np.random.Generator)
             else np.stack([g.standard_normal((2,) + shape) for g in rng], axis=1))
    return (parts[0] + 1j * parts[1]) / math.sqrt(2.0)


def draw_channels(topology: Topology, scenario: Scenario, m_antennas: int,
                  state: ChannelState, spacing_in_wavelengths: float = 0.5) -> ChannelState:
    """Advance the fading state one frame and rebuild all channel vectors.

    Each link's channel is

        h = sqrt(PL_lin * G_lin / N_p) * sum_p alpha_p a(theta_p)

    with a(.) the unit-norm steering vector, theta_p fixed within the
    episode, and alpha_p AR(1) complex Gaussian except that a LOS link's
    first path stays pinned at 1.  The first call on a fresh state draws
    angles, LOS flags and stationary gains, and builds the steering
    vectors; each episode draws from its own generator in that order.
    """
    if m_antennas < 1:
        raise ConfigurationError("m_antennas must be >= 1")
    num_bs, num_ues, n_paths = topology.num_bs, topology.num_ues, scenario.n_paths
    shape = (num_bs, num_ues, n_paths)

    if state.path_gains is None:
        state.path_angles = _per_stream(state.rng, lambda g: g.uniform(0.0, math.pi, shape))
        state.los = _per_stream(state.rng, lambda g: g.random(shape[:2]) < scenario.p_los)
        state.path_gains = _complex_normal(state.rng, shape)
        state.path_gains[state.los, 0] = 1.0 + 0.0j
        state.rho = doppler_correlation(scenario)
        state.steering = steering_matrix(state.path_angles, m_antennas, spacing_in_wavelengths)
    else:
        if state.steering.shape[-1] != m_antennas:
            raise ContractViolation("a channel state keeps the antenna count of its first draw")
        innovation = _complex_normal(state.rng, shape)
        rho = state.rho
        state.path_gains = rho * state.path_gains + math.sqrt(1.0 - rho * rho) * innovation
        state.path_gains[state.los, 0] = 1.0 + 0.0j

    offsets = topology.bs_positions[:, None, :] - topology.ue_positions[..., None, :, :]
    dists = np.sqrt((offsets * offsets).sum(axis=-1))
    pl_lin = db_to_linear(-pathloss_db(dists, scenario.carrier_freq_hz, scenario.p_los))
    gain_lin = db_to_linear(scenario.tx_antenna_gain_dbi)
    amplitude = np.sqrt(pl_lin * gain_lin / n_paths)

    state.vectors = amplitude[..., None] * np.einsum(
        "...lupm,...lup->...lum", state.steering, state.path_gains)
    return state


def compute_sinr(state: ChannelState, topology: Topology, beam_vectors: np.ndarray,
                 powers_w: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Per-UE linear SINR for a per-BS beam assignment and power vector.

    SINR_u = P_serv |h_serv^T f_serv|^2 /
             (sum_{b != serv} P_b |h_b^T f_b|^2 + noise)

    Powers (..., L) and beams (..., L, M) carry the state's episode axes.
    """
    if state.vectors is None:
        raise ContractViolation("draw_channels must run before compute_sinr")
    powers_w = np.asarray(powers_w, dtype=float)
    if powers_w.shape != state.vectors.shape[:-2]:
        raise ContractViolation("one transmit power per base station is required")
    if (powers_w < 0.0).any():
        raise ContractViolation("transmit powers must be non-negative")
    if (powers_w > scenario.max_bs_power_w * (1.0 + 1e-12)).any():
        raise ContractViolation("transmit powers must not exceed max_bs_power_w")

    beam_vectors = np.asarray(beam_vectors)
    # plain transpose product: the receive model uses h^T f
    rx = powers_w[..., None] * np.abs(
        np.einsum("...lum,...lm->...lu", state.vectors, beam_vectors)) ** 2
    signal = rx[..., topology.serving_map, np.arange(topology.num_ues)]
    interference = rx.sum(axis=-2) - signal
    return signal / (interference + scenario.noise_power_w)
