"""Episodic RL environment over the two-cell downlink simulator.

Observations are the 8 features used by all agents (two UE positions,
two transmit powers in dBm, two beam indices).  Actions are 4 features:
requested powers for the serving and interfering BS plus one raw beam
control per BS.  Rewards sum the per-UE effective SINR in dB, where the
effective value is clamped into [0 dB, gamma_max].  An episode ends in one
of two ways: it terminates (aborts) as soon as any served UE's raw SINR
drops below the cutoff, or it is truncated at the horizon.  Time is not
part of the observation, so a truncation is not a terminal state and
learners bootstrap through it (Pardo et al. 2018, "Time Limits in
Reinforcement Learning").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chan
from .beamcode import beam_from_continuous, build_codebook
from .errors import ConfigurationError, ContractViolation, UsageError

ACTION_SIZE = 4
# Bytes that the trace of a lockstep block may hold: 12 episodes at M=64
# (15 paths, horizon 50), 48 at M=1 and 45 at M=4 with horizon 20.
BLOCK_BYTES = 1 << 21
# learners' power range over the floor, cut at the cap; sub6's stops below it (CHANGES.md line 21)
POWER_SPAN_DB = 40.0
GAMMA0_DB = 5.0     # the SINR cap at one antenna; the array gain raises it


def gamma_max_db(m_antennas: int) -> float:
    """The cap (dB) of the effective SINR with an M-antenna array."""
    return GAMMA0_DB + 10.0 * math.log2(m_antennas)


@dataclass
class StepOutcome:
    """One frame's result; on a block of episodes each field leads with the episode axis."""

    next_state: np.ndarray
    reward: float
    terminated: bool    # SINR abort: a true end, the value of next_state is zero
    truncated: bool     # horizon cut-off without an abort: next_state keeps its value
    info: dict

    @property
    def done(self) -> bool:
        return self.terminated | self.truncated


def hierarchical_reward(step_reward: float, goal, action, weight: float = 1.0) -> float:
    """Environment reward minus the summed absolute goal-action deviation."""
    goal, action = np.asarray(goal, dtype=float), np.asarray(action, dtype=float)
    if goal.shape != action.shape:
        raise ContractViolation("goal and action must have the same arity")
    return float(step_reward - weight * np.add.reduce(np.abs(goal - action), axis=None))


class DownlinkEnv:
    """Two-cell downlink world with power and beam control.

    One UE per BS; BS 0 plays the serving role and BS 1 the interfering
    role of the 8-feature observation (the reward covers both UEs, so
    the labelling is symmetric).  ``start``/``advance`` play a block of
    episodes in lockstep: row b of the world state is episode b, drawing
    from its own streams exactly as it would alone.  ``reset``/``step``
    play one episode as a block of one.
    """

    power_floor_dbm = 0.0   # the lowest power a BS applies

    def __init__(self, scenario: chan.Scenario, m_antennas: int = 1, horizon: int = 50,
                 gamma_cutoff_db: float = 4.0):
        if horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if scenario.max_bs_power_dbm < self.power_floor_dbm:
            raise ConfigurationError("max_bs_power_w puts the power cap below the 0 dBm floor")
        self.scenario, self.m_antennas, self.horizon = scenario, int(m_antennas), int(horizon)
        self.codebook = build_codebook(self.m_antennas)
        self.gamma_cutoff_db, self.gamma_max_db = gamma_cutoff_db, gamma_max_db(self.m_antennas)
        self._frames = self.channel_state = None
        self._t = self.horizon  # advance() refuses until start() opens a block
        self._done = True

    # -- action/state ranges ------------------------------------------------

    @property
    def action_low(self) -> np.ndarray:
        return np.array([self.power_floor_dbm, self.power_floor_dbm, 0.0, 0.0])

    @property
    def action_high(self) -> np.ndarray:
        hi = min(self.power_floor_dbm + POWER_SPAN_DB, self.scenario.max_bs_power_dbm)
        nmax = self.codebook.size - 1.0
        return np.array([hi, hi, nmax, nmax])

    @property
    def state_low(self) -> np.ndarray:
        r, isd = self.scenario.cell_radius_m / 2.0, self.scenario.inter_site_distance_m
        return np.array([-r, -r, isd - r, -r, self.power_floor_dbm, self.power_floor_dbm, 0.0, 0.0])

    @property
    def state_high(self) -> np.ndarray:
        r, isd = self.scenario.cell_radius_m / 2.0, self.scenario.inter_site_distance_m
        cap, nmax = self.scenario.max_bs_power_dbm, float(self.codebook.size - 1)
        return np.array([r, r, isd + r, r, cap, cap, nmax, nmax])

    # -- episode API ---------------------------------------------------------

    @property
    def block_episodes(self) -> int:
        """Episodes per lockstep block: as many as BLOCK_BYTES of their traces allow.

        An episode's trace is what ``start`` holds for it: its steering
        tensor, the normals it fades (dropped once it returns), and the path
        gains, amplitudes and UE frames of the whole horizon.
        """
        links, frames = 4 * self.scenario.n_paths, self.horizon + 1     # (BS, UE, path)s
        # complex: steering, normals, gains; float per frame: 4 amplitudes, 4 coords, 2 headings
        trace = 16 * links * (self.m_antennas + 2 * frames) + 8 * 10 * frames
        return max(1, BLOCK_BYTES // trace)

    @property
    def topology(self) -> chan.Topology:
        """The current frame's geometry."""
        frames = self._frames
        return frames.moved(frames.ue_positions[self._t], frames.ue_headings[self._t])

    def start(self, seeds, topology_seeds=None) -> np.ndarray:
        """Start one episode per seed as a lockstep block; returns the (B, 8) states.

        Episode b draws what ``reset(seeds[b], topology_seeds[b])`` would, in
        the same order, from its own streams, all of it for the whole horizon
        here.  The block is then walked and faded from frame 0 to the horizon
        in one go, and the drawn normals are dropped; ``advance`` only indexes
        the frames and draws nothing.
        """
        b = len(seeds)
        if not b:
            raise ContractViolation("seeds must list at least one episode")
        if topology_seeds is not None and len(topology_seeds) != b:
            raise ContractViolation("topology_seeds must list one entry per seed")
        self._frames = self.channel_state = None    # the last block's trace goes first
        normals = np.empty((2, self.horizon + 1, b, 2, 2, self.scenario.n_paths))
        drops, paths, turns = zip(*map(
            self._streams, seeds, [None] * b if topology_seeds is None else topology_seeds,
            normals.swapaxes(0, 2)))
        # np.array of equal-shape arrays stacks them, without np.stack's overhead
        drop = drops[0].moved(np.array([d.ue_positions for d in drops]),
                              np.array([d.ue_headings for d in drops]))
        walk = chan.step_mobility(drop, self.scenario, np.array(turns).swapaxes(0, 1))
        self._frames = drop.moved(np.concatenate([drop.ue_positions[None], walk.ue_positions]),
                                  np.concatenate([drop.ue_headings[None], walk.ue_headings]))
        angles, los = map(np.array, zip(*paths))
        self.channel_state = chan.draw_channels(
            self._frames, self.scenario, self.m_antennas,
            chan.ChannelState(None, path_angles=angles, los=los), normals)
        # start both BSs 3 dB below the power cap, beams at index 0
        self._powers_dbm = np.full((b, 2), self.scenario.max_bs_power_dbm - 3.0)
        self._beams = np.zeros((b, 2), dtype=int)
        self._t, self._done = 0, True   # step() plays only what reset() opened
        return self._observe()

    def keep(self, rows) -> None:
        """Drop every episode of the block but those at ``rows``."""
        frames, state = self._frames, self.channel_state
        self._frames = frames.moved(frames.ue_positions[:, rows], frames.ue_headings[:, rows])
        self.channel_state = replace(
            state, path_angles=state.path_angles[rows], los=state.los[rows],
            steering=state.steering[rows], path_gains=state.path_gains[:, rows],
            amplitude=state.amplitude[:, rows])
        self._powers_dbm, self._beams = self._powers_dbm[rows], self._beams[rows]

    def reset(self, seed: int, topology_seed: int | None = None) -> np.ndarray:
        """Start a fresh episode: new geometry, fading state and controls.

        ``topology_seed`` takes the initial UE drop from another seed's
        stream (``reset(s, topology_seed=t)`` starts from the same UE
        positions and headings as ``reset(t)``) while mobility and fading
        still come from ``seed``.
        """
        state = self.start([seed], [topology_seed])[0]
        self._done = False
        return state

    def _streams(self, seed, topology_seed, normals):
        """One episode's UE drop, turns and paths; its fading normals fill ``normals``."""
        topo_ss, mob_ss, chan_ss = np.random.SeedSequence(seed).spawn(3)
        if topology_seed is not None:
            topo_ss = np.random.SeedSequence(topology_seed).spawn(1)[0]
        fading = np.random.default_rng(chan_ss)
        paths = chan.draw_paths(fading, self.scenario, normals.shape[2:])
        normals[...] = fading.standard_normal(normals.shape)
        return (chan.init_topology(self.scenario, topo_ss), paths,
                np.random.default_rng(mob_ss).uniform(-chan.MAX_TURN_RAD, chan.MAX_TURN_RAD,
                                                      (self.horizon, 2)))

    def apply_action(self, action) -> tuple[np.ndarray, np.ndarray]:
        """Clamp actions (..., 4) onto applied powers (dBm) and beam indices."""
        a = np.asarray(action, dtype=float)
        if a.shape[-1:] != (ACTION_SIZE,):
            raise ContractViolation(f"action must have {ACTION_SIZE} entries")
        if not np.isfinite(a).all():
            raise ContractViolation("action entries must be finite")
        powers = np.minimum(np.maximum(a[..., :2], self.power_floor_dbm),
                            self.scenario.max_bs_power_dbm)
        return powers, beam_from_continuous(a[..., 2:], self.codebook.size)

    def advance(self, actions) -> StepOutcome:
        """Apply one action per episode, advance them one frame and score it.

        Every outcome field and ``info`` entry has the episode axis first.
        """
        if self._t >= self.horizon:
            raise UsageError("the block is past its horizon; call start() first")
        self._powers_dbm, self._beams = self.apply_action(actions)
        self._t += 1

        # chan.dbm_to_watts per entry: numpy's vectorised power rounds some inputs differently
        powers_w = np.array(list(map(chan.dbm_to_watts, self._powers_dbm.ravel().tolist()))
                            ).reshape(self._powers_dbm.shape)
        sinr_lin = chan.compute_sinr(chan.channel_vectors(self.channel_state, self._t),
                                     self.codebook.vectors[self._beams], powers_w, self.scenario)
        raw_db = np.full(sinr_lin.shape, -np.inf)
        np.log10(sinr_lin, out=raw_db, where=sinr_lin > 0.0)
        raw_db *= 10.0
        eff_db = np.minimum(np.maximum(raw_db, 0.0), self.gamma_max_db)

        aborted = np.minimum.reduce(raw_db, axis=-1) < self.gamma_cutoff_db
        info = dict(sinr_linear=sinr_lin, sinr_db=raw_db, eff_sinr_db=eff_db,
                    powers_w=powers_w, aborted=aborted)
        return StepOutcome(next_state=self._observe(), reward=np.add.reduce(eff_db, axis=-1),
                           terminated=aborted, truncated=~aborted & (self._t >= self.horizon),
                           info=info)

    def step(self, action) -> StepOutcome:
        """Apply controls, advance the world one frame and score it."""
        if self._done:
            raise UsageError("step() called on a finished episode; call reset() first")
        if np.shape(action) != (ACTION_SIZE,):
            raise ContractViolation(f"action must have {ACTION_SIZE} entries")
        out = self.advance(np.asarray(action)[None])
        info = out.info     # the block of one becomes its one row, in place
        for key in ("sinr_linear", "sinr_db", "eff_sinr_db", "powers_w"):
            info[key] = info[key][0]
        info["aborted"] = out.terminated = bool(out.terminated[0])
        out.next_state, out.reward = out.next_state[0], float(out.reward[0])
        out.truncated = bool(out.truncated[0])
        self._done = out.done
        return out

    def _observe(self) -> np.ndarray:
        ue = self._frames.ue_positions[self._t]
        return np.concatenate([ue.reshape(ue.shape[:-2] + (4,)), self._powers_dbm, self._beams],
                              axis=-1)
