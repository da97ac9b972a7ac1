"""Shared agent machinery: replay buffer, hyperparameters, episode loop, discrete acts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..beamcode import step_beam
from ..errors import ConfigurationError, ContractViolation, reject_nonfinite
from ..metrics import sum_rate

FINAL_LAYER_SCALE = 0.05    # shrink factor for the output layer init of DQN's and DDPG's nets


@dataclass
class Transition:
    state: np.ndarray
    action: object          # continuous vector or discrete action id
    reward: float
    next_state: np.ndarray
    terminated: bool        # True only for an abort; a horizon cut-off bootstraps


class ReplayBuffer:
    """Ring buffer of transitions with uniform minibatch sampling.

    Each Transition field is stored as one float64 array, shaped by the
    first push; later pushes must match those shapes.  The arrays start
    at MIN_ROWS rows and double whenever they fill, up to `capacity`, so
    a buffer that sees few transitions costs few rows of memory.
    """

    MIN_ROWS = 32

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ConfigurationError("replay capacity must be >= 1")
        self.capacity, self.rng = capacity, rng
        self._arrays: list[np.ndarray] = []
        self._pushes = 0

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    @property
    def contents(self) -> tuple[Transition, ...]:
        """Copies of the stored transitions in ring-slot order."""
        rows = zip(*(a[:len(self)] for a in self._arrays))
        return tuple(Transition(s.copy(), a.copy(), float(r), n.copy(), bool(d))
                     for s, a, r, n, d in rows)

    def push(self, transition: Transition) -> None:
        fields = (transition.state, transition.action, transition.reward,
                  transition.next_state, transition.terminated)
        if not self._arrays:
            self._arrays = [np.empty((min(self.MIN_ROWS, self.capacity),) + np.shape(f))
                            for f in fields]
        elif self._pushes == len(self._arrays[0]) < self.capacity:
            # the ring has not wrapped, so slot i holds push i; rows past it are unread
            rows = min(2 * self._pushes, self.capacity)
            self._arrays = [np.resize(a, (rows,) + a.shape[1:]) for a in self._arrays]
        for array, value in zip(self._arrays, fields):
            if np.shape(value) != array.shape[1:]:
                raise ContractViolation("transition shapes differ from the first push")
            array[self._pushes % self.capacity] = value
        self._pushes += 1

    def sample(self, batch_size: int):
        """(states, actions, rewards, next_states, terminals) rows, without replacement."""
        if batch_size > len(self):
            raise ContractViolation("not enough stored transitions to sample")
        idx = self.rng.choice(len(self), size=batch_size, replace=False)
        return tuple(a.take(idx, axis=0) for a in self._arrays)


@dataclass
class AgentHyperparams:
    """Training knobs; defaults follow the standard parameter table."""

    discount: float = 0.9
    tau: float = 0.1
    lr: float = 1e-4                  # every network's Adam step size
    width: int = 28
    depth: int = 4
    batch_size: int = 128
    meta_batch_size: int = 64
    controller_batch_size: int = 64
    meta_period: int = 3
    noise_scale: float = 0.25         # initial std as a fraction of action range
    noise_end_frac: float = 0.0       # final noise scale as a fraction of initial
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_frac: float = 1.0       # fraction of training over which eps decays
    replay_capacity: int = 10_000
    dqn_greedy_margin: float = 0.0    # value lead over the neutral action needed to act on it
    reward_scale: float = 0.1         # conditioning factor for network targets
    actor_weight_decay: float = 0.0   # decoupled decay; keeps policy heads unsaturated
    critic_weight_decay: float = 0.0
    goal_penalty_weight: float = 1.0
    total_episodes: int = 300
    train_geometry_cycle: int = 0     # >0 cycles training over that many UE drops
    q_lr: float = 0.1                 # tabular Q-learning step size

    def __post_init__(self):
        reject_nonfinite(self)
        if not 0.0 < self.discount < 1.0:
            raise ConfigurationError("discount must lie in (0, 1)")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigurationError("tau must lie in [0, 1]")
        batch = max(self.batch_size, self.meta_batch_size, self.controller_batch_size)
        for name, low in (("width", 1), ("depth", 0), ("batch_size", 1), ("meta_batch_size", 1),
                          ("controller_batch_size", 1), ("meta_period", 1), ("noise_scale", 0),
                          ("replay_capacity", batch), ("train_geometry_cycle", 0), ("q_lr", 0),
                          ("actor_weight_decay", 0), ("critic_weight_decay", 0),
                          ("noise_end_frac", 0), ("goal_penalty_weight", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}")
        if self.lr <= 0:
            raise ConfigurationError("lr must be positive")
        if not 0.0 <= self.eps_end <= self.eps_start <= 1.0:
            raise ConfigurationError("epsilon schedule must satisfy 0 <= end <= start <= 1")
        if not 0.0 < self.eps_decay_frac <= 1.0:
            raise ConfigurationError("eps_decay_frac must lie in (0, 1]")

    def decay_progress(self, episode: int) -> float:
        """Share in [0, 1] of the linear exploration decay after `episode` trained episodes."""
        span = max(1.0, (self.total_episodes - 1) * self.eps_decay_frac)
        return min(1.0, episode / span)

    def epsilon_at(self, episode: int) -> float:
        """Linear decay from eps_start to eps_end over the decay fraction."""
        return self.eps_start + (self.eps_end - self.eps_start) * self.decay_progress(episode)


def agent_stream(seed: int, key: int) -> np.random.Generator:
    """Named, independent generator derived from one agent seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def discrete_action_table(power_step_db=(1.0, 3.0), codebook_size: int = 2) -> list[tuple]:
    """Joint discrete actions: power deltas (dB) per BS x beam direction per BS.

    Power deltas enumerate +/- each configured step, largest raise first
    so an untrained greedy argmax (all-zero values, ties broken by lowest
    index) defaults to pushing both powers up rather than draining them.
    With a single-entry codebook the beam steps are no-ops and collapse
    to one direction, shrinking the joint table fourfold.
    """
    steps = sorted(set(abs(float(s)) for s in power_step_db), reverse=True)
    deltas = steps + [-s for s in reversed(steps)]
    dirs = [1] if codebook_size == 1 else [1, -1]
    return [(dp_l, dp_b, db_l, db_b)
            for dp_l in deltas for dp_b in deltas for db_l in dirs for db_b in dirs]


@dataclass
class EpisodeLog:
    """Everything one episode produced, for logging and metrics."""

    states: np.ndarray        # (T + 1, 8); row t + 1 holds frame t's applied powers and beams
    actions: np.ndarray       # (T, 4)
    rewards: np.ndarray       # (T,)
    losses: np.ndarray        # (T,) NaN when no training happened
    eff_sinr_db: np.ndarray   # (T, n_ue)
    norm_power: np.ndarray    # (T,) mean applied power / max power
    aborted: bool

    @property
    def steps(self) -> int:
        return len(self.rewards)

    @property
    def episode_return(self) -> float:
        return float(self.rewards.sum())

    @property
    def mean_loss(self) -> float:
        return float("nan") if np.all(np.isnan(self.losses)) else float(np.nanmean(self.losses))

    def sum_rate(self, horizon: int) -> float:
        """Sum rate over the horizon; frames after an abort deliver zero rate."""
        return sum_rate(10.0 ** (self.eff_sinr_db / 10.0), horizon=horizon)


# per-frame fields of an EpisodeLog: (trailing shape, dtype); states hold one frame more
_FRAME_FIELDS = {"states": ((8,), float), "actions": ((4,), float), "rewards": ((), float),
                 "losses": ((), float), "eff_sinr_db": ((2,), float), "norm_power": ((), float)}


class _Frames:
    """Per-episode arrays of a rollout, filled one frame at a time.

    Rows are the running episodes, all at frame ``t``.  An episode's log is
    cut out of its row as soon as it ends, and the row leaves the arrays.
    """

    def __init__(self, env, states: np.ndarray):
        self.max_power_w, self.t = env.scenario.max_bs_power_w, 0
        self.ids = np.arange(len(states))
        self.arrays = {name: np.empty((len(states), env.horizon + 1) + shape, dtype)
                       for name, (shape, dtype) in _FRAME_FIELDS.items()}
        self.arrays["states"][:, 0] = states
        self.logs = [None] * len(states)

    def record(self, outcome, actions, loss=None) -> np.ndarray:
        """Store every running episode's next frame; returns which of them ended."""
        info, t = outcome.info, self.t
        self.arrays["states"][:, t + 1] = outcome.next_state
        # the mean power as sum / count, like np.mean; min() guards the dBm->W round
        # trip landing a few ulp above the cap
        watts = info["powers_w"]
        norm_power = np.minimum(1.0, np.add.reduce(watts, axis=-1) / watts.shape[-1]
                                / self.max_power_w)
        for name, value in (("actions", actions), ("rewards", outcome.reward),
                            ("losses", np.nan if loss is None else loss),
                            ("eff_sinr_db", info["eff_sinr_db"]), ("norm_power", norm_power)):
            self.arrays[name][:, t] = value
        self.t = t = t + 1
        ended = np.reshape(outcome.done, -1)
        if np.count_nonzero(ended):
            aborted = np.reshape(outcome.terminated, -1)
            for row in np.flatnonzero(ended):
                self.logs[self.ids[row]] = EpisodeLog(
                    aborted=bool(aborted[row]),
                    **{name: array[row, :t + (name == "states")].copy()
                       for name, array in self.arrays.items()})
            self.ids = self.ids[~ended]
            self.arrays = {name: array[~ended] for name, array in self.arrays.items()}
        return ended


class BaseAgent:
    """Common train/act interface; subclasses fill in the four hooks."""

    name = "base"
    _episode = 0                # trained episodes so far; exploration decays with it

    def begin_episode(self, state: np.ndarray) -> None:
        pass

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        """The action for one (8,) state; ``explore=False`` gives the greedy policy.

        A greedy act also takes a (B, 8) block, and each row gets the bits
        it would get alone.
        """
        raise NotImplementedError

    def observe(self, state, action, reward, next_state, terminated, truncated=False):
        """Store the transition and train; returns a loss or None.

        Only ``terminated`` (an abort) drops the bootstrap term; a
        ``truncated`` step ends the episode at the horizon but keeps it.
        """
        return None

    def end_episode(self, trained: bool) -> None:
        if trained:
            self._episode += 1

    def save(self, directory) -> None:
        pass

    def run_episode(self, env, seed: int, train: bool = True,
                    topology_seed: int | None = None) -> EpisodeLog:
        """Roll one episode, training after every step when train=True."""
        state = env.reset(seed, topology_seed)
        self.begin_episode(state)
        frames = _Frames(env, state[None])
        while frames.ids.size:
            action = self.act(state, explore=train)
            outcome = env.step(action)
            loss = self.observe(state, action, outcome.reward, outcome.next_state,
                                outcome.terminated, outcome.truncated) if train else None
            frames.record(outcome, action, loss)
            state = outcome.next_state
        self.end_episode(train)
        return frames.logs[0]

    def run_episodes(self, env, seeds, topology_seeds=None) -> list[EpisodeLog]:
        """Roll greedy, non-training episodes in lockstep blocks.

        Each log equals that of ``run_episode(env, seed, False, topology_seed)``
        bit for bit; the episode hooks are not called, as a greedy act reads
        nothing they set up.  Every frame's actions come from one greedy ``act``.
        """
        seeds = list(seeds)
        drops = [None] * len(seeds) if topology_seeds is None else list(topology_seeds)
        size = env.block_episodes
        logs = []
        for i in range(0, len(seeds), size):
            states = env.start(seeds[i:i + size], drops[i:i + size])
            frames = _Frames(env, states)
            while frames.ids.size:
                actions = self.act(states, explore=False)
                outcome = env.advance(actions)
                ended = frames.record(outcome, actions)
                states = outcome.next_state[~ended]
                if ended.any():
                    env.keep(np.flatnonzero(~ended))
            logs += frames.logs
        return logs


class DiscreteAgent(BaseAgent):
    """Epsilon-greedy learner over the joint power-step/beam-step table.

    Subclasses set ``power_steps_db``, call ``_init_actions`` and supply
    ``action_values(states)``, one value per table entry for each state.
    The greedy choice is their argmax, unless it leads action 0 by at most
    ``greedy_margin``: then it is action 0.  ``act`` explores on the given
    generator, one state at a time, and applies the chosen entry's steps.
    """

    greedy_margin = 0.0

    def _init_actions(self, env, hyper: AgentHyperparams, explore_rng: np.random.Generator):
        self.hyper = hyper
        self.actions = np.array(discrete_action_table(self.power_steps_db, env.codebook.size))
        self.codebook_size = env.codebook.size
        self.power_low = env.power_floor_dbm
        self.power_high = env.scenario.max_bs_power_dbm
        self._explore_rng = explore_rng

    @property
    def epsilon(self) -> float:
        return self.hyper.epsilon_at(self._episode)

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        if explore and state.ndim > 1:     # one epsilon test would steer every row alike
            raise ContractViolation("only a one-state act may explore")
        if explore and self._explore_rng.random() < self.epsilon:
            joint = self._explore_rng.integers(len(self.actions))
        else:
            values = self.action_values(state)
            # the argmax, or action 0 where the argmax leads it by at most the margin
            joint = values.argmax(axis=-1) * (values.max(axis=-1) - values[..., 0]
                                              > self.greedy_margin)
        self._last_joint = joint
        step = self.actions[joint]
        powers = np.minimum(np.maximum(state[..., 4:6] + step[..., :2], self.power_low),
                            self.power_high)
        beams = step_beam(np.rint(state[..., 6:]), step[..., 2:], self.codebook_size)
        return np.concatenate([powers, beams], axis=-1)


class ActionScaler:
    """Affine map between env units and the [-1, 1] policy space.

    It maps actions both ways, and network inputs one way: the network
    learners normalize states with ``ActionScaler(state_low,
    state_high).to_normalized``.  A dimension with zero span (the beam
    controls of a one-antenna array) has a single applicable value, which
    maps to -1.
    """

    def __init__(self, low: np.ndarray, high: np.ndarray):
        self.low, self.high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
        span = self.high - self.low
        self.fixed = ~(span > 0.0)
        self.span = np.where(self.fixed, 1.0, span)

    def applicable(self, normalized: np.ndarray) -> np.ndarray:
        """Pin the zero-span dimensions of normalized actions to -1."""
        return np.where(self.fixed, -1.0, normalized)

    def to_env(self, normalized) -> np.ndarray:
        return self.low + (np.asarray(normalized, dtype=float) + 1.0) / 2.0 * (self.high - self.low)

    def to_normalized(self, env_action) -> np.ndarray:
        return 2.0 * (np.asarray(env_action, dtype=float) - self.low) / self.span - 1.0


class ReplayLearner(BaseAgent):
    """A network learner trained from uniform replay minibatches.

    ``observe`` pushes each transition and runs one ``train_step``; the
    subclass's ``train_step`` takes its batch from ``_minibatch`` and
    returns its loss, or None while the buffer is short.
    """

    def __init__(self, env, hyper: AgentHyperparams, seed: int, batch_size: int | None = None):
        self.hyper = hyper
        self.batch_size = hyper.batch_size if batch_size is None else batch_size
        self.updates = 0    # minibatch updates run
        self.normalize = ActionScaler(env.state_low, env.state_high).to_normalized
        self.buffer = ReplayBuffer(hyper.replay_capacity, agent_stream(seed, 2))

    def observe(self, state, action, reward, next_state, terminated, truncated=False):
        """Push one transition and run one train_step; returns its loss or None."""
        self.buffer.push(Transition(state, action, reward, next_state, terminated))
        return self.train_step()

    def _minibatch(self):
        """One sampled batch, counted as an update, or None while the buffer is short.

        Gives the normalized states, the actions, the scaled rewards, the
        normalized next states and the bootstrap weights ``discount * (1 -
        terminal)``: only an abort drops the bootstrap term.
        """
        if len(self.buffer) < self.batch_size:
            return None
        states, actions, rewards, next_states, terminals = self.buffer.sample(self.batch_size)
        self.updates += 1
        return (self.normalize(states), actions, rewards * self.hyper.reward_scale,
                self.normalize(next_states), self.hyper.discount * (1.0 - terminals))
