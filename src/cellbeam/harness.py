"""Experiment harness: config files, seeded sweeps, metrics files, CLI.

A plan is the cross product (algorithm x antenna count x seed).  Every
cell derives its own random streams from a stable hash of its identity,
trains a fresh agent on a fresh environment, checks a network learner's
greedy policy against FPA on held-out training-stream episodes, then runs
greedy evaluation episodes with the learned policy or, if the check did not
trust it, with FPA.  Evaluation geometry seeds are shared across algorithms
(same M and base seed) so algorithm comparisons are paired, and a plan rolls
each (M, seed)'s FPA evaluation once for every cell that evaluates with FPA.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import metrics
from .agents import ALGORITHMS, AgentHyperparams, FpaAgent, make_agent
from .channel import SCENARIO_PRESETS, Scenario, preset
from .environment import DownlinkEnv, gamma_max_db
from .errors import CellbeamError, ConfigurationError, reject_nonfinite

ENV_VAR_PREFIX = "CELLBEAM_"
VALID_ANTENNA_COUNTS = (1, 4, 8, 16, 32, 64)
_ALGO_IDS = {name: i for i, name in enumerate(ALGORITHMS)}


@dataclass
class EnvSettings:
    """Episode-level environment knobs."""

    horizon: int = 50
    gamma_cutoff_db: float = 4.0

    def __post_init__(self):
        reject_nonfinite(self)
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")


@dataclass
class ExperimentPlan:
    """What to sweep and where to put the results."""

    algorithms: tuple[str, ...] = ("fpa", "qlearning", "dqn", "ddpg", "hddpg")
    antenna_counts: tuple[int, ...] = (1, 4, 8)
    seeds: tuple[int, ...] = (0, 1, 2)
    episodes: int = 300
    eval_episodes: int = 50
    scenario: str = "sub6"
    output_dir: str = "out"
    out_format: str = "csv"

    def validate(self) -> None:
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ConfigurationError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
        for m in self.antenna_counts:
            if m not in VALID_ANTENNA_COUNTS:
                raise ConfigurationError(
                    f"antenna count {m} not in the supported set {VALID_ANTENNA_COUNTS}")
        for key, entries in (("algo", self.algorithms), ("antennas", self.antenna_counts),
                             ("seeds", self.seeds)):
            if not entries:
                raise ConfigurationError(f"{key} must list at least one entry")
            if len(set(entries)) < len(entries):
                raise ConfigurationError(f"{key} lists an entry more than once: {entries}")
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be >= 0, not {self.seeds}")
        for key in ("episodes", "eval_episodes"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1")
        if self.scenario not in SCENARIO_PRESETS:
            raise ConfigurationError(f"unknown scenario preset {self.scenario!r}")
        if not self.output_dir:
            raise ConfigurationError("out must name an output directory")
        if self.out_format not in ("csv", "json"):
            raise ConfigurationError("format must be 'csv' or 'json'")


@dataclass
class RunConfig:
    plan: ExperimentPlan = field(default_factory=ExperimentPlan)
    scenario: Scenario = field(default_factory=lambda: preset("sub6"))
    env: EnvSettings = field(default_factory=EnvSettings)
    hyper: AgentHyperparams = field(default_factory=AgentHyperparams)

    def validate(self) -> None:
        """Check the plan and its action ranges, which do not depend on M."""
        self.plan.validate()
        build_env(self, self.plan.antenna_counts[0])


# -- config file handling ----------------------------------------------------

def _parse_list(cast):
    def parse(text):
        return tuple(cast(part.strip()) for part in str(text).split(",") if part.strip())
    return parse


# config keys that differ from their field's name; run_cell sets total_episodes
_KEY_ALIASES = {"algorithms": "algo", "antenna_counts": "antennas",
                "output_dir": "out", "out_format": "format"}
_DERIVED_FIELDS = ("total_episodes",)


def _field_parser(tp):
    """Text parser for a field type: a tuple[T, ...] takes a comma list of T."""
    if typing.get_origin(tp) is tuple:
        return _parse_list(typing.get_args(tp)[0])
    return tp


_SECTIONS = typing.get_type_hints(RunConfig)    # section name -> dataclass


def _derive_schema() -> dict:
    """key -> (section, field name, parser), in section and field order."""
    schema = {}
    for section, cls in _SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if f.name not in _DERIVED_FIELDS:
                schema[_KEY_ALIASES.get(f.name, f.name)] = (
                    section, f.name, _field_parser(hints[f.name]))
    return schema


CONFIG_SCHEMA = _derive_schema()
_ENV_KEYS = {ENV_VAR_PREFIX + key.upper(): key for key in CONFIG_SCHEMA}


def _read_config_lines(path) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}: line {lineno}: expected key=value")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in CONFIG_SCHEMA:
                raise ConfigurationError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigurationError(
                    f"{path}: line {lineno}: key {key!r} is already set on {values[key][1]}")
            values[key] = (text.strip(), f"line {lineno}")
    return values


def parse_config(path=None, cli_values=None) -> RunConfig:
    """Load a key=value config file into a full RunConfig.

    Absent keys keep their defaults.  Environment variables named
    CELLBEAM_<KEY> override file values, and ``cli_values`` (config key ->
    text, from command-line options) override both.  Scenario keys
    override the chosen preset field by field, whichever source names
    the preset.  A CELLBEAM_ variable that names no key is rejected.
    """
    values = _read_config_lines(path) if path is not None else {}
    for env_name, text in os.environ.items():
        if env_name.startswith(ENV_VAR_PREFIX):
            if env_name not in _ENV_KEYS:
                raise ConfigurationError(f"environment variable {env_name} names no config key")
            values[_ENV_KEYS[env_name]] = (text, f"environment variable {env_name}")
    for key, text in (cli_values or {}).items():
        values[key] = (text, f"command-line option --{key}")

    sections = {name: {} for name in _SECTIONS}
    for key, (text, where) in values.items():
        section, attr, parser = CONFIG_SCHEMA[key]
        try:
            sections[section][attr] = parser(text)
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(f"{where}: cannot parse {key}={text!r}: {exc}") from exc

    plan = ExperimentPlan(**sections.pop("plan"))
    plan.validate()
    sections["scenario"] = {**SCENARIO_PRESETS[plan.scenario], **sections["scenario"]}
    cfg = RunConfig(plan=plan, **{name: _SECTIONS[name](**kwargs)
                                  for name, kwargs in sections.items()})
    cfg.validate()
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Emit a config file that parses back to the same RunConfig."""
    lines = []
    for key, (section, attr, _) in CONFIG_SCHEMA.items():
        value = getattr(getattr(cfg, section), attr)
        if isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        else:   # str() of a float is its shortest round-trip repr()
            text = str(value)
        # parse_config strips each value and reads one line per key
        if text != text.strip() or len(text.splitlines()) > 1:
            raise ConfigurationError(
                f"{key}={text!r} cannot be written: surrounding whitespace or a line break")
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


# -- seeded sweep ------------------------------------------------------------

def _cell_entropy(algo: str, m: int, seed: int) -> list[int]:
    return [int(seed), _ALGO_IDS[algo], int(m)]


def _derive_seed(entropy, spawn_key) -> int:
    ss = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key))
    return int(ss.generate_state(1, np.uint64)[0])


def train_env_seed(algo: str, m: int, seed: int, episode: int) -> int:
    return _derive_seed(_cell_entropy(algo, m, seed), (1, episode))


def eval_env_seed(m: int, seed: int, episode: int) -> int:
    # no algorithm in the entropy: evaluation geometry is paired across algos
    return _derive_seed([int(seed), int(m)], (2, episode))


# -- the FPA anchor -----------------------------------------------------------
#
# A network learner (DQN, DDPG, h-DDPG) is evaluated with its own greedy
# policy only when a one-sided paired test on held-out episodes shows it
# beats FPA, in the spirit of Thomas et al. 2015, "High Confidence Policy
# Improvement"; otherwise the cell evaluates FPA.  Tabular Q-learning needs
# no check: its unvisited rows already fall back to action 0, the
# count-based form of the same anchor.

CHECKED_ALGORITHMS = ("dqn", "ddpg", "hddpg")
# as many held-out episodes as a default evaluation runs; a one-sided
# 2-standard-error bar lets a policy with no real gain over FPA through
# about 2% of the time
VALIDATION_EPISODES = 50
CONFIDENCE_Z = 2.0


@dataclass(frozen=True)
class Validation:
    """Outcome of one paired check of a learned policy against FPA."""

    episodes: int
    mean_gain: float    # mean of learned minus FPA sum rate, paired by episode seed
    stderr: float
    trusted: bool


def validation_env_seeds(cfg: RunConfig, algo: str, m: int, seed: int) -> list[int]:
    """Held-out episodes of the baseline check: the training stream past its end.

    The agent never trains on them, and they never touch the evaluation
    stream, so the check cannot select on evaluation geometry.
    """
    first = cfg.plan.episodes
    return [train_env_seed(algo, m, seed, first + k) for k in range(VALIDATION_EPISODES)]


def validate_policy(agent, env, seeds, z: float = CONFIDENCE_Z) -> Validation | None:
    """Trust the agent's greedy policy only if it beats FPA with confidence.

    ``seeds`` must be episodes the agent never trained on and that the
    final evaluation does not use.  Returns None, at no episode's cost,
    when no minibatch update ever ran.  The agent is left as it was.
    """
    if agent.updates == 0:
        return None
    fpa_rates = np.array([log.sum_rate(env.horizon)
                          for log in FpaAgent(env).run_episodes(env, seeds)])
    gains = np.array([log.sum_rate(env.horizon)
                      for log in agent.run_episodes(env, seeds)]) - fpa_rates
    mean = float(gains.mean())
    stderr = float(gains.std(ddof=1) / math.sqrt(len(gains)))
    return Validation(episodes=len(gains), mean_gain=mean, stderr=stderr, trusted=mean > z * stderr)


def build_env(cfg: RunConfig, m_antennas: int) -> DownlinkEnv:
    return DownlinkEnv(cfg.scenario, m_antennas=m_antennas, horizon=cfg.env.horizon,
                       gamma_cutoff_db=cfg.env.gamma_cutoff_db)


def run_cell(cfg: RunConfig, algo: str, m_antennas: int, seed: int, fpa_evals=None):
    """Train and evaluate one plan cell; fully deterministic given its seed.

    The cell evaluates with the agent itself, unless it is a network
    learner that the check did not trust; then it evaluates with FPA.
    ``fpa_evals`` maps (M, seed) to FPA's evaluation logs.  Those episodes
    carry no algorithm, so a cell that evaluates with FPA reuses an entry
    there, or fills it, instead of rolling the same episodes again.
    """
    env = build_env(cfg, m_antennas)
    hyper = replace(cfg.hyper, total_episodes=cfg.plan.episodes)
    agent_seed = _derive_seed(_cell_entropy(algo, m_antennas, seed), (0,))
    agent = make_agent(algo, env, hyper, agent_seed)

    # cycling repeats only the UE drops; mobility and fading stay fresh
    cycle = cfg.hyper.train_geometry_cycle
    seeds = [train_env_seed(algo, m_antennas, seed, e) for e in range(cfg.plan.episodes)]
    drops = [seeds[e % cycle] for e in range(len(seeds))] if cycle else [None] * len(seeds)
    if isinstance(agent, FpaAgent):     # FPA never learns: its training is a greedy rollout
        train_logs = agent.run_episodes(env, seeds, drops)
    else:
        train_logs = [agent.run_episode(env, s, train=True, topology_seed=d)
                      for s, d in zip(seeds, drops)]
    validation, evaluator = None, agent
    if algo in CHECKED_ALGORITHMS:
        validation = validate_policy(agent, env, validation_env_seeds(cfg, algo, m_antennas, seed))
        if validation is None or not validation.trusted:
            evaluator = FpaAgent(env)
    is_fpa = isinstance(evaluator, FpaAgent)
    shared = fpa_evals if fpa_evals is not None and is_fpa else {}
    if (m_antennas, seed) not in shared:
        shared[(m_antennas, seed)] = evaluator.run_episodes(
            env, [eval_env_seed(m_antennas, seed, e) for e in range(cfg.plan.eval_episodes)])
    eval_logs = shared[(m_antennas, seed)]

    loss_series = [log.mean_loss for log in train_logs]
    convergence = metrics.convergence_point(loss_series) if len(loss_series) >= 20 else None

    sum_rates = [log.sum_rate(env.horizon) for log in eval_logs]
    eff_all = np.concatenate([log.eff_sinr_db.ravel() for log in eval_logs])
    norm_all = np.concatenate([log.norm_power for log in eval_logs])
    summary = metrics.RunSummary(
        algorithm=algo, m_antennas=m_antennas, seed=seed,
        avg_sum_rate=float(np.mean(sum_rates)),
        avg_effective_sinr_db=float(eff_all.mean()),
        avg_normalized_tx_power=float(norm_all.mean()),
        abort_rate=float(np.mean([log.aborted for log in eval_logs])),
        loss_series=loss_series,
        convergence_episode=convergence,
        greedy_policy="fpa" if is_fpa else "learned",
        validation=None if validation is None else asdict(validation),
    )
    samples = metrics.SinrSampleSet(samples=eff_all, algorithm=algo,
                                    m_antennas=m_antennas, seed=seed)
    return agent, train_logs, eval_logs, summary, samples


def run_plan(cfg: RunConfig):
    """Execute every plan cell and write logs, metrics and checkpoints."""
    cfg.validate()
    out_dir = cfg.plan.output_dir
    os.makedirs(out_dir, exist_ok=True)

    summaries, sample_sets = [], []
    fpa_evals = {}      # (M, seed) -> evaluation logs of FPA, for this plan only
    max_cap = max(gamma_max_db(m) for m in cfg.plan.antenna_counts)
    grid = np.arange(-1.0, math.ceil(max_cap) + 1.5, 0.5)

    for algo in cfg.plan.algorithms:
        for m in cfg.plan.antenna_counts:
            for seed in cfg.plan.seeds:
                agent, train_logs, eval_logs, summary, samples = run_cell(
                    cfg, algo, m, seed, fpa_evals)
                tag = f"{algo}_m{m}_seed{seed}"
                metrics.write_episode_csv(os.path.join(out_dir, f"{tag}_train.csv"), train_logs)
                metrics.write_episode_csv(os.path.join(out_dir, f"{tag}_eval.csv"), eval_logs)
                metrics.write_json_summary(os.path.join(out_dir, f"{tag}_summary.json"), summary)
                ckpt_dir = os.path.join(out_dir, "checkpoints", tag)
                os.makedirs(ckpt_dir, exist_ok=True)
                agent.save(ckpt_dir)
                summaries.append(summary)
                sample_sets.append(samples)

    metrics.write_plan_tables(out_dir, cfg.plan.out_format, summaries, sample_sets, grid)
    return summaries


# -- CLI ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cellbeam",
        description="Run seeded downlink power/beam control experiments.")
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--algo", help="comma list of algorithms")
    parser.add_argument("--antennas", help="comma list of antenna counts")
    parser.add_argument("--seeds", help="comma list of seeds")
    parser.add_argument("--episodes", type=int, help="training episodes per cell")
    parser.add_argument("--scenario", help="scenario preset name")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="pooled metrics file format")
    args = parser.parse_args(argv)

    # every option but --config is named after the config key it sets
    cli_values = {key: str(value) for key, value in vars(args).items()
                  if key != "config" and value is not None}
    try:
        cfg = parse_config(args.config, cli_values)
        summaries = run_plan(cfg)
    except (CellbeamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for s in summaries:
        print(f"{s.algorithm} M={s.m_antennas} seed={s.seed}: "
              f"sum_rate={s.avg_sum_rate:.3f} eff_sinr={s.avg_effective_sinr_db:.2f} dB "
              f"norm_power={s.avg_normalized_tx_power:.3f} abort_rate={s.abort_rate:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
