"""The five control policies behind one common train/act interface."""

from .common import (ActionScaler, AgentHyperparams, BaseAgent, DiscreteAgent, EpisodeLog,
                     OrnsteinUhlenbeckNoise, ReplayBuffer, Transition, discrete_action_table)
from .ddpg import DdpgAgent, actor_policy_gradient, ddpg_train_step
from .dqn import DqnAgent
from .fpa import FpaAgent, fpa_power
from .hddpg import HddpgAgent
from .qlearning import QLearningAgent, StateDiscretizer, qlearning_update

from ..errors import ConfigurationError

ALGORITHMS = ("fpa", "qlearning", "dqn", "ddpg", "hddpg")


def make_agent(name: str, env, hyper: AgentHyperparams, seed: int) -> BaseAgent:
    """Instantiate one of the five policies for a given environment."""
    if name == "fpa":
        return FpaAgent(env)
    if name == "qlearning":
        return QLearningAgent(env, hyper, seed)
    if name == "dqn":
        return DqnAgent(env, hyper, seed)
    if name == "ddpg":
        return DdpgAgent(env, hyper, seed)
    if name == "hddpg":
        return HddpgAgent(env, hyper, seed)
    raise ConfigurationError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")

__all__ = [
    "ALGORITHMS", "ActionScaler", "AgentHyperparams", "BaseAgent", "DdpgAgent",
    "DiscreteAgent", "DqnAgent", "EpisodeLog", "FpaAgent", "HddpgAgent",
    "OrnsteinUhlenbeckNoise", "QLearningAgent", "ReplayBuffer", "StateDiscretizer",
    "Transition", "actor_policy_gradient", "ddpg_train_step", "discrete_action_table",
    "fpa_power", "make_agent", "qlearning_update",
]
