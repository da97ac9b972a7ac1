"""The five control policies behind one common train/act interface."""

from .common import (ActionScaler, AgentHyperparams, BaseAgent, DiscreteAgent, EpisodeLog,
                     ReplayBuffer, ReplayLearner, Transition, discrete_action_table)
from .ddpg import DdpgAgent, actor_policy_gradient
from .dqn import DqnAgent
from .fpa import FpaAgent, fpa_power
from .hddpg import HddpgAgent
from .qlearning import QLearningAgent, StateDiscretizer, qlearning_update

from ..errors import ConfigurationError

ALGORITHMS = ("fpa", "qlearning", "dqn", "ddpg", "hddpg")


def make_agent(name: str, env, hyper: AgentHyperparams, seed: int) -> BaseAgent:
    """Instantiate one of the five policies for a given environment."""
    learners = {"qlearning": QLearningAgent, "dqn": DqnAgent, "ddpg": DdpgAgent,
                "hddpg": HddpgAgent}
    if name == "fpa":
        return FpaAgent(env)
    if name not in learners:
        raise ConfigurationError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    return learners[name](env, hyper, seed)

__all__ = [
    "ALGORITHMS", "ActionScaler", "AgentHyperparams", "BaseAgent", "DdpgAgent",
    "DiscreteAgent", "DqnAgent", "EpisodeLog", "FpaAgent", "HddpgAgent", "QLearningAgent",
    "ReplayBuffer", "ReplayLearner", "StateDiscretizer", "Transition", "actor_policy_gradient",
    "discrete_action_table", "fpa_power", "make_agent", "qlearning_update",
]
