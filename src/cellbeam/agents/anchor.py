"""Baseline anchor: a network learner acts as FPA until evidence moves it.

A DQN, DDPG or h-DDPG agent's greedy policy starts out as fixed power
allocation (FPA), reproduced bit for bit through ``FpaAgent.act``.  After
training, ``validate_policy`` rolls the agent's own greedy policy and FPA
over the same held-out episodes and trusts the learned policy only when
the mean paired sum-rate gain exceeds ``z`` standard errors: a one-sided
paired test in the spirit of Thomas et al. 2015, "High Confidence Policy
Improvement".  An agent that never ran a minibatch update has no evidence
and is not checked, so the check costs no episodes there.

The tabular agent needs no check: its unvisited rows already fall back to
action 0, the count-based form of the same anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import BaseAgent
from .fpa import FpaAgent

# as many held-out episodes as a default evaluation runs; a one-sided
# 2-standard-error bar lets a policy with no real gain over FPA through
# about 2% of the time
VALIDATION_EPISODES = 50
CONFIDENCE_Z = 2.0


class AnchoredAgent(BaseAgent):
    """A learner whose greedy policy is FPA until ``validate_policy`` trusts it.

    Subclasses call ``_init_anchor`` and route greedy acts through
    ``self.baseline`` while ``self.trusted`` is False; ``self.updates``
    counts the minibatch updates that ran.
    """

    def _init_anchor(self, env) -> None:
        self.baseline = FpaAgent(env)
        self.trusted = False
        self.updates = 0

    @property
    def greedy_policy(self) -> str:
        return "learned" if self.trusted else "fpa"


@dataclass(frozen=True)
class Validation:
    """Outcome of one paired check of a learned policy against FPA."""

    episodes: int
    mean_gain: float    # mean of learned minus FPA sum rate, paired by episode seed
    stderr: float
    trusted: bool


def validate_policy(agent: AnchoredAgent, env, seeds,
                    z: float = CONFIDENCE_Z) -> Validation | None:
    """Trust the agent's greedy policy only if it beats FPA with confidence.

    ``seeds`` must be episodes the agent never trained on and that the
    final evaluation does not use.  Returns None, with the agent left on
    FPA, when no minibatch update ever ran.
    """
    agent.trusted = False
    if agent.updates == 0:
        return None
    fpa_rates = np.array([log.sum_rate(env.horizon)
                          for log in FpaAgent(env).run_episodes(env, seeds)])
    agent.trusted = True
    gains = np.array([log.sum_rate(env.horizon)
                      for log in agent.run_episodes(env, seeds)]) - fpa_rates
    mean = float(gains.mean())
    stderr = float(gains.std(ddof=1) / math.sqrt(len(gains)))
    agent.trusted = mean > z * stderr
    return Validation(episodes=len(gains), mean_gain=mean, stderr=stderr,
                      trusted=agent.trusted)
