"""Fixed power allocation: the static industry policy the learners are scored against."""

from __future__ import annotations

import math

import numpy as np

from ..channel import Scenario
from ..errors import ContractViolation
from .common import BaseAgent


def fpa_power(scenario: Scenario, n_prb_total: int, n_prb_allocated: int) -> float:
    """Transmit power (dBm) when the cap is split equally over resource blocks.

    P = P_max_dBm - 10 log10(N_PRB) + 10 log10(N_PRB_allocated)
    """
    if n_prb_total < 1 or n_prb_allocated < 1:
        raise ContractViolation("resource block counts must be >= 1")
    if n_prb_allocated > n_prb_total:
        raise ContractViolation("allocated blocks cannot exceed the total")
    return (scenario.max_bs_power_dbm
            - 10.0 * math.log10(n_prb_total)
            + 10.0 * math.log10(n_prb_allocated))


class FpaAgent(BaseAgent):
    """Requests the same fixed power every step and never moves the beams."""

    name = "fpa"

    def __init__(self, env):
        # all 100 resource blocks allocated: the full power cap
        self.power_dbm = float(np.clip(fpa_power(env.scenario, 100, 100), env.power_floor_dbm,
                                       env.scenario.max_bs_power_dbm))

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        """The fixed powers and the current beams, for one state or a (B, 8) block."""
        return np.concatenate([np.full(np.shape(state)[:-1] + (2,), self.power_dbm),
                               np.asarray(state)[..., 6:]], axis=-1)
