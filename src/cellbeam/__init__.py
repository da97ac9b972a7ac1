"""cellbeam: a seeded two-cell downlink simulator plus RL control agents.

The library splits into the physical layer (channel, beamcode), the RL
environment wrapping it (environment), a small numpy network substrate
(neuralnet), the five control policies (agents), performance measures
(metrics) and the experiment harness (harness).
"""

from .beamcode import Codebook, beam_from_continuous, build_codebook, step_beam
from .channel import (ChannelState, Scenario, Topology, compute_sinr, draw_channels,
                      init_topology, new_channel_state, preset, step_mobility)
from .environment import DownlinkEnv, StepOutcome, hierarchical_reward
from .errors import CellbeamError, ConfigurationError, ContractViolation, UsageError
from .neuralnet import AdamOptimizer, GradientSet, Mlp, soft_update

__version__ = "0.1.0"

__all__ = [
    "AdamOptimizer", "CellbeamError", "ChannelState", "Codebook", "ConfigurationError",
    "ContractViolation", "DownlinkEnv", "GradientSet", "Mlp", "Scenario", "StepOutcome",
    "Topology", "UsageError", "beam_from_continuous", "build_codebook",
    "compute_sinr", "draw_channels", "hierarchical_reward", "init_topology",
    "new_channel_state", "preset", "soft_update", "step_beam", "step_mobility",
]
