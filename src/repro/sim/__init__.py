"""Virtual-time simulation substrate.

The paper measures throughput on a seven-node Alibaba ECS cluster backed by
OSS.  We do not have that hardware, so every performance experiment in this
reproduction runs on a *virtual clock*: algorithms process real bytes, but
time is charged through a calibrated :class:`~repro.sim.cost_model.CostModel`
instead of being measured on the wall.  This keeps results deterministic and
makes the bottleneck structure (CPU vs network, Fig 2 of the paper) explicit
rather than an artefact of Python interpreter speed.
"""

from repro.sim.clock import SimClock
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Counters, TimeBreakdown

__all__ = [
    "SimClock",
    "CostModel",
    "Counters",
    "TimeBreakdown",
]
