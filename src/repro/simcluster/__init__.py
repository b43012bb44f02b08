"""Simulated non dedicated cluster substrate.

This package replaces the paper's physical testbeds (Section 5) with a
deterministic discrete-event simulation: nodes with round-robin CPUs,
competing background processes, and a switched-Ethernet network.  See DESIGN.md Section 2 for the
substitution argument.
"""

from .cluster import Cluster
from .cpu import BackgroundJob, RoundRobinCPU
from .kernel import ProcState, Signal, Simulator, SimProcess, to_ns, to_s
from .network import Network
from .node import Node
from .rng import StreamRegistry
from .syscalls import Compute, ComputeRows, Poll, Sleep, Wait
from .workload import CycleTrigger, LoadScript, Script, TimeTrigger, single_competitor

__all__ = [
    "Cluster",
    "Node",
    "Network",
    "Simulator",
    "SimProcess",
    "Signal",
    "ProcState",
    "StreamRegistry",
    "RoundRobinCPU",
    "BackgroundJob",
    "Compute",
    "ComputeRows",
    "Poll",
    "Sleep",
    "Wait",
    "Script",
    "LoadScript",
    "TimeTrigger",
    "CycleTrigger",
    "single_competitor",
    "to_ns",
    "to_s",
]
