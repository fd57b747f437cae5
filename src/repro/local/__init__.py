"""Synchronous LOCAL / CONGEST model simulator."""

from repro.local.algorithm import NodeAlgorithm
from repro.local.coroutine import CoroutineAlgorithm
from repro.local.engine import ArrayAlgorithm, ArrayEngine, BatchState
from repro.local.network import Network, canonical_edge
from repro.local.node import CommitError, NodeRuntime
from repro.local.runner import Runner, RoundLimitExceeded, estimate_message_bits

__all__ = [
    "Network",
    "canonical_edge",
    "NodeAlgorithm",
    "CoroutineAlgorithm",
    "ArrayAlgorithm",
    "ArrayEngine",
    "BatchState",
    "NodeRuntime",
    "CommitError",
    "Runner",
    "RoundLimitExceeded",
    "estimate_message_bits",
]
