"""Workload graph generators, the array edge-list interchange, girth utilities, and transforms."""

from repro.graphs import edgelist, generators, girth, transforms
from repro.graphs.edgelist import EdgeArrays
from repro.graphs.transforms import line_graph, power_graph, two_copies_with_perfect_matching

__all__ = [
    "edgelist",
    "generators",
    "girth",
    "transforms",
    "EdgeArrays",
    "line_graph",
    "power_graph",
    "two_copies_with_perfect_matching",
]
