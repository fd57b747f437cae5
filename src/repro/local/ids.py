"""Identifier assignment for LOCAL-model networks.

In the LOCAL model every node is equipped with a unique identifier of
``O(log n)`` bits.  Lower bounds (and some algorithms, e.g. Linial's colour
reduction) are sensitive to how these identifiers are chosen, so a
:class:`~repro.local.network.Network` takes them either from a named scheme
(:func:`scheme_ids`) or as explicit values, one integer per vertex in vertex
order (:func:`checked_ids`).  The schemes:

* ``"sequential"`` — vertex ``v`` receives identifier ``v`` (the simplest
  scheme, convenient for deterministic tests).
* ``"random"`` — a uniformly random injection into the polynomially sized
  space ``[0, 8 n²)``, ``rng.sample(range(8 n²), n)``.  This is the
  assumption used by the KMW-style lower-bound argument in the paper ("IDs
  are assigned uniformly at random").
* ``"permuted"`` — a uniformly random permutation of ``0..n-1``, exactly
  ``rng.shuffle(list(range(n)))`` (the benchmark convention).
* ``"adversarial"`` — identifiers ``0, 2¹⁶, 2·2¹⁶, …``: widely separated
  intervals, a simple adversarial pattern that maximises the number of
  rounds used by colour-reduction style algorithms.

A network stores its identifiers as one read-only int64 array, so every
identifier must lie in ``[0, MAX_ID]`` with ``MAX_ID = 2**63 - 1``;
:func:`checked_ids` refuses other values with a :class:`ValueError`.  All
four schemes stay below the bound for ``n < 10⁹``: the random scheme, the
widest, draws below ``8 n²``.
"""

from __future__ import annotations

import operator
import random
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = ["MAX_ID", "scheme_ids", "checked_ids"]

#: Largest identifier a network can store (identifiers are int64).
MAX_ID = (1 << 63) - 1


def scheme_ids(
    n: int, id_scheme: str, rng: Optional[random.Random] = None
) -> np.ndarray:
    """Identifiers of vertices ``0..n-1`` under a named scheme, as int64.

    ``rng`` drives the ``"random"`` and ``"permuted"`` schemes
    (``random.Random(0)`` when omitted) and is left in the state their draw
    leaves it in: the runner digests pin traces that depend on it.
    """
    rng = rng or random.Random(0)
    if id_scheme == "sequential":
        return np.arange(n, dtype=np.int64)
    if id_scheme == "permuted":
        perm = list(range(n))
        rng.shuffle(perm)
        return np.fromiter(perm, dtype=np.int64, count=n)
    if id_scheme == "random":
        return np.array(rng.sample(range(max(1, 8 * n * n)), n), dtype=np.int64)
    if id_scheme == "adversarial":
        return np.arange(n, dtype=np.int64) << 16
    raise ValueError(f"unknown id scheme: {id_scheme!r}")


def checked_ids(values: Sequence[int], n: int) -> np.ndarray:
    """Explicit identifiers, one integer per vertex in vertex order, as int64.

    Raises :class:`ValueError` unless ``values`` holds ``n`` distinct
    integers in ``[0, MAX_ID]``, and :class:`TypeError` for a mapping (whose
    iteration would yield its keys).  The uniqueness check runs on the
    array, by sorting and comparing neighbours.
    """
    if isinstance(values, Mapping):
        raise TypeError("identifiers are one integer per vertex, in vertex order")
    try:
        exact = [operator.index(value) for value in values]
    except TypeError:
        raise ValueError("identifiers must be integers") from None
    if len(exact) != n:
        raise ValueError(f"expected {n} identifiers, one per vertex, got {len(exact)}")
    if exact and max(exact) > MAX_ID:
        raise ValueError("identifiers must be at most 2**63 - 1 (they are stored as int64)")
    if exact and min(exact) < 0:
        raise ValueError("identifiers must be non-negative")
    array = np.array(exact, dtype=np.int64)
    ordered = np.sort(array)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("identifiers must be unique")
    return array
