"""Identifier assignment for LOCAL-model networks.

In the LOCAL model every node is equipped with a unique identifier of
``O(log n)`` bits.  Lower bounds (and some algorithms, e.g. Linial's colour
reduction) are sensitive to how these identifiers are chosen, so the
simulator supports several assignment schemes:

* :func:`sequential_ids` — node ``i`` receives identifier ``i`` (the simplest
  scheme, convenient for deterministic tests).
* :func:`random_ids` — identifiers are a uniformly random injection into a
  polynomially sized identifier space.  This is the assumption used by the
  KMW-style lower-bound argument in the paper ("IDs are assigned uniformly at
  random").
* :func:`permuted_ids` — a uniformly random permutation of ``0..n-1``.
* :func:`adversarial_interval_ids` — identifiers chosen from widely separated
  intervals, which is a simple adversarial pattern that maximises the number
  of rounds used by colour-reduction style algorithms.

A :class:`~repro.local.network.Network` stores its identifiers as one
read-only int64 array, so every identifier must lie in
``[0, MAX_ID]`` with ``MAX_ID = 2**63 - 1``; :func:`id_array` (and through it
:func:`validate_ids` and every network constructor) refuses other values with
a :class:`ValueError`.  All four schemes stay below the bound for
``n < 10⁹``: :func:`random_ids`, the widest, draws below ``8 n²``.
"""

from __future__ import annotations

import operator
import random
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

__all__ = [
    "MAX_ID",
    "sequential_ids",
    "random_ids",
    "permuted_ids",
    "permuted_id_array",
    "adversarial_interval_ids",
    "id_array",
    "id_bit_length",
    "validate_ids",
]

#: Largest identifier a network can store (identifiers are int64).
MAX_ID = (1 << 63) - 1


def sequential_ids(vertices: Sequence[int]) -> Dict[int, int]:
    """Assign identifier ``i`` to the ``i``-th vertex in ``vertices``."""
    return {v: i for i, v in enumerate(vertices)}


def random_ids(
    vertices: Sequence[int],
    rng: random.Random,
    id_space_factor: int = 8,
) -> Dict[int, int]:
    """Assign distinct identifiers drawn uniformly from ``[0, n^2 * factor)``.

    The identifier space is polynomial in ``n`` so that identifiers fit into
    ``O(log n)`` bits, as the LOCAL model requires.

    Args:
        vertices: vertices to label.
        rng: source of randomness.
        id_space_factor: multiplicative slack on the ``n^2`` identifier space.

    Returns:
        Mapping from vertex to identifier.
    """
    n = len(vertices)
    space = max(1, id_space_factor * n * n)
    chosen = rng.sample(range(space), n)
    return {v: ident for v, ident in zip(vertices, chosen)}


def permuted_id_array(n: int, rng: random.Random) -> np.ndarray:
    """The identifiers ``0..n-1`` in a uniformly random order, as int64.

    Entry ``v`` is vertex ``v``'s identifier.  The order is exactly
    ``rng.shuffle(list(range(n)))``, and ``rng`` is left in the state that
    shuffle leaves it in: the runner digests pin traces that depend on it.
    """
    perm: List[int] = list(range(n))
    rng.shuffle(perm)
    return np.fromiter(perm, dtype=np.int64, count=n)


def permuted_ids(vertices: Sequence[int], rng: random.Random) -> Dict[int, int]:
    """Assign the identifiers ``0..n-1`` in a uniformly random order."""
    perm = permuted_id_array(len(vertices), rng)
    return dict(zip(vertices, perm.tolist()))


def adversarial_interval_ids(
    vertices: Sequence[int],
    gap: int = 1 << 16,
) -> Dict[int, int]:
    """Assign identifiers ``0, gap, 2*gap, ...``.

    Widely spread identifiers are a classic adversarial input for iterated
    colour-reduction algorithms: each reduction step only shaves a logarithm
    off the identifier length, so large identifier values translate into more
    rounds.
    """
    if gap < 1:
        raise ValueError("gap must be a positive integer")
    return {v: i * gap for i, v in enumerate(vertices)}


def id_bit_length(ids: Dict[int, int]) -> int:
    """Number of bits needed to write the largest identifier."""
    if not ids:
        return 0
    return max(int(i).bit_length() for i in ids.values())


def _int64_values(values: List) -> np.ndarray:
    """Identifier values as int64, refusing non-integers and values outside
    ``[0, MAX_ID]``."""
    try:
        exact = [operator.index(value) for value in values]
    except TypeError:
        raise ValueError("identifiers must be integers") from None
    if exact and max(exact) > MAX_ID:
        raise ValueError("identifiers must be at most 2**63 - 1 (they are stored as int64)")
    if exact and min(exact) < 0:
        raise ValueError("identifiers must be non-negative")
    return np.array(exact, dtype=np.int64)


def id_array(ids: Mapping[int, int], vertices: Iterable[int]) -> np.ndarray:
    """``ids`` on ``vertices`` as one int64 array, in vertex order.

    Raises ``ValueError`` unless ``ids`` is an injection defined on
    ``vertices`` into ``[0, MAX_ID]``.  The mapping is read once; the
    uniqueness check runs on the array (by sorting and comparing
    neighbours).  Membership is checked with ``in`` (never ``ids[v]``) so
    mappings with default-value semantics cannot fabricate identifiers for
    missing vertices.
    """
    vertices = list(vertices)
    missing = [v for v in vertices if v not in ids]
    if missing:
        raise ValueError(f"identifiers missing for vertices {missing[:5]}")
    array = _int64_values([ids[v] for v in vertices])
    ordered = np.sort(array)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("identifiers must be unique")
    return array


def validate_ids(ids: Mapping[int, int], vertices: Iterable[int]) -> None:
    """Raise ``ValueError`` unless ``ids`` is an injection defined on ``vertices``.

    The identifiers must lie in ``[0, MAX_ID]``; see :func:`id_array`.
    """
    id_array(ids, vertices)
