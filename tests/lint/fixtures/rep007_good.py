# lint-fixture: src/repro/algorithms/mis/luby.py
"""Good REP007 fixture: unbuffered or allocating gathers stay silent."""

import numpy as np


def gather_into_out(mask, values, indices, out):
    np.take(values, np.flatnonzero(mask), out=out, mode="clip")
    np.take(values, indices, None, out, "wrap")
    values.take(indices, out=out, mode="clip")
    values.take(indices, None, out, "clip")
    return out


def allocating_forms(mask, values, indices):
    # Without out= there is no buffer to copy into: the result is the
    # freshly allocated array.
    return (
        np.compress(mask, values),
        np.take(values, indices),
        values.take(indices, out=None),
        values.compress(mask),
    )


def take_through_writable_copies(network, values, out):
    us, vs = network.edge_endpoints()
    us = us.copy()  # rebinding to a writable copy clears the name
    np.take(values, us, out=out, mode="clip")
    slots = np.add(vs, 0)
    np.take(values, slots, out=out, mode="clip")
    # A read-only *source* costs nothing: only the index array is copied.
    np.take(vs, slots, out=out, mode="clip")
    return network.edge_endpoints()[0].take(slots)
