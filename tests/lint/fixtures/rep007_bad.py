# lint-fixture: src/repro/algorithms/mis/luby.py
"""Bad REP007 fixture: compress/take outputs that numpy buffers anyway."""

import numpy
import numpy as np


def compress_into_out(mask, values, out):
    np.compress(mask, values, out=out)  # expect[REP007]
    numpy.compress(mask, values, None, out)  # expect[REP007]
    values.compress(mask, out=out)  # expect[REP007]
    return out


def take_into_out_in_raise_mode(values, indices, out, mode):
    np.take(values, indices, out=out)  # expect[REP007]
    np.take(values, indices, out=out, mode="raise")  # expect[REP007]
    np.take(values, indices, None, out)  # expect[REP007]
    values.take(indices, out=out)  # expect[REP007]
    values.take(indices, None, out, "raise")  # expect[REP007]
    np.take(values, indices, out=out, mode=mode)  # expect[REP007]
    return out


def take_through_the_endpoint_arrays(network, values, out):
    # numpy copies a read-only index array before every gather.
    np.take(values, network.edge_endpoints()[0], out=out, mode="clip")  # expect[REP007]
    us, vs = network.edge_endpoints()
    values.take(vs)  # expect[REP007]
    np.take(values, us, mode="clip", out=out)  # expect[REP007]
    first = network.edge_endpoints()[1]
    return np.take(values, indices=first)  # expect[REP007]
