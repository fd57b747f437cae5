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
