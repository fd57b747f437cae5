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
