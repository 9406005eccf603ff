"""Fixture of the deleted static S1 rule: a gather one past the end.
``np.arange(len(x) + 1)`` has maximum value ``len(x)``, so ``x[idx]``
reads one past the end and numpy raises ``IndexError``; the shape
checker reports nothing."""

import numpy as np

from repro.contracts import shapes


@shapes(x="f8[n]")
def off_by_one_gather(x):
    idx = np.arange(len(x) + 1)
    return x[idx]
