"""Clean kernel: exercises every pattern the effect checker inspects
without violating any contract — the analyzer must report nothing.

Covers: a declared-pure helper that really is pure, chunk-varying task
write keys (race-free under the hazard checker), complete read/write
declarations (E1-clean), safe ``out=`` usage into a distinct buffer
(E5-clean), and no module state (R6-clean).
"""
# effects: blocks x=x

import numpy as np

from repro.contracts import effects
from repro.parallel.sim import SimTask


@effects(pure=True)
def column_norm(x):
    return float(np.sqrt((x * x).sum()))


@effects(mutates=("out",))
def scaled_copy(x, alpha, out):
    np.multiply(x, alpha, out=out)
    return out


def emit_level(tasks, led, x, lv, chunks):
    for ci in range(chunks):
        lo = ci * 4
        x[lo : lo + 4] = 0.0
        tasks.append(
            SimTask(
                tid=len(tasks),
                ledger=led,
                reads=[("x", lv - 1, ci)],
                writes=[("x", lv, ci)],
            )
        )
