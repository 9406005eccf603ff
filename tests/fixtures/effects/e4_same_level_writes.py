"""Fixture of the deleted E4 loop rule: sibling tasks, one write set.

Every iteration of the chunk loop emits a task declaring the *same*
write key ``("x", lv)`` and no dependency, so the hazard checker
reports races among the emitted tasks.  The effect checker reports
nothing: the declared writes cover the region, so E1 holds.
"""
# effects: blocks x=x

from repro.parallel.sim import SimTask


def emit_levels(tasks, led, x, levels, chunks):
    for lv in range(levels):
        for ci in range(chunks):
            lo = ci * 4
            x[lo : lo + 4] = 0.0
            tasks.append(
                SimTask(tid=len(tasks), ledger=led, writes=[("x", lv)])
            )
