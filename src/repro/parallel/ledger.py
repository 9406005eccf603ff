"""Cost ledgers: the currency of the performance model.

Real Basker is timed with wall clocks on real cores; a pure-Python
reproduction cannot be (the GIL serializes threads and Python's
interpreter overhead bears no relation to the C++ kernels).  Instead,
every numeric kernel in this package *counts the work it does* —
multiply-adds in sparse and dense kernels, symbolic DFS edge
traversals, words of memory traffic, columns processed — into a
:class:`CostLedger`.  A :class:`~repro.parallel.machine.MachineModel`
then converts a ledger into seconds for a given architecture.

Because the factorizations are executed exactly, the ledgers are exact
operation counts of the algorithms the paper describes, not estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["CostLedger"]


@dataclass
class CostLedger:
    """Operation counts accumulated by a kernel or a task.

    Attributes
    ----------
    sparse_flops
        Multiply-add operations performed through indexed/scattered
        access (Gilbert–Peierls updates, sparse mat-vec, reductions).
    dense_flops
        Multiply-adds performed in dense panels (supernodal kernels,
        BLAS-able work).  Machine models price these far cheaper per
        op — that asymmetry is what makes supernodal solvers win on
        high fill-in matrices and lose on low fill-in ones.
    dfs_steps
        Symbolic work: edges traversed during reach/DFS pattern
        discovery and ordering.
    mem_words
        Words moved for copies/scatter-gather beyond the flops above
        (factor copies, block assembly).
    columns
        Columns processed (per-column constant overhead: loop setup,
        pivot search bookkeeping).
    """

    sparse_flops: float = 0.0
    dense_flops: float = 0.0
    dfs_steps: float = 0.0
    mem_words: float = 0.0
    columns: float = 0.0

    def add(self, other: "CostLedger") -> "CostLedger":
        if not isinstance(other, CostLedger):
            raise TypeError(
                f"can only add a CostLedger to a CostLedger, not {type(other).__name__}"
            )
        # Field by field, not through fields(): ledgers are added once per
        # block of every refactorization step.
        self.sparse_flops += other.sparse_flops
        self.dense_flops += other.dense_flops
        self.dfs_steps += other.dfs_steps
        self.mem_words += other.mem_words
        self.columns += other.columns
        return self

    def __iadd__(self, other: "CostLedger") -> "CostLedger":
        return self.add(other)

    def scaled(self, alpha: float) -> "CostLedger":
        alpha = float(alpha)
        if not (alpha >= 0.0):  # rejects negatives and NaN
            raise ValueError(f"ledger scale factor must be >= 0, got {alpha}")
        return CostLedger(**{f.name: getattr(self, f.name) * alpha for f in fields(self)})

    def copy(self) -> "CostLedger":
        return CostLedger(self.sparse_flops, self.dense_flops, self.dfs_steps,
                          self.mem_words, self.columns)

    @property
    def total_flops(self) -> float:
        return self.sparse_flops + self.dense_flops

    def is_empty(self) -> bool:
        return all(getattr(self, f.name) == 0.0 for f in fields(self))

    def __repr__(self) -> str:
        parts = [f"{f.name}={getattr(self, f.name):.3g}" for f in fields(self) if getattr(self, f.name)]
        return f"CostLedger({', '.join(parts)})"
