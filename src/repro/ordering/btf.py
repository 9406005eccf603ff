"""Block triangular form.

The coarse level of Basker's hierarchy (paper §III-A): permute the
matrix with an MWCM so the diagonal is zero-free with large entries,
then find the strongly connected components of the resulting directed
graph; ordering vertices by component yields a block *upper* triangular
matrix whose diagonal blocks are the irreducible components.  Only the
diagonal blocks need factoring, which is why circuit matrices can have
fill-in density below 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..contracts import domains
from ..errors import StructureError
from ..obs.tracer import get_tracer
from ..graph.matching import mwcm_row_permutation
from ..graph.scc import scc_of_matrix
from ..sparse.csc import CSC
from .perm import compose

__all__ = ["BTFResult", "btf"]


@dataclass
class BTFResult:
    """Result of the BTF ordering.

    ``A.permute(row_perm, col_perm)`` is block upper triangular with
    square diagonal blocks delimited by ``block_splits`` (length
    ``n_blocks + 1``).  ``row_perm`` already includes the MWCM matching,
    so every diagonal entry of the permuted matrix is structurally
    nonzero when the matrix is structurally nonsingular.
    """

    row_perm: np.ndarray
    col_perm: np.ndarray
    block_splits: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.block_splits) - 1

    def block_sizes(self) -> np.ndarray:
        return np.diff(self.block_splits)

    @property
    def largest_block(self) -> int:
        sizes = self.block_sizes()
        return int(sizes.max()) if sizes.size else 0

    def btf_percent(self, small_cutoff: int) -> float:
        """Percent of matrix rows in blocks of size <= ``small_cutoff``.

        This is the "BTF %" column of Table I: the fraction of the
        matrix covered by the many tiny independent subblocks (the fine
        BTF structure), as opposed to the large irreducible blocks that
        need the fine-ND treatment.
        """
        sizes = self.block_sizes()
        n = int(self.block_splits[-1])
        if n == 0:
            return 0.0
        small = int(sizes[sizes <= small_cutoff].sum())
        return 100.0 * small / n


@domains(A="matrix[global]")
def btf(A: CSC) -> BTFResult:
    """Compute the block triangular form of a square matrix.

    The bottleneck MWCM (the paper's Pm1) is applied first, so the
    permuted diagonal is zero-free with large entries.
    """
    tr = get_tracer()
    with tr.span("order.btf") as sp:
        res = _btf_impl(A)
        if tr.enabled:
            sp.set(n_blocks=res.n_blocks, largest_block=res.largest_block)
            tr.metrics.set_gauge("btf.n_blocks", res.n_blocks)
            tr.metrics.set_gauge("btf.largest_block", res.largest_block)
    return res


@domains(A="matrix[global]")
def _btf_impl(A: CSC) -> BTFResult:
    if A.n_rows != A.n_cols:
        raise StructureError("BTF requires a square matrix")
    n = A.n_rows
    if n == 0:
        return BTFResult(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )

    pm = mwcm_row_permutation(A)
    A1 = A.permute(row_perm=pm)

    n_comp, comp, order = scc_of_matrix(A1)

    row_perm = compose(pm, order)  # domain: perm[global->btf]
    col_perm = order  # domain: perm[global->btf]

    # Block boundaries: components are contiguous in `order`.
    sizes = np.bincount(comp, minlength=n_comp)
    splits = np.zeros(n_comp + 1, dtype=np.int64)
    splits[1:] = np.cumsum(sizes)
    return BTFResult(row_perm, col_perm, splits)
