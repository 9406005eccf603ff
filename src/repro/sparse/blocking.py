"""Structure-aware detection of dense blocks in the predicted pattern.

The blocked first-time factorization (arXiv:2512.04389's idea applied
to the Gilbert–Peierls kernel) needs to know, *before* numeric work
starts, which region of the factor will be dense enough that a
contiguous numpy panel beats per-column scatter loops.  Basker's own
hierarchy (paper §IV) says where to look: the fill of a left-looking
LU concentrates in the trailing columns — the ND separator borders and
the final Schur complement — so the candidate region is a *dense tail*
``[k*, n)`` of the elimination order.

Detection is purely symbolic and pivot-free: the Cholesky column
counts of ``A + A.T`` (:func:`repro.graph.etree.symbolic_cholesky_counts`)
upper-bound the L pattern for any diagonal-preserving pivot sequence,
so the predicted density of the trailing ``m x m`` LU block is

    density(k) = (2 * sum_{j >= k} counts[j] - m) / m**2,   m = n - k.

:func:`detect_dense_tail` picks the largest tail whose predicted
density clears a threshold.  Correctness never depends on the choice:
the blocked kernel produces the same factors for *any* switch column
(the panel path is an exact reorganization of the reference update
order), so the threshold is purely a performance knob — which is also
what makes the parity tests in ``tests/test_blocking.py`` free to
randomize the switch point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import effects, shapes
from ..errors import StructureError
from ..graph.etree import etree, symbolic_cholesky_counts, symmetric_pattern
from .csc import CSC

__all__ = [
    "DensePlan",
    "detect_dense_tail",
    "predicted_tail_density",
    "DENSE_TAIL_THRESHOLD",
    "DENSE_TAIL_MIN_COLS",
    "DENSE_TAIL_MAX_WORDS",
]

# Predicted-density floor for switching to the dense panel.
DENSE_TAIL_THRESHOLD = 0.5
# Tails smaller than this stay on the scalar path (panel setup cost).
DENSE_TAIL_MIN_COLS = 16
# Cap on the gathered panel footprint (n * m float64 words).
DENSE_TAIL_MAX_WORDS = 1 << 24


@dataclass(frozen=True)
class DensePlan:
    """A symbolic blocking decision for one matrix pattern.

    ``switch`` is the first column of the dense tail (``switch == n``
    means no tail: the whole factorization stays on the scalar path).
    The pattern arrays are kept by reference so a cached plan can be
    revalidated against a fresh extraction of the same block
    (:meth:`matches`), mirroring the schedule cache-key discipline of
    :mod:`repro.sparse.schedule`.
    """

    n: int
    switch: int
    density: float          # predicted density of the chosen tail (0 if none)
    threshold: float
    min_cols: int
    indptr: np.ndarray      # pattern identity for cache revalidation
    indices: np.ndarray

    @property
    def tail_cols(self) -> int:
        return self.n - self.switch

    @property
    def has_tail(self) -> bool:
        return self.switch < self.n

    def matches(self, A: CSC) -> bool:
        """Does this plan describe ``A``'s pattern?  Object-identity
        fast path first; O(nnz) comparison otherwise."""
        if A.n_cols != self.n or A.indices.size != self.indices.size:
            return False
        if A.indptr is self.indptr and A.indices is self.indices:
            return True
        return bool(
            np.array_equal(A.indptr, self.indptr)
            and np.array_equal(A.indices, self.indices)
        )


@effects(pure=True)
def predicted_tail_density(counts: np.ndarray) -> np.ndarray:
    """Predicted LU density of every trailing block.

    ``counts`` are symbolic Cholesky column counts (diagonal included)
    of the symmetrized pattern; the returned ``density[k]`` estimates
    ``nnz(L[k:, k:] + U[k:, k:]) / (n - k)**2`` for the tail starting
    at column ``k`` (L and U^T share the counts, the diagonal is
    counted once).
    """
    n = counts.size
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    m = np.arange(n, 0, -1, dtype=np.float64)  # tail widths n-k
    tail_nnz = np.cumsum(counts[::-1].astype(np.float64))[::-1]
    return (2.0 * tail_nnz - m) / (m * m)


@effects(pure=True)
@shapes(A="csc[n,n]")
def detect_dense_tail(
    A: CSC,
    threshold: float = DENSE_TAIL_THRESHOLD,
    min_cols: int = DENSE_TAIL_MIN_COLS,
    max_words: int = DENSE_TAIL_MAX_WORDS,
) -> DensePlan:
    """Choose the dense-tail switch column for ``A``'s pattern.

    The largest tail whose predicted density clears ``threshold`` wins,
    subject to ``min_cols`` (shorter tails don't amortize the panel
    gather) and ``max_words`` (the gathered panel is ``n * m`` words;
    the switch moves right until it fits).  Pattern-only — values never
    matter, so one plan serves a whole fixed-pattern sequence.
    """
    n = A.n_cols
    if A.n_rows != n:
        raise StructureError("dense-tail detection requires a square matrix")
    switch = n
    density = 0.0
    if n >= min_cols and min_cols > 0:
        B = symmetric_pattern(A)
        parent = etree(B)
        counts = symbolic_cholesky_counts(B, parent)
        dens = predicted_tail_density(counts)
        # Largest tail (smallest k) that is predicted dense enough.
        ok = np.flatnonzero(dens >= threshold)
        ok = ok[(n - ok) >= min_cols]
        if ok.size:
            switch = int(ok[0])
            # Panel footprint cap: shrink the tail until n*m fits.
            if max_words > 0:
                max_m = max(int(max_words // max(n, 1)), 0)
                if n - switch > max_m:
                    switch = n - max_m
            if n - switch < min_cols:
                switch = n
            else:
                density = float(dens[switch])
    return DensePlan(
        n=n,
        switch=switch,
        density=density,
        threshold=float(threshold),
        min_cols=int(min_cols),
        indptr=A.indptr,
        indices=A.indices,
    )
