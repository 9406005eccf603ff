"""Permutation utilities.

Conventions used throughout the package (matching :meth:`CSC.permute`):
a permutation ``p`` maps *new* positions to *old* ones, i.e. applying
``p`` produces ``B[i] = x[p[i]]`` (NumPy fancy indexing).

>>> import numpy as np
>>> p = np.array([2, 0, 1])               # new position i takes old x[p[i]]
>>> np.array([10, 20, 30])[p].tolist()
[30, 10, 20]

Because of the reordering stack (BTF, ND, per-block AMD, pivoting),
every permutation also carries an *index domain* ``perm[A->B]``: it
turns a space-``A`` vector into a space-``B`` vector.  The ``@domains``
declarations below are checked statically by
``repro.analysis.domains`` (see ``docs/API.md``).
"""

from __future__ import annotations

import numpy as np

from ..contracts import domains, effects
from ..errors import StructureError

__all__ = ["invert", "compose", "is_permutation", "identity", "apply_to_vector", "random_permutation"]


# NOTE: no @domains here — `identity` collides with `CSC.identity`,
# and the call-site matcher is name-based.
def identity(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


@domains(p="perm[A->B]", returns="perm[B->A]")
@effects(pure=True)
def invert(p: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``invert(p)[p[i]] == i``.

    >>> import numpy as np
    >>> invert(np.array([2, 0, 1])).tolist()
    [1, 2, 0]
    >>> p = np.array([2, 0, 1])
    >>> x = np.array([10, 20, 30])
    >>> x[p][invert(p)].tolist()          # invert undoes the reordering
    [10, 20, 30]
    """
    p = np.asarray(p, dtype=np.int64)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size, dtype=np.int64)
    return inv


@domains(p="perm[A->B]", q="perm[B->C]", returns="perm[A->C]")
@effects(pure=True)
def compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The permutation equivalent to applying ``p`` first, then ``q``.

    If ``y = x[p]`` and ``z = y[q]`` then ``z = x[compose(p, q)]``,
    i.e. ``compose(p, q) = p[q]``.

    >>> import numpy as np
    >>> p = np.array([2, 0, 1]); q = np.array([1, 2, 0])
    >>> x = np.array([10.0, 20.0, 30.0])
    >>> bool(np.array_equal(x[p][q], x[compose(p, q)]))
    True
    """
    p = np.asarray(p, dtype=np.int64)
    q = np.asarray(q, dtype=np.int64)
    if p.size != q.size:
        raise StructureError("size mismatch")
    return p[q]


@domains(p="perm[A->B]")
@effects(pure=True)
def is_permutation(p) -> bool:
    """True if ``p`` is a permutation of ``0..len(p)-1``.

    >>> import numpy as np
    >>> is_permutation(np.array([2, 0, 1]))
    True
    >>> is_permutation(np.array([2, 0, 2]))
    False
    """
    p = np.asarray(p)
    if p.ndim != 1:
        return False
    if p.size == 0:
        return True
    if not np.issubdtype(p.dtype, np.integer):
        return False
    if int(p.min()) < 0 or int(p.max()) >= p.size:
        return False
    return bool((np.bincount(p, minlength=p.size) == 1).all())


@domains(p="perm[A->B]", x="vec[A]", returns="vec[B]")
@effects(pure=True)
def apply_to_vector(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``y[i] = x[p[i]]``."""
    return np.asarray(x)[np.asarray(p, dtype=np.int64)]


@domains(returns="perm[S->S]")
def random_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(n).astype(np.int64)
