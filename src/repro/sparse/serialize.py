"""Save/load CSC matrices as versioned ``.npz`` archives."""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from .csc import CSC

__all__ = ["save_csc", "load_csc"]

_FORMAT_VERSION = 1


def save_csc(A: CSC, path: Union[str, Path]) -> None:
    """Write one CSC matrix to a ``.npz`` archive."""
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        shape=np.asarray(A.shape, dtype=np.int64),
        indptr=A.indptr,
        indices=A.indices,
        data=A.data,
    )


def load_csc(path: Union[str, Path]) -> CSC:
    with np.load(path) as z:
        if int(z["version"]) != _FORMAT_VERSION:
            raise ValueError(f"unsupported archive version {int(z['version'])}")
        n_rows, n_cols = (int(v) for v in z["shape"])
        return CSC(n_rows, n_cols, z["indptr"].copy(), z["indices"].copy(), z["data"].copy())
