"""Graph kernels: SCC, bipartite matching, elimination trees, reach DFS."""

from .dfs import ReachWorkspace, topo_reach
from .etree import etree, postorder, symbolic_cholesky_counts, symmetric_pattern
from .matching import max_cardinality_matching, mwcm, mwcm_row_permutation
from .scc import scc_of_matrix, tarjan_scc

__all__ = [
    "ReachWorkspace",
    "topo_reach",
    "etree",
    "postorder",
    "symbolic_cholesky_counts",
    "symmetric_pattern",
    "max_cardinality_matching",
    "mwcm",
    "mwcm_row_permutation",
    "scc_of_matrix",
    "tarjan_scc",
]
