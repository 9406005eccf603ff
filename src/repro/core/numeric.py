"""Basker's parallel numeric factorization (Algorithm 4) and kernels.

The fine-ND numeric factorization works on the 2-D block structure of
Figure 3(a).  Following the dependency tree bottom-up:

* **leaf phase** (treelevel −1): every leaf diagonal block factors with
  Gilbert–Peierls (partial pivoting local to the block), then the lower
  off-diagonal blocks of its column sweep ``L_ki = A_ki U_ii^{-1}``;
* **separator passes** (slevel = 1..log2 p): for each separator column
  ``j``, the leaf-level upper blocks solve ``U_ij = L_ii^{-1} P_i
  A_ij``, intermediate separators reduce their column (``Â_mj = A_mj −
  Σ_s L_ms U_sj``) and solve through their own ``L_mm``, the diagonal
  block reduces and factors (the only serial bottleneck at the root),
  and remaining lower blocks ``L_kj = Â_kj U_jj^{-1}`` complete the
  column.

Pivoting scope follows the paper's fill-path argument (§III-C): a
diagonal block's row permutation only touches its own block *row* — the
already-computed ``L_k·`` blocks of other block rows are unaffected.
Concretely, right after node ``t`` factors we apply ``P_t`` to the
stored ``L_{t,s}`` blocks and to the not-yet-consumed ``A_{t,k}``
blocks, so every later operation on block row ``t`` lives in pivoted
space.

The paper executes this column-by-column with point-to-point syncs;
numerically, whole-block processing in dependency order computes the
same factors (within-block columns are sequential on their owning
thread either way), so this module processes blocks whole while
recording *per-column* sync counts on the reduction tasks for the
performance model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

# effects: blocks A=A Lb=L|LU Ub=U|LU
# effects: emitter builder em

from ..contracts import domains, effects
from ..errors import StructureError, TaskGraphError, ZeroPivotError
from ..graph.dfs import ReachGraph
from ..obs.tracer import NULL_TRACER, tracing
from ..parallel.ledger import CostLedger
from ..parallel.sim import SimTask
from ..sparse.blocks import BlockMatrix
from ..sparse.csc import CSC
from ..sparse.ops import matmat
from .structure import NDBlockPlan
from ..solvers.dense import DENSE_SEPARATOR_THRESHOLD, dense_lu_factor
from ..solvers.gp import GPResult, gp_factor

__all__ = [
    "TaskBuilder",
    "NDNumericBlock",
    "lower_offdiag_solve",
    "upper_offdiag_solve",
    "factor_nd_block",
]


class TaskBuilder:
    """Accumulates the simulation task DAG during factorization.

    Every task declares its *read-set* and *write-set* of logical block
    keys (``("A", b, r, c)``, ``("LU", b, t)``, ``("L", b, r, c)``,
    ``("U", b, r, c)``, ``("P", b, r, c, s)``, ``("R", b, r, c)``).
    The sets are inert at runtime; :mod:`repro.analysis.hazards`
    cross-checks them against ``deps`` + per-thread program order to
    prove the point-to-point synchronization is sufficient.
    """

    def __init__(self) -> None:
        self.tasks: List[SimTask] = []
        self._by_key: Dict[tuple, int] = {}

    def add(
        self,
        key: tuple,
        ledger: CostLedger,
        deps: List[tuple],
        thread: Optional[int],
        working_set: float = 0.0,
        p2p_syncs: int = 0,
        barriers: int = 0,
        reads: List[tuple] = (),
        writes: List[tuple] = (),
    ) -> int:
        if key in self._by_key:
            raise TaskGraphError(f"duplicate task key {key}")
        tid = len(self.tasks)
        dep_ids = [self._by_key[d] for d in deps if d in self._by_key]
        self.tasks.append(
            SimTask(
                tid=tid,
                ledger=ledger,
                deps=dep_ids,
                thread=thread,
                working_set=working_set,
                p2p_syncs=p2p_syncs,
                barriers=barriers,
                label="/".join(str(k) for k in key),
                reads=tuple(reads),
                writes=tuple(writes),
            )
        )
        self._by_key[key] = tid
        return tid

    def has(self, key: tuple) -> bool:
        return key in self._by_key

    def add_alias(self, key: tuple, target: tuple) -> None:
        """Let ``key`` resolve to an already-added task (pipeline mode:
        a logical block task aliases its final column chunk)."""
        if key in self._by_key:
            raise TaskGraphError(f"alias would shadow existing task {key}")
        self._by_key[key] = self._by_key[target]

    def labels(self) -> Dict[int, str]:
        return {t.tid: t.label for t in self.tasks}


class _PassEmitter:
    """Task emission for one separator-column pass.

    With ``chunk=None`` every logical block task becomes one SimTask
    (block-granular scheduling).  With a chunk size, each task is split
    into per-column-range subtasks whose *internal* dependencies connect
    chunk-to-chunk — the paper's per-column pipeline: while the diagonal
    factorization works on columns [c, c+chunk), the reductions for the
    next chunk proceed on other threads.  Costs are apportioned to
    chunks by the realized nnz of the task's output columns.

    Read/write declarations distinguish four access classes so the
    hazard analysis stays exact under pipelining:

    * ``reads`` — whole blocks from *earlier* passes (every chunk reads
      all of them);
    * ``chunk_reads`` — blocks produced *within this pass*, which are
      column-partitioned: chunk ``k`` only touches columns ``[k*c,
      (k+1)*c)``, so the key is refined with ``("c", k)``;
    * ``writes`` — this task's column-partitioned output (refined per
      chunk the same way);
    * ``final_writes`` — whole-block side effects that happen once the
      logical task completes (the diagonal factorization's pivot
      permutation of its block row); they attach to the last chunk.

    A refined key ``base + ("c", k)`` denotes a sub-resource of
    ``base``: it conflicts with the whole block and with the same chunk
    of it, but not with sibling chunks (disjoint column ranges).
    """

    def __init__(self, builder: TaskBuilder, n_cols: int, chunk: Optional[int]):
        self.builder = builder
        self.n_cols = n_cols
        self.chunk = chunk
        self.recs: List[dict] = []

    def add(
        self,
        key: tuple,
        led: CostLedger,
        thread: int,
        working_set: float,
        internal: List[tuple] = (),
        external: List[tuple] = (),
        sync_per_col: int = 0,
        chain: bool = False,
        out: Optional[CSC] = None,
        reads: List[tuple] = (),
        chunk_reads: List[tuple] = (),
        writes: List[tuple] = (),
        final_writes: List[tuple] = (),
    ) -> None:
        if not self.chunk:
            self.builder.add(
                key, led, deps=list(internal) + list(external), thread=thread,
                working_set=working_set, p2p_syncs=sync_per_col * self.n_cols,
                reads=list(reads) + list(chunk_reads),
                writes=list(writes) + list(final_writes),
            )
            return
        self.recs.append(
            dict(key=key, led=led, thread=thread, ws=working_set,
                 internal=list(internal), external=list(external),
                 sync_per_col=sync_per_col, chain=chain, out=out,
                 reads=list(reads), chunk_reads=list(chunk_reads),
                 writes=list(writes), final_writes=list(final_writes))
        )

    def flush(self) -> None:
        if not self.chunk or not self.recs:
            self.recs = []
            return
        n, c = self.n_cols, self.chunk
        K = max(1, -(-n // c))
        bounds = [(k * c, min((k + 1) * c, n)) for k in range(K)]
        for rec in self.recs:  # insertion order is pass-topological
            out = rec["out"]
            if out is not None and out.n_cols == n and out.nnz > 0:
                weights = [
                    float(out.indptr[hi] - out.indptr[lo]) for lo, hi in bounds
                ]
            else:
                weights = [float(hi - lo) for lo, hi in bounds]
            tot = sum(weights) or float(K)
            weights = [w / tot for w in weights]
            for k, (lo, hi) in enumerate(bounds):
                deps = [d + ("c", k) for d in rec["internal"]] + list(rec["external"])
                if rec["chain"] and k > 0:
                    deps.append(rec["key"] + ("c", k - 1))
                reads = list(rec["reads"]) + [r + ("c", k) for r in rec["chunk_reads"]]
                writes = [w + ("c", k) for w in rec["writes"]]
                if k == K - 1:
                    writes += list(rec["final_writes"])
                self.builder.add(
                    rec["key"] + ("c", k),
                    rec["led"].scaled(weights[k]),
                    deps=deps,
                    thread=rec["thread"],
                    working_set=rec["ws"],
                    p2p_syncs=rec["sync_per_col"] * (hi - lo),
                    reads=reads,
                    writes=writes,
                )
            self.builder.add_alias(rec["key"], rec["key"] + ("c", K - 1))
        self.recs = []


# ----------------------------------------------------------------------
# Numeric kernels
# ----------------------------------------------------------------------


@domains(A_ki="matrix[local:block]", U_ii="matrix[local:block]",
         returns="matrix[local:block]")
@effects(mutates=("ledger",))
def lower_offdiag_solve(A_ki: CSC, U_ii: CSC, ledger: CostLedger) -> CSC:
    """Solve ``X @ U_ii = A_ki`` for the lower off-diagonal block.

    Column sweep: ``X(:,c) = (A(:,c) − Σ_{t<c, U(t,c)≠0} X(:,t) U(t,c))
    / U(c,c)``.  This is the "nonzero pattern discovered by parallel
    sparse matrix-vector multiplication" step of the leaf phase
    (Algorithm 4, line 5).  Column ``c`` needs the finished columns
    ``t < c``, so the sweep stays sequential; it runs over Python lists
    (one ``tolist`` per operand array).
    """
    m, n = A_ki.shape
    if U_ii.shape != (n, n):
        raise StructureError(
            f"lower off-diagonal solve: A is {m}x{n} but U is "
            f"{U_ii.n_rows}x{U_ii.n_cols}"
        )
    Ap, Ai, Ax = A_ki.indptr.tolist(), A_ki.indices.tolist(), A_ki.data.tolist()
    Up, Ui, Ux = U_ii.indptr.tolist(), U_ii.indices.tolist(), U_ii.data.tolist()
    work = [0.0] * m
    mark = [-1] * m
    xrows: List[List[int]] = []
    xvals: List[List[float]] = []
    flops = 0
    for c in range(n):
        pattern = Ai[Ap[c]:Ap[c + 1]]
        for p in range(Ap[c], Ap[c + 1]):
            mark[Ai[p]] = c
            work[Ai[p]] = Ax[p]
        udiag = 0.0
        for p in range(Up[c], Up[c + 1]):
            t = Ui[p]
            if t >= c:
                if t == c:
                    udiag = Ux[p]
                continue
            uv = Ux[p]
            xr = xrows[t]
            flops += len(xr)
            for i, xv in zip(xr, xvals[t]):
                if mark[i] != c:
                    mark[i] = c
                    work[i] = 0.0
                    pattern.append(i)
                work[i] -= xv * uv
        if pattern and udiag == 0.0:
            raise ZeroPivotError(
                f"zero diagonal U({c},{c}) in lower off-diagonal solve", column=c
            )
        pattern.sort()
        xrows.append(pattern)
        xvals.append([work[i] / udiag for i in pattern])
        flops += len(pattern)
    return _from_columns(m, xrows, xvals, ledger, flops)


@domains(L_ii="matrix[local:block]", A_ij="matrix[local:block]",
         returns="matrix[local:block]")
@effects(mutates=("graph", "ledger"))
def upper_offdiag_solve(
    L_ii: CSC, A_ij: CSC, graph: ReachGraph, ledger: CostLedger
) -> CSC:
    """Solve ``L_ii @ X = A_ij`` (rows of A already in pivoted order).

    Per-column Gilbert–Peierls backsolve: reach DFS over the completed
    ``L_ii`` graph for the pattern, then the sparse triangular solve in
    topological order (Algorithm 4, lines 14/20).  ``graph`` is
    ``ReachGraph.from_csc(L_ii)``, built once per ND node (its stamps
    and reach buffer are scratch); the numeric sweep runs over Python
    lists.
    """
    n_i = L_ii.n_cols
    m, n = A_ij.shape
    if L_ii.n_rows != n_i or m != n_i or len(graph.cols) != n_i:
        raise StructureError(
            f"upper off-diagonal solve: L is {L_ii.n_rows}x{n_i} with a "
            f"{len(graph.cols)}-column reach graph but A has {m} rows"
        )
    Ap, Ai, Ax = A_ij.indptr.tolist(), A_ij.indices.tolist(), A_ij.data.tolist()
    Lp, Lx = L_ii.indptr.tolist(), L_ii.data.tolist()
    cols, xi = graph.cols, graph.xi
    ident = range(n_i)  # L_ii is fully built: every row is its own pivot
    x = [0.0] * n_i
    out_rows: List[List[int]] = []
    out_vals: List[List[float]] = []
    flops = steps_total = 0
    for c in range(n):
        lo, hi = Ap[c], Ap[c + 1]
        if lo == hi:
            out_rows.append([])
            out_vals.append([])
            continue
        arows = Ai[lo:hi]
        graph.next_stamp()
        top, steps = graph.reach(arows, ident)
        steps_total += steps + hi - lo
        pat = xi[top:n_i]
        for j in pat:
            x[j] = 0.0
        for p in range(lo, hi):
            x[Ai[p]] = Ax[p]
        for j in pat:
            rows = cols[j]  # first entry is the unit pivot
            flops += len(rows) - 1  # counted by pattern, zero source or not
            xj = x[j]
            if xj == 0.0:
                continue
            base = Lp[j]
            for q in range(1, len(rows)):
                x[rows[q]] -= Lx[base + q] * xj
        pat.sort()
        out_rows.append(pat)
        out_vals.append([x[i] for i in pat])
    ledger.dfs_steps += steps_total
    return _from_columns(n_i, out_rows, out_vals, ledger, flops)


def _from_columns(
    m: int, rows: List[List[int]], vals: List[List[float]],
    ledger: CostLedger, flops: int,
) -> CSC:
    """Assemble an off-diagonal solve's output columns and book its
    ledger: the flops, one column per nonempty output column and one
    word per stored entry."""
    counts = [len(r) for r in rows]
    nnz = sum(counts)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=nnz)
    data = np.fromiter(itertools.chain.from_iterable(vals), dtype=np.float64, count=nnz)
    ledger.sparse_flops += flops
    ledger.columns += sum(1 for k in counts if k)
    ledger.mem_words += nnz
    return CSC(m, len(rows), indptr, indices, data)


@domains(L_ms="matrix[local:block]", U_sj="matrix[local:block]",
         returns="matrix[local:block]")
@effects(mutates=("ledger",))
def sparse_product(L_ms: CSC, U_sj: CSC, ledger: CostLedger) -> CSC:
    """Column-accumulated sparse product ``L_ms @ U_sj``.

    One contributing thread's share of a reduction: the "multiple
    parallel sparse matrix-vector multiplication" phase of Figure 4(d).
    Flops count ``|L(:, s)|`` for every stored ``U(s, c)``, zero or not
    (the pattern rule of every GP kernel here); an exactly zero ``U``
    entry still adds no terms, so it stores nothing in the product.
    The rest is :func:`~repro.sparse.ops.matmat`.
    """
    stored = U_sj.indices
    keep = U_sj.data != 0.0
    if not keep.all():
        kept = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        U_sj = CSC(U_sj.n_rows, U_sj.n_cols, kept[U_sj.indptr],
                   U_sj.indices[keep], U_sj.data[keep])
    P = matmat(L_ms, U_sj)
    ledger.sparse_flops += int(np.diff(L_ms.indptr)[stored].sum())
    ledger.columns += int(np.count_nonzero(np.diff(P.indptr)))
    ledger.mem_words += P.nnz
    return P


@domains(A_mj="matrix[local:block]", returns="matrix[local:block]")
@effects(mutates=("ledger",))
def subtract_products(A_mj: CSC, prods: List[CSC], ledger: CostLedger) -> CSC:
    """``Â = A − Σ prods``: the combine phase of the reduction.

    Pure scatter-add traffic (no multiplies) — cheap relative to the
    product phase, which is why distributing the products pays off.
    Each entry is ``((A − P₁) − P₂) − …`` in product order: the union
    pattern is keyed by (column, row), ``A`` seeds its entries and
    ``np.subtract.at`` applies the products' entries in input order.
    """
    m, n = A_mj.shape
    for P in prods:
        if P.shape != (m, n):
            raise StructureError(
                f"reduction combine: a {P.n_rows}x{P.n_cols} product "
                f"against a {m}x{n} block"
            )
    ledger.mem_words += sum(P.nnz for P in prods)
    if not prods:
        return A_mj.copy()
    mats = [A_mj] + list(prods)
    keys = np.concatenate([
        np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr)) * m + M.indices
        for M in mats
    ])
    uk, inv = np.unique(keys, return_inverse=True)
    data = np.zeros(uk.size, dtype=np.float64)
    data[inv[:A_mj.nnz]] = A_mj.data
    np.subtract.at(data, inv[A_mj.nnz:], np.concatenate([P.data for P in prods]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(uk // m, minlength=n), out=indptr[1:])
    return CSC(m, n, indptr, uk % m, data)


# ----------------------------------------------------------------------
# Fine-ND numeric factorization (Algorithm 4)
# ----------------------------------------------------------------------


@dataclass
class NDNumericBlock:
    """Factors of one fine-ND block.

    ``L``/``U`` are the assembled block-local factors satisfying
    ``D[piv][:, :] = L @ U`` where ``D`` is the (already ND-ordered)
    block and ``piv`` the concatenated per-node pivot permutation.
    """

    plan: NDBlockPlan
    L: CSC
    U: CSC
    piv: np.ndarray
    L_blocks: Dict[Tuple[int, int], CSC]
    U_blocks: Dict[Tuple[int, int], CSC]
    node_piv: Dict[int, np.ndarray]
    ledger: CostLedger
    # Work in ``ledger`` that belongs to no task (final factor assembly)
    # — the conservation checker needs it to balance the books:
    # sum(task ledgers) + overhead == ledger.
    overhead: CostLedger = field(default_factory=CostLedger)

    @property
    def factor_nnz(self) -> int:
        # Unit diagonal of L not double counted with U's diagonal.
        return self.L.nnz + self.U.nnz - self.L.n_cols

    def offdiag_nnz(self, key: Tuple[int, int]) -> int:
        blk = self.L_blocks.get(key) or self.U_blocks.get(key)
        return blk.nnz if blk is not None else 0


def _ws_bytes(*mats: CSC) -> float:
    return sum(12.0 * m.nnz + 8.0 * m.n_cols for m in mats if m is not None)


@domains(D="matrix[nd]")
def factor_nd_block(
    D: CSC,
    plan: NDBlockPlan,
    builder: TaskBuilder,
    pivot_tol: float,
    static_perturb: float = 0.0,
    supernodal_separators: bool = False,
    pipeline_columns: Optional[int] = None,
) -> NDNumericBlock:
    """Run Algorithm 4 on one ND-ordered block, emitting tasks.

    ``supernodal_separators`` enables the paper's future-work extension
    (§VI): separator diagonal blocks whose reduced fill density exceeds
    :data:`~repro.solvers.dense.DENSE_SEPARATOR_THRESHOLD` are factored
    with a dense partial-pivoting kernel (cheap ``dense_flops``) instead
    of Gilbert-Peierls.

    ``pipeline_columns`` switches the separator passes to per-column
    pipelined task emission (chunks of that many columns) — the paper's
    actual execution granularity; ``None`` keeps whole-block tasks.
    """
    part = plan.partition
    b = plan.block_id
    ranges = {t: part.node_range(t) for t in range(part.n_nodes)}
    sizes = {t: ranges[t][1] - ranges[t][0] for t in range(part.n_nodes)}

    # Extract the 2-D blocks (only ancestor-related pairs can be nonzero;
    # the separator property guarantees the rest are empty).
    A: Dict[Tuple[int, int], CSC] = {}
    for t in range(part.n_nodes):
        A[(t, t)] = D.submatrix(*ranges[t], *ranges[t])
        for k in part.ancestors(t):
            A[(k, t)] = D.submatrix(*ranges[k], *ranges[t])
            A[(t, k)] = D.submatrix(*ranges[t], *ranges[k])

    Lb: Dict[Tuple[int, int], CSC] = {}
    Ub: Dict[Tuple[int, int], CSC] = {}
    node_piv: Dict[int, np.ndarray] = {}
    total = CostLedger()
    graphs: Dict[int, ReachGraph] = {}

    def reach_graph(node: int) -> ReachGraph:
        # L_{node,node} is final once built: later pivots permute only
        # the off-diagonal L blocks of their own block row.
        if node not in graphs:
            graphs[node] = ReachGraph.from_csc(Lb[(node, node)])
        return graphs[node]

    def subtree_of(j: int) -> List[int]:
        return [s for s in range(part.n_nodes) if j in part.ancestors(s)]

    # ---------------- leaf phase (treelevel -1) ----------------
    for i in part.leaves():
        if sizes[i] == 0:
            node_piv[i] = np.empty(0, dtype=np.int64)
            continue
        led = CostLedger()
        # Span-free: the caller's numeric.gp.nd span carries this
        # block's cost inside nd.ledger, so letting gp_factor emit its
        # panel child span here would double-count it under the tree
        # conservation check.
        with tracing(NULL_TRACER):
            lu = gp_factor(A[(i, i)], pivot_tol=pivot_tol, static_perturb=static_perturb, ledger=led)
        Lb[(i, i)], Ub[(i, i)] = lu.L, lu.U
        node_piv[i] = lu.row_perm
        total.add(led)
        # The leaf task also applies its pivot permutation to block row
        # i (the A_ik below), so those blocks are in its write-set.
        row_i = [("A", b, i, k) for k in part.ancestors(i) if A[(i, k)].nnz]
        builder.add(
            ("leaf", b, i), led, deps=[], thread=plan.owner_thread[i],
            working_set=_ws_bytes(lu.L, lu.U),
            reads=[("A", b, i, i)] + row_i,
            writes=[("LU", b, i)] + row_i,
        )
        # Move block row i into pivoted space for the later U_ik solves.
        for k in part.ancestors(i):
            if A[(i, k)].nnz:
                A[(i, k)] = A[(i, k)].permute(row_perm=lu.row_perm)
        # Lower off-diagonal column sweep (line 5).
        for k in part.ancestors(i):
            if sizes[k] == 0:
                continue
            led2 = CostLedger()
            Lki = lower_offdiag_solve(A[(k, i)], Ub[(i, i)], led2)
            if Lki.nnz:
                Lb[(k, i)] = Lki
            total.add(led2)
            builder.add(
                ("lowoff", b, k, i), led2, deps=[("leaf", b, i)],
                thread=plan.owner_thread[i],
                working_set=_ws_bytes(Lki, Ub[(i, i)]),
                reads=[("A", b, k, i), ("LU", b, i)],
                writes=[("L", b, k, i)],
            )

    # ---------------- separator passes (slevel = 1..log2 p) ----------------
    seps = sorted(
        (t for t in range(part.n_nodes) if not part.nodes[t].is_leaf),
        key=lambda t: (part.nodes[t].height, t),
    )
    for j in seps:
        n_j = sizes[j]
        if n_j == 0:
            node_piv[j] = np.empty(0, dtype=np.int64)
            continue
        T = subtree_of(j)
        T_leaves = [s for s in T if part.nodes[s].is_leaf and sizes[s] > 0]
        T_seps = sorted(
            (s for s in T if not part.nodes[s].is_leaf and sizes[s] > 0),
            key=lambda t: (part.nodes[t].height, t),
        )
        em = _PassEmitter(builder, n_j, pipeline_columns)

        # treelevel 0: leaf-row upper blocks U_ij (line 14).
        for i in T_leaves:
            if A[(i, j)].nnz == 0:
                continue
            led = CostLedger()
            Uij = upper_offdiag_solve(Lb[(i, i)], A[(i, j)], reach_graph(i), led)
            if Uij.nnz:
                Ub[(i, j)] = Uij
            total.add(led)
            em.add(
                ("upoff", b, i, j), led,
                external=[("leaf", b, i)],
                thread=plan.owner_thread[i],
                working_set=_ws_bytes(Uij, Lb[(i, i)]),
                out=Uij,
                reads=[("A", b, i, j), ("LU", b, i)],
                writes=[("U", b, i, j)],
            )

        def contrib_list(row_block: int, col_block: int, members: List[int]):
            """Per-contributor (s, L, U, internal/external deps)."""
            out = []
            for s in members:
                L_rs = Lb.get((row_block, s))
                U_sc = Ub.get((s, col_block))
                if L_rs is not None and U_sc is not None and L_rs.nnz and U_sc.nnz:
                    if part.nodes[s].is_leaf:
                        internal = [("upoff", b, s, col_block)]
                        external = [("lowoff", b, row_block, s)]
                    else:
                        # U_sj is produced in this pass; L_{row,s} in
                        # an earlier pass (column block s).
                        internal = [("usep", b, s, col_block)]
                        external = [("lowsep", b, row_block, s)]
                    out.append((s, L_rs, U_sc, internal, external))
            return out

        def distributed_reduce(row_block: int, col_block: int, members: List[int]):
            """Two-phase reduction per Figure 4(d): each contributing
            thread computes its own L_rs @ U_sc product; the owning
            thread combines with per-column point-to-point syncs.

            Emits the product tasks and the ("reduce", b, row, col)
            combine task; returns the reduced block.

            If ``row_block`` is a separator whose diagonal already
            factored (an earlier pass), its pivot permutation rewrote
            the stored ``L_{row,s}`` blocks and ``A_{row,col}`` — the
            reduction must be ordered after it, so ("diagfac", b,
            row_block) joins the external dependencies.
            """
            contribs = contrib_list(row_block, col_block, members)
            row_done = (
                [("diagfac", b, row_block)]
                if builder.has(("diagfac", b, row_block)) else []
            )
            prods = []
            part_keys = []
            for s, L_rs, U_sc, internal, external in contribs:
                pled = CostLedger()
                P = sparse_product(L_rs, U_sc, pled)
                prods.append(P)
                total.add(pled)
                key = ("rpart", b, row_block, col_block, s)
                em.add(
                    key, pled, internal=internal, external=external + row_done,
                    thread=plan.owner_thread[s],
                    working_set=_ws_bytes(P, L_rs),
                    out=P,
                    reads=[("L", b, row_block, s)],
                    chunk_reads=[("U", b, s, col_block)],
                    writes=[("P", b, row_block, col_block, s)],
                )
                part_keys.append(key)
            cled = CostLedger()
            Ahat = subtract_products(A[(row_block, col_block)], prods, cled)
            total.add(cled)
            em.add(
                ("reduce", b, row_block, col_block), cled,
                internal=part_keys, external=row_done,
                thread=plan.owner_thread[row_block],
                working_set=_ws_bytes(Ahat),
                sync_per_col=2 if contribs else 0,
                out=Ahat,
                reads=[("A", b, row_block, col_block)],
                chunk_reads=[("P", b, row_block, col_block, s) for s, *_ in contribs],
                writes=[("R", b, row_block, col_block)],
            )
            return Ahat

        # treelevel 1..slevel-1: intermediate separators (lines 15-21).
        for m in T_seps:
            if A[(m, j)].nnz == 0 and all(
                Ub.get((s, j)) is None or Lb.get((m, s)) is None for s in subtree_of(m)
            ):
                continue
            Ahat = distributed_reduce(m, j, subtree_of(m))
            if Ahat.nnz == 0:
                continue
            led2 = CostLedger()
            Umj = upper_offdiag_solve(Lb[(m, m)], Ahat, reach_graph(m), led2)
            if Umj.nnz:
                Ub[(m, j)] = Umj
            total.add(led2)
            em.add(
                ("usep", b, m, j), led2,
                internal=[("reduce", b, m, j)],
                external=[("diagfac", b, m)],
                thread=plan.owner_thread[m],
                working_set=_ws_bytes(Umj, Lb[(m, m)]),
                out=Umj,
                reads=[("LU", b, m)],
                chunk_reads=[("R", b, m, j)],
                writes=[("U", b, m, j)],
            )

        # treelevel = slevel: reduce + factor the diagonal (lines 22-26).
        Ahat_jj = distributed_reduce(j, j, T)
        led2 = CostLedger()
        density = Ahat_jj.nnz / max(n_j * n_j, 1)
        if supernodal_separators and density > DENSE_SEPARATOR_THRESHOLD and n_j > 8:
            lu = dense_lu_factor(Ahat_jj, static_perturb=static_perturb, ledger=led2)
        else:
            # Span-free for the same ledger-conservation reason as the
            # leaf phase: nd.ledger is this block's inclusive leaf.
            with tracing(NULL_TRACER):
                lu = gp_factor(Ahat_jj, pivot_tol=pivot_tol, static_perturb=static_perturb, ledger=led2)
        Lb[(j, j)], Ub[(j, j)] = lu.L, lu.U
        node_piv[j] = lu.row_perm
        total.add(led2)
        # The pivot permutation below rewrites every stored block of
        # block row j, so the diagonal task (a) declares those blocks
        # as writes and (b) must be ordered *after* every earlier-pass
        # task that produced or read them (lowoff/lowsep wrote L_{j,s};
        # reduce-row-j tasks read L_{j,s} and A_{j,·}).  Without these
        # edges a p2p runtime could permute a block another thread is
        # still consuming.
        row_j = [("L", b, j, s) for s in T
                 if Lb.get((j, s)) is not None and Lb[(j, s)].nnz] + \
                [("A", b, j, k) for k in part.ancestors(j) if A[(j, k)].nnz]
        row_readers = [
            (fam, b, j, s) for s in T for fam in ("lowoff", "lowsep", "reduce")
            if builder.has((fam, b, j, s))
        ]
        em.add(
            ("diagfac", b, j), led2,
            internal=[("reduce", b, j, j)],
            external=row_readers,
            thread=plan.owner_thread[j], working_set=_ws_bytes(lu.L, lu.U),
            chain=True,   # left-looking: column chunk c needs chunk c-1
            out=lu.U,
            reads=row_j,
            chunk_reads=[("R", b, j, j)],
            writes=[("LU", b, j)],
            final_writes=row_j,
        )
        # Move block row j into pivoted space: stored L_{j,s} and the
        # unconsumed original blocks A_{j,k}.
        for s in T:
            blk = Lb.get((j, s))
            if blk is not None and blk.nnz:
                Lb[(j, s)] = blk.permute(row_perm=lu.row_perm)
        for k in part.ancestors(j):
            if A[(j, k)].nnz:
                A[(j, k)] = A[(j, k)].permute(row_perm=lu.row_perm)

        # Remaining lower off-diagonal blocks L_kj (line 28).
        threads = plan.subtree_threads[j]
        for idx, k in enumerate(part.ancestors(j)):
            if sizes[k] == 0:
                continue
            contribs = contrib_list(k, j, T)
            if A[(k, j)].nnz == 0 and not contribs:
                continue
            Ahat_kj = distributed_reduce(k, j, T)
            led3 = CostLedger()
            Lkj = lower_offdiag_solve(Ahat_kj, Ub[(j, j)], led3)
            if Lkj.nnz:
                Lb[(k, j)] = Lkj
            total.add(led3)
            em.add(
                ("lowsep", b, k, j), led3,
                internal=[("reduce", b, k, j), ("diagfac", b, j)],
                thread=threads[idx % len(threads)],
                working_set=_ws_bytes(Lkj, Ub[(j, j)]),
                out=Lkj,
                chunk_reads=[("R", b, k, j), ("LU", b, j)],
                writes=[("L", b, k, j)],
            )

        em.flush()

    # ---------------- assembly ----------------
    piv = np.arange(D.n_rows, dtype=np.int64)
    for t in range(part.n_nodes):
        lo, hi = ranges[t]
        if hi > lo:
            piv[lo:hi] = lo + node_piv[t]

    splits = part.splits
    Lbm = BlockMatrix(splits, splits)
    Ubm = BlockMatrix(splits, splits)
    for key, blk in Lb.items():
        if blk.nnz:
            Lbm.set(key[0], key[1], blk)
    for key, blk in Ub.items():
        if blk.nnz:
            Ubm.set(key[0], key[1], blk)
    L = Lbm.assemble()
    U = Ubm.assemble()
    overhead = CostLedger()
    overhead.mem_words += L.nnz + U.nnz
    total.add(overhead)
    return NDNumericBlock(
        plan=plan, L=L, U=U, piv=piv,
        L_blocks=Lb, U_blocks=Ub, node_piv=node_piv, ledger=total,
        overhead=overhead,
    )
