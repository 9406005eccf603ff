"""Direct vs iterative, and the parallel solve phase.

Two follow-ons to the factorization story:

1. why circuit simulators use *direct* solvers at all (the paper's
   ref. [21] premise): ILU-preconditioned GMRES is fragile and
   expensive on circuit Jacobians;
2. what the solve phase looks like when parallelized with level
   scheduling (the paper's ref. [18] technique).

Run:  python examples/solver_comparison.py
"""

import numpy as np

from repro import DirectSolver, SANDY_BRIDGE, available_solvers, solve_residual
from repro.core import parallel_lower_solve
from repro.errors import SingularMatrixError
from repro.graph.matching import mwcm_row_permutation
from repro.iterative import ILU0Preconditioner, gmres
from repro.sparse.schedule import triangular_schedule
from repro.xyce import matrix_sequence, xyce1_analog

# ----------------------------------------------------------------------
# 1. One Jacobian from the transient, through every direct solver.
# ----------------------------------------------------------------------
ckt = xyce1_analog(n_core=200, n_subckts=60)
A = matrix_sequence(ckt, n_matrices=1)[0]
rng = np.random.default_rng(0)
b = rng.standard_normal(A.n_rows)
print(f"Jacobian: n={A.n_rows}, nnz={A.nnz}\n")

print(f"{'solver':12s} {'|L+U|':>8s} {'time(8c) s':>12s} {'residual':>10s}")
for name in available_solvers():
    try:
        s = DirectSolver(name, n_threads=8).numeric_factorization(A)
        x = s.solve(b)
        print(f"{name:12s} {s.factor_nnz:>8d} {s.factor_seconds(SANDY_BRIDGE, 8):>12.3e} "
              f"{solve_residual(A, x, b):>10.1e}")
    except Exception as exc:  # noqa: BLE001 - show solver failures honestly
        print(f"{name:12s} FAILED: {type(exc).__name__}: {exc}")

# ----------------------------------------------------------------------
# 2. The iterative alternative.
# ----------------------------------------------------------------------
print("\n--- preconditioned iterative (the road not taken) ---")
try:
    ILU0Preconditioner(A)
except SingularMatrixError as exc:
    print(f"ILU(0) on the raw Jacobian: FAILS ({exc})")
pm = mwcm_row_permutation(A)
Ap = A.permute(row_perm=pm)
M = ILU0Preconditioner(Ap)
res = gmres(Ap, b[pm], M=M.apply, tol=1e-10, restart=40, maxiter=600)
direct_flops = DirectSolver("klu").numeric_factorization(A)._numeric.ledger.sparse_flops
print(f"MWCM + ILU(0) + GMRES: {res.iterations} iterations, "
      f"{res.ledger.sparse_flops + M.ledger.sparse_flops:.3g} flops "
      f"(direct refactor: {direct_flops:.3g} flops)")

# ----------------------------------------------------------------------
# 3. Parallel triangular solve on the factors.
# ----------------------------------------------------------------------
print("\n--- level-scheduled parallel solve (ref. [18]) ---")
klu = DirectSolver("klu").numeric_factorization(A)
L = max(klu._numeric.block_lu, key=lambda lu: lu.L.n_rows).L
widths = [hi - lo for lo, hi, _ in triangular_schedule(L, "lower").levels]
print(f"largest block L: n={L.n_rows}, nnz={L.nnz}")
print(f"levels: {len(widths)}, average parallelism {L.n_rows / len(widths):.1f}, "
      f"max {max(widths):.0f}")
rhs = rng.standard_normal(L.n_rows)
# Both solves replay the levels compiled above (cached on L).
_, s1 = parallel_lower_solve(L, rhs, n_threads=1, machine=SANDY_BRIDGE)
_, s8 = parallel_lower_solve(L, rhs, n_threads=8, machine=SANDY_BRIDGE)
print(f"solve makespan: 1 thread {s1.makespan:.3e} s -> 8 threads {s8.makespan:.3e} s "
      f"({s1.makespan / s8.makespan:.2f}x)")
