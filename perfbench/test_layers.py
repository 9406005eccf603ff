"""Checks of the benchmark's layer wrappers.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from repro import DirectSolver  # noqa: E402
from repro.matrices import get_matrix  # noqa: E402
from repro.obs.tracer import Tracer, tracing  # noqa: E402
from repro.sparse.csc import CSC  # noqa: E402

# Program span name -> the wrapped targets whose calls open it.
SPAN_OF = {
    "order.btf": ("repro.ordering.btf:btf",),
    "order.amd": ("repro.ordering.amd:amd_order",),
    "order.nd": ("repro.ordering.nd:nested_dissection",),
    "refactor.replay": layers.REFACTOR_FAST,
    "solve.tri": ("repro.solvers.klu:KLU.solve", "repro.core.basker:Basker.solve"),
}


def test_wrapper_calls_match_program_spans():
    A = get_matrix("Xyce0*")  # its large block takes Basker's ND path
    A2 = CSC(A.n_rows, A.n_cols, A.indptr, A.indices, A.data * 1.5)
    rng = np.random.default_rng(0)
    originals = {t: layers.resolve(t) for t in (*layers.TARGETS, *layers.LOOKUPS)}
    lt = layers.LayerTracer()
    prog = Tracer()
    with tracing(prog):
        lt.install()
        try:
            for op, (name, opts) in enumerate([("klu", {}), ("basker", {"n_threads": 16})]):
                lt.op = op
                ds = DirectSolver(name, **opts)
                ds.symbolic_factorization(A)
                ds.numeric_factorization(A)
                ds.numeric_factorization(A2)  # same pattern: refactor_fast
                ds.solve(rng.standard_normal(A.n_rows))
                ds.solve(rng.standard_normal((A.n_rows, 3)))
        finally:
            lt.uninstall()

    calls = Counter(lt.key)
    for span, targets in SPAN_OF.items():
        program = sum(sp.name == span for sp in prog.spans)
        assert program > 0, span
        assert sum(calls.get(t, 0) for t in targets) == program, span

    assert layers.installed_wrappers() == []
    for t, fn in originals.items():
        assert layers.resolve(t) is fn
    import repro.core.basker
    import repro.solvers.klu
    assert repro.solvers.klu.amd_order is originals["repro.ordering.amd:amd_order"]
    assert repro.core.basker.gp_factor is originals["repro.solvers.gp:gp_factor"]


def test_traced_run_leaves_no_wrapper(capsys):
    assert run.main(["--workload", "transient", "--seed", "7", "--seconds", "2",
                     "--trace", "1"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": true' in last
    assert layers.installed_wrappers() == []
