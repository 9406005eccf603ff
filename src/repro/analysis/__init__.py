"""Static verification layer for the Basker reproduction.

Basker's headline claim — point-to-point synchronization over the ND
dependency tree is *sufficient*, no barriers needed — is a correctness
claim about the task DAG: every pair of conflicting block accesses must
be ordered by the declared dependencies (plus each thread's static
program order).  This package turns that claim into checkable
machinery:

* :mod:`repro.analysis.hazards` — happens-before race detector over
  the declared read/write sets of every :class:`~repro.parallel.sim.SimTask`,
  plus dependency-cycle (deadlock) and dangling-dependency detection;
* :mod:`repro.analysis.conservation` — verifies no work is dropped or
  double counted (sum of per-task ledgers + declared overhead equals
  the whole-factorization ledger) and that a simulated
  :class:`~repro.parallel.sim.Schedule` is self-consistent;
* :mod:`repro.analysis.lint` — AST lint enforcing the repo's
  cost-model discipline (no wall clocks in kernels, ledgers flow
  through parameters, no bare ``except``, no mutable defaults, no
  nondeterminism in kernels);
* :mod:`repro.analysis.domains` — interprocedural index-domain checker
  that tracks which index space (``global``, ``btf``, ``nd``,
  ``local:block``) each permutation and index array lives in, using the
  :func:`repro.contracts.domains` annotations on the solver's public
  functions, and flags cross-space mixups (block-local indices applied
  to global arrays, double permutation application, mismatched
  ``compose`` chains);
* :mod:`repro.analysis.effects` — interprocedural effect-and-aliasing
  analyzer that infers each kernel function's real side effects
  (in-place parameter mutation, task emission) and checks them against
  the declared contracts: ``SimTask`` read/write sets (E1),
  :func:`repro.contracts.effects` purity declarations (E2) and numpy
  in-place misuse (E5);
* :mod:`repro.analysis.shapes` — symbolic shape/bounds/dtype abstract
  interpreter assigning every array a symbolic shape in a lattice of
  named dimensions plus an index-range interval, checked against
  :func:`repro.contracts.shapes` declarations: scatter/``reduceat``
  precondition violations (S2), shape conformance across elementwise
  ops (S3), index-width hazards (S4) and declared-vs-inferred contract
  mismatches (S5), plus the one
  concrete auditor of compiled :mod:`repro.sparse.schedule` plans
  (``audit_schedule_buffers``: E4 write disjointness and level order,
  S1-S3 bounds, segments and sizes) and a runtime differential
  contract checker;
* :mod:`repro.analysis.frontend` — the front end lint, domains,
  effects and shapes share: each module parsed and comment-tokenized
  once per process, pins, decorators, registry and drivers.

``python -m repro analyze all`` runs every checker and prints one report
(``--plans`` adds the plan audit, ``--format json`` the machine form);
``python -m repro analyze <checker>`` prints that report's section for
one checker.  Any finding fails the run; CI runs ``analyze all``.
"""

from .conservation import ConservationReport, check_conservation, check_schedule
from .domains import (
    Domain,
    DomainFinding,
    check_domains_paths,
    check_domains_source,
    check_domains_tree,
    parse_domain,
)
from .effects import (
    EffectFinding,
    FunctionEffects,
    check_effects_paths,
    check_effects_source,
    check_effects_tree,
    collect_effect_summaries,
    summary_for,
)
from .hazards import Hazard, HazardReport, check_hazards, happens_before
from .lint import LintFinding, lint_paths, lint_source, lint_tree
from .shapes import (
    ShapeContractError,
    ShapeFinding,
    audit_schedule_buffers,
    check_call_contract,
    check_shapes_paths,
    check_shapes_source,
    check_shapes_tree,
    collect_shape_contracts,
    contract_checked,
)

__all__ = [
    "Hazard",
    "HazardReport",
    "check_hazards",
    "happens_before",
    "ConservationReport",
    "check_conservation",
    "check_schedule",
    "LintFinding",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "Domain",
    "DomainFinding",
    "parse_domain",
    "check_domains_source",
    "check_domains_paths",
    "check_domains_tree",
    "EffectFinding",
    "FunctionEffects",
    "check_effects_source",
    "check_effects_paths",
    "check_effects_tree",
    "collect_effect_summaries",
    "summary_for",
    "ShapeContractError",
    "ShapeFinding",
    "check_shapes_source",
    "check_shapes_paths",
    "check_shapes_tree",
    "collect_shape_contracts",
    "audit_schedule_buffers",
    "check_call_contract",
    "contract_checked",
]
