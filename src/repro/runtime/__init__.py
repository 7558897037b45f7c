"""Runtime policy/plan layer: one object naming *how* a factorization runs.

PRs 1-3 each threaded a growing set of execution kwargs (``batched``,
``structured``, ``lookahead``, ``workers``, ``nonfinite``, panel/tree
geometry) by hand through every public entry point.  This package
collapses that sprawl into a Parla-style policy/plan/execute separation:

* :class:`ExecutionPolicy` — a frozen dataclass naming the execution
  path, its geometry, worker count, numerics policy and the modeled
  device/kernel configuration.  Every entry point is
  ``f(A, *, policy=None)``; a seed-path run, for example, is
  ``policy=ExecutionPolicy(path="seed")``.
* :func:`plan_qr` / :class:`QRPlan` — everything shape-dependent about a
  factorization (panel schedule, reduction-tree recipes, look-ahead task
  DAG, compact-WY scratch sizes, the validated policy) computed once and
  replayed by ``plan.execute(A)`` for repeated bit-identical
  factorizations; ``plan.simulate()`` gives the modeled GPU cost of the
  same shape.
* :mod:`repro.runtime.cholqr` — the condition guard and tree fallback
  behind the CholeskyQR2 fast paths (``path="cholqr2"`` /
  ``"cholqr2_mixed"`` / ``"auto"``); every accept/reject threshold and
  fallback decision is constructed here and nowhere else (enforced by
  ``tools/lint_layering.py``).

Layering: ``repro.core`` / ``repro.graph`` / ``repro.dispatch`` import
:mod:`repro.runtime.policy` (which only depends on the guard layer);
:mod:`repro.runtime.plan` lazily imports the heavy numeric modules at
call time, so no import cycle exists.
"""

from .cholqr import CholQRFactors, CholQRGuard, count_fallbacks, run_cholqr
from .plan import QRPlan, plan_qr
from .policy import CHOLQR_PATHS, PATH_NAMES, ExecutionPolicy

__all__ = [
    "CHOLQR_PATHS",
    "PATH_NAMES",
    "CholQRFactors",
    "CholQRGuard",
    "ExecutionPolicy",
    "QRPlan",
    "count_fallbacks",
    "plan_qr",
]
