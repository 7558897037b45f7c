"""Execution policies for the CAQR/TSQR stack.

An :class:`ExecutionPolicy` is the single source of truth for *how* a
factorization runs: which execution path, what panel/tree geometry, how
many workers, which non-finite policy, and which modeled device/kernel
configuration the cost model should use.  Every policy-taking entry
point has the signature ``f(A, *, policy=None)``; ``None`` means that
entry point's default policy.  The loose kwargs it replaced
(``batched``, ``structured``, ``lookahead``, ``workers``, ``nonfinite``
and the panel geometry) were removed; docs/architecture.md ("Execution
policy & plans") maps each old spelling onto its policy field.

Path names
----------
``seed``
    The per-node reference implementation, kept as the correctness
    oracle and benchmark baseline.
``batched``
    Level-batched compact-WY execution (the default).
``structured``
    Batched execution with the sparsity-exploiting stacked-triangle
    tree elimination.
``lookahead``
    The task-graph executor (:mod:`repro.graph.executor`); ``workers``
    sets the column tiling / thread-pool width and ``lookahead_edge``
    selects the look-ahead dependency edge vs the panel barrier.
``seed_structured``
    The per-node reference loop with the structured tree elimination —
    used only by the parity tests; not a production path.
``cholqr2``
    The BLAS3 fast path: CholeskyQR2 (two Gram/Cholesky/triangular
    passes, ~4mn^2 flops, O(1) kernel launches).  Condition-guarded —
    breaks down (raises) near ``cond(A) ~ 1/sqrt(eps)`` instead of
    silently losing orthogonality.
``cholqr2_mixed``
    CholeskyQR2 with a float32 first-pass Gram accumulation; the
    reorthogonalization pass runs in float64, restoring full
    orthogonality.  Guarded at the float32 condition limit.
``auto``
    Adaptive: runs ``cholqr2`` when a cheap condition estimate admits
    it and transparently falls back to ``lookahead`` otherwise
    (including on Cholesky breakdown mid-factorization).  Never
    raises on ill-conditioned input; ``condition_limit`` overrides the
    guard threshold.
``sharded``
    Multi-device parallel CAQR (:mod:`repro.distributed.sharded`): the
    matrix is row-partitioned across ``shards`` simulated ranks, each
    runs the local batched compact-WY machinery, and per-rank R factors
    reduce through a ``fanin``-ary tree over ``FakeComm``, with traffic
    charged to a calibrated ``interconnect`` alpha-beta model.
    Requires ``shards=``; ``fanin`` and ``interconnect`` are optional.
``streaming``
    Out-of-core sequential CAQR (:mod:`repro.streaming`): the tall axis
    is cut into ``chunk_rows``-row chunks, each chunk runs the local
    batched compact-WY machinery, and the chunk's R folds into the
    running n x n triangle through the same stacked-triangle
    elimination the tree nodes use — so resident memory is bounded by
    the chunk, not the stream.  Requires ``chunk_rows=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.verify.guards import validate_nonfinite_policy

__all__ = [
    "PATH_NAMES",
    "CHOLQR_PATHS",
    "ExecutionPolicy",
]

PATH_NAMES = (
    "seed",
    "batched",
    "structured",
    "lookahead",
    "seed_structured",
    "cholqr2",
    "cholqr2_mixed",
    "auto",
    "sharded",
    "streaming",
)

# The CholeskyQR2 family: condition-guarded BLAS3 fast paths.  ``auto``
# belongs here too — it *starts* on the cheap path and owns the fallback.
CHOLQR_PATHS = ("cholqr2", "cholqr2_mixed", "auto")

@dataclass(frozen=True)
class ExecutionPolicy:
    """How a factorization executes (everything except the matrix).

    Attributes:
        path: execution path name (see module docstring).
        panel_width / block_rows / tree_shape: numeric panel geometry.
            These are deliberately separate from ``config`` — the fuzz
            grid exercises geometries (e.g. ``block_rows < panel_width``,
            free-form tree names) that the modeled-domain
            :class:`~repro.kernels.config.KernelConfig` cannot represent.
            ``block_rows`` is honoured whenever it is at least the panel
            width; a shorter request gives ``16 * width``-row level-0
            blocks (:func:`repro.core.tsqr.level0_rows`, sized by the
            sweep in EXPERIMENTS.md, "TSQR level-0 height").
        workers: column tiles per trailing update / thread-pool width for
            the look-ahead executor (``None`` means 1).  Only meaningful
            for ``path="lookahead"`` (and the threaded explicit-Q
            formation in the randomized SVD pipeline).
        lookahead_edge: wire ``factor(p+1)`` to the previous panel's
            first-tile update only (the look-ahead edge); ``False``
            restores the serial panel barrier.  Executor paths only.
        nonfinite: input guard policy (``"raise"`` / ``"propagate"``),
            see :mod:`repro.verify.guards`.
        device / config: modeled-domain device and kernel configuration
            used by ``plan.simulate()``; ``None`` resolves lazily to the
            C2050 reference setup so constructing a policy never imports
            the simulator stack.
        condition_limit: guard threshold for the CholeskyQR2 paths —
            the largest Gram-diagonal condition estimate the cheap path
            accepts before raising (``cholqr2`` / ``cholqr2_mixed``) or
            falling back to ``lookahead`` (``auto``).  ``None`` resolves
            to the dtype-aware default inside
            :class:`repro.runtime.cholqr.CholQRGuard`.
        shards: simulated rank count for ``path="sharded"`` (required
            there, rejected elsewhere).  The effective count clamps to
            the row count at run time so tiny matrices never deal empty
            shards.
        fanin: reduction-tree arity for the sharded path (default 2,
            i.e. binomial); sharded-only.
        interconnect: name of a calibrated alpha-beta link model from
            ``repro.distributed.comm.INTERCONNECTS`` used to charge the
            sharded path's inter-rank traffic (default ``"pcie2"``);
            sharded-only.
        chunk_rows: tall-axis chunk height for ``path="streaming"``
            (required there, rejected elsewhere).  Each chunk is
            factored locally and folded into the running triangle, so
            this is the knob that trades per-chunk arithmetic
            efficiency against resident memory — the streaming path
            never holds more than one chunk plus the n x n carry.
        coalesce: whether a serving front end (:mod:`repro.serving`) may
            merge same-shape requests under this policy into one stacked
            batched invocation.  ``False`` forces per-request dispatch —
            results are bit-identical either way, so this is a latency /
            isolation knob, not a numerics one.  Ignored outside the
            serving layer.
        trace: optional :class:`repro.obs.TraceSession`; every
            policy-accepting entry point activates it for the duration of
            the call (``obs.maybe_trace``), so spans from each
            factorization under this policy accumulate into one capture.
            ``None`` (the default) keeps tracing disabled.
    """

    path: str = "batched"
    panel_width: int = 16
    block_rows: int = 64
    tree_shape: str = "quad"
    workers: int | None = None
    lookahead_edge: bool = True
    nonfinite: str = "raise"
    condition_limit: float | None = None
    shards: int | None = None
    fanin: int | None = None
    interconnect: str | None = None
    chunk_rows: int | None = None
    coalesce: bool = True
    device: Any | None = field(default=None, compare=False)
    config: Any | None = field(default=None, compare=False)
    trace: Any | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.path not in PATH_NAMES:
            raise ValueError(
                f"unknown execution path {self.path!r}; known: {PATH_NAMES}"
            )
        if self.panel_width < 1:
            raise ValueError("panel_width must be positive")
        if self.block_rows < 1:
            raise ValueError("block_rows must be positive")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive")
        if self.effective_workers > 1 and self.path not in ("lookahead", "auto"):
            # "auto" may fall back to the executor, where workers applies.
            raise ValueError(
                f"workers > 1 requires path='lookahead' (or 'auto', whose "
                f"fallback is the look-ahead path), got path={self.path!r}"
            )
        if self.condition_limit is not None:
            if self.path not in CHOLQR_PATHS:
                raise ValueError(
                    f"condition_limit applies to the CholeskyQR2 paths "
                    f"{CHOLQR_PATHS}, got path={self.path!r}"
                )
            if not self.condition_limit > 0:
                raise ValueError("condition_limit must be positive")
        if self.path == "sharded":
            if self.shards is None:
                raise ValueError(
                    "path='sharded' requires shards= (the simulated rank count)"
                )
            if self.shards < 1:
                raise ValueError("shards must be positive")
        elif self.shards is not None:
            raise ValueError(
                f"shards applies only to path='sharded', got path={self.path!r}"
            )
        if self.fanin is not None:
            if self.path != "sharded":
                raise ValueError(
                    f"fanin applies only to path='sharded', got path={self.path!r}"
                )
            if self.fanin < 2:
                raise ValueError("fanin must be at least 2")
        if self.path == "streaming":
            if self.chunk_rows is None:
                raise ValueError(
                    "path='streaming' requires chunk_rows= (the tall-axis "
                    "chunk height)"
                )
            if self.chunk_rows < 1:
                raise ValueError("chunk_rows must be positive")
        elif self.chunk_rows is not None:
            raise ValueError(
                f"chunk_rows applies only to path='streaming', "
                f"got path={self.path!r}"
            )
        if self.interconnect is not None:
            if self.path != "sharded":
                raise ValueError(
                    f"interconnect applies only to path='sharded', "
                    f"got path={self.path!r}"
                )
            from repro.distributed.comm import INTERCONNECTS

            if self.interconnect not in INTERCONNECTS:
                raise ValueError(
                    f"unknown interconnect {self.interconnect!r}; "
                    f"known: {tuple(INTERCONNECTS)}"
                )
        validate_nonfinite_policy(self.nonfinite, "ExecutionPolicy")

    # -- derived views -----------------------------------------------------

    @property
    def effective_workers(self) -> int:
        return 1 if self.workers is None else self.workers

    @property
    def uses_batched(self) -> bool:
        """Whether the compact-WY batched kernels run (vs the seed loop)."""
        return self.path not in ("seed", "seed_structured")

    @property
    def uses_structured(self) -> bool:
        """Whether tree nodes use the stacked-triangle elimination."""
        return self.path in ("structured", "seed_structured")

    @property
    def uses_cholqr(self) -> bool:
        """Whether the CholeskyQR2 fast-path engine runs first."""
        return self.path in CHOLQR_PATHS

    @property
    def effective_fanin(self) -> int:
        """Sharded reduction-tree arity (binomial when unset)."""
        return 2 if self.fanin is None else self.fanin

    def resolved_interconnect(self):
        """The calibrated link model for the sharded path's traffic."""
        from repro.distributed.comm import DEFAULT_INTERCONNECT, INTERCONNECTS

        return INTERCONNECTS[self.interconnect or DEFAULT_INTERCONNECT]

    def resolved_device(self):
        """The modeled device (C2050 unless overridden)."""
        if self.device is not None:
            return self.device
        from repro.gpusim.device import C2050

        return C2050

    def resolved_config(self):
        """The modeled kernel configuration (reference unless overridden)."""
        if self.config is not None:
            return self.config
        from repro.kernels.config import REFERENCE_CONFIG

        return REFERENCE_CONFIG

    def with_nonfinite(self, nonfinite: str) -> "ExecutionPolicy":
        """Copy with a different guard policy (internal re-entry helper)."""
        if nonfinite == self.nonfinite:
            return self
        return replace(self, nonfinite=nonfinite)
