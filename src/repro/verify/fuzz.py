"""Differential fuzz harness over every CAQR execution path.

``python -m repro verify`` drives this module: a seeded grid of shapes
(including 0-row/0-col, square, m < n, single-panel and
panel_width > n), dtypes (float64/float32), memory layouts (C, Fortran,
strided views) and matrix kinds (Gaussian, graded spectrum, extreme
"huge"/"tiny" scales that stress the rescaled reflector path), each
factored through every execution path —

* ``seed``          — the per-node reference path (``path="seed"``)
* ``batched``       — level-batched compact-WY (the default)
* ``structured``    — sparsity-exploiting stacked-triangle tree
* ``lookahead``     — the task-graph executor, serial
* ``lookahead_mt``  — the task-graph executor on a thread pool
* ``cholqr2``       — BLAS3 CholeskyQR2 (guard *refuses* ill-conditioned)
* ``cholqr2_mixed`` — CholeskyQR2 with a float32 first-pass Gram
* ``auto``          — condition-guarded cholqr2 with tree fallback
* ``sharded``       — multi-device CAQR over 3 simulated ranks
* ``streaming``     — out-of-core chunked CAQR (11-row chunks)

— and cross-checked three ways: the QR invariants of
:mod:`repro.verify.invariants` (orthogonality, residual,
triangularity, shape/dtype contracts vs ``np.linalg.qr``), direct
factor agreement with ``np.linalg.qr`` after sign canonicalization
(well-conditioned matrices only — forward R/Q perturbation bounds carry
a condition-number factor, so graded matrices check invariants only),
and pairwise agreement between paths.  The serial launch-stream
fingerprint is asserted stable for every factorable shape in the grid.

The CholeskyQR2 paths carry extra differential semantics: a
:class:`~repro.core.cholesky_qr.CholeskyBreakdownError` from an
*explicit* cholqr path on an adversarial (non-Gaussian) kind is an
accepted refusal, not a divergence; ``auto`` must never raise it, must
never fall back on a Gaussian matrix, and must provably fall back
(fallback counter > 0) somewhere in any sweep that includes
ill-conditioned kinds.  Tall well-conditioned cases additionally factor
through :func:`repro.core.gram_schmidt.cgs2` as an independent
"twice is enough" reference.

Any divergence is reported with a minimal standalone repro snippet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.caqr import caqr_qr
from repro.core.cholesky_qr import CholeskyBreakdownError
from repro.core.gram_schmidt import cgs2
from repro.core.validation import sign_canonical
from repro.runtime.cholqr import count_fallbacks
from repro.runtime.policy import ExecutionPolicy

from .invariants import launch_fingerprint, qr_invariants, qr_tolerance

__all__ = [
    "PATHS",
    "FuzzCase",
    "Divergence",
    "FuzzReport",
    "policy_for",
    "run_case",
    "generate_cases",
    "run_grid",
]


# ExecutionPolicy field overrides per fuzz path, keyed by the name the
# report uses.  ``lookahead_mt`` is the same policy path with a thread
# pool — kept as a distinct fuzz identity because it exercises the
# concurrent executor engine.
PATHS: dict[str, dict] = {
    "seed": {"path": "seed"},
    "batched": {"path": "batched"},
    "structured": {"path": "structured"},
    "lookahead": {"path": "lookahead"},
    "lookahead_mt": {"path": "lookahead", "workers": 3},
    "cholqr2": {"path": "cholqr2"},
    "cholqr2_mixed": {"path": "cholqr2_mixed"},
    "auto": {"path": "auto"},
    # Sharded multi-device CAQR: 3 ranks (uneven deals on most shapes)
    # over the default binomial fan-in; the effective rank count clamps
    # to the row count, so degenerate grid shapes run too.
    "sharded": {"path": "sharded", "shards": 3},
    # Streaming out-of-core CAQR: an 11-row chunk leaves a ragged tail
    # on most grid shapes and forces chunks narrower than the panel
    # width, exercising both merge regimes (dense start-up + structured
    # steady state) against the in-core paths.
    "streaming": {"path": "streaming", "chunk_rows": 11},
}

# Fuzz names whose policy is a CholeskyQR2 path that may *refuse*
# (raise CholeskyBreakdownError) rather than fall back.
_EXPLICIT_CHOLQR = ("cholqr2", "cholqr2_mixed")


def policy_for(
    name: str,
    panel_width: int = 16,
    block_rows: int = 64,
    tree_shape: str = "quad",
    nonfinite: str = "raise",
) -> ExecutionPolicy:
    """The :class:`ExecutionPolicy` a fuzz path name denotes."""
    return ExecutionPolicy(
        panel_width=panel_width,
        block_rows=block_rows,
        tree_shape=tree_shape,
        nonfinite=nonfinite,
        **PATHS[name],
    )

# Factor on the pairwise/vs-numpy comparison tolerance: looser than the
# invariant bound because two independently-rounded stable QRs of the
# same matrix may differ by a modest multiple of the backward error.
_PAIR_FACTOR = 2000.0


@dataclass(frozen=True)
class FuzzCase:
    """One matrix + parameter combination of the differential grid."""

    m: int
    n: int
    dtype: str = "float64"  # "float64" | "float32"
    order: str = "C"  # "C" | "F" | "strided"
    kind: str = "gauss"  # "gauss" | "graded" | "huge" | "tiny"
    panel_width: int = 16
    block_rows: int = 64
    tree_shape: str = "quad"
    seed: int = 0

    def build(self) -> np.ndarray:
        """Materialize the case's matrix (deterministic in ``seed``)."""
        rng = np.random.default_rng(self.seed)
        A = rng.standard_normal((self.m, self.n))
        k = min(self.m, self.n)
        if self.kind == "graded" and k >= 2:
            # Geometric singular values spanning six decades.
            U, _, Vt = np.linalg.svd(A, full_matrices=False)
            A = (U * np.logspace(0, -6, k)) @ Vt
        A = A.astype(self.dtype)
        if self.kind in ("huge", "tiny"):
            # Extreme but representable magnitudes: in float32, "huge"
            # entries square past float32 max, exercising the rescaled
            # reflector path in house()/batched_house(); "tiny" entries
            # square to zero, which once produced spurious identity
            # reflectors.  Cross-check metrics run in float64 and stay
            # finite at these scales.
            exp = 30 if self.dtype == "float32" else 150
            A = A * A.dtype.type(10.0 ** (exp if self.kind == "huge" else -exp))
        if self.order == "F":
            A = np.asfortranarray(A)
        elif self.order == "strided":
            buf = np.zeros((2 * self.m + 1, 2 * self.n + 1), dtype=A.dtype)
            view = buf[0 : 2 * self.m : 2, 0 : 2 * self.n : 2]
            view[...] = A
            A = view
        return A

    def policy(self, path: str) -> ExecutionPolicy:
        """The execution policy this case runs path ``path`` under."""
        return policy_for(
            path,
            panel_width=self.panel_width,
            block_rows=self.block_rows,
            tree_shape=self.tree_shape,
        )

    def repro(self, path: str) -> str:
        """Minimal standalone snippet reproducing this case on ``path``."""
        kw = ", ".join(
            f"{k}={v!r}"
            for k, v in dict(
                panel_width=self.panel_width,
                block_rows=self.block_rows,
                tree_shape=self.tree_shape,
                **PATHS[path],
            ).items()
        )
        return (
            "from repro.core.caqr import caqr_qr\n"
            "from repro.runtime import ExecutionPolicy\n"
            f"from repro.verify.fuzz import FuzzCase\n"
            f"A = {self!r}.build()\n"
            f"Q, R = caqr_qr(A, policy=ExecutionPolicy({kw}))"
        )


@dataclass(frozen=True)
class Divergence:
    """One detected disagreement, with enough context to reproduce it."""

    case: FuzzCase
    path: str
    # "exception" | "invariants" | "vs-numpy" | "pairwise" | "fingerprint"
    # | "fallback" (auto fell back on Gaussian input, or a sweep with
    #   adversarial kinds saw no fallback at all)
    check: str
    detail: str

    def format(self) -> str:
        return (
            f"[{self.check}] path={self.path} "
            f"{self.case.m}x{self.case.n} {self.case.dtype} {self.case.order} "
            f"{self.case.kind} pw={self.case.panel_width} bh={self.case.block_rows} "
            f"tree={self.case.tree_shape} seed={self.case.seed}\n"
            f"    {self.detail}\n"
            f"    repro:\n"
            + "\n".join("      " + line for line in self.case.repro(self.path).splitlines())
        )


@dataclass
class FuzzReport:
    """Outcome of one grid sweep."""

    cases_run: int
    paths_run: int
    divergences: list[Divergence]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def format(self, max_shown: int = 20) -> str:
        lines = [
            f"differential fuzz: {self.cases_run} cases x {self.paths_run} paths "
            f"-> {len(self.divergences)} divergence(s)"
        ]
        for d in self.divergences[:max_shown]:
            lines.append(d.format())
        if len(self.divergences) > max_shown:
            lines.append(f"... and {len(self.divergences) - max_shown} more")
        if self.ok:
            lines.append("all paths agree with np.linalg.qr and with each other")
        return "\n".join(lines)


def _factor_diff(Q1, R1, Q2, R2, scale: float) -> tuple[float, float]:
    """Max-abs differences of sign-canonicalized factors (R scaled)."""
    Q1c, R1c = sign_canonical(Q1, R1)
    Q2c, R2c = sign_canonical(Q2, R2)
    dq = float(np.abs(Q1c - Q2c).max()) if Q1c.size else 0.0
    dr = float(np.abs(R1c - R2c).max()) / scale if R1c.size else 0.0
    return dq, dr


def run_case(case: FuzzCase, paths: list[str] | None = None) -> list[Divergence]:
    """Run every requested path on one case; return all divergences."""
    names = list(PATHS) if paths is None else list(paths)
    A = case.build()
    m, n = case.m, case.n
    divs: list[Divergence] = []
    ref_Q, ref_R = np.linalg.qr(A, mode="reduced")
    # Norm in float64: a float32 "huge" case would overflow its own norm.
    scale = max(float(np.linalg.norm(np.asarray(A, dtype=np.float64))), 1.0)
    pair_tol = qr_tolerance(m, n, A.dtype, factor=_PAIR_FACTOR)
    # Scaled Gaussians ("huge"/"tiny") stay well-conditioned; only graded
    # spectra get invariants-only treatment.
    well_conditioned = case.kind != "graded" and min(m, n) > 0

    results: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name in names:
        path = PATHS[name].get("path")
        try:
            with count_fallbacks() as counter:
                Q, R = caqr_qr(A, policy=case.policy(name))
        except CholeskyBreakdownError as exc:
            # Explicit cholqr paths contractually refuse input their
            # guard deems too ill-conditioned — an accepted refusal on
            # the adversarial kinds, a finding on Gaussian input.  The
            # adaptive path must never surface a breakdown.
            if name in _EXPLICIT_CHOLQR and case.kind != "gauss":
                continue
            divs.append(Divergence(case, name, "exception", f"{type(exc).__name__}: {exc}"))
            continue
        except Exception as exc:  # a crash on valid input is a finding
            divs.append(Divergence(case, name, "exception", f"{type(exc).__name__}: {exc}"))
            continue
        if path == "auto" and case.kind == "gauss" and counter.fallbacks:
            divs.append(
                Divergence(
                    case,
                    name,
                    "fallback",
                    f"auto fell back on a Gaussian matrix "
                    f"(stages={counter.stages!r}) — the guard is too tight",
                )
            )
        report = qr_invariants(A, Q, R)
        failures = report.failures()
        if failures:
            divs.append(Divergence(case, name, "invariants", "; ".join(failures)))
            continue
        results[name] = (Q, R)
        if well_conditioned:
            dq, dr = _factor_diff(Q, R, ref_Q, ref_R, scale)
            if dq > pair_tol or dr > pair_tol:
                divs.append(
                    Divergence(
                        case,
                        name,
                        "vs-numpy",
                        f"max|dQ|={dq:.3e} max|dR|/||A||={dr:.3e} > tol {pair_tol:.3e}",
                    )
                )
    # Independent reference: CGS2 ("twice is enough") through the same
    # guard-validated entry point, cross-checked on tall well-conditioned
    # Gaussian cases — a non-Householder, non-Cholesky orthogonalizer
    # that the BLAS3 paths must agree with.
    if case.kind == "gauss" and 0 < n <= m:
        try:
            Qg, Rg = cgs2(A)
        except Exception as exc:
            divs.append(Divergence(case, "cgs2", "exception", f"{type(exc).__name__}: {exc}"))
        else:
            failures = qr_invariants(A, Qg, Rg).failures()
            if failures:
                divs.append(Divergence(case, "cgs2", "invariants", "; ".join(failures)))
            else:
                dq, dr = _factor_diff(Qg, Rg, ref_Q, ref_R, scale)
                if dq > pair_tol or dr > pair_tol:
                    divs.append(
                        Divergence(
                            case,
                            "cgs2",
                            "vs-numpy",
                            f"max|dQ|={dq:.3e} max|dR|/||A||={dr:.3e} > tol {pair_tol:.3e}",
                        )
                    )
    # Pairwise: every surviving path against the first surviving one.
    if well_conditioned and len(results) > 1:
        base_name = next(iter(results))
        Qb, Rb = results[base_name]
        for name, (Q, R) in list(results.items())[1:]:
            dq, dr = _factor_diff(Q, R, Qb, Rb, scale)
            if dq > pair_tol or dr > pair_tol:
                divs.append(
                    Divergence(
                        case,
                        name,
                        "pairwise",
                        f"vs {base_name}: max|dQ|={dq:.3e} max|dR|/||A||={dr:.3e} "
                        f"> tol {pair_tol:.3e}",
                    )
                )
    return divs


# Core shape set: degenerate, square, wide, single-panel, multi-panel,
# non-multiple-of-block, panel wider than the matrix.
CORE_SHAPES: tuple[tuple[int, int], ...] = (
    (0, 5),
    (5, 0),
    (0, 0),
    (1, 1),
    (2, 2),
    (3, 7),
    (7, 3),
    (16, 16),
    (40, 8),
    (33, 7),
    (64, 16),
    (97, 13),
    (130, 20),
)

# (dtype, order, kind, panel_width, block_rows, tree_shape)
CORE_VARIANTS: tuple[tuple[str, str, str, int, int, str], ...] = (
    ("float64", "C", "gauss", 16, 64, "quad"),
    ("float32", "C", "gauss", 16, 64, "quad"),
    ("float64", "F", "graded", 4, 8, "binary"),
    # A float32 graded spectrum overwhelms the float32 Gram condition
    # limit: the explicit cholqr paths must refuse it and the auto path
    # must provably take the tree (the quick grid's guaranteed-fallback
    # coverage).
    ("float32", "C", "graded", 8, 16, "quad"),
    ("float64", "strided", "gauss", 5, 8, "flat"),
    ("float32", "F", "gauss", 8, 16, "binomial"),
    ("float32", "C", "huge", 4, 16, "quad"),
    ("float32", "C", "tiny", 4, 16, "binary"),
)

# (m, n, dtype, order, kind, panel_width, block_rows, tree_shape): cases
# on the geqrt side of the level-0 kernel (repro.smallblas.wy.geqrt_side),
# which the grid above never reaches.  block_rows < panel_width gives
# 512x32 level-0 blocks (16 * width), a 76-row ragged tail and 96x32 tree
# nodes, all on the geqrt side; the last 8-wide panel stays on the gufunc.
GEQRT_CASES: tuple[tuple[int, int, str, str, str, int, int, str], ...] = (
    (1100, 40, "float64", "C", "gauss", 32, 16, "quad"),
    (1100, 40, "float32", "C", "huge", 32, 16, "quad"),
    (1100, 40, "float32", "C", "tiny", 32, 16, "quad"),
)

_RANDOM_AXES = {
    "dtype": ("float64", "float32"),
    "order": ("C", "F", "strided"),
    "kind": ("gauss", "graded", "huge", "tiny"),
    "panel_width": (3, 4, 5, 8, 16, 17),
    "block_rows": (4, 8, 16, 64),
    "tree_shape": ("quad", "binary", "binomial", "flat"),
}


def generate_cases(seed: int = 0, n_random: int = 60, quick: bool = False) -> list[FuzzCase]:
    """The deterministic core grid plus ``n_random`` sampled combinations.

    ``quick`` keeps the core grid only (the CI smoke: < 60 s).  Random
    cases draw every axis independently, with shapes biased toward small
    multi-panel sizes and a guaranteed tail of m < n cases.
    """
    cases = [
        FuzzCase(m, n, dtype=dt, order=order, kind=kind, panel_width=pw, block_rows=bh,
                 tree_shape=tree, seed=seed)
        for m, n in CORE_SHAPES
        for dt, order, kind, pw, bh, tree in CORE_VARIANTS
    ]
    cases += [
        FuzzCase(m, n, dtype=dt, order=order, kind=kind, panel_width=pw, block_rows=bh,
                 tree_shape=tree, seed=seed)
        for m, n, dt, order, kind, pw, bh, tree in GEQRT_CASES
    ]
    if quick:
        return cases
    rng = np.random.default_rng(seed)
    for i in range(n_random):
        if i % 5 == 4:  # guaranteed wide-matrix coverage
            m = int(rng.integers(0, 12))
            n = int(rng.integers(m + 1, m + 20))
        else:
            m = int(rng.integers(1, 161))
            n = int(rng.integers(1, 25))
        cases.append(
            FuzzCase(
                m,
                n,
                dtype=str(rng.choice(_RANDOM_AXES["dtype"])),
                order=str(rng.choice(_RANDOM_AXES["order"])),
                kind=str(rng.choice(_RANDOM_AXES["kind"])),
                panel_width=int(rng.choice(_RANDOM_AXES["panel_width"])),
                block_rows=int(rng.choice(_RANDOM_AXES["block_rows"])),
                tree_shape=str(rng.choice(_RANDOM_AXES["tree_shape"])),
                seed=seed + 1 + i,
            )
        )
    return cases


def run_grid(
    seed: int = 0,
    quick: bool = False,
    n_random: int = 60,
    paths: list[str] | None = None,
    progress=None,
) -> FuzzReport:
    """Sweep the grid; cross-check every path; return the full report."""
    names = list(PATHS) if paths is None else list(paths)
    unknown = [p for p in names if p not in PATHS]
    if unknown:
        raise ValueError(f"unknown path(s) {unknown}; known: {list(PATHS)}")
    cases = generate_cases(seed=seed, n_random=n_random, quick=quick)
    divergences: list[Divergence] = []
    fingerprinted: set[tuple[int, int]] = set()
    with count_fallbacks() as sweep_counter:
        for i, case in enumerate(cases):
            divergences.extend(run_case(case, paths=names))
            shape = (case.m, case.n)
            if shape not in fingerprinted and case.m >= 1 and case.n >= 1:
                fingerprinted.add(shape)
                if launch_fingerprint(*shape) != launch_fingerprint(*shape):
                    divergences.append(
                        Divergence(
                            case,
                            "-",
                            "fingerprint",
                            f"launch fingerprint of {shape} unstable across enumerations",
                        )
                    )
            if progress is not None and (i + 1) % 25 == 0:
                progress(f"  {i + 1}/{len(cases)} cases, {len(divergences)} divergence(s)")
    # The adaptive path must *provably* fall back somewhere: a sweep that
    # includes adversarial kinds and the auto path but never took the
    # tree means the guard went soft (or the fallback counter broke).
    adversarial = [c for c in cases if c.kind != "gauss" and min(c.m, c.n) >= 2]
    if "auto" in names and adversarial and sweep_counter.fallbacks == 0:
        divergences.append(
            Divergence(
                adversarial[0],
                "auto",
                "fallback",
                f"{len(adversarial)} adversarial case(s) swept but the auto path "
                f"never fell back to the tree — the condition guard is inert",
            )
        )
    return FuzzReport(cases_run=len(cases), paths_run=len(names), divergences=divergences)
