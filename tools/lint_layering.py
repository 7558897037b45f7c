#!/usr/bin/env python
"""Layering lint: path-selection kwargs live in ``repro.runtime`` only.

The policy refactor routed every execution-path decision through
``repro.runtime.ExecutionPolicy``.  The public entry points take only
``policy=`` now (the old ``batched``, ``structured``, ``lookahead`` and
``workers`` keywords raise ``TypeError``); this rule keeps any module
inside the repository from spelling them on an entry-point call, so
internal code passes ``policy=`` (or calls the ``_impl`` layers) and
future backends/telemetry hook in at exactly one place.

The same ownership rule covers the CholeskyQR2 condition guard: every
accept/reject threshold and fallback decision is a *policy*, so
constructing :class:`repro.runtime.cholqr.CholQRGuard` (directly or via
``CholQRGuard.for_policy``) anywhere outside ``repro.runtime`` is a
violation, as is smuggling a ``condition_limit=`` keyword into an entry
point instead of carrying it on the ``ExecutionPolicy``.

The serving subsystem gets the same treatment: constructing
:class:`repro.serving.coalesce.CoalescingQueue` anywhere outside
``repro.serving`` is a violation — queue depth, overflow disposition and
the coalescing window are admission-control policy owned by
:class:`~repro.serving.server.QRServer`, and a privately built queue
would bypass backpressure accounting and the per-tenant obs spans.

So does the distributed subsystem: constructing
:class:`repro.distributed.comm.FakeComm` anywhere outside
``repro.distributed`` is a violation — the communicator's per-level
counters feed the critical-path accounting and the alpha-beta interconnect
charges, so a privately built communicator would produce traffic no
scaling report or gate ever sees.  Code wanting a sharded run goes
through ``ExecutionPolicy(path="sharded", shards=P)``.

The task-graph layer gets the same treatment: constructing
:class:`repro.graph.highlevel.TaskGraph` (or a raw ``Layer``) anywhere
outside ``repro.graph`` and the registered producers
(:data:`repro.graph.highlevel.PRODUCERS`) is a violation — the graph's
fingerprint is a CI-pinned artifact, so every layer emission must go
through a producer the registry (and the fingerprint gate) knows about.
Consumers receive a built ``TaskGraph``; they never assemble one.

The streaming subsystem gets the same treatment: constructing
:class:`repro.streaming.qr.StreamingQR` or
:class:`repro.streaming.ingest.ChunkBuffer` anywhere outside
``repro.streaming`` is a violation — chunk geometry rides on
``ExecutionPolicy(path="streaming", chunk_rows=...)`` and the bounded
in-flight window plus the deterministic memory accounting live in the
streaming package, so a privately built engine would produce rows no
soak gate ever accounts for.  External code calls ``stream_qr`` /
``stream_chunks`` or the policy-routed entry points.

AST-based, not regex: a call like ``caqr_qr(A, batched=False)`` is
flagged wherever the callee name matches a policy-accepting entry point,
while unrelated keywords named ``workers`` on non-entry-point calls
(e.g. ``ThreadPoolExecutor(max_workers=...)``) are not.

Scanned: ``src/repro`` (minus ``repro/runtime``, which owns the
policy), ``benchmarks/``, ``examples/``.  Tests are exempt — they
deliberately pass the removed keywords to check the ``TypeError``.

Exit status 1 lists every violation as ``file:line``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Public entry points, each ``f(A, *, policy=None)``.
ENTRY_POINTS = {
    "caqr",
    "caqr_qr",
    "tsqr",
    "tsqr_qr",
    "caqr_gpu_factor",
    "caqr_lookahead",
    "randomized_svd",
    "randomized_range_finder",
    "QRDispatcher",
    "AdaptiveSVT",
}

# Keywords whose construction is reserved to repro.runtime and the shims.
# ``nonfinite`` stays off this list: it is a guard knob, not a path
# selector, and the numeric baselines legitimately take it.
# ``condition_limit`` is an ExecutionPolicy field, never an entry-point
# kwarg: the CholeskyQR2 guard threshold must ride on the policy object.
PATH_KWARGS = {"batched", "structured", "lookahead", "workers", "condition_limit"}

# Classes whose *construction* is reserved to repro.runtime: the
# CholeskyQR2 accept/reject/fallback decisions live there and nowhere
# else.  Both ``CholQRGuard(...)`` and ``CholQRGuard.for_policy(...)``
# count.
GUARD_CONSTRUCTORS = {"CholQRGuard"}

# Classes whose construction is reserved to repro.serving: queue depth,
# overflow disposition and the coalescing window are *serving policy*.
# Code wanting different trade-offs configures a QRServer; a privately
# constructed queue would bypass admission control and the obs counters.
QUEUE_CONSTRUCTORS = {"CoalescingQueue"}

# Classes whose construction is reserved to repro.distributed: the
# communicator's per-level counters are what the critical-path and
# interconnect accounting is computed from, so every rank-to-rank
# message must flow through the one communicator the sharded runner
# builds.  Sharded execution is requested via ExecutionPolicy.
COMM_CONSTRUCTORS = {"FakeComm"}

# Classes whose construction is reserved to repro.graph and the
# registered producers: graph shape is a CI-fingerprinted artifact, so
# layers are emitted only by code the PRODUCERS registry names.
GRAPH_CONSTRUCTORS = {"TaskGraph", "Layer"}

# Classes whose construction is reserved to repro.streaming: chunk
# geometry and the bounded in-flight window are *streaming policy*
# (ExecutionPolicy.chunk_rows), and a privately built engine or buffer
# would bypass the per-chunk obs spans and the deterministic memory
# accounting the soak gate pins.  External code streams via
# repro.streaming.stream_qr / stream_chunks or
# ExecutionPolicy(path="streaming", chunk_rows=...).
STREAM_CONSTRUCTORS = {"StreamingQR", "ChunkBuffer"}

SCAN_ROOTS = ("src/repro", "benchmarks", "examples")
EXEMPT = ("src/repro/runtime/",)
# Per-rule exemption: only the serving package may construct the queue.
QUEUE_EXEMPT = ("src/repro/serving/",)
# Per-rule exemption: only the distributed package may construct the comm.
COMM_EXEMPT = ("src/repro/distributed/",)
# Per-rule exemption: repro.graph plus the producer modules registered in
# repro.graph.highlevel.PRODUCERS (kept in sync by
# tests/runtime/test_layering_lint.py::test_graph_exemptions_cover_producers).
GRAPH_EXEMPT = (
    "src/repro/graph/",
    "src/repro/core/randomized_svd.py",
    "src/repro/rpca/graphs.py",
    "src/repro/distributed/sharded.py",
    "src/repro/streaming/graphs.py",
)
# Per-rule exemption: only the streaming package may construct the
# engine and the chunk buffer.
STREAM_EXEMPT = ("src/repro/streaming/",)


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def scan_file(path: Path) -> list[tuple[int, str, str]]:
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:  # a broken file is its own finding
        return [(exc.lineno or 0, "<syntax>", str(exc))]
    hits = []
    for node, enclosing in _walk_with_function(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _callee_name(node)
        if _is_guard_construction(node):
            hits.append(
                (node.lineno, name or "CholQRGuard", "guard construction")
            )
            continue
        if name in QUEUE_CONSTRUCTORS:
            hits.append((node.lineno, name, "queue construction"))
            continue
        if name in COMM_CONSTRUCTORS:
            hits.append((node.lineno, name, "comm construction"))
            continue
        if name in GRAPH_CONSTRUCTORS:
            hits.append((node.lineno, name, "graph construction"))
            continue
        if name in STREAM_CONSTRUCTORS:
            hits.append((node.lineno, name, "stream construction"))
            continue
        if name not in ENTRY_POINTS:
            continue
        if enclosing in ENTRY_POINTS:
            # An entry point forwarding to its sibling (caqr_qr -> caqr).
            continue
        bad = sorted(
            kw.arg for kw in node.keywords if kw.arg in PATH_KWARGS
        )
        if bad:
            hits.append((node.lineno, name, ", ".join(bad)))
    return hits


def _is_guard_construction(call: ast.Call) -> bool:
    """``CholQRGuard(...)`` or ``CholQRGuard.for_policy(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in GUARD_CONSTRUCTORS
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id in GUARD_CONSTRUCTORS
    return False


def _walk_with_function(tree: ast.AST):
    """Yield ``(node, enclosing_function_name)`` over the whole tree."""

    def visit(node: ast.AST, fn: str | None):
        yield node, fn
        inner = (
            node.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else fn
        )
        for child in ast.iter_child_nodes(node):
            yield from visit(child, inner)

    yield from visit(tree, None)


def main() -> int:
    violations = []
    for root in SCAN_ROOTS:
        base = REPO / root
        if not base.exists():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            if any(rel.startswith(pref) for pref in EXEMPT):
                continue
            for lineno, name, kwargs in scan_file(path):
                if kwargs == "guard construction":
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — CholQRGuard constructed "
                        f"outside repro.runtime"
                    )
                elif kwargs == "queue construction":
                    if any(rel.startswith(pref) for pref in QUEUE_EXEMPT):
                        continue  # the serving package owns the queue
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — coalescing queue "
                        f"constructed outside repro.serving (configure a "
                        f"QRServer instead)"
                    )
                elif kwargs == "comm construction":
                    if any(rel.startswith(pref) for pref in COMM_EXEMPT):
                        continue  # the distributed package owns the comm
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — communicator "
                        f"constructed outside repro.distributed (use "
                        f"ExecutionPolicy(path='sharded', shards=P) instead)"
                    )
                elif kwargs == "graph construction":
                    if any(rel.startswith(pref) for pref in GRAPH_EXEMPT):
                        continue  # repro.graph and its producers own layers
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — task-graph layers "
                        f"constructed outside repro.graph / registered "
                        f"producers (emit via repro.graph.highlevel.PRODUCERS)"
                    )
                elif kwargs == "stream construction":
                    if any(rel.startswith(pref) for pref in STREAM_EXEMPT):
                        continue  # the streaming package owns the engine
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — streaming engine/"
                        f"chunk buffer constructed outside repro.streaming "
                        f"(use stream_qr / stream_chunks, or "
                        f"ExecutionPolicy(path='streaming', chunk_rows=...))"
                    )
                else:
                    violations.append(f"{rel}:{lineno}: {name}(..., {kwargs}=...)")
    if violations:
        print("layering lint: path-selection kwargs constructed outside repro.runtime:")
        for v in violations:
            print(f"  {v}")
        print(
            f"\n{len(violations)} violation(s). Pass policy=ExecutionPolicy(...) "
            "instead (see docs/architecture.md, 'Execution policy & plans')."
        )
        return 1
    print("layering lint: clean (no path-selection kwargs outside repro.runtime)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
