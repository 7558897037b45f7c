"""One workload in its own process: set-up, closed-loop timing, checks.

A single caller thread issues each op only after the previous one has
finished.  Every op's output is checked (untimed); a wrong answer counts
as a failed op.  With ``--trace 0`` the loop runs untraced for
``--seconds``.  With ``--trace 1`` it runs untraced for half of that and
then traced for the other half (benchmark-side spans plus the library's
own ``repro.obs`` capture), and the two halves' outputs must be
bit-identical.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
       --trace 0|1 --refs R.npz [--trace-out FILE] [--inject-delay LAYER=S]
       [--corrupt-op K]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from blas import check_pin  # noqa: E402
from inputs import (  # noqa: E402
    AUTO_CYCLE,
    STREAM_BLOCK,
    WORKLOADS,
    make_inputs,
    qr_flops,
)
from spans import OP, Layers, Tracer, coverage, layer_totals, write_chrome_trace  # noqa: E402

import numpy as np  # noqa: E402  (after the pin variables are in the environment)

MIN_OPS = 3  # every timed loop runs at least this many ops
SETUPS = 3  # set-ups per trace-0 run; setup_s is their median
EPS = np.finfo(np.float64).eps
R_RTOL = 1e3 * EPS  # R vs LAPACK R (well-conditioned inputs), Frobenius-relative
ORTH_TOL = 10 * 100 * EPS  # ||Q^T Q - I||_F and ||A - QR||_F / ||A||_F, n = 100
RES_RTOL = 1e-9  # IALM residual vs the np.linalg.svd reference, relative
# Loop time between two reference samples, in units of the last sample's
# own time: the reference then adds about a quarter to the loop.
REF_SPACING = 4.0


class Run:
    """Per-process bookkeeping: op counts, failures, the corruption hook."""

    def __init__(self, corrupt_op: int | None) -> None:
        self.attempted = 0
        self.failed = 0
        self.timed = 0
        self.corrupt_op = corrupt_op

    def judge(self, ok_fn, out, timed: bool) -> None:
        """Check one op's output; ``out is None`` means the op raised."""
        self.attempted += 1
        corrupt = timed and self.timed == self.corrupt_op
        self.timed += timed
        try:
            ok = out is not None and bool(ok_fn(out, corrupt))
        except Exception:
            traceback.print_exc()
            ok = False
        self.failed += not ok


def _corrupted(R: np.ndarray) -> np.ndarray:
    """A copy of R with its top-right entry (inside the triangle) perturbed."""
    R = np.array(R, dtype=float)
    R[0, -1] += 1e-3 * (np.abs(R).max() + 1.0)
    return R


def same_r(R: np.ndarray, R_ref: np.ndarray) -> bool:
    """R equals the LAPACK R up to row signs."""
    n = R_ref.shape[1]
    R = np.triu(np.asarray(R)[:n])
    R_ref = np.triu(R_ref[:n])
    s = np.where(np.diag(R) < 0, -1.0, 1.0)
    s_ref = np.where(np.diag(R_ref) < 0, -1.0, 1.0)
    err = np.linalg.norm(s[:, None] * R - s_ref[:, None] * R_ref)
    return err <= R_RTOL * np.linalg.norm(R_ref)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Reference:
    """The same-run LAPACK reference: ``refs.py --serve`` in its own process.

    The worker asks it for one timed ``geqrf`` before and after each
    timed loop and between ops (never during one) once REF_SPACING times
    the last sample's duration has passed, so the samples interleave with
    the ops they are compared with.
    """

    def __init__(self, workload: str, seed: int, r_out: str | None) -> None:
        cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.py"),
               "--serve", "--workload", workload, "--seed", str(seed)]
        if r_out:
            cmd += ["--r-out", r_out]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.blas: dict = {}
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def wait_ready(self) -> None:
        """Block until the reference has its inputs and saved its R matrices."""
        self.blas = self._read()["blas"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited with code {self.proc.wait()}")
        return json.loads(line)

    def sample(self) -> None:
        self.proc.stdin.write("geqrf\n")
        self.proc.stdin.flush()
        self.samples.append(self._read()["geqrf_s"])
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= REF_SPACING * self.samples[-1]:
            self.sample()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class _Stop(Exception):
    """Ends an IALM run from its callback once the loop has measured enough."""


# ---------------------------------------------------------------------------
# QR-type workloads: caqr_table1, auto_mixed_cond, stream_soak
# ---------------------------------------------------------------------------


class QRWorkload:
    """Hooks for one QR-type workload; ``op(state, layers, i)`` is one op."""

    unit = 1  # timed loops stop only at a multiple of this many ops
    warm_ops = (0,)  # op indices run (untimed) during set-up

    def __init__(self, inputs, ref_R) -> None:
        self.inputs = inputs
        self.ref_R = ref_R
        self.flops = qr_flops(*inputs.qr_shape)

    def build(self, layers):
        return None

    def op(self, state, layers, i):
        raise NotImplementedError

    def check(self, i, out, corrupt: bool) -> bool:
        R = _corrupted(out.R) if corrupt else out.R
        return same_r(R, self.ref_R[i % len(self.ref_R)])

    def fingerprint(self, out) -> np.ndarray:
        """The output compared bit for bit between untraced and traced ops."""
        return np.array(out.R)

    def layer_metrics(self, state, spans, last, op_p50: float) -> dict:
        """Workload-specific per-layer metrics from the traced half."""
        return {}


class CaqrTable1(QRWorkload):
    path = "lookahead"
    factor_layer = "graph.executor"  # the layer plan.factor runs in

    def build(self, layers):
        from repro import ExecutionPolicy, plan_qr

        m, n = self.inputs.qr_shape
        return layers.call("runtime.plan", plan_qr, m, n, policy=ExecutionPolicy(path=self.path))

    def matrix(self, i):
        return self.inputs.qr[i % 2]

    def op(self, plan, layers, i):
        from repro.verify.guards import validate_matrix

        A = layers.call(
            "verify.guards",
            validate_matrix,
            self.matrix(i),
            where="QRPlan.execute",
            nonfinite=plan.policy.nonfinite,
        )
        return layers.call(self.factor_layer, plan.factor, A, validated=True)

    def layer_metrics(self, plan, spans, last, op_p50):
        modeled = plan.simulate().seconds
        return {"gpusim.modeled_s": modeled, "gpusim.measured_over_modeled": op_p50 / modeled}


class AutoMixedCond(CaqrTable1):
    path = "auto"
    factor_layer = "runtime.cholqr"
    unit = AUTO_CYCLE
    warm_ops = (0, AUTO_CYCLE - 1)

    @staticmethod
    def ill(i: int) -> bool:
        return i % AUTO_CYCLE == AUTO_CYCLE - 1

    def matrix(self, i):
        return self.inputs.ill if self.ill(i) else self.inputs.qr[i % 2]

    def check(self, i, out, corrupt):
        if not self.ill(i):
            return super().check(i, out, corrupt)
        # Beyond the CholeskyQR2 guard: the op must take the tree and
        # still return a machine-precision orthogonal factorization.
        A = self.matrix(i)
        Q = out.form_q()
        R = _corrupted(out.R) if corrupt else out.R
        n = A.shape[1]
        orth = np.linalg.norm(Q.T @ Q - np.eye(n))
        resid = np.linalg.norm(A - Q @ R) / np.linalg.norm(A)
        return out.fell_back and orth <= ORTH_TOL and resid <= ORTH_TOL

    def fingerprint(self, out):
        return np.append(np.ravel(out.R), float(out.fell_back))

    def layer_metrics(self, plan, spans, last, op_p50):
        cholqr = [s for s in spans if s.name == "runtime.cholqr"]
        fell = {s.parent for s in spans if s.name == "graph.executor"}
        accepted = [s.dur_ns / 1e9 for s in cholqr if s.id not in fell]
        fallback = [s.dur_ns / 1e9 for s in cholqr if s.id in fell]
        out = super().layer_metrics(plan, spans, last, op_p50)
        out.update(
            {
                "runtime.cholqr.busy_s": statistics.fmean(accepted) if accepted else 0.0,
                "runtime.cholqr.fallback_busy_s": statistics.fmean(fallback) if fallback else 0.0,
                "runtime.cholqr.accept_ratio": len(accepted) / len(cholqr) if cholqr else 0.0,
            }
        )
        return out


class StreamSoak(QRWorkload):
    def op(self, state, layers, i):
        from repro.streaming import stream_qr

        return layers.call("streaming", stream_qr, self.source(layers, self.inputs.qr[i % 2]))

    @staticmethod
    def source(layers, X):
        """The benchmark's own producer: 2048-row blocks of a pre-generated stream."""
        tracer = layers.tracer
        for start in range(0, X.shape[0], STREAM_BLOCK):
            sid = tracer.begin("streaming.source") if tracer is not None else None
            block = X[start : start + STREAM_BLOCK]
            if sid is not None:
                tracer.end(sid)
            yield block

    def layer_metrics(self, state, spans, last, op_p50):
        t = layer_totals(spans)
        calls = t["streaming"]["calls"]
        wait = t.get("streaming.source", {"busy_s": 0.0})["busy_s"] / calls
        busy = t["streaming"]["busy_s"] / calls - wait
        return {
            "streaming.busy_s": busy,
            "streaming.source_wait_s": wait,
            "streaming.chunks": last.n_chunks,
            "streaming.structured_merges": last.structured_merges,
            "streaming.chunk_s": busy / last.n_chunks,
            "streaming.peak_tracked_mb": last.peak_tracked_bytes / 1e6,
        }


def attempt(fn, *args):
    """Call one op; an op that raises returns ``None`` (a failed op)."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


def closed_loop(run, wl, state, layers, ref, seconds, fingerprints=None):
    """Issue ops back to back until ``seconds`` of op time (at least
    MIN_OPS ops, whole units), sampling the reference between ops."""
    times, last = [], None
    tracer = layers.tracer
    ref.sample()
    i = 0
    while i < MIN_OPS or sum(times) < seconds or i % wl.unit:
        root = None
        if tracer is not None:
            tracer.op = i
            root = tracer.begin(OP)
        t0 = time.perf_counter()
        out = attempt(wl.op, state, layers, i)
        t1 = time.perf_counter()
        if root is not None:
            tracer.end(root)
        if out is not None:
            times.append(t1 - t0)
            last = out
            if fingerprints is not None and i < 2 * wl.unit:
                fingerprints[i] = wl.fingerprint(out)
        run.judge(lambda o, c, i=i: wl.check(i, o, c), out, timed=True)
        i += 1
        del out
        ref.maybe_sample()
    ref.sample()
    return times, last


def run_qr(args, run, wl, ref) -> dict:
    layers = Layers(delays=args.delays)
    setups, builds = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        state = wl.build(layers)
        builds.append(time.perf_counter() - t0)
        for i in wl.warm_ops:
            out = attempt(wl.op, state, layers, i)
            run.judge(lambda o, c, i=i: wl.check(i, o, c), out, timed=False)
        setups.append(time.perf_counter() - t0)
    result = {"setup_s": setups, "flops_per_op": wl.flops}
    if not args.trace:
        result["op_times"], _ = closed_loop(run, wl, state, layers, ref, args.seconds)
        result["peak_rss_mb"] = peak_rss_mb()
        return result

    from repro import obs

    plain_fp, traced_fp = {}, {}
    result["op_times"], _ = closed_loop(run, wl, state, layers, ref, args.seconds / 2, plain_fp)
    tracer = Tracer()
    layers.tracer = tracer
    from repro.runtime import count_fallbacks

    with obs.capture() as session, count_fallbacks() as fallbacks:
        traced, last = closed_loop(run, wl, state, layers, ref, args.seconds / 2, traced_fp)
    layers.tracer = None
    lib_spans = session.trace.spans
    _lift_fallbacks(tracer, lib_spans)
    spans = tracer.spans
    result.update(
        traced_times=traced,
        bit_identical=_same_outputs(plain_fp, traced_fp),
        coverage=coverage(spans),
        layers=_common_layer_metrics(spans, wl.flops),
    )
    result["layers"].update(
        wl.layer_metrics(state, spans, last, statistics.median(result["op_times"])),
        **{
            "runtime.plan.build_s": statistics.median(builds) if state is not None else 0.0,
            "runtime.cholqr.fallbacks": fallbacks.fallbacks,
        },
    )
    if args.trace_out:
        write_chrome_trace(args.trace_out, spans, lib_spans, {"workload": args.workload})
    return result


def _lift_fallbacks(tracer: Tracer, lib_spans) -> None:
    """Attach the library's ``cholqr.fallback`` spans (the tree the auto
    path falls back to) as ``graph.executor`` children of the benchmark's
    enclosing ``runtime.cholqr`` span."""
    cholqr = [s for s in tracer.spans if s.name == "runtime.cholqr"]
    for ls in lib_spans:
        if ls.name != "cholqr.fallback":
            continue
        end = ls.start_ns + ls.dur_ns
        for s in cholqr:
            if s.start_ns <= ls.start_ns and end <= s.end_ns:
                tracer.add("graph.executor", ls.start_ns, end, s.id)
                break


def _same_outputs(a: dict, b: dict) -> bool:
    common = a.keys() & b.keys()
    return bool(common) and all(np.array_equal(a[i], b[i]) for i in common)


def _common_layer_metrics(spans, flops: float) -> dict:
    """Per-call busy seconds of the layers every QR-type op may cross."""
    t = layer_totals(spans)
    out = {}
    for name in ("verify.guards", "graph.executor"):
        if name in t:
            out[f"{name}.busy_s"] = t[name]["busy_s"] / t[name]["calls"]
    if "graph.executor" in t:
        out["graph.executor.gflops"] = t["graph.executor"]["calls"] * flops / t["graph.executor"]["busy_s"] / 1e9
    return out


# ---------------------------------------------------------------------------
# rpca_video
# ---------------------------------------------------------------------------


def _ialm(D, layers, ref, stop, tracer=None):
    """One IALM run driven through the benchmark's layer gateway.

    ``stop(ops_done, op_seconds)`` ends the run at an iteration callback.
    Iteration 1 is set-up; op k is iteration k + 1, timed from the end of
    the previous callback (after any reference sample) to its own
    callback.  Returns (setup seconds, per-op seconds, residuals, ranks).
    """
    from repro.core import jacobi_svd, tall_skinny_svd, tsqr_qr
    from repro.rpca import rpca_ialm, singular_value_threshold

    ranks, residuals, starts, ends = [], [], [], []
    root = []

    def qr(A):
        return layers.call("core.tsqr", tsqr_qr, A)

    def svd_small(R):
        return layers.call("core.jacobi_svd", jacobi_svd, R)

    def svd(X):
        return layers.call("core.ts_svd", tall_skinny_svd, X, qr=qr, svd_small=svd_small)

    def svt(X, tau):
        L, rank = layers.call("rpca.svt", singular_value_threshold, X, tau, svd=svd)
        ranks.append(rank)
        return L, rank

    def op_seconds():
        return [(e - s) / 1e9 for s, e in zip(starts, ends[1:])]

    def callback(it, res):
        now = time.perf_counter_ns()
        residuals.append(res)
        ends.append(now)
        if root:
            tracer.end(root.pop(), now)
        if stop(len(ends) - 1, sum(op_seconds())):
            if ref is not None:
                ref.sample()
            raise _Stop
        if len(ends) == 1:
            ref.sample()
        else:
            ref.maybe_sample()
        start = time.perf_counter_ns()
        starts.append(start)
        if tracer is not None:
            layers.tracer = tracer
            tracer.op = it
            root.append(tracer.begin("rpca.ialm", start))

    t0 = time.perf_counter_ns()
    try:
        rpca_ialm(D, tol=0.0, max_iter=10**6, svt=svt, callback=callback)
    except _Stop:
        pass
    finally:
        layers.tracer = None
    return (ends[0] - t0) / 1e9, op_seconds(), residuals, ranks


def run_rpca(args, run, inputs, ref) -> dict:
    from repro.rpca import rpca_ialm

    D = inputs.qr[0]
    layers = Layers(delays=args.delays)

    def enough(seconds):
        return lambda ops, op_seconds: ops >= MIN_OPS and op_seconds >= seconds

    trajectories = []
    result = {"flops_per_op": qr_flops(*D.shape)}
    if not args.trace:
        setups = []
        for _ in range(SETUPS - 1):
            s, _, res, rk = _ialm(D, layers, None, lambda ops, op_seconds: True)
            setups.append(s)
            trajectories.append((res, rk, False))
        s, times, res, rk = _ialm(D, layers, ref, enough(args.seconds))
        result.update(setup_s=setups + [s], op_times=times, peak_rss_mb=peak_rss_mb())
        trajectories.append((res, rk, True))
    else:
        _, times, res, rk = _ialm(D, layers, ref, enough(args.seconds / 2))
        trajectories.append((res, rk, True))
        tracer = Tracer()
        from repro import obs

        with obs.capture() as session:
            _, traced, res_t, rk_t = _ialm(D, layers, ref, enough(args.seconds / 2), tracer)
        trajectories.append((res_t, rk_t, True))
        k = min(len(res), len(res_t))
        spans = tracer.spans
        t = layer_totals(spans)
        n_ops = t["rpca.ialm"]["calls"]
        per_op = {name: (v["busy_s"] / n_ops, v["self_s"] / n_ops) for name, v in t.items()}
        result.update(
            op_times=times,
            traced_times=traced,
            bit_identical=res[:k] == res_t[:k] and rk[:k] == rk_t[:k],
            coverage=coverage(spans),
            layers={
                "core.tsqr.busy_s": per_op["core.tsqr"][0],
                "core.tsqr.gflops": result["flops_per_op"] / per_op["core.tsqr"][0] / 1e9,
                "core.jacobi_svd.busy_s": per_op["core.jacobi_svd"][0],
                "core.ts_svd.self_s": per_op["core.ts_svd"][1],
                "rpca.svt.self_s": per_op["rpca.svt"][1],
                "rpca.ialm.self_s": per_op["rpca.ialm"][1],
                "rpca.ialm.rank": rk_t[-1],
            },
        )
        if args.trace_out:
            write_chrome_trace(
                args.trace_out, spans, session.trace.spans, {"workload": args.workload}
            )

    # Untimed reference: the same IALM with LAPACK's SVD in the threshold.
    iters = max(len(res) for res, _, _ in trajectories)
    lapack = rpca_ialm(
        D,
        tol=0.0,
        max_iter=iters,
        svd=lambda X: np.linalg.svd(X, full_matrices=False),
    )
    for res, rk, timed in trajectories:
        for j in range(len(res)):
            def ok(out, corrupt, j=j):
                r, rank = out
                if corrupt:
                    r *= 1.0 + 1e-3
                want = lapack.residuals[j]
                return rank == lapack.ranks[j] and abs(r - want) <= RES_RTOL * want

            run.judge(ok, (res[j], rk[j]), timed=timed and j > 0)
    return result


# ---------------------------------------------------------------------------


QR_WORKLOADS = {
    "caqr_table1": CaqrTable1,
    "auto_mixed_cond": AutoMixedCond,
    "stream_soak": StreamSoak,
}


def _delay(spec: str) -> tuple[str, float]:
    name, _, seconds = spec.partition("=")
    return name, float(seconds)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--refs", required=True, help="where the reference process saves LAPACK R")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--inject-delay", type=_delay, action="append", default=[],
                   help="self-test: sleep SECONDS around every call into LAYER")
    p.add_argument("--corrupt-op", type=int, default=None,
                   help="self-test: corrupt the output of timed op K before its check")
    args = p.parse_args(argv)
    args.delays = dict(args.inject_delay)
    if args.trace_out:
        from pathlib import Path

        args.trace_out = Path(args.trace_out)

    blas = check_pin()
    from repro import ExecutionPolicy

    workers = ExecutionPolicy().effective_workers
    if workers > os.cpu_count():
        raise RuntimeError(f"library worker pool ({workers}) exceeds nproc ({os.cpu_count()})")
    qr_workload = args.workload != "rpca_video"
    ref = Reference(args.workload, args.seed, args.refs if qr_workload else None)
    run = Run(args.corrupt_op)
    try:
        inputs = make_inputs(args.workload, args.seed)  # while the reference starts
        ref.wait_ready()
        if qr_workload:
            with np.load(args.refs) as z:
                ref_R = [z[f"arr_{k}"] for k in range(len(z.files))]
            result = run_qr(args, run, QR_WORKLOADS[args.workload](inputs, ref_R), ref)
        else:
            result = run_rpca(args, run, inputs, ref)
    finally:
        ref.close()
    if args.trace and not result["bit_identical"]:
        print("traced outputs differ from untraced outputs", file=sys.stderr)
        run.failed += 1
    result.update(
        blas=blas,
        ref_blas=ref.blas,
        geqrf_samples=ref.samples,
        effective_workers=workers,
        inputs_digest=inputs.digest(),
        attempted=run.attempted,
        failed=run.failed,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
