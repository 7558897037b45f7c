"""The repository benchmark: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload (``worker.py``, which samples the same-run LAPACK
reference from its own ``refs.py`` process between ops) and, with
``--trace 1``, the remaining speed-of-light references (``refs.py
--extras``), each in its own fresh process with BLAS pinned to one
thread, from the root of a source checkout (the library is imported from
``src/``).  Prints every metric by name and unit, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``perfbench/README.md`` for the workloads and metrics.

Self-test options (``perfbench/selftest.py`` uses them):
``--inject-delay LAYER=SECONDS`` sleeps around every call into LAYER;
``--corrupt-op K`` corrupts timed op K's output before it is checked.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from blas import describe, pinned_env  # noqa: E402
from inputs import WORKLOADS  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 140
EXTRAS_TIMEOUT_S = 30

END_TO_END = {
    "op_p50_s": "s",
    "gflops": "GFLOP/s",
    "vs_lapack": "x",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "core.tsqr.busy_s": "s",
    "core.tsqr.gflops": "GFLOP/s",
    "core.jacobi_svd.busy_s": "s",
    "core.ts_svd.self_s": "s",
    "rpca.svt.self_s": "s",
    "rpca.ialm.self_s": "s",
    "rpca.ialm.rank": "count",
    "verify.guards.busy_s": "s",
    "graph.executor.busy_s": "s",
    "graph.executor.gflops": "GFLOP/s",
    "runtime.cholqr.busy_s": "s",
    "runtime.cholqr.frac_of_gram": "ratio",
    "runtime.cholqr.fallback_busy_s": "s",
    "runtime.cholqr.fallbacks": "count",
    "runtime.cholqr.accept_ratio": "ratio",
    "runtime.plan.build_s": "s",
    "streaming.busy_s": "s",
    "streaming.source_wait_s": "s",
    "streaming.chunks": "count",
    "streaming.structured_merges": "count",
    "streaming.chunk_s": "s",
    "streaming.peak_tracked_mb": "MB",
    "gpusim.modeled_s": "s",
    "gpusim.measured_over_modeled": "x",
    "ref.geqrf_s": "s",
    "ref.gram_gflops": "GFLOP/s",
    "ref.dgemm_gflops": "GFLOP/s",
    "ref.memcpy_gbs": "GB/s",
    "obs.trace_overhead": "x",
    "obs.span_coverage": "ratio",
}


class ChildError(RuntimeError):
    pass


def _child(script: str, args: list[str], env: dict, timeout: float) -> dict:
    """Run one benchmark process (and anything it starts) to completion.

    The child runs in its own session, so on timeout the whole group is
    killed and reaped.  Its last stdout line is its JSON result.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{script} timed out after {timeout} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{script} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def end_to_end(refs: dict, res: dict) -> dict:
    times = res["op_times"]
    p50 = statistics.median(times)
    return {
        "op_p50_s": p50,
        "gflops": res["flops_per_op"] * len(times) / sum(times) / 1e9,
        "vs_lapack": refs["geqrf_s"] / p50,
        "setup_s": statistics.median(res["setup_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(refs: dict, res: dict) -> dict:
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(res["layers"])
    busy = out["runtime.cholqr.busy_s"]
    if busy:
        # CholeskyQR2 makes two Gram passes; twice the Gram time is its floor.
        out["runtime.cholqr.frac_of_gram"] = 2 * refs["gram_s"] / busy
    out["ref.geqrf_s"] = refs["geqrf_s"]
    out["ref.gram_gflops"] = refs["gram_gflops"]
    out["ref.dgemm_gflops"] = refs["dgemm_gflops"]
    out["ref.memcpy_gbs"] = refs["memcpy_gbs"]
    out["obs.trace_overhead"] = statistics.median(res["traced_times"]) / statistics.median(res["op_times"])
    out["obs.span_coverage"] = res["coverage"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-delay", action="append", default=[], metavar="LAYER=SECONDS")
    p.add_argument("--corrupt-op", type=int, default=None, metavar="K")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    worker_args = common + [
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--refs", str(scratch / "refs.npz"),
    ]
    if args.trace:
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        worker_args += ["--trace-out", str(trace_path)]
    for spec in args.inject_delay:
        worker_args += ["--inject-delay", spec]
    if args.corrupt_op is not None:
        worker_args += ["--corrupt-op", str(args.corrupt_op)]
    try:
        res = _child("worker.py", worker_args, env, WORKER_TIMEOUT_S)
        refs = {"geqrf_s": statistics.median(res["geqrf_samples"])}
        if args.trace:
            refs.update(_child("refs.py", ["--extras"] + common, env, EXTRAS_TIMEOUT_S))
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  inputs {res['inputs_digest']}")
    print(f"{describe(res['blas'])}  (references: {describe(res['ref_blas'])})")
    print(f"library workers {res['effective_workers']}; closed loop, 1 caller")
    q1, q2, q3 = _quartiles(res["op_times"])
    print(f"op seconds: p25 {q1:.4f}  p50 {q2:.4f}  p75 {q3:.4f}  n={len(res['op_times'])}")
    print(f"geqrf seconds: {', '.join(f'{t:.4f}' for t in res['geqrf_samples'])}")
    if args.trace:
        metrics, units = per_layer(refs, res), PER_LAYER
        print(
            f"memcpy buffers {refs['memcpy_buffer_mib']:.0f} MiB each "
            f"(4x the {refs['llc_mib']:.0f} MiB LLC); trace written to {trace_path}"
        )
    else:
        metrics, units = end_to_end(refs, res), END_TO_END
    fail_frac = res["failed"] / res["attempted"]
    print(f"fail_frac {fail_frac:.4f}  ({res['failed']} of {res['attempted']} ops)")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
