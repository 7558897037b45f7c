"""Self-tests of the benchmark itself (about two minutes on 2 cores).

    python3 perfbench/selftest.py

1. A delay injected around one layer's public call (``verify.guards``)
   moves that layer's per-layer metric and ``op_p50_s`` on a workload that
   crosses the layer (``caqr_table1``), and leaves ``op_p50_s`` of a
   workload that bypasses it (``stream_soak``) within its bound.
2. A corrupted op output counts as a failed op.
3. Two seeds give different inputs and the same metric names.

Prints one line per check and exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = 3
DELAY_LAYER, DELAY_S = "verify.guards", 0.3


def bench(workload: str, seed: int, trace: int, *extra: str) -> tuple[dict, str]:
    """One run.py invocation: (final JSON line, inputs digest)."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace), *extra,
        ],
        cwd=HERE.parent,
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[0].split("inputs ")[-1]


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def main() -> int:
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    }
    delay = ["--inject-delay", f"{DELAY_LAYER}={DELAY_S}"]
    checks = []

    base, _ = bench("caqr_table1", 1, 0)
    slow, _ = bench("caqr_table1", 1, 0, *delay)
    moved = value(slow, "op_p50_s") - value(base, "op_p50_s")
    checks.append((f"caqr_table1 op_p50_s moves by the delay ({moved:+.3f} s)", moved >= 2 / 3 * DELAY_S))

    base_t, _ = bench("caqr_table1", 1, 1)
    slow_t, _ = bench("caqr_table1", 1, 1, *delay)
    name = f"{DELAY_LAYER}.busy_s"
    moved = value(slow_t, name) - value(base_t, name)
    checks.append((f"caqr_table1 {name} moves by the delay ({moved:+.3f} s)", moved >= 2 / 3 * DELAY_S))

    s_base, digest1 = bench("stream_soak", 1, 0)
    s_slow, _ = bench("stream_soak", 1, 0, *delay)
    change = value(s_slow, "op_p50_s") / value(s_base, "op_p50_s") - 1
    checks.append(
        (f"stream_soak op_p50_s unchanged ({change:+.3f} vs bound {bounds['op_p50_s']})",
         abs(change) <= bounds["op_p50_s"])
    )
    checks.append(("undelayed runs are correct", all(r["correct"] for r in (base, base_t, s_base))))

    bad, digest2 = bench("stream_soak", 2, 0, "--corrupt-op", "1")
    checks.append(
        (f"corrupted op counted ({bad['failed']} of {bad['attempted']} failed)",
         bad["failed"] == 1 and not bad["correct"])
    )
    checks.append(
        (f"seeds 1 and 2 give different inputs ({digest1} vs {digest2}), same metric names",
         digest1 != digest2 and s_base["metrics"].keys() == bad["metrics"].keys())
    )

    for text, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {text}")
    failed = [text for text, ok in checks if not ok]
    print("self-test: ok" if not failed else f"self-test: {len(failed)} check(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
