"""curvalign benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload desk-euclid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each workload runs in a fresh
worker process (``worker.py``) with BLAS pinned to one thread in that
process's environment only.  With ``--trace 0`` the result holds the
end-to-end metrics listed in BENCHMARK.json; set-up time is the median over
several fresh workers.  Those times are given at the reference speed: each
is scaled by PACE_REF_MS over the time of a fixed reference loop
(``worker.Pace``) measured next to it, which cancels most of the shared
host's drift; the wall-clock figures are printed beside them.  With
``--trace 1`` the worker alternates untraced and traced repetitions and the
result holds the per-layer metrics derived from the spans (written to
``.perfbench_out/``).  Every run checks its
outputs; a failed check counts against ``failed`` and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_WORKERS = 6       # set-up-only starts, besides the measuring worker
TAIL_BEYOND = 10        # samples a tail percentile must leave above it
DEADLINE_S = 170.0
PACE_REF_MS = 15.0      # worker.Pace's median on the reference machine (README)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def start_worker(args, workdir: Path, extra: list, timeout: float) -> tuple[float, dict]:
    """Run worker.py to completion; return its start time and result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir), *extra]
    spawned = time.time()
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, timeout=timeout,
                          text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that
    percentile; the maximum (100) when that percentile would fall below
    the median, i.e. with fewer than 2 * TAIL_BEYOND samples."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < len(ordered) / 2:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "curvalign").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_anchors(workload: str, seed: int, anchors: dict) -> str | None:
    """Every run of one seed on one source tree must give the same result."""
    OUT.mkdir(exist_ok=True)
    store = OUT / "anchors.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{code_digest()}/{workload}/{seed}"
    if key in known:
        if known[key] != anchors:
            return f"result anchors {anchors} differ from an earlier run's {known[key]}"
        return None
    known[key] = anchors
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "curvalign" / "__init__.py").is_file():
        print(f"error: no curvalign sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    began = time.monotonic()
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        setups = []
        extra = []
        if args.trace:
            extra = ["--trace-out", str(OUT / f"trace-{args.workload}-{args.seed}.csv")]
        else:
            for _ in range(SETUP_WORKERS):
                spawned, res = start_worker(args, workdir, ["--setup-only"], 60)
                setups.append((res["ready"] - spawned, res["setup_pace_ms"]))
        spawned, res = start_worker(args, workdir, extra,
                                    DEADLINE_S - (time.monotonic() - began))
        setups.append((res["ready"] - spawned, res.get("setup_pace_ms")))

    reasons = list(res["reasons"])
    if "step_ms" not in res or (args.trace and "trace" not in res):
        print("error: the workload stopped before it could be measured: "
              + "; ".join(reasons), file=sys.stderr)
        return 1
    failed = res["failed"]
    mismatch = check_anchors(args.workload, args.seed, res["anchors"])
    if mismatch:
        reasons.append(mismatch)
        failed = res["attempted"]

    env = res["env"]
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} pinned={','.join(f'{v}=1' for v in THREAD_VARS)} "
          f"seed={args.seed} workload={args.workload} trace={args.trace}")
    step_ms = res["step_ms"]
    op = "step" if args.workload != "score-eager" else "scoring pass"
    if args.trace:
        layers = res["trace"]
        traced_p50 = statistics.median(res["traced_step_ms"])
        untraced_p50 = statistics.median(step_ms)
        derived = dict(layers["metrics"], **{
            "data.dataset_ms": res["dataset_ms"],
            "trace.overhead_pct": 100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        })
        metrics = {m["name"]: derived[m["name"]] for m in spec["per_layer"]}
        print(f"traced ops ({op}): {layers['steps']}, mean {layers['step_mean_ms']:.3f} ms, "
              f"self times + step_other = {layers['accounted_ms']:.3f} ms; "
              f"p50 traced {traced_p50:.3f} ms vs untraced {untraced_p50:.3f} ms "
              f"({len(step_ms)} untraced ops)")
        tape = layers["tape"]
        if tape:
            print(f"tape: {tape['nodes']} nodes; {tape['tape_bytes']} B distinct values; "
                  f"adjoints {tape['adjoint_bytes']} B, of which {tape['useful_adjoint_bytes']} B "
                  f"belong to nodes that depend on a parameter leaf")
    else:
        paced_ms = [t * PACE_REF_MS / p for t, p in zip(step_ms, res["pace_ms"], strict=True)]
        tail_ms, tail_pct = tail(paced_ms)
        metrics = {
            "setup_s": statistics.median(t * PACE_REF_MS / p for t, p in setups),
            "rows_per_s": res["rows"] / (sum(paced_ms) / 1e3),
            "step_ms.p50": statistics.median(paced_ms),
            "step_ms.tail": tail_ms,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        pace_ms = statistics.median(res["pace_ms"])
        print(f"times at the reference speed: x {PACE_REF_MS} ms / the reference loop's time "
              f"next to each; the loop's median here {pace_ms:.3f} ms "
              f"(set-up {statistics.median(p for _, p in setups):.3f} ms)")
        print(f"setup_s: median of {len(setups)} fresh workers; wall "
              f"{['%.3f' % t for t, _ in setups]} s")
        print(f"rows_per_s: {res['rows']} rows "
              f"{'trained' if op == 'step' else 'scored'} in {res['busy_s']:.3f} s "
              f"of {op} wall time, {res['rows'] / res['busy_s']:.6g} rows/s wall")
        print(f"step_ms: one {op}; p50 and tail=p{tail_pct:.1f} over {len(step_ms)} samples"
              + (" (the maximum: fewer than 20 samples)" if tail_pct == 100 else "")
              + f"; wall p50 {statistics.median(step_ms):.6g} ms, tail {tail(step_ms)[0]:.6g} ms")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {failed / max(res['attempted'], 1):.6g} "
          f"({failed} failed of {res['attempted']} {'steps' if op == 'step' else 'rows'})")
    print(f"anchors: {json.dumps(res['anchors'])}")
    for reason in reasons:
        print(f"check failed: {reason}")
    correct = failed == 0 and not reasons
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
