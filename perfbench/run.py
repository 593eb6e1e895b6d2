#!/usr/bin/env python3
"""faceverify benchmark: one workload, timed in fresh processes.

    python3 perfbench/run.py --workload verify_d320 --seed 0 --seconds 20 --trace 0

Generates the workload's inputs from --seed (once; they are reused),
runs one untimed set-up to warm the file cache and bytecode, then runs
whole jobs, each in a fresh single process with the BLAS thread count
pinned, until --seconds have passed.  Each job reports set-up time,
job wall time and peak RSS; the medians over the jobs are the metrics.
With --trace 1 the jobs run under the span tracer and the metrics are
the per-layer figures instead.  A job that exits non-zero counts as
failed.  The last successful job's outputs are then checked
(perfbench/checks.py), and every job's outputs must be byte-identical.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1
THREAD_ENV = {v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
JOB_TIMEOUT_S = 120


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(workload: str, inputs: Path, out: Path, seed: int, tag: str, *flags: str) -> int:
    log = WORK / "runs" / workload / f"{tag}.log"
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.job", "--workload", workload, "--inputs", str(inputs),
             "--out", str(out), "--seed", str(seed), "--result", str(log.with_suffix(".json")), *flags],
            cwd=ROOT, env=job_env(), stdout=fh, stderr=subprocess.STDOUT, timeout=JOB_TIMEOUT_S,
        )
    if proc.returncode != 0:
        sys.stderr.write(log.read_text(encoding="utf-8"))
    return proc.returncode


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy loads here (for the checks); every job inherits it
    os.environ.update(THREAD_ENV)

    if not (ROOT / "src" / "faceverify" / "__init__.py").is_file():
        print(f"perfbench: no faceverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, inputs, tracing

    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    in_dir = inputs.ensure_inputs(WORK, args.workload, args.seed)
    run_dir = WORK / "runs" / args.workload
    out, last_ok = run_dir / "out", run_dir / "last_ok"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    if run_job(args.workload, in_dir, out, args.seed, "warmup", "--setup-only") != 0:
        print("perfbench: set-up failed", file=sys.stderr)
        return 1

    attempted = failed = 0
    results, digests, spawn_s = [], set(), []
    start = time.perf_counter()
    # whole jobs only: start another while it should end within --seconds
    while attempted == 0 or time.perf_counter() - start + statistics.median(spawn_s) <= args.seconds:
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        tag = f"job{attempted:03d}"
        flags = ["--spans", str(run_dir / f"{tag}.spans.json")] if args.trace else []
        attempted += 1
        rc = run_job(args.workload, in_dir, out, args.seed, tag, *flags)
        spawn_s.append(time.perf_counter() - t0)
        if rc != 0:
            failed += 1
            continue
        result = json.loads((run_dir / f"{tag}.json").read_text(encoding="utf-8"))
        if args.trace:
            doc = json.loads((run_dir / f"{tag}.spans.json").read_text(encoding="utf-8"))
            result["layers"] = tracing.reduce_spans(doc)
        results.append(result)
        digests.add(digest(out))
        shutil.rmtree(last_ok, ignore_errors=True)
        out.rename(last_ok)
        print(f"{tag}: setup_s={result['setup_s']:.4f} wall_s={result['wall_s']:.4f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f}")
    if not results:
        print("perfbench: every job failed", file=sys.stderr)
        return 1

    correct = True
    try:
        checks.run_checks(args.workload, in_dir, last_ok, results[-1], args.seed)
    except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:  # a malformed output fails its check
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    if len(digests) != 1:
        print("perfbench: jobs of one seed wrote different outputs", file=sys.stderr)
        correct = False
    print(f"checks: {'pass' if correct else 'FAIL'}; jobs={len(results)} cores={os.cpu_count()} "
          f"blas_threads={BLAS_THREADS} python={sys.version.split()[0]}")

    kind = "per_layer" if args.trace else "end_to_end"
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    figures = [r["layers"] if args.trace else r for r in results]
    metrics = {m["name"]: {"value": statistics.median(f[m["name"]] for f in figures), "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
