"""ternhash benchmark: one workload per run, closed loop, one client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the repository's src/. With
--trace 0 the run times the workload's operation in process CPU seconds and
prints the end-to-end metrics; with --trace 1 it alternates untraced
operations with operations traced at the layer boundaries, makes isolated
calls, and prints the per-layer metrics. Either way every output is checked
against the benchmark's oracle. Human-readable lines come first; the last
line of stdout is the JSON result. The full record and, traced, the spans go to .bench_out/.
BENCHMARK.json names the metrics, units and bounds; benchmarks/layer_map.json
says which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNIT_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read directly; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ternhash" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'ternhash'}", file=sys.stderr)
        return 2
    # The BLAS thread count is pinned before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names or args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    for m in spec:
        tracing.check_metric_name(m["name"])

    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT)
    tracer = tracing.Tracer() if args.trace else None
    try:
        state, setup_times = workloads.set_up(wl, args.seed, work, 1 if tracer else wl.setup_repeats, tracer)
        run = workloads.measure(wl, state, args.seconds, tracer)
        errors = workloads.check(wl, state, run)
        if tracer:
            samples = workloads.per_layer(wl, state, tracer, run)
        else:
            samples = workloads.end_to_end(state, run, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in spec if not samples.get(m["name"])]
    if missing:
        errors.append(f"no samples for {missing}")
    failed = len(run["failures"])
    attempted = len(run["op_s"]) + len(run["traced_s"]) + failed
    metrics = {}
    for m in spec:
        values = samples.get(m["name"]) or [float("nan")]
        value = statistics.median(values) * UNIT_SCALE.get(m["unit"], 1.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<40} {value:>16.6f} {m['unit']:<8} n={len(values)}")
    extra = {
        "setup_samples_s": setup_times,
        "op_cpu_samples_s": run["op_s"],
        "op_wall_samples_s": run["op_wall_s"],
        "traced_samples_s": run["traced_s"],
        "fail_frac": failed / attempted,
    }
    if run["results"] and isinstance(run["results"][0].detail, float):
        extra["map_margin"] = run["results"][0].detail
    if "share.bench" in run:
        extra["share.bench"] = run["share.bench"]
    for key, value in extra.items():
        print(f"{key:<40} {value}")
    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    for e in errors:
        print(f"check failed: {e}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "extra": extra, "errors": errors, "result": result,
              "samples": {k: len(v) for k, v in samples.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer:
        tracer.dump(out_dir / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
