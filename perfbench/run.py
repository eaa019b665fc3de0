#!/usr/bin/env python3
"""molq's benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a molq checkout; molq is imported from ./src and
nothing is installed. With --trace 0 it repeats whole passes of the
workload for at least S seconds and reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it runs one pass untraced, one pass with a
span around every call into a molq module, and one traced pass in a fresh
interpreter whose exact counts must repeat, and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_NAMES, Tracer, wrapper_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# What every CLI call pays before it can work: a fresh interpreter, the
# molq import, the basis load and opening the database.
SETUP_CODE = """import sys
sys.path.insert(0, sys.argv[1])
import molq
molq.load_basis("sto-3g")
molq.EnergyDB(sys.argv[2])
"""
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: the traced pass in a fresh interpreter (see counted_pass).
    parser.add_argument("--count-pass", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def host_info(workdir: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "db_filesystem": filesystem(workdir),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    for line in open("/proc/self/maps"):
        path = line.split()[-1]
        if "openblas" not in path or ".so" not in path:
            continue
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_commit() -> str:
    """HEAD of the checkout, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def filesystem(path: Path) -> str:
    """Type of the filesystem holding `path`: fsync cost depends on it."""
    path = str(path.resolve())
    best, kind = "", "unknown"
    for line in open("/proc/mounts"):
        _, mount, fstype, *_ = line.split()
        if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
            best, kind = mount, fstype
    return f"{kind} on {best}"


def measure_setup(workdir: Path) -> float:
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(workdir / f"setup{i}")],
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(workload, db_root: Path):
    try:
        return workload.run_pass(db_root)
    finally:
        shutil.rmtree(db_root, ignore_errors=True)


def traced_pass(workload, db_root: Path):
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(workload, db_root)
    finally:
        tracer.uninstall()
    return result, tracer


def exact_counts(metrics: dict) -> dict:
    """The counts that must repeat exactly: call counts and work sizes."""
    return {name: value for name, value in metrics.items()
            if name.endswith("_calls") or name in COUNT_NAMES}


def counted_pass(args) -> dict:
    """One traced pass in a fresh interpreter with its own hash seed, so
    that a count or an energy that depends on the process shows up."""
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed + 1))
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "1", "--count-pass"]
    out = subprocess.run(command, env=env, check=True, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    return json.loads(out.stdout.strip().splitlines()[-1])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def db_latencies(passes) -> dict:
    """EnergyDB call latencies pooled over the passes, in ms."""
    def pooled(kind):
        return [ms for p in passes for ms in p.samples[kind]]

    return {
        "db.put_ms_p50": statistics.median(pooled("put")),
        "db.put_ms_p90": percentile(pooled("put"), 90),
        "db.query_ms_p50": statistics.median(pooled("query")),
        "db.get_ms_p50": statistics.median(pooled("get")),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "molq" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: {SRC / 'molq'} or BENCHMARK.json is missing; run from a molq checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import molq
    from workloads import WORKLOADS

    if not Path(molq.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported molq from {molq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.count_pass:
            workload.prepare(args.seed)
            result, tracer = traced_pass(workload, workdir / "db")
            print(json.dumps({"counts": exact_counts(tracer.layer_metrics()),
                              "fingerprint": result.fingerprint}))
            return 0
        return report(args, bench, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, bench, workload, workdir) -> int:
    print("host " + json.dumps(host_info(workdir)))
    print("inputs " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "load": "closed loop, one caller, ScanSpec.workers=1"}))
    mismatches = []
    if args.trace:
        workload.prepare(args.seed)
        untraced = run_pass(workload, workdir / "db0")
        traced, tracer = traced_pass(workload, workdir / "db1")
        passes = [untraced, traced]
        metrics = tracer.layer_metrics()
        metrics.update(db_latencies([traced]))
        metrics.update({
            "exact.fci_s": workload.fci_s,
            "db.bytes_on_disk": traced.db_bytes,
            "trace.overhead_s": len(tracer.spans) * wrapper_cost(),
            "trace.spans": len(tracer.spans),
        })
        child = counted_pass(args)
        for name, value in exact_counts(metrics).items():
            if child["counts"].get(name) != value:
                mismatches.append(f"{name}: {value} here, {child['counts'].get(name)} in a fresh process")
        if json.loads(json.dumps(traced.fingerprint)) != child["fingerprint"]:
            mismatches.append("results differ in a fresh process")
        print(f"trace wall_s untraced={untraced.wall_s:.4f} traced={traced.wall_s:.4f} "
              f"difference={traced.wall_s - untraced.wall_s:.4f} "
              f"estimated overhead={metrics['trace.overhead_s']:.4f}")
        write_spans(tracer, args)
        wanted = bench["per_layer"]
    else:
        setup_s = measure_setup(workdir)
        workload.prepare(args.seed)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(workload, workdir / f"db{len(passes)}"))
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # Printed on every workload but not gated: see perfbench/README.md.
        for name, value in db_latencies(passes).items():
            print(f"db latency {name} {value} ms")
        wanted = bench["end_to_end"]
    if any(p.fingerprint != passes[0].fingerprint for p in passes):
        mismatches.append("results differ between passes")

    for line in passes[0].lines:
        print(line)
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    for op in (op for op in passes[0].ops if not op.ok):
        defect = f" [known defect: {op.known_defect}]" if op.known_defect else ""
        print(f"FAILED {args.workload} {op.name}: {op.detail}{defect}")
    for mismatch in mismatches:
        print(f"NOT REPEATED {args.workload} {mismatch}")
    correct = not mismatches and all(op.known_defect for op in failed)
    print(f"passes {len(passes)} wall_s {[round(p.wall_s, 4) for p in passes]} "
          f"attempted {len(ops)} failed {len(failed)} failed_frac {len(failed) / len(ops):.6f} (1)")
    out = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"metric {entry['name']} {value} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": out}))
    return 0


def write_spans(tracer, args):
    """The traced pass's spans, one JSON object per line, kept beside the
    checkout's other untracked run output."""
    path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.__dict__) + "\n")
    print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
