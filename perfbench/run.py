"""hlqr benchmark: time to a gain (or certificate) that passes its check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hlqr is imported from its ``src/``. The
run pins BLAS and hlqr to one thread, generates the workload's inputs from
the seed, runs one untimed warm-up cycle at N=2, then runs cycles of the
workload's two operations in a closed loop for ``--seconds``: after the
first ``MIN_CYCLES``, a cycle is started only while it is expected to end
in time, so a run can outlast ``--seconds`` by its first cycles.
Every operation's output is checked outside its timed interval; one that
raises or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics:

- ``primary_s``, ``secondary_s``: median wall time of the workload's two
  operations (see ``workloads.WORKLOADS``; the detail line names them,
  e.g. ``hier_solve_s`` and ``oracle_s``);
- ``setup_s``: median over fresh interpreters of importing hlqr and
  generating the inputs from the seed;
- ``peak_rss_mb``: peak resident memory of the workload process.

``--trace 1`` runs one cycle untraced and one traced, reports the
per-layer metrics of ``spans.PER_LAYER`` from the traced cycle and the
tracing overhead, and fails the run if tracing changed the gain.

The last line of stdout is the JSON result; the line before it holds the
detail (environment fingerprint, per-operation samples, failures), which
is also written with the spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set before numpy loads; the fingerprint records them.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "HLQR_THREADS": "1",
}
SETUP_PROBES = 3
# Cycles every untraced run makes, so that each median rests on two samples
# or more even where two cycles outlast --seconds (hier-hom-n100).
MIN_CYCLES = 2
WARMUP_N = 2
END_TO_END_UNITS = {"primary_s": "s", "secondary_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TAIL_SAMPLES = 10


def load_program():
    """Import hlqr from this checkout's ``src/``; exit non-zero without it."""
    if not (SRC / "hlqr" / "__init__.py").is_file():
        raise SystemExit(f"error: no hlqr package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hlqr

    if not Path(hlqr.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: hlqr imported from {hlqr.__file__}, not from {SRC}")


def tail_percentile(samples):
    """Highest of p75/p90/p99 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= TAIL_SAMPLES:
            return {"p": p, "value": statistics.quantiles(samples, n=100)[p - 1]}
    return None


def summarize(cycles) -> dict:
    """Per operation label: successful wall times, attempts and failures."""
    ops: dict = {}
    for cycle in cycles:
        for out in cycle.outcomes:
            entry = ops.setdefault(out.label, {"samples_s": [], "attempted": 0, "failures": []})
            entry["attempted"] += 1
            if out.ok:
                entry["samples_s"].append(out.seconds)
            else:
                entry["failures"].append(out.error)
    for entry in ops.values():
        samples = entry["samples_s"]
        entry["median_s"] = statistics.median(samples) if samples else None
        entry["tail"] = tail_percentile(samples)
    return ops


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        fields = (line.split() for line in fh)
        libs = sorted({f[5] for f in fields if len(f) > 5 and "openblas" in f[5].lower()})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def fingerprint(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hlqr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "HLQR_THREADS": os.environ.get("HLQR_THREADS"),
    }


def setup_times(args) -> list[float]:
    """Wall time of fresh interpreters that import hlqr and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.size is not None:
        cmd += ["--size", str(args.size)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def measure(args) -> tuple[dict, dict]:
    """Run the workload; return (result line, detail)."""
    import numpy as np

    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload]
    N = w.N if args.size is None else args.size
    setup = [] if args.trace else setup_times(args)
    inp = w.make_inputs(N, args.seed)
    w.cycle(workloads.Cycle(w.make_inputs(WARMUP_N, args.seed)))

    cycles, tracer = [], None
    if args.trace:
        untraced = workloads.Cycle(inp)
        w.cycle(untraced)
        tracer = spans.Tracer()
        traced = workloads.Cycle(inp, span=tracer.span)
        with tracer:
            w.cycle(traced)
        cycles = [untraced, traced]
        pairs = list(zip(untraced.outcomes, traced.outcomes))
        for plain, timed in pairs:
            gains = workloads.gain_of(plain), workloads.gain_of(timed)
            if plain.ok and timed.ok and not np.array_equal(*gains):
                timed.error = "check: traced gain differs from untraced gain"
        labels = [plain.label for plain, _ in pairs]
        plain, timed = pairs[labels.index("hier_solve_s" if "hier_solve_s" in labels
                                          else w.primary)]
        overhead_s = timed.seconds - plain.seconds if plain.ok and timed.ok else None
    else:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            cycles.append(workloads.Cycle(inp))
            w.cycle(cycles[-1])
            # Outputs are checked; dropping them keeps peak RSS to one cycle's.
            for out in cycles[-1].outcomes:
                out.value = None
            now = time.perf_counter()
            if len(cycles) >= MIN_CYCLES and now - start + (now - t0) > args.seconds:
                break

    ops = summarize(cycles)
    attempted = sum(e["attempted"] for e in ops.values())
    failed = sum(len(e["failures"]) for e in ops.values())
    if args.trace:
        metrics = spans.per_layer_metrics(tracer, overhead_s)
    else:
        values = {
            "primary_s": ops[w.primary]["median_s"],
            "secondary_s": ops[w.secondary]["median_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "fingerprint": fingerprint(args),
        "N": N,
        "cycles": len(cycles),
        "operations": {"primary_s": w.primary, "secondary_s": w.secondary},
        "ops": ops,
        "setup_samples_s": setup,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")
    return result, detail


def report_lines(result, detail) -> list[str]:
    """One human-readable line per operation and per metric."""
    lines = []
    for label, e in detail["ops"].items():
        tail = e["tail"]
        tail_text = (f"p{tail['p']} {tail['value']:.4f} s" if tail
                     else f"no percentile with >={TAIL_SAMPLES} samples beyond it")
        median = "n/a" if e["median_s"] is None else f"{e['median_s']:.4f} s"
        lines.append(f"op {label}: median {median}, {tail_text}, n={len(e['samples_s'])}, "
                     f"attempted {e['attempted']}, failed {len(e['failures'])} {e['failures']}")
    for name, m in result["metrics"].items():
        alias = detail["operations"].get(name)
        lines.append(f"metric {name}{f' ({alias})' if alias else ''}: {m['value']} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="override the workload's N (for smoke tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)
    load_program()
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        w = workloads.WORKLOADS[args.workload]
        w.make_inputs(w.N if args.size is None else args.size, args.seed)
        return 0
    result, detail = measure(args)
    for line in report_lines(result, detail):
        print(line)
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
