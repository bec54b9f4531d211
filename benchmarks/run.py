"""qspf benchmark: one workload as a closed loop from a single client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qspf is imported from ./src and
nothing needs to be installed. Workloads: fit_voxels, eval_queries,
build_validate, cli_cold (see workloads.py and NOTES.md).

--trace 0 prints the end-to-end metrics. --trace 1 probes the process
layer (cold imports and the CLI commands), runs the loop for half the
remaining time untraced and for half with the layer wrappers of
tracing.py installed, and prints the per-layer metrics and the tracing
overhead. Either way the second-to-last line of stdout is a JSON record of
the run (environment, operation counts, failures) and the last line is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 whenever a result is printed; `correct` is false when
an operation failed other than the documented known failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 10
IMPORT_PROBES = 3
CLI_PROBE_BLOCKS = 3
# Reserved for confirming a claimed gain on a seed not used while tuning.
CONFIRM_SEED = 20170221


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))
    return cores


def import_qspf_from_source():
    if not (SRC / "qspf" / "__init__.py").is_file():
        sys.exit(f"error: no qspf sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qspf

    if Path(qspf.__file__).resolve().parent != (SRC / "qspf").resolve():
        sys.exit(f"error: imported qspf from {qspf.__file__}, not from {SRC}")
    return qspf


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
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


def environment(cores: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": cores,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def import_times_ms(env: dict) -> tuple[float, float]:
    """Cumulative import time of qspf, and of scipy within it, from -X importtime."""
    qspf_us = scipy_us = 0
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qspf"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    rows = []
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)$", line)
        if match:
            rows.append((len(match.group(3)), int(match.group(2)), match.group(4)))
    # importtime prints a module after its imports, one level deeper; a
    # module's parent is the next row one level up
    for i, (depth, cumulative, name) in enumerate(rows):
        if name == "qspf":
            qspf_us = cumulative
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r[2] for r in rows[i + 1:] if r[0] < depth), "")
        if parent.split(".")[0] != "scipy":
            scipy_us += cumulative
    return qspf_us / 1e3, scipy_us / 1e3


def end_to_end(loop, setup_times, workload_name) -> dict:
    from workloads import fast_median, peak_rss_mb

    fast = loop.summary(loop.fast_latencies())
    return {
        "ops_per_s": (fast["ops_per_s"], "1/s"),
        "op_p50_ms": (fast["op_p50_ms"], "ms"),
        "op_p90_ms": (fast["op_p90_ms"], "ms"),
        "setup_s": (fast_median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(children=workload_name == "cli_cold"), "MB"),
        "ok_frac": (1.0 - loop.failed / loop.ops, "ratio"),
    }


def per_layer(plain, traced, tracer, imports, cli_loops) -> dict:
    """Traced per-function metrics, the process layer and the tracing overhead."""
    from workloads import CLI_COMMANDS, fast_median

    metrics = tracer.per_op(sum(t for _, t in traced.latencies))
    metrics["process.import_ms"] = (fast_median(p[0] for p in imports), "ms")
    metrics["process.import_scipy_ms"] = (fast_median(p[1] for p in imports), "ms")
    for command in CLI_COMMANDS:
        times = [t for loop in cli_loops for k, t in loop.latencies if k == command]
        metrics[f"cli.{command}.wall_ms"] = (1e3 * fast_median(times), "ms")
    untraced = plain.summary(plain.fast_latencies())["ops_per_s"]
    with_trace = traced.summary(traced.fast_latencies())["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (with_trace, "1/s")
    metrics["trace.overhead_ratio"] = (untraced / with_trace, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit_voxels", "eval_queries", "build_validate", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"input seed (seed {CONFIRM_SEED} is reserved for confirming claims)")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cores = cap_blas_threads()
    qspf = import_qspf_from_source()
    import workloads
    from tracing import Tracer

    with tempfile.TemporaryDirectory(prefix=".qspfbench-", dir=ROOT) as tmp:
        w = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        t0 = perf_counter()
        w.setup()
        setup_times = [perf_counter() - t0]
        w.prepare_checks()

        tracer = Tracer()
        if args.trace:
            # every traced run probes the process layer: cold imports and a
            # few blocks of the cli_cold commands, gated like the workload.
            # The probe's time comes out of --seconds; the rest is split
            # between an untraced and a traced loop.
            t0 = perf_counter()
            probe = workloads.CliCold(args.seed, Path(tmp))
            probe.setup()
            probe.prepare_checks()
            cli_loops = [workloads.closed_loop(probe, 0) for _ in range(CLI_PROBE_BLOCKS)]
            imports = [import_times_ms(probe.env) for _ in range(IMPORT_PROBES)]
            half = max(args.seconds - (perf_counter() - t0), 0.0) / 2
            plain = workloads.closed_loop(w, half)
            with tracer.installed():
                traced = workloads.closed_loop(w, half, tracer)
            loops = [plain, traced] + cli_loops
            metrics = per_layer(plain, traced, tracer, imports, cli_loops)
        else:
            loop = workloads.closed_loop(w, args.seconds, setups=SETUP_REPEATS - 1)
            setup_times += loop.setup_times
            loops = [loop]
            metrics = end_to_end(loop, setup_times, args.workload)

    attempted = sum(loop.ops for loop in loops)
    failed = sum(loop.failed for loop in loops)
    known = sum(loop.known for loop in loops)
    by_kind = {}
    for loop in loops:
        for kind, t in loop.latencies:
            by_kind.setdefault(kind, []).append(t)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "qspf": qspf.__version__,
        "environment": environment(cores),
        "ops_by_kind": {kind: len(times) for kind, times in by_kind.items()},
        "fast_ms_by_kind": {kind: 1e3 * workloads.fast_median(t) for kind, t in by_kind.items()},
        "blocks": sum(loop.blocks for loop in loops),
        "all_ops": [loop.summary([t for _, t in loop.latencies]) for loop in loops],
        "failed_frac": failed / attempted,
        "known_failures": known,
        "failure_messages": [m for loop in loops for m in loop.messages][:5],
        "setup_s_repeats": setup_times,
        "self_ms_per_op": tracer.self_ms_per_op() if args.trace else None,
    }
    result = {
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
