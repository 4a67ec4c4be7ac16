"""The spherecount benchmark: one workload per run, single-threaded.

    python3 perfbench/run.py --workload suite30 --seed 0 --seconds 20 --trace 0

Workloads: suite30, deep-grid, mc-kappa (see perfbench/README.md).  The run
imports the package from ``src/`` of this checkout, builds the workload's
inputs from ``--seed``, computes the references, then runs whole passes
over the inputs until ``--seconds`` have gone by, checking every output.

``--trace 0`` reports the end-to-end metrics: the median set-up time of
several fresh processes, the median CPU time of a pass, throughput and the
peak memory.  ``--trace 1`` alternates untraced passes with passes traced
from outside the package (perfbench/tracer.py) and reports the per-layer
metrics.  Human-readable lines come first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import os

# one thread for every BLAS pool; must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5   # this process plus four fresh ones

END_TO_END_UNITS = {"setup_s": "s", "pass_cpu_s": "s", "ops_per_cpu_s": "1/s",
                    "peak_rss_mb": "MB"}


def import_package():
    """Import spherecount from this checkout; return the seconds it took."""
    package = ROOT / "src" / "spherecount"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no spherecount package under {ROOT / 'src'}")
    for path in (ROOT / "tests", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    start = time.process_time()
    import spherecount
    elapsed = time.process_time() - start
    if Path(spherecount.__file__).resolve().parent != package:
        raise SystemExit(f"spherecount was imported from {spherecount.__file__}")
    return elapsed


def timed_setup(name, seed, tiny):
    """Import the package and build the inputs: (workload, inputs, seconds).

    The harness imports (oracles, the acceptance suite module) are not
    part of the set-up time; the package import and input construction are.
    """
    seconds = import_package()
    import workloads

    workload = workloads.WORKLOADS[name](tiny=tiny)
    start = time.process_time()
    inputs = workload.inputs(seed)
    return workload, inputs, seconds + time.process_time() - start


def fresh_setup_seconds(name, seed, tiny):
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def machine_info():
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}
    try:
        info["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    try:
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        info["l3"] = "unknown"
    return info


class Tally:
    """Op outcomes and timings of the passes of one run."""

    def __init__(self):
        self.pass_times = []    # CPU seconds of the ops of each pass
        self.pass_walls = []    # wall seconds of each pass, checks included
        self.op_times = []
        self.attempted = 0
        self.failed = 0
        self.stopped = 0
        self.evaluations = 0
        self.problems = []


def run_pass(workload, ops, tally, call=None):
    """Run every op once; time each op alone and check it afterwards."""
    call = call or (lambda op: op.run())
    total = 0.0
    outputs = []
    failures = []
    wall = time.perf_counter()
    for op in ops:
        start = time.process_time()
        try:
            out = call(op)
            problems = None
        except Exception as exc:  # an op that raises is a failed op
            out, problems = None, [f"raised {exc!r}"]
        elapsed = time.process_time() - start
        total += elapsed
        tally.op_times.append(elapsed)
        if problems is None:
            problems = op.check(out)
        outputs.append(out)
        failures.append(bool(problems))
        tally.problems.extend(problems)
        if workload.counting and out is not None:
            tally.stopped += bool(out.stopped)
            tally.evaluations += out.evaluations
    pass_problems = workload.check_pass(outputs)
    if pass_problems:
        tally.problems.extend(pass_problems)
        failures = [True] * len(failures)
    tally.attempted += len(ops)
    tally.failed += sum(failures)
    tally.pass_times.append(total)
    tally.pass_walls.append(time.perf_counter() - wall)


def measure(workload, ops, seconds):
    """Untraced passes until ``seconds`` have elapsed (at least one)."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        run_pass(workload, ops, tally)
        if time.perf_counter() - start >= seconds:
            return tally


def measure_traced(workload, ops, seconds, tracer):
    """Alternate untraced and traced passes until ``seconds`` have elapsed."""
    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    while True:
        run_pass(workload, ops, plain)
        tracer.install()
        try:
            run_pass(workload, ops, traced, call=lambda op: tracer.run_op(op.label, op.run))
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return plain, traced


def end_to_end(tally, setup_samples):
    values = {
        "setup_s": statistics.median(setup_samples),
        "pass_cpu_s": statistics.median(tally.pass_times),
        "ops_per_cpu_s": tally.attempted / sum(tally.pass_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(plain, traced, tracer):
    from tracer import layer_metrics

    passes = len(traced.pass_times)
    metrics = layer_metrics(tracer, passes)
    metrics["counting.evaluations_model"] = (traced.evaluations / passes, "count")
    metrics["counting.stopped_frac"] = (traced.stopped / traced.attempted, "frac")
    metrics["trace.pass_cpu_s"] = (statistics.median(traced.pass_times), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.pass_times) / statistics.median(plain.pass_times) - 1.0,
        "frac")
    return metrics


def _fmt(values):
    return " ".join(f"{v:.4g}" for v in values)


def run(name, seed, seconds, trace, tiny=False, setup_samples=SETUP_SAMPLES,
        tracer=None):
    """Run one workload; return (report lines, result object)."""
    workload, inputs, first_setup = timed_setup(name, seed, tiny)
    start = time.perf_counter()
    ops = workload.ops(inputs, workload.reference(inputs))
    lines = [f"workload {name}  seed {seed}  ops/pass {len(ops)}  tiny {tiny}",
             "machine " + json.dumps(machine_info()),
             f"references computed in {time.perf_counter() - start:.2f} s (untimed)"]
    if trace:
        from tracer import Tracer

        tracer = tracer or Tracer()
        plain, tally = measure_traced(workload, ops, seconds, tracer)
        metrics = per_layer(plain, tally, tracer)
        lines.append(f"pass CPU s: untraced {_fmt(plain.pass_times)}; "
                     f"traced {_fmt(tally.pass_times)}")
        if tracer.missing:
            lines.append("trace: missing wrapped names " + ", ".join(tracer.missing))
        failed = plain.failed + tally.failed
        attempted = plain.attempted + tally.attempted
        problems = plain.problems + tally.problems
    else:
        samples = [first_setup] + [fresh_setup_seconds(name, seed, tiny)
                                   for _ in range(setup_samples - 1)]
        tally = measure(workload, ops, seconds)
        metrics = end_to_end(tally, samples)
        failed, attempted, problems = tally.failed, tally.attempted, tally.problems
        lines.append(f"setup samples (s) {_fmt(samples)}")
        lines.append(f"pass CPU s {_fmt(tally.pass_times)}; pass wall s {_fmt(tally.pass_walls)}")
        lines.append(f"op_p50_cpu_s {statistics.median(tally.op_times):.6g} "
                     f"over {len(tally.op_times)} op samples")
    lines.append(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if workload.counting:
        lines.append(f"stopped_frac {tally.stopped / tally.attempted:.6g}")
    lines.extend(f"problem: {p}" for p in problems[:20])
    lines.extend(f"{k:34s} {v:.6g} {u}" for k, (v, u) in metrics.items())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite30", "deep-grid", "mc-kappa"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (perfbench/test_smoke.py)")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of a fresh process and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only:
        print(timed_setup(args.workload, args.seed, args.tiny)[2])
        return 0
    lines, result = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
