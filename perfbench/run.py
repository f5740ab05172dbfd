"""fockbench benchmark: one command, two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  The seed draws the workload's free inputs.  One process runs the
workload back to back (a closed loop with one caller) for ``--seconds``.

``--trace 0`` reports the end-to-end metrics of untraced runs; the line
before the result also lists the wall time of every untraced run.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics of the
traced ones; it also checks that a traced run computes what the untraced run
computed.  The last line of stdout is the result object; the line before it
records the machine and build.  Traced runs also write their spans to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = "1"  # at most nproc; one thread keeps run-to-run spread small
SETUP_REPEATS = 5
MIN_RUNS = 3  # untraced runs per invocation, also when one run outlasts --seconds
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _git_commit(root) -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(root) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(root),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing fockbench, which loads numpy
    and scipy; a child process, so that every repetition starts empty."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fockbench"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def measure(name, seed, seconds, trace, workloads, workdir, trace_dir=None):
    """Set up ``workloads[name]`` from ``seed``, run it for ``seconds`` and
    return the result object (and write spans to ``trace_dir`` when tracing)."""
    import numpy as np

    from perfbench import layers
    from perfbench.tracing import Tracer

    wl = workloads[name]
    os.makedirs(workdir, exist_ok=True)
    setup_times = []  # each: import in a fresh interpreter, then input generation and config writing
    for _ in range(SETUP_REPEATS):
        import_s = _import_seconds()
        t0 = time.perf_counter()
        inputs = wl.setup(np.random.default_rng(seed), workdir)
        setup_times.append(import_s + time.perf_counter() - t0)

    attempted = failed = 0
    problems = []
    plain, traced = [], []  # (wall seconds, Outcome) and (wall seconds, Outcome, spans)

    def one_run(tracer=None):
        nonlocal attempted, failed
        shutil.rmtree(inputs["out"], ignore_errors=True)
        attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                state = wl.run(inputs)
            else:
                with tracer.installed(layers.TARGETS):
                    state = wl.run(inputs)
            wall = time.perf_counter() - t0
            outcome = wl.check(inputs, state)
        except Exception as exc:  # a raising run is a failed run; keep measuring
            traceback.print_exc()
            failed += 1
            problems.append(f"{type(exc).__name__}: {exc}")
            return
        if outcome.problems:
            failed += 1
            problems.extend(outcome.problems)
        if tracer is None:
            plain.append((wall, outcome))
        else:
            traced.append((wall, outcome, tracer.spans))

    start = time.perf_counter()
    for rnd in itertools.count():
        t0 = time.perf_counter()
        if trace:
            # alternate which of the pair goes first, so warm-up does not bias the overhead
            tracer = Tracer(run_id=f"{name}-seed{seed}-{rnd}")
            for tr in ((None, tracer) if rnd % 2 == 0 else (tracer, None)):
                one_run(tr)
        else:
            one_run()
        last = time.perf_counter() - t0
        if rnd + 1 >= MIN_RUNS and time.perf_counter() - start + last > seconds:
            break
        if failed > MIN_RUNS:  # keeps failing: stop early, the result says so
            break
    shutil.rmtree(inputs["out"], ignore_errors=True)

    if trace:
        metrics, units = _per_layer(plain, traced, problems)
        reads = layers.csv_reads(traced[-1][2]) if traced else []
        if trace_dir is not None and traced:
            _write_spans(trace_dir, name, seed, traced, reads)
    else:
        # The fastest run, not the median: on a shared host other tenants slow
        # every run of a stretch by up to 1.6x for tens of seconds at a time,
        # so the median measures them; the work itself barely varies.
        metrics = {
            "wall_s": min(w for w, _ in plain) if plain else 0.0,
            "setup_s": _median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        reads = []
    for p in problems:
        sys.stderr.write(f"perfbench: {name}: {p}\n")
    return {
        "runs_s": [w for w, _ in plain],
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "csv_reads": reads,
    }


def _per_layer(plain, traced, problems):
    """Medians of the per-layer metrics over the traced runs; appends to
    ``problems`` when the traced runs did not compute what the untraced ones did."""
    from perfbench import layers

    per_run = [layers.layer_metrics(spans, outcome.newton_iters) for _, outcome, spans in traced]
    metrics = {key: _median([m[key] for m in per_run]) for key in layers.METRICS if key != "trace.overhead_frac"}
    plain_wall = _median([w for w, _ in plain])
    metrics["trace.overhead_frac"] = _median([w for w, *_ in traced]) / plain_wall - 1.0 if plain_wall else 0.0
    reference = {(o.newton_iters, o.fingerprint) for _, o in plain}
    if any({(o.newton_iters, o.fingerprint)} != reference for _, o, _ in traced):
        problems.append("a traced run computed other Newton counts or CSV bytes than the untraced runs")
    if len({m["solver.apply_calls"] for m in per_run}) > 1:
        problems.append("traced runs of the same inputs made different numbers of CG iterations")
    return metrics, {key: unit for key, (unit, _) in layers.METRICS.items()}


def _write_spans(trace_dir, name, seed, traced, reads):
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, f"trace-{name}-seed{seed}.json"), "w") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "machine": machine_info(ROOT),
                "csv_reads": reads,
                "runs": [{"run_id": spans[0]["run_id"], "spans": spans} for _, _, spans in traced if spans],
            },
            fh,
        )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads its BLAS
    if not os.path.isdir(os.path.join(SRC, "fockbench")):
        sys.stderr.write(f"perfbench: no fockbench sources under {SRC}\n")
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}\n")
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        result = measure(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            WORKLOADS,
            workdir,
            trace_dir=os.path.join(ROOT, ".perfbench_out"),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    info = {"machine": machine_info(ROOT), "untraced_runs_s": result.pop("runs_s"), "csv_reads": result.pop("csv_reads")}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
