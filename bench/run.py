"""xmodal's benchmark: end-to-end and per-layer numbers for three workloads.

Run one workload (the form `BENCHMARK.json` names):

    python3 bench/run.py --workload desk_grid --seed 0 --seconds 30 --trace 0

Run every workload, each in a fresh process, and print a summary:

    python3 bench/run.py --seed 0

`--trace 0` measures the end-to-end metrics with nothing wrapped. `--trace 1`
runs one untraced reference pass, then one traced pass, and reports the
per-layer metrics plus the tracing overhead. `--smoke` shrinks every
workload to a tiny size (same code path) so the harness can be tested.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A full record (environment,
samples, errors) goes to `.bench_out/`, which also receives the trace spans.
See bench/NOTES.md for the workloads and what each metric should move.
"""

import os
import sys
import time

# BLAS threads are pinned before numpy is first imported; one thread is the
# plain single-threaded baseline and leaves the second core for the system
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
REF_CALLS = 3  # reference-kernel calls after each timed unit
# what a run imports before its set-up; timed in a fresh interpreter per set-up
IMPORTS = (
    "import numpy\n"
    "from xmodal import autodiff, checkpoint, data, generation, pipeline, projection, retrieval"
)
CHILD_TIMEOUT_S = 600


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run this workload only (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0, help="seed the inputs are made from")
    p.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up")
    return p.parse_args(argv)


def git_commit() -> str:
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
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    from xmodal import autodiff

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "blas": blas,
        "dtype": np.dtype(autodiff.default_dtype()).name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


class Outcome:
    """Attempts, failures and the repeat check across units of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict = {}
        self.maps: dict = {}

    def run_unit(self, workload, key) -> float:
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = workload.run(key)
        except Exception as e:  # a failing unit is counted, the run goes on
            traceback.print_exc()
            out, errors = None, [f"unit {key}: {type(e).__name__}: {e}"]
        dt = time.perf_counter() - t0
        self.attempted += 1
        if out is not None:
            errors, dg, map_avg = workload.check(key, out)
            if self.digests.setdefault(key, dg) != dg:
                errors.append(f"unit {key}: reports differ bitwise from its first run")
            self.maps.setdefault(key, map_avg)
        if errors:
            self.failed += 1
            self.errors += errors
        return dt


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(workload, outcome, seconds) -> tuple[dict, dict, list[float]]:
    """Time the workload's units in order, each between calls of its reference kernel.

    The first unit and one kernel call run untimed as warm-up (the unit is
    still checked). Then the kernel runs REF_CALLS times, and units and
    groups of REF_CALLS kernel calls alternate until the next unit would
    overrun `seconds`; at least one full pass is timed, so every unit is
    checked and in map_avg. A unit's ratio is its time over the mean kernel
    call of the groups just before and just after it, so it follows the
    host's speed at that moment. Returns unit times and ratios by cell key,
    and every kernel time.
    """
    units = workload.units()
    kernel = workload.reference()
    outcome.run_unit(workload, units[0])
    kernel()
    before = [timed(kernel) for _ in range(REF_CALLS)]
    refs = list(before)
    samples = {key: [] for key in units}
    ratios = {key: [] for key in units}
    t_start = time.perf_counter()
    n = 0
    while True:
        t_unit = time.perf_counter()
        key = units[n % len(units)]
        dt = outcome.run_unit(workload, key)
        after = [timed(kernel) for _ in range(REF_CALLS)]
        samples[key].append(dt)
        ratios[key].append(dt / statistics.mean(before + after))
        refs += after
        before = after
        n += 1
        step = time.perf_counter() - t_unit
        if n >= len(units) and time.perf_counter() - t_start + step > seconds:
            return samples, ratios, refs


def metric_line(name, value, unit, note="") -> str:
    return f"  {name:<36} {value:>16.6g} {unit:<6} {note}"


def import_seconds() -> float:
    """Seconds the benchmark's imports take in a fresh interpreter (BLAS pin inherited)."""
    code = (
        f"import sys, time\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
        f"t0 = time.perf_counter()\n{IMPORTS}\nprint(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.split()[-1])


def run_workload(args, spec) -> int:
    if not (ROOT / "src" / "xmodal" / "__init__.py").is_file():
        print(f"error: no xmodal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = environment()
    env["loadavg_1m_before"] = os.getloadavg()[0]

    stem = f"{workload.name}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    tracer = tracing.Tracer(workload.name) if args.trace else None
    outcome = Outcome()
    timing = {}
    try:
        setup_times, import_times, synth_times = [], [], []
        if tracer:
            tracer.install()
        for _ in range(1 if args.smoke else SETUP_REPS):
            import_times.append(import_seconds())
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            if tracer:
                tracer.begin_unit("setup")
            t0 = time.perf_counter()
            workload.setup(work, args.seed, args.smoke)
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                synth_times.append(tracer.unit.totals.get("data.synth_corpus", 0.0))
        if tracer:
            tracer.uninstall()

        if args.trace:
            reference = [outcome.run_unit(workload, key) for key in workload.units()]
            traced = []
            tracer.install()
            try:
                for key in workload.units():
                    tracer.begin_unit(f"x{key[0]}_s{key[1]}")
                    traced.append((outcome.run_unit(workload, key), tracer.unit))
            finally:
                tracer.uninstall()
            metrics = tracing.layer_metrics(traced, synth_times)
            metrics["trace.overhead_s"] = (
                statistics.mean(w for w, _ in traced) - statistics.mean(reference)
            )
            samples = [w for w, _ in traced]
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"trace-{stem}.jsonl")
            wanted = spec["per_layer"]
        else:
            by_key, ratios, refs = measure(workload, outcome, seconds)
            samples = [dt for times in by_key.values() for dt in times]
            wall_s = sum(statistics.median(times) for times in by_key.values())
            timing = {
                "wall_s": wall_s,
                "reference_kernel": workload.reference.__name__,
                "reference_s": refs,
                "ratios": {f"x{k[0]}_s{k[1]}": r for k, r in ratios.items()},
            }
            metrics = {
                "wall_rel": sum(statistics.median(r) for r in ratios.values()),
                "setup_s": statistics.median(i + s for i, s in zip(import_times, setup_times)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "map_avg": statistics.mean(outcome.maps.values()) if outcome.maps else float("nan"),
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_1m_after"] = os.getloadavg()[0]

    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise SystemExit(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    correct = outcome.failed == 0
    failed_frac = outcome.failed / outcome.attempted

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  ({workload.why})")
    print("environment " + json.dumps(env, sort_keys=True))
    print(
        f"  units timed: {len(samples)}  median {statistics.median(samples):.6g} s  "
        f"min {min(samples):.6g} s  max {max(samples):.6g} s"
    )
    if timing:
        refs = timing["reference_s"]
        print(
            f"  reference {timing['reference_kernel']}: {len(refs)} calls, "
            f"median {statistics.median(refs):.6g} s  min {min(refs):.6g} s  max {max(refs):.6g} s"
        )
    for m in wanted:
        print(metric_line(m["name"], metrics[m["name"]], m["unit"]))
    if timing:
        print(metric_line("wall_s", timing["wall_s"], "s", "(one pass, sum of per-cell medians; not bounded)"))
    print(metric_line("failed_frac", failed_frac, "1", f"({outcome.failed} of {outcome.attempted})"))
    for err in outcome.errors:
        print(f"  check failed: {err}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "environment": env, "samples_s": samples, "setup_reps_s": setup_times,
        "import_reps_s": import_times, "timing": timing, "failed_frac": failed_frac, "errors": outcome.errors,
        "metrics": metrics,
    }
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Every workload in its own process; a summary table, then one JSON line."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            results[w["name"]] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[w["name"]] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    print("\nsummary")
    for name, r in results.items():
        values = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"  {name:<12} correct={r['correct']} failed={r['failed']}/{r['attempted']}  {values}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
