"""Run a benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper_shape --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 3          # every workload, one process each

A run sets the workload up SETUPS times, then runs whole rounds of it, each
into a fresh directory, until `--seconds` have passed, and checks every
round's outputs. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, and the difference between the two
kinds as the tracing overhead. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the run's details, with the
machine it ran on, go to .perfbench_out/results/, and the spans of a traced
run to .perfbench_out/traces/. A run whose checks fail exits with 1.
"""

import os
import sys
import time

STARTED = time.perf_counter()
# one thread per usable CPU, BLAS included; set before numpy loads
THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
SETUPS = 3  # set-ups per run; setup_s is their median

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("train_samples_per_s", "1/s"), ("peak_rss_mb", "MB")]


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": THREADS,
        "cpu_model": model,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def process_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracing
    import workloads

    import_s = time.perf_counter() - STARTED
    workload = workloads.WORKLOADS[name]
    work = OUT / "work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if trace else None
    setup_times, rounds, problems, errors = [], [], [], []
    max_threads = 0
    try:
        for _ in range(SETUPS):
            if tracer:
                tracer.install()
            start = time.perf_counter()
            inputs = workload.setup(seed, work / "staging")
            setup_times.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
        started = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            out = work / f"round{len(rounds)}"
            workload.prepare(inputs, out)
            if traced:
                tracer.phase = out.name
                tracer.install()
            start = time.perf_counter()
            try:
                done = workload.run(inputs, out)
            except Exception as exc:  # the program failed this round: count it, go on
                done = workloads.Round(out=out, failed=True, error=f"{type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
            max_threads = max(max_threads, process_threads())
            rounds.append({"wall_s": wall, "traced": traced, "failed": done.failed})
            if done.failed:
                errors.append(done.error)
            else:
                problems += [f"{out.name}: {p}" for p in workload.check(inputs, done)]
            shutil.rmtree(out)
            if time.perf_counter() - started >= seconds and (tracer is None or len(rounds) >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    setup_s = import_s + statistics.median(setup_times)
    round_s = statistics.median(untraced)
    values = {
        "setup_s": setup_s,
        "run_s": setup_s + round_s,
        "train_samples_per_s": workload.samples(inputs) / round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END)
    if tracer:
        traced_walls = [r["wall_s"] for r in rounds if r["traced"]]
        values = tracer.summary(len(traced_walls), statistics.median(traced_walls) - round_s)
        units = dict(tracing.PER_LAYER)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    failed = sum(r["failed"] for r in rounds)
    verdict = {"correct": not problems, "attempted": len(rounds), "failed": failed, "metrics": metrics}

    stem = f"{name}-seed{seed}-trace{int(trace)}"
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "machine": machine(),
        "max_threads": max_threads,
        "import_s": import_s,
        "setup_times_s": setup_times,
        "rounds": rounds,
        "samples_per_round": workload.samples(inputs),
        "problems": problems,
        "errors": errors,
        **verdict,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")
    if tracer:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{stem}.json", {"workload": name, "seed": seed, "machine": details["machine"]})
    for line in problems + errors:
        print(line, file=sys.stderr)
    print(json.dumps(verdict))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool, names) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    status = 0
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        verdict = json.loads(lines[-1])
        ok = verdict["correct"] and proc.returncode == 0
        print(f"{name}: correct={verdict['correct']} attempted={verdict['attempted']} failed={verdict['failed']}")
        for key, metric in verdict["metrics"].items():
            print(f"  {key:40s} {metric['value']:14.6g} {metric['unit']}")
        if not ok:
            print(proc.stderr, file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="run whole rounds for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "featgroups" / "__init__.py").is_file():
        print(f"featgroups sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace), names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
