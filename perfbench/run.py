"""Benchmark for tagrtg: one workload per run, closed loop, one process.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload check --seed 1 --seconds 10 --trace 0

The run sets up (timed, repeated), generates its seeded inputs and the
oracles' answers (untimed), then performs whole rounds of the
workload's operations until `--seconds` have passed, checks every
output, and prints one JSON line: whether the outputs were correct, how
many operations were attempted and failed, and the metrics.  With
`--trace 0` these are the end-to-end metrics; with `--trace 1` the run
wraps tagrtg's public functions and reports per-layer metrics instead,
and writes its spans to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 5
PROBE_REPEATS = 9


def timed(task):
    start = perf_counter()
    task()
    return perf_counter() - start


def median_scaled(task, calibration, repeats):
    """The median time of `task` at the reference speed, and its times
    as measured.  Each run of the task follows a run of the calibration
    task, which gives the machine's speed at the time: the task's time
    is scaled by the calibration's reference time over its time right
    before.  A collection before the calibration keeps the collections
    it triggers from depending on what the task left behind."""
    times, ratios = [], []
    for _ in range(repeats):
        gc.collect()
        speed = timed(calibration.task)
        times.append(timed(task))
        ratios.append(times[-1] / speed)
    return statistics.median(ratios) * calibration.reference_s, times


def run_rounds(workload, recorder, seconds):
    """Whole rounds until `seconds` have passed, at least two.

    Returns the problems found and the time of each round, checks
    excluded.  A round's outputs are dropped before the next starts, so
    no round pays the collector for the previous round's.
    """
    problems, times = [], []
    start = perf_counter()
    while len(times) < 2 or perf_counter() - start < seconds:
        recorder.start_round()
        began = perf_counter()
        outputs = workload.run_round(recorder)
        times.append(perf_counter() - began)
        recorder.end_round()
        problems += workload.check(outputs)
        del outputs
    return problems, times


def main(argv=None):
    parser = argparse.ArgumentParser(description="tagrtg benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tagrtg" / "__init__.py").is_file():
        print(f"error: no tagrtg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tagrtg

    if Path(tagrtg.__file__).resolve().parent != ROOT / "src" / "tagrtg":
        print(f"error: imported tagrtg from {tagrtg.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    env = workloads.python_env()
    python = sys.executable

    import_s, imports = median_scaled(
        lambda: subprocess.run(
            [python, "-c", "import tagrtg.cli"],
            check=True, cwd=ROOT, env=env, capture_output=True, timeout=60,
        ),
        workloads.PROCESS,
        PROBE_REPEATS,
    )
    build_s, builds = median_scaled(workload.setup, workloads.LONG, SETUP_REPEATS)
    setup_s = import_s + build_s
    workload.prepare(random.Random(f"{args.workload}:{args.seed}"))

    units = {
        m["name"]: m["unit"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
            "per_layer" if args.trace else "end_to_end"
        ]
    }
    is_cli = isinstance(workload, workloads.Cli)
    # The commands of `cli` run in child processes, out of a tracer's
    # sight; its traced run replays them in-process instead.
    workload.in_process = is_cli and bool(args.trace)
    recorder = workloads.Recorder(workload.TAIL, workload.calibration)
    if args.trace:
        from tracing import Tracer

        # Untraced rounds first, long enough to warm the interpreter's
        # caches, as the reference for the tracer's overhead.
        reference = workloads.Recorder(workload.TAIL, workload.calibration)
        problems, untraced = run_rounds(workload, reference, args.seconds / 4)
        tracer = Tracer()
        tracer.install()
        if isinstance(workload, workloads.Generate):
            tracer.label(workload.std, "standard")
            tracer.label(workload.lc, "lc")
        tracer.enabled = True
        more, traced = run_rounds(workload, recorder, args.seconds)
        problems += more
        tracer.enabled = False
        tracer.uninstall()
        values = tracer.metrics(len(traced))
        if is_cli:
            # Best times, like the commands' own: medians would mix in
            # other tenants' load.
            interpreter = min(timed(workloads.bare_interpreter) for _ in range(PROBE_REPEATS))
            values["cli.interpreter_ms"] = interpreter * 1e3
            values["cli.import_ms"] = (min(imports) - interpreter) * 1e3
            values["cli.command_ms"] = reference.raw_figures["latency_ms_p50"]
        else:
            values.update({"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.command_ms": 0.0})
        values["trace.overhead_ratio"] = statistics.median(traced) / min(untraced)
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write(workloads.OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        problems, _ = run_rounds(workload, recorder, args.seconds)
        print(
            f"rounds: {recorder.warmup_rounds} warm-up, {recorder.moved_collections}"
            f" left out because their collections moved; calibration best"
            f" {recorder.calibration_best * 1e3:.4f} ms, reference"
            f" {recorder.calibration.reference_s * 1e3:.4f} ms; as measured:"
            f" setup_s {statistics.median(imports) + statistics.median(builds):.6f},"
            f" {recorder.raw_figures}",
            file=sys.stderr,
        )
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
        values = {
            "setup_s": setup_s,
            **recorder.figures,
            "peak_rss_mib": usage.ru_maxrss / 1024,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for problem in problems:
        print(f"mismatch: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
