"""relaynet benchmark: one workload, driven through the real CLI in this process.

    python3 bench/run.py --workload relay64-compare --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout. It times passes over the workload's
command list for about --seconds and checks every command's artefacts.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics. The line before the last holds details (per-command
timings, failures, layer shares); the last line is the result:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

It exits non-zero, printing no result, when it cannot run at all, such as
when the relaynet sources are not under src/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
SETUP_REPEATS = 3
MIN_PASSES = 3

if not (SRC / "relaynet" / "__init__.py").is_file():
    sys.exit(f"error: no relaynet sources under {SRC}")
# numpy and scipy may start BLAS threads: pin them before numpy loads, here
# and in the set-up processes, which inherit the environment
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relaynet import cli  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def time_setups(workload: str, seed: int, work: Path) -> list[float]:
    """Wall time of a fresh process that imports relaynet, writes the
    scenario files and loads them, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "prepare.py"), workload, str(seed),
                        str(work)], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs passes over one command list and checks every command."""

    def __init__(self, commands, checker):
        self.commands = commands
        self.checker = checker
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> list[tuple[str, float]]:
        """One pass; returns (label, wall seconds) per command."""
        timings = []
        for cmd in self.commands:
            shutil.rmtree(self.checker.work / cmd.out, ignore_errors=True)
            gc.collect()
            if tracer is not None:
                span = tracer.begin_command(cmd.label)
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(cmd.argv))
            except Exception as e:  # a command that raises is a failed command
                rc = e
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            self.attempted += 1
            problems = self.checker.check(cmd, rc)
            if problems:
                self.failures.append(f"{cmd.out}: {'; '.join(problems)}")
            timings.append((cmd.label, seconds))
        return timings


def wall(timings) -> float:
    return sum(s for _, s in timings)


def timing_detail(passes) -> dict:
    """Per command label, the per-pass seconds: plan.fmm becomes plan_s.fmm."""
    per_label: dict[str, list[float]] = {}
    for timings in passes:
        sums: dict[str, float] = {}
        for label, s in timings:
            sums[label] = sums.get(label, 0.0) + s
        for label, s in sums.items():
            per_label.setdefault(label, []).append(s)
    per_label["pass"] = [wall(t) for t in passes]
    out = {}
    for label, samples in per_label.items():
        kind, _, mode = label.partition(".")
        name = f"{kind}_s" + (f".{mode}" if mode else "")
        out[name] = {"n": len(samples), "median": statistics.median(samples),
                     "max": max(samples), "samples": samples}
    return out


def timed_run(runner: Runner, seconds: float, setup_times: list[float]):
    passes = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + wall(passes[-1]) <= seconds):
        passes.append(runner.run_pass())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(wall(t) for t in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"timings": timing_detail(passes), "setup_s": setup_times}


def traced_run(runner: Runner, seconds: float, work: Path):
    """Pairs of one untraced and one traced pass, while the next pair fits."""
    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while (not traced or time.perf_counter() - start + wall(untraced[-1])
           + wall(traced[-1]) <= seconds):
        untraced.append(runner.run_pass())
        first = len(tracer.labels)
        with tracing.patched(tracer.wrappers()):
            traced.append(runner.run_pass(tracer))
        layers.append(tracing.layer_metrics(tracer, range(first, len(tracer.labels))))
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead"] = (statistics.median(wall(t) for t in traced)
                                 / statistics.median(wall(t) for t in untraced))
    tracer.write_spans(work / "spans.csv")
    detail = {"untraced": timing_detail(untraced), "traced": timing_detail(traced),
              "shares": tracing.command_shares(tracer)}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload]
    work = WORK_ROOT / wl.name
    shutil.rmtree(work, ignore_errors=True)
    setup_times = time_setups(wl.name, args.seed, work)

    expected = workloads.load_expected()["hashes"][wl.name].get(wl.variant(args.seed), {})
    n_goals = len(json.loads(wl.scenario_path(work).read_text())["goals"])
    checker = checks.Checker(work, expected, n_goals)
    runner = Runner(wl.commands(args.seed, work), checker)
    with tracing.patched({"mission.execute_mission": checker.executions.wrap}):
        if args.trace:
            produced, detail = traced_run(runner, args.seconds, work)
        else:
            produced, detail = timed_run(runner, args.seconds, setup_times)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in produced]
    if missing:
        print(f"error: metrics {missing} were not measured", file=sys.stderr)
        return 2
    detail.update(workload=wl.name, seed=args.seed, input=wl.variant(args.seed),
                  noise_seeds=wl.noise_seeds(args.seed),
                  failed_frac=len(runner.failures) / runner.attempted,
                  failures=runner.failures)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
