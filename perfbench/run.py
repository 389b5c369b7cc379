#!/usr/bin/env python3
"""The gcdpairs benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload list-stream --seed 1 --seconds 10 --trace 0

With `--trace 0` one closed-loop client runs real `gcdpairs` subprocesses,
one command in flight, and reports the end-to-end metrics. With `--trace 1`
it runs one round of the workload for its CPU time and then every layer
group of layers.py, each in its own interpreter, and reports the per-layer
metrics. Every output is checked (see workloads.py). The last stdout line is
the result object; the line before it is the full record: quartiles, sample
counts, error rate, machine calibration, load average and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads
from workloads import SIZES, WORKLOADS, Checker, round_commands, setup_command

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
OUT_DIR = ".perfbench"


@dataclass
class Spawned:
    """One finished child: its exit code, costs and complete stdout."""

    exit_code: int
    wall_s: float
    first_byte_s: float
    peak_rss_mb: float
    cpu_s: float
    stdout: bytearray
    sha256: str


@dataclass
class Tally:
    """Operations attempted and the problems found in their outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def gcdpairs_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], env: dict[str, str], errors) -> Spawned:
    """Run argv through launch.py and drain its stdout.

    Wall time runs from the command's spawn until it has exited and its
    stdout is drained; RSS and CPU are the command's own (see launch.py).
    """
    report_r, report_w = os.pipe()
    hasher = hashlib.sha256()
    out = bytearray()
    first = None
    proc = subprocess.Popen(
        [sys.executable, "-S", str(HERE / "launch.py"), str(report_w), *argv],
        stdout=subprocess.PIPE,
        stderr=errors,
        env=env,
        pass_fds=(report_w,),
    )
    os.close(report_w)
    with proc, open(report_r, "rb") as report:
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 20):
            if first is None:
                first = time.monotonic()
            hasher.update(chunk)
            out += chunk
        drained = time.monotonic()
        fields = report.read().split()
    if proc.returncode != 0 or len(fields) != 6:
        raise RuntimeError(f"launcher failed for {argv} (exit code {proc.returncode})")
    start, end, code, maxrss_kib, utime, stime = (float(f) for f in fields)
    wall = max(end, drained) - start
    return Spawned(
        exit_code=int(code),
        wall_s=wall,
        first_byte_s=wall if first is None else first - start,
        peak_rss_mb=maxrss_kib / 1024,
        cpu_s=utime + stime,
        stdout=out,
        sha256=hasher.hexdigest(),
    )


def gcdpairs(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "gcdpairs", *argv]


def run_checked(argv, env, errors, checker: Checker, tally: Tally) -> tuple[Spawned, int]:
    run = spawn(gcdpairs(argv), env, errors)
    pairs, problems = checker.check(argv, run.exit_code, run.stdout, run.sha256)
    tally.record(problems)
    return run, pairs


def run_round(commands, env, errors, checker, tally) -> dict:
    """One round: its commands in order, each checked after it has exited."""
    runs = [run_checked(argv, env, errors, checker, tally) for argv in commands]
    wall = sum(r.wall_s for r, _ in runs)
    return {
        "wall_s": wall,
        "first_byte_s": sum(r.first_byte_s for r, _ in runs),
        "peak_rss_mb": max(r.peak_rss_mb for r, _ in runs),
        "pairs_per_s": sum(p for _, p in runs) / wall,
        "cpu_s": sum(r.cpu_s for r, _ in runs),
    }


def summarize(values: list[float]) -> dict:
    """Median, quartiles, extremes and sample count."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    out.update(min=min(values), max=max(values))
    return out


def machine_loop_samples() -> list[float]:
    """Seconds for each of five runs of a fixed pure-Python loop: a slow
    machine shows here as well as in the metrics, a slow change does not."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return samples


def environment(root: Path, args, commands: list[list[str]]) -> dict:
    import networkx
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "gcdpairs").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": args.sizes,
        "commands": [gcdpairs(argv) for argv in commands],
    }


def measure_end_to_end(args, root: Path, checker: Checker, tally: Tally, errors) -> tuple[dict, dict]:
    env = gcdpairs_env(root)
    commands = round_commands(args.workload, SIZES[args.sizes])
    warmup = round_commands(args.workload, SIZES["tiny"])
    checker.prepare(commands + warmup)

    # Untimed warm-up at small sizes: compiles bytecode and pages in the
    # interpreter, numpy and networkx, taking the same code paths as a round.
    run_round(warmup, env, errors, checker, tally)

    rng = random.Random(args.seed)

    def measure_setup(times: int) -> list[float]:
        return [
            run_checked(setup_command(rng), env, errors, checker, tally)[0].wall_s
            for _ in range(times)
        ]

    # Set-up is sampled before and after the rounds, so that its median spans
    # the machine's state over the whole run.
    setup = measure_setup(SETUP_REPEATS // 2 + 1)
    rounds = []
    measured = 0.0
    while True:
        rounds.append(run_round(commands, env, errors, checker, tally))
        measured += rounds[-1]["wall_s"]
        # Start another round only if it is expected to end within --seconds.
        if measured + rounds[-1]["wall_s"] > args.seconds:
            break
    setup += measure_setup(SETUP_REPEATS // 2)

    per_metric = {key: [r[key] for r in rounds] for key in rounds[0]}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(per_metric["wall_s"]), "s"),
        "first_byte_s": (statistics.median(per_metric["first_byte_s"]), "s"),
        "peak_rss_mb": (statistics.median(per_metric["peak_rss_mb"]), "MB"),
        "pairs_per_s": (statistics.median(per_metric["pairs_per_s"]), "1/s"),
    }
    record = {"setup_s": summarize(setup)}
    record.update({key: summarize(values) for key, values in per_metric.items()})
    record["rounds"] = rounds
    return metrics, record


def measure_layers(args, root: Path, checker: Checker, tally: Tally, errors) -> tuple[dict, dict]:
    """One round of the workload for proc.cpu_s, then every layer group in
    its own interpreter; the groups' metrics are merged."""
    env = gcdpairs_env(root)
    commands = round_commands(args.workload, SIZES[args.sizes])
    checker.prepare(commands)
    metrics = {"proc.cpu_s": (run_round(commands, env, errors, checker, tally)["cpu_s"], "s")}

    stdout_bytes = 0
    claims: list[str] = []
    trace = {}
    record = {"groups": {}}
    for name in layers.RUNNERS:
        argv = [sys.executable, str(HERE / "layers.py"), name, "--sizes", args.sizes]
        run = spawn(argv, env, errors)
        if run.exit_code != 0:
            tally.record([f"layer group {name} exited with code {run.exit_code}"])
            continue
        payload = json.loads(run.stdout.decode().rstrip("\n").rsplit("\n", 1)[-1])
        for problems in payload["checks"]:
            tally.record([f"layer group {name}: {p}" for p in problems])
        for metric, (value, unit) in payload["metrics"].items():
            if metric in metrics:
                raise ValueError(f"metric {metric} reported by two layer groups")
            metrics[metric] = (value, unit)
        if name == "verify-claims":
            claims = list(payload["metrics"])
        stdout_bytes += payload["stdout_bytes"]
        trace[name] = payload["spans"]
        record["groups"][name] = {"wall_s": run.wall_s, "peak_rss_mb": run.peak_rss_mb}

    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    untraced = sum(metrics[m][0] for m in claims)
    if "verify.run_verification.s" in metrics and untraced:
        traced = metrics["verify.run_verification.s"][0]
        metrics["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
    out = root / OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    out.write_text(json.dumps(trace))
    record["trace_file"] = str(out.relative_to(root))
    return dict(sorted(metrics.items())), record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gcdpairs" / "__init__.py").is_file():
        print("perfbench: run from the root of a gcdpairs checkout (no src/gcdpairs)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    (root / OUT_DIR).mkdir(exist_ok=True)

    started = time.perf_counter()
    load_before = os.getloadavg()
    loop_samples = machine_loop_samples()
    checker = Checker(args.seed, workloads.load_digests())
    tally = Tally()
    with open(root / OUT_DIR / "stderr.txt", "wb") as errors:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, record = measure(args, root, checker, tally, errors)
    loop_samples += machine_loop_samples()
    loop_s = statistics.median(loop_samples)
    if args.trace:
        metrics["machine.loop_s"] = (loop_s, "s")

    record.update(
        workload=args.workload,
        correct=tally.failed == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        error_rate=tally.failed / max(tally.attempted, 1),
        problems=tally.problems,
        machine={
            "loop_s": summarize(loop_samples),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        elapsed_s=time.perf_counter() - started,
        environment=environment(root, args, round_commands(args.workload, SIZES[args.sizes])),
    )
    print(json.dumps(record))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
