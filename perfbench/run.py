"""The insrobust benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload's inputs are built
from the seed (``inputs.py``).  Every CLI call runs as its own child process,
``PYTHONPATH=src python -m insrobust ...``, one at a time, with the census
single-process.  A pass is one run of all of a workload's calls.  Passes
repeat for S seconds; the last one stops at the first call whose mean time
so far would not fit.  After the timed passes, ``checks.py`` checks the
first pass's outputs, and every later call must repeat them byte for byte.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: wall time of one pass, the sum over its calls of each call's
  mean wall time over the run;
- ``setup_s``: wall time of ``insrobust count 2 2`` (interpreter start and
  imports), the median of SETUP_CALLS calls before the passes and
  SETUP_CALLS_PER_PASS after each whole pass, so the samples span the run;
- ``symbols_per_s``: input symbols of a pass per second of ``wall_s`` (for
  the census, n times the number of words);
- ``words_per_s``: input words of a pass per second of ``wall_s`` (for the
  census, words classified);
- ``peak_rss_mb``: the largest child peak RSS of a pass, from ``wait4``,
  each call's median over the run.

The times and rates are means over all of a run's calls, not medians: the
host's speed drifts over tens of seconds, and the median of a handful of
calls follows one level while the run's mean follows their mix, so the
run-to-run spread is smaller.

``error_rate`` (failed / attempted checks; a non-zero exit is a failure) is
printed with them and carried by ``attempted`` and ``failed`` in the result.

``--trace 1`` alternates untraced passes with traced ones, which run each
call in-process under ``spans.py``, and reports the per-layer metrics of
``LAYERS`` from the traced passes, ``trace.overhead_s`` (traced minus
untraced pass wall time) and the census-sharding probe: ``census 17 2``
with one worker and with ``INSROBUST_THREADS`` = min(2, CPUs).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Outside a checkout with ``src/insrobust`` the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import inputs
from checks import Tally, check_census_output

ROOT = Path(__file__).resolve().parent.parent
SPANS = Path(__file__).resolve().parent / "spans.py"
OUT = ROOT / ".bench_out"
SETUP_CALLS = 6
SETUP_CALLS_PER_PASS = 3
DEADLINE_S = 170  # a run must end within 180 s; children are killed after this
PROBE_WORKERS = min(2, len(os.sched_getaffinity(0)))

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "symbols_per_s": "1/s",
    "words_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Child:
    wall: float
    rss_mb: float
    code: int
    output: Path


class Runner:
    """Starts one child at a time, stdout to a file, and times it."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.deadline = started + DEADLINE_S
        self.stderr = workdir / "stderr.txt"
        # Children see the caller's environment with src first on the path,
        # a single-process census, block-buffered stdout and a writable
        # bytecode cache, as from a plain shell; these settings move wall time.
        src, inherited = str(ROOT / "src"), os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{inherited}" if inherited else src)
        for name in ("INSROBUST_THREADS", "PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)
        self._serial = 0

    def child(self, argv: list[str], env: dict | None = None) -> Child:
        self._serial += 1
        output = self.workdir / f"out-{self._serial}.txt"
        limit = max(1.0, self.deadline - time.monotonic())
        with open(output, "wb") as out, open(self.stderr, "ab") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                stdout=out,
                stderr=err,
                env=env or self.env,
                cwd=ROOT,
                start_new_session=True,  # a timeout also ends census pool workers
            )
            timer = threading.Timer(limit, kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024, code, output)

    def cli(self, args: list[str], env: dict | None = None) -> Child:
        return self.child(["-m", "insrobust", *args], env)

    def traced(self, args: list[str], spans: Path, only: str | None = None, env=None) -> Child:
        extra = ["--only", only] if only else []
        return self.child([str(SPANS), str(spans), *extra, "--", *args], env)

    def untraced_pass(self, workload: inputs.Workload) -> list[Child]:
        return [self.cli(call) for call in workload.calls]

    def traced_pass(self, workload: inputs.Workload) -> tuple[list[Child], dict]:
        children, stats, absent = [], {}, set()
        for index, call in enumerate(workload.calls):
            spans = self.workdir / f"spans-{self._serial + 1}.json"
            children.append(self.traced(call, spans))
            if spans.is_file():
                record = json.loads(spans.read_text(encoding="utf-8"))
                merge(stats, record["stats"])
                absent.update(record["absent"])
                shutil.copyfile(spans, OUT / f"spans-{call[0]}-{index}.json")
        return children, {"stats": stats, "absent": absent}


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def merge(into: dict, stats: dict) -> None:
    for name, stat in stats.items():
        held = into.setdefault(name, {key: 0 for key in stat} | {"samples": []})
        for key, value in stat.items():
            held[key] += value


def repeat(step, seconds: float) -> list:
    """Call ``step`` at least once, and again while another call fits in ``seconds``."""
    results = []
    started = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - started
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def verify(workload: inputs.Workload, passes: list[list[Child]]) -> Tally:
    """Checks the first pass in full; later passes must repeat its bytes."""
    tally = Tally()
    first = passes[0]
    for run in passes:
        for call, child, reference in zip(workload.calls, run, first):
            if tally.check(child.code == 0, f"{call[0]} exited with {child.code}"):
                if run is not first:
                    tally.check(
                        digest(child.output) == digest(reference.output),
                        f"{call[0]} output differs between passes",
                    )
    if all(child.code == 0 for child in first):
        tally.add(workload.check([child.output.read_bytes() for child in first]))
    return tally


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def wall(run: list[Child]) -> float:
    return sum(child.wall for child in run)


def end_to_end(runner: Runner, workload: inputs.Workload, seconds: float):
    runner.cli(["count", "2", "2"])  # writes the bytecode cache
    setup_calls = [runner.cli(["count", "2", "2"]) for _ in range(SETUP_CALLS)]
    passes: list[list[Child]] = []
    started = time.perf_counter()
    while True:  # the last pass stops at the first call that would not fit
        run: list[Child] = []
        for index, call in enumerate(workload.calls):
            if passes:
                expected = statistics.fmean(done[index].wall for done in passes)
                if time.perf_counter() - started + expected > seconds:
                    break
            run.append(runner.cli(call))
        if run:
            passes.append(run)
        if len(run) < len(workload.calls):
            break
        setup_calls.extend(runner.cli(["count", "2", "2"]) for _ in range(SETUP_CALLS_PER_PASS))
    tally = verify(workload, passes)
    for child in setup_calls:
        tally.check(child.code == 0, f"count exited with {child.code}")
    setup = [child.wall for child in setup_calls]
    per_call = [
        [run[index] for run in passes if index < len(run)] for index in range(len(workload.calls))
    ]
    for call, children in zip(workload.calls, per_call):
        walls = " ".join(f"{child.wall:.4f}" for child in children)
        print(f"# {call[0]}: {len(children)} calls, wall_s: {walls}")
    print("# setup_s: " + " ".join(f"{s:.4f}" for s in setup))
    per_pass = sum(statistics.fmean(c.wall for c in children) for children in per_call)
    metrics = {
        "wall_s": per_pass,
        "setup_s": statistics.median(setup),
        "symbols_per_s": workload.symbols / per_pass,
        "words_per_s": workload.words / per_pass,
        "peak_rss_mb": max(statistics.median(c.rss_mb for c in children) for children in per_call),
    }
    return metrics, END_TO_END, tally


def percentile_ms(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return 1000 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reader(stats: dict):
    """``get(name, key)``: one figure of the merged stats, 0 if never called."""

    def get(name: str, key: str = "total"):
        return stats[name][key] if name in stats else 0

    return get


# name, unit, better, wrapped attribute it needs (see spans.install), figure
LAYERS = [
    ("classify.periods_scanned", "count", "lower", "classify.scan",
     lambda g: g("classify.scan_numpy", "count") + g("classify.scan_python", "count")),
    ("classify.scan_numpy_s", "s", "lower", "classify.scan",
     lambda g: g("classify.scan_numpy")),
    ("classify.scan_numpy_calls", "count", "lower", "classify.scan",
     lambda g: g("classify.scan_numpy", "count")),
    ("classify.scan_hit_ratio", "ratio", "higher", "classify.scan",
     lambda g: (g("classify.scan_numpy", "hits") + g("classify.scan_python", "hits"))
     / max(1, g("classify.scan_numpy", "count") + g("classify.scan_python", "count"))),
    ("classify.scan_python_s", "s", "lower", "classify.scan",
     lambda g: g("classify.scan_python")),
    ("classify.scan_python_calls", "count", "lower", "classify.scan",
     lambda g: g("classify.scan_python", "count")),
    ("classify.eligible_periods_s", "s", "lower", "classify.eligible_periods",
     lambda g: g("classify.eligible_periods")),
    ("words.root_length_s", "s", "lower", "words.root_length",
     lambda g: g("words.root_length")),
    ("words.root_length_calls", "count", "lower", "words.root_length",
     lambda g: g("words.root_length", "count")),
    ("classify.fast_s", "s", "lower", "classify.fast", lambda g: g("classify.fast")),
    ("classify.fast_calls", "count", "lower", "classify.fast",
     lambda g: g("classify.fast", "count")),
    ("classify.fast_p50_ms", "ms", "lower", "classify.fast",
     lambda g: percentile_ms(g("classify.fast", "samples") or [], 0.50)),
    ("classify.fast_p99_ms", "ms", "lower", "classify.fast",
     lambda g: percentile_ms(g("classify.fast", "samples") or [], 0.99)),
    ("classify.witness_check_s", "s", "lower", "classify.witness_check",
     lambda g: g("classify.witness_check")),
    ("words.word_build_s", "s", "lower", "words.word_build",
     lambda g: g("words.word_build")),
    ("words.word_build_calls", "count", "lower", "words.word_build",
     lambda g: g("words.word_build", "count")),
    ("counting.census_s", "s", "lower", "counting.census", lambda g: g("counting.census")),
    ("counting.verdict_s", "s", "lower", "counting.verdict",
     lambda g: g("counting.verdict")),
    ("counting.verdict_calls", "count", "lower", "counting.verdict",
     lambda g: g("counting.verdict", "count")),
    ("counting.enumerate_s", "s", "lower", "counting.census",
     lambda g: g("counting.census", "self_total")),
    ("repetitions.runs_s", "s", "lower", "repetitions.runs",
     lambda g: g("repetitions.runs")),
    ("repetitions.runs_found", "count", "lower", "repetitions.runs",
     lambda g: g("repetitions.runs", "items")),
    ("cli.main_s", "s", "lower", "cli.main", lambda g: g("cli.main")),
    ("cli.self_s", "s", "lower", "cli.main", lambda g: g("cli.main", "self_total")),
]
PROBE_AND_OVERHEAD = {
    "counting.census_w2_s": "s",
    "counting.shard_efficiency": "ratio",
    "trace.overhead_s": "s",
}


def census_probe(runner: Runner, tally: Tally) -> dict[str, float]:
    """Traced ``census 17 2`` with one worker, then with PROBE_WORKERS."""
    n, k, pinned = inputs.CENSUS_POINTS[0]
    seconds = {}
    for workers in (1, PROBE_WORKERS):
        env = dict(runner.env, INSROBUST_THREADS=str(workers))
        spans = runner.workdir / f"probe-{workers}.json"
        child = runner.traced(
            ["census", str(n), str(k), "--format", "jsonl"], spans, "counting.census", env
        )
        if tally.check(child.code == 0, f"census probe exited with {child.code}"):
            tally.add(check_census_output(n, k, pinned, child.output.read_bytes()))
            record = json.loads(spans.read_text(encoding="utf-8"))
            seconds[workers] = record["stats"]["counting.census"]["total"]
    if len(seconds) < 2:
        return {}
    return {
        "counting.census_w2_s": seconds[PROBE_WORKERS],
        "counting.shard_efficiency": seconds[1] / (PROBE_WORKERS * seconds[PROBE_WORKERS]),
    }


def per_layer(runner: Runner, workload: inputs.Workload, seconds: float):
    pairs = repeat(
        lambda: (runner.untraced_pass(workload), runner.traced_pass(workload)), seconds
    )
    plain = [run for run, _ in pairs]
    traced = [children for _, (children, _) in pairs]
    tally = verify(workload, plain + traced)
    absent = set().union(*(trace["absent"] for _, (_, trace) in pairs))
    if "repetitions.runs" not in absent:
        # runs_found is fixed by the inputs: each traced pass must find the checked runs
        checked = sum(
            len(child.output.read_bytes().splitlines())
            for call, child in zip(workload.calls, plain[0])
            if call[0] == "runs"
        )
        for _, (_, trace) in pairs:
            found = reader(trace["stats"])("repetitions.runs", "items")
            tally.check(found == checked, f"traced run found {found} runs, the checks {checked}")
    metrics, units = {}, {}
    for name, unit, _, needs, figure in LAYERS:
        units[name] = unit
        if needs not in absent:
            metrics[name] = statistics.median(
                figure(reader(trace["stats"])) for _, (_, trace) in pairs
            )
    metrics.update(census_probe(runner, tally))
    metrics["trace.overhead_s"] = statistics.median(map(wall, traced)) - statistics.median(
        map(wall, plain)
    )
    units.update(PROBE_AND_OVERHEAD)
    missing = [name for name in units if name not in metrics]
    if missing:
        print("# absent: " + " ".join(missing))
    print(f"# {len(pairs)} traced passes, wall_s: " + " ".join(f"{wall(r):.4f}" for r in traced))
    return metrics, units, tally


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the insrobust CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "insrobust" / "__main__.py").is_file():
        print(f"error: no src/insrobust under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so a running child's process group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(workdir, started)
        workload = inputs.build(args.workload, args.seed, workdir)
        print("# env " + json.dumps(environment()))
        print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
        measure = per_layer if args.trace else end_to_end
        metrics, units, tally = measure(runner, workload, args.seconds)
        if tally.failed and runner.stderr.is_file():
            sys.stderr.write(runner.stderr.read_text(errors="replace")[-2000:])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {tally.failed / max(1, tally.attempted):.6g} ({tally.failed}/{tally.attempted} checks failed)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
