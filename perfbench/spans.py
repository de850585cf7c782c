"""Span recorder for the traced benchmark run.

Run one CLI call in-process with the package's module attributes wrapped
where they are looked up:

    PYTHONPATH=src python perfbench/spans.py OUT.json [--only NAME,...] -- ARGS...

ARGS are the ``insrobust`` CLI arguments; the CLI writes to stdout exactly as
``python -m insrobust ARGS`` would.  Each wrapped call opens a frame on a
stack; when it closes, its duration is charged to its parent, so a layer's
self time is its duration minus the time its wrapped callees took.  Calls of
every name are aggregated as a count, a total, a self total and a bounded
sample of durations; the low-frequency names in ``SPAN_NAMES`` also keep
one span each (id, parent, start, end, self).  Everything stays in memory
until the call returns and is then written to OUT.json.  A wrapped
attribute the package no longer has is listed under ``absent``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

SAMPLE_CAP = 10_000
SPAN_NAMES = frozenset(
    {"cli.main", "counting.census", "repetitions.runs", "classify.fast"}
)


class Stat:
    __slots__ = ("count", "total", "self_total", "hits", "items", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.hits = 0  # calls whose result was a hit (scans)
        self.items = 0  # items in the results (runs found)
        self.samples: list[float] = []

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Recorder:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [start, child time, span id or None]
        self._rng = random.Random(0)

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def wrap(self, fn, name, on_result=None):
        """``fn`` timed under ``name``, or under ``name(args, kwargs)`` if callable."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span_id = None
            if label in SPAN_NAMES:
                span_id = len(self.spans)
                self.spans.append({"id": span_id, "name": label})
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(label, frame, end)
            if on_result is not None:
                on_result(self.stats[label], result)
            return result

        return wrapper

    def _close(self, label: str, frame: list, end: float) -> None:
        start, child_time, span_id = frame
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        stat = self._stat(label)
        stat.count += 1
        stat.total += duration
        stat.self_total += duration - child_time
        if len(stat.samples) < SAMPLE_CAP:
            stat.samples.append(duration)
        else:
            slot = self._rng.randrange(stat.count)
            if slot < SAMPLE_CAP:
                stat.samples[slot] = duration
        if span_id is not None:
            parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
            self.spans[span_id].update(
                parent=parent, start=start, end=end, self=duration - child_time
            )

    def dump(self, path: str, absent: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "stats": {name: stat.as_dict() for name, stat in self.stats.items()},
                    "spans": self.spans,
                    "absent": absent,
                },
                handle,
            )


def _scan_name(args, kwargs) -> str:
    # _leftmost_periodic_start(v, n, p, codes): codes is None on the Python path
    codes = kwargs["codes"] if "codes" in kwargs else args[3] if len(args) > 3 else None
    return "classify.scan_python" if codes is None else "classify.scan_numpy"


def _count_hit(stat: Stat, result) -> None:
    stat.hits += result is not None


def _count_items(stat: Stat, result) -> None:
    stat.items += len(result)


def install(recorder: Recorder, only: set[str] | None) -> list[str]:
    """Wrap the package's attributes; returns the names that could not be wrapped."""
    from insrobust import classify, cli, counting, words

    targets = [
        (cli, "classify_fast", "classify.fast", None),
        (cli, "find_maximal_repetitions", "repetitions.runs", _count_items),
        (cli, "census", "counting.census", None),
        (counting, "_fast_verdict_chars", "counting.verdict", None),
        (counting, "eligible_periods", "classify.eligible_periods", None),
        (classify, "eligible_periods", "classify.eligible_periods", None),
        (classify, "_leftmost_periodic_start", _scan_name, _count_hit),
        (classify, "insert", "classify.witness_check", None),
        (classify, "primitive_root", "classify.witness_check", None),
        (classify, "_root_length", "words.root_length", None),
        (getattr(words, "Word", None), "__post_init__", "words.word_build", None),
    ]
    absent = []
    for owner, attr, name, on_result in targets:
        label = "classify.scan" if callable(name) else name
        if only is not None and label not in only:
            continue
        fn = getattr(owner, attr, None)
        if fn is None:
            absent.append(label)
            continue
        setattr(owner, attr, recorder.wrap(fn, name, on_result))
    return absent


def main(argv: list[str]) -> int:
    if "--" not in argv:
        raise SystemExit("usage: spans.py OUT.json [--only NAME,...] -- ARGS...")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="where to write the stats and spans as JSON")
    parser.add_argument("--only", help="comma-separated names to wrap (default: all)")
    args = parser.parse_args(argv[:split])
    recorder = Recorder()
    absent = install(recorder, set(args.only.split(",")) if args.only else None)
    from insrobust import cli

    code = recorder.wrap(cli.main, "cli.main")(argv[split + 1 :])
    sys.stdout.flush()
    recorder.dump(args.out, absent)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
