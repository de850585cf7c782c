"""Command-line interface.

Subcommands: ``classify`` (verdicts and witnesses for words), ``runs``
(maximal repetitions of one word), ``census`` (exact tallies of the words
of a length, by construction, optionally listed or audited word by word),
``count`` (closed-form counts and bounds), and ``bench`` (timing on seeded
random words).

Every word (argv, ``--file``, stdin) is read as bytes and decoded once: each
byte is one symbol by default, and ``--unicode`` switches to codepoints, a
byte that is not UTF-8 being one symbol.  Output echoes each word's bytes.
Exit codes: 0 success, 1 audit failure, 2 usage or input error, 3 budget
exceeded, 141 stdout closed by its reader.  Every subcommand writes through
one buffered stdout, also under ``python -u``, so a closed pipe always raises.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import sys
import time
from itertools import chain

from .classify import Verdict, classify_fast, classify_oracle
from .counting import (
    DEFAULT_CENSUS_BUDGET,
    BudgetExceededError,
    CensusReport,
    CountReport,
    OracleMismatchError,
    census,
    count_primitive,
    count_report,
)
from .repetitions import find_maximal_repetitions
from .words import Alphabet, Word

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout, as `| head` does

# the one codec rule for CLI words, each byte one symbol or UTF-8 under --unicode,
# both ways with surrogateescape: a word echoes as its input bytes, whatever
# stdout's encoding (latin-1 never needs an escape)
_CODECS = {False: "latin-1", True: "utf-8"}

# one encoder for every JSON line; json.dumps with separators builds a new one per call
_JSON = json.JSONEncoder(separators=(",", ":"))


class CliError(Exception):
    """Usage or input problem; reported on stderr with exit code 2."""


def _emit(fmt: str, records, human, columns=()) -> None:
    """Write ``records`` (dicts) to stdout as ``fmt``, each line as it is made.

    ``jsonl`` is one compact JSON object per record, ``human`` the lines of
    ``human(record)``, ``csv`` a header of ``columns`` and then each record's
    values of them, blank where it lacks one (all are integers, so nothing
    is quoted).  The csv rows are all formatted before the header is written.
    The lines go to stdout in one ``writelines``; ``main`` puts a buffered
    writer under an unbuffered stdout, so a closed pipe always raises.
    """
    # nothing may hold a written line while the next record is made, which
    # can be the peak of the call: so one generator stage for jsonl (a second
    # stage would bind the last line), and only C iterators for human
    if fmt == "jsonl":
        lines = (_JSON.encode(record) + "\n" for record in records)
    elif fmt == "csv":
        rows = [",".join([str(record.get(name, "")) for name in columns]) for record in records]
        lines = (row + "\n" for row in [",".join(columns), *rows])
    else:
        lines = map("{}\n".format, chain.from_iterable(map(human, records)))
    sys.stdout.writelines(lines)


def _symbols_of(data: bytes, unicode_mode: bool) -> str:
    # the one decoding of argv (the bytes os.fsencode gives back), --file and stdin
    return data.decode(_CODECS[unicode_mode], "surrogateescape")


def _read_lines(handle, unicode_mode: bool) -> list[str]:
    # a line ends at b"\n" and is decoded as it is read: the batch is held once
    words = []
    for lineno, line in enumerate(handle, start=1):
        if line.isspace():
            print(f"warning: skipping blank line {lineno}", file=sys.stderr)
            continue
        words.append(_symbols_of(line.rstrip(b"\r\n"), unicode_mode))
    return words


def _gather_words(args) -> list[str]:
    if args.words and args.file:
        raise CliError("give words as arguments or with --file, not both")
    if args.words:
        return [_symbols_of(os.fsencode(word), args.unicode) for word in args.words]
    if args.file:
        try:
            with open(args.file, "rb") as handle:
                return _read_lines(handle, args.unicode)
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from exc
    return _read_lines(sys.stdin.buffer, args.unicode)


def _inferred_symbols(texts: list[str]) -> str:
    """Every symbol of the batch, in codepoint order."""
    # deleting the symbols seen so far leaves only the new ones, so only a
    # word with a new symbol pays for a set
    seen: dict[int, None] = {}
    for text in texts:
        rest = text.translate(seen)
        if rest:
            seen.update(dict.fromkeys(map(ord, set(rest))))
    return "".join(map(chr, sorted(seen)))


def _classification_record(text: str, result) -> dict:
    record: dict = {"word": text, "verdict": result.verdict.value}
    if result.verdict is Verdict.NON_PRIMITIVE:
        record["root"] = result.root.chars
        record["exponent"] = result.exponent
    elif result.verdict is Verdict.NON_INS_ROBUST:
        record["witnesses"] = [
            {
                "position": wit.position,
                "letter": wit.letter,
                "root": wit.root.chars,
                "power": wit.power,
            }
            for wit in result.witnesses
        ]
    return record


def _classification_lines(record: dict) -> list[str]:
    text, verdict = record["word"], record["verdict"]
    if verdict == "non-primitive":
        return [f"{text}\t{verdict}\t{record['root']}^{record['exponent']}"]
    if verdict == "ins-robust":
        return [f"{text}\t{verdict}"]
    witnesses = record["witnesses"]
    wit = witnesses[0]
    line = (
        f"{text}\t{verdict}\t"
        f"insert {wit['letter']} at {wit['position']} -> {wit['root']}^{wit['power']}"
    )
    if len(witnesses) > 1:
        line += f"\t(+{len(witnesses) - 1} more)"
    return [line]


def _cmd_classify(args) -> int:
    texts = _gather_words(args)
    if not texts:
        raise CliError("no input words")
    if any(not text for text in texts):
        raise CliError("words must be non-empty")
    if args.alphabet is not None:
        symbols = _symbols_of(os.fsencode(args.alphabet), args.unicode)
    else:
        symbols = _inferred_symbols(texts)
    # main reports a ValueError of Alphabet or Word as a usage error
    alphabet = Alphabet(symbols)
    if len(alphabet) < 2:
        if args.alphabet is None:
            raise CliError(
                "inferred alphabet has fewer than two symbols; pass --alphabet to widen it"
            )
        raise CliError("alphabet must contain at least two symbols")
    classifier = classify_oracle if args.oracle else classify_fast
    records = (
        _classification_record(text, classifier(Word(text, alphabet))) for text in texts
    )
    _emit(args.format, records, _classification_lines)
    return EXIT_OK


def _cmd_runs(args) -> int:
    text = _symbols_of(os.fsencode(args.word), args.unicode)
    rows = []
    if text:
        rows = find_maximal_repetitions(Word(text, Alphabet(_inferred_symbols([text]))))
    # runs keeps its own line writer rather than _emit: a dict per run
    # encoded by _JSON took 0.21 s against 0.034 s for these cached tails on
    # the 10^5-symbol Fibonacci prefix (76,387 runs).
    # length / period is correctly rounded, so it is float(run.exponent);
    # the lines are generated lazily so no copy of the output is held, and
    # each line's tail is formatted once per (length, period)
    if args.format == "jsonl":
        head, sep = '{"start":', ","
        tail = '"length":{0},"period":{1},"exponent":{2!r}}}\n'.format
    else:
        sys.stdout.write("start\tlength\tperiod\texponent\n")
        head, sep = "", "\t"
        tail = "{0}\t{1}\t{2:g}\n".format
    tails = {}

    def lines():
        for start, length, period in rows:
            end = tails.get((length, period))
            if end is None:
                end = tails[length, period] = tail(length, period, length / period)
            yield f"{head}{start}{sep}{end}"

    sys.stdout.writelines(lines())
    return EXIT_OK


def _census_lines(record: dict):
    # a generator, so --list streams its words; tally fields are named as the verdicts
    tallies = {verdict.value: record[verdict.name.lower()] for verdict in Verdict}
    yield f"census n={record['n']} k={record['k']} total={sum(tallies.values())}"
    for verdict, tally in tallies.items():
        yield f"{verdict}\t{tally}"
    for verdict, entries in record.get("words", {}).items():
        for entry in entries:
            yield f"list\t{verdict}\t{entry}"


def _cmd_census(args) -> int:
    if not 2 <= args.k <= 26:
        raise CliError("census alphabet size must be between 2 and 26 (letters a..z)")
    if args.format == "csv" and args.list:
        raise CliError("--list is not available with csv; use human or jsonl")
    if args.budget < 1:
        raise CliError("--budget must be at least 1")
    from string import ascii_lowercase

    alphabet = Alphabet(ascii_lowercase[: args.k])
    report = census(
        args.n, alphabet, list_words=args.list, budget=args.budget, audit_oracle=args.oracle
    )
    record = report._asdict()
    if record.pop("words") is not None:
        record["words"] = {verdict.value: report.words[verdict] for verdict in Verdict}
    columns = [name for name in CensusReport._fields if name != "words"]
    _emit(args.format, [record], _census_lines, columns)
    return EXIT_OK


def _count_lines(record: dict) -> list[str]:
    # a list, so every value is formatted before the first line is written
    lines = [f"count n={record['n']} k={record['k']}"]
    lines += [
        f"{name.replace('_', '-')}\t{record[name]}"
        for name in CountReport._fields[2:]
        if name in record
    ]
    if "note" in record:
        lines.append(f"note: {record['note']}")
    elif record["vacuous"]:
        lines[-1] += " (vacuous)"
    return lines


def _cmd_count(args) -> int:
    n, k = args.n, args.k
    if n < 1:
        raise CliError("count requires a word length n >= 1")
    if k < 1:
        raise CliError("count requires an alphabet size k >= 1")
    if n >= 2 and k >= 2:
        report = count_report(n, k)
        record = {**report._asdict(), "vacuous": report.vacuous}
    else:
        total, primitive = k**n, count_primitive(n, k)
        record = dict(zip(CountReport._fields, (n, k, total, primitive, total - primitive)))
        record["note"] = "bounds require n >= 2 and k >= 2"
    # _emit formats the one record in full before it writes, so a value past
    # Python's int-to-str digit limit leaves stdout empty
    try:
        _emit(args.format, [record], _count_lines, CountReport._fields)
    except ValueError:
        raise CliError(
            f"count n={n} k={k} has values longer than Python's limit of"
            f" {sys.get_int_max_str_digits()} digits for integer output"
        ) from None
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo < 1 or hi < lo:
                raise CliError(f"bad size range {text!r}")
            sizes = []
            n = lo
            while n <= hi:
                sizes.append(n)
                n *= 2
            return sizes
        sizes = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise CliError(f"sizes must be integers, got {text!r}") from None
    if not sizes or any(size < 1 for size in sizes) or len(set(sizes)) < len(sizes):
        raise CliError(f"bad sizes {text!r}")
    return sizes


def _random_binary_word(n: int, seed: int) -> str:
    rng = random.Random(seed * 1_000_003 + n)
    return "".join(rng.choices("ab", k=n))


def _loglog_slope(points: list[tuple[int, float]]) -> float:
    import statistics

    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(seconds, 1e-9)) for _, seconds in points]
    return statistics.linear_regression(xs, ys).slope


def _cmd_bench(args) -> int:
    import statistics

    if args.trials < 1:
        raise CliError("bench needs at least one trial")
    sizes = _parse_sizes(args.sizes)
    alphabet = Alphabet("ab")
    fast_medians: list[tuple[int, float]] = []
    print("n\tfast_median_s\tfast_mean_s\toracle_s\tratio")
    for n in sizes:
        word = Word(_random_binary_word(n, args.seed), alphabet)
        times = []
        for _ in range(args.trials):
            started = time.perf_counter()
            classify_fast(word)
            times.append(time.perf_counter() - started)
        fast_median = statistics.median(times)
        fast_mean = statistics.fmean(times)
        fast_medians.append((n, fast_median))
        oracle_seconds = None
        if n <= args.oracle_cutoff:
            started = time.perf_counter()
            classify_oracle(word)
            oracle_seconds = time.perf_counter() - started
        oracle_text = f"{oracle_seconds:.6f}" if oracle_seconds is not None else "-"
        ratio_text = (
            f"{oracle_seconds / fast_median:.1f}"
            if oracle_seconds is not None and fast_median > 0
            else "-"
        )
        print(f"{n}\t{fast_median:.6f}\t{fast_mean:.6f}\t{oracle_text}\t{ratio_text}")
    if len(fast_medians) >= 2:
        print(f"slope\t{_loglog_slope(fast_medians):.3f}")
    else:
        print("slope\t- (need at least two sizes)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insrobust",
        description="Decide primitivity and insertion-robustness of finite words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify words as non-primitive / ins-robust / non-ins-robust"
    )
    p_classify.add_argument(
        "words", nargs="*", help="words to classify (default: read stdin, one per line)"
    )
    p_classify.add_argument("--file", help="read words from a file, one per line")
    p_classify.add_argument(
        "--alphabet", help="explicit alphabet symbols (default: inferred from the whole batch)"
    )
    p_classify.add_argument(
        "--oracle",
        action="store_true",
        help="use the exhaustive insertion oracle and list every witness",
    )
    p_classify.add_argument("--format", choices=("human", "jsonl"), default="human")
    p_classify.add_argument(
        "--unicode", action="store_true", help="treat input as codepoints instead of bytes"
    )
    p_classify.set_defaults(handler=_cmd_classify)

    p_runs = sub.add_parser("runs", help="list the maximal repetitions of a word")
    p_runs.add_argument("word")
    p_runs.add_argument("--format", choices=("human", "jsonl"), default="human")
    p_runs.add_argument(
        "--unicode", action="store_true", help="treat input as codepoints instead of bytes"
    )
    p_runs.set_defaults(handler=_cmd_runs)

    p_census = sub.add_parser(
        "census",
        help="tally the words of length n over the first k lowercase letters by verdict",
    )
    p_census.add_argument("n", type=int)
    p_census.add_argument("k", type=int)
    p_census.add_argument("--list", action="store_true", help="include the words of each class")
    p_census.add_argument(
        "--oracle",
        action="store_true",
        help="check every word's verdict with the fast classifier and the insertion oracle",
    )
    p_census.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_CENSUS_BUDGET,
        help="largest k^n, the number of words, to accept (default %(default)s)",
    )
    p_census.add_argument("--format", choices=("human", "jsonl", "csv"), default="human")
    p_census.set_defaults(handler=_cmd_census)

    p_count = sub.add_parser("count", help="closed-form counts and bounds")
    p_count.add_argument("n", type=int)
    p_count.add_argument("k", type=int)
    p_count.add_argument("--format", choices=("human", "jsonl", "csv"), default="human")
    p_count.set_defaults(handler=_cmd_count)

    p_bench = sub.add_parser("bench", help="time the classifier on seeded random words")
    p_bench.add_argument(
        "--sizes", default="4096..1048576", help="doubling range A..B or a comma list"
    )
    p_bench.add_argument("--trials", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--oracle-cutoff",
        type=int,
        default=20000,
        help="largest n at which the oracle is also timed",
    )
    p_bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    codec = _CODECS[getattr(args, "unicode", False)]
    out, restore = sys.stdout, None
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        # under python -u a write cut short by a closed pipe goes unreported;
        # a line-buffered writer retries it, and so raises BrokenPipeError
        sys.stdout = open(out.fileno(), "w", 1, codec, "surrogateescape", closefd=False)
    elif hasattr(out, "reconfigure"):
        restore = {"encoding": out.encoding, "errors": out.errors}
        out.reconfigure(encoding=codec, errors="surrogateescape")
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # later writes, and the flush at exit, go to devnull, so no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OracleMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:  # an in-process caller gets its stdout back as it was
        sys.stdout = out
        if restore:
            out.reconfigure(**restore)


def run() -> None:
    """The process entry of ``python -m insrobust`` and the console script.

    Calls ``main``, flushes stdout and stderr, and ends the process with its
    exit code by ``os._exit``, skipping the interpreter's teardown (module
    clean-up and a last garbage collection, about 9 ms a call); so ``atexit``
    hooks do not run.  An exception out of ``main``, argparse's
    ``SystemExit`` among them, or a failed flush, exits the normal way.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        # the normal exit flushes again and reports the failure as it always has
        sys.exit(code)
    os._exit(code)
