import importlib
import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import child_env

import insrobust
from insrobust.cli import _inferred_symbols, main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")


def _console_script(name):
    """The ``module:attr`` target of ``name`` in ``[project.scripts]``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"][name]


def _stdout_env(unbuffered):
    """The children's environment with Python's stdout buffered or unbuffered."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a usage error by exiting
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_human_fixtures(self, capsys):
        code, out, err = run_cli(capsys, "classify", "aab", "abba", "abab")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "aab\tnon-ins-robust\tinsert b at 1 -> ab^2"
        assert lines[1] == "abba\tins-robust"
        assert lines[2] == "abab\tnon-primitive\tab^2"

    def test_jsonl_fields(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "aab", "abab", "ab", "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {
            "word": "aab",
            "verdict": "non-ins-robust",
            "witnesses": [{"position": 1, "letter": "b", "root": "ab", "power": 2}],
        }
        assert records[1] == {
            "word": "abab",
            "verdict": "non-primitive",
            "root": "ab",
            "exponent": 2,
        }
        assert records[2] == {"word": "ab", "verdict": "ins-robust"}
        # key order is fixed
        assert out.splitlines()[0].startswith('{"word":"aab","verdict":')

    def test_jsonl_is_byte_stable(self, capsys):
        first = run_cli(capsys, "classify", "aab", "aabaa", "--oracle", "--format", "jsonl")
        second = run_cli(capsys, "classify", "aab", "aabaa", "--oracle", "--format", "jsonl")
        assert first == second
        assert first[0] == 0

    def test_oracle_lists_sorted_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "aabaa", "--oracle", "--format", "jsonl")
        assert code == 0
        witnesses = json.loads(out)["witnesses"]
        assert len(witnesses) == 2
        keys = [(wit["position"], wit["letter"]) for wit in witnesses]
        assert keys == [(0, "b"), (5, "b")]

    def test_csv_rejected(self, capsys):
        code, _, err = run_cli(capsys, "classify", "aab", "--format", "csv")
        assert code == 2
        assert "'human'" in err and "'jsonl'" in err

    def test_unary_inferred_alphabet_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "classify", "aaa")
        assert code == 2
        assert "--alphabet" in err

    def test_explicit_alphabet_widens(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "aaa", "--alphabet", "ab")
        assert code == 0
        assert out.startswith("aaa\tnon-primitive\ta^3")

    def test_batch_wide_inference(self, capsys):
        # 'aaa' alone would fail, but the batch supplies a second symbol
        code, out, _ = run_cli(capsys, "classify", "aaa", "b")
        assert code == 0
        assert out.splitlines()[0].startswith("aaa\tnon-primitive")

    def test_foreign_symbol_under_explicit_alphabet(self, capsys):
        code, _, err = run_cli(capsys, "classify", "abc", "--alphabet", "ab")
        assert code == 2
        assert "outside alphabet" in err

    def test_duplicate_alphabet_symbols(self, capsys):
        code, _, err = run_cli(capsys, "classify", "ab", "--alphabet", "aab")
        assert code == 2
        assert "duplicate" in err

    def test_empty_word_rejected(self, capsys):
        code, _, err = run_cli(capsys, "classify", "", "ab")
        assert code == 2
        assert "non-empty" in err

    def test_stdin_with_blank_lines(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"aab\n\n   \nabba\n")))
        code, out, err = run_cli(capsys, "classify")
        assert code == 0
        assert len(out.splitlines()) == 2
        assert "skipping blank line 2" in err
        assert "skipping blank line 3" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("aab\nabba\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "classify", "--file", str(path))
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_file_and_args_conflict(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("aab\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "classify", "aab", "--file", str(path))
        assert code == 2
        assert "not both" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--file", "/nonexistent/words.txt")
        assert code == 2

    def test_no_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"")))
        code, _, err = run_cli(capsys, "classify")
        assert code == 2
        assert "no input words" in err

    def test_byte_mode_splits_multibyte_characters(self, capsys):
        # "éé" is four UTF-8 bytes forming a two-byte square
        code, out, _ = run_cli(capsys, "classify", "éé", "--format", "jsonl")
        assert code == 0
        record = json.loads(out)
        assert record["verdict"] == "non-primitive"
        assert record["exponent"] == 2

    def test_unicode_mode_uses_codepoints(self, capsys):
        code, _, err = run_cli(capsys, "classify", "éé", "--unicode")
        assert code == 2  # single-symbol alphabet
        assert "--alphabet" in err
        code, out, _ = run_cli(capsys, "classify", "éz", "--unicode")
        assert code == 0
        assert "ins-robust" in out


class TestInferenceAndValidation:
    """Alphabet inference and symbol checks, pinned to the exact bytes and
    exit codes of the ``set``-based code they replaced."""

    def test_symbol_first_seen_in_the_last_word(self, capsys):
        # "a" appears only in the last word and sorts first in the alphabet
        words = ["bcbc", "cbcb", "bcb", "cbbc", "abc"]
        code, out, err = run_cli(capsys, "classify", "--oracle", "--format", "jsonl", *words)
        assert (code, err) == (0, "")
        assert out == (
            '{"word":"bcbc","verdict":"non-primitive","root":"bc","exponent":2}\n'
            '{"word":"cbcb","verdict":"non-primitive","root":"cb","exponent":2}\n'
            '{"word":"bcb","verdict":"non-ins-robust","witnesses":['
            '{"position":0,"letter":"c","root":"cb","power":2},'
            '{"position":3,"letter":"c","root":"bc","power":2}]}\n'
            '{"word":"cbbc","verdict":"ins-robust"}\n'
            '{"word":"abc","verdict":"ins-robust"}\n'
        )
        code, out, err = run_cli(capsys, "classify", "aaa", "bab", "abcab")
        assert (code, err) == (0, "")
        assert out == (
            "aaa\tnon-primitive\ta^3\n"
            "bab\tnon-ins-robust\tinsert a at 0 -> ab^2\n"
            "abcab\tnon-ins-robust\tinsert c at 0 -> cab^2\n"
        )

    def test_inferred_symbols(self):
        grin = "\U0001f600"
        cases = [
            (["aaa", "bcb"], "abc"),  # two new symbols in the last word
            (["cbc", "b", "a"], "abc"),
            (["ba", "ab"], "ab"),
            (["z" + grin, "\xc3\xa9", "z"], "z\xa9\xc3" + grin),
            (["aaa"], "a"),
        ]
        for texts, expected in cases:
            assert _inferred_symbols(texts) == expected, texts

    def test_one_symbol_batch(self, capsys):
        assert run_cli(capsys, "classify", "aaa", "aaaa") == (
            2,
            "",
            "error: inferred alphabet has fewer than two symbols; pass --alphabet to widen it\n",
        )
        assert run_cli(capsys, "classify", "--alphabet", "a", "aa") == (
            2,
            "",
            "error: alphabet must contain at least two symbols\n",
        )

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["runs", b"a\xffa\xff"], b"start\tlength\tperiod\texponent\n0\t4\t2\t2\n"),
            (
                ["classify", b"ab\xff", "--format", "jsonl"],
                b'{"word":"ab\\u00ff","verdict":"ins-robust"}\n',
            ),
        ],
        ids=["runs", "classify"],
    )
    def test_argv_bytes_that_are_not_utf8(self, argv, expected):
        # byte mode: each argv byte is one symbol, UTF-8 or not
        call = subprocess.run(
            [sys.executable, "-m", "insrobust", *argv],
            capture_output=True,
            env=child_env(PYTHONUTF8="1"),
            timeout=60,
        )
        assert (call.returncode, call.stdout, call.stderr) == (0, expected, b"")

    @pytest.mark.parametrize("encoding", ["utf-8:strict", "latin-1:strict", "ascii:strict"])
    @pytest.mark.parametrize(
        "argv, stdin, expected",
        [
            (
                ["classify", "--unicode"],
                b"aab\nab\xff\nabba\n",
                b"aab\tnon-ins-robust\tinsert b at 1 -> ab^2\n"
                b"ab\xff\tins-robust\n"
                b"abba\tins-robust\n",
            ),
            (
                ["runs", "--unicode", b"a\xffa\xff"],
                b"",
                b"start\tlength\tperiod\texponent\n0\t4\t2\t2\n",
            ),
            # byte mode: "\xc3\xa9" (UTF-8 "é") is two symbols, echoed as its two bytes
            (
                ["classify", b"\xc3\xa9a", b"a\xc3\xa9", b"\xc3\xa9\xc3\xa9a"],
                b"",
                b"\xc3\xa9a\tins-robust\n"
                b"a\xc3\xa9\tins-robust\n"
                b"\xc3\xa9\xc3\xa9a\tnon-ins-robust\tinsert a at 2 -> \xc3\xa9a^2\n",
            ),
            (
                ["classify", b"\xc3\xa9a", b"a\xc3\xa9", "--alphabet", b"a\xc3\xa9"],
                b"",
                b"\xc3\xa9a\tins-robust\na\xc3\xa9\tins-robust\n",
            ),
            (
                ["classify"],
                b"aab\n\xc3\xa9a\nab\xff\n",
                b"aab\tnon-ins-robust\tinsert b at 1 -> ab^2\n"
                b"\xc3\xa9a\tins-robust\n"
                b"ab\xff\tins-robust\n",
            ),
        ],
        ids=["classify", "runs", "bytes-argv", "bytes-alphabet", "bytes-stdin"],
    )
    def test_stray_byte_round_trips_under_every_encoding(self, argv, stdin, expected, encoding):
        # stdout writes each symbol back in the codec it was read with, even
        # where its own error handler is strict: in byte mode each symbol is
        # its byte, and under --unicode a byte that is not UTF-8 is one
        # symbol, a surrogate escape
        call = subprocess.run(
            [sys.executable, "-m", "insrobust", *argv],
            input=stdin,
            capture_output=True,
            env=child_env(PYTHONIOENCODING=encoding),
            timeout=60,
        )
        assert (call.returncode, call.stdout, call.stderr) == (0, expected, b"")

    @pytest.mark.parametrize("unicode_mode", [False, True], ids=["bytes", "unicode"])
    @pytest.mark.parametrize(
        "data, byte_words, unicode_words, err",
        [
            (b"ab\xff\n", ["ab\xff"], ["ab\udcff"], b""),
            # a line ends at \n only, so the lone \r stays in the word
            (b"ab\rba\r\naab\n", ["ab\rba", "aab"], ["ab\rba", "aab"], b""),
            (
                b"aab\n   \nabba\n",
                ["aab", "abba"],
                ["aab", "abba"],
                b"warning: skipping blank line 2\n",
            ),
            # only ASCII whitespace is blank: a no-break space is a word
            (b"aab\n\xc2\xa0\nabba\n", ["aab", "\xc2\xa0", "abba"], ["aab", "\xa0", "abba"], b""),
        ],
        ids=["not-utf8", "lone-cr", "spaces", "nbsp"],
    )
    def test_one_rule_for_every_source(
        self, tmp_path, data, byte_words, unicode_words, err, unicode_mode
    ):
        # the same bytes through --file, stdin and, where they are one word,
        # argv: one decoding rule, so one stdout, stderr and exit code
        path = tmp_path / "words.txt"
        path.write_bytes(data)
        mode = ["--unicode"] if unicode_mode else []
        cli = [sys.executable, "-m", "insrobust", "classify", "--format", "jsonl", *mode]
        calls = [(cli + ["--file", str(path)], b""), (cli, data)]
        if data.count(b"\n") == 1:
            calls.append((cli + [data.rstrip(b"\n")], b""))
        results = {
            (call.returncode, call.stdout, call.stderr)
            for call in (
                subprocess.run(argv, input=stdin, capture_output=True, env=child_env(), timeout=60)
                for argv, stdin in calls
            )
        }
        assert len(results) == 1
        code, out, got_err = results.pop()
        assert (code, got_err) == (0, err)
        words = [json.loads(line)["word"] for line in out.splitlines()]
        assert words == (unicode_words if unicode_mode else byte_words)

    def test_non_ascii_bytes(self, capsys):
        # byte mode: "é" is the two symbols \xc3 \xa9; human output echoes
        # them as their bytes (test_stray_byte_round_trips_under_every_encoding)
        stdout = (sys.stdout, sys.stdout.encoding, sys.stdout.errors)
        code, out, err = run_cli(capsys, "classify", "éa", "aé", "--format", "jsonl")
        assert (code, err) == (0, "")
        # main gives an in-process caller its stdout back as it was
        assert (sys.stdout, sys.stdout.encoding, sys.stdout.errors) == stdout
        assert out == (
            '{"word":"\\u00c3\\u00a9a","verdict":"ins-robust"}\n'
            '{"word":"a\\u00c3\\u00a9","verdict":"ins-robust"}\n'
        )
        assert run_cli(capsys, "classify", "éa", "--alphabet", "ab") == (
            2,
            "",
            "error: word uses symbols ['\xa9', '\xc3'] outside alphabet 'ab'\n",
        )
        assert run_cli(capsys, "classify", "éa", "--alphabet", "ab", "--unicode") == (
            2,
            "",
            "error: word uses symbols ['é'] outside alphabet 'ab'\n",
        )

    def test_astral_symbols_in_unicode_mode(self, capsys):
        grin, beam = "\U0001f600", "\U0001f601"
        words = [grin + beam + grin, grin * 2 + beam * 2, (grin + beam) * 2 + grin, "a" + grin]
        code, out, err = run_cli(capsys, "classify", "--unicode", *words)
        assert (code, err) == (0, "")
        assert out == (
            f"{words[0]}\tnon-ins-robust\tinsert {beam} at 0 -> {beam}{grin}^2\n"
            f"{words[1]}\tins-robust\n"
            f"{words[2]}\tnon-ins-robust\tinsert {beam} at 0 -> {beam}{grin}^3\n"
            f"{words[3]}\tins-robust\n"
        )
        assert run_cli(capsys, "classify", "--unicode", grin + "a", "--alphabet", grin + "b") == (
            2,
            "",
            f"error: word uses symbols ['a'] outside alphabet '{grin}b'\n",
        )

    def test_word_outside_explicit_alphabet(self, capsys):
        # words before the first bad one are already written
        for argv, out, listed in (
            (["abc", "--alphabet", "ab"], "", "['c']"),
            (
                ["ab", "abc", "cab", "--alphabet", "ab", "--format", "jsonl"],
                '{"word":"ab","verdict":"ins-robust"}\n',
                "['c']",
            ),
            (["abcxyz", "--alphabet", "ab"], "", "['c', 'x', 'y', 'z']"),
        ):
            assert run_cli(capsys, "classify", *argv) == (
                2,
                out,
                f"error: word uses symbols {listed} outside alphabet 'ab'\n",
            )


class TestTracedAttributes:
    """The attributes the traced benchmark wraps, named here as literals.

    The tracer reports no per-layer figure for an attribute it cannot find,
    and the traced run still exits 0, so a rename would go unnoticed there.
    """

    WRAPPED = [
        ("cli", "classify_fast"),
        ("cli", "find_maximal_repetitions"),
        ("cli", "census"),
        ("counting", "_fast_verdict_chars"),
        ("counting", "eligible_periods"),
        ("classify", "eligible_periods"),
        ("classify", "_leftmost_periodic_start"),
        ("classify", "insert"),
        ("classify", "primitive_root"),
        ("classify", "_root_length"),
        ("words.Word", "__post_init__"),
    ]

    @pytest.mark.parametrize("owner, attr", WRAPPED)
    def test_wrapped_attribute_is_callable(self, owner, attr):
        module, _, cls = owner.partition(".")
        target = importlib.import_module(f"insrobust.{module}")
        if cls:
            target = getattr(target, cls)
        assert callable(getattr(target, attr, None))

    def test_runs_result_has_a_length(self):
        # the tracer counts runs found with len() of this result
        from insrobust import Alphabet, Word, cli

        found = cli.find_maximal_repetitions(Word("aabaab", Alphabet("ab")))
        assert isinstance(found, set) and len(found) == 3


class TestTracedRun:
    """The traced benchmark's recorder, run on tiny calls, finds every
    attribute it wraps (it lists under "absent" each one it could not find)
    and writes the stdout of the untraced call."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "aabaa"],
            ["classify", "--file", "WORDS", "--format", "jsonl"],  # the benchmark's form
            ["census", "4", "2"],
            ["runs", "aab"],
        ],
        ids=" ".join,
    )
    def test_traced_run_finds_every_attribute(self, tmp_path, argv):
        words = tmp_path / "words.txt"
        words.write_bytes(b"aabaa\nabba\nabcab\n")
        argv = [str(words) if arg == "WORDS" else arg for arg in argv]
        spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        out = tmp_path / "spans.json"
        proc, untraced = (
            subprocess.run(
                [sys.executable, *launch, *argv],
                capture_output=True,
                text=True,
                env=child_env(),
                timeout=60,
            )
            for launch in ([str(spans), str(out), "--"], ["-m", "insrobust"])
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == untraced.stdout
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert trace["absent"] == []
        if argv[0] == "classify":
            assert trace["stats"]["classify.scan_python"]["count"] > 0


class TestRunsCommand:
    def test_human_table(self, capsys):
        code, out, _ = run_cli(capsys, "runs", "abaababaabaab")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "start\tlength\tperiod\texponent"
        assert "3\t5\t2\t2.5" in lines
        assert not any(line.startswith("3\t4\t") for line in lines)

    def test_unary_word(self, capsys):
        code, out, _ = run_cli(capsys, "runs", "aaaa")
        assert code == 0
        assert out.splitlines()[1:] == ["0\t4\t1\t4"]

    def test_empty_table(self, capsys):
        code, out, _ = run_cli(capsys, "runs", "ab")
        assert code == 0
        assert out.splitlines() == ["start\tlength\tperiod\texponent"]

    def test_rows_sorted(self, capsys):
        code, out, _ = run_cli(capsys, "runs", "aabaab")
        rows = [tuple(map(float, line.split("\t"))) for line in out.splitlines()[1:]]
        assert rows == sorted(rows)

    def test_jsonl(self, capsys):
        code, out, _ = run_cli(capsys, "runs", "aabaab", "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert {"start": 0, "length": 6, "period": 3, "exponent": 2.0} in records
        assert len(records) == 3

    def test_csv_rejected(self, capsys):
        code, _, err = run_cli(capsys, "runs", "aabaab", "--format", "csv")
        assert code == 2

    @pytest.mark.parametrize(
        "word, mode, rows",
        [
            ("a\n\nb\n\n", [], ["1\t2\t1\t2", "4\t2\t1\t2"]),
            ("a\n\nb\n\n", ["--unicode"], ["1\t2\t1\t2", "4\t2\t1\t2"]),
            ("\u00e9\u00e9", [], ["0\t4\t2\t2"]),  # bytes c3 a9 c3 a9
            ("\u00e9\u00e9", ["--unicode"], ["0\t2\t1\t2"]),
            ("\U0001f600\U0001f600a", [], ["0\t8\t4\t2"]),
            ("\U0001f600\U0001f600a", ["--unicode"], ["0\t2\t1\t2"]),
        ],
        ids=["newline-bytes", "newline-unicode", "e-acute-bytes", "e-acute-unicode",
             "astral-bytes", "astral-unicode"],
    )
    def test_symbols_beyond_ascii_letters(self, capsys, word, mode, rows):
        code, out, _ = run_cli(capsys, "runs", word, *mode)
        assert code == 0
        assert out.splitlines()[1:] == rows


class TestCensusCommand:
    def test_human_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "census", "3", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "census n=3 k=2 total=8"
        assert "non-primitive\t2" in lines
        assert "ins-robust\t0" in lines
        assert "non-ins-robust\t6" in lines

    def test_list_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "census", "1", "2", "--list")
        assert code == 0
        lines = out.splitlines()
        assert "list\tnon-ins-robust\ta" in lines
        assert "list\tnon-ins-robust\tb" in lines

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "census", "4", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "n,k,non_primitive,ins_robust,non_ins_robust",
            "4,2,4,12,0",
        ]

    def test_csv_with_list_rejected(self, capsys):
        code, _, err = run_cli(capsys, "census", "1", "2", "--list", "--format", "csv")
        assert code == 2

    def test_jsonl(self, capsys):
        code, out, _ = run_cli(capsys, "census", "3", "2", "--format", "jsonl")
        assert code == 0
        assert json.loads(out) == {
            "n": 3,
            "k": 2,
            "non_primitive": 2,
            "ins_robust": 0,
            "non_ins_robust": 6,
        }

    def test_oracle_audit(self, capsys):
        code, _, _ = run_cli(capsys, "census", "5", "2", "--oracle")
        assert code == 0

    def test_budget_exit_code(self, capsys):
        for n in ("30", "15000"):
            code, _, err = run_cli(capsys, "census", n, "2")
            assert code == 3
            assert "budget" in err

    def test_custom_budget(self, capsys):
        code, _, err = run_cli(capsys, "census", "5", "2", "--budget", "10")
        assert code == 3

    def test_k_range(self, capsys):
        assert run_cli(capsys, "census", "3", "1")[0] == 2
        assert run_cli(capsys, "census", "3", "27")[0] == 2

    def test_length_below_one(self, capsys):
        assert run_cli(capsys, "census", "0", "2") == (
            2,
            "",
            "error: census requires a word length n >= 1\n",
        )

    def test_budget_below_one_is_a_usage_error(self, capsys):
        for budget in ("0", "-1"):
            code, out, err = run_cli(capsys, "census", "3", "2", "--budget", budget)
            assert (code, out) == (2, "")
            assert "--budget" in err


class TestCountCommand:
    def test_human(self, capsys):
        code, out, _ = run_cli(capsys, "count", "6", "2")
        assert code == 0
        lines = out.splitlines()
        assert "primitive\t54" in lines

    def test_vacuous_flag(self, capsys):
        _, out, _ = run_cli(capsys, "count", "3", "2")
        assert "ins-robust-lower\t-2 (vacuous)" in out.splitlines()

    def test_positive_lower_not_flagged(self, capsys):
        _, out, _ = run_cli(capsys, "count", "2", "2")
        assert "ins-robust-lower\t2" in out.splitlines()

    def test_small_n_omits_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "count", "1", "2")
        assert code == 0
        assert "note: bounds require n >= 2 and k >= 2" in out
        assert "ins-robust-lower" not in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "count", "3", "2", "--format", "csv")
        assert out.splitlines()[1] == "3,2,8,6,2,8,-2"

    def test_jsonl(self, capsys):
        code, out, _ = run_cli(capsys, "count", "4", "2", "--format", "jsonl")
        record = json.loads(out)
        assert record["non_ins_robust_upper"] == 0
        assert record["ins_robust_lower"] == 12
        assert record["vacuous"] is False

    def test_validation(self, capsys):
        assert run_cli(capsys, "count", "0", "2")[0] == 2
        assert run_cli(capsys, "count", "2", "0") == (
            2,
            "",
            "error: count requires an alphabet size k >= 1\n",
        )

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("fmt", ["human", "jsonl", "csv"])
    def test_digit_limit_writes_nothing(self, capsys, fmt):
        # 2^20000 has 6021 digits, past Python's default int-to-str limit
        code, out, err = run_cli(capsys, "count", "20000", "2", "--format", fmt)
        assert (code, out) == (2, "")
        limit = str(sys.get_int_max_str_digits())
        assert "n=20000 k=2" in err and limit in err


class TestBenchCommand:
    def test_single_size_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--sizes", "1024", "--trials", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n\t")
        assert lines[1].startswith("1024\t")
        assert lines[-1].startswith("slope\t-")

    def test_range_parsing_and_slope(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "256..1024", "--trials", "1", "--seed", "9"
        )
        assert code == 0
        lines = out.splitlines()
        assert [line.split("\t")[0] for line in lines[1:-1]] == ["256", "512", "1024"]
        assert lines[-1].startswith("slope\t")

    def test_bad_sizes(self, capsys):
        assert run_cli(capsys, "bench", "--sizes", "abc")[0] == 2
        assert run_cli(capsys, "bench", "--sizes", "1024..4")[0] == 2
        assert run_cli(capsys, "bench", "--sizes", "0")[0] == 2
        # a repeated size leaves no slope to fit
        assert run_cli(capsys, "bench", "--sizes", "64,64") == (
            2,
            "",
            "error: bad sizes '64,64'\n",
        )

    def test_bad_trials(self, capsys):
        assert run_cli(capsys, "bench", "--sizes", "64", "--trials", "0")[0] == 2


class TestParserBehavior:
    def test_unknown_format_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["classify", "ab", "--format", "xml"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "insrobust", "classify", "aab"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("aab\tnon-ins-robust")

    def test_entry_point_binary(self):
        # The suite runs from the source tree without installing, so there may
        # be no `insrobust` on PATH.  Run the console script declared in
        # pyproject.toml through the wrapper an installer generates for it.
        module_name, _, func = _console_script("insrobust").partition(":")
        wrapper = (
            "import sys\n"
            f"from {module_name} import {func.split('.')[0]}\n"
            "sys.argv[0] = 'insrobust'\n"
            f"sys.exit({func}())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "count", "6", "2"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "primitive\t54" in proc.stdout

    def test_classify_runs_without_numpy(self):
        # numpy is blocked in the child, so importing it anywhere on the
        # classify path fails; a word past 4096 symbols and a word of
        # symbols above U+00FF both reach the witness branch
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from insrobust.cli import main\n"
            "sys.exit(main(['classify', 'ab' * 3000 + 'b', '\u0100\u0100\u0101', '--unicode']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            encoding="utf-8",
            env=child_env(PYTHONIOENCODING="utf-8"),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("b\tnon-ins-robust\tinsert a at 6000 -> ab^3001")
        assert lines[1] == "\u0100\u0100\u0101\tnon-ins-robust\tinsert \u0101 at 1 -> \u0100\u0101^2"

    @pytest.mark.skipif(
        shutil.which("insrobust") is None, reason="the insrobust console script is not on PATH"
    )
    def test_installed_entry_point_binary(self):
        proc = subprocess.run(
            ["insrobust", "count", "6", "2"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert "primitive\t54" in proc.stdout


class TestRecordWriter:
    """Whole-stdout pins of the one record writer, ``cli._emit``."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["census", "3", "2", "--list"],
                "census n=3 k=2 total=8\nnon-primitive\t2\nins-robust\t0\nnon-ins-robust\t6\n"
                "list\tnon-primitive\taaa\nlist\tnon-primitive\tbbb\n"
                "list\tnon-ins-robust\taab\nlist\tnon-ins-robust\taba\n"
                "list\tnon-ins-robust\tabb\nlist\tnon-ins-robust\tbaa\n"
                "list\tnon-ins-robust\tbab\nlist\tnon-ins-robust\tbba\n",
            ),
            (
                ["census", "3", "2", "--list", "--format", "jsonl"],
                '{"n":3,"k":2,"non_primitive":2,"ins_robust":0,"non_ins_robust":6,'
                '"words":{"non-primitive":["aaa","bbb"],"ins-robust":[],'
                '"non-ins-robust":["aab","aba","abb","baa","bab","bba"]}}\n',
            ),
            (
                ["census", "4", "2", "--format", "csv"],
                "n,k,non_primitive,ins_robust,non_ins_robust\n4,2,4,12,0\n",
            ),
            (
                ["count", "1", "2"],
                "count n=1 k=2\ntotal\t2\nprimitive\t2\nnon-primitive\t0\n"
                "note: bounds require n >= 2 and k >= 2\n",
            ),
            (
                ["count", "1", "2", "--format", "jsonl"],
                '{"n":1,"k":2,"total":2,"primitive":2,"non_primitive":0,'
                '"note":"bounds require n >= 2 and k >= 2"}\n',
            ),
            (
                ["count", "1", "2", "--format", "csv"],
                "n,k,total,primitive,non_primitive,non_ins_robust_upper,ins_robust_lower\n"
                "1,2,2,2,0,,\n",
            ),
            (
                ["count", "3", "2"],
                "count n=3 k=2\ntotal\t8\nprimitive\t6\nnon-primitive\t2\n"
                "non-ins-robust-upper\t8\nins-robust-lower\t-2 (vacuous)\n",
            ),
            (
                ["count", "3", "2", "--format", "jsonl"],
                '{"n":3,"k":2,"total":8,"primitive":6,"non_primitive":2,'
                '"non_ins_robust_upper":8,"ins_robust_lower":-2,"vacuous":true}\n',
            ),
            (
                ["count", "3", "2", "--format", "csv"],
                "n,k,total,primitive,non_primitive,non_ins_robust_upper,ins_robust_lower\n"
                "3,2,8,6,2,8,-2\n",
            ),
            (
                ["count", "6", "2"],
                "count n=6 k=2\ntotal\t64\nprimitive\t54\nnon-primitive\t10\n"
                "non-ins-robust-upper\t0\nins-robust-lower\t54\n",
            ),
            (
                ["count", "6", "2", "--format", "jsonl"],
                '{"n":6,"k":2,"total":64,"primitive":54,"non_primitive":10,'
                '"non_ins_robust_upper":0,"ins_robust_lower":54,"vacuous":false}\n',
            ),
            (
                ["count", "6", "2", "--format", "csv"],
                "n,k,total,primitive,non_primitive,non_ins_robust_upper,ins_robust_lower\n"
                "6,2,64,54,10,0,54\n",
            ),
            (
                ["classify", "aabaa", "--oracle"],
                "aabaa\tnon-ins-robust\tinsert b at 0 -> baa^2\t(+1 more)\n",
            ),
        ],
    )
    def test_whole_stdout(self, capsys, argv, expected):
        assert run_cli(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("fmt", ["human", "jsonl"])
    def test_classify_writes_each_line_before_the_next_word(self, monkeypatch, fmt):
        from insrobust import cli

        out = io.StringIO()
        written = []
        classify = cli.classify_fast

        def counting_classify(word):
            written.append(out.getvalue().count("\n"))
            return classify(word)

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(cli, "classify_fast", counting_classify)
        words = ["aab", "abba", "abab", "aabaa", "abcab"]
        assert main(["classify", *words, "--format", fmt]) == 0
        assert written == list(range(len(words)))
        assert out.getvalue().count("\n") == len(words)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_quietly(self, unbuffered):
        proc = subprocess.Popen(
            [sys.executable, "-m", "insrobust", "census", "16", "2", "--list"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_stdout_env(unbuffered),
        )
        assert proc.stdout.readline() == "census n=16 k=2 total=65536\n"
        proc.stdout.close()  # about 1.3 MB is left unread, far past a pipe's buffer
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["human", "jsonl"])
    def test_closed_pipe_on_one_long_line(self, tmp_path, fmt):
        # one line of about 2 MB to unbuffered stdout: written whole, it
        # reached the closed pipe in one short write that raised nothing
        path = tmp_path / "word.txt"
        path.write_text("".join(random.Random(7).choices("ab", k=2_000_001)) + "\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "insrobust", "classify", "--file", str(path), "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
            env=_stdout_env(unbuffered=True),
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err

    def test_closed_pipe_during_the_last_write(self, tmp_path):
        # the one line, about 75 KB, fills the pipe and blocks; after 8 KiB
        # are read the reader closes, so the write ends short with no later
        # write: unbuffered stdout let that go and exited 0
        fcntl = pytest.importorskip("fcntl")
        termios = pytest.importorskip("termios")
        if not hasattr(fcntl, "F_GETPIPE_SZ"):
            pytest.skip("the pipe's size cannot be read on this platform")
        path = tmp_path / "word.txt"
        path.write_text("".join(random.Random(7).choices("ab", k=75_000)) + "\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "insrobust", "classify", "--file", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
            env=_stdout_env(unbuffered=True),
        )
        fd = proc.stdout.fileno()
        size = fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
        assert size + 8192 < 75_000, "the line must not fit in the pipe"

        def queued():
            return int.from_bytes(fcntl.ioctl(fd, termios.FIONREAD, bytes(4)), sys.byteorder)

        deadline = time.monotonic() + 60
        while queued() < size:
            assert time.monotonic() < deadline and proc.poll() is None, "the pipe never filled"
            time.sleep(0.01)
        assert len(os.read(fd, 8192)) == 8192
        time.sleep(0.2)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--unicode", b"\xffa"],
            ["census", "8", "2", "--list", "--format", "jsonl"],
            ["runs", "abaababaabaab", "--format", "jsonl"],
            ["count", "6", "2", "--format", "csv"],
        ],
        ids=["classify-surrogate", "census-list", "runs", "count-csv"],
    )
    def test_same_bytes_on_both_stdout_layers(self, argv):
        # the buffered writer put under unbuffered stdout has the same codec
        # and error handler: b"\xff" round-trips as a surrogate escape
        calls = [
            subprocess.run(
                [sys.executable, "-m", "insrobust", *argv],
                capture_output=True,
                env={**_stdout_env(unbuffered), "PYTHONIOENCODING": "utf-8:surrogateescape"},
                timeout=60,
            )
            for unbuffered in (False, True)
        ]
        buffered, unbuffered = [(c.returncode, c.stdout, c.stderr) for c in calls]
        assert buffered[0] == 0, buffered[2]
        assert unbuffered == buffered
        if argv[0] == "classify":
            assert buffered[1] == b"\xffa\tins-robust\n"


def _readme_examples():
    """Each ``$ insrobust ...`` call in README's text blocks but ``bench``,
    whose output is timings, with the lines shown after it."""
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text("utf-8"), re.M | re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith("$ insrobust "):
                shown = []
                examples.append((shlex.split(line)[2:], shown))
            elif line and shown is not None:
                shown.append(line)
    return [
        pytest.param(argv, shown, id=" ".join(argv))
        for argv, shown in examples
        if argv[0] != "bench"
    ]


class TestReadmeExamples:
    def test_entry_point_table_matches_exports(self):
        # every exported function and class but the exceptions, the records
        # of results and reports, and the constants is named in the table
        records = {"Verdict", "Classification", "InsertionWitness", "CensusReport", "CountReport"}
        exported = {
            name
            for name in insrobust.__all__
            if callable(value := getattr(insrobust, name))
            and not (isinstance(value, type) and issubclass(value, Exception))
            and name not in records
        }
        text = README.read_text("utf-8")
        table = re.search(r"^Entry points by module.*?\n\n(.*?)\n\n", text, re.M | re.S)
        assert set(re.findall(r"`([A-Za-z_]\w*)`", table.group(1))) == exported

    @pytest.mark.parametrize("argv, shown", _readme_examples())
    def test_example_output(self, argv, shown):
        # README aligns columns with spaces where the CLI writes tabs
        call = subprocess.run(
            [sys.executable, "-m", "insrobust", *argv],
            capture_output=True,
            env=child_env(),
            timeout=60,
        )
        assert (call.returncode, call.stderr) == (0, b"")
        assert [line.split() for line in call.stdout.decode().splitlines()] == [
            line.split() for line in shown
        ]
