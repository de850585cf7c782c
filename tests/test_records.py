"""Words and result records: immutable, hashable, picklable, same repr."""

import copy
import pickle
import subprocess
import sys

import pytest
from conftest import child_env

from insrobust import (
    Alphabet,
    CensusReport,
    Classification,
    InsertionWitness,
    Verdict,
    Word,
    census,
    classify_fast,
    count_report,
)

AB = Alphabet("ab")


def _witness() -> InsertionWitness:
    return InsertionWitness(position=1, letter="b", root=Word("ab", AB), power=2)


def _records() -> list:
    return [
        Word("aab", AB),
        _witness(),
        classify_fast(Word("aab", AB)),
        classify_fast(Word("abab", AB)),
        Classification.ins_robust(),
        count_report(4, 2),
        census(4, AB),
        census(3, AB, list_words=True),
    ]


class TestImmutable:
    @pytest.mark.parametrize(
        "record, field",
        [
            (Word("aab", AB), "chars"),
            (Word("aab", AB), "alphabet"),
            (_witness(), "power"),
            (Classification.ins_robust(), "verdict"),
            (count_report(4, 2), "total"),
            (census(4, AB), "words"),
        ],
    )
    def test_fields_cannot_be_assigned_or_deleted(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before

    def test_word_takes_no_new_attribute(self):
        with pytest.raises(AttributeError):
            Word("ab", AB).extra = 1

    def test_word_assignment_message(self):
        with pytest.raises(AttributeError, match="cannot assign to field 'chars'"):
            Word("ab", AB).chars = "ba"


class TestEqualityAndHash:
    def test_word(self):
        w = Word("aab", AB)
        assert w == Word("aab", Alphabet("ab"))
        assert hash(w) == hash(Word("aab", Alphabet("ab"))) == hash(("aab", AB))
        assert w != Word("aba", AB)
        assert w != Word("aab", Alphabet("abc"))
        assert w != "aab"
        assert w.__eq__("aab") is NotImplemented
        assert len({w, Word("aab", AB), Word("abb", AB)}) == 2

    def test_records(self):
        for first, second in zip(_records(), _records()):
            assert first == second
        assert classify_fast(Word("aab", AB)) != classify_fast(Word("abb", AB))
        assert count_report(4, 2) != count_report(5, 2)
        hashable = [r for r in _records() if not isinstance(r, CensusReport) or r.words is None]
        assert len(set(hashable)) == len(hashable)
        with pytest.raises(TypeError):
            hash(census(3, AB, list_words=True))  # its words are a dict


class TestRepr:
    # the text each record printed as a frozen dataclass
    def test_repr_text(self):
        texts = [
            "Word('aab', Alphabet('ab'))",
            "InsertionWitness(position=1, letter='b', root=Word('ab', Alphabet('ab')), power=2)",
            "Classification(verdict=<Verdict.NON_INS_ROBUST: 'non-ins-robust'>, root=None,"
            " exponent=None, witnesses=(InsertionWitness(position=1, letter='b',"
            " root=Word('ab', Alphabet('ab')), power=2),))",
            "Classification(verdict=<Verdict.NON_PRIMITIVE: 'non-primitive'>,"
            " root=Word('ab', Alphabet('ab')), exponent=2, witnesses=())",
            "Classification(verdict=<Verdict.INS_ROBUST: 'ins-robust'>, root=None,"
            " exponent=None, witnesses=())",
            "CountReport(n=4, k=2, total=16, primitive=12, non_primitive=4,"
            " non_ins_robust_upper=0, ins_robust_lower=12)",
            "CensusReport(n=4, k=2, non_primitive=4, ins_robust=12, non_ins_robust=0,"
            " words=None)",
            "CensusReport(n=3, k=2, non_primitive=2, ins_robust=0, non_ins_robust=6,"
            " words={<Verdict.NON_PRIMITIVE: 'non-primitive'>: ('aaa', 'bbb'),"
            " <Verdict.INS_ROBUST: 'ins-robust'>: (), <Verdict.NON_INS_ROBUST:"
            " 'non-ins-robust'>: ('aab', 'aba', 'abb', 'baa', 'bab', 'bba')})",
        ]
        assert [repr(record) for record in _records()] == texts

    def test_defaults_and_helpers(self):
        robust = Classification(Verdict.INS_ROBUST)
        assert (robust.root, robust.exponent, robust.witnesses) == (None, None, ())
        assert census(4, AB).total == 16
        assert count_report(4, 2).vacuous is False
        with pytest.raises(ValueError):
            Classification.non_ins_robust(())


class TestCopyAndPickle:
    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for record in _records():
            again = pickle.loads(pickle.dumps(record, protocol))
            assert type(again) is type(record)
            assert again == record
            assert repr(again) == repr(record)

    def test_copy_and_deepcopy(self):
        for record in _records():
            for twin in (copy.copy(record), copy.deepcopy(record)):
                assert type(twin) is type(record)
                assert twin == record

    def test_deepcopy_copies_the_alphabet(self):
        w = Word("ab", Alphabet("ab"))
        twin = copy.deepcopy(w)
        assert twin.alphabet == w.alphabet and twin.alphabet is not w.alphabet

    def test_unpickling_checks_the_symbols(self):
        data = pickle.dumps(Word("aab", AB)).replace(b"aab", b"aac")
        with pytest.raises(ValueError, match="outside alphabet"):
            pickle.loads(data)


class TestStartup:
    def test_cli_import_loads_no_unused_module(self):
        # compare before and after, since site may preload some of them
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import insrobust.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert "insrobust.cli" in out
        assert not {"dataclasses", "fractions", "statistics", "csv"} & set(out)
