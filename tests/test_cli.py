import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from nlmp import (
    Relation,
    corpus_dir,
    is_traditional_bisim,
    largest_traditional,
    parse_model,
    parse_state_formula,
    satisfies,
)
from nlmp.cli import _render, main
from support import two_bounds_model
from test_golden import GOLDEN, run_case

TWO_BOUNDS_FORMULA = "<a>[ >1/4 <b>[T]>=1 , <3/4 <b>[T]>=1 ]"

# s and t share an atom but step to different atoms, so the kernel
# value maps of the atoms {x} and {y} split the atom {s, t}.
INVALID_LMP = """lmp
states s t x y
labels a
sigma gen {s t} {x}
trans s a -> x
trans t a -> y
trans x a -> x
trans y a -> y
"""

# A valid lmp file over a coarse sigma-algebra: s and t share an atom
# and their kernels, so every state set the kernels' values split is
# measurable.
COARSE_LMP = """lmp
states s t x
labels a
sigma gen {s t} {x}
trans s a -> x
trans t a -> x
trans x a -> x
"""

# Two labels over four atoms.  Under a, r and s split {r s} on {u} and
# {v}; under b, every state weighs {p q}, at 1 or 1/2, so that atom has
# no level at 0.
INVALID_TWO_LABEL_LMP = """lmp
states p q r s u v
labels a b
sigma gen {p q} {r s} {u} {v}
trans p a r:1/2 u:1/2
trans q a s:1/2 u:1/2
trans r a -> u
trans s a -> v
trans u a p:1/3 q:1/3 v:1/3
trans v a p:1/3 v:2/3
trans p b -> p
trans q b -> q
trans r b -> p
trans s b p:1/2 v:1/2
trans u b q:1/2 v:1/2
trans v b -> p
"""

# Four planted classes sN_0/sN_1 of bisimilar copies (perfbench synth
# seed 61, model lump28).  Bisimilarity merges classes 0, 1 and 3, but
# merging classes 1 and 3 alone is not a bisimulation.
LUMP28 = """nlmp
states s2_0 s0_1 s1_1 s2_1 s3_1 s1_0 s3_0 s0_0
labels a b
sigma powerset
trans s0_1 a s0_0:1/2 s1_1:1/2
trans s0_1 b s1_1:1/4 s1_0:1/4 s0_1:1/12 s0_0:1/12 s3_0:1/6 s3_1:1/6
trans s0_1 b s1_1:1/2 s1_0:1/2
trans s1_1 a s0_0:1/2 s1_0:1/2
trans s1_1 b -> s1_0
trans s3_1 a s0_0:1/4 s0_1:1/4 s1_0:1/2
trans s3_1 a s1_1:1/2 s3_1:1/2
trans s3_1 b s1_1:1/2 s1_0:1/2
trans s1_0 a s0_1:1/4 s0_0:1/4 s1_0:1/4 s1_1:1/4
trans s1_0 b -> s1_1
trans s3_0 a s0_1:1/2 s1_1:1/2
trans s3_0 a s1_1:1/4 s1_0:1/4 s3_0:1/2
trans s3_0 b s1_1:1/2 s1_0:1/2
trans s0_0 a s0_0:1/4 s0_1:1/4 s1_0:1/2
trans s0_0 b s1_1:1/4 s1_0:1/4 s0_1:1/6 s3_0:1/3
trans s0_0 b s1_0:1/2 s1_1:1/2
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def corpus(name: str) -> str:
    return str(corpus_dir() / name)


class TestValidateCommand:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("two_bounds_needed.nlmp", 0),
            ("atom_split_invalid.nlmp", 2),
            ("atom_split_repaired.nlmp", 0),
            ("coarse_valid.nlmp", 0),
            ("np_reach_equal.nlmp", 0),
            ("np_reach_unequal.nlmp", 0),
            ("uniform_rows.nlmp", 0),
            ("lmp_example.nlmp", 0),
        ],
    )
    def test_corpus_verdicts(self, capsys, name, expected):
        code, report, _ = run(capsys, "validate", corpus(name))
        assert code == expected
        assert report["result"]["valid"] == (expected == 0)

    def test_invalid_model_carries_preimage_witness(self, capsys):
        code, report, _ = run(capsys, "validate", corpus("atom_split_invalid.nlmp"))
        assert code == 2
        finding = report["result"]["findings"][0]
        assert finding["severity"] == "error"
        assert finding["witness_set"] == ["s"]

    def test_malformed_file_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.nlmp"
        bad.write_text("states s x y\nlabels a\ntrans s a x:1/2 y:1/3\n")
        code, report, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert report is None
        assert "5/6" in err

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "validate", "no/such/file.nlmp")
        assert code == 1
        assert err

    @staticmethod
    def assert_lmp_findings(tmp_path, capsys, text, expected):
        """validate exits 2 on the lmp text and reports exactly the
        findings (label, atom, value, level set)."""
        path = tmp_path / "invalid.nlmp"
        path.write_text(text)
        code, report, err = run(capsys, "validate", str(path))
        assert code == 2
        assert err == ""
        assert report["result"] == {
            "valid": False,
            "findings": [
                {
                    "severity": "error",
                    "label": a,
                    "message": f"kernel value map on {q} has a non-measurable level set at {v}",
                    "witness_set": level,
                }
                for a, q, v, level in expected
            ],
        }

    def test_invalid_lmp_reports_one_finding_per_atom_and_level(self, tmp_path, capsys):
        expected = [
            ("a", ["x"], "0", ["t", "y"]),
            ("a", ["x"], "1", ["s", "x"]),
            ("a", ["y"], "0", ["s", "x"]),
            ("a", ["y"], "1", ["t", "y"]),
        ]
        self.assert_lmp_findings(tmp_path, capsys, INVALID_LMP, expected)

    def test_invalid_two_label_lmp_orders_its_findings_by_label_atom_and_value(self, tmp_path, capsys):
        expected = [
            ("a", ["u"], "0", ["s", "u", "v"]),
            ("a", ["u"], "1", ["r"]),
            ("a", ["v"], "0", ["p", "q", "r"]),
            ("a", ["v"], "1", ["s"]),
            ("b", ["p", "q"], "1/2", ["s", "u"]),
            ("b", ["p", "q"], "1", ["p", "q", "r", "v"]),
            ("b", ["v"], "0", ["p", "q", "r", "v"]),
            ("b", ["v"], "1/2", ["s", "u"]),
        ]
        self.assert_lmp_findings(tmp_path, capsys, INVALID_TWO_LABEL_LMP, expected)


def written_forms() -> dict[str, str]:
    """One corpus model written with LF, CRLF, lone CR and BOM+CRLF line
    ends, and with each character that `str.splitlines` breaks a line
    at, as "\n", placed inside a comment, inside a trans line and at the
    end of a line."""
    text = (corpus_dir() / "two_bounds_needed.nlmp").read_text(encoding="utf-8")
    crlf = text.replace("\n", "\r\n")
    forms = {"lf": text, "crlf": crlf, "cr": text.replace("\n", "\r"), "bom_crlf": "\ufeff" + crlf}
    for i, c in enumerate(("\x0c", "\x1c", "\x85", "\u2028")):
        forms[f"comment_{i}"] = text.replace("# Nondeterministic model", f"# Nondeterministic{c} model")
        forms[f"trans_{i}"] = crlf.replace("trans s a -> x", f"trans s a{c} -> x")
        forms[f"line_end_{i}"] = text.replace("trans s a -> x\n", f"trans s a -> x{c}\n")
    return forms


WRITTEN_FORMS = written_forms()


class TestInputBoundary:
    @pytest.mark.parametrize(
        "tail", [["validate"], ["bisim"], ["check", "T"], ["distinguish", "s", "t"]]
    )
    def test_non_utf8_model_is_a_usage_error(self, tmp_path, capsys, tail):
        bad = tmp_path / "bad.nlmp"
        bad.write_bytes(b"nlmp\nstates s\xff t\n")
        code, report, err = run(capsys, tail[0], str(bad), *tail[1:])
        assert code == 1
        assert report is None
        assert err.startswith("error: ") and "not UTF-8" in err
        assert len(err.splitlines()) == 1

    def test_leading_byte_order_mark_is_dropped(self, tmp_path, capsys):
        marked = tmp_path / "marked.nlmp"
        marked.write_bytes(b"\xef\xbb\xbf" + (corpus_dir() / "two_bounds_needed.nlmp").read_bytes())
        code, report, err = run(capsys, "bisim", str(marked))
        expected_code, expected, _ = run(capsys, "bisim", corpus("two_bounds_needed.nlmp"))
        assert (code, err) == (expected_code, "")
        del report["args"], report["timing_ms"], expected["args"], expected["timing_ms"]
        assert report == expected

    @pytest.mark.parametrize(
        "data,message",
        [
            # a byte order mark cut short is no UTF-8 text
            (b"\xef\xbb", "unexpected end of data at byte 0"),
            # offsets count the mark's three bytes
            (b"\xef\xbb\xbfstates s\xff\n", "invalid start byte at byte 11"),
        ],
    )
    def test_byte_order_mark_keeps_the_decoding_message(self, tmp_path, capsys, data, message):
        bad = tmp_path / "bad.nlmp"
        bad.write_bytes(data)
        code, report, err = run(capsys, "validate", str(bad))
        assert (code, report) == (1, None)
        assert err == f"error: {bad} is not UTF-8 text: {message}\n"

    @pytest.mark.parametrize("form", sorted(WRITTEN_FORMS))
    @pytest.mark.parametrize("tail", [["validate"], ["bisim"], ["check", "<a>[T]>0"]])
    def test_line_endings_read_as_text_mode_reads_them(self, tmp_path, capsys, form, tail):
        # The file as written, and the text a text-mode read gives (which
        # translates "\r\n" and "\r" to "\n"), without the byte order mark,
        # written as LF bytes: both give the same exit code, stderr and
        # report.
        written = tmp_path / "written.nlmp"
        written.write_bytes(WRITTEN_FORMS[form].encode("utf-8"))
        translated = tmp_path / "translated.nlmp"
        translated.write_bytes(written.read_text(encoding="utf-8").removeprefix("\ufeff").encode("utf-8"))
        code, report, err = run(capsys, tail[0], str(written), *tail[1:])
        expected_code, expected, expected_err = run(capsys, tail[0], str(translated), *tail[1:])
        assert (code, err) == (expected_code, expected_err.replace(str(translated), str(written)))
        if form in ("lf", "crlf", "cr", "bom_crlf") or form.startswith("line_end"):
            assert code == 0
        if form.startswith(("comment", "trans")):
            assert code == 1 and err.startswith("error: ") and "line" in err
        if report is not None:
            del report["args"], report["timing_ms"], expected["args"], expected["timing_ms"]
        assert report == expected

    def test_400_deep_formula_is_answered(self, capsys):
        formula = "T"
        for _ in range(400):
            formula = f"<a> [{formula}]>0"
        code, report, err = run(capsys, "check", corpus("uniform_rows.nlmp"), formula, "--state", "p")
        assert (code, err) == (0, "")
        assert report["result"] == {"formula": formula, "states": ["p", "q", "r"], "state": "p", "satisfied": True}

    @staticmethod
    def assert_one_error_line(err):
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_model_numeral_beyond_the_int_limit_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.nlmp"
        path.write_text(f"states s x y\nlabels a\ntrans s a x:1/2 y:{'1' * 5000}/2\n")
        code, report, err = run(capsys, "validate", str(path))
        assert code == 1
        assert report is None
        self.assert_one_error_line(err)
        assert "5000 digits" in err and "line 3" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("states s s\nlabels a\n", "universe contains duplicate state identifiers at line 1"),
            ("states s t\nlabels a a\n", "duplicate labels at line 2"),
            ("states s t\nlabels {\ntrans s { -> t\n", "label '{' is not an identifier or an integer at line 2"),
            ("states s t\nlabels a\nsigma gen {s} {u}\n", "state 'u' is not in the universe at line 3"),
            ("states s\nlabels a\nstates t\n", "duplicate states line at line 3"),
            ("states s\nlabels a\nlabels b\n", "duplicate labels line at line 3"),
            ("states s\nsigma powerset\nlabels a\nsigma powerset\n", "duplicate sigma line at line 4"),
            ("labels a\nstates\n", "states line needs at least one state at line 2"),
            ("labels a\nsigma powerset\nstates s\n", "sigma line must come after the states line at line 2"),
            ("states s\nlabels a\nsigma coarse\n", "expected 'sigma powerset' or 'sigma gen {..} ..' at line 3"),
        ],
    )
    def test_model_error_names_its_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.nlmp"
        path.write_text(text)
        code, report, err = run(capsys, "validate", str(path))
        assert code == 1
        assert report is None
        self.assert_one_error_line(err)
        assert err == f"error: {message}\n"

    # Two coprime 4000-digit denominators: each numeral is under the
    # int-string limit, their exact sums are not.
    P = 10**3999
    Q = P + 1

    def test_weight_sum_beyond_the_int_limit_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sum.nlmp"
        path.write_text(f"states s x y\nlabels a\ntrans s a x:1/{self.P} y:1/{self.Q}\n")
        code, report, err = run(capsys, "validate", str(path))
        assert code == 1
        assert report is None
        self.assert_one_error_line(err)
        assert "weights sum to" in err and "line 3" in err

    def test_accumulated_atom_weight_beyond_the_int_limit_is_a_usage_error(self, tmp_path, capsys):
        # x and z share an atom, as do u and w: both atom weights have
        # about 8000 digits, although every weight sums to 1 exactly.
        P2, Q2 = 2 * self.P, 2 * self.Q
        path = tmp_path / "coarse.nlmp"
        path.write_text(
            "states s x z u w\nlabels a\nsigma gen {x z} {u w} {s}\n"
            f"trans s a x:1/{P2} u:{self.P - 1}/{P2} z:1/{Q2} w:{self.Q - 1}/{Q2}\n"
        )
        code, report, err = run(capsys, "validate", str(path))
        assert code == 1
        assert report is None
        self.assert_one_error_line(err)
        assert "too long to print" in err and "line 4" in err

    @pytest.mark.parametrize("threshold", [f"{'1' * 5000}/2", f"1/{'1' * 5000}"])
    def test_formula_numeral_beyond_the_int_limit_is_a_usage_error(self, capsys, threshold):
        formula = f"<a>[T]>={threshold}"
        code, report, err = run(capsys, "check", corpus("uniform_rows.nlmp"), formula)
        assert code == 1
        assert report is None
        self.assert_one_error_line(err)
        assert "5000 digits" in err

    def test_distinguishing_threshold_beyond_the_int_limit_is_unsupported(self, tmp_path, capsys):
        # s reaches {x, y} with probability 1/2P + 1/2Q and t never does;
        # the midpoint threshold has about 8000 digits.
        P2, Q2 = 2 * self.P, 2 * self.Q
        path = tmp_path / "threshold.nlmp"
        path.write_text(
            "states s t x u y w\nlabels a b\n"
            f"trans s a x:1/{P2} u:{self.P - 1}/{P2} y:1/{Q2} w:{self.Q - 1}/{Q2}\n"
            "trans t a -> u\ntrans x b -> x\ntrans y b -> x\n"
        )
        assert run(capsys, "bisim", str(path))[0] == 0
        code, report, err = run(capsys, "distinguish", str(path), "s", "t")
        assert code == 6
        assert err == ""
        assert report["result"] == {
            "supported": False,
            "reason": "a threshold of the formula is a rational too long to print",
        }

    @pytest.mark.parametrize(
        "formula,message",
        [
            ("<a> [T]>=1 & @", "unexpected character '@' at column 14"),
            ("T &\t\t%", "unexpected character '%' at column 6"),
            ("<a> [T]>>1", "expected a rational number at column 9"),
            ("<a> [T]>=1 & <b>", "unexpected end of formula at column 17"),
            ("<a> [T]>=", "unexpected end of formula at column 10"),
        ],
    )
    def test_formula_error_names_its_column_and_character(self, capsys, formula, message):
        code, report, err = run(capsys, "check", corpus("uniform_rows.nlmp"), formula)
        assert code == 1
        assert report is None
        assert err == f"error: {message}\n"

    def test_multi_bound_threshold_outside_the_unit_interval_is_a_usage_error(self, capsys):
        code, report, err = run(capsys, "check", corpus("two_bounds_needed.nlmp"), "<a>[ >2 T ]")
        assert code == 1
        assert report is None
        assert err == "error: threshold 2 outside [0, 1]\n"

    def test_3000_conjuncts_are_answered(self, capsys):
        formula = " & ".join(["T"] * 3000)
        code, report, err = run(capsys, "check", corpus("uniform_rows.nlmp"), formula, "--state", "q")
        assert (code, err) == (0, "")
        assert report["result"] == {"formula": formula, "states": ["p", "q", "r"], "state": "q", "satisfied": True}

    def test_100_conjuncts_still_parse(self, capsys):
        formula = " & ".join(["<a>[T]>=1"] * 100)
        code, report, _ = run(capsys, "check", corpus("uniform_rows.nlmp"), formula, "--state", "p")
        assert code == 0
        assert report["result"]["states"] == ["p", "q", "r"]


class TestBisimCommand:
    def test_flagship_all_kinds_coincide(self, capsys):
        code, report, _ = run(capsys, "bisim", corpus("two_bounds_needed.nlmp"), "--kind", "all")
        assert code == 0
        result = report["result"]
        assert result["chain_holds"] and result["all_equal"]
        expected = [["s"], ["t"], ["x"], ["y"], ["z"]]
        for kind in ("traditional", "state", "event"):
            assert result[kind]["partition"] == expected

    def test_identical_rows_collapse(self, capsys):
        code, report, _ = run(capsys, "bisim", corpus("uniform_rows.nlmp"), "--kind", "state")
        assert code == 0
        assert report["result"]["partition"] == [["p", "q", "r"]]

    @staticmethod
    def count_validators(monkeypatch) -> dict[str, int]:
        """Count the calls of each validator made through `nlmp.model`."""
        import nlmp.model

        calls = {"lmp_validate": 0, "nlmp_validate": 0}
        for name in calls:
            real = getattr(nlmp.model, name)

            def counting(m, name=name, real=real):
                calls[name] += 1
                return real(m)

            monkeypatch.setattr(nlmp.model, name, counting)
        return calls

    @pytest.mark.parametrize(
        "name", ["two_bounds_needed.nlmp", "coarse_valid.nlmp", "np_reach_unequal.nlmp"]
    )
    def test_all_kinds_validate_the_model_once(self, capsys, monkeypatch, name):
        calls = self.count_validators(monkeypatch)
        code, _, _ = run(capsys, "bisim", corpus(name), "--kind", "all")
        assert code == 0
        # the command and the three fixpoints share one validation report
        assert calls == {"lmp_validate": 0, "nlmp_validate": 1}

    @pytest.mark.parametrize("text", [COARSE_LMP, None], ids=["coarse", "lmp_example"])
    def test_lmp_file_runs_only_the_lmp_validator(self, tmp_path, capsys, monkeypatch, text):
        path = corpus("lmp_example.nlmp")
        if text is not None:
            path = tmp_path / "coarse.nlmp"
            path.write_text(text, encoding="utf-8")
        calls = self.count_validators(monkeypatch)
        code, report, _ = run(capsys, "bisim", str(path), "--kind", "all")
        assert code == 0 and report["result"]["all_equal"]
        # the fixpoints read the command's report; no command runs both validators
        assert calls == {"lmp_validate": 1, "nlmp_validate": 0}

    def test_lmp_file_partitions_are_total(self, capsys):
        # every state carries a full kernel for every label, so the
        # one-block lumping is the bisimilarity
        code, report, _ = run(capsys, "bisim", corpus("lmp_example.nlmp"), "--kind", "all")
        assert code == 0
        assert report["result"]["traditional"]["partition"] == [["g1", "g2", "stop"]]
        assert report["result"]["all_equal"]

    def test_event_kind_reports_sigma_atoms(self, capsys):
        code, report, _ = run(capsys, "bisim", corpus("two_bounds_needed.nlmp"), "--kind", "event")
        assert code == 0
        assert report["result"]["sigma_atoms"] == [["s"], ["t"], ["x"], ["y"], ["z"]]

    def test_invalid_model_exits_2(self, capsys):
        code, report, _ = run(capsys, "bisim", corpus("atom_split_invalid.nlmp"))
        assert code == 2
        assert report["result"]["valid"] is False


class TestCheckCommand:
    def test_top_holds_everywhere(self, capsys):
        code, report, _ = run(capsys, "check", corpus("two_bounds_needed.nlmp"), "T")
        assert code == 0
        assert report["result"]["states"] == ["s", "t", "x", "y", "z"]

    def test_flagship_formula_at_s(self, capsys):
        code, report, _ = run(
            capsys,
            "check",
            corpus("two_bounds_needed.nlmp"),
            TWO_BOUNDS_FORMULA,
            "--state",
            "s",
        )
        assert code == 0
        assert report["result"]["satisfied"] is True
        assert report["result"]["states"] == ["s"]

    def test_flagship_formula_fails_at_t(self, capsys):
        code, report, _ = run(
            capsys,
            "check",
            corpus("two_bounds_needed.nlmp"),
            TWO_BOUNDS_FORMULA,
            "--state",
            "t",
        )
        assert code == 4
        assert report["result"]["satisfied"] is False

    def test_undeclared_label_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "check", corpus("uniform_rows.nlmp"), "<zz>[T]>=1")
        assert code == 1
        assert "undeclared" in err


class TestDistinguishCommand:
    def test_formula_emitted_and_reverifiable(self, capsys):
        code, report, _ = run(capsys, "distinguish", corpus("two_bounds_needed.nlmp"), "s", "t")
        assert code == 0
        result = report["result"]
        assert result["equivalent"] is False
        phi = parse_state_formula(result["formula"])
        m = two_bounds_model()
        assert satisfies(m, "s", phi) != satisfies(m, "t", phi)
        assert result["satisfied_by"] == ["s"]

    def test_golden_reports_evaluate_the_formula_once(self, monkeypatch):
        # satisfied_by reads the extension the formula was verified
        # against, so the command never evaluates the formula again.
        import nlmp.cli as cli_mod

        def forbidden(*args):
            raise AssertionError("distinguish evaluated its formula a second time")

        monkeypatch.setattr(cli_mod, "eval_state", forbidden)
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        cases = [key for key in golden if key.startswith("distinguish")]
        assert any(golden[key]["exit"] == 0 for key in cases)
        for key in cases:
            assert run_case(key.split()) == golden[key], key

    def test_same_state_reports_equivalent(self, capsys):
        code, report, _ = run(capsys, "distinguish", corpus("two_bounds_needed.nlmp"), "x", "x")
        assert code == 5
        assert report["result"]["equivalent"] is True

    def test_bisimilar_pair_reports_equivalent(self, capsys):
        code, report, _ = run(capsys, "distinguish", corpus("np_reach_equal.nlmp"), "s", "t")
        assert code == 5

    def test_coarse_sigma_is_unsupported(self, capsys):
        code, report, _ = run(capsys, "distinguish", corpus("coarse_valid.nlmp"), "s", "x")
        assert code == 6
        assert report["result"]["supported"] is False

    def test_classes_merged_only_with_a_third_are_equivalent(self, tmp_path, capsys):
        path = tmp_path / "lump28.nlmp"
        path.write_text(LUMP28)
        code, report, _ = run(capsys, "distinguish", str(path), "s1_1", "s3_0")
        assert code == 5
        assert report["result"]["equivalent"] is True
        m = parse_model(LUMP28)
        largest = largest_traditional(m)
        assert sorted(sorted(b) for b in largest.partition) == [
            ["s0_0", "s0_1", "s1_0", "s1_1", "s3_0", "s3_1"],
            ["s2_0", "s2_1"],
        ]
        assert is_traditional_bisim(m, largest.relation)
        two_merged = [["s0_0", "s0_1"], ["s2_0", "s2_1"], ["s1_0", "s1_1", "s3_0", "s3_1"]]
        assert not is_traditional_bisim(m, Relation.from_partition(m.universe, two_merged))


def chain_model(n: int) -> str:
    """c0 -a-> c1 -a-> ... -a-> c(n-1): c0 and c1 are separated only by a
    formula nesting n - 1 diamonds."""
    lines = ["states " + " ".join(f"c{i}" for i in range(n)), "labels a"]
    lines += [f"trans c{i} a -> c{i + 1}" for i in range(n - 1)]
    return "\n".join(lines) + "\n"


class TestDistinguishDepth:
    """`distinguish` prints a formula of any depth, and `check` reads it
    back and agrees with its `satisfied_by`."""

    @staticmethod
    def assert_check_agrees(capsys, path, s, t, report):
        formula = report["result"]["formula"]
        for state in (s, t):
            code, checked, _ = run(capsys, "check", path, formula, "--state", state)
            assert checked["result"]["formula"] == formula
            assert code == (0 if state in report["result"]["satisfied_by"] else 4)

    def test_chain_150_formula_parses_back(self, tmp_path, capsys):
        # c0 and c1 split in the last round: the formula nests 149 diamonds.
        path = tmp_path / "chain150.nlmp"
        path.write_text(chain_model(150))
        code, report, err = run(capsys, "distinguish", str(path), "c0", "c1")
        assert (code, err) == (0, "")
        assert report["result"]["satisfied_by"] == ["c0"]
        self.assert_check_agrees(capsys, str(path), "c0", "c1", report)

    def test_separating_formula_thousands_deep_is_printed(self, capsys, monkeypatch):
        # A separating formula thousands of levels deep, built directly,
        # stands in for the one the one-label chain of thousands of states
        # synthesizes: it is verified, rendered and printed, and `check`
        # reads it back.
        from fractions import Fraction as F

        import nlmp.logic
        from nlmp import DiamondMulti, GreaterThan, LessThan, Top, formula_to_text

        chain = Top()  # holds at x alone, which steps under b to itself
        for _ in range(3000):
            chain = DiamondMulti("b", (GreaterThan(chain, 0),))
        deep = DiamondMulti("a", (GreaterThan(chain, F(1, 4)), LessThan(chain, F(3, 4))))
        monkeypatch.setattr(nlmp.logic, "_lf_splits", lambda m: iter([((("s",), ("t",)), deep)]))
        path = corpus("two_bounds_needed.nlmp")
        code, report, err = run(capsys, "distinguish", path, "s", "t")
        assert (code, err) == (0, "")
        assert report["result"] == {"equivalent": False, "formula": formula_to_text(deep), "satisfied_by": ["s"]}
        self.assert_check_agrees(capsys, path, "s", "t", report)

    def test_every_printed_formula_is_what_check_reads(self, tmp_path, capsys):
        path = tmp_path / "chain6.nlmp"
        path.write_text(chain_model(6))
        for i, j in itertools.permutations(range(6), 2):
            code, report, _ = run(capsys, "distinguish", str(path), f"c{i}", f"c{j}")
            assert code == 0
            self.assert_check_agrees(capsys, str(path), f"c{i}", f"c{j}", report)


class TestExitCodeMap:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["bogus"]) == 1
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        import nlmp.cli as cli_mod

        def forbidden():
            raise AssertionError("the argument parser was rebuilt")

        assert main(["bogus"]) == 1
        monkeypatch.setattr(cli_mod, "build_parser", forbidden)
        assert main(["validate", corpus("two_bounds_needed.nlmp")]) == 0
        assert main(["bogus"]) == 1
        assert main(["validate"]) == 1
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_internal_invariant_violation_maps_to_3(self, capsys, monkeypatch):
        from nlmp.errors import InternalCheckError
        import nlmp.cli as cli_mod

        def boom(_):
            raise InternalCheckError("forced for the exit-code test")

        monkeypatch.setattr(cli_mod, "compare_bisims", boom)
        code = main(["bisim", corpus("two_bounds_needed.nlmp"), "--kind", "all"])
        err = capsys.readouterr().err
        assert code == 3
        assert "invariant" in err

    def test_precondition_violation_maps_to_3(self, capsys, monkeypatch):
        from nlmp.errors import PreconditionError
        import nlmp.cli as cli_mod

        def boom(*_):
            raise PreconditionError("forced for the exit-code test")

        monkeypatch.setattr(cli_mod, "_separate", boom)
        code = main(["distinguish", corpus("two_bounds_needed.nlmp"), "s", "t"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "internal invariant violation: forced for the exit-code test\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "two_bounds_needed.nlmp"),
            ("bisim", "two_bounds_needed.nlmp", "--kind", "all"),
            ("check", "two_bounds_needed.nlmp", TWO_BOUNDS_FORMULA),
            ("distinguish", "two_bounds_needed.nlmp", "s", "t"),
            ("validate", "atom_split_invalid.nlmp"),
        ],
    )
    def test_reports_are_byte_identical_modulo_timing(self, tmp_path, capsys, argv):
        local = tmp_path / argv[1]
        shutil.copy(corpus(argv[1]), local)
        argv = (argv[0], str(local)) + tuple(argv[2:])
        outputs = []
        for _ in range(2):
            code = main(list(argv))
            text = capsys.readouterr().out
            stripped = "\n".join(
                line for line in text.splitlines() if '"timing_ms"' not in line
            )
            json.loads(text)  # stays well-formed
            outputs.append((code, stripped))
        assert outputs[0] == outputs[1]

    def test_unknown_generator_states_name_one_state_under_every_hash_seed(self, tmp_path):
        # Several unknown states in one generator: the message must not
        # depend on the iteration order of a set of strings.
        model = tmp_path / "unknown.nlmp"
        model.write_text("states s t\nlabels a\nsigma gen {s zz yy ww vv}\n", encoding="utf-8")
        src = corpus_dir().parent.parent
        results = set()
        for seed in range(1, 7):
            proc = subprocess.run(
                [sys.executable, "-m", "nlmp", "validate", str(model)],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed)),
                timeout=60,
            )
            results.add((proc.returncode, proc.stdout, proc.stderr))
        assert results == {(1, "", "error: state 'vv' is not in the universe at line 3\n")}


class TestRender:
    """The report renderer writes the bytes of
    ``json.dumps(value, indent=2, sort_keys=True)``."""

    @staticmethod
    def dumps(value) -> str:
        return json.dumps(value, indent=2, sort_keys=True)

    def test_golden_reports(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        for case in golden.values():
            report = dict(case["report"], timing_ms=12.345)
            assert _render(report) == self.dumps(report)

    # Quotes, backslashes, control characters, the solidus, non-ASCII,
    # a line separator and an astral character.
    CHARS = '"\\\x00\x01\x08\t\n\x0c\r\x1f\x7f/ aZ\xe9\u2028\u4e2d\U0001f600'
    SCALARS = (True, False, None, 0, 1, -1, 10**30, -(2**70), 0.0, -0.0, 1e-07, 1e16, 0.1, 2.5, 12.345)

    def tree(self, rng: random.Random, depth: int):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            if rng.random() < 0.5:
                return "".join(rng.choice(self.CHARS) for _ in range(rng.randrange(6)))
            return rng.choice(self.SCALARS + (rng.uniform(-1e6, 1e6), rng.randrange(-(10**20), 10**20)))
        n = rng.randrange(5)
        if roll < 0.7:
            return [self.tree(rng, depth - 1) for _ in range(n)]
        return {"".join(rng.choice(self.CHARS) for _ in range(rng.randrange(4))): self.tree(rng, depth - 1) for _ in range(n)}

    def test_random_trees(self):
        rng = random.Random(4242)
        for _ in range(2000):
            value = self.tree(rng, 4)
            assert _render(value) == self.dumps(value)

    @pytest.mark.parametrize(
        "value",
        [[], {}, [[]], {"a": {}}, [True, 1, 1.0, False, 0], ["x", ["y"], "z"], ["a", 1], {"k": ["s", "t"]}],
        ids=repr,
    )
    def test_edge_values(self, value):
        assert _render(value) == self.dumps(value)

    @pytest.mark.parametrize("value", [(1, 2), {"a"}, Fraction(1, 2), {"k": [("s",)]}], ids=repr)
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            _render(value)


def test_python_dash_m_nlmp_runs():
    # The package's parent directory, `src` in a checkout.
    src = corpus_dir().parent.parent
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nlmp", "validate", corpus("two_bounds_needed.nlmp")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["result"] == {"valid": True, "findings": []}
