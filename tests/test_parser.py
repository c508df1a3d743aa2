import contextlib
import hashlib
import io
import json
import random
import re
import sys
from fractions import Fraction as F

import pytest

from nlmp import (
    And,
    AtLeast,
    AtMost,
    Diamond,
    DiamondMulti,
    DomainError,
    GreaterThan,
    LessThan,
    Lmp,
    MNot,
    MOr,
    ModelSyntaxError,
    Nlmp,
    Top,
    corpus_dir,
    dirac,
    eval_state,
    formula_to_text,
    nlmp_validate,
    parse_measure_formula,
    parse_model,
    parse_state_formula,
    serialize_model,
)
import nlmp.parser
from nlmp.cli import main
from nlmp.parser import _line_tokens, _TransLoader
from support import (
    int_str_limit,
    oracle_line_tokens,
    oracle_parse_trans,
    rand_measure_formula,
    rand_state_formula,
    rand_valid_nlmp,
    two_bounds_model,
    wide_huge_rational_text,
)
from test_logic import default_recursion_limit  # noqa: F401 (a fixture)

CORPUS_FILES = sorted(p.name for p in corpus_dir().glob("*.nlmp"))


def read_corpus(name: str) -> str:
    return (corpus_dir() / name).read_text(encoding="utf-8")


def report_digest(tmp_path, text: str) -> str:
    """The model digest of the `validate` report on the text."""
    path = tmp_path / "model.nlmp"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["validate", str(path)])
    return json.loads(out.getvalue())["model"]["digest"]


def check_answer(name: str, formula: str) -> tuple[str, list[str]]:
    """The formula and the states of the `check` report on a corpus model."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", str(corpus_dir() / name), formula]) == 0
    result = json.loads(out.getvalue())["result"]
    return result["formula"], result["states"]


class TestModelParsing:
    def test_minimal_model(self):
        m = parse_model("states only\nlabels a\n")
        assert type(m) is Nlmp and m.kind == "nlmp"
        assert m.sigma.is_powerset
        assert m.row("only", "a") == ()
        assert nlmp_validate(m).valid

    def test_flagship_corpus_file_matches_canonical_model(self):
        assert parse_model(read_corpus("two_bounds_needed.nlmp")) == two_bounds_model()

    def test_weight_sum_error_reports_the_sum(self):
        text = "states s x y\nlabels a\ntrans s a x:1/2 y:1/3\n"
        with pytest.raises(ModelSyntaxError, match="5/6"):
            parse_model(text)
        # Over 1 where the states share an atom: the line's sum is named
        # at its line, before any atom weight is checked.
        text = "states s x y\nlabels a\nsigma gen {x y} {s}\ntrans s a x:2/3 y:2/4\n"
        with pytest.raises(ModelSyntaxError, match=r"^weights sum to 7/6, expected 1 at line 4$"):
            parse_model(text)

    def test_unknown_state_and_label_rejected(self):
        with pytest.raises(ModelSyntaxError, match="unknown state"):
            parse_model("states s\nlabels a\ntrans s a -> ghost\n")
        with pytest.raises(ModelSyntaxError, match="unknown label"):
            parse_model("states s\nlabels a\ntrans s b -> s\n")

    def test_duplicate_weight_rejected(self):
        with pytest.raises(ModelSyntaxError, match="duplicate weight"):
            parse_model("states s\nlabels a\ntrans s a s:1/2 s:1/2\n")

    def test_line_numbers_in_errors(self):
        text = "states s\nlabels a\n# fine\ntrans s a s:1/2\n"
        with pytest.raises(ModelSyntaxError, match="line 4"):
            parse_model(text)

    def test_structure_errors(self):
        with pytest.raises(ModelSyntaxError, match="missing states"):
            parse_model("labels a\n")
        with pytest.raises(ModelSyntaxError, match="missing labels"):
            parse_model("states s\n")
        with pytest.raises(ModelSyntaxError, match="after the states"):
            parse_model("sigma powerset\nstates s\nlabels a\n")
        with pytest.raises(ModelSyntaxError, match="duplicate states"):
            parse_model("states s\nstates t\nlabels a\n")
        with pytest.raises(ModelSyntaxError, match="unknown directive"):
            parse_model("states s\nlabels a\nbogus\n")
        with pytest.raises(ModelSyntaxError, match="unclosed"):
            parse_model("states s t\nlabels a\nsigma gen {s\n")

    def test_header_must_be_the_first_directive(self):
        # comments and blank lines may precede it; any directive may not
        assert parse_model("# an lmp\n\nlmp\nstates s\nlabels a\ntrans s a -> s\n").kind == "lmp"
        cases = [
            ("states s\nlmp\nlabels a\n", 2),
            ("labels a\nlmp\nstates s\ntrans s a -> s\n", 2),
            ("states s\nlabels a\n# late\nnlmp\n", 4),
            ("lmp\nnlmp\nstates s\nlabels a\n", 2),
            ("nlmp\nnlmp\nstates s\nlabels a\n", 2),
            ("nlmp\nlmp\nstates s\nlabels a\ntrans s a -> s\n", 2),
        ]
        for text, line_no in cases:
            with pytest.raises(ModelSyntaxError, match=f"^header must come first at line {line_no}$"):
                parse_model(text)

    def test_weights_accumulate_within_atoms(self):
        text = (
            "states s t x\nlabels a\nsigma gen {s t} {x}\n"
            "trans x a s:1/4 t:1/4 x:1/2\n"
        )
        (mu,) = parse_model(text).row("x", "a")
        assert mu.value({"s", "t"}) == F(1, 2)
        assert mu.value({"x"}) == F(1, 2)

    def test_point_mass_shorthand_equals_explicit_weight(self):
        m1 = parse_model("states s x\nlabels a\ntrans s a -> x\n")
        m2 = parse_model("states s x\nlabels a\ntrans s a x:1\n")
        assert m1 == m2
        assert m1.row("s", "a") == (dirac(m1.sigma, "x"),)

    def test_lmp_requires_exactly_one_kernel_each(self):
        base = "lmp\nstates s t\nlabels a\n"
        with pytest.raises(ModelSyntaxError, match="missing the transition"):
            parse_model(base + "trans s a -> t\n")
        with pytest.raises(ModelSyntaxError, match="several transitions"):
            parse_model(base + "trans s a -> t\ntrans s a -> s\ntrans t a -> t\n")
        m = parse_model(base + "trans s a -> t\ntrans t a -> t\n")
        assert isinstance(m, Lmp) and isinstance(m, Nlmp) and m.kind == "lmp"
        assert len(m.row("s", "a")) == 1


# Weight splits of 1 into two to four parts, as the model text writes them.
_SPLITS = [
    ("1",),
    ("1/2", "1/2"),
    ("1/3", "2/3"),
    ("1/4", "3/4"),
    ("2/4", "1/4", "1/4"),
    ("1/2", "1/3", "1/6"),
    ("1/8", "3/8", "2/4"),
    ("1/4", "1/4", "1/4", "1/4"),
]


# The int-string limit, or the default limit where none is set.
_LIMIT = sys.get_int_max_str_digits() or 4300


def _mutated_model(rng: random.Random) -> tuple[str, list[str], list[str]]:
    """A seeded model text, its lines up to the first trans line, and its
    trans lines, a third of them mutated.  Every other state identifier
    holds a colon."""
    states = [f"s{i}" if i % 2 == 0 else f"s:{i}" for i in range(rng.randint(2, 6))]
    header = ["states " + " ".join(states), "labels a b"]
    if rng.random() < 0.5:
        rng.shuffle(states)
        cut = rng.randint(1, len(states) - 1)
        header.append(f"sigma gen {{{' '.join(states[:cut])}}} {{{' '.join(states[cut:])}}}")
    lines: list[str] = []
    for _ in range(rng.randint(3, 9)):
        s, a = rng.choice(states), rng.choice("ab")
        weights = rng.choice(_SPLITS)
        targets = rng.sample(states, min(len(weights), len(states)))
        if len(targets) < len(weights) or rng.random() < 0.2:
            body = ["->", rng.choice(states)]
        else:
            body = [f"{x}:{w}" for x, w in zip(targets, weights)]
        if rng.random() < 0.35:
            body = _mutate(rng, body, lines, states)
        lines.append(f"trans {s} {a} " + " ".join(body))
    if rng.random() < 0.2:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["trans", "trans s0", "trans s0 a", "trans zz a -> s0", "trans s0 c -> s0"]))
    return "\n".join(header + lines) + "\n", header, lines


def _mutate(rng: random.Random, body: list[str], earlier: list[str], states: list[str]) -> list[str]:
    kind = rng.randrange(13)
    i = rng.randrange(len(body))
    if kind == 0 and earlier:  # a body repeated from an earlier line
        return rng.choice(earlier).split()[3:]
    if kind == 1:  # a missing colon
        body[i] = body[i].replace(":", "")
    elif kind == 2:  # an unknown target
        body[-1] = "zz" if body[0] == "->" else "zz:" + body[i].rpartition(":")[2]
    elif kind == 3 and body[0] != "->":  # a numeral longer than int() reads
        body[i] = body[i].rpartition(":")[0] + ":" + "1" * _LIMIT + "1/2"
    elif kind == 4 and body[0] != "->":  # a wrong sum
        body[i] = body[i].rpartition(":")[0] + rng.choice([":1/5", ":0", ":7/3"])
    elif kind == 5:  # the -> form, with a target too many or too few
        body = ["->", *rng.sample(states, rng.choice([0, 2]))]
    elif kind == 6:  # a duplicate state, the second weight unparsable
        body = [f"{states[0]}:1/2", f"{states[0]}:1/0"]
    elif kind == 7:  # a zero denominator or no rational at all
        body[i] = body[i].rpartition(":")[0] + rng.choice([":1/0", ":x", ":1/", ":-1/2"])
    elif kind == 8:  # a comment, a tab, a brace
        body[i] += rng.choice(["  # note", "\t", "{", " }"])
    elif kind == 9 and body[0] != "->":  # a duplicate state with the same weight text
        body.append(body[i])
    elif kind == 10:  # a state weighted twice, the first item new
        body = [f"{states[-1]}:1/3", f"{states[-1]}:2/3"]
    elif kind == 11 and body[0] != "->":  # a line longer than the limit whose weights print
        target, _, w = body[i].rpartition(":")
        n, _, d = w.partition("/")
        scale = 10 ** (_LIMIT // 2 + 8)
        body[i] = f"{target}:{int(n) * scale}/{int(d or 1) * scale}"
    elif kind == 12 and len(states) >= 4:  # two atoms whose accumulated weights may not print
        # Over 2P and 2Q, coprime, each of about half the limit's digits:
        # x and z in one atom weigh (P + Q)/2PQ together, which does not
        # print; x and u weigh 1/2.
        p = 10 ** (_LIMIT // 2 + 8)
        q = p + 1
        x, u, z, w = rng.sample(states, 4)
        body = [f"{x}:1/{2 * p}", f"{u}:{p - 1}/{2 * p}", f"{z}:1/{2 * q}", f"{w}:{q - 1}/{2 * q}"]
    return body


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ModelSyntaxError as exc:
        return str(exc), exc.line


class TestTransLoader:
    """The loader's per-call memos against the trans-line parser that
    had none, kept in tests/support.py."""

    def test_mutated_lines_match_the_memo_free_parser(self):
        rng = random.Random(3401)
        seen: set[str] = set()
        for _ in range(600):
            text, header, lines = _mutated_model(rng)
            model = parse_model("\n".join(header) + "\n")
            labels = set(model.labels)
            loader = _TransLoader(model.universe, model.sigma, list(model.labels))
            rationals: dict = {}
            rows: dict = {}
            first_error = None
            for line_no, raw in enumerate(lines, start=len(header) + 1):
                tokens = oracle_line_tokens(raw)
                want = _outcome(oracle_parse_trans, tokens[1:], model.universe, model.sigma, labels, rationals, line_no)
                assert _line_tokens(raw) == tokens
                got = _outcome(loader.parse, tokens, line_no)
                assert got == want, (raw, got, want)
                if len(want) == 2:
                    seen.add(want[0].split(" at line")[0].split(" ")[0])
                    first_error = first_error or want
                else:
                    rows.setdefault(want[:2], []).append(want[2])
                    seen.add("ok" if raw.split()[3] != "->" else "->")
            if first_error is None:
                assert parse_model(text) == Nlmp(model.sigma, model.labels, rows)
            else:
                with pytest.raises(ModelSyntaxError) as exc:
                    parse_model(text)
                assert (str(exc.value), exc.value.line) == first_error
        assert {"ok", "->", "expected", "unknown", "duplicate", "numeral", "weights", "point-mass", "zero", "an"} <= seen

    def test_a_repeated_state_is_reported_before_its_weight_is_read(self):
        # x:1/0 is new: its state repeats, so the duplicate is reported,
        # not the zero denominator its weight would raise; on the second
        # text x:1/2 is already known from line 3.
        for first in ("", "trans s a x:1/2 s:1/2\n"):
            line_no = 3 + bool(first)
            text = f"states s x\nlabels a\n{first}trans s a x:1/2 x:1/0\n"
            with pytest.raises(ModelSyntaxError, match=f"^duplicate weight for state 'x' at line {line_no}$"):
                parse_model(text)
            text = f"states s x\nlabels a\n{first}trans s a x:1/0 x:1/2\n"
            with pytest.raises(ModelSyntaxError, match=f"^zero denominator at line {line_no}$"):
                parse_model(text)

    def test_lines_past_the_limit_whose_weights_print_are_not_printed(self, monkeypatch):
        # Which weights print is decided in integers: a file whose trans
        # lines are longer than the int-string limit, but whose weights
        # print, is parsed without calling the serializer.
        printed = []
        monkeypatch.setattr(nlmp.parser, "_measure_text", printed.append)
        text = wide_huge_rational_text(1, 4, measures=40, digits=400)
        with int_str_limit(640):
            assert min(len(line) for line in text.splitlines() if line.startswith("trans")) > 640
            model = parse_model(text)
        assert len(printed) == 0
        assert len(model.pool) == 40

    @pytest.mark.parametrize(
        "blocks, prints",
        [
            ("{x z} {u} {w} {s}", False),
            ("{x z} {u w} {s}", False),
            ("{x u} {z} {w} {s}", True),
            ("{x} {z} {u} {w} {s}", True),
        ],
    )
    def test_a_weight_prints_iff_its_reduced_denominator_does(self, blocks, prints):
        # Over 2P and 2Q, coprime, of 331 digits each: the measure's
        # denominator 2PQ does not print under a limit of 640.  x and z
        # in one atom weigh (P + Q)/2PQ together, which does not print,
        # while the numerators of u's and w's own atoms do; x and u weigh
        # 1/2.
        p = 10**330
        q = p + 1
        body = f"x:1/{2 * p} u:{p - 1}/{2 * p} z:1/{2 * q} w:{q - 1}/{2 * q}"
        text = f"states s x z u w\nlabels a\nsigma gen {blocks}\ntrans s a {body}\n"
        header = parse_model(text.rpartition("trans")[0])
        tokens = oracle_line_tokens(text.splitlines()[3])
        with int_str_limit(640):
            got = _outcome(parse_model, text)
            want = _outcome(oracle_parse_trans, tokens[1:], header.universe, header.sigma, {"a"}, {}, 4)
        if prints:
            assert got.row("s", "a") == (want[2],)
        else:
            assert got == want == ("an atom's accumulated weight is too long to print at line 4", 4)

    def test_a_repeated_body_gives_the_same_measure(self):
        text = "states s t x\nlabels a b\nsigma gen {s t} {x}\ntrans s a t:1/2 x:1/2\ntrans x b t:1/2 x:1/2\ntrans t a s:1/2 x:1/2\n"
        m = parse_model(text)
        assert m.row("s", "a")[0] is m.row("x", "b")[0]
        # the last line weights another state of the same atom: an equal
        # measure from another body
        assert m.row("t", "a")[0] == m.row("s", "a")[0]
        assert len(m.pool) == 1


class TestRoundTrip:
    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_corpus_files_round_trip(self, name):
        m = parse_model(read_corpus(name))
        text = serialize_model(m)
        again = parse_model(text)
        assert type(again) is type(m) and again == m
        assert serialize_model(again) == text

    def test_random_models_round_trip(self):
        rng = random.Random(601)
        for _ in range(60):
            m = rand_valid_nlmp(rng, coarse=rng.random() < 0.5)
            assert parse_model(serialize_model(m)) == m

    def test_state_identifiers_may_hold_colons_and_be_arrows(self):
        text = (
            "states s:x t u -> x:\nlabels a\nsigma gen {s:x t} {u} {->}\n"
            "trans u a t:1/2 u:1/2\ntrans s:x a -> u\ntrans t a -> u\n"
            "trans -> a x::1/3 ->:2/3\ntrans x: a -> ->\n"
        )
        m = parse_model(text)
        # each item splits at its last colon; u's measure is written on
        # the atom's least state
        assert m.row("u", "a")[0].value({"s:x", "t"}) == F(1, 2)
        assert m.row("->", "a")[0].value({"x:"}) == F(1, 3)
        assert m.row("x:", "a") == (dirac(m.sigma, "->"),)
        serialized = serialize_model(m)
        assert "trans u a s:x:1/2 u:1/2\n" in serialized
        assert parse_model(serialized) == m

    def test_digest_is_deterministic_and_content_sensitive(self, tmp_path):
        text = read_corpus("two_bounds_needed.nlmp")
        # the same model in another text: its trans lines reversed
        lines = text.splitlines()
        trans = [line for line in lines if line.startswith("trans ")]
        reordered = "\n".join([line for line in lines if line not in trans] + trans[::-1]) + "\n"
        assert parse_model(reordered) == parse_model(text)
        digest = report_digest(tmp_path, text)
        assert report_digest(tmp_path, text) == digest
        assert report_digest(tmp_path, reordered) == digest
        assert report_digest(tmp_path, read_corpus("uniform_rows.nlmp")) != digest

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_digest_is_the_sha256_of_the_serialized_model(self, tmp_path, name):
        text = read_corpus(name)
        expected = hashlib.sha256(serialize_model(parse_model(text)).encode()).hexdigest()
        assert report_digest(tmp_path, text) == expected

    @pytest.mark.parametrize("states", ["states { s } t", "states s{ t", "states s }"])
    def test_braces_on_the_states_line_are_a_syntax_error(self, states):
        text = f"{states}\nlabels a\nsigma gen {{s t}}\n"
        message = r"^state identifier '[{}]' is empty or holds whitespace, '#', '\{' or '\}' at line 1$"
        with pytest.raises(ModelSyntaxError, match=message):
            parse_model(text)


class TestFormulaParsing:
    def test_grammar_examples(self):
        assert parse_state_formula("T") == Top()
        assert parse_state_formula("T & T") == And(Top(), Top())
        assert parse_state_formula("<a> [T]>=1/2") == Diamond("a", AtLeast(Top(), F(1, 2)))
        assert parse_state_formula("<a>[ >1/4 T , <3/4 T ]") == DiamondMulti(
            "a", (GreaterThan(Top(), F(1, 4)), LessThan(Top(), F(3, 4)))
        )
        assert parse_measure_formula("[T]>=1/2 \\/ ![T]>1/2") == MOr(
            (AtLeast(Top(), F(1, 2)), MNot(GreaterThan(Top(), F(1, 2))))
        )
        assert parse_measure_formula("[T]<1/2") == LessThan(Top(), F(1, 2))
        assert parse_measure_formula("[T]<=1/2") == AtMost(Top(), F(1, 2))

    def test_integers_zero_and_one(self):
        assert parse_measure_formula("[T]>=1") == AtLeast(Top(), F(1))
        assert parse_measure_formula("[T]>0") == GreaterThan(Top(), F(0))

    def test_conjunction_is_left_associative(self):
        phi = parse_state_formula("T & T & T")
        assert phi == And(And(Top(), Top()), Top())

    def test_whitespace_insensitive(self):
        tight = parse_state_formula("<a>[>1/4T,<3/4T]")
        spaced = parse_state_formula("<a>[ >1/4 T , <3/4 T ]")
        assert tight == spaced

    def test_parentheses(self):
        phi = parse_state_formula("(T & T) & (T)")
        assert phi == And(And(Top(), Top()), Top())
        psi = parse_measure_formula("!([T]>=1 \\/ [T]<1)")
        assert psi == MNot(MOr((AtLeast(Top(), F(1)), LessThan(Top(), F(1)))))

    def test_bracketed_diamond_inside_measure_bound(self):
        # `[<` followed by a label, not an integer, opens a measure bracket
        psi = parse_state_formula("<a>[<b>[T]>=1]>=1")
        assert psi == Diamond("a", AtLeast(Diamond("b", AtLeast(Top(), F(1))), F(1)))

    def test_integer_labels_decide_the_form_after_the_bracket(self):
        # `[<1>` closes an integer label: a measure bracket
        inner = Diamond("1", GreaterThan(Top(), F(0)))
        assert parse_state_formula("<1>[<1>[T]>0]>0") == Diamond("1", GreaterThan(inner, F(0)))
        # `[<1` without `>`: the multi form, whose first constraint is `<1`
        assert parse_state_formula("<a>[<1 <1>[T]>0 , >0 T]") == DiamondMulti(
            "a", (LessThan(inner, F(1)), GreaterThan(Top(), F(0)))
        )
        assert parse_state_formula("<a>[<1/2 T]") == DiamondMulti("a", (LessThan(Top(), F(1, 2)),))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("<a>[ >1/2 ]", "unexpected token ']' in state formula at column 11"),
            ("<a>[ >1/2 <b>[T]>=1 , <1/2 T", "unexpected end of formula at column 29"),
            # a label that is not an integer opens a bracket, whose `<b` lacks its `>`
            ("<a>[<b T]>0", "expected '>', got 'T' at column 8"),
        ],
    )
    def test_error_after_the_bracket_names_the_first_token_that_cannot_continue(self, text, message):
        with pytest.raises(ModelSyntaxError, match=f"^{re.escape(message)}$"):
            parse_state_formula(text)

    def test_nested_flagship_formula(self):
        phi = parse_state_formula("<a>[ >1/4 <b>[T]>=1 , <3/4 <b>[T]>=1 ]")
        sub = Diamond("b", AtLeast(Top(), F(1)))
        assert phi == DiamondMulti(
            "a", (GreaterThan(sub, F(1, 4)), LessThan(sub, F(3, 4)))
        )

    def test_syntax_errors(self):
        for bad in ("", "T &", "<a>", "[T]>=", "T T", "<a>[ ]", "(T", "[T]>=1/0"):
            with pytest.raises(ModelSyntaxError):
                parse_state_formula(bad)

    @pytest.mark.parametrize(
        "wrap,build",
        [
            ("<a>[{}]>0", lambda phi: Diamond("a", GreaterThan(phi, F(0)))),
            ("<a>[ >1/2 {} ]", lambda phi: DiamondMulti("a", (GreaterThan(phi, F(1, 2)),))),
            ("({})", lambda phi: phi),
            ("<a>[ <1 {} , >0 T ]", lambda phi: DiamondMulti("a", (LessThan(phi, F(1)), GreaterThan(Top(), F(0))))),
        ],
    )
    def test_ten_thousand_levels_parse(self, default_recursion_limit, wrap, build):
        deep, phi = "T", Top()
        for _ in range(10_000):
            deep, phi = wrap.format(deep), build(phi)
        text = formula_to_text(phi)
        assert formula_to_text(parse_state_formula(deep)) == text
        assert formula_to_text(parse_state_formula(text)) == text
        # Equal formulas are one object: neither `==` nor `hash` walks them.
        assert parse_state_formula(deep) is phi
        assert parse_state_formula(text) is parse_state_formula(text)
        assert parse_state_formula(deep) == phi and hash(parse_state_formula(text)) == hash(phi)
        m = parse_model(read_corpus("uniform_rows.nlmp"))
        assert check_answer("uniform_rows.nlmp", deep) == (text, m.universe.sort(eval_state(m, phi)))

    def test_ten_thousand_negations_parse(self, default_recursion_limit):
        text = "!" * 10_000 + "[T]>0"
        psi = parse_measure_formula(text)
        assert formula_to_text(psi) == text
        for _ in range(10_000):
            assert isinstance(psi, MNot)
            psi = psi.item
        assert psi == GreaterThan(Top(), F(0))

    def test_ten_thousand_conjuncts_parse(self, default_recursion_limit):
        chain = " & ".join(["T"] * 10_000)
        phi = parse_state_formula(chain)
        assert formula_to_text(phi) == chain
        for _ in range(9_999):
            assert isinstance(phi, And) and phi.right == Top()
            phi = phi.left
        assert phi == Top()
        assert check_answer("uniform_rows.nlmp", chain) == (chain, ["p", "q", "r"])

    def test_conjunct_chain_inside_ten_thousand_levels_parses(self, default_recursion_limit):
        # `<a> [phi]>0` is how a diamond renders, and a right-nested
        # conjunction renders in parentheses.
        deep = "<a> [" * 10_000 + " & ".join(["T"] * 10_000) + "]>0" * 10_000
        assert formula_to_text(parse_state_formula(deep)) == deep
        nested = "T & (" * 9_999 + "T & T" + ")" * 9_999
        assert formula_to_text(parse_state_formula(nested)) == nested
        assert check_answer("uniform_rows.nlmp", deep) == (deep, ["p", "q", "r"])
        assert check_answer("uniform_rows.nlmp", nested) == (nested, ["p", "q", "r"])

    def test_repeated_subformula_is_one_node_evaluated_once(self, monkeypatch):
        import nlmp.logic

        text = "<a> [<b> [T]>0]>0 & <a> [<b> [T]>0]>0"
        phi = parse_state_formula(text)
        assert phi.left is phi.right
        calls = []
        real = nlmp.logic.hit_preimage
        monkeypatch.setattr(nlmp.logic, "hit_preimage", lambda m, a, xi: calls.append(a) or real(m, a, xi))
        assert check_answer("two_bounds_needed.nlmp", text)[0] == text
        assert calls == ["b", "a"]

    def test_threshold_range_enforced(self):
        with pytest.raises(DomainError):
            parse_measure_formula("[T]>=3/2")

    def test_rendering_round_trips(self):
        rng = random.Random(602)
        labels = ("a", "b")
        for _ in range(120):
            phi = rand_state_formula(rng, labels, 3)
            text = formula_to_text(phi)
            parsed = parse_state_formula(text)
            assert formula_to_text(parsed) == text
            assert parse_state_formula(formula_to_text(parsed)) == parsed
        for _ in range(120):
            psi = rand_measure_formula(rng, labels, 3)
            text = formula_to_text(psi)
            parsed = parse_measure_formula(text)
            assert formula_to_text(parsed) == text
            assert parse_measure_formula(formula_to_text(parsed)) == parsed
