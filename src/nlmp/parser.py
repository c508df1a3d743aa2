"""Text formats: the model language and the formula language.

Model files (.nlmp), line oriented, `#` comments:

    nlmp                        optional header (default), before any other
                                directive; `lmp` switches to exactly one
                                measure per state and label
    states s t x                state identifiers, in display order
    labels a b                  transition labels
    sigma powerset              default when omitted
    sigma gen {s t} {x}         sigma-algebra generated by the given sets
    trans s a x:1/2 y:1/2       one measure (weights on states) added to the
                                transition set of state s under label a
    trans s a -> x              point-mass shorthand

A state identifier is any non-empty run of characters other than
whitespace, `#`, `{` and `}`; it may hold `:` (an item splits at its
last colon) or be `->`.  A label is an identifier or an integer, one
token of the formula language, so that a formula can name it.  Weights
are exact rationals and must sum to 1; weights placed on states of one
atom accumulate into that atom, since a measure on a coarse
sigma-algebra cannot see finer detail.

Formulas, whitespace insensitive, `&` left associative, parentheses
allowed, nested to any depth:

    state level    T | phi & phi | <a> psi | <a>[ >1/4 phi , <3/4 phi ]
    measure level  psi \\/ psi | !psi | [phi]>=q | [phi]>q | [phi]<q | [phi]<=q

with rational thresholds written p/q, 0 or 1, and labels written as
identifiers or integers.  After `<a>[`, a `>`, or a `<` and an integer
that no `>` closes, opens the multi form; anything else, a bracket.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Generator

from .errors import DomainError, ModelSyntaxError
from .logic import (
    BOUNDS,
    And,
    Bound,
    Diamond,
    DiamondMulti,
    MNot,
    MOr,
    MeasureFormula,
    StateFormula,
    Top,
)
from .measurable import SigmaAlgebra, Universe, sigma_generate
from .measures import Measure, _prints, _shown, dirac
from .model import LABEL_TOKEN, Lmp, Nlmp, _checked_labels

# ---------------------------------------------------------------------------
# Model parsing

_LINE_TOKEN = re.compile(r"\{|\}|[^\s{}]+")


def _line_tokens(raw: str) -> list[str]:
    """The tokens of one line, its comment dropped.  Braces are tokens
    of their own; a line without any splits on whitespace alone, as the
    pattern's `\\s` and `str.split` agree on what whitespace is."""
    line = raw.split("#", 1)[0]
    if "{" in line or "}" in line:
        return _LINE_TOKEN.findall(line)
    return line.split()


def _numeral(digits: str, line: int | None, column: int | None = None) -> int:
    # int() refuses digit strings beyond the interpreter's limit
    # (sys.get_int_max_str_digits()); report that as a syntax error.
    try:
        return int(digits)
    except ValueError:
        raise ModelSyntaxError(f"numeral of {len(digits)} digits is too long", line, column) from None


_RATIONAL = re.compile(r"(\d+)(?:/(\d+))?")


def _parse_rational(text: str, line_no: int) -> tuple[int, int]:
    """The numerator and the positive denominator the text writes, as
    written (not reduced)."""
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ModelSyntaxError(f"expected a rational number, got {text!r}", line_no)
    num, den = _numeral(m.group(1), line_no), _numeral(m.group(2) or "1", line_no)
    if den == 0:
        raise ModelSyntaxError("zero denominator", line_no)
    return num, den


def parse_model(text: str) -> Nlmp:
    """The model the text writes: an `Lmp` under the `lmp` header, an
    `Nlmp` otherwise."""
    kind = "nlmp"
    # What the states, labels and sigma lines build, each line at most once.
    declared: dict[str, object] = {}
    trans_lines: list[tuple[int, list[str]]] = []  # each with its "trans"

    lines = map(_line_tokens, text.splitlines())
    directives = [(line_no, tokens) for line_no, tokens in enumerate(lines, start=1) if tokens]
    for i, (line_no, tokens) in enumerate(directives):
        if tokens[0] == "trans":
            trans_lines.append((line_no, tokens))
            continue
        head, *rest = tokens
        if head in ("nlmp", "lmp"):
            if rest:
                raise ModelSyntaxError(f"unexpected tokens after {head!r} header", line_no)
            if i:
                raise ModelSyntaxError("header must come first", line_no)
            kind = head
            continue
        if head in declared:
            raise ModelSyntaxError(f"duplicate {head} line", line_no)
        # The constructors' refusals are reported at their line.
        try:
            if head == "states":
                if not rest:
                    raise ModelSyntaxError("states line needs at least one state", line_no)
                declared[head] = Universe(tuple(rest))
            elif head == "labels":
                declared[head] = _checked_labels(rest)
            elif head == "sigma":
                if "states" not in declared:
                    raise ModelSyntaxError("sigma line must come after the states line", line_no)
                if rest == ["powerset"]:
                    declared[head] = SigmaAlgebra.powerset(declared["states"])
                elif rest and rest[0] == "gen":
                    declared[head] = sigma_generate(declared["states"], _parse_generators(rest[1:], line_no))
                else:
                    raise ModelSyntaxError("expected 'sigma powerset' or 'sigma gen {..} ..'", line_no)
            else:
                raise ModelSyntaxError(f"unknown directive {head!r}", line_no)
        except DomainError as exc:
            raise ModelSyntaxError(str(exc), line_no) from exc

    for head in ("states", "labels"):
        if head not in declared:
            raise ModelSyntaxError(f"missing {head} line", len(text.splitlines()) or 1)
    universe, labels = declared["states"], declared["labels"]
    sigma = declared["sigma"] if "sigma" in declared else SigmaAlgebra.powerset(universe)

    rows: dict[tuple[str, str], list[Measure]] = {}
    loader = _TransLoader(universe, sigma, labels)
    for line_no, rest in trans_lines:
        s, a, mu = loader.parse(rest, line_no)
        rows.setdefault((s, a), []).append(mu)

    # Every DomainError the constructors below could raise, but a
    # missing kernel, was ruled out at its line.
    if kind == "lmp":
        kernels: dict[tuple[str, str], Measure] = {}
        for (s, a), measures in rows.items():
            if len(measures) > 1:
                raise ModelSyntaxError(
                    f"deterministic model has several transitions for ({s}, {a})"
                )
            kernels[(s, a)] = measures[0]
        try:
            return Lmp(sigma, labels, kernels)
        except DomainError as exc:
            raise ModelSyntaxError(str(exc)) from exc
    return Nlmp(sigma, labels, {k: tuple(v) for k, v in rows.items()})


def _parse_generators(tokens: list[str], line_no: int) -> list[list[str]]:
    gens: list[list[str]] = []
    current: list[str] | None = None
    for tok in tokens:
        if tok == "{":
            if current is not None:
                raise ModelSyntaxError("nested '{' in sigma generators", line_no)
            current = []
        elif tok == "}":
            if current is None:
                raise ModelSyntaxError("unmatched '}' in sigma generators", line_no)
            gens.append(current)
            current = None
        else:
            if current is None:
                raise ModelSyntaxError("generator states must be inside {..}", line_no)
            current.append(tok)
    if current is not None:
        raise ModelSyntaxError("unclosed '{' in sigma generators", line_no)
    return gens


class _TransLoader:
    """The trans lines of one model text, parsed with memos that live as
    long as the loader, one `parse_model` call: body tokens -> Measure,
    `state:weight` item -> (state, atom index, numerator, denominator),
    and weight text -> (numerator, denominator).  Models repeat a few
    weights, items and bodies on many lines, and a body that parsed once
    parses to the same measure on any line.  The weight memo serves the
    new items: another state with a weight already seen."""

    def __init__(self, universe: Universe, sigma: SigmaAlgebra, labels: tuple[str, ...]):
        self.states = universe._index
        self.sigma = sigma
        self.labels = set(labels)
        self.bodies: dict[tuple[str, ...], Measure] = {}
        self.items: dict[str, tuple[str, int, int, int]] = {}
        self.rationals: dict[str, tuple[int, int]] = {}

    def parse(self, tokens: list[str], line_no: int) -> tuple[str, str, Measure]:
        """The state, label and measure of a trans line's tokens, the
        first of which is "trans"."""
        if len(tokens) < 4:
            raise ModelSyntaxError("trans line needs a state, a label and a target measure", line_no)
        s, a = tokens[1], tokens[2]
        if s not in self.states:
            raise ModelSyntaxError(f"unknown state {s!r}", line_no)
        if a not in self.labels:
            raise ModelSyntaxError(f"unknown label {a!r}", line_no)
        body = tuple(tokens[3:])
        mu = self.bodies.get(body)
        if mu is None:
            mu = self.bodies[body] = self._measure(body, line_no)
        return s, a, mu

    def _measure(self, body: tuple[str, ...], line_no: int) -> Measure:
        if body[0] == "->":
            if len(body) != 2:
                raise ModelSyntaxError("point-mass shorthand is 'trans s a -> target'", line_no)
            target = body[1]
            if target not in self.states:
                raise ModelSyntaxError(f"unknown state {target!r}", line_no)
            return dirac(self.sigma, target)
        # Each item in order: a new one is checked for its colon, its
        # state and a repeated state before its weight is parsed; a
        # known one can only repeat a state.
        items, weights = self.items, {}
        for item in body:
            known = items.get(item)
            if known is None:
                # A weight holds no colon; a state identifier may.
                target, colon, w = item.rpartition(":")
                if not colon:
                    raise ModelSyntaxError(f"expected 'state:weight', got {item!r}", line_no)
                if target not in self.states:
                    raise ModelSyntaxError(f"unknown state {target!r}", line_no)
                if target in weights:
                    raise ModelSyntaxError(f"duplicate weight for state {target!r}", line_no)
                q = self.rationals.get(w)
                if q is None:
                    q = self.rationals[w] = _parse_rational(w, line_no)
                known = items[item] = (target, self.sigma._atom_index[target], *q)
            else:
                target = known[0]
                if target in weights:
                    raise ModelSyntaxError(f"duplicate weight for state {target!r}", line_no)
            weights[target] = known
        # One integer pass: the states' numerators over the line's lcm,
        # accumulated into their atoms.  The weights are non-negative, so
        # once they sum to 1 every weight and atom total lies in [0, 1].
        den = lcm(*[known[3] for known in weights.values()])
        totals: dict[int, int] = {}
        for _, i, n, d in weights.values():
            totals[i] = totals.get(i, 0) + n * (den // d)
        total = sum(totals.values())
        if total != den:
            raise ModelSyntaxError(f"weights sum to {_shown(Fraction(total, den))}, expected 1", line_no)
        mu = Measure._of(self.sigma, den, sorted(totals.items()))
        # serialize_model prints each atom's weight n/den in lowest terms,
        # whose larger term is den // gcd(n, den): every weight prints if
        # den does.
        den = mu.den
        if not _prints(den) and not all(_prints(den // gcd(n, den)) for _, n in mu.nums):
            raise ModelSyntaxError("an atom's accumulated weight is too long to print", line_no)
        return mu


# ---------------------------------------------------------------------------
# Model serialization


def _measure_text(mu: Measure) -> str:
    # Each atom is named by its least state.
    names = mu.sigma._atom_names
    if mu.is_dirac:
        return "-> " + names[mu.nums[0][0]]
    # Past the int-string limit the f-string raises ValueError, as str()
    # does; the loader refuses such measures (measures._prints).  Each
    # weight lies strictly between 0 and 1.
    den = mu.den
    parts = []
    for i, n in mu.nums:
        g = gcd(n, den)
        parts.append(f"{names[i]}:{n // g}/{den // g}")
    return " ".join(parts)


def serialize_model(model: Nlmp) -> str:
    lines = [model.kind]
    lines.append("states " + " ".join(model.states))
    lines.append("labels " + " ".join(model.labels))
    if model.sigma.is_powerset:
        lines.append("sigma powerset")
    else:
        blocks = " ".join(
            "{" + " ".join(model.universe.sort(a)) + "}" for a in model.sigma.atoms
        )
        lines.append(f"sigma gen {blocks}")
    # An Lmp holds exactly its kernels, as singleton rows in state x
    # label order.
    for (s, a), row in model.transition_items():
        for mu in row:
            lines.append(f"trans {s} {a} {_measure_text(mu)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Formula parsing

_FORMULA_TOKEN = re.compile(
    rf"\s*(?:(?P<or>\\/)|(?P<cmp>>=|<=)|(?P<sym>[&!,\[\]()<>/])|{LABEL_TOKEN})"
)


def _tokenize_formula(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _FORMULA_TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                column = len(text) - len(rest) + 1
                raise ModelSyntaxError(f"unexpected character {rest[0]!r}", None, column)
            break
        pos = m.end()
        kind = m.lastgroup  # the group names are the token kinds
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
    return tokens


class _FormulaParser:
    """Descent that never goes back: each production reads its tokens
    once, and the first token that cannot continue the formula is the
    one an error names.  A production that reads a subformula is a
    generator: it yields the sub-production and is sent its result, and
    `_drive` keeps the suspended productions on a list, so a formula of
    any depth parses without recursion."""

    def __init__(self, text: str):
        # The lookahead at `<a>[` reads four tokens from the cursor on;
        # the end tokens keep every read inside the list.
        self.tokens = _tokenize_formula(text) + [("end", "", len(text) + 1)] * 4
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ModelSyntaxError("unexpected end of formula", None, tok[2])
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.take()
        if tok[1] != value:
            raise ModelSyntaxError(f"expected {value!r}, got {tok[1]!r}", None, tok[2])

    # state level ----------------------------------------------------------

    def state_formula(self) -> Generator[Any, Any, StateFormula]:
        phi = yield self.state_atom()
        while self.peek()[1] == "&":
            self.take()
            phi = And(phi, (yield self.state_atom()))
        return phi

    def state_atom(self) -> Generator[Any, Any, StateFormula]:
        tok = self.take()
        if tok[1] == "T":
            return Top()
        if tok[1] == "(":
            phi = yield self.state_formula()
            self.expect(")")
            return phi
        if tok[1] == "<":
            label_tok = self.take()
            if label_tok[0] not in ("ident", "int"):
                raise ModelSyntaxError("expected a label name", None, label_tok[2])
            self.expect(">")
            # `<a>[` opens the multi form iff a constraint follows: `>`,
            # or `<` and an integer that no `>` closes, as one closes the
            # integer label of a bracketed diamond `[<1>...`.
            bracket, first, second, third = self.tokens[self.pos : self.pos + 4]
            if bracket[1] == "[" and (
                first[1] == ">" or first[1] == "<" and second[0] == "int" and third[1] != ">"
            ):
                return (yield self.diamond_multi(label_tok[1]))
            return Diamond(label_tok[1], (yield self.measure_formula()))
        raise ModelSyntaxError(f"unexpected token {tok[1]!r} in state formula", None, tok[2])

    def diamond_multi(self, label: str) -> Generator[Any, Any, DiamondMulti]:
        self.expect("[")
        constraints = [(yield self.constraint())]
        while self.peek()[1] == ",":
            self.take()
            constraints.append((yield self.constraint()))
        self.expect("]")
        return DiamondMulti(label, tuple(constraints))

    def constraint(self) -> Generator[Any, Any, Bound]:
        tok = self.take()
        if tok[1] not in (">", "<"):
            raise ModelSyntaxError("constraint must start with > or <", None, tok[2])
        q = self.rational()
        return BOUNDS[tok[1]]((yield self.state_formula()), q)

    # measure level ----------------------------------------------------------

    def measure_formula(self) -> Generator[Any, Any, MeasureFormula]:
        items = [(yield self.measure_term())]
        while self.peek()[1] == "\\/":
            self.take()
            items.append((yield self.measure_term()))
        return items[0] if len(items) == 1 else MOr(tuple(items))

    def measure_term(self) -> Generator[Any, Any, MeasureFormula]:
        tok = self.take()
        if tok[1] == "!":
            return MNot((yield self.measure_term()))
        if tok[1] == "(":
            psi = yield self.measure_formula()
            self.expect(")")
            return psi
        if tok[1] == "[":
            phi = yield self.state_formula()
            self.expect("]")
            cmp_tok = self.take()
            q = self.rational()
            if cmp_tok[1] not in BOUNDS:
                raise ModelSyntaxError(f"unknown comparison {cmp_tok[1]!r}", None, cmp_tok[2])
            return BOUNDS[cmp_tok[1]](phi, q)
        raise ModelSyntaxError(f"unexpected token {tok[1]!r} in measure formula", None, tok[2])

    def rational(self) -> Fraction:
        tok = self.take()
        if tok[0] != "int":
            raise ModelSyntaxError("expected a rational number", None, tok[2])
        num = _numeral(tok[1], None, tok[2])
        if self.peek()[1] == "/":
            self.take()
            den_tok = self.take()
            den = _numeral(den_tok[1], None, den_tok[2]) if den_tok[0] == "int" else 0
            if den == 0:
                raise ModelSyntaxError("expected a nonzero denominator", None, den_tok[2])
            return Fraction(num, den)
        return Fraction(num)


def _drive(production: Generator[Any, Any, Any]) -> Any:
    """The result of a production, each sub-production it yields run to
    its end and its result sent back, the suspended ones kept on a list."""
    stack, result = [production], None
    while stack:
        try:
            sub = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(sub)
            result = None
    return result


def _parse_whole(text: str, production):
    """What the production reads from the text, which it must read to
    the end."""
    parser = _FormulaParser(text)
    result = _drive(production(parser))
    tok = parser.peek()
    if tok[0] != "end":
        raise ModelSyntaxError(f"trailing input {tok[1]!r}", None, tok[2])
    return result


def parse_state_formula(text: str) -> StateFormula:
    return _parse_whole(text, _FormulaParser.state_formula)


def parse_measure_formula(text: str) -> MeasureFormula:
    return _parse_whole(text, _FormulaParser.measure_formula)
