"""Verdict checks that do not trust the code path under test.

* A reference parser and evaluator for the formula language.  It works
  on the generator's own weight dictionaries, not on library objects, so
  `check` extensions and the separation by synthesized formulas are
  recomputed from scratch.
* Per-command checks for the three workloads.  Each takes the exit code
  and the JSON text the CLI printed, and returns None when the verdict
  is confirmed or a one-line reason when it is not.  The library's
  checkers `is_*_bisim` are the ground truth for bisimulations; they
  are applied to a model built from the generator's data, not to what
  the CLI parsed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from gen import Model

# ---------------------------------------------------------------------------
# Reference formula parser: text -> nested tuples
#   state:   ("T",) ("and", l, r) ("dia", a, psi) ("multi", a, ((op, q, phi), ...))
#   measure: ("or", (psi, ...)) ("not", psi) (cmp, phi, q) with cmp in >= > < <=

_TOKEN = re.compile(r"\s*(\\/|>=|<=|[&!,\[\]()<>/]|\d+|[A-Za-z_][A-Za-z0-9_]*)")


def parse_formula(text: str) -> tuple:
    tokens = []
    pos = 0
    while text[pos:].strip():
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    p = _Parser(tokens)
    phi = p.state()
    if p.i != len(tokens):
        raise ValueError("trailing input")
    return phi


class _Parser:
    def __init__(self, tokens: list[str]):
        self.t, self.i = tokens, 0

    def peek(self, k: int = 0) -> str | None:
        return self.t[self.i + k] if self.i + k < len(self.t) else None

    def take(self, want: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r}, got {tok!r}")
        self.i += 1
        return tok

    def rational(self) -> Fraction:
        num = int(self.take())
        if self.peek() == "/":
            self.take()
            return Fraction(num, int(self.take()))
        return Fraction(num)

    def state(self) -> tuple:
        phi = self.state_atom()
        while self.peek() == "&":
            self.take()
            phi = ("and", phi, self.state_atom())
        return phi

    def state_atom(self) -> tuple:
        tok = self.take()
        if tok == "T":
            return ("T",)
        if tok == "(":
            phi = self.state()
            self.take(")")
            return phi
        if tok != "<":
            raise ValueError(f"unexpected {tok!r}")
        label = self.take()
        self.take(">")
        nxt, after = self.peek(1), self.peek(2)
        if self.peek() == "[" and (nxt == ">" or (nxt == "<" and after is not None and after.isdigit())):
            self.take("[")
            constraints = [self.constraint()]
            while self.peek() == ",":
                self.take()
                constraints.append(self.constraint())
            self.take("]")
            return ("multi", label, tuple(constraints))
        return ("dia", label, self.measure())

    def constraint(self) -> tuple:
        op = self.take()
        if op not in (">", "<"):
            raise ValueError("constraint needs > or <")
        q = self.rational()
        return (op, q, self.state())

    def measure(self) -> tuple:
        items = [self.measure_term()]
        while self.peek() == "\\/":
            self.take()
            items.append(self.measure_term())
        return items[0] if len(items) == 1 else ("or", tuple(items))

    def measure_term(self) -> tuple:
        tok = self.take()
        if tok == "!":
            return ("not", self.measure_term())
        if tok == "(":
            psi = self.measure()
            self.take(")")
            return psi
        if tok != "[":
            raise ValueError(f"unexpected {tok!r}")
        phi = self.state()
        self.take("]")
        cmp = self.take()
        if cmp not in (">=", ">", "<", "<="):
            raise ValueError(f"unknown comparison {cmp!r}")
        return (cmp, phi, self.rational())


# ---------------------------------------------------------------------------
# Reference evaluator on the generator's data

_CMP = {
    ">=": lambda v, q: v >= q,
    ">": lambda v, q: v > q,
    "<": lambda v, q: v < q,
    "<=": lambda v, q: v <= q,
}


def extension(model: Model, phi: tuple, memo: dict | None = None) -> frozenset[str]:
    """States satisfying phi.  Measure values are sums of state weights,
    which equal the atom sums because every extension on a valid model
    is a union of atoms."""
    memo = {} if memo is None else memo
    if phi in memo:
        return memo[phi]

    def value(mu: dict, ext: frozenset[str]) -> Fraction:
        return sum((w for x, w in mu.items() if x in ext), Fraction(0))

    def msat(mu: dict, psi: tuple) -> bool:
        if psi[0] == "or":
            return any(msat(mu, item) for item in psi[1])
        if psi[0] == "not":
            return not msat(mu, psi[1])
        return _CMP[psi[0]](value(mu, extension(model, psi[1], memo)), psi[2])

    kind = phi[0]
    if kind == "T":
        out = frozenset(model.states)
    elif kind == "and":
        out = extension(model, phi[1], memo) & extension(model, phi[2], memo)
    elif kind == "dia":
        out = frozenset(s for s in model.states if any(msat(mu, phi[2]) for mu in model.rows.get((s, phi[1]), [])))
    else:
        bounds = [(op, q, extension(model, sub, memo)) for op, q, sub in phi[2]]
        out = frozenset(
            s
            for s in model.states
            if any(
                all(_CMP[op](value(mu, ext), q) for op, q, ext in bounds)
                for mu in model.rows.get((s, phi[1]), [])
            )
        )
    memo[phi] = out
    return out


def size_and_depth(phi: tuple) -> tuple[int, int]:
    """Node count and modal depth of a parsed formula."""
    kind = phi[0]
    if kind == "T":
        return 1, 0
    if kind == "and":
        (sl, dl), (sr, dr) = size_and_depth(phi[1]), size_and_depth(phi[2])
        return 1 + sl + sr, max(dl, dr)
    if kind == "or":
        parts = [size_and_depth(p) for p in phi[1]]
        return 1 + sum(s for s, _ in parts), max(d for _, d in parts)
    if kind == "not":
        s, d = size_and_depth(phi[1])
        return 1 + s, d
    if kind == "dia":
        s, d = size_and_depth(phi[2])
        return 1 + s, 1 + d
    if kind == "multi":
        parts = [size_and_depth(sub) for _, _, sub in phi[2]]
        return 1 + sum(s for s, _ in parts), 1 + max(d for _, d in parts)
    s, d = size_and_depth(phi[1])  # a probability bound
    return 1 + s, d


# ---------------------------------------------------------------------------
# Library models built from the generator's data (not through the parser)


def library_model(nlmp, model: Model):
    universe = nlmp.Universe(tuple(model.states))
    if model.atoms is None:
        sigma = nlmp.SigmaAlgebra.powerset(universe)
    else:
        sigma = nlmp.SigmaAlgebra(universe, tuple(frozenset(a) for a in model.atoms))
    rows = {
        key: tuple(nlmp.Measure.from_state_weights(sigma, w) for w in ws)
        for key, ws in model.rows.items()
    }
    return nlmp.Nlmp(sigma, model.labels, rows)


def _is_partition_of(blocks: list[list[str]], states: list[str]) -> bool:
    flat = [s for b in blocks for s in b]
    return len(flat) == len(set(flat)) and set(flat) == set(states) and all(blocks)


def _coarser(blocks: list[list[str]], planted: list[list[str]]) -> bool:
    block_of = {s: i for i, b in enumerate(blocks) for s in b}
    return all(len({block_of[s] for s in cls}) == 1 for cls in planted)


def _canon(blocks) -> list[frozenset[str]]:
    return sorted((frozenset(b) for b in blocks), key=lambda b: sorted(b))


# ---------------------------------------------------------------------------
# Per-command checks


def check_refine(nlmp, model: Model, exact: bool, rc: int, out: str) -> str | None:
    """`bisim --kind all`: the three partitions are partitions, at least
    as coarse as the planted classes (equal to them when `exact`),
    accepted by the matching checker, and equal on powerset models."""
    if not model.valid:
        return None if rc == 2 else f"exit {rc}, expected 2 on an invalid model"
    if rc != 0:
        return f"exit {rc}, expected 0"
    result = json.loads(out)["result"]
    parts = {k: result[k]["partition"] for k in ("traditional", "state", "event")}
    for kind, blocks in parts.items():
        if not _is_partition_of(blocks, model.states):
            return f"{kind}: not a partition of the states"
        if not _coarser(blocks, model.planted):
            return f"{kind}: finer than the planted classes"
        if exact and _canon(blocks) != _canon(model.planted):
            return f"{kind}: differs from the known bisimilarity"
    m = library_model(nlmp, model)
    rel = {k: nlmp.Relation.from_partition(m.universe, v) for k, v in parts.items()}
    if not nlmp.is_traditional_bisim(m, rel["traditional"]):
        return "traditional partition rejected by is_traditional_bisim"
    if not nlmp.is_state_bisim(m, rel["state"]):
        return "state partition rejected by is_state_bisim"
    lam = nlmp.SigmaAlgebra(m.universe, tuple(frozenset(b) for b in parts["event"]))
    if not nlmp.is_event_bisim(m, lam):
        return "event partition rejected by is_event_bisim"
    if model.atoms is None and not (_canon(parts["traditional"]) == _canon(parts["state"]) == _canon(parts["event"])):
        return "partitions differ on a powerset model"
    return None


def check_synth(nlmp, model: Model, s: str, t: str, rc: int, out: str) -> str | None:
    """`distinguish S T`: exit 6 exactly on coarse models; exit 5 for one
    planted class, or for two classes only if merging them still gives
    a traditional bisimulation; otherwise a formula that re-parses and
    separates S from T under both the library and the reference
    evaluator."""
    if model.atoms is not None:
        return None if rc == 6 else f"exit {rc}, expected 6 on a coarse model"
    cls = {x: i for i, c in enumerate(model.planted) for x in c}
    m = library_model(nlmp, model)
    if rc == 5:
        if cls[s] == cls[t]:
            return None
        merged = [c for i, c in enumerate(model.planted) if i not in (cls[s], cls[t])]
        merged.append(model.planted[cls[s]] + model.planted[cls[t]])
        if nlmp.is_traditional_bisim(m, nlmp.Relation.from_partition(m.universe, merged)):
            return None
        return "exit 5, but merging the two classes is not a bisimulation"
    if rc != 0:
        return f"exit {rc}, expected 0 or 5"
    if cls[s] == cls[t]:
        return "formula reported for two states of one planted class"
    result = json.loads(out)["result"]
    text = result["formula"]
    phi = nlmp.parse_state_formula(text)
    lib = (nlmp.satisfies(m, s, phi), nlmp.satisfies(m, t, phi))
    ext = extension(model, parse_formula(text))
    ref = (s in ext, t in ext)
    if lib[0] == lib[1] or ref != lib:
        return f"formula does not separate {s} from {t}"
    if sorted(result["satisfied_by"]) != sorted(x for x in (s, t) if x in ext):
        return "satisfied_by disagrees with the reference evaluator"
    return None


def check_validate(model: Model, rc: int, out: str) -> str | None:
    expected = 0 if model.valid else 2
    if rc != expected:
        return f"exit {rc}, expected {expected}"
    if json.loads(out)["result"]["valid"] != model.valid:
        return "reported validity differs from the construction"
    return None


def check_formula(model: Model, formula: str, state: str, rc: int, out: str) -> str | None:
    ext = extension(model, parse_formula(formula))
    expected = 0 if state in ext else 4
    if rc != expected:
        return f"exit {rc}, expected {expected}"
    if set(json.loads(out)["result"]["states"]) != ext:
        return "extension differs from the reference evaluator"
    return None
