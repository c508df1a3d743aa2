"""Seeded fuzz test of the command line on malformed input.

Every case runs `nlmp.cli.main` in-process on a mutated corpus model
or a mutated formula and checks the input boundary: a documented exit
code other than 3 (an internal invariant violation is a bug), at most
one `error:` line on stderr, and at most one JSON document on stdout.
A crash surfaces as the exception `main` let through.

The cases are drawn once from a fixed seed, so a failure names a case
that reproduces.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from nlmp import corpus_dir, parse_model
from nlmp.cli import main

SEED = 1306
MODEL_CASES = 200
FORMULA_CASES = 100
EXIT_CODES = {0, 1, 2, 4, 5, 6}
HUGE_NUMERAL = "7" * 5000  # beyond Python's default int-string limit of 4300 digits
NOT_UTF8 = (b"\xff", b"\xfe\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80")
FORMULA_TOKENS = (
    "T", "&", "<", ">", "[", "]", "(", ")", "!", "\\/", ",", ">=", "<=",
    "0", "1", "1/2", "3/2", "1/0", "/", "zz", HUGE_NUMERAL,
)
SEEDS = (
    "T",
    "<{a}>[T]>=1",
    "<{a}>[<{a}>[T]>0]>1/3 & T",
    "<{a}>(![T]<1 \\/ [<{a}>[T]>=1]<=1/2)",
    "<{a}>[ >1/4 <{a}>[T]>=1 , <3/4 <{a}>[T]>=1 ]",
)
WRAPS = ("({})", "<{a}>[{}]>0", "<{a}>[ >1/2 {} ]", "<{a}>![{}]<1", "{} & T")


def _corpus():
    out = []
    for path in sorted(corpus_dir().glob("*.nlmp")):
        text = path.read_text(encoding="utf-8")
        lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
        out.append((path.name, [line for line in lines if line], parse_model(text)))
    return out


def _mutate_tokens(rng: random.Random, tokens: list[str]) -> list[str]:
    tokens = list(tokens)
    i = rng.randrange(len(tokens))
    kind = rng.choice(("drop", "duplicate", "swap"))
    if kind == "drop":
        del tokens[i]
    elif kind == "duplicate":
        tokens.insert(i, tokens[i])
    else:
        j = rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    return tokens


def _mutate_model(rng: random.Random, lines: list[list[str]]) -> bytes:
    kind = rng.choice(("tokens", "tokens", "numeral", "bytes"))
    if kind == "tokens":
        flat = [(n, tok) for n, line in enumerate(lines) for tok in line]
        mutated = _mutate_tokens(rng, [tok for _, tok in flat])
        # keep the line structure of the original where it still lines up
        out: list[list[str]] = [[] for _ in lines]
        for k, tok in enumerate(mutated):
            out[flat[min(k, len(flat) - 1)][0]].append(tok)
        return "\n".join(" ".join(line) for line in out).encode() + b"\n"
    text = "\n".join(" ".join(line) for line in lines) + "\n"
    if kind == "numeral":
        digits = [k for k, ch in enumerate(text) if ch.isdigit()]
        if digits:
            k = rng.choice(digits)
            return (text[:k] + HUGE_NUMERAL + text[k + 1:]).encode()
        return (text + f"trans {lines[0][-1]} x:{HUGE_NUMERAL}\n").encode()
    data = text.encode()
    k = rng.randrange(len(data) + 1)
    return data[:k] + rng.choice(NOT_UTF8) + data[k:]


def _formula(rng: random.Random, label: str) -> str:
    kind = rng.choice(("random", "mutated", "chain", "nested"))
    if kind == "random":
        vocabulary = FORMULA_TOKENS + (f"<{label}>",)
        return " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 12)))
    seed = rng.choice(SEEDS).format(a=label)
    if kind == "mutated":
        return " ".join(_mutate_tokens(rng, seed.replace("[", " [ ").replace("]", " ] ").split()))
    if kind == "chain":
        return " & ".join([seed] * rng.choice((2, 50, 101, 102, 900, 3000)))
    wrap = rng.choice(WRAPS).replace("{a}", label)
    for _ in range(rng.choice((10, 99, 101, 400))):
        seed = wrap.format(seed)
    return seed


def _argv(rng: random.Random, name: str, m) -> list[str]:
    states = list(m.states)
    choice = rng.randrange(4)
    if choice == 0:
        return ["validate", name]
    if choice == 1:
        return ["bisim", name, "--kind", rng.choice(("traditional", "state", "event", "all"))]
    if choice == 2:
        formula = rng.choice(SEEDS).format(a=m.labels[0])
        return ["check", name, formula, "--state", rng.choice(states)]
    return ["distinguish", name, rng.choice(states), rng.choice(states)]


def cases() -> list[tuple[str, list[str], bytes | None]]:
    """(case id, argv with the model's file name, mutated model bytes or
    None for the unmodified corpus file)."""
    rng = random.Random(SEED)
    corpus = _corpus()
    out = []
    for i in range(MODEL_CASES):
        name, lines, m = rng.choice(corpus)
        out.append((f"model{i}", _argv(rng, name, m), _mutate_model(rng, lines)))
    for i in range(FORMULA_CASES):
        name, _, m = rng.choice(corpus)
        argv = ["check", name, _formula(rng, rng.choice(m.labels))]
        if rng.random() < 0.5:
            argv += ["--state", rng.choice(m.states)]
        out.append((f"formula{i}", argv, None))
    return out


CASES = cases()


@pytest.mark.parametrize("argv,model", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_cli_input_boundary(tmp_path, argv, model):
    path = corpus_dir() / argv[1]
    if model is not None:
        path = tmp_path / argv[1]
        path.write_bytes(model)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[2:]])
    assert code in EXIT_CODES, err.getvalue()
    stderr = err.getvalue()
    assert stderr == "" or (stderr.startswith("error: ") and stderr.count("\n") == 1), stderr
    stdout = out.getvalue()
    assert stdout == "" or isinstance(json.loads(stdout), dict)
