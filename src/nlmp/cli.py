"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 invalid model,
3 internal invariant violation, 4 formula unsatisfied, 5 states
equivalent, 6 unsupported configuration.
"""

from __future__ import annotations

import argparse
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .bisim import BisimReport, compare_bisims
from .errors import (
    DomainError,
    InternalCheckError,
    ModelSyntaxError,
    PreconditionError,
    UnsupportedModelError,
)
from .logic import _separate, eval_state, formula_labels, formula_to_text
from .model import Finding, Nlmp, _validation_of
from .parser import _measure_text, parse_model, parse_state_formula, serialize_model

# hashlib loads OpenSSL (several MiB of resident memory) just for the
# report digest; the builtin SHA-256 gives the same bytes.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_MODEL = 2
EXIT_INTERNAL = 3
EXIT_UNSATISFIED = 4
EXIT_EQUIVALENT = 5
EXIT_UNSUPPORTED = 6


def corpus_dir() -> Path:
    """Directory of the bundled example models."""
    return Path(__file__).parent / "corpus"


def _sorted_sets(m: Nlmp, sets) -> list[list[str]]:
    # Partitions and atoms come ordered by least state; only the blocks
    # need sorting.
    return [m.universe.sort(block) for block in sets]


def _finding_json(f: Finding) -> dict:
    # Every finding is an error; the report keeps the field.
    out: dict = {"severity": "error", "message": f.message}
    if f.label is not None:
        out["label"] = f.label
    if f.xi is not None:
        out["xi"] = [_measure_text(mu) for mu in f.xi]
    if f.witness_set is not None:
        out["witness_set"] = sorted(f.witness_set)
    return out


def _bisim_json(rep: BisimReport, blocks: list[list[str]]) -> dict:
    # `blocks` is the report's partition, sorted; an event report's
    # sigma is its lam, so its atoms are the same blocks.
    out = {
        "kind": rep.kind,
        "partition": blocks,
        "iterations": len(rep.trace),
    }
    if rep.sigma is not None:
        out["sigma_atoms"] = blocks
    return out


def _load(path: str) -> Nlmp:
    try:
        # A leading byte order mark is dropped after decoding: the
        # utf-8-sig codec would also drop a truncated one and count the
        # bytes of an invalid sequence from after the mark.
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ModelSyntaxError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_model(text)


# Command bodies: each runs on a validated model and returns its result
# and exit code.


def _bisim(m: Nlmp, args) -> tuple[dict, int]:
    comparison = compare_bisims(m)
    # The three reports share one lam, so its blocks are sorted once.
    blocks = _sorted_sets(m, comparison.event.partition)
    result = {
        "traditional": _bisim_json(comparison.traditional, blocks),
        "state": _bisim_json(comparison.state, blocks),
        "event": _bisim_json(comparison.event, blocks),
        "chain_holds": comparison.chain_holds,
        "traditional_eq_state": comparison.traditional_eq_state,
        "state_eq_event": comparison.state_eq_event,
        "all_equal": comparison.all_equal,
        "sigma_is_powerset": comparison.sigma_is_powerset,
    }
    return (result if args.kind == "all" else result[args.kind]), EXIT_OK


def _check(m: Nlmp, args) -> tuple[dict, int]:
    phi = parse_state_formula(args.formula)
    unknown = formula_labels(phi) - set(m.labels)
    if unknown:
        raise DomainError(f"formula uses undeclared labels: {sorted(unknown)}")
    if args.state is not None and args.state not in m.universe:
        raise DomainError(f"unknown state {args.state!r}")
    extension = eval_state(m, phi)
    result = {
        "formula": formula_to_text(phi),
        "states": m.universe.sort(extension),
    }
    if args.state is None:
        return result, EXIT_OK
    satisfied = args.state in extension
    result["state"] = args.state
    result["satisfied"] = satisfied
    return result, EXIT_OK if satisfied else EXIT_UNSATISFIED


def _distinguish(m: Nlmp, args) -> tuple[dict, int]:
    try:
        found = _separate(m, args.s, args.t)
        if found is None:
            return {"equivalent": True}, EXIT_EQUIVALENT
        # The extension is the one the formula was verified against.
        # `check` parses the printed text back to the same formula, at
        # any depth.
        phi, extension = found
        text = formula_to_text(phi)
    except UnsupportedModelError as exc:
        return {"supported": False, "reason": str(exc)}, EXIT_UNSUPPORTED
    result = {
        "equivalent": False,
        "formula": text,
        "satisfied_by": sorted(x for x in (args.s, args.t) if x in extension),
    }
    return result, EXIT_OK


def _run(args) -> int:
    """Load and validate the model, run the command's body on a valid
    model, and print the one JSON report."""
    started = time.perf_counter()
    m = _load(args.path)
    validation = _validation_of(m)
    if args.body is None or not validation.valid:
        result = {
            "valid": validation.valid,
            "findings": [_finding_json(f) for f in validation.findings],
        }
        code = EXIT_OK if validation.valid else EXIT_INVALID_MODEL
    else:
        result, code = args.body(m, args)
    report = {
        "command": args.command,
        "args": {k: v for k, v in vars(args).items() if k not in ("command", "body") and v is not None},
        "model": {
            "digest": sha256(serialize_model(m).encode("utf-8")).hexdigest(),
            "kind": m.kind,
            "states": list(m.states),
            "labels": list(m.labels),
            "sigma_atoms": _sorted_sets(m, m.sigma.atoms),
        },
        "result": result,
        "timing_ms": round((time.perf_counter() - started) * 1000, 3),
    }
    print(_render(report))
    return code


def _render(value, newline: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, for
    the types a report holds: dicts with string keys, lists, strings,
    ints, finite floats, booleans and None.  Any other type, a tuple
    included, raises TypeError.

    With ``indent`` set, `json.dumps` runs the standard library's
    pure-Python encoder; this writes the same bytes through the C string
    quoter `json.dumps` itself uses, and joins a list of strings, such
    as a block of states, in one call.
    """
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        try:
            items = list(map(_quote, value))
        except TypeError:  # not a list of strings
            items = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_quote(k) + ": " + _render(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlmp",
        description="Exact workbench for finite nondeterministic labeled Markov processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model well-formedness and measurability")
    p.add_argument("path")
    p.set_defaults(body=None)

    p = sub.add_parser("bisim", help="compute bisimilarity partitions")
    p.add_argument("path")
    p.add_argument(
        "--kind",
        choices=["traditional", "state", "event", "all"],
        default="all",
    )
    p.set_defaults(body=_bisim)

    p = sub.add_parser("check", help="evaluate a state formula")
    p.add_argument("path")
    p.add_argument("formula")
    p.add_argument("--state", default=None)
    p.set_defaults(body=_check)

    p = sub.add_parser("distinguish", help="synthesize a formula separating two states")
    p.add_argument("path")
    p.add_argument("s")
    p.add_argument("t")
    p.set_defaults(body=_distinguish)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # The parser holds no state between calls, so each process builds it once.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _run(args)
    except (ModelSyntaxError, DomainError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InternalCheckError, PreconditionError) as exc:
        # Every command validates the model before it runs a fixpoint,
        # so a violated precondition here is a bug, like a failed check.
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
