"""Command-line front end.

Subcommands:

* ``validate <space>`` checks a space document against the topology
  axioms (or closes a subbasis).
* ``classify set <name> --space <file>`` reports the four openness
  verdicts for one named set, with the operator values as evidence.
* ``classify fn --fn <file>`` reports the eight verdicts for a crisp map
  between two finite spaces, with a witness for every failure.
* ``search --target <have>-not-<avoid> --space <file> --grid k`` hunts
  for a grid set separating two classes.
* ``verify --seeds N --universe-size n --grid k [--cap M]`` runs the
  randomized self-check campaign.

Reports go to stdout, as JSON (``--format json``) or as an equivalent
plain-text rendering of the same data; timing and error diagnostics go
to stderr, so JSON output is byte-identical across runs with the same
inputs.  Exit codes: 0 success or all-pass, 1 negative outcome (invalid
topology, witness not found, campaign violation), 2 input error (a
``DocumentError`` with its code, such as a bad document, target, grid or
cap, or an unreadable file), 3 resource cap exceeded, 4 a bug in ftop,
not bad input: a broken internal invariant or any other exception.
``FTOP_CAP`` in the environment overrides the default generation cap;
``--cap`` overrides both.

A ``--space``/``--fn`` argument is opened once as a filesystem path.  If
there is no file by that name (nothing there, a directory, or a path
through a non-directory) and the name holds no ``/`` or ``\\``, it is
read as the name of a bundled document instead, so ``ftop validate
example1.json`` works from any directory and a local ``example1.json``
shadows the bundled one.  A name with a separator never reaches the
bundled documents.  JSON reports are printed by ``documents._json_text``,
whose bytes are those of ``json.dumps(report, indent=2)``; a text report
prints each of its scalars through the same printer, so a string label
``"true"`` never reads as the boolean ``true``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from importlib import resources
from typing import Any, Sequence

from .documents import (
    _json_text,
    build_function,
    build_topology,
    parse_function,
    parse_space,
    set_as_data,
)
from .errors import DocumentError, HierarchyInvariantError, ResourceCapError
from .functions import classify_function
from .oracle import _GRID_LABELS, GridSpec, SearchTarget, find_witness, run_campaign
from .semiclass import classify_set, set_verdicts
from .topology import InvalidTopologyError

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_BUG = 4


_NOT_A_FILE = (FileNotFoundError, IsADirectoryError, NotADirectoryError)


def _read_document(name: str) -> str:
    """The document ``name`` as text, from the file or else the bundled
    document of that name; bytes that are not UTF-8 are an input error."""
    try:
        try:
            with open(name, encoding="utf-8") as handle:
                return handle.read()
        except _NOT_A_FILE:
            if "/" in name or "\\" in name:
                raise
            return (resources.files("ftop") / "data" / name).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError("bad-encoding", f"{name} is not UTF-8 text: {exc.reason}") from exc
    except (*_NOT_A_FILE, ValueError):
        # ValueError: a name no file can have, such as one holding NUL.
        raise DocumentError("missing-file", f"no such file or bundled document: {name}") from None


def _generation_cap(args: argparse.Namespace) -> int | None:
    cap, where, env = args.cap, "--cap", os.environ.get("FTOP_CAP")
    if cap is None:
        if env is None:
            return None
        where = "FTOP_CAP"
        try:
            cap = int(env)
        except ValueError:
            raise DocumentError("bad-cap", f"must be an integer, got {env!r}", where)
    if cap < 1:
        raise DocumentError("bad-cap", f"must be positive, got {cap}", where)
    return cap


def _require_positive(
    flag: str, value: int, code: str = "bad-grid", most: int | None = None
) -> None:
    """Reject a ``--grid``, ``--universe-size`` or ``--seeds`` below 1, or above
    ``most``, as an input error."""
    if value < 1:
        raise DocumentError(code, f"must be at least 1, got {value}", flag)
    if most is not None and value > most:
        raise DocumentError(code, f"must be at most {most}, got {value}", flag)


def _render_text(value: Any, lines: list[str], indent: int = 0, label: str | None = None) -> None:
    """Append the text lines of ``value``: one ``label: value`` line per scalar,
    list of scalars or empty container, every value printed as its JSON text."""
    pad = "  " * indent
    if isinstance(value, dict) and value:
        if label is not None:
            lines.append(f"{pad}{label}:")
            indent += 1
        for key, item in value.items():
            _render_text(item, lines, indent, key)
    elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        lines.append(f"{pad}{label}:")
        for i, item in enumerate(value):
            _render_text(item, lines, indent + 1, f"[{i}]")
    elif isinstance(value, list):
        lines.append(f"{pad}{label}: [{', '.join(map(_json_text, value))}]")
    else:
        lines.append(f"{pad}{label}: {_json_text(value)}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_json_text(report) + "\n")
    else:
        lines: list[str] = []
        _render_text(report, lines)
        sys.stdout.write("\n".join(lines) + "\n")


def _cmd_validate(args: argparse.Namespace) -> tuple[dict, int]:
    doc = parse_space(_read_document(args.space))
    report: dict[str, Any] = {
        "command": "validate",
        "space": args.space,
        "kind": doc.kind,
        "topology_is": doc.topology_is,
    }
    try:
        space = build_topology(doc, cap=_generation_cap(args))
    except InvalidTopologyError as exc:
        report["valid"] = False
        report["violations"] = [
            {
                "axiom": violation.axiom,
                "detail": violation.detail,
                "witnesses": [set_as_data(w) for w in violation.witnesses],
            }
            for violation in exc.violations
        ]
        return report, EXIT_NEGATIVE
    report["valid"] = True
    report["members"] = len(space)
    return report, EXIT_OK


def _cmd_classify_set(args: argparse.Namespace) -> tuple[dict, int]:
    doc = parse_space(_read_document(args.space))
    value = doc.resolve(args.name)
    space = build_topology(doc, cap=_generation_cap(args))
    classification = classify_set(space, value)
    report = {
        "command": "classify set",
        "space": args.space,
        "set": args.name,
        "verdicts": classification.verdicts(),
        "evidence": {
            "interior": set_as_data(classification.interior),
            "closure": set_as_data(classification.closure),
            "semi_interior": set_as_data(classification.semi_interior),
            "semi_closure": set_as_data(classification.semi_closure),
        },
    }
    return report, EXIT_OK


def _cmd_classify_fn(args: argparse.Namespace) -> tuple[dict, int]:
    doc = parse_function(_read_document(args.fn))
    fn = build_function(doc, cap=_generation_cap(args))
    classification = classify_function(fn)
    report = {
        "command": "classify fn",
        "fn": args.fn,
        "map": dict(fn.mapping),
        "verdicts": classification.verdicts(),
        "witnesses": {
            name: set_as_data(witness)
            for name, witness in classification.witnesses.items()
        },
    }
    return report, EXIT_OK


def _cmd_search(args: argparse.Namespace) -> tuple[dict, int]:
    doc = parse_space(_read_document(args.space))
    if doc.kind != "finite":
        raise DocumentError("schema", "search needs a finite-kind space", "$.kind")
    try:
        target = SearchTarget.parse(args.target)
    except ValueError as exc:
        raise DocumentError("bad-target", str(exc), "--target") from exc
    _require_positive("--grid", args.grid)
    spec = GridSpec(len(doc.universe), args.grid)
    space = build_topology(doc, cap=_generation_cap(args))
    witness = find_witness(space, target, spec)
    report: dict[str, Any] = {
        "command": "search",
        "space": args.space,
        "target": str(target),
        "grid": args.grid,
        "found": witness is not None,
    }
    if witness is None:
        # Absence on this grid proves nothing about finer grids.
        report["witness"] = None
        return report, EXIT_NEGATIVE
    report["witness"] = set_as_data(witness)
    report["witness_verdicts"] = set_verdicts(space, witness)
    return report, EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    _require_positive("--seeds", args.seeds, "bad-seeds")
    _require_positive("--universe-size", args.universe_size, most=len(_GRID_LABELS))
    _require_positive("--grid", args.grid)
    cap = _generation_cap(args)
    kwargs = {} if cap is None else {"budget": cap}
    result = run_campaign(args.seeds, args.universe_size, args.grid, **kwargs)
    report = {"command": "verify", **result.as_dict()}
    return report, EXIT_OK if result.ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftop",
        description="Exact computations in finite and piecewise-linear fuzzy topologies.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # Options every subcommand takes.  ``--format`` is also accepted after
    # the subcommand; SUPPRESS keeps the subcommand from overwriting a value
    # given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cap", type=int, help="generation cap for subbasis documents (verify: enumeration budget)"
    )
    common.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS, help="report format"
    )

    p_validate = sub.add_parser("validate", parents=[common], help="check a space document")
    p_validate.add_argument("space", help="space document (path or bundled name)")
    p_validate.set_defaults(handler=_cmd_validate)

    p_classify = sub.add_parser("classify", help="classify a set or a function")
    classify_sub = p_classify.add_subparsers(dest="what", required=True)

    p_set = classify_sub.add_parser(
        "set", parents=[common], help="four openness verdicts for one set"
    )
    p_set.add_argument("name", help="set name from the document (or 0/1)")
    p_set.add_argument("--space", required=True, help="space document (path or bundled name)")
    p_set.set_defaults(handler=_cmd_classify_set)

    p_fn = classify_sub.add_parser("fn", parents=[common], help="eight verdicts for a crisp map")
    p_fn.add_argument("--fn", required=True, help="function document (path or bundled name)")
    p_fn.set_defaults(handler=_cmd_classify_fn)

    p_search = sub.add_parser("search", parents=[common], help="hunt for a class-separating set")
    p_search.add_argument(
        "--target", required=True, help="class combination, e.g. semiopen-not-open"
    )
    p_search.add_argument("--space", required=True, help="finite space document")
    p_search.add_argument("--grid", type=int, required=True, help="grid denominator k")
    p_search.set_defaults(handler=_cmd_search)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the randomized self-check campaign"
    )
    p_verify.add_argument("--seeds", type=int, default=100, help="number of seeded cases")
    p_verify.add_argument("--universe-size", type=int, default=3, help="points per universe")
    p_verify.add_argument("--grid", type=int, default=3, help="grid denominator k")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


# Built once per process: parsing leaves the parser unchanged, so every
# call of ``main`` reuses it.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.handler(args)
    except DocumentError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"error[cap]: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvalidTopologyError as exc:
        print(f"error[invalid-topology]: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HierarchyInvariantError as exc:
        print(f"error[bug]: internal invariant broken, not an input error: {exc}", file=sys.stderr)
        return EXIT_BUG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # Input errors are DocumentErrors by now, so anything else is a bug.
        import traceback  # only a bug report needs it; it slows every start

        traceback.print_exc(file=sys.stderr)
        print(
            f"error[bug]: unexpected {type(exc).__name__}, not an input error: {exc}",
            file=sys.stderr,
        )
        return EXIT_BUG
    elapsed = time.perf_counter() - started
    _emit(report, getattr(args, "format", "text"))
    print(f"{args.subcommand}: finished in {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
