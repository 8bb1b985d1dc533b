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
* ``verify --seeds N --universe-size n --grid k`` runs the randomized
  self-check campaign.

Reports go to stdout, as JSON (``--format json``) or as an equivalent
plain-text rendering of the same data; timing and error diagnostics go
to stderr, so JSON output is byte-identical across runs with the same
inputs.  Exit codes: 0 success or all-pass, 1 negative outcome (invalid
topology, witness not found, campaign violation), 2 input error (a
``DocumentError`` with its code, such as a bad document, target, grid or
cap, or an unreadable file), 3 resource cap exceeded, 4 a bug in ftop,
not bad input: a broken internal invariant or any other exception.
``FTOP_CAP`` in the environment overrides the default generation cap of
``validate``, ``classify`` and ``search``; ``--cap`` overrides both.
``verify`` takes neither: its spaces stay far below the default cap, and
its grids are bounded by the fixed ``oracle.DEFAULT_ENUMERATION_BUDGET``.

The grammar is one table, ``_GRAMMAR``: its commands, with their words,
handlers, help, positionals and options (flag, type, default, help).
``build_parser`` builds the argparse parser from it, and ``_match`` reads
it to take an argv in the table's exact forms without argparse: the
command words in order, each flag spelt out in full and given once with
its value in the next token, no other token starting with ``-``, and
every required argument present.  Any other argv goes to argparse
unchanged, so help, usage and every usage error are argparse's.

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
from collections import namedtuple
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
from .oracle import GridSpec, SearchTarget, find_witness, run_campaign
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
            from importlib import resources  # here: only this fallback needs it, and it loads slowly

            return (resources.files("ftop") / "data" / name).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError("bad-encoding", f"{name} is not UTF-8 text: {exc.reason}") from exc
    except (*_NOT_A_FILE, ValueError):
        # ValueError: a name no file can have, such as one holding NUL.
        raise DocumentError("missing-file", f"no such file or bundled document: {name}") from None


def _generation_cap(args: argparse.Namespace) -> int | None:
    cap, where, env = args.cap, _flag("cap"), os.environ.get("FTOP_CAP")
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


def _flag(dest: str) -> str:
    """The flag whose value argparse stores under ``dest``."""
    return "--" + dest.replace("_", "-")


def _require_positive(args: argparse.Namespace, *dests: str, code: str = "bad-grid") -> None:
    """Reject a ``--grid``, ``--universe-size`` or ``--seeds`` below 1 as an input error."""
    for dest in dests:
        if (value := getattr(args, dest)) < 1:
            raise DocumentError(code, f"must be at least 1, got {value}", _flag(dest))


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
        raise DocumentError("bad-target", str(exc), _flag("target")) from exc
    _require_positive(args, "grid")
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
    _require_positive(args, "seeds", code="bad-seeds")
    _require_positive(args, "universe_size", "grid")
    result = run_campaign(args.seeds, args.universe_size, args.grid)
    report = {"command": "verify", **result.as_dict()}
    return report, EXIT_OK if result.ok else EXIT_NEGATIVE


# The CLI grammar, stated once: one row per parser, the root first, then each
# command or group of commands in help order.  A row whose handler is None
# holds subcommands, whose first and second words go to ``_DESTS``.  An
# option's kind is ``int``, ``str``, or a tuple of choices, and its
# default is ``_REQUIRED`` for a required option.  A command's ``--format``
# defaults to SUPPRESS, so it keeps a value given before the command words.
_Option = namedtuple("_Option", "flag kind default help")
_Command = namedtuple("_Command", "words handler help positionals options", defaults=((), ()))
_REQUIRED = object()
_DESTS = ("subcommand", "what")
_FORMAT = _Option("--format", ("text", "json"), argparse.SUPPRESS, "report format")
_CAP = _Option("--cap", int, None, "generation cap for subbasis documents")
_SPACE = _Option("--space", str, _REQUIRED, "space document (path or bundled name)")
_GRID = _Option("--grid", int, _REQUIRED, "grid denominator k")
_GRAMMAR = (
    _Command((), None, "Exact computations in finite and piecewise-linear fuzzy topologies.", (),
             (_FORMAT._replace(default="text"),)),
    _Command(("validate",), _cmd_validate, "check a space document", (("space", _SPACE.help),),
             (_FORMAT, _CAP)),
    _Command(("classify",), None, "classify a set or a function"),
    _Command(("classify", "set"), _cmd_classify_set, "four openness verdicts for one set",
             (("name", "set name from the document (or 0/1)"),), (_FORMAT, _CAP, _SPACE)),
    _Command(("classify", "fn"), _cmd_classify_fn, "eight verdicts for a crisp map", (),
             (_FORMAT, _CAP,
              _Option("--fn", str, _REQUIRED, "function document (path or bundled name)"))),
    _Command(("search",), _cmd_search, "hunt for a class-separating set", (),
             (_FORMAT, _CAP,
              _Option("--target", str, _REQUIRED, "class combination, e.g. semiopen-not-open"),
              _SPACE._replace(help="finite space document"), _GRID)),
    _Command(("verify",), _cmd_verify, "run the randomized self-check campaign", (),
             (_FORMAT, _Option("--seeds", int, 100, "number of seeded cases"),
              _Option("--universe-size", int, 3, "points per universe"), _GRID._replace(default=3))),
)
_ROWS = {command.words: command for command in _GRAMMAR}
_FLAGS = {command.words: {o.flag: o for o in command.options} for command in _GRAMMAR}


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="ftop", description=_ROWS[()].help)
    groups: dict[tuple[str, ...], Any] = {}
    for words, handler, text, positionals, options in _GRAMMAR:
        parser = groups[words[:-1]].add_parser(words[-1], help=text) if words else root
        # Positionals first: argparse names missing arguments in the order
        # they were added, ``name`` before ``--space``.
        for name, about in positionals:
            parser.add_argument(name, help=about)
        for flag, kind, default, about in options:
            required, kinds = default is _REQUIRED, "choices" if isinstance(kind, tuple) else "type"
            parser.add_argument(flag, required=required, default=None if required else default,
                                help=about, **{kinds: kind})
        if handler is None:
            groups[words] = parser.add_subparsers(dest=_DESTS[len(words)], required=True)
        else:
            parser.set_defaults(handler=handler)
    return root


def _match(argv: Sequence[str] | None = None) -> argparse.Namespace | None:
    """The namespace ``_PARSER.parse_args(argv)`` returns, for an ``argv``
    (``sys.argv[1:]`` when None, as for argparse) made only of the grammar's
    exact forms; None for any other ``argv``, which argparse then parses: help, an abbreviated flag, ``--opt=value``, ``--``,
    a value or positional starting with ``-``, a repeated option, an unknown
    token, a missing argument, or a value argparse would reject."""
    tokens = iter(sys.argv[1:] if argv is None else argv)
    words, given, positionals = (), {}, []
    for token in tokens:
        if token[:1] == "-":
            value = next(tokens, "-")
            if token not in _FLAGS[words] or token in given or value[:1] == "-":
                return None
            given[token] = value
        elif _ROWS[words].handler is None:
            words += (token,)
            if words not in _ROWS:
                return None
        else:
            positionals.append(token)
    command = _ROWS[words]
    if command.handler is None or len(positionals) != len(command.positionals):
        return None
    found: dict[str, Any] = dict(zip(_DESTS, words), handler=command.handler)
    for flag, kind, default, _ in (*_ROWS[()].options, *command.options):
        value = given.get(flag, default)
        if flag in given:
            try:  # int() as argparse calls it; index() refuses a value outside the choices
                value = kind(value) if callable(kind) else kind[kind.index(value)]
            except ValueError:
                return None
        elif value is _REQUIRED:
            return None
        if value is not argparse.SUPPRESS:
            found[flag[2:].replace("-", "_")] = value
    found.update(zip([name for name, _ in command.positionals], positionals))
    return argparse.Namespace(**found)


# Built once per process: parsing leaves the parser unchanged, so every
# call of ``main`` reuses it.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _match(argv) or _PARSER.parse_args(argv)
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
