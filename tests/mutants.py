"""The committed mutant registry and its runner, standard library only.

A mutant is one textual change to the program that a test must notice.
Each entry gives a name, a file, the exact old text, which must occur
there exactly once, the new text, a pytest selection, and what the
selection must do with the change applied: ``killed`` (pytest exits 1)
or ``survives`` (pytest exits 0).  A collection error (exit 2) or an
empty selection (exit 5) is not a kill.  A ``survives`` entry keeps a
claim checked that no test can refute: an equivalent mutant, or a gap
in ``ftop verify`` that an open ROADMAP item is to close.

Run it from anywhere; it takes no options::

    python tests/mutants.py

Each entry is applied to a fresh copy of the trees the suite reads,
``src/``, ``tests/``, ``tools/``, ``perfbench/``, ``.github/`` and
``pyproject.toml`` (``tests/test_code_lines.py`` runs ``tools/``,
``tests/test_bench_digests.py`` runs ``perfbench/`` on the copied
sources, and ``tests/test_cli.py`` reads the ``ftop`` lines of the CI
workflow), in a temporary directory, and its selection runs
there with ``python -m pytest -x -q -p no:cacheprovider
--hypothesis-seed=0``, leaving out ``tests/test_mutants.py``.  One line per entry says what happened; the exit
status is 1 if any entry did not do what it expects, or its old text
no longer occurs exactly once.  ``tests/test_mutants.py`` checks the
registry in tier-1 without applying a mutant, so a refactor that leaves
an entry stale fails there first.

A mutant that a change cites as caught in CHANGES.md goes into this
registry in the same change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# tests/test_mutants.py is left out: in a mutated copy the applied entry's
# old text is gone, so it would fail on every mutant.
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
          "--ignore=tests/test_mutants.py"]
OUTCOMES = {1: "killed", 0: "survives"}
TIMEOUT_S = 900
TREES = ("src", "tests", "tools", "perfbench", ".github")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    expect: str = "killed"


FSET, PLIN, SEMI = "src/ftop/fset.py", "src/ftop/plin.py", "src/ftop/semiclass.py"
TOPOLOGY = "src/ftop/topology.py"
FSET_INTEGERS = "tests/test_fset.py::TestIntegerRepresentationMatchesReference"
PLIN_INTEGERS = "tests/test_plin.py::TestIntegerRepresentationMatchesReference"
KERNEL = "tests/test_topology.py::TestFiniteKernelMatchesFold"
PL_SHORTCUTS = "tests/test_plin.py::TestOrderShortcutsMatchReference"
GRID_LOOP = "tests/test_plin.py::TestGridPairLoopMatchesReference"
PL_ORDER = "tests/test_plin.py::TestSweepMatchesQuadraticReference::test_order_is_decided_at_a_breakpoint_of_one_side"
PARSER = "tests/test_degrees.py::TestIntegerParserMatchesFractionPath::test_parse_degree_agrees"
MAP_REFERENCE = "tests/test_functions.py::test_classification_matches_the_predicate_reference"
SET_DEFINITIONS = "tests/test_semiclass.py::test_classify_set_matches_definitions_on_finite_spaces"
LITERAL_GRID = "tests/test_oracle.py::test_check_and_search_match_the_literal_reference"
MATCHER = "tests/test_cli.py::test_the_matcher_returns_what_argparse_returns_or_declines"
MATCHER_COVERAGE = (
    "tests/test_golden.py::test_the_matcher_takes_every_request_of_the_goldens_ci_and_the_benchmark"
)
X_ORDER_RULE = """    for x0, x1 in zip(xs, xs[1:]):
        if x1 <= x0:
            raise ValueError(
                "x-coordinates must strictly increase: "
                f"{format_ratio(x0, scale)} then {format_ratio(x1, scale)}"
            )
"""
Y_RANGE_RULE = """    for y in ys:
        if y < 0 or y > scale:
            raise ValueError(f"membership value {format_ratio(y, scale)} outside [0, 1]")
"""
TARGETS_REVERSED = (
    "src/ftop/functions.py",
    "return tuple([index(y) for _, y in self.mapping])",
    "return tuple([index(y) for _, y in self.mapping][::-1])",
)

MUTANTS = (
    # fset: the integer kernel, its order and its lattice operations.
    Mutant("fset-meets-by-max", FSET, "any(map(min, f.nums", "any(map(max, f.nums",
           ("tests/test_fset.py::test_meets_iff_the_meet_is_not_zero",)),
    Mutant("fset-no-gcd-step", FSET, "g = math.gcd(scale, *nums)", "g = 1", (FSET_INTEGERS,)),
    Mutant("fset-leq-cross-multiplied-the-wrong-way", FSET, "if a * q > b * p:",
           "if a * p > b * q:", (FSET_INTEGERS,)),
    Mutant("fset-fold-restarts-from-the-first-set", FSET, "_combine(op, result, other)",
           "_combine(op, self, other)", (FSET_INTEGERS,)),
    Mutant("fset-cross-scale-combine-reads-f-twice", FSET,
           "map(op, _rescaled(f, scale), _rescaled(g, scale))",
           "map(op, _rescaled(f, scale), _rescaled(f, scale))", (FSET_INTEGERS,)),
    Mutant("fset-complement-keeps-the-degrees", FSET, "tuple([scale - n for n in self.nums])",
           "tuple([n for n in self.nums])", (FSET_INTEGERS,)),
    Mutant("fset-interior-threshold-one-short", FSET,
           "bisect_right(values, n * scale // q)", "bisect_right(values, n * scale // q - 1)",
           (KERNEL,)),
    Mutant("fset-closure-threshold-not-dual", FSET, "bisect_right(values, (q - n) * scale // q)",
           "bisect_right(values, n * scale // q)", (KERNEL,)),
    Mutant("fset-interior-takes-the-lowest-bit", FSET, "self._members[mask.bit_length() - 1]",
           "self._members[(mask & -mask).bit_length() - 1]", (KERNEL,)),
    # plin: the order sweep, the crossings, the canonical form, the selection.
    Mutant("plin-leq-shared-point-strict", PLIN, "if fy[i] > gy[j]:", "if fy[i] >= gy[j]:",
           (PL_ORDER,)),
    Mutant("plin-leq-f-only-point-strict", PLIN, "> gy[j - 1] * (u - x) + gy[j] * (x - x0):",
           ">= gy[j - 1] * (u - x) + gy[j] * (x - x0):", (PL_ORDER,)),
    Mutant("plin-leq-g-only-point-strict", PLIN, "+ fy[i] * (u - u0) > gy[j] * (x - u0):",
           "+ fy[i] * (u - u0) >= gy[j] * (x - u0):", (PL_ORDER,)),
    Mutant("plin-leq-f-only-segment-from-fx", PLIN, "x0 = gx[j - 1]", "x0 = fx[i - 1]",
           (PL_ORDER,)),
    Mutant("plin-leq-g-only-segment-from-gx", PLIN, "u0 = fx[i - 1]", "u0 = gx[j - 1]",
           (PL_ORDER,)),
    Mutant("plin-meets-at-breakpoints-only", PLIN, "if (a0 or a) and (b0 or b):", "if a and b:",
           ("tests/test_plin.py::TestMeets",)),
    Mutant("plin-meets-and-for-or", PLIN, "if (a0 or a) and (b0 or b):",
           "if (a0 and a) and (b0 or b):", ("tests/test_plin.py::TestMeets",)),
    Mutant("plin-crossing-denominator-short", PLIN, "k = d0 * d * td", "k = d0 * td",
           (PLIN_INTEGERS,)),
    Mutant("plin-no-gcd-step", PLIN, "g = math.gcd(scale, *kept_x, *kept_y)", "g = 1",
           (PLIN_INTEGERS,)),
    Mutant("plin-fold-restarts-from-the-first-set", PLIN, "_combine(op, result, other)",
           "_combine(op, self, other)", (PLIN_INTEGERS,)),
    Mutant("plin-comparable-meet-returns-the-other-argument", PLIN,
           "return f if op is min else g", "return g if op is min else f", (PL_SHORTCUTS,)),
    Mutant("plin-disjoint-max-is-zero-too", PLIN, "if op is min and not _meets(f, g):",
           "if not _meets(f, g):", (PL_SHORTCUTS,)),
    Mutant("plin-read-point-not-on-the-scale", PLIN, "[1] * len(xs)", "[2] * len(xs)",
           (PLIN_INTEGERS,)),
    Mutant("plin-y-range-checked-before-x-order", PLIN, X_ORDER_RULE + Y_RANGE_RULE,
           Y_RANGE_RULE + X_ORDER_RULE, ("tests/test_plin.py::test_construction_rejects_bad_degrees",)),
    Mutant("plin-mass-by-the-left-endpoint", PLIN, "(x1 - x0) * (y0 + y1)", "(x1 - x0) * (y0 + y0)",
           ("tests/test_plin.py::TestMass::test_mass_is_the_exact_integral",)),
    Mutant("plin-selection-by-ascending-mass", PLIN, "reverse=True", "reverse=False",
           ("tests/test_topology.py::TestPLSelectionMatchesFold",)),
    # degrees and documents: the literal reader and the JSON printer.
    Mutant("degrees-no-ascii-test", "src/ftop/degrees.py", "text.isascii()\n        and ", "",
           (PARSER,)),
    Mutant("degrees-zero-led-denominator", "src/ftop/degrees.py",
           ' and denominator[0] != "0")', ")", (PARSER,)),
    Mutant("degrees-range-one-over", "src/ftop/degrees.py", "p > q:", "p > q + 1:", (PARSER,)),
    Mutant("documents-printer-key-separator", "src/ftop/documents.py", 'parts.append(": ")',
           'parts.append(":")',
           ("tests/test_documents.py::test_the_printer_writes_the_bytes_of_json_dumps",)),
    # cli: exit codes and the text format.
    Mutant("cli-cap-is-an-input-error", "src/ftop/cli.py",
           'print(f"error[cap]: {exc}", file=sys.stderr)\n        return EXIT_CAP',
           'print(f"error[cap]: {exc}", file=sys.stderr)\n        return EXIT_INPUT',
           ("tests/test_cli.py::test_each_limit_exits_3",)),
    Mutant("cli-text-scalars-unquoted", "src/ftop/cli.py", 'f"{pad}{label}: {_json_text(value)}"',
           'f"{pad}{label}: {value}"',
           ("tests/test_cli.py::test_text_scalars_are_printed_as_json",)),
    # cli: the exact-form matcher against argparse.
    Mutant("cli-matcher-accepts-a-flag-prefix", "src/ftop/cli.py",
           'value = next(tokens, "-")\n',
           'value = next(tokens, "-")\n'
           '            token = next((f for f in _FLAGS[words] if f.startswith(token)), token)\n',
           (MATCHER,)),
    Mutant("cli-matcher-drops-the-defaults", "src/ftop/cli.py", "given.get(flag, default)",
           "given.get(flag, default if default is _REQUIRED else argparse.SUPPRESS)", (MATCHER,)),
    Mutant("cli-matcher-keeps-an-integer-as-text", "src/ftop/cli.py",
           "kind(value) if callable(kind)", "value if callable(kind)", (MATCHER,)),
    Mutant("cli-matcher-always-declines", "src/ftop/cli.py", "return argparse.Namespace(**found)",
           "return None", (MATCHER_COVERAGE,)),
    # semiclass: the derivation of the four verdicts and the evidence.
    Mutant("semiclass-semiopen-against-the-closure", SEMI, "s._leq(closure_of_interior),",
           "s._leq(index.closure(s)),", (SET_DEFINITIONS,)),
    Mutant("semiclass-somewhat-semiopen-against-the-closure", SEMI,
           "zero or s._meets(closure_of_interior),", "zero or s._meets(index.closure(s)),",
           (SET_DEFINITIONS,)),
    Mutant("semiclass-somewhat-semiopen-inferred-from-the-interior", SEMI,
           "zero or s._meets(closure_of_interior),", "zero or not interior.is_zero(),",
           ("tests/test_semiclass.py::test_somewhat_semiopen_is_derived_not_inferred",)),
    Mutant("semiclass-meet-built-to-decide-somewhat-semiopen", SEMI,
           "zero or s._meets(closure_of_interior),",
           "zero or not s._meet(closure_of_interior).is_zero(),",
           ("tests/test_checks.py::test_verdicts_build_no_set_and_the_evidence_two",)),
    Mutant("semiclass-semi-closure-joins-the-closure", SEMI,
           "semi_closure=s.join(index.interior(closure)),", "semi_closure=s.join(closure),",
           (SET_DEFINITIONS,)),
    Mutant("semiclass-public-semi-interior-is-the-set", SEMI,
           "return s.meet(space.closure(space.interior(s)))", "return s.meet(space.closure(s))",
           ("tests/test_acceptance.py::test_criterion_5_closed_form_matches_brute_force",)),
    Mutant("semiclass-public-semi-closure-joins-the-closure", SEMI,
           "return s.join(space.interior(space.closure(s)))", "return s.join(space.closure(s))",
           ("tests/test_semiclass.py::test_semi_closure_reference_value",)),
    # Equivalent: a semiopen s is zero or has Int(s) != 0, since Cl(0) = 0.
    Mutant("semiclass-semiopen-requires-a-nonzero-interior", SEMI,
           "s._leq(closure_of_interior),",
           "(zero or not interior.is_zero()) and s._leq(closure_of_interior),",
           ("tests",), "survives"),
    # topology: the pair loop and the constants of generate.
    Mutant("topology-axioms-skip-one-sided", TOPOLOGY,
           "if all(map(le, left, right)) or all(map(le, right, left)):",
           "if all(map(le, left, right)):",
           ("tests/test_checks.py::test_check_axioms_looks_up_incomparable_pairs_only",)),
    Mutant("topology-crossing-one-sided", TOPOLOGY, "g0 > 0 > g1 or g0 < 0 < g1", "g0 > 0 > g1",
           (GRID_LOOP,)),
    Mutant("topology-lookup-without-the-crossing-test", TOPOLOGY,
           "crossing = any(", "crossing = False and any(", (GRID_LOOP,)),
    Mutant("topology-constants-left-out-of-the-lookup", TOPOLOGY,
           "{_key(*vector) for vector in vectors}", "{_key(*vector) for _, vector in inner}",
           (GRID_LOOP,)),
    Mutant("plin-grid-each-member-at-its-own-breakpoints", PLIN,
           "missing = sorted(union.difference(xs))", "missing = []", (GRID_LOOP,)),
    Mutant("plin-grid-interpolated-from-the-right-end", PLIN,
           "n = y0 * d + (y1 - y0) * (points[k] - x0)", "n = y0 * d + (y1 - y0) * (x1 - points[k])",
           (GRID_LOOP,)),
    Mutant("topology-generate-without-the-top", "src/ftop/topology.py",
           "dict.fromkeys((bottom, top))", "dict.fromkeys((bottom,))",
           ("tests/test_topology.py::TestPairwiseStepMatchesReference::test_generate",)),
    # functions: the lifts.
    Mutant("functions-targets-reversed", *TARGETS_REVERSED, (MAP_REFERENCE,)),
    Mutant("functions-verdicts-in-reverse-chain-order", "src/ftop/functions.py",
           "zip(names, held)", "zip(names, held[::-1])", (MAP_REFERENCE,)),
    Mutant("functions-witness-is-the-first-member", "src/ftop/functions.py",
           "witnesses[name] = member", "witnesses[name] = members[0]", (MAP_REFERENCE,)),
    Mutant("functions-image-keeps-the-last-value", "src/ftop/functions.py",
           "if n > best[y]:\n                best[y] = n", "best[y] = n", (MAP_REFERENCE,)),
    # A known gap: verify classifies maps only against the implication chain
    # (ROADMAP item 1), so its pinned reports do not change.
    Mutant("verify-misses-reversed-targets", *TARGETS_REVERSED,
           ("tests/test_verify_digests.py",), "survives"),
    # oracle and gridbits: enumeration, the member digits, the space check.
    Mutant("oracle-enumeration-below-one-short", "src/ftop/oracle.py",
           "range(n * k // below.scale + 1)", "range(n * k // below.scale)",
           ("tests/test_oracle.py::test_enumeration_below_a_set_keeps_the_grid_sets_below_it_in_order",)),
    Mutant("oracle-budget-refuses-a-grid-of-exactly-the-budget", "src/ftop/oracle.py",
           "if self.size > DEFAULT_ENUMERATION_BUDGET:",
           "if self.size >= DEFAULT_ENUMERATION_BUDGET:",
           ("tests/test_oracle.py::test_grid_spec_budget_guard",)),
    Mutant("oracle-large-universe-counted-before-refused", "src/ftop/oracle.py",
           "if self.universe_size > DEFAULT_ENUMERATION_BUDGET.bit_length():", "if False:",
           ("tests/test_cli.py::test_a_universe_beyond_the_budget_exits_3",)),
    Mutant("oracle-large-grid-counted-before-refused", "src/ftop/oracle.py",
           "if self.k >= DEFAULT_ENUMERATION_BUDGET:", "if False:",
           ("tests/test_cli.py::test_a_grid_beyond_the_budget_exits_3",)),
    Mutant("oracle-member-half-of-law-1-dropped", "src/ftop/oracle.py",
           "if not m._leq(closures_of_interiors[j]) or grid.lows", "if grid.lows",
           ("tests/test_oracle.py::test_check_space_matches_the_literal_reference_on_corrupted_tables",)),
    Mutant("gridbits-member-digits-by-floor", "src/ftop/gridbits.py", "-(-v * k // m.scale)",
           "v * k // m.scale", (LITERAL_GRID,)),
    Mutant("gridbits-cover-keeps-higher-members", "src/ftop/gridbits.py",
           "_admitted(entry[1], prefix) & ~covered", "_admitted(entry[1], prefix)",
           ("tests/test_oracle.py::test_walk_matches_the_operators_and_classify_set_on_every_grid_set",)),
    Mutant("gridbits-disjoint-bound-one-short", "src/ftop/gridbits.py", "[0 if v else k for",
           "[0 if v else k - 1 for", (LITERAL_GRID,)),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Write ``mutant`` into the tree at ``root``; its old text must occur once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> str:
    """Run the selection of ``mutant`` on a mutated copy of the tree.

    Returns ``"killed"`` or ``"survives"`` for pytest exit codes 1 and 0,
    and else a description of what went wrong.
    """
    with tempfile.TemporaryDirectory(prefix="ftop-mutant-") as tmp:
        copy = Path(tmp).resolve()
        skipped = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for tree in TREES:
            shutil.copytree(ROOT / tree, copy / tree, ignore=skipped)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        try:
            apply(mutant, copy)
        except ValueError as exc:
            return f"stale: {exc}"
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import ftop; print(ftop.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        if not where.stdout.startswith(str(copy)):
            return f"ftop not imported from the mutated copy: {where.stdout or where.stderr}"
        try:
            done = subprocess.run(
                [sys.executable, *PYTEST, *mutant.tests],
                cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
    return OUTCOMES.get(done.returncode, f"pytest exit code {done.returncode}")


def main() -> int:
    wrong = 0
    for mutant in MUTANTS:
        started = time.perf_counter()
        outcome = run(mutant)
        good = outcome == mutant.expect
        wrong += not good
        took = time.perf_counter() - started
        print(f"{'ok' if good else 'FAIL'} {mutant.name}: {outcome}, expected "
              f"{mutant.expect} ({took:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} mutants as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
