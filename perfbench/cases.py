"""Running one case of each workload, and checking its output.

``run_*`` is the timed part of a case; ``check_*`` runs afterwards,
outside the timed region, and returns ``(problem, record)``: ``problem``
is None when the output is correct, and ``record`` is the canonical text
of the output that goes into the run's digest.

Calls into ``ftop`` go through module attributes at call time (for
example ``ftop.check_space``), so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import ftop
import ftop.cli

import reference

_TIMING_LINE = re.compile(r"^\S+: finished in \d+\.\d+s$")
_CHAIN = ("open", "semiopen", "somewhat_open", "somewhat_semiopen")
# The function classes, each chain in the order of the set chain above.
_CONTINUITY = ("fuzzy_continuous", "fuzzy_semicontinuous",
               "somewhat_fuzzy_continuous", "somewhat_fuzzy_semicontinuous")
_OPENNESS = ("fuzzy_open", "fuzzy_semiopen_fn",
             "somewhat_fuzzy_open_fn", "somewhat_fuzzy_semiopen_fn")


# --- sweep -----------------------------------------------------------------


def _finite_set(universe, numerators, k):
    return ftop.FiniteFuzzySet(universe, tuple(Fraction(v, k) for v in numerators))


def run_sweep(case: dict):
    """The per-seed body of the verification campaign."""
    n, k = case["n"], case["k"]
    spec = ftop.GridSpec(n, k)
    space = ftop.random_topology(spec, case["topology_seed"], case["subbasis"])
    report = ftop.check_space(space, spec)
    universe = space.universe
    query = _finite_set(universe, case["query"], k)
    closed_form = ftop.semi_interior(space, query)
    brute = ftop.brute_semi_interior(space, query, spec)
    codomain = ftop.generate(
        [_finite_set(universe, values, k) for values in case["codomain"]], universe=universe
    )
    labels = universe.labels
    mapping = {x: labels[y] for x, y in zip(labels, case["map"])}
    fn = ftop.FuzzyFunction.from_mapping(space, codomain, mapping)
    return report, closed_form, brute, ftop.classify_function(fn).verdicts()


def check_sweep(case: dict, result) -> tuple[str | None, str]:
    report, closed_form, brute, verdicts = result
    n, k = case["n"], case["k"]
    closed_text = ",".join(str(d) for d in closed_form.degrees)
    record = (
        f"{n} {k} {case['subbasis']} {case['topology_seed']} ok={report.ok} "
        f"sets={report.sets_checked} si={closed_text} brute={brute == closed_form} "
        + "".join("1" if verdicts[name] else "0" for name in sorted(verdicts))
    )
    if not report.ok:
        return f"check_space reports {report.violation}", record
    if report.sets_checked != (k + 1) ** n:
        return f"check_space swept {report.sets_checked} sets, not {(k + 1) ** n}", record
    if brute != closed_form:
        return f"closed form {closed_form!r} != brute force {brute!r}", record
    return None, record


# --- cli and pl ------------------------------------------------------------


def run_cli(case: dict) -> tuple[int, str, str]:
    """One in-process ``ftop --format json ...`` call, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ftop.cli.main(["--format", "json", *case["argv"]])
    return code, out.getvalue(), err.getvalue()


def _chain_problem(verdicts: dict, names=_CHAIN) -> str | None:
    strongest, strong, weak, weak_twin = (verdicts[name] for name in names)
    if (strongest and not strong) or (strong and not weak) or weak != weak_twin:
        return f"verdicts break the implication chain: {verdicts}"
    return None


def _fn_reference(expect: dict) -> dict[str, bool]:
    """The eight function verdicts, from the reference spaces."""
    den = reference.common_denominator(expect["domain"]["k"], expect["codomain"]["k"])
    domain = reference.space_from(expect["domain"], den)
    codomain = reference.space_from(expect["codomain"], den)
    mapping = expect["map"]
    preimages = [tuple(beta[y] for y in mapping) for beta in codomain.members]
    images = []
    for alpha in domain.members:
        image = [0] * expect["codomain"]["n"]
        for x, y in enumerate(mapping):
            image[y] = max(image[y], alpha[x])
        images.append(tuple(image))
    back = [domain.verdicts(s) for s in preimages]
    forward = [codomain.verdicts(s) for s in images]
    verdicts = {}
    for names, results in ((_CONTINUITY, back), (_OPENNESS, forward)):
        for name, set_class in zip(names, _CHAIN):
            verdicts[name] = all(r[set_class] for r in results)
    return verdicts


def _pl_problem(case: dict, report: dict) -> str | None:
    """Verdicts, interior and closure against the reference listing.

    Compared on the joint breakpoint grid, which is exact for these.  The
    semi-interior and semi-closure are left out, since their breakpoints
    include crossings; the chain ties somewhat-semiopen to somewhat-open.
    """
    problem = _chain_problem(report["verdicts"])
    if problem:
        return problem
    doc = json.loads(case["files"]["space.json"])
    names = [name for name in doc["topology"] if name not in ("0", "1")]
    bodies = [doc["sets"][name] for name in (*names, "q")]
    bodies += [report["evidence"][name] for name in ("interior", "closure")]
    *members, query, interior, closure = reference.pl_vectors([reference.pl_from(b) for b in bodies])
    space = reference.Space(len(query), 1, members, complete=True)
    expected = space.verdicts(query)
    verdicts = {name: report["verdicts"][name] for name in _CHAIN[:3]}
    if verdicts != {name: expected[name] for name in _CHAIN[:3]}:
        return f"verdicts {report['verdicts']} != reference {expected}"
    if interior != space.interior(query) or closure != space.closure(query):
        return f"interior or closure {report['evidence']} differs from the reference"
    return None


def _report_problem(case: dict, report: dict) -> str | None:
    kind, expect = case["kind"], case["expect"]
    if kind.startswith("pl-"):
        return _pl_problem(case, report)
    if kind == "classify-fn":
        verdicts = report["verdicts"]
        for names in (_CONTINUITY, _OPENNESS):
            problem = _chain_problem(verdicts, names)
            if problem:
                return problem
        expected = _fn_reference(expect)
        return None if verdicts == expected else f"verdicts {verdicts} != reference {expected}"
    space_spec = expect["space"]
    labels = [chr(ord("a") + i) for i in range(space_spec["n"])]
    if kind == "validate":
        members = len(reference.space_from(space_spec).members)
        if report.get("valid") is not True or report.get("members") != members:
            return f"validate reports {report}, reference has {members} members"
        return None
    if kind == "classify-set":
        problem = _chain_problem(report["verdicts"])
        if problem:
            return problem
        space = reference.space_from(space_spec)
        query = tuple(expect["query"])
        expected = {
            name: reference.as_text(vec, labels, space.den)
            for name, vec in space.evidence(query).items()
        }
        if report["verdicts"] != space.verdicts(query) or report["evidence"] != expected:
            return f"classification {report} != reference {space.verdicts(query)} {expected}"
        return None
    # search: the witness is the first grid set on target, if there is one
    have, avoid = (name.replace("-", "_") for name in expect["target"].split("-not-"))
    grid = int(case["argv"][-1])
    den = reference.common_denominator(space_spec["k"], grid)
    space = reference.space_from(space_spec, den)
    first = space.first_witness(have, avoid, grid)
    if not report["found"]:
        return None if first is None else f"no witness found, reference has {first}/{den}"
    witness = reference.as_vec(report["witness"], labels, den)
    verdicts = report["witness_verdicts"]
    problem = _chain_problem(verdicts)
    if problem:
        return problem
    if witness != first or verdicts != space.verdicts(witness):
        return f"witness {report['witness']} {verdicts} != reference {first}/{den} for {expect['target']}"
    return None


def check_cli(case: dict, result) -> tuple[str | None, str]:
    """Exit code, JSON stdout, the verdict chain, and the reference."""
    code, out, err = result
    err_lines = [line for line in err.splitlines() if not _TIMING_LINE.match(line)]
    record = json.dumps([case["kind"], code, out, err_lines])
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON ({exc}); exit {code}, stderr {err!r}", record
    expected_code = case["expect"]["code"]
    if expected_code is None:
        expected_code = 0 if report.get("found") else 1
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}; stderr {err!r}", record
    if err_lines:
        return f"unexpected stderr {err_lines}", record
    try:
        problem = _report_problem(case, report)
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"malformed report ({exc!r}): {report}"
    return problem, record


RUNNERS = {"sweep": (run_sweep, check_sweep), "cli": (run_cli, check_cli), "pl": (run_cli, check_cli)}
