"""End-to-end CLI behavior: reports, formats, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ftop
from ftop import cli
from ftop.cli import _PARSER, _match, main
from ftop.errors import HierarchyInvariantError

FINITE_SPACE = {
    "kind": "finite",
    "universe": ["a", "b"],
    "sets": {
        "m1": {"a": "0", "b": "1/3"},
        "m2": {"a": "1/2", "b": "0"},
        "m3": {"a": "1/2", "b": "1/3"},
    },
    "topology": ["0", "m1", "m2", "m3", "1"],
    "topology_is": "complete",
}

INDISCRETE_SPACE = {
    "kind": "finite",
    "universe": ["a", "b"],
    "sets": {},
    "topology": ["0", "1"],
    "topology_is": "complete",
}

SUBBASIS_SPACE = {
    "kind": "finite",
    "universe": ["a", "b"],
    "sets": {"t": {"a": "1", "b": "1/3"}, "w": {"a": "1/2", "b": "1"}},
    "topology": ["t", "w"],
    "topology_is": "subbasis",
}

FUNCTION_DOC = {
    "domain": FINITE_SPACE,
    "codomain": {
        "kind": "finite",
        "universe": ["u", "v"],
        "sets": {"n": {"u": "1/2", "v": "0"}},
        "topology": ["0", "n", "1"],
        "topology_is": "complete",
    },
    "map": {"a": "u", "b": "v"},
}


def write_doc(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, (json.loads(out) if out else None), err


def test_validate_bundled_example(capsys):
    code, report, err = run_json(capsys, "validate", "example1.json")
    assert code == 0
    assert report["valid"] is True
    assert report["kind"] == "pl"
    assert report["members"] == 5
    assert "finished in" in err


def test_validate_reports_missing_constant(capsys, tmp_path):
    doc = dict(INDISCRETE_SPACE, topology=["0"])
    code, report, _ = run_json(capsys, "validate", write_doc(tmp_path, "s.json", doc))
    assert code == 1
    assert report["valid"] is False
    assert [v["axiom"] for v in report["violations"]] == ["i"]


def test_validate_reports_missing_join_with_witness(capsys, tmp_path):
    doc = dict(FINITE_SPACE, topology=["0", "m1", "m2", "1"])
    code, report, _ = run_json(capsys, "validate", write_doc(tmp_path, "s.json", doc))
    assert code == 1
    violations = report["violations"]
    assert [v["axiom"] for v in violations] == ["iii"]
    assert violations[0]["witnesses"][-1] == {"a": "1/2", "b": "1/3"}


def test_classify_set_alpha(capsys):
    code, report, _ = run_json(capsys, "classify", "set", "alpha", "--space", "example1.json")
    assert code == 0
    assert report["verdicts"] == {
        "open": False,
        "semiopen": True,
        "somewhat_open": True,
        "somewhat_semiopen": True,
    }
    assert report["evidence"]["semi_interior"] == report["evidence"]["semi_closure"]
    assert report["evidence"]["interior"] == {
        "breakpoints": [["0", "0"], ["1/2", "0"], ["1", "1"]]
    }


def test_classify_set_beta(capsys):
    code, report, _ = run_json(capsys, "classify", "set", "beta", "--space", "example1.json")
    assert code == 0
    assert report["verdicts"]["semiopen"] is False
    assert report["verdicts"]["somewhat_open"] is True
    assert report["evidence"]["closure"] == {"breakpoints": [["0", "1"], ["1", "1"]]}


def test_classify_reserved_name(capsys):
    code, report, _ = run_json(capsys, "classify", "set", "0", "--space", "example1.json")
    assert code == 0
    assert all(report["verdicts"].values())


def test_classify_unknown_name(capsys):
    code, out, err = run(capsys, "classify", "set", "ghost", "--space", "example1.json")
    assert code == 2
    assert out == ""
    assert "error[unresolved-name]" in err


def test_classifying_in_an_invalid_topology_is_an_input_error(capsys):
    space = Path(__file__).parent / "golden" / "input" / "incomplete.json"
    code, out, err = run(capsys, "classify", "set", "p", "--space", str(space))
    assert (code, out) == (2, "")
    assert err.startswith("error[invalid-topology]: ")


def test_invariant_failure_is_reported_as_a_bug(capsys, monkeypatch):
    def broken(space, value):
        raise HierarchyInvariantError("simulated operator bug")

    monkeypatch.setattr("ftop.cli.classify_set", broken)
    code, out, err = run(capsys, "classify", "set", "alpha", "--space", "example1.json")
    assert code == 4
    assert out == ""
    assert "error[bug]" in err and "simulated operator bug" in err


@pytest.mark.parametrize("error", [ValueError("simulated bare ValueError"), TypeError("simulated TypeError")])
def test_unexpected_exception_is_reported_as_a_bug(capsys, monkeypatch, error):
    """Only a ``DocumentError`` or an ``OSError`` is an input error; anything
    else an operator raises is a bug, even a ``ValueError``."""

    def broken(space, value):
        raise error

    monkeypatch.setattr("ftop.cli.classify_set", broken)
    code, out, err = run(capsys, "classify", "set", "alpha", "--space", "example1.json")
    assert code == 4
    assert out == ""
    assert f"error[bug]: unexpected {type(error).__name__}" in err and str(error) in err
    assert "Traceback (most recent call last)" in err


def test_unparsable_target_is_an_input_error(capsys, tmp_path):
    path = write_doc(tmp_path, "s.json", FINITE_SPACE)
    code, out, err = run(capsys, "search", "--target", "shiny-not-open", "--space", path, "--grid", "2")
    assert (code, out) == (2, "")
    assert "error[bad-target]" in err and "unknown set class 'shiny'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--target", "semiopen-not-open", "--space", "s.json", "--grid", "0"],
        ["verify", "--seeds", "1", "--universe-size", "2", "--grid", "0"],
        ["verify", "--seeds", "1", "--universe-size", "0", "--grid", "2"],
    ],
)
def test_grid_below_one_is_an_input_error(capsys, tmp_path, monkeypatch, argv):
    write_doc(tmp_path, "s.json", FINITE_SPACE)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error[bad-grid]" in err and "must be at least 1, got 0" in err


def test_seeds_below_one_is_an_input_error(capsys):
    code, out, err = run(
        capsys, "--format", "json", "verify", "--seeds", "-2", "--universe-size", "2", "--grid", "2"
    )
    assert (code, out) == (2, "")
    assert "error[bad-seeds]" in err and "--seeds: must be at least 1, got -2" in err


@pytest.mark.parametrize("size", ["27", "20000"])
def test_a_universe_beyond_the_budget_exits_3(capsys, size):
    """From 18 points on even a grid of k = 1 holds more sets than the budget,
    so the size is refused as a cap, also where 2**n has too many digits to print."""
    code, out, err = run(capsys, "verify", "--seeds", "1", "--universe-size", size, "--grid", "1")
    assert (code, out) == (3, "")
    assert err == f"error[cap]: grid holds at least 2**{size} sets, above the budget of 250000\n"


A_GRID_TOO_LONG_TO_PRINT = "1" + "0" * 4000
GOLDEN_FINITE = str(Path(__file__).parent / "golden" / "input" / "finite.json")


@pytest.mark.parametrize("argv", [
    ["search", "--target", "semiopen-not-open", "--space", GOLDEN_FINITE],
    ["verify", "--seeds", "1", "--universe-size", "2"],
], ids=["search", "verify"])
@pytest.mark.parametrize(
    "grid", ["250000", A_GRID_TOO_LONG_TO_PRINT], ids=["budget", "4001-digits"]
)
def test_a_grid_beyond_the_budget_exits_3(capsys, argv, grid):
    """From k = 250,000 on even a one-point grid holds more sets than the
    budget, so k is refused as a cap without counting (k+1)**n, whose
    digits, for a k of 4001 digits, are too many to print."""
    code, out, err = run(capsys, *argv, "--grid", grid)
    assert (code, out) == (3, "")
    assert err == "error[cap]: grid holds at least k + 1 sets, above the budget of 250000\n"


def test_cap_below_one_is_an_input_error(capsys, tmp_path):
    path = write_doc(tmp_path, "s.json", SUBBASIS_SPACE)
    code, out, err = run(capsys, "validate", path, "--cap", "0")
    assert (code, out) == (2, "")
    assert "error[bad-cap]" in err


VERIFY = ["--format", "json", "verify", "--seeds", "2", "--universe-size", "2", "--grid", "2"]


@pytest.mark.parametrize("cap", ["5", "0"])
def test_verify_takes_no_cap(capsys, cap):
    """``--cap`` is the generation cap, which verify's spaces never reach, so
    verify has no such flag: giving it one is a usage error."""
    with pytest.raises(SystemExit) as exit_:
        main([*VERIFY, "--cap", cap])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --cap" in captured.err
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--cap" not in capsys.readouterr().out


@pytest.mark.parametrize("value", ["many", "1"])
def test_verify_ignores_the_cap_variable(capsys, monkeypatch, value):
    expected = run(capsys, *VERIFY)[:2]
    monkeypatch.setenv("FTOP_CAP", value)
    assert run(capsys, *VERIFY)[:2] == expected
    assert expected[0] == 0


def test_document_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(b'{"kind": "finite", "universe": ["\xff"]}')
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert "error[bad-encoding]" in err


def test_classify_fn(capsys, tmp_path):
    path = write_doc(tmp_path, "fn.json", FUNCTION_DOC)
    code, report, _ = run_json(capsys, "classify", "fn", "--fn", path)
    assert code == 0
    assert report["map"] == {"a": "u", "b": "v"}
    assert report["verdicts"]["fuzzy_continuous"] is True
    assert report["verdicts"]["fuzzy_open"] is False
    assert "fuzzy_open" in report["witnesses"]
    assert "fuzzy_continuous" not in report["witnesses"]


def test_a_map_in_every_class_prints_an_empty_witness_map(capsys, tmp_path):
    """The identity holds all eight verdicts, so it has no witnesses: the
    text report prints ``witnesses: {}``, not a bare header."""
    identity = {"domain": FINITE_SPACE, "codomain": FINITE_SPACE, "map": {"a": "a", "b": "b"}}
    path = write_doc(tmp_path, "fn.json", identity)
    code, report, _ = run_json(capsys, "classify", "fn", "--fn", path)
    assert code == 0
    assert len(report["verdicts"]) == 8 and all(report["verdicts"].values())
    assert report["witnesses"] == {}
    code, out, _ = run(capsys, "classify", "fn", "--fn", path)
    assert code == 0
    assert out.endswith("\nwitnesses: {}\n")


def test_text_scalars_are_printed_as_json(capsys, tmp_path):
    """A codomain label ``"true"`` or ``"null"`` prints quoted, as its JSON
    text, so it never reads as the keyword; keys stay bare."""
    keywords = {
        "kind": "finite", "universe": ["true", "null"], "sets": {},
        "topology": ["0", "1"], "topology_is": "complete",
    }
    doc = {"domain": INDISCRETE_SPACE, "codomain": keywords, "map": {"a": "true", "b": "null"}}
    path = write_doc(tmp_path, "fn.json", doc)
    code, out, _ = run(capsys, "classify", "fn", "--fn", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ['command: "classify fn"', f"fn: {json.dumps(path)}"]
    assert lines[lines.index("map:") + 1 :][:2] == ['  a: "true"', '  b: "null"']
    assert "  fuzzy_continuous: true" in lines


def test_search_found(capsys, tmp_path):
    path = write_doc(tmp_path, "s.json", FINITE_SPACE)
    code, report, _ = run_json(
        capsys, "search", "--target", "semiopen-not-open", "--space", path, "--grid", "2"
    )
    assert code == 0
    assert report["found"] is True
    assert report["witness"] == {"a": "0", "b": "1/2"}
    assert report["witness_verdicts"]["semiopen"] is True
    assert report["witness_verdicts"]["open"] is False


def test_search_not_found(capsys, tmp_path):
    path = write_doc(tmp_path, "s.json", INDISCRETE_SPACE)
    code, report, _ = run_json(
        capsys, "search", "--target", "semiopen-not-open", "--space", path, "--grid", "2"
    )
    assert code == 1
    assert report["found"] is False
    assert report["witness"] is None
    code, out, _ = run(capsys, "search", "--target", "semiopen-not-open", "--space", path, "--grid", "2")
    assert code == 1
    assert "found: false" in out.splitlines() and "witness: null" in out.splitlines()


def test_search_rejects_bad_targets(capsys, tmp_path):
    path = write_doc(tmp_path, "s.json", FINITE_SPACE)
    for target in ("semiopen", "open-not-open", "shiny-not-open"):
        code, out, err = run(capsys, "search", "--target", target, "--space", path, "--grid", "2")
        assert code == 2
        assert out == ""
        assert "error" in err


def test_search_needs_a_finite_space(capsys):
    code, _, err = run(
        capsys, "search", "--target", "semiopen-not-open", "--space", "example1.json", "--grid", "2"
    )
    assert code == 2
    assert "error[schema]" in err


def test_verify_is_deterministic(capsys):
    argv = ("verify", "--seeds", "6", "--universe-size", "2", "--grid", "2")
    code_a, out_a, _ = run(capsys, "--format", "json", *argv)
    code_b, out_b, _ = run(capsys, "--format", "json", *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    report = json.loads(out_a)
    assert report["ok"] is True
    assert report["spaces_checked"] == 6
    assert report["failures"] == []


def test_float_document_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"kind": "finite", "universe": ["a"], "sets": {"s": {"a": 0.5}}, "topology": ["0"], "topology_is": "complete"}')
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "error[float-literal]" in err


TOPOLOGY_OF = '{"kind": "finite", "universe": ["a"], "sets": {}, "topology": [%s], "topology_is": "complete"}'
TOO_LONG = "malformed-json]: $: invalid JSON: a number with {} digits; at most 640 are read"


@pytest.mark.parametrize(
    "text, error",
    [
        ("[" * 200_000 + "]" * 200_000, "malformed-json]: $: invalid JSON: arrays or objects nested too deeply"),
        (TOPOLOGY_OF % ("1" * 5000), TOO_LONG.format(5000)),
        (TOPOLOGY_OF % ("-" + "1" * 641), TOO_LONG.format(641)),
        (TOPOLOGY_OF % ("9" * 640), "schema]: $.topology[0]: set names are strings, got " + "9" * 640),
    ],
    ids=["nested-200000-deep", "5000-digits", "minus-641-digits", "640-digits"],
)
def test_json_reader_limits_are_input_errors(capsys, tmp_path, text, error):
    """Nesting too deep for the JSON parser, and an integer of more digits
    than ftop reads, are malformed JSON; an integer of 640 digits reaches
    the schema checks as before.  Either way exit 2, never a bug (exit 4)."""
    path = tmp_path / "s.json"
    path.write_text(text)
    assert run(capsys, "validate", str(path)) == (2, "", f"error[{error}\n")


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "nope.json")
    assert code == 2
    assert "error[missing-file]" in err


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_documents_read_as_lf(capsys, tmp_path, monkeypatch, newline):
    """Documents are read in text mode: any line ending gives the LF report."""
    monkeypatch.chdir(tmp_path)
    lf = (json.dumps(FINITE_SPACE, indent=2) + "\n").encode()
    reports = []
    for text in (lf, lf.replace(b"\n", newline)):
        (tmp_path / "s.json").write_bytes(text)
        reports.append(run(capsys, "--format", "json", "classify", "set", "m3", "--space", "s.json"))
    assert reports[0][:2] == reports[1][:2]
    assert reports[0][0] == 0 and json.loads(reports[0][1])["set"] == "m3"


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_malformed_documents_name_the_same_place_whatever_the_line_ending(
    capsys, tmp_path, newline
):
    path = tmp_path / "s.json"
    lines = [b"{", b'  "kind": "finite",', b'  "universe": ["a"]', b'  "sets": {}', b"}", b""]
    path.write_bytes(newline.join(lines))
    assert run(capsys, "validate", str(path)) == (
        2, "", "error[malformed-json]: line 4 column 3: invalid JSON: Expecting ',' delimiter\n"
    )


@pytest.mark.parametrize(
    "name",
    ["sub", "sub/", "./example1.json", "nowhere/example1.json", "s.json/example1.json",
     "sub\\example1.json", "example1.json\x00"],
    ids=["directory", "directory-slash", "dot-slash", "missing-dir", "through-a-file", "backslash",
         "nul-byte"],
)
def test_directories_and_paths_with_a_separator_are_missing_files(
    capsys, tmp_path, monkeypatch, name
):
    """A directory is no document, and a name holding ``/`` or ``\\`` is a
    path only: the bundled ``example1.json`` is not read for it.  A name no
    file can have is missing too, not a bug."""
    (tmp_path / "sub").mkdir()
    write_doc(tmp_path, "s.json", FINITE_SPACE)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "validate", name)
    assert (code, out) == (2, "")
    assert err == f"error[missing-file]: $: no such file or bundled document: {name}\n"


def test_a_local_document_shadows_the_bundled_one(capsys, tmp_path, monkeypatch):
    code, bundled, _ = run_json(capsys, "validate", "example1.json")
    assert (code, bundled["kind"], bundled["members"]) == (0, "pl", 5)
    write_doc(tmp_path, "example1.json", INDISCRETE_SPACE)
    monkeypatch.chdir(tmp_path)
    code, local, _ = run_json(capsys, "validate", "example1.json")
    assert (code, local["kind"], local["members"]) == (0, "finite", 2)


def test_a_local_document_that_is_not_utf8_is_an_input_error(capsys, tmp_path, monkeypatch):
    (tmp_path / "example1.json").write_bytes(b'{"kind": "finite", "universe": ["\xff"]}')
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "validate", "example1.json")
    assert (code, out) == (2, "")
    assert err.startswith("error[bad-encoding]: $: example1.json is not UTF-8 text: ")


def test_cap_flag_stops_generation(capsys, tmp_path):
    path = write_doc(tmp_path, "s.json", SUBBASIS_SPACE)
    code, out, err = run(capsys, "validate", path, "--cap", "3")
    assert code == 3
    assert out == ""
    assert "error[cap]" in err


GOLDEN_INPUT = Path(__file__).parent / "golden" / "input"


@pytest.mark.parametrize(
    "argv, env",
    [
        (["search", "--target", "semiopen-not-open", "--space", "finite.json", "--grid", "600"], {}),
        (["verify", "--seeds", "1", "--universe-size", "8", "--grid", "9"], {}),
        (["classify", "set", "q", "--space", "subbasis.json", "--cap", "2"], {}),
        (["classify", "fn", "--fn", "function.json"], {"FTOP_CAP": "2"}),
    ],
    ids=["search-budget", "verify-budget", "classify-set-cap", "classify-fn-env-cap"],
)
def test_each_limit_exits_3(capsys, monkeypatch, argv, env):
    """Every resource limit a command can hit exits 3 with ``error[cap]`` and no report."""
    monkeypatch.chdir(GOLDEN_INPUT)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "error[cap]" in err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["search", "--target", "bogus", "--space", "subbasis.json", "--grid", "2"], "bad-target"),
        (
            ["search", "--target", "semiopen-not-open", "--space", "subbasis.json", "--grid", "0"],
            "bad-grid",
        ),
        (["classify", "set", "nosuch", "--space", "subbasis.json"], "unresolved-name"),
    ],
    ids=["search-target", "search-grid", "classify-set-name"],
)
def test_flag_and_name_errors_come_before_generation(capsys, monkeypatch, argv, error):
    """A bad flag or set name is an input error even when generating the
    space would exceed the cap."""
    monkeypatch.chdir(GOLDEN_INPUT)
    code, out, err = run(capsys, *argv, "--cap", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error[{error}]")


def test_cap_env_variable(capsys, tmp_path, monkeypatch):
    path = write_doc(tmp_path, "s.json", SUBBASIS_SPACE)
    monkeypatch.setenv("FTOP_CAP", "3")
    code, _, err = run(capsys, "validate", path)
    assert code == 3 and "error[cap]" in err

    code, report, _ = run_json(capsys, "validate", path, "--cap", "100")
    assert code == 0 and report["members"] == 5

    monkeypatch.setenv("FTOP_CAP", "many")
    code, _, err = run(capsys, "validate", path)
    assert code == 2 and "error[bad-cap]" in err

    monkeypatch.setenv("FTOP_CAP", "0")
    code, _, err = run(capsys, "validate", path)
    assert code == 2 and "error[bad-cap]" in err and "FTOP_CAP: must be positive, got 0" in err


def test_format_flag_works_in_both_positions(capsys):
    code_a, out_a, _ = run(capsys, "--format", "json", "validate", "example1.json")
    code_b, out_b, _ = run(capsys, "validate", "example1.json", "--format", "json")
    assert code_a == code_b == 0
    assert out_a == out_b
    json.loads(out_a)


def test_text_format_is_the_default(capsys):
    code, out, _ = run(capsys, "validate", "example1.json")
    assert code == 0
    assert "valid: true" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_repeated_calls_match_fresh_processes(capsys, tmp_path, monkeypatch):
    """One process reuses one parser: every call prints and exits as a fresh
    ``python -m ftop.cli`` would, also after a usage error, with either
    position of ``--format``, and on both paths: the exact forms the matcher
    takes, and an abbreviated flag and ``--format=json``, which argparse takes."""
    path = write_doc(tmp_path, "s.json", SUBBASIS_SPACE)
    calls = [
        ["--format", "json", "validate", "example1.json"],
        ["classify", "set", "alpha", "--space", "example1.json", "--format", "json"],
        ["classify", "set"],
        ["validate", path],
        ["--format", "json", "verify", "--seeds", "2", "--universe-size", "2", "--grid", "2"],
        ["--format", "xml", "validate", path],
        ["classify", "set", "beta", "--space", "example1.json"],
        ["search", "--target", "open-not-open", "--space", path, "--grid", "2"],
        ["--format", "json", "validate", path, "--cap", "3"],
        ["classify", "set", "alpha", "--space", "example1.json", "--form", "json"],
        ["--format=json", "validate", path],
    ]
    monkeypatch.chdir(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(ftop.__file__).parents[1]))
    codes = set()
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "ftop.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        codes.add(code)
    assert codes == {0, 2, 3}


# The grammar's words, flags and leaf commands, and token texts to put in
# their places: integers argparse's int() takes and rejects, choices in and
# out of the tuple, and texts that do and do not start with "-".
LEAVES = [command for command in cli._GRAMMAR if command.handler]
WORDS = sorted({word for command in cli._GRAMMAR for word in command.words})
FLAGS = sorted({option.flag for command in cli._GRAMMAR for option in command.options})
TEXTS = {
    int: ["0", "2", "17", " 3", "3_0", "+4", "\u0663", "-2", "-0", "2.5", "x", "", "9" * 5000],
    str: ["example1.json", "s.json", "alpha", "semiopen-not-open", "", " -x", "set", "-x", "a=b"],
    tuple: ["json", "text", "xml", "JSON", " json", "-json"],
}
NOISE = st.one_of(
    st.sampled_from([*WORDS, *FLAGS, "-h", "--help", "--", "-", "-x", "--bogus"]),
    st.sampled_from(FLAGS).flatmap(lambda flag: st.sampled_from(
        [flag[:n] for n in range(3, len(flag))] + [f"{flag}={text}" for text in TEXTS[tuple]])),
    st.sampled_from([text for texts in TEXTS.values() for text in texts]),
)


def texts(kind):
    return st.sampled_from(TEXTS[tuple if isinstance(kind, tuple) else kind])


@st.composite
def argvs(draw):
    """An exact-form argv of one command, in a drawn order, then up to three
    edits: a noise token inserted or put in place of one, a token deleted,
    two tokens swapped, or a flag and its value repeated at the end."""
    command = draw(st.sampled_from(LEAVES))
    pieces = [[option.flag, draw(texts(option.kind))] for option in command.options
              if option.default is cli._REQUIRED or draw(st.booleans())]
    pieces += [[draw(texts(str))] for _ in command.positionals]
    top = [["--format", draw(texts(tuple))]] if draw(st.booleans()) else []
    argv = [token for piece in (*top, command.words, *draw(st.permutations(pieces)))
            for token in piece]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(argv))), draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "swap", "repeat"]))
        if edit == "insert":
            argv.insert(i, draw(NOISE))
        elif i == len(argv) or j == len(argv):
            continue
        elif edit == "replace":
            argv[i] = draw(NOISE)
        elif edit == "delete":
            del argv[i]
        elif edit == "swap":
            argv[i], argv[j] = argv[j], argv[i]
        else:
            argv += argv[i : i + 2]
    return argv


# What the matcher leaves to argparse, one argv per form.
DECLINED = {
    "help": ["validate", "example1.json", "-h"],
    "long-help": ["classify", "set", "alpha", "--space", "s.json", "--help"],
    "unique-prefix": ["validate", "example1.json", "--form", "json"],
    "ambiguous-prefix": ["classify", "fn", "--f", "json", "--fn", "fn.json"],
    "equals": ["--format=json", "validate", "example1.json"],
    "double-dash": ["validate", "--", "example1.json"],
    "value-starting-with-dash": ["verify", "--seeds", "-2"],
    "positional-starting-with-dash": ["validate", "-x"],
    "repeated-option": ["verify", "--grid", "2", "--grid", "3"],
    "format-before-and-after": ["--format", "json", "validate", "s.json", "--format", "text"],
    "unknown-word": ["classify", "map", "--fn", "fn.json"],
    "unknown-flag": ["verify", "--cap", "5"],
    "extra-positional": ["validate", "s.json", "t.json"],
    "missing-positional": ["classify", "set", "--space", "s.json"],
    "missing-option": ["search", "--target", "semiopen-not-open", "--space", "s.json"],
    "group-only": ["classify"],
    "bad-choice": ["--format", "xml", "validate", "s.json"],
    "bad-integer": ["verify", "--grid", "2.5"],
    "integer-too-long": ["verify", "--seeds", "9" * 5000],
}


def parse(argv):
    """argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _PARSER.parse_args(argv)
        except SystemExit:
            return None


def examples(argvs):
    """``@example(argv)`` for each of ``argvs``."""
    def apply(test):
        for argv in argvs:
            test = example(argv)(test)
        return test
    return apply


@settings(max_examples=500, deadline=None)
@given(argvs())
@examples(DECLINED.values())
def test_the_matcher_returns_what_argparse_returns_or_declines(argv):
    matched = _match(argv)
    if matched is not None:
        parsed = parse(argv)
        assert parsed is not None, "the matcher took an argv that argparse refuses"
        assert vars(matched) == vars(parsed)


@pytest.mark.parametrize("argv", DECLINED.values(), ids=DECLINED)
def test_the_matcher_declines_what_argparse_owns(argv):
    assert _match(argv) is None


def test_main_without_argv_reads_sys_argv_through_the_matcher(capsys, monkeypatch):
    """The installed ``ftop`` calls ``main()``, which reads ``sys.argv`` and
    takes the exact form without asking argparse."""
    argv = ["--format", "json", "classify", "set", "alpha", "--space", "example1.json"]
    expected = run(capsys, *argv)[:2]
    monkeypatch.setattr(sys, "argv", ["ftop", *argv])
    monkeypatch.setattr(_PARSER, "parse_args", lambda *args: pytest.fail("argparse was asked"))
    assert (main(), capsys.readouterr().out) == expected
