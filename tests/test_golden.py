"""Golden CLI reports: ``--format json`` stdout must match byte for byte.

Each case runs ``ftop.cli.main`` in a fresh working directory holding the
documents of ``tests/golden/input``, so reports echo relative names and
bundled documents (``example1.json``) resolve by name.  The expected
stdout lives in ``tests/golden/<case>.json``; regenerate a file only for
a deliberate change of the report format, never to absorb a new result.
Every case argv, and every request CI and the benchmark send, is in the
exact form ``ftop.cli._match`` takes without argparse.
"""

import importlib.util
import re
import shlex
import shutil
from pathlib import Path

import pytest

from ftop.cli import _PARSER, _match, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "validate-example1": (["validate", "example1.json"], 0),
    "classify-set-alpha": (["classify", "set", "alpha", "--space", "example1.json"], 0),
    "validate-subbasis": (["validate", "subbasis.json"], 0),
    "classify-set-subbasis": (["classify", "set", "q", "--space", "subbasis.json"], 0),
    "validate-incomplete": (["validate", "incomplete.json"], 1),
    "classify-fn": (["classify", "fn", "--fn", "function.json"], 0),
    "search-found": (
        ["search", "--target", "semiopen-not-open", "--space", "finite.json", "--grid", "2"],
        0,
    ),
    "search-none": (
        [
            "search",
            "--target",
            "somewhat-semiopen-not-somewhat-open",
            "--space",
            "finite.json",
            "--grid",
            "2",
        ],
        1,
    ),
    # Grids of several bitset blocks of 4096 ranks: 6^6 sets per verify
    # space, and 17^3 per search, whose witness has rank 1263.
    "verify-multi-block": (["verify", "--seeds", "2", "--universe-size", "6", "--grid", "5"], 0),
    "search-found-multi-block": (
        [
            "search",
            "--target",
            "somewhat-open-not-semiopen",
            "--space",
            "subbasis.json",
            "--grid",
            "16",
        ],
        0,
    ),
    "search-none-multi-block": (
        [
            "search",
            "--target",
            "somewhat-semiopen-not-somewhat-open",
            "--space",
            "subbasis.json",
            "--grid",
            "16",
        ],
        1,
    ),
    "validate-pl-chain": (["validate", "pl-chain.json"], 0),
    "classify-set-pl-chain": (["classify", "set", "q", "--space", "pl-chain.json"], 0),
    "validate-pl-product": (["validate", "pl-product.json"], 0),
    "classify-set-pl-product": (["classify", "set", "q", "--space", "pl-product.json"], 0),
    # Four crossing PL sets: the closure is the free distributive lattice, 168 members.
    "validate-pl-subbasis": (["validate", "pl-subbasis.json"], 0),
    "classify-set-pl-subbasis": (["classify", "set", "q", "--space", "pl-subbasis.json"], 0),
    "verify": (["verify", "--seeds", "6", "--universe-size", "2", "--grid", "2"], 0),
    # Unreduced, mixed-denominator literals ("2/4", "0/7", "-0", "007/8")
    # and a collinear PL breakpoint: the reports print every degree reduced.
    "classify-set-unreduced-finite-q": (
        ["classify", "set", "q", "--space", "unreduced-finite.json"],
        0,
    ),
    "classify-set-unreduced-finite-t": (
        ["classify", "set", "t", "--space", "unreduced-finite.json"],
        0,
    ),
    "classify-set-unreduced-pl-q": (["classify", "set", "q", "--space", "unreduced-pl.json"], 0),
    "classify-set-unreduced-pl-p": (["classify", "set", "p", "--space", "unreduced-pl.json"], 0),
}


def run_case(argv, workdir, monkeypatch, capsys):
    """Exit code and stdout of ``ftop --format json <argv>`` run in ``workdir``."""
    for document in (GOLDEN / "input").iterdir():
        shutil.copy(document, workdir / document.name)
    monkeypatch.chdir(workdir)
    code = main(["--format", "json", *argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_report_matches_golden(case, tmp_path, monkeypatch, capsys):
    argv, expected_code = CASES[case]
    code, out = run_case(argv, tmp_path, monkeypatch, capsys)
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / f"{case}.json").read_bytes()


def load_perfbench_gen():
    """``perfbench/gen.py``, which imports only the standard library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ci_argvs():
    """The argv of each ``ftop`` line in CI's installed-package step."""
    ci = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"
    lines = re.findall(r"^\s*(?:\w+=\S+ )*ftop (.*?)(?: \|.*)?$", ci.read_text(), re.M)
    return [shlex.split(line) for line in lines]


def test_the_matcher_takes_every_request_of_the_goldens_ci_and_the_benchmark():
    """Each golden argv, as ``run_case`` sends it and bare, each ``ftop``
    line CI runs, and one request of each benchmark kind take the matcher,
    and get argparse's namespace.  CI's one abbreviated line is there to
    take argparse, and does."""
    gen = load_perfbench_gen()
    bench = [*gen.warmup_cases("cli"), *gen.warmup_cases("pl")]
    assert {case["kind"] for case in bench} >= set(gen.CLI_KINDS)
    ci = ci_argvs()
    abbreviated = [argv for argv in ci if "--form" in argv]
    assert (len(ci), len(abbreviated), _match(abbreviated[0])) == (12, 1, None)
    requests = [
        *(argv for argv, _ in CASES.values()),
        *(["--format", "json", *argv] for argv, _ in CASES.values()),
        *(argv for argv in ci if argv not in abbreviated),
        *(["--format", "json", *case["argv"]] for case in bench),
    ]
    for argv in requests:
        matched = _match(argv)
        assert matched is not None, argv
        assert vars(matched) == vars(_PARSER.parse_args(argv)), argv
