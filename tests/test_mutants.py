"""The mutant registry, checked without applying a mutant.

``python tests/mutants.py`` applies each entry and runs its selection,
which takes minutes; these checks take milliseconds, so a change that
leaves an entry stale fails here, in tier-1, before the registry runs.
"""

import re
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent


def test_names_are_unique_and_outcomes_known():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert {mutant.expect for mutant in mutants.MUTANTS} == {"killed", "survives"}


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_entry_applies_and_selects_existing_tests(mutant):
    """The old text occurs once in its file, the new text differs, and
    each selection names a test file, and the classes and functions in
    it, that exist."""
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for selection in mutant.tests:
        path, *names = selection.split("::")
        if path == "tests":
            assert not names
            continue
        assert re.fullmatch(r"tests/test_\w+\.py", path), selection
        text = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {name}\b", text, re.M), selection
