"""Where sets are checked, and how many sets a verdict builds.

Each public entry checks the backend and universe of the sets it is
given with ``_require_compatible``; the lattice work behind it runs on
the unchecked primitives ``_leq``, ``_meet``, ``_join`` and ``_meets``
and reads the space's member index directly.  These tests count the
checks, the finite sets built and the PL meets and joins swept, for
fixed inputs, so a change that brings back a check per internal call, a
set built only to be asked whether it is zero, or a sweep that an order
test decides, fails here, whatever its effect on timing.
"""

from pathlib import Path

import pytest

from ftop import (
    FiniteFuzzySet,
    GridSpec,
    PLFuzzySet,
    check_axioms,
    check_space,
    classify_function,
    classify_set,
    generate,
    set_verdicts,
)
from ftop import fset, plin
from ftop.documents import build_topology, parse_space

from helpers import ALPHA, BETA, MU, fs, reference_map, t_fin, t_pl


@pytest.fixture
def checks(monkeypatch):
    """Count ``_require_compatible`` calls on both backends.

    ``checks(call, *args)`` runs ``call(*args)`` and returns the number of
    checks it made.
    """
    checked = []
    for cls in (FiniteFuzzySet, PLFuzzySet):

        def counting(self, other, check=cls._require_compatible):
            checked.append(other)
            return check(self, other)

        monkeypatch.setattr(cls, "_require_compatible", counting)

    def count(call, *args):
        checked.clear()
        call(*args)
        return len(checked)

    return count


@pytest.mark.parametrize(
    "space, s", [(t_fin(), fs("3/4", "1/4")), (t_pl(), BETA)], ids=["finite", "pl"]
)
def test_a_classified_set_is_checked_once(checks, space, s):
    """``set_verdicts``: 1, the query against the space.  ``classify_set``:
    2, the query and the member ``Int(Cl(s))`` that the public ``join``
    checks as it builds the returned semi-closure.  Interior, closure,
    meet and order run unchecked."""
    assert checks(set_verdicts, space, s) == 1
    assert checks(classify_set, space, s) == 2


def test_generate_checks_each_subbasis_set_once(checks):
    """r: each of the r subbasis sets against the constants, as the meet
    pass reaches it; the base members and the joins are not checked."""
    finite = [fs("1/2", "1/3"), fs("1/3", "1/2"), fs("1/4", 1)]
    assert len(generate(finite)) == 11
    assert checks(generate, finite) == 3
    assert checks(generate, [MU, ALPHA, BETA]) == 3


@pytest.mark.parametrize("space", [t_fin(), t_pl()], ids=["finite", "pl"])
def test_check_axioms_checks_each_member_once(checks, space):
    """c: each of the c distinct members against the first, itself
    included, before any pair is compared or combined."""
    members = list(space.members)
    assert checks(check_axioms, members + members[:2]) == len(members) == 5


def test_classify_function_checks_nothing(checks):
    """0: the members, their lifts and the lifts' verdicts all belong to
    the two spaces, which the map's constructor holds to be finite."""
    assert checks(classify_function, reference_map()) == 0


def test_check_space_checks_only_its_classify_set_sample(checks):
    """14: the 49 grid sets of ``GridSpec(2, 6)`` are sampled every 7th,
    from the first, and each of the 7 sampled sets goes through the public
    ``classify_set``, which makes 2 checks.  The member halves compare
    members and their complements unchecked."""
    assert checks(check_space, t_fin(), GridSpec(2, 6)) == 7 * 2


def counted(monkeypatch, module, name):
    """``count(call, *args)``: runs ``call(*args)`` and returns how often
    it called ``module.name``, which is patched for the test."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)

    def count(call, *args):
        calls.clear()
        call(*args)
        return len(calls)

    return count


@pytest.fixture
def builds(monkeypatch):
    """Count the finite sets built, as calls of ``fset._trusted``, which
    every finite set goes through."""
    return counted(monkeypatch, fset, "_trusted")


def test_verdicts_build_no_set_and_the_evidence_two(builds):
    """``set_verdicts``: 0, since whether ``s`` meets ``Cl(Int(s))`` is
    asked without building the meet, and the operators select members
    and their complements.  ``classify_set``: 2, the semi-interior and the
    semi-closure of its evidence.  The index is built before counting."""
    space, s = t_fin(), fs("3/4", "1/4")
    space._index
    assert builds(set_verdicts, space, s) == 0
    assert builds(classify_set, space, s) == 2


def test_classify_function_builds_one_set_per_lift(builds):
    """8: the preimage of each of the 3 codomain members and the image of
    each of the 5 domain members; their verdicts build nothing.  Both
    indexes are built before counting."""
    f = reference_map()
    f.domain._index, f.codomain._index
    assert builds(classify_function, f) == len(f.codomain.members) + len(f.domain.members) == 8


GOLDEN_INPUT = Path(__file__).parent / "golden" / "input"


@pytest.fixture
def sweeps(monkeypatch):
    """Count the constructive PL sweeps, as calls of ``plin._reduced``, which
    every PL meet or join that no order test decides reaches.  Documents
    are read before counting, since the reader reaches ``_reduced`` too."""
    return counted(monkeypatch, plin, "_reduced")


@pytest.mark.parametrize("name, validating, query, member", [
    ("pl-chain", 0, 2, 0),
    ("pl-product", 70, 2, 0),
    ("pl-incomplete", 14, None, None),
])
def test_pl_sweeps_only_what_no_order_sweep_decides(sweeps, name, validating, query, member):
    """``check_axioms`` combines only incomparable pairs: none on the
    chain, 35 on the product, each swept twice, and 9 on the incomplete
    product, whose 4 disjoint pairs have the meet 0 without a sweep.
    ``classify_set``: 2 for the golden query ``q``, whose semi-interior and
    semi-closure cross it; 0 for the member listed last before ``1``, since
    ``s <= Cl(Int(s))`` and ``s <= Int(Cl(s))`` for an open set.  The
    index is built before counting."""
    doc = parse_space((GOLDEN_INPUT / f"{name}.json").read_text(encoding="utf-8"))
    members = [doc.resolve(listed) for listed in doc.topology]
    assert sweeps(check_axioms, members) == validating
    if query is not None:
        space = build_topology(doc)
        space._index
        assert sweeps(classify_set, space, doc.resolve("q")) == query
        assert sweeps(classify_set, space, members[-2]) == member
