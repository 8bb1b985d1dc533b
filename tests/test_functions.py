"""Crisp maps: the Zadeh lifts and the eight-way classification.

The reference map sends the two-point space with degrees {0, 1/3, 1/2}
onto a codomain whose only non-constant open is {u:1/2, v:0}; its
preimages land exactly on members, so the map is continuous, while the
image of {a:0, b:1/3} has empty interior, so every openness class fails
with that same witness.  Both facts were derived by enumerating the
member lists by hand before being frozen here.
"""

import itertools
import random

import pytest

from ftop import (
    BackendMismatchError,
    FiniteFuzzySet,
    FtopError,
    FuzzyFunction,
    FunctionClassification,
    HierarchyInvariantError,
    Universe,
    UniverseMismatchError,
    classify_function,
    generate,
)
from ftop.functions import CONTINUITY_CLASSES, OPENNESS_CLASSES
from ftop.oracle import GridSpec, random_topology

import reference
from helpers import (
    CHAIN_QUADRUPLES, MU, M1, M2, ONE2, UV, ZERO2, fs, grid, literal, literal_space,
    reference_map, t_codomain, t_fin, t_pl, ys,
)

def test_mapping_must_be_total_and_well_aimed():
    dom, cod = t_fin(), t_codomain()
    with pytest.raises(ValueError):
        FuzzyFunction(dom, cod, (("a", "u"),))
    with pytest.raises(ValueError):
        FuzzyFunction(dom, cod, (("a", "u"), ("b", "w")))
    with pytest.raises(ValueError):
        FuzzyFunction(dom, cod, (("a", "u"), ("b", "v"), ("c", "u")))
    with pytest.raises(ValueError):
        FuzzyFunction(dom, cod, (("a", "u"), ("a", "v"), ("b", "u")))


def test_from_mapping_refuses_keys_outside_the_domain():
    """Keys off the domain reach the constructor, which refuses them; a
    valid mapping is kept in universe order, whatever order it came in,
    by ``from_mapping`` and the constructor alike."""
    dom, cod = t_fin(), t_codomain()
    with pytest.raises(ValueError, match=r"unknown points \['zz'\]"):
        FuzzyFunction.from_mapping(dom, dom, {"a": "a", "b": "b", "zz": "a"})
    with pytest.raises(ValueError, match="unknown points"):
        FuzzyFunction.from_mapping(dom, cod, {"zz": "u", "b": "v", "a": "u"})
    f = FuzzyFunction.from_mapping(dom, cod, {"b": "v", "a": "u"})
    assert f.mapping == (("a", "u"), ("b", "v"))
    g = FuzzyFunction(dom, cod, (("b", "v"), ("a", "u")))
    assert g == f and hash(g) == hash(f) and g.mapping == (("a", "u"), ("b", "v"))


def test_pl_spaces_are_rejected():
    with pytest.raises(FtopError) as err:
        FuzzyFunction.from_mapping(t_pl(), t_codomain(), {})
    assert isinstance(err.value, BackendMismatchError) and isinstance(err.value, TypeError)
    with pytest.raises(BackendMismatchError):
        FuzzyFunction(t_codomain(), t_pl(), ())


def test_preimage_composes_with_the_point_map():
    f = reference_map()
    assert f.preimage(ys("1/2", 0)) == M2
    assert f.preimage(ys(0, 0)) == ZERO2
    assert f.preimage(ys(1, 1)) == ONE2
    assert f.preimage(ys("1/3", "2/3")) == fs("1/3", "2/3")


def test_lifts_reject_sets_from_the_wrong_side_or_backend():
    f = reference_map()
    with pytest.raises(UniverseMismatchError):
        f.preimage(M1)
    with pytest.raises(UniverseMismatchError):
        f.image(ys(0, 0))
    with pytest.raises(BackendMismatchError):
        f.preimage(MU)
    with pytest.raises(BackendMismatchError):
        f.image(MU)


def test_image_takes_fiberwise_suprema():
    f = reference_map()
    assert f.image(M1) == ys(0, "1/3")
    assert f.image(fs("1/2", "1/3")) == ys("1/2", "1/3")


def test_image_of_empty_fiber_is_zero():
    uvw = Universe.of("u", "v", "w")
    cod = generate([], universe=uvw)
    collapse = FuzzyFunction.from_mapping(t_fin(), cod, {"a": "u", "b": "u"})
    assert collapse.image(ONE2) == FiniteFuzzySet.of(uvw, (1, 0, 0))
    assert collapse.image(fs("1/3", "1/2")) == FiniteFuzzySet.of(uvw, ("1/2", 0, 0))


def test_reference_map_is_continuous_but_not_somewhat_open():
    c = classify_function(reference_map())
    assert c.verdicts() == {
        "fuzzy_continuous": True,
        "fuzzy_semicontinuous": True,
        "somewhat_fuzzy_continuous": True,
        "somewhat_fuzzy_semicontinuous": True,
        "fuzzy_open": False,
        "fuzzy_semiopen_fn": False,
        "somewhat_fuzzy_open_fn": False,
        "somewhat_fuzzy_semiopen_fn": False,
    }
    assert c.witnesses["somewhat_fuzzy_open_fn"] == M1
    assert c.witnesses["fuzzy_open"] == M1
    assert "fuzzy_continuous" not in c.witnesses


def test_identity_map_is_continuous_and_open():
    space = t_fin()
    identity = FuzzyFunction.from_mapping(space, space, {"a": "a", "b": "b"})
    assert all(classify_function(identity).verdicts().values())


def test_chain_breaking_verdicts_are_refused():
    with pytest.raises(HierarchyInvariantError):
        FunctionClassification(
            fuzzy_continuous=True,
            fuzzy_semicontinuous=False,
            somewhat_fuzzy_continuous=True,
            somewhat_fuzzy_semicontinuous=True,
            fuzzy_open=False,
            fuzzy_semiopen_fn=False,
            somewhat_fuzzy_open_fn=False,
            somewhat_fuzzy_semiopen_fn=False,
        )
    with pytest.raises(HierarchyInvariantError):
        FunctionClassification(
            fuzzy_continuous=False,
            fuzzy_semicontinuous=False,
            somewhat_fuzzy_continuous=True,
            somewhat_fuzzy_semicontinuous=False,
            fuzzy_open=False,
            fuzzy_semiopen_fn=False,
            somewhat_fuzzy_open_fn=False,
            somewhat_fuzzy_semiopen_fn=False,
        )


def test_each_side_of_the_function_chain_is_refused_on_its_own():
    for continuity in itertools.product((False, True), repeat=4):
        for openness in itertools.product((False, True), repeat=4):
            fields = dict(zip(CONTINUITY_CLASSES + OPENNESS_CLASSES, continuity + openness))
            if continuity in CHAIN_QUADRUPLES and openness in CHAIN_QUADRUPLES:
                assert FunctionClassification(**fields).verdicts() == fields
            else:
                with pytest.raises(HierarchyInvariantError):
                    FunctionClassification(**fields)


def random_triple(seed):
    rng = random.Random(f"triple-{seed}")
    k = rng.randint(1, 3)
    dom = random_topology(GridSpec(rng.randint(1, 3), k), seed, rng.randint(0, 3))
    cod_spec = GridSpec(rng.randint(1, 3), k)
    degs = grid(k)
    subbasis = [
        FiniteFuzzySet(cod_spec.universe(), tuple(rng.choice(degs) for _ in range(cod_spec.universe_size)))
        for _ in range(rng.randint(0, 3))
    ]
    cod = generate(subbasis, universe=cod_spec.universe())
    mapping = {x: rng.choice(cod.universe.labels) for x in dom.universe}
    return FuzzyFunction.from_mapping(dom, cod, mapping)


def assert_classification_matches_the_reference(f: FuzzyFunction) -> int:
    """Both lifts of every member, the eight verdicts and the witnesses,
    in order, against ``reference.classify_map``; returns the number of
    failed classes.  The map's point positions are read off the labels."""
    domain, codomain = literal_space(f.domain), literal_space(f.codomain)
    assigned, labels = dict(f.mapping), f.codomain.universe.labels
    targets = [labels.index(assigned[x]) for x in f.domain.universe.labels]
    for beta in f.codomain.members:
        assert literal(f.preimage(beta)) == reference.preimage(targets, literal(beta))
    for alpha in f.domain.members:
        assert literal(f.image(alpha)) == reference.image(targets, len(labels), literal(alpha))
    c = classify_function(f)
    verdicts, witnesses = reference.classify_map(domain, codomain, targets)
    assert c.verdicts() == verdicts
    assert [(name, literal(member)) for name, member in c.witnesses.items()] == list(
        witnesses.items()
    )
    return len(witnesses)


def test_classification_matches_the_predicate_reference():
    """The reference states each class by its predicate on every member."""
    space = t_fin()
    identity = FuzzyFunction.from_mapping(space, space, {"a": "a", "b": "b"})
    maps = [identity, reference_map(), *(random_triple(seed) for seed in range(60))]
    assert sum(assert_classification_matches_the_reference(f) for f in maps) > 0


def test_lifts_pass_the_public_constructor():
    for seed in range(60):
        f = random_triple(seed)
        lifted = [f.preimage(b) for b in f.codomain.members]
        lifted += [f.image(a) for a in f.domain.members]
        rng = random.Random(f"lift-{seed}")
        degs = grid(6)
        for _ in range(3):
            beta = FiniteFuzzySet(f.codomain.universe, tuple(rng.choice(degs) for _ in f.codomain.universe))
            alpha = FiniteFuzzySet(f.domain.universe, tuple(rng.choice(degs) for _ in f.domain.universe))
            lifted += [f.preimage(beta), f.image(alpha)]
        for value in lifted:
            rebuilt = FiniteFuzzySet(value.universe, value.degrees)
            assert rebuilt == value and hash(rebuilt) == hash(value)


def test_each_distinct_lifted_set_is_classified_once(monkeypatch):
    """Both points go to ``u``: the codomain opens {u:1/2, v:0} and
    {u:1/2, v:1} share the preimage {a:1/2, b:1/2}, and the domain opens
    {a:1/2, b:0} and {a:1/2, b:1/3} share the image {u:1/2, v:0}.  Each
    distinct lifted set is classified once, and the first member with a
    failing lift stays the witness, as in the member-by-member derivation."""
    import ftop.functions

    codomain = generate([ys("1/2", 0), ys("1/2", 1)], universe=UV)
    f = FuzzyFunction.from_mapping(t_fin(), codomain, {"a": "u", "b": "u"})
    preimages = [f.preimage(beta) for beta in codomain.members]
    images = [f.image(alpha) for alpha in f.domain.members]
    assert (len(preimages), len(set(preimages))) == (4, 3)
    assert (len(images), len(set(images))) == (5, 4)

    classified = []
    set_verdicts = ftop.functions._set_verdicts

    def counting(space, s):
        classified.append((space, s))
        return set_verdicts(space, s)

    monkeypatch.setattr(ftop.functions, "_set_verdicts", counting)
    c = classify_function(f)
    assert [s for space, s in classified if space is f.domain] == list(dict.fromkeys(preimages))
    assert [s for space, s in classified if space is f.codomain] == list(dict.fromkeys(images))
    assert len(classified) == 7

    assert_classification_matches_the_reference(f)
    assert c.witnesses == {
        "fuzzy_continuous": ys("1/2", 0),
        **dict.fromkeys(OPENNESS_CLASSES, fs(0, "1/3")),
    }
