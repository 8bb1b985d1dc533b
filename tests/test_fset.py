from __future__ import annotations

import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftop import (
    ONE,
    BackendMismatchError,
    FiniteFuzzySet,
    FtopError,
    GridSpec,
    PLFuzzySet,
    Universe,
    UniverseMismatchError,
    enumerate_grid_sets,
    inf_family,
    join_family,
)

import reference
from helpers import AB, M1, M2, ONE2, ZERO2, exact_degrees, fs, grid


def test_universe_rejects_bad_labels():
    with pytest.raises(ValueError):
        Universe.of()
    with pytest.raises(ValueError):
        Universe.of("a", "a")
    with pytest.raises(ValueError):
        Universe.of("a", "")
    # A string is a sequence of one-letter strings, not a list of labels.
    for text in ("abc", "ab", ""):
        with pytest.raises(TypeError, match=r"not the string .*Universe\.of\(\.\.\.\) or a tuple"):
            Universe(text)
    assert Universe.of("abc").labels == ("abc",)


def test_universe_lookup():
    assert len(AB) == 2
    assert "a" in AB and "c" not in AB
    assert [AB.index(label) for label in AB] == [0, 1]
    with pytest.raises(KeyError, match="label 'z' not in universe"):
        AB.index("z")
    assert AB == Universe.of("a", "b") and hash(AB) == hash(Universe.of("a", "b"))


def test_a_universe_from_a_list_equals_one_from_a_tuple():
    """The constructor keeps its labels as a tuple, whatever sequence they
    came in, so the two forms are one universe and sets over them combine."""
    listed = Universe(["a", "b"])
    assert listed.labels == ("a", "b")
    assert listed == AB and hash(listed) == hash(AB)
    low = FiniteFuzzySet.of(listed, ("1/2", 1)).meet(fs(1, "1/3"))
    assert low == fs("1/2", "1/3")


def test_universe_membership_is_a_label_lookup():
    """Membership answers from the label positions; an unhashable value is
    not a label, as a scan of the label tuple would say."""
    assert [] not in AB and "c" not in AB and {} not in AB and 0 not in AB
    assert all(label in AB for label in AB.labels)


def test_of_mapping_requires_exact_label_cover():
    assert FiniteFuzzySet.of(AB, {"a": "1/2", "b": 0}) == fs("1/2", 0)
    assert FiniteFuzzySet.of(AB, iter(["1/2", 0])) == fs("1/2", 0)
    # A string is not a sequence of degrees, one per character.
    for text in ("01", "1/2"):
        with pytest.raises(TypeError, match="a mapping or a tuple, not the string"):
            FiniteFuzzySet.of(AB, text)
    with pytest.raises(KeyError):
        FiniteFuzzySet.of(AB, {"a": "1/2"})
    with pytest.raises(KeyError):
        FiniteFuzzySet.of(AB, {"a": 0, "b": 0, "c": 0})


def test_constructor_validates_degrees():
    with pytest.raises(ValueError):
        FiniteFuzzySet(AB, (Fraction(1, 2),))
    with pytest.raises(ValueError):
        FiniteFuzzySet(AB, (Fraction(3, 2), Fraction(0)))
    with pytest.raises(ValueError):
        FiniteFuzzySet(AB, (0.5, 0.5))
    with pytest.raises(ValueError):
        FiniteFuzzySet(AB, (1, 0))
    with pytest.raises(ValueError):
        FiniteFuzzySet(AB, (ONE, -ONE))
    assert FiniteFuzzySet(AB, [ONE, Fraction(2, 4)]) == fs(1, "1/2")


def test_point_access():
    s = fs("1/2", "1/3")
    assert s.at("a") == Fraction(1, 2)
    assert s.by_label() == {"a": Fraction(1, 2), "b": Fraction(1, 3)}
    assert s.support() == ("a", "b")
    assert fs(0, "1/3").support() == ("b",)


def test_cross_universe_operations_are_rejected():
    other = FiniteFuzzySet.zero(Universe.of("x", "y"))
    with pytest.raises(UniverseMismatchError):
        fs(0, 0).join(other)
    with pytest.raises(UniverseMismatchError):
        fs(0, 0).meet(other)
    with pytest.raises(UniverseMismatchError):
        fs(0, 0).leq(other)
    with pytest.raises(UniverseMismatchError):
        fs(0, 0).join(M1, other)


def test_equal_universes_need_not_be_the_same_object():
    twin = FiniteFuzzySet.of(Universe.of("a", "b"), ("1/2", 0))
    assert twin.universe is not AB
    assert M1.join(twin) == fs("1/2", "1/3")
    assert twin.leq(M2)


def test_other_backends_are_rejected():
    for operation in (ZERO2.meet, ZERO2.join, ZERO2.leq):
        with pytest.raises(BackendMismatchError) as err:
            operation(PLFuzzySet.zero())
        assert isinstance(err.value, FtopError) and isinstance(err.value, TypeError)
    with pytest.raises(BackendMismatchError):
        ZERO2.join(M1, PLFuzzySet.zero())
    # A value that is no finite set compares unequal, through NotImplemented.
    assert ONE2.__eq__(1) is NotImplemented
    assert (ONE2 == 1) is False and ONE2 != PLFuzzySet.one()


def test_known_lattice_values():
    assert M1.join(M2) == fs("1/2", "1/3")
    assert M1.meet(M2) == ZERO2
    assert M1.complement() == fs(1, "2/3")
    assert M1.leq(fs(0, "1/2"))
    assert not fs(0, "1/2").leq(M1)


def test_family_folds():
    assert join_family([M1, M2, ZERO2]) == fs("1/2", "1/3")
    assert inf_family([ONE2, M2]) == M2
    assert join_family([], universe=AB) == ZERO2
    assert inf_family([], universe=AB) == ONE2
    for family in (join_family, inf_family):
        with pytest.raises(ValueError, match="empty family needs an explicit universe"):
            family([])


# --- the integer representation against the literal reference ------------
#
# ``reference`` states each operation on the degrees themselves, tuples of
# Fractions in universe order, and shares no code with ``ftop.fset``.

UVW = Universe.of("u", "v", "w")


@st.composite
def set_pairs(draw, size=None):
    """A set and the degrees it was built from."""
    universe = UVW if size is None else Universe(UVW.labels[:size])
    degrees = tuple(draw(exact_degrees()) for _ in universe)
    return FiniteFuzzySet(universe, degrees), degrees


def twin(a, b):
    """``fs(a, b)`` and its degrees."""
    return fs(a, b), (Fraction(a), Fraction(b))


def assert_same_set(value, degrees):
    """``value`` holds ``degrees`` in canonical form, numerators over the
    lcm of their denominators, and every read-out says so."""
    labels = value.universe.labels
    scale = math.lcm(*[d.denominator for d in degrees])
    assert value.scale == scale and value.nums == tuple(d * scale for d in degrees)
    assert value.degrees == degrees
    inside = ", ".join(f"{label}: {d}" for label, d in zip(labels, degrees))
    assert repr(value) == f"FiniteFuzzySet({{{inside}}})"
    assert value.by_label() == dict(zip(labels, degrees))
    assert [value.at(label) for label in labels] == list(degrees)
    assert value.support() == tuple(label for label, d in zip(labels, degrees) if d > 0)
    assert value.is_zero() == all(d == 0 for d in degrees)
    rebuilt = FiniteFuzzySet(value.universe, degrees)
    assert rebuilt == value and hash(rebuilt) == hash(value)


class TestIntegerRepresentationMatchesReference:
    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(set_pairs(n), min_size=1, max_size=4)
    ))
    @example([twin("1/2", "1/3"), twin(0, 0)])
    # one scale, 6, whose join reduces to halves
    @example([twin("1/2", "1/3"), twin("1/6", "1/2")])
    # scales 6 and 4
    @example([twin("1/2", "1/3"), twin("3/4", "1/4")])
    # scale 2 divides scale 6, so their lcm is the first scale
    @example([twin("1/2", "1/3"), twin("1/2", 1)])
    def test_operations_agree(self, pairs):
        """meet/join with 1-4 arguments, leq both ways, complement and the
        read-outs agree with the reference, and every result is canonical.
        Every binary meet and join, on one scale or two, also agrees with
        the reference and with the same operation given the other set
        twice, which takes the general n-ary path."""
        values = [value for value, _ in pairs]
        columns = [degrees for _, degrees in pairs]
        first = values[0]
        results = [
            (first.meet(*values[1:]), reference.meet(*columns)),
            (first.join(*values[1:]), reference.join(*columns)),
            *((value.complement(), reference.complement(degrees)) for value, degrees in pairs),
            *pairs,
        ]
        for value, degrees in results:
            assert_same_set(value, degrees)
        for (s, rs), (t, rt) in product(pairs, repeat=2):
            assert s.leq(t) == reference.leq(rs, rt)
            assert (s == t) == (rs == rt)
            for binary, general, expected in (
                (s.meet(t), s.meet(t, t), reference.meet(rs, rt)),
                (s.join(t), s.join(t, t), reference.join(rs, rt)),
            ):
                assert_same_set(binary, expected)
                assert (binary.scale, binary.nums) == (general.scale, general.nums)
        for (s, rs), (t, rt) in product(results, repeat=2):
            assert (s == t) == (rs == rt)

    def test_a_shrinking_scale_is_divided_out(self):
        low = fs("1/2", "1/3").meet(fs(0, 0))
        assert (low.scale, low.nums) == (1, (0, 0))
        assert low == FiniteFuzzySet.zero(AB) and hash(low) == hash(FiniteFuzzySet.zero(AB))
        high = fs("1/2", "1/6").join(fs("1/3", "1/2"))
        assert (high.scale, high.nums) == (2, (1, 1))
        assert high == FiniteFuzzySet.constant(AB, "1/2")

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=12))
    @example(1, 4)
    def test_grid_sets_are_canonical(self, size, k):
        """Grid sets such as 2/4 equal and hash like the reduced degrees."""
        spec = GridSpec(size, k)
        expected = product(grid(k), repeat=size)
        for value, degrees in zip(enumerate_grid_sets(spec), expected, strict=True):
            assert_same_set(value, degrees)


def test_fields_and_other_attributes_stay_read_only():
    """A field raises ``FrozenInstanceError``; another name raises
    ``TypeError`` from the dataclass ``__setattr__`` on a slotted class
    (CPython 3.10-3.13) or an ``AttributeError``, by CPython version.
    Sets built through ``_trusted``, a meet and a complement, are held
    to it as well as one from the public constructor."""
    met = fs("1/2", "2/3").meet(fs("3/4", "1/3"))
    for s in (fs("1/2", "1/3"), met, fs("1/2", "1/3").complement()):
        before = ((s.universe, s.scale, s.nums), hash(s))
        with pytest.raises(FrozenInstanceError):
            s.scale = 1
        with pytest.raises(FrozenInstanceError):
            del s.nums
        with pytest.raises((TypeError, AttributeError)):
            s.extra = 1
        with pytest.raises((TypeError, AttributeError)):
            del s.extra
        assert ((s.universe, s.scale, s.nums), hash(s)) == before


def test_sets_stay_immutable_and_picklable():
    built = fs("1/2", "1/3")
    met = fs("1/2", "2/3").meet(fs("3/4", "1/3"))
    complement = built.complement()
    for s, scale, nums in ((built, 6, (3, 2)), (met, 6, (3, 2)), (complement, 6, (3, 4))):
        with pytest.raises(FrozenInstanceError):
            s.nums = (0, 0)
        with pytest.raises(FrozenInstanceError):
            del s.scale
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and (copy.scale, copy.nums) == (scale, nums)


# Degrees that are 0 about half the time, so that sets that meet and sets
# that do not are both common; the others have denominators up to 12.
sparse_degrees = st.one_of(st.just(Fraction(0)), exact_degrees())


@given(st.tuples(*[sparse_degrees] * 3), st.tuples(*[sparse_degrees] * 3))
@example((Fraction(1, 2), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 3), Fraction(0)))
@example((Fraction(1, 2), Fraction(0), Fraction(1, 7)), (Fraction(0), Fraction(1, 3), Fraction(1)))
def test_meets_iff_the_meet_is_not_zero(a, b):
    """``_meets`` answers ``s /\\ t != 0`` without building the meet, on
    one scale or two."""
    s, t = FiniteFuzzySet(UVW, a), FiniteFuzzySet(UVW, b)
    assert s._meets(t) == (not s._meet(t).is_zero()) == t._meets(s)
