from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftop import (
    ONE,
    ZERO,
    BackendMismatchError,
    FiniteFuzzySet,
    FtopError,
    GridSpec,
    PLFuzzySet,
    Universe,
    UniverseMismatchError,
    as_degree,
    enumerate_grid_sets,
    generate,
    grid_degrees,
    inf_family,
    join_family,
)

from helpers import AB, M1, M2, ONE2, ZERO2, fs

degrees = st.builds(
    lambda n, d: Fraction(min(n, d), d),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=12),
)
pair_sets = st.builds(fs, degrees, degrees)


def test_universe_rejects_bad_labels():
    with pytest.raises(ValueError):
        Universe.of()
    with pytest.raises(ValueError):
        Universe.of("a", "a")
    with pytest.raises(ValueError):
        Universe.of("a", "")


def test_universe_lookup():
    assert len(AB) == 2
    assert "a" in AB and "c" not in AB
    assert [AB.index(label) for label in AB] == [0, 1]
    with pytest.raises(KeyError, match="label 'z' not in universe"):
        AB.index("z")
    assert AB == Universe.of("a", "b") and hash(AB) == hash(Universe.of("a", "b"))


def test_universe_membership_is_a_label_lookup():
    """Membership answers from the label positions; an unhashable value is
    not a label, as a scan of the label tuple would say."""
    assert [] not in AB and "c" not in AB and {} not in AB and 0 not in AB
    assert all(label in AB for label in AB.labels)


def test_of_mapping_requires_exact_label_cover():
    assert FiniteFuzzySet.of(AB, {"a": "1/2", "b": 0}) == fs("1/2", 0)
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
    with pytest.raises(ValueError):
        join_family([])


class TestLatticeLaws:
    @given(pair_sets, pair_sets)
    def test_commutativity(self, s, t):
        """s∨t = t∨s and s∧t = t∧s."""
        assert s.join(t) == t.join(s)
        assert s.meet(t) == t.meet(s)

    @given(pair_sets, pair_sets, pair_sets)
    def test_associativity(self, s, t, u):
        """(s∨t)∨u = s∨(t∨u), dually for meet."""
        assert s.join(t).join(u) == s.join(t.join(u))
        assert s.meet(t).meet(u) == s.meet(t.meet(u))

    @given(pair_sets, pair_sets)
    def test_absorption(self, s, t):
        """s∨(s∧t) = s = s∧(s∨t)."""
        assert s.join(s.meet(t)) == s
        assert s.meet(s.join(t)) == s

    @given(pair_sets, pair_sets)
    def test_de_morgan(self, s, t):
        """1−(s∨t) = (1−s)∧(1−t)."""
        assert s.join(t).complement() == s.complement().meet(t.complement())

    @given(pair_sets, pair_sets)
    def test_results_pass_the_constructor_checks(self, s, t):
        """Lattice results are built unchecked; the public checks accept them."""
        for result in (s.join(t), s.meet(t), s.complement()):
            assert FiniteFuzzySet(result.universe, result.degrees) == result

    @given(pair_sets)
    def test_complement_involution(self, s):
        """1−(1−s) = s."""
        assert s.complement().complement() == s

    @given(pair_sets, pair_sets)
    def test_order_agrees_with_join(self, s, t):
        """s ≤ t iff s∨t = t."""
        assert s.leq(t) == (s.join(t) == t)

    @given(pair_sets, st.lists(pair_sets, max_size=5))
    def test_many_folds_match_binary(self, s, others):
        """Variadic join/meet equal the binary folds."""
        expected_join, expected_meet = s, s
        for t in others:
            expected_join = expected_join.join(t)
            expected_meet = expected_meet.meet(t)
        assert s.join(*others) == expected_join
        assert s.meet(*others) == expected_meet


def test_ordering_key_sorts_pointwise_lexicographically():
    assert sorted([ONE2, M2, ZERO2, M1], key=lambda s: s.sort_key()) == [
        ZERO2,
        M1,
        M2,
        ONE2,
    ]


# --- the integer representation against the Fraction-based original -------
#
# ``ReferenceFiniteFuzzySet`` is the Fraction-based ``FiniteFuzzySet`` as it
# stood before sets held integer numerators over one scale, copied verbatim
# with only the class and ``_trusted`` renamed.

@dataclass(frozen=True)
class ReferenceFiniteFuzzySet:
    """A fuzzy set over a finite universe, one exact degree per point.

    Structural equality is semantic equality: two sets are equal iff they
    share a universe and agree at every point.
    """

    universe: Universe
    degrees: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.degrees) != len(self.universe):
            raise ValueError(
                f"{len(self.degrees)} degrees for universe of size {len(self.universe)}"
            )
        for value in self.degrees:
            if not isinstance(value, Fraction) or value < ZERO or value > ONE:
                raise ValueError(f"invalid degree {value!r}; use as_degree()")

    @classmethod
    def of(cls, universe: Universe, degrees: Mapping[str, object] | Iterable[object]) -> "ReferenceFiniteFuzzySet":
        """Build from a label mapping or an iterable in universe order.

        Values go through :func:`ftop.degrees.as_degree`, so ints, strings
        like ``"1/2"``, and Fractions are all accepted; floats are not.
        """
        if isinstance(degrees, Mapping):
            missing = [label for label in universe if label not in degrees]
            if missing:
                raise KeyError(f"missing degrees for labels {missing}")
            extra = [label for label in degrees if label not in universe]
            if extra:
                raise KeyError(f"degrees given for unknown labels {extra}")
            values = tuple(as_degree(degrees[label]) for label in universe)
        else:
            values = tuple(as_degree(value) for value in degrees)
        return cls(universe, values)

    @classmethod
    def constant(cls, universe: Universe, value: object) -> "ReferenceFiniteFuzzySet":
        degree = as_degree(value)
        return cls(universe, (degree,) * len(universe))

    @classmethod
    def zero(cls, universe: Universe) -> "ReferenceFiniteFuzzySet":
        return cls(universe, (ZERO,) * len(universe))

    @classmethod
    def one(cls, universe: Universe) -> "ReferenceFiniteFuzzySet":
        return cls(universe, (ONE,) * len(universe))

    def at(self, label: str) -> Fraction:
        return self.degrees[self.universe.index(label)]

    def by_label(self) -> dict[str, Fraction]:
        return dict(zip(self.universe.labels, self.degrees))

    def _require_compatible(self, other: object) -> None:
        """Raise unless ``other`` is a finite set over the same universe."""
        if not isinstance(other, ReferenceFiniteFuzzySet):
            raise BackendMismatchError(f"expected FiniteFuzzySet, got {type(other).__name__}")
        if other.universe is not self.universe and other.universe != self.universe:
            raise UniverseMismatchError(
                f"universes differ: {self.universe.labels} vs {other.universe.labels}"
            )

    def complement(self) -> "ReferenceFiniteFuzzySet":
        return reference_trusted(self.universe, tuple(ONE - value for value in self.degrees))

    def _pointwise(self, op, others: tuple["ReferenceFiniteFuzzySet", ...]) -> "ReferenceFiniteFuzzySet":
        columns = [self.degrees]
        for other in others:
            self._require_compatible(other)
            columns.append(other.degrees)
        return reference_trusted(self.universe, tuple(map(op, *columns))) if others else self

    def meet(self, *others: "ReferenceFiniteFuzzySet") -> "ReferenceFiniteFuzzySet":
        """Pointwise minimum of self and every set in ``others``, in one pass."""
        return self._pointwise(min, others)

    def join(self, *others: "ReferenceFiniteFuzzySet") -> "ReferenceFiniteFuzzySet":
        """Pointwise maximum of self and every set in ``others``, in one pass."""
        return self._pointwise(max, others)

    def leq(self, other: "ReferenceFiniteFuzzySet") -> bool:
        """Pointwise order: true iff ``self(x) <= other(x)`` everywhere."""
        self._require_compatible(other)
        return all(a <= b for a, b in zip(self.degrees, other.degrees))

    def is_zero(self) -> bool:
        return all(value == ZERO for value in self.degrees)

    def support(self) -> tuple[str, ...]:
        """Labels with strictly positive degree."""
        return tuple(
            label for label, value in zip(self.universe.labels, self.degrees) if value > ZERO
        )

    def bottom(self) -> "ReferenceFiniteFuzzySet":
        return ReferenceFiniteFuzzySet.zero(self.universe)

    def top(self) -> "ReferenceFiniteFuzzySet":
        return ReferenceFiniteFuzzySet.one(self.universe)

    def sort_key(self) -> tuple[Fraction, ...]:
        return self.degrees

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{label}: {value}" for label, value in zip(self.universe.labels, self.degrees)
        )
        return f"FiniteFuzzySet({{{inside}}})"


def reference_trusted(universe: Universe, degrees: tuple[Fraction, ...]) -> ReferenceFiniteFuzzySet:
    """Build a set from degrees already known valid, skipping ``__post_init__``.

    Only values valid by construction come through here: lattice results
    (min, max and ``1 - v`` of degrees in ``[0, 1]`` stay in ``[0, 1]``),
    grid sets of ``oracle.enumerate_grid_sets`` and the preimages and
    images of ``functions.FuzzyFunction``, one degree per point each.
    """
    value = object.__new__(ReferenceFiniteFuzzySet)
    object.__setattr__(value, "universe", universe)
    object.__setattr__(value, "degrees", degrees)
    return value


UVW = Universe.of("u", "v", "w")

# Denominators up to 12, 7 and 11 included, so that sets on one universe
# mix scales with no common factor.
mixed_degrees = st.integers(min_value=1, max_value=12).flatmap(
    lambda q: st.integers(min_value=0, max_value=q).map(lambda p: Fraction(p, q))
)


@st.composite
def set_pairs(draw, size=None):
    """A set and its reference twin, built from the same degrees."""
    universe = UVW if size is None else Universe(UVW.labels[:size])
    degrees = tuple(draw(mixed_degrees) for _ in universe)
    return FiniteFuzzySet(universe, degrees), ReferenceFiniteFuzzySet(universe, degrees)


def assert_same_set(value, reference):
    """``value`` reads like ``reference`` and is canonical: it equals and
    hashes like its rebuild through the public constructor."""
    assert value.degrees == reference.degrees
    assert value.sort_key() == reference.sort_key()
    assert repr(value) == repr(reference)
    assert value.by_label() == reference.by_label()
    assert [value.at(x) for x in value.universe] == [reference.at(x) for x in reference.universe]
    assert value.support() == reference.support()
    assert value.is_zero() == reference.is_zero()
    rebuilt = FiniteFuzzySet(value.universe, reference.degrees)
    assert rebuilt == value and hash(rebuilt) == hash(value)
    assert rebuilt.scale == value.scale and rebuilt.nums == value.nums


class TestIntegerRepresentationMatchesReference:
    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(set_pairs(n), min_size=1, max_size=4)
    ))
    @example([
        (fs("1/2", "1/3"), ReferenceFiniteFuzzySet(AB, (Fraction(1, 2), Fraction(1, 3)))),
        (fs(0, 0), ReferenceFiniteFuzzySet(AB, (ZERO, ZERO))),
    ])
    @example([  # one scale, 6, whose join reduces to halves
        (fs("1/2", "1/3"), ReferenceFiniteFuzzySet(AB, (Fraction(1, 2), Fraction(1, 3)))),
        (fs("1/6", "1/2"), ReferenceFiniteFuzzySet(AB, (Fraction(1, 6), Fraction(1, 2)))),
    ])
    @example([  # scales 6 and 4
        (fs("1/2", "1/3"), ReferenceFiniteFuzzySet(AB, (Fraction(1, 2), Fraction(1, 3)))),
        (fs("3/4", "1/4"), ReferenceFiniteFuzzySet(AB, (Fraction(3, 4), Fraction(1, 4)))),
    ])
    @example([  # scale 2 divides scale 6, so their lcm is the first scale
        (fs("1/2", "1/3"), ReferenceFiniteFuzzySet(AB, (Fraction(1, 2), Fraction(1, 3)))),
        (fs("1/2", 1), ReferenceFiniteFuzzySet(AB, (Fraction(1, 2), ONE))),
    ])
    def test_operations_agree(self, pairs):
        """meet/join with 1-4 arguments, leq both ways, complement and the
        read-outs agree with the reference, and every result is canonical.
        Every binary meet and join, on one scale or two, also agrees with
        the reference and with the same operation given the other set
        twice, which takes the general n-ary path."""
        values = [value for value, _ in pairs]
        references = [reference for _, reference in pairs]
        first, ref_first = values[0], references[0]
        results = [
            (first.meet(*values[1:]), ref_first.meet(*references[1:])),
            (first.join(*values[1:]), ref_first.join(*references[1:])),
            *((value.complement(), reference.complement()) for value, reference in pairs),
            *pairs,
        ]
        for value, reference in results:
            assert_same_set(value, reference)
        for (s, rs), (t, rt) in product(pairs, repeat=2):
            assert s.leq(t) == rs.leq(rt)
            assert (s == t) == (rs == rt)
            for binary, general, reference in (
                (s.meet(t), s.meet(t, t), rs.meet(rt)),
                (s.join(t), s.join(t, t), rs.join(rt)),
            ):
                assert_same_set(binary, reference)
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
        expected = product(grid_degrees(k), repeat=size)
        for value, degrees in zip(enumerate_grid_sets(spec), expected, strict=True):
            assert_same_set(value, ReferenceFiniteFuzzySet(value.universe, degrees))

    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(
                st.lists(set_pairs(n), max_size=3), st.lists(set_pairs(n), min_size=1, max_size=4)
            )
        )
    )
    def test_interior_and_closure_agree(self, subbasis_and_queries):
        """The kernel's integer thresholds select what the reference fold does:
        the join of the members below ``s``, and below ``1 - s`` for closure."""
        subbasis, queries = subbasis_and_queries
        universe = queries[0][0].universe
        space = generate([value for value, _ in subbasis], universe=universe)
        members = [ReferenceFiniteFuzzySet(universe, m.degrees) for m in space.members]
        bottom = ReferenceFiniteFuzzySet.zero(universe)
        for value, reference in queries:
            inner = bottom.join(*[m for m in members if m.leq(reference)])
            outer = bottom.join(*[m for m in members if m.leq(reference.complement())])
            assert space.interior(value).degrees == inner.degrees
            assert space.closure(value).degrees == outer.complement().degrees


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
