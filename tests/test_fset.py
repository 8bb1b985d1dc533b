from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftop import (
    BackendMismatchError,
    FiniteFuzzySet,
    FtopError,
    PLFuzzySet,
    Universe,
    UniverseMismatchError,
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
