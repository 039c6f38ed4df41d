import pytest
from hypothesis import given
from hypothesis import strategies as st

from valsym.domains import DomainSet, copy_domains


def test_construction_and_queries():
    d = DomainSet([3, 5, 7])
    assert list(d) == [3, 5, 7]
    assert len(d) == 3
    assert 5 in d and 4 not in d
    assert d.min() == 3 and d.max() == 7
    assert not d.is_singleton
    assert not d.empty


def test_remove_last_value_signals_emptiness():
    d = DomainSet([5])
    assert d.remove(5)
    assert d.empty  # caller must turn this into a failure


def test_singleton_value():
    d = DomainSet([4])
    assert d.is_singleton
    assert d.value() == 4
    with pytest.raises(ValueError):
        DomainSet([1, 2]).value()


def test_full_and_assign():
    d = DomainSet.full(5)
    assert list(d) == [0, 1, 2, 3, 4]
    assert d.assign(2)
    assert d.is_singleton and d.value() == 2
    assert not d.assign(2)  # already there


def test_bound_removals():
    d = DomainSet(range(10))
    assert d.remove_below(3)
    assert d.remove_above(7)
    assert list(d) == [3, 4, 5, 6, 7]
    assert not d.remove_below(0)


def test_copy_is_independent():
    a = DomainSet([1, 2])
    b = a.copy()
    b.remove(1)
    assert list(a) == [1, 2]
    (c,) = copy_domains([a])
    c.remove(2)
    assert list(a) == [1, 2]


def test_negative_value_rejected():
    with pytest.raises(ValueError):
        DomainSet([-1])


@given(st.sets(st.integers(min_value=0, max_value=30)), st.integers(min_value=0, max_value=30))
def test_matches_python_sets(values, v):
    d = DomainSet(values)
    assert set(d) == values
    assert (v in d) == (v in values)
    changed = d.remove(v)
    assert changed == (v in values)
    assert set(d) == values - {v}


@given(
    st.sets(st.integers(min_value=0, max_value=30), min_size=1),
    st.sets(st.integers(min_value=0, max_value=30)),
)
def test_keep_only_intersection(values, keep):
    d = DomainSet(values)
    changed = d.keep_only(keep)
    assert set(d) == values & keep
    assert changed == (values != values & keep)
