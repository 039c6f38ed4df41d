import pytest
from hypothesis import given
from hypothesis import strategies as st

from valsym.domains import DomainSet, copy_domains, mask_of, values_of


def test_construction_and_queries():
    d = DomainSet([3, 5, 7])
    assert list(d) == [3, 5, 7]
    assert len(d) == 3
    assert 5 in d and 4 not in d
    assert d.min() == 3 and d.max() == 7
    assert not d.is_singleton
    assert not d.empty


def test_remove_last_value_signals_emptiness():
    mask = mask_of([5]) & ~(1 << 5)
    assert mask == 0 and list(values_of(mask)) == []
    assert DomainSet.from_mask(mask).empty  # caller must turn this into a failure


def test_singleton_value():
    d = DomainSet([4])
    assert d.is_singleton
    assert d.value() == 4
    with pytest.raises(ValueError):
        DomainSet([1, 2]).value()


def test_full_and_assign():
    d = DomainSet.full(5)
    assert list(d) == [0, 1, 2, 3, 4]
    assigned = d.mask & (1 << 2)  # search assigns by writing the value's bit
    assert DomainSet.from_mask(assigned) == DomainSet.singleton(2)
    assert DomainSet.from_mask(assigned).is_singleton
    assert DomainSet.from_mask(assigned).value() == 2


def test_bound_removals():
    mask = mask_of(range(10))
    mask &= -1 << 3  # drop every value < 3
    mask &= (1 << 8) - 1  # drop every value > 7
    assert list(values_of(mask)) == [3, 4, 5, 6, 7]
    d = DomainSet.from_mask(mask)
    assert (d.min(), d.max()) == (3, 7)


def test_copy_is_independent():
    parent = [mask_of([1, 2]), mask_of([0])]
    child = copy_domains(parent)
    child[0] &= ~(1 << 1)
    assert list(values_of(parent[0])) == [1, 2]
    assert list(values_of(child[0])) == [2]


def test_negative_value_rejected():
    with pytest.raises(ValueError):
        DomainSet([-1])


@given(st.sets(st.integers(min_value=0, max_value=30)), st.integers(min_value=0, max_value=30))
def test_matches_python_sets(values, v):
    mask = mask_of(values)
    assert list(values_of(mask)) == sorted(values)
    d = DomainSet(values)
    assert d.mask == mask and set(d) == values and len(d) == len(values)
    assert (v in d) == (v in values)
    removed = mask & ~(1 << v)
    assert (removed != mask) == (v in values)
    assert set(values_of(removed)) == values - {v}


@given(
    st.sets(st.integers(min_value=0, max_value=30), min_size=1),
    st.sets(st.integers(min_value=0, max_value=30)),
)
def test_keep_only_intersection(values, keep):
    mask = mask_of(values)
    kept = mask & mask_of(keep)
    assert set(values_of(kept)) == values & keep
    assert (kept != mask) == (values != values & keep)
