import pytest
from hypothesis import given
from hypothesis import strategies as st

from valsym.domains import copy_domains, mask_of, values_of


def test_construction_and_queries():
    mask = mask_of([3, 5, 7])
    assert list(values_of(mask)) == [3, 5, 7]
    assert mask.bit_count() == 3
    assert (mask >> 5) & 1 and not (mask >> 4) & 1
    # least and greatest value, as search and the propagators read them
    assert (mask & -mask).bit_length() - 1 == 3 and mask.bit_length() - 1 == 7
    assert mask & (mask - 1)  # more than one value


def test_remove_last_value_signals_emptiness():
    mask = mask_of([5]) & ~(1 << 5)
    assert mask == 0 and list(values_of(mask)) == []  # caller must turn this into a failure


def test_singleton_value():
    mask = mask_of([4])
    assert mask & (mask - 1) == 0  # exactly one value
    assert mask.bit_length() - 1 == 4
    two = mask_of([1, 2])
    assert two & (two - 1) != 0


def test_full_and_assign():
    full = (1 << 5) - 1
    assert full == mask_of(range(5))
    assert list(values_of(full)) == [0, 1, 2, 3, 4]
    assigned = full & (1 << 2)  # search assigns by writing the value's bit
    assert assigned == mask_of([2])
    assert list(values_of(assigned)) == [2]


def test_bound_removals():
    mask = mask_of(range(10))
    mask &= -1 << 3  # drop every value < 3
    mask &= (1 << 8) - 1  # drop every value > 7
    assert list(values_of(mask)) == [3, 4, 5, 6, 7]


def test_copy_is_independent():
    parent = [mask_of([1, 2]), mask_of([0])]
    child = copy_domains(parent)
    child[0] &= ~(1 << 1)
    assert list(values_of(parent[0])) == [1, 2]
    assert list(values_of(child[0])) == [2]


def test_negative_value_rejected():
    with pytest.raises(ValueError):
        mask_of([-1])


@given(st.sets(st.integers(min_value=0, max_value=30)), st.integers(min_value=0, max_value=30))
def test_matches_python_sets(values, v):
    mask = mask_of(values)
    assert list(values_of(mask)) == sorted(values)
    assert mask.bit_count() == len(values)
    assert bool((mask >> v) & 1) == (v in values)
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
