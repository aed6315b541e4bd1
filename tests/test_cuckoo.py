"""Cuckoo filter: no false negatives, bounded FPR, delete, test-and-set, persistence."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heroshi_ray.state.cuckoo import CuckooFilter


def keys_of(n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**63, size=n, dtype=np.uint64) * np.uint64(2) + np.uint64(seed % 2)


def test_no_false_negatives():
    cf = CuckooFilter(20_000)
    keys = keys_of(15_000, 1)
    cf.add_many(keys)
    assert cf.contains_many(keys).all()


def test_fpr_bounded():
    cf = CuckooFilter(50_000)
    cf.add_many(keys_of(40_000, 2))
    probe = keys_of(200_000, 3)
    fpr = cf.contains_many(probe).mean()
    assert fpr <= 2e-3, fpr  # design point 1.2e-4; allow slack


def test_add_if_absent_exactly_once():
    cf = CuckooFilter(10_000)
    keys = keys_of(1000, 4)
    first = cf.add_if_absent_many(keys)
    assert first.all()
    again = cf.add_if_absent_many(keys)
    assert not again.any()
    # duplicates inside one call admitted once
    cf2 = CuckooFilter(1000)
    dup = np.array([7, 7, 7, 9], dtype=np.uint64)
    m = cf2.add_if_absent_many(dup)
    assert m.tolist() == [True, False, False, True]


def test_delete():
    cf = CuckooFilter(10_000)
    keys = keys_of(500, 5)
    cf.add_many(keys)
    deleted = cf.delete_many(keys[:100])
    assert deleted.all()
    assert not cf.contains_many(keys[:100]).any() or cf.contains_many(keys[:100]).mean() < 0.05
    assert cf.contains_many(keys[100:]).all()


def _assert_same_filter(a, b):
    assert b.m == a.m
    assert b.count == a.count
    assert b.buckets.dtype == a.buckets.dtype
    assert np.array_equal(b.buckets, a.buckets)
    assert b._rng.bit_generator.state == a._rng.bit_generator.state


def test_roundtrip_bytes():
    cf = CuckooFilter(5_000)
    keys = keys_of(3_000, 6)
    cf.add_many(keys)
    cf2 = CuckooFilter.from_bytes(cf.to_bytes())
    assert cf2.contains_many(keys).all()
    _assert_same_filter(cf, cf2)
    # empty filter
    empty = CuckooFilter(1_000)
    _assert_same_filter(empty, CuckooFilter.from_bytes(empty.to_bytes()))
    # high load, after evictions have drawn from the kick RNG
    full = CuckooFilter(4096)
    full.add_many(keys_of(int(0.85 * full.m * 4), 7))
    assert full.load_factor > 0.8
    fresh = CuckooFilter(4096)._rng.bit_generator.state
    assert full._rng.bit_generator.state != fresh
    _assert_same_filter(full, CuckooFilter.from_bytes(full.to_bytes()))


def test_snapshot_size_follows_count_not_capacity():
    """A snapshot costs what the filter holds: 100 keys in a 16 MiB
    bucket array serialize to a few KB."""
    cf = CuckooFilter(1 << 22)
    cf.add_many(keys_of(100, 8))
    assert cf.count == 100
    assert len(cf.to_bytes()) <= 16 * cf.count + 4096


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=200))
def test_prop_membership(xs):
    cf = CuckooFilter(4096)
    arr = np.array(xs, dtype=np.uint64)
    cf.add_many(arr)
    assert cf.contains_many(arr).all()
