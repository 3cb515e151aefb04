"""Tests for the 25/50/75/100 % size-class allocator (paper §III-C)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.allocator import SizeClassAllocator, SlotClass


def reference_class_for(al, payload, orig):
    """``class_for`` as a fresh :class:`SlotClass` per call, rounding
    each class of ``al`` to ``orig`` on the spot."""
    for c in al.classes:
        if payload <= int(round(c.fraction * orig)):
            return SlotClass(c.fraction, int(round(c.fraction * orig)))
    return SlotClass(1.0, orig)


class TestClassSelection:
    @pytest.mark.parametrize(
        "payload,expected",
        [
            (0, 1024),
            (1, 1024),
            (1024, 1024),
            (1025, 2048),
            (2048, 2048),
            (2049, 3072),
            (3072, 3072),
            (3073, 4096),
            (4096, 4096),
            (9999, 4096),  # grew beyond original: stored raw
        ],
    )
    def test_boundaries(self, payload, expected):
        assert SizeClassAllocator().class_for(payload).nbytes == expected

    def test_paper_worked_example(self):
        """§III-C: 4096B block -> 1562B and later 2008B compressed forms."""
        al = SizeClassAllocator()
        assert al.class_for(1562).nbytes == 2048
        assert al.class_for(2008).nbytes == 2048

    def test_merged_run_scaling(self):
        al = SizeClassAllocator()
        cls = al.class_for(5000, original_size=16384)
        assert cls.nbytes == 8192  # 50% of 16 KB
        assert cls.fraction == 0.5

    def test_incompressible_threshold(self):
        al = SizeClassAllocator()
        assert al.incompressible_threshold == 3072
        assert al.incompressible_fraction == 0.75

    def test_custom_fractions(self):
        al = SizeClassAllocator(fractions=(0.5, 1.0))
        assert al.class_for(100).nbytes == 2048
        assert al.incompressible_threshold == 2048

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            SizeClassAllocator().class_for(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeClassAllocator(fractions=(0.25, 0.5))  # no 1.0 class
        with pytest.raises(ValueError):
            SizeClassAllocator(fractions=(0.5, 0.5, 1.0))  # duplicate
        with pytest.raises(ValueError):
            SizeClassAllocator(block_size=0)
        for bad in (0, -4096):
            with pytest.raises(ValueError, match="original size"):
                SizeClassAllocator().class_for(10, bad)


class TestAllocateFree:
    def test_allocate_tracks_physical_bytes(self):
        al = SizeClassAllocator()
        al.allocate("a", 1500)
        assert al.physical_bytes == 2048
        assert al.live_physical_bytes == 2048
        assert al.live_payload_bytes == 1500

    def test_free_recycles(self):
        al = SizeClassAllocator()
        al.allocate("a", 1500)
        al.free("a")
        al.allocate("b", 1800)  # same 2048 class: recycled, no new space
        assert al.physical_bytes == 2048
        assert al.stats.recycled == 1

    def test_reallocate_same_key_frees_old(self):
        al = SizeClassAllocator()
        al.allocate("a", 900)
        al.allocate("a", 2500)
        assert al.live_slots == 1
        assert al.lookup("a")[0].nbytes == 3072

    def test_free_missing_returns_false(self):
        assert not SizeClassAllocator().free("ghost")

    def test_internal_fragmentation_accounting(self):
        al = SizeClassAllocator()
        al.allocate("a", 1500)  # slot 2048 -> frag 548
        assert al.stats.internal_fragmentation == 548
        al.free("a")
        assert al.stats.internal_fragmentation == 0

    def test_class_histogram(self):
        al = SizeClassAllocator()
        al.allocate("a", 500)
        al.allocate("b", 1500)
        al.allocate("c", 1600)
        hist = al.class_histogram()
        assert hist[0.25] == 1
        assert hist[0.5] == 2
        assert hist[1.0] == 0

    def test_lookup(self):
        al = SizeClassAllocator()
        assert al.lookup("a") is None
        al.allocate("a", 700)
        cls, stored = al.lookup("a")
        assert cls.nbytes == 1024
        assert stored == 700


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=5000),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_alloc_free_invariants(self, ops):
        al = SizeClassAllocator()
        live = {}
        for key, payload in ops:
            if payload % 3 == 0 and key in live:
                al.free(key)
                del live[key]
            else:
                cls = al.allocate(key, payload)
                assert payload <= cls.nbytes or cls.fraction == 1.0
                live[key] = cls.nbytes
        assert al.live_slots == len(live)
        assert al.live_physical_bytes == sum(live.values())
        # Physical bytes never exceed what allocations claimed in total.
        assert al.physical_bytes >= al.live_physical_bytes

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["alloc", "alloc", "free"]),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=9000),
                st.sampled_from([None, 4096, 8192, 12288, 16384]),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_maintained_terms_equal_the_walk(self, ops):
        """Over allocate, re-allocate of a live key, free, merged-run
        original sizes and recycled slots, every running term equals
        what a walk of the live slots recomputes."""
        al = SizeClassAllocator()
        logical = {}
        for op, key, payload, original in ops:
            if op == "free":
                al.free(key)
                logical.pop(key, None)
            else:
                al.allocate(key, payload, original)
                logical[key] = 4096 if original is None else original
            slots = list(al.live_items())
            slack, count = {}, {}
            for _key, cls, stored in slots:
                slack[cls.fraction] = slack.get(cls.fraction, 0) + cls.nbytes - stored
                count[cls.fraction] = count.get(cls.fraction, 0) + 1
            assert al.live_payload_bytes == sum(s for _k, _c, s in slots)
            assert al.live_physical_bytes == sum(c.nbytes for _k, c, _s in slots)
            assert al.stats.internal_fragmentation == sum(slack.values())
            assert al.live_logical_bytes == sum(logical.values())
            assert {f: n for f, n in al.slack_by_class().items() if n} == {
                f: n for f, n in slack.items() if n}
            assert {f: n for f, n in al.class_histogram().items() if n} == count
            assert al.physical_bytes == al.live_physical_bytes + al.free_slot_bytes
        assert al.stats.recycled <= al.stats.allocations

    @given(st.integers(min_value=0, max_value=8192), st.integers(min_value=512, max_value=65536))
    @settings(max_examples=100, deadline=None)
    def test_class_always_fits_or_is_full(self, payload, original):
        al = SizeClassAllocator()
        cls = al.class_for(payload, original_size=original)
        assert cls.nbytes <= original
        if payload <= original * 0.75:
            assert payload <= cls.nbytes

    @given(st.integers(min_value=0, max_value=4096))
    @settings(max_examples=100, deadline=None)
    def test_smallest_fitting_class(self, payload):
        al = SizeClassAllocator()
        cls = al.class_for(payload)
        smaller = [c for c in al.classes if c.nbytes < cls.nbytes]
        for c in smaller:
            assert payload > c.nbytes


class TestSharedClasses:
    """``class_for`` returns shared classes, equal to fresh ones."""

    FRACTIONS = st.sampled_from([
        (0.25, 0.50, 0.75, 1.0), (0.3, 1.0), (0.1, 0.333, 0.9, 1.0), (1.0,),
    ])

    @given(FRACTIONS, st.sampled_from([512, 4096, 4100]),
           st.integers(1, 16), st.integers(0, 70_000))
    @settings(max_examples=300, deadline=None)
    def test_same_class_as_the_formula(self, fractions, block, blocks, payload):
        # single blocks, merged runs up to 16 blocks, and payloads above
        # the original (incompressible data that grew)
        al = SizeClassAllocator(block, fractions)
        orig = block * blocks
        payload = min(payload, 2 * orig + 1)
        for _ in range(2):  # the cached answer equals the first one
            got = al.class_for(payload, orig)
            want = reference_class_for(al, payload, orig)
            assert (got.fraction, got.nbytes) == (want.fraction, want.nbytes)
        if blocks == 1:
            assert al.class_for(payload) == want

    def test_classes_are_shared(self):
        al = SizeClassAllocator()
        assert al.class_for(100) is al.classes[0]
        assert al.class_for(3000, 8192) is al.class_for(2500, 8192)
        assert al.class_for(9000, 8192) is al.class_for(8192, 8192)
