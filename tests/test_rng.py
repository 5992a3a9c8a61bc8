"""Tests for the pinned deterministic randomness primitives.

The stream constants are load-bearing: frozen fixtures elsewhere in the
suite assume the exact splitmix64 output sequence, the multiply-shift
bounded draw, and the front-to-back Fisher-Yates pattern.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from houseswap.rng import (
    _FILL,
    ShuffledRange,
    SplitMix64,
    _draw_block,
    fisher_yates,
)
from reference import ScalarSplitMix64, scalar_fisher_yates

# Independently published test vector for splitmix64 seeded with 0.
SEED0_VECTOR = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


# sha256 of repr([ShuffledRange(600, s)[k] for s in range(8) for k in
# range(600)]): eight full permutations, frozen.
FULL_PERMUTATIONS_SHA256 = (
    "5622514c61616ce6a8da2613b5c9784b50dc601612841ef528a26da95b409760"
)


def _sha256(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


class TestSplitMix64:
    def test_seed0_reference_vector(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(5)] == SEED0_VECTOR

    def test_seed_reduced_mod_2_64(self):
        assert SplitMix64(1 << 64).next_u64() == SEED0_VECTOR[0]

    def test_streams_with_same_seed_agree(self):
        a, b = SplitMix64(777), SplitMix64(777)
        assert [a.next_u64() for _ in range(20)] == [
            b.next_u64() for _ in range(20)
        ]

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 1000))
    def test_below_in_range(self, seed, n):
        rng = SplitMix64(seed)
        for _ in range(10):
            assert 0 <= rng.below(n) < n

    def test_below_one_is_zero(self):
        rng = SplitMix64(3)
        assert all(rng.below(1) == 0 for _ in range(8))

    def test_below_consumes_one_draw(self):
        a, b = SplitMix64(5), SplitMix64(5)
        a.below(17)
        b.next_u64()
        assert a.state == b.state


SEEDS = st.one_of(
    st.integers(0, 2**64 - 1), st.integers(2**64 - 5000, 2**64 - 1)
)

# One operation on a stream: a run of ``next_u64`` draws (long runs cross
# several buffer refills), a bounded draw, an assignment to ``state`` or a
# ``fisher_yates`` shuffle of ``range(n)``.
STREAM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("next"), st.integers(1, 700)),
        st.tuples(st.just("below"), st.integers(1, 2**64)),
        st.tuples(st.just("assign"), SEEDS),
        st.tuples(st.just("shuffle"), st.integers(0, 700)),
    ),
    max_size=10,
)


class TestBufferedStream:
    @given(SEEDS, STREAM_OPS)
    @example(
        2**64 - 1,
        [("next", 5), ("shuffle", 3), ("next", 700), ("below", 7),
         ("assign", 2**64 - 2), ("next", 300), ("shuffle", 600), ("next", 9)],
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_reference(self, seed, ops):
        rng, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        for op, arg in ops:
            if op == "next":
                got = [rng.next_u64() for _ in range(arg)]
                want = [ref.next_u64() for _ in range(arg)]
            elif op == "below":
                got, want = rng.below(arg), ref.below(arg)
            elif op == "assign":
                rng.state = ref.state = arg
                got = want = None
            else:
                got = fisher_yates(list(range(arg)), rng)
                want = scalar_fisher_yates(list(range(arg)), ref)
            assert got == want
            assert rng.state == ref.state

    def test_pending_draws_are_bounded_and_freed_by_assignment(self):
        rng = SplitMix64(3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10_000):
                rng.next_u64()
            pending = len(rng._pending)
            retained = tracemalloc.get_traced_memory()[0] - before
            rng.state = rng.state
            after_assign = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 0 < pending <= _FILL
        assert retained < 16 * 1024
        assert after_assign < 1024


class TestDrawBlock:
    @given(
        SEEDS,
        st.one_of(st.sampled_from([0, 1, 2, 600, 4097]), st.integers(0, 700)),
    )
    @example(2**64 - 1, 1)  # the stream state wraps after the first draw
    @example(2**64 - 1, 3)
    @example(7, 2)  # short lane runs: 251-255 spare lanes shifted away
    @example(7, 3)
    @example(7, 4)
    @example(7, 5)
    @settings(max_examples=80, deadline=None)
    def test_equals_successive_next_u64(self, seed, count):
        rng = ScalarSplitMix64(seed)
        draws, state = _draw_block(rng.state, count)
        assert list(draws) == [rng.next_u64() for _ in range(count)]
        assert state == rng.state


class TestFisherYates:
    def test_frozen_permutation(self):
        assert fisher_yates(list(range(10)), SplitMix64(99)) == [
            2, 1, 8, 3, 5, 6, 0, 9, 7, 4,
        ]

    def test_shuffles_in_place(self):
        items = list(range(6))
        out = fisher_yates(items, SplitMix64(0))
        assert out is items

    @given(st.integers(0, 2**64 - 1), st.integers(0, 40))
    def test_is_permutation(self, seed, n):
        assert sorted(fisher_yates(list(range(n)), SplitMix64(seed))) == list(
            range(n)
        )

    def test_empty_and_singleton_draw_nothing(self):
        rng = SplitMix64(11)
        fisher_yates([], rng)
        fisher_yates([7], rng)
        assert rng.state == SplitMix64(11).state

    @given(SEEDS, st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reference(self, seed, n):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        assert fisher_yates(list(range(n)), rng) == scalar_fisher_yates(
            list(range(n)), ref
        )
        assert rng.state == ref.state


class TestShuffledRange:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 60))
    @settings(max_examples=60)
    def test_matches_eager_shuffle(self, seed, n):
        assert list(ShuffledRange(n, seed)) == fisher_yates(
            list(range(n)), SplitMix64(seed)
        )

    @given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.randoms())
    @settings(max_examples=40)
    def test_access_order_irrelevant(self, seed, n, rnd):
        # Reading positions out of order must not change any value.
        eager = fisher_yates(list(range(n)), SplitMix64(seed))
        lazy = ShuffledRange(n, seed)
        order = list(range(n))
        rnd.shuffle(order)
        for k in order:
            assert lazy[k] == eager[k]

    def test_negative_index(self):
        lazy = ShuffledRange(10, 99)
        assert lazy[-1] == lazy[9]

    def test_out_of_range_raises(self):
        lazy = ShuffledRange(4, 0)
        with pytest.raises(IndexError):
            lazy[4]
        with pytest.raises(IndexError):
            lazy[-5]

    def test_slice_unsupported(self):
        with pytest.raises(TypeError):
            ShuffledRange(4, 0)[1:3]

    def test_len(self):
        assert len(ShuffledRange(17, 5)) == 17

    def test_equality_by_params(self):
        assert ShuffledRange(8, 3) == ShuffledRange(8, 3)
        assert ShuffledRange(8, 3) != ShuffledRange(8, 4)
        assert ShuffledRange(7, 3) != ShuffledRange(8, 3)
        assert hash(ShuffledRange(8, 3)) == hash(ShuffledRange(8, 3))

    def test_materializes_only_touched_prefix(self):
        lazy = ShuffledRange(10**6, 42)
        lazy[3]
        assert len(lazy._done) == 4

    @given(
        SEEDS,
        st.integers(0, 2000),
        st.lists(
            st.tuples(st.sampled_from(["read", "iterate"]), st.floats(0, 1)),
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_reads_match_scalar_reference(self, seed, n, ops):
        # Short reads run the sparse loop and long ones the dense tail;
        # the closing full read always ends on the dense tail.
        eager = scalar_fisher_yates(list(range(n)), SplitMix64(seed))
        lazy = ShuffledRange(n, seed)
        for op, share in ops:
            k = int(share * n)
            if op == "read" and k < n:
                assert lazy[k] == eager[k]
            else:
                assert list(islice(lazy, k)) == eager[:k]
        assert list(lazy) == eager

    def test_complete_shuffle_keeps_about_a_list(self):
        # The pending-swap dict and the dense tail are dropped once every
        # position is out, so a read list costs about an eager one.
        def retained(build):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = build()
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before, kept
            finally:
                tracemalloc.stop()

        def lazy_lists():
            lists = [ShuffledRange(600, s) for s in range(200)]
            for lazy in lists:
                list(lazy)
            return lists

        lazy_bytes, lazy = retained(lazy_lists)
        eager_bytes, eager = retained(
            lambda: [
                fisher_yates(list(range(600)), SplitMix64(s))
                for s in range(200)
            ]
        )
        assert [list(p) for p in lazy] == eager
        assert lazy_bytes <= 1.2 * eager_bytes


class TestShuffledRangeIteration:
    def test_frozen_permutations_by_index(self):
        values = [ShuffledRange(600, s)[k] for s in range(8) for k in range(600)]
        assert _sha256(values) == FULL_PERMUTATIONS_SHA256

    def test_frozen_permutations_by_list(self):
        values = [x for s in range(8) for x in list(ShuffledRange(600, s))]
        assert _sha256(values) == FULL_PERMUTATIONS_SHA256

    def test_list_after_out_of_order_reads(self):
        eager = fisher_yates(list(range(600)), SplitMix64(5))
        lazy = ShuffledRange(600, 5)
        for k in (417, 3, 599, 0, 250):
            assert lazy[k] == eager[k]
        assert list(lazy) == eager

    def test_indexed_reads_during_iteration(self):
        eager = fisher_yates(list(range(600)), SplitMix64(9))
        lazy = ShuffledRange(600, 9)
        it = iter(lazy)
        got = list(islice(it, 5))
        assert lazy[300] == eager[300]
        got += list(islice(it, 100))
        assert lazy[599] == eager[599]
        got += list(it)
        assert got == eager

    @pytest.mark.parametrize("consumed", [1, 2, 3, 10, 1000, 4097])
    def test_iteration_materializes_about_twice_the_consumed_prefix(
        self, consumed
    ):
        lazy = ShuffledRange(10**6, 42)
        taken = list(islice(iter(lazy), consumed))
        assert taken == [lazy[k] for k in range(consumed)]
        assert len(lazy._done) <= 2 * consumed + 1

    def test_membership_of_first_element_is_constant_work(self):
        lazy = ShuffledRange(10**6, 42)
        assert ShuffledRange(10**6, 42)[0] in lazy
        assert len(lazy._done) <= 3
        assert lazy.index(lazy[0]) == 0
        assert len(lazy._done) <= 3
