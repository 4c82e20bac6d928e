import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punctrl.seeding import BLOCK, BlockDraws, check_seed, substream

# 2**31 + 1 rejects about half its 32-bit draws, so it runs the rejection loop;
# 2**32 takes whole 32-bit draws
SPANS = (1, 2, 3, 7, 2**31 + 1, 2**32)


class TestSubstreams:
    def test_same_seed_and_name_reproduce(self):
        a = substream(42, "env").random(8)
        b = substream(42, "env").random(8)
        assert np.array_equal(a, b)

    def test_streams_are_independent_of_creation_order(self):
        # drawing from one stream never perturbs another
        lone = substream(7, "env").random(5)
        first = substream(7, "action")
        first.random(100)
        again = substream(7, "env").random(5)
        assert np.array_equal(lone, again)

    def test_distinct_names_give_distinct_draws(self):
        a = substream(0, "env").random(4)
        b = substream(0, "action").random(4)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_give_distinct_draws(self):
        a = substream(0, "env").random(4)
        b = substream(1, "env").random(4)
        assert not np.array_equal(a, b)

    def test_u64_bounds(self):
        check_seed(0)
        check_seed(2**64 - 1)
        with pytest.raises(ValueError):
            check_seed(-1)
        with pytest.raises(ValueError):
            check_seed(2**64)
        with pytest.raises(ValueError):
            check_seed(1.5)


# None is a random() call, (low, span) an integers(low, low + span) call
CALLS = st.lists(st.one_of(st.none(), st.tuples(st.integers(-2**40, 2**40), st.sampled_from(SPANS))),
                 max_size=30)


class TestBlockDraws:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), calls=CALLS, held_half=st.booleans())
    def test_equals_numpy_call_for_call(self, seed, calls, held_half):
        reference = np.random.default_rng(seed)
        wrapped = np.random.default_rng(seed)
        if held_half:
            # PCG64 now holds the high half of a word for the next 32-bit draw
            assert reference.integers(0, 5) == wrapped.integers(0, 5)
        reader = BlockDraws(wrapped)
        calls = calls + [None]  # every cycle reads at least one word
        words = 0.0  # a lower bound on the raw words read so far
        while words <= 2 * BLOCK + 1:
            for call in calls:
                if call is None:
                    expected, got = reference.random(), reader.random()
                    words += 1
                else:
                    low, span = call
                    expected = int(reference.integers(low, low + span))
                    got = reader.integers(low, low + span)
                    words += 0.5 if span > 1 else 0
                assert type(got) is type(expected)
                assert got == expected

    def test_other_bit_generators_are_refused(self):
        with pytest.raises(ValueError, match="PCG64"):
            BlockDraws(np.random.Generator(np.random.MT19937(0)))

    @pytest.mark.parametrize("span", [0, -1, 2**32 + 1])
    def test_spans_outside_numpys_32_bit_rule_are_refused(self, span):
        with pytest.raises(ValueError, match="high - low"):
            BlockDraws(np.random.default_rng(0)).integers(5, 5 + span)

    def test_span_one_draws_nothing(self):
        reader = BlockDraws(np.random.default_rng(3))
        assert reader.integers(9, 10) == 9
        assert reader.random() == np.random.default_rng(3).random()

    @pytest.mark.parametrize("held_half", [False, True])
    @pytest.mark.parametrize("pattern", ["random", "alternating"])
    @pytest.mark.parametrize("k", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_boundary_equals_numpy(self, k, pattern, held_half):
        # the draws after k words straddle the first refill (k = BLOCK - 1),
        # start right at it (k = BLOCK) or follow it (k = BLOCK + 1)
        reference = np.random.default_rng(2024)
        wrapped = np.random.default_rng(2024)
        if held_half:
            assert reference.integers(0, 5) == wrapped.integers(0, 5)
        reader = BlockDraws(wrapped)
        draws = [("random",)] * k
        if pattern == "random":
            draws += [("random",)] * 6
        else:
            # integers takes a fresh word's low half or the held high half
            draws += [("integers", 5, 8), ("random",)] * 6
        for name, *args in draws:
            expected = getattr(reference, name)(*args)
            if name == "integers":
                expected = int(expected)
            got = getattr(reader, name)(*args)
            assert type(got) is type(expected)
            assert got == expected
