"""The seeded stream is NumPy's ``default_rng(SeedSequence(seed, spawn_key))``.

The golden draws pin the stream without NumPy; the property compares it
with NumPy draw for draw where NumPy is installed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhwsim.rng import Rng

# (seed, spawn key) -> random(), integers(10), permutation(6),
# integers(2**40), uniform(3.2, 8.2), drawn in that order.  integers(10)
# uses the low half of a 64-bit output and permutation(6) starts on the
# high half.
GOLDEN = {
    (0, ()): (0.6369616873214543, 5, [2, 4, 3, 1, 5, 0], 894200084524,
              7.763777886388608),
    (1, (0,)): (0.6990345474368357, 8, [4, 5, 0, 1, 3, 2], 106499930978,
                7.262891443520724),
    (9001, (1, 2)): (0.5713310432707295, 5, [5, 1, 3, 2, 4, 0], 159853597155,
                     4.138608953355604),
    (2**64 + 5, (2**33,)): (0.22719312489149013, 7, [0, 3, 5, 4, 1, 2],
                            42469824768, 8.073569531936858),
}


@pytest.mark.parametrize("seed, key", sorted(GOLDEN))
def test_golden_first_draws(seed, key):
    rng = Rng(seed, *key)
    assert (rng.random(), rng.integers(10), rng.permutation(6),
            rng.integers(2**40), rng.uniform(3.2, 8.2)) == GOLDEN[seed, key]


def test_negative_seed_or_key_is_rejected():
    for seed, key in ((-1, ()), (0, (-1,)), (3, (1, -2))):
        with pytest.raises(ValueError, match="non-negative"):
            Rng(seed, *key)


def test_empty_or_too_wide_range_is_rejected():
    rng = Rng(0)
    for low, high in ((0, None), (5, 5), (5, 4), (0, 2**64 + 1)):
        with pytest.raises(ValueError, match="range"):
            rng.integers(low, high)


# Spans high - low at and around the 32-bit boundary, where the draw
# switches from 32 to 64 bits, plus any span up to 2**62.
SPANS = st.one_of(st.sampled_from([1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1,
                                   2**40 + 3]),
                  st.integers(1, 2**62))
DRAW = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(0, 1e6)),
    st.tuples(st.just("integers"), st.integers(-2**31, 2**31), SPANS),
    st.tuples(st.just("permutation"), st.integers(0, 12)),
)
SEEDS = st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                  st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**130))
KEYS = st.lists(st.integers(0, 2**70), max_size=3)


def _draw(rng, op):
    name, *args = op
    if name == "integers":
        low, span = args
        return int(rng.integers(low, low + span))
    if name == "uniform":
        low, width = args
        return rng.uniform(low, low + width)
    if name == "permutation":
        return [int(i) for i in rng.permutation(*args)]
    return getattr(rng, name)(*args)


def test_stream_matches_numpy():
    np = pytest.importorskip("numpy")

    @settings(max_examples=400, deadline=None)
    @given(SEEDS, KEYS, st.lists(DRAW, min_size=1, max_size=40))
    def check(seed, key, ops):
        ours = Rng(seed, *key)
        theirs = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
        for op in ops:
            assert _draw(ours, op) == _draw(theirs, op), op

    check()
