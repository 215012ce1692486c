import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamlb import rng as rngmod

SEEDS = st.one_of(st.sampled_from([0, 1, 2**32, 2**63 - 1, 2**64, 2**64 + 7, 2**130 + 3]),
                  st.integers(0, 2**140))
PATHS = st.lists(st.one_of(st.text(max_size=6), st.integers(0, 2**70)), max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, path=PATHS, t=st.integers(1, 40), r=st.sampled_from([4, 8, 104]))
def test_batched_keys_and_draws_equal_seed_sequence(seed, path, t, r):
    # every row is that substream's own SeedSequence key, and the walked
    # generator draws what `substream` draws
    ids = range(1, t + 1)
    keys = rngmod.substream_keys(seed, *path, ids=ids)
    assert keys.shape == (t, 2) and keys.dtype == np.uint64
    for i, key in zip(ids, keys, strict=True):
        ss = np.random.SeedSequence(seed, spawn_key=rngmod._path_key(path + (i,)))
        assert key.tolist() == ss.generate_state(2, np.uint64).tolist()
    for i, gen in zip(ids, rngmod.each_substream(seed, *path, ids=ids), strict=True):
        draw = gen.choice(r, size=r // 2 - 1, replace=False)
        assert draw.tolist() == rngmod.substream(seed, *path, i).choice(r, size=r // 2 - 1, replace=False).tolist()


def test_batched_keys_cover_the_one_word_ids():
    ids = [0, 1, 2**31, 2**32 - 1]
    keys = rngmod.substream_keys(5, "x", ids=ids)
    for i, key in zip(ids, keys, strict=True):
        assert key.tolist() == np.random.SeedSequence(5, spawn_key=rngmod._path_key(("x", i))).generate_state(
            2, np.uint64).tolist()
    assert rngmod.substream_keys(5, "x", ids=[]).shape == (0, 2)
    for bad in ([-1], [2**32], [[1, 2]]):
        with pytest.raises(ValueError):
            rngmod.substream_keys(5, "x", ids=bad)
    with pytest.raises(ValueError):
        rngmod.substream_keys(-1, "x", ids=[1])
