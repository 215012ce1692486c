"""Splittable counter-based randomness.

Every sampler draws from a named substream derived from (seed, path), so any
artifact can be regenerated from the (seed, path) pair recorded in its
metadata, and distinct substreams are statistically independent: fixing one
substream's path isolates it from reseeding of the others.

A run of substreams that differ only in a last integer id, such as one per
matching, can be derived at once: `substream_keys` gives all their Philox keys
as one array, and `substream_words` reads each one's first raw words. Each
yields exactly what `substream` yields for that id.
"""

from __future__ import annotations

import zlib

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool of
# four 32-bit words, filled by `hashmix` and `mix`, read out by `generate_state`
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _path_key(path) -> tuple[int, ...]:
    key = []
    for part in path:
        if isinstance(part, str):
            key.append(zlib.crc32(part.encode("utf-8")))
        else:
            key.append(int(part))
    return tuple(key)


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the substream at `path` under `seed` (Philox, counter-based)."""
    ss = np.random.SeedSequence(seed, spawn_key=_path_key(path))
    return np.random.Generator(np.random.Philox(ss))


def _words(value: int) -> list[int]:
    """`value`'s 32-bit words, least significant first, as SeedSequence splits an int."""
    if value < 0:
        raise ValueError(f"entropy must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def substream_keys(seed: int, *path, ids) -> np.ndarray:
    """The Philox keys of `substream(seed, *path, i)` for every i in `ids`,
    one (2,) uint64 row each, in the order of `ids`.

    This is `SeedSequence(seed, spawn_key=...).generate_state(2, np.uint64)`
    run once with every step vectorised over the ids. SeedSequence's entropy
    is the seed's words padded to the pool size, then the path's words, then
    the id's, so an id in [0, 2^32) is one last word and every row shares
    the steps before it. Each step wraps in uint32 arithmetic, as numpy's does.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or (ids.size and not (0 <= ids.min() and ids.max() <= _MASK32)):
        raise ValueError("ids are one run of integers in [0, 2^32)")
    run = _words(int(seed))
    words = run + [0] * (_POOL_SIZE - len(run)) + [w for part in _path_key(path) for w in _words(part)]
    entropy = [np.array([w], dtype=np.uint32) for w in words] + [ids.astype(np.uint32)]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(2, uint64): four words from the pool in turn, read as two
    # little-endian uint64 pairs
    hash_const = _INIT_B
    state = []
    for word in pool:
        value = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ value >> 16).astype(np.uint64))
    return np.column_stack((state[0] | state[1] << 32, state[2] | state[3] << 32))


def substream_words(seed: int, *path, ids, count: int) -> np.ndarray:
    """The first `count` raw 64-bit words of `substream(seed, *path, i)` for
    every i in `ids`, one uint64 row each, in the order of `ids`.

    A row is that substream's `bit_generator.random_raw(count)`: the words its
    Generator reads in turn, each 32-bit draw taking a word's low half, then
    its high half. One Philox is reset to each substream's start in turn: its
    key, counter 0 and an empty buffer.
    """
    bit_generator = np.random.Philox(0)
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    keys = substream_keys(seed, *path, ids=ids)
    words = np.empty((len(keys), count), dtype=np.uint64)
    for row, key in zip(words, keys.tolist()):  # Python ints: the state setter reads them faster
        state["state"]["key"] = key
        bit_generator.state = state
        row[:] = bit_generator.random_raw(count)
    return words


def describe(seed: int, *path) -> dict:
    """Metadata stanza recording how a substream was derived."""
    return {"seed": int(seed), "path": [str(p) for p in path]}
