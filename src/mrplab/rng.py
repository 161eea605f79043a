"""Counter-based uniform streams with deterministic seed splitting.

Every sampled artifact in this package is a pure function of a root seed.
Streams are counter based (splitmix64 output scrambler): the j-th variate of
the stream with seed ``s`` is ``mix64(s + (j+1)*PHI64)``, so any lane of a
batch can be produced independently of scheduling order.  Ensemble generation
is therefore bitwise identical whether paths are drawn sequentially, in
vectorized batches, or on several threads.

Seed splitting rule (fixed, documented contract):

    child_seed(root, i) = mix64(mix64(root) ^ ((i + 1) * PHI64 mod 2**64))

Path ``i`` of an ensemble owns child stream ``i``.  Auxiliary consumers
(permutation-resampling streams, secondary ensembles inside verification
suites) use child indices at or above ``AUX_INDEX_BASE`` so they can never
collide with path indices.

Uniforms are strictly inside (0, 1): ``u = ((z >> 11) + 0.5) * 2**-53``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

PHI64 = 0x9E3779B97F4A7C15
AUX_INDEX_BASE = 1 << 62

_U64_PHI = np.uint64(PHI64)
_U64_C1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)

_TO_UNIT = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """`mix64` on each word of a uint64 array (a new array; `z` is left as it is)."""
    z = z ^ (z >> _S30)
    z *= _U64_C1
    z ^= z >> _S27
    z *= _U64_C2
    z ^= z >> _S31
    return z


def child_seed(root_seed: int, index: int) -> int:
    """Derive the seed of child stream `index` from a root seed."""
    if index < 0:
        raise ValueError("child index must be nonnegative")
    return mix64(mix64(root_seed) ^ (((index + 1) * PHI64) & _MASK64))


def child_seeds(root_seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized `child_seed` for a uint64 array of indices."""
    base = np.uint64(mix64(root_seed))
    idx = np.asarray(indices, dtype=np.uint64)
    return _mix64_np(base ^ ((idx + _ONE) * _U64_PHI))


def _to_unit(z: np.ndarray) -> np.ndarray:
    # (z >> 11) in [0, 2**53); +0.5 keeps the result strictly inside (0, 1).
    return ((z >> _S11).astype(np.float64) + 0.5) * _TO_UNIT


class StreamBank:
    """A bank of independent counter-based uniform streams, one per lane.

    ``draw(lanes)`` returns one uniform per requested lane and advances only
    those lanes' counters, which is what rejection samplers need to stay
    bitwise reproducible regardless of how lanes are batched.
    """

    def __init__(self, seeds):
        self.seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
        self.counters = np.zeros(self.seeds.shape, dtype=np.uint64)

    @classmethod
    def from_root(cls, root_seed: int, n_lanes: int, offset: int = 0) -> "StreamBank":
        idx = np.arange(offset, offset + n_lanes, dtype=np.uint64)
        return cls(child_seeds(root_seed, idx))

    def __len__(self) -> int:
        return self.seeds.shape[0]

    def draw(self, lanes=None) -> np.ndarray:
        """One uniform in (0,1) for each selected lane (default: all lanes)."""
        if lanes is None:
            self.counters += _ONE
            state = self.seeds + self.counters * _U64_PHI
        else:
            self.counters[lanes] += _ONE
            state = self.seeds[lanes] + self.counters[lanes] * _U64_PHI
        return _to_unit(_mix64_np(state))


class UniformStream:
    """A single uniform stream over (0, 1).

    Thin wrapper over a one-lane :class:`StreamBank` so that scalar and batch
    sampling share one code path (and hence agree bitwise).
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.bank = StreamBank([self.seed])

    def uniform(self) -> float:
        return float(self.bank.draw()[0])

    def uniforms(self, n: int) -> np.ndarray:
        return _to_unit(self.raw_words(n))

    def raw_words(self, n: int) -> np.ndarray:
        """n scrambled 64-bit words from the stream (advances n positions)."""
        c = int(self.bank.counters[0])
        state = np.arange(c + 1, c + n + 1, dtype=np.uint64)
        self.bank.counters[0] = np.uint64(c + n)
        state *= _U64_PHI
        state += np.uint64(self.seed)
        return _mix64_np(state)

    def skip(self, n: int) -> None:
        """Advance the stream by n positions without drawing them."""
        self.bank.counters[0] += np.uint64(n)
