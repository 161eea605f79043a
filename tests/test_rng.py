import numpy as np
import scipy.stats as st

from mrplab.rng import PHI64, StreamBank, UniformStream, _mix64_np, child_seed, child_seeds, mix64


def test_same_seed_same_stream():
    a = UniformStream(123).uniforms(1000)
    b = UniformStream(123).uniforms(1000)
    assert np.array_equal(a, b)


def test_scalar_and_vector_draws_agree():
    s1 = UniformStream(7)
    s2 = UniformStream(7)
    vec = s1.uniforms(50)
    scal = np.array([s2.uniform() for _ in range(50)])
    assert np.array_equal(vec, scal)


def test_uniforms_strictly_inside_unit_interval():
    u = UniformStream(0).uniforms(100000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniformity_ks():
    u = UniformStream(42).uniforms(200000)
    assert st.kstest(u, "uniform").pvalue > 1e-4


def test_bank_selective_lane_advance():
    bank = StreamBank.from_root(9, 4)
    full = bank.draw()
    # advancing lanes 1 and 3 must not move lanes 0 and 2
    partial = bank.draw(np.array([1, 3]))
    assert partial.shape == (2,)
    after = bank.draw()
    # lane 0 second draw equals what a fresh bank sees at position 2
    fresh = StreamBank.from_root(9, 4)
    fresh.draw()
    assert after[0] == fresh.draw()[0]
    assert full.shape == (4,)


def test_child_seeds_distinct_and_vectorized():
    idx = np.arange(50000)
    seeds = child_seeds(1234, idx)
    assert len(np.unique(seeds)) == len(idx)
    assert seeds[17] == child_seed(1234, 17)


def test_child_streams_decorrelated():
    a = UniformStream(child_seed(5, 0)).uniforms(20000)
    b = UniformStream(child_seed(5, 1)).uniforms(20000)
    assert st.ks_2samp(a, b).pvalue > 1e-4
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def test_raw_words_bits_balanced():
    words = UniformStream(3).raw_words(4096)
    bits = np.unpackbits(words.view(np.uint8))
    assert abs(bits.mean() - 0.5) < 0.01


def test_vector_mix64_equals_the_scalar_one_and_keeps_its_input():
    words = np.random.default_rng(64).integers(0, 2**64 - 1, size=2000, dtype=np.uint64, endpoint=True)
    words[:2] = [0, 2**64 - 1]
    before = words.copy()
    mixed = _mix64_np(words)
    assert mixed.tolist() == [mix64(z) for z in words.tolist()]
    assert np.array_equal(words, before)
    seed = 2**64 - 5
    expected = [mix64(seed + j * PHI64) for j in range(3, 8)]
    stream = UniformStream(seed)
    stream.skip(2)
    assert stream.raw_words(5).tolist() == expected


def test_mix64_reference_values():
    # splitmix64 is a bijection; spot-check determinism and range
    assert mix64(0) == mix64(0)
    assert 0 <= mix64(12345) < 2**64
    assert mix64(1) != mix64(2)
