"""The in-house PCG64 stream against numpy's own generator, which tests may
import: every draw must match ``default_rng(seed).uniform`` bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mherz import _pcg
from mherz.grid import build_function, make_grid

words = st.integers(0, 2**32 - 1)
seeds = st.one_of(
    words,
    st.integers(2**32, 2**256),  # several 32-bit words
    st.lists(st.integers(0, 2**70), max_size=9),  # past the pool of four words too
    st.lists(st.lists(words, max_size=3), max_size=3),
    st.builds(np.uint64, words),
    st.builds(np.int16, st.integers(0, 2**15 - 1)),
)
bounds = st.one_of(
    st.just((0.0, 1.0)),
    st.tuples(st.floats(-1e6, 1e6), st.floats(0, 1e6)).map(lambda t: (t[0], t[0] + t[1])),
)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 512), bounds)
@example(seed=[2024, 3], n=128, bounds=(0.0, 1.0))  # one full chunk of 8192 states twice
@example(seed=7, n=91, bounds=(0.0, 1.0))  # 8281 states: a partial second chunk
@example(seed=0, n=512, bounds=(-2.5, 3.5))
@example(seed=[], n=1, bounds=(1.0, 1.0))
def test_stream_matches_numpy_bit_for_bit(seed, n, bounds):
    low, high = bounds
    got = _pcg.uniform(seed, low, high, n * n).reshape(n, n)
    want = np.random.default_rng(seed).uniform(low, high, size=(n, n))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize(
    "seed",
    [-1, 2.5, np.float64(3.0), [1, -2], [1.0], [[3], [0.5]], "12", {1: 2}, np.int64(-3),
     np.bool_(True), [np.bool_(True)], [None], np.array(5), object()],
)
def test_refused_seeds_raise_numpy_exception_type(seed):
    with pytest.raises(Exception) as numpy_error:
        np.random.default_rng(seed)
    with pytest.raises(numpy_error.type):
        _pcg.uniform(seed, 0.0, 1.0, 4)


@pytest.mark.parametrize("low, high", [(0.0, np.inf), (np.nan, 1.0), (1.0, 0.0), (-1e308, 1e308)])
def test_refused_bounds_raise_numpy_exception_type(low, high):
    with pytest.raises(Exception) as numpy_error:
        np.random.default_rng(1).uniform(low, high, size=4)
    with pytest.raises(numpy_error.type):
        _pcg.uniform(1, low, high, 4)


def test_no_seed_draws_fresh_entropy():
    a, b = _pcg.uniform(None, 0.0, 1.0, 64), _pcg.uniform(None, 0.0, 1.0, 64)
    assert ((0.0 <= a) & (a < 1.0)).all() and a.tolist() != b.tolist()


def test_noise_builtin_is_numpys_uniform_table():
    spec = make_grid(2, 3)
    f = build_function(spec, builtin="noise", seed=[2024, 101])
    want = np.random.default_rng([2024, 101]).uniform(0.0, 1.0, size=(32, 32))
    assert f.values.view(np.uint64).tolist() == want.view(np.uint64).tolist()
