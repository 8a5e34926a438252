import numpy as np
import pytest

from levelflow import rng
from levelflow.errors import InvalidInputError


class TestStreams:
    def test_scalar_and_vector_mixers_agree(self):
        key = rng.derive_key(123, 7)
        words = rng.raw_words(key, 4)
        # the scalar path must generate the identical stream
        golden = rng._GOLDEN_INT
        mask = (1 << 64) - 1
        for i, w in enumerate(words):
            state = (key + golden * i) & mask
            assert int(w) == rng._finalize_int(state)

    def test_deterministic(self):
        key = rng.derive_key(5, 1, 2)
        assert np.array_equal(rng.uniforms(key, 100), rng.uniforms(key, 100))
        assert np.array_equal(rng.normals(key, (7, 9)), rng.normals(key, (7, 9)))

    def test_streams_independent_of_tag_order(self):
        assert rng.derive_key(5, 1, 2) != rng.derive_key(5, 2, 1)
        assert rng.derive_key(5, 1) != rng.derive_key(6, 1)

    def test_counter_windowing(self):
        # a stream is addressable: words [k, k+n) match the tail of [0, k+n)
        key = rng.derive_key(42)
        whole = rng.uniforms(key, 50)
        tail = rng.uniforms(key, 30, start=20)
        assert np.array_equal(whole[20:], tail)

    def test_uniform_range_and_moments(self):
        u = rng.uniforms(rng.derive_key(9), 200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 5e-3
        assert abs(u.var() - 1 / 12) < 5e-3

    def test_normal_moments(self):
        z = rng.normals(rng.derive_key(10), 200_000)
        assert abs(z.mean()) < 1e-2
        assert abs(z.std() - 1.0) < 1e-2

    def test_normals_shape_and_odd_count(self):
        z = rng.normals(rng.derive_key(11), (3, 5))
        assert z.shape == (3, 5)
        assert np.isfinite(z).all()

    @pytest.mark.parametrize("upper", [0, -3])
    def test_integers_need_a_positive_upper_bound(self, upper):
        with pytest.raises(InvalidInputError, match=f"^upper must be positive, got {upper}$"):
            rng.integers(rng.derive_key(1), 4, upper)


def normals_reference(key, shape):
    """The Box-Muller formula as first written: two draws, then concatenate."""
    n = int(np.prod(shape))
    if n == 0:
        return np.zeros(shape, dtype=np.float64)
    pairs = (n + 1) // 2
    u1 = (
        (rng.raw_words(key, pairs, 0) >> np.uint64(11)).astype(np.float64) + 1.0
    ) * rng._TWO_POW_NEG53
    u2 = rng.uniforms(key, pairs, pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return z.reshape(shape)


@pytest.mark.parametrize("shape", [(64, 64), (128, 128), (7, 9), (1, 1), 5, 0, (3, 0)])
def test_normals_bytes_equal_the_reference_formula(shape):
    for k in range(20):
        key = rng.derive_key(k, 3)
        got, want = rng.normals(key, shape), normals_reference(key, shape)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_u1_offset_is_exact_at_the_extreme_words():
    # normals forms u1 as word * 2**-53 + 2**-53, which must equal the
    # reference's (word + 1) * 2**-53 for every 53-bit word
    w = np.array([0, 1, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    t = rng._TWO_POW_NEG53
    assert ((w * t) + t).tobytes() == ((w.astype(np.float64) + 1.0) * t).tobytes()
