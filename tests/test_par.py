import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import levelflow as lf
from levelflow import par
from levelflow.errors import InvalidInputError

from conftest import normal_field, uniform_field


def step_image(n=48, col=24):
    image = np.zeros((n, n))
    image[:, col:] = 1.0
    return image


class TestAffinityKernel:
    def test_uniform_image_interior_exact_eighth(self):
        k = par.affinity_kernel(np.full((16, 16), 0.5))
        interior = k.weights[1:-1, 1:-1, :]
        assert np.all(interior == 0.125)

    def test_corner_three_neighbors(self):
        k = par.affinity_kernel(np.full((8, 8), 2.0))
        corner = k.weights[0, 0]
        on_grid = [par.NEIGHBOR_OFFSETS.index(o) for o in ((0, 1), (1, 0), (1, 1))]
        assert np.all(corner[on_grid] == pytest.approx(1.0 / 3.0, abs=1e-15))
        assert np.count_nonzero(corner) == 3

    def test_row_stochastic_everywhere(self):
        image = uniform_field((60, 0), (24, 24))
        k = par.affinity_kernel(image)
        sums = k.weights.sum(axis=2)
        assert np.allclose(sums, 1.0, atol=1e-6)
        assert np.all(k.weights >= 0.0)

    def test_edge_pixel_prefers_own_side(self):
        image = step_image()
        k = par.affinity_kernel(image)
        # pixel just left of the edge: west neighbor (same side) must get
        # more weight than east neighbor (across the edge)
        r, c = 20, 23
        w = k.weights[r, c]
        west = w[par.NEIGHBOR_OFFSETS.index((0, -1))]
        east = w[par.NEIGHBOR_OFFSETS.index((0, 1))]
        assert west > east

    def test_single_row_grid(self):
        k = par.affinity_kernel(np.ones((1, 8)))
        assert np.allclose(k.weights.sum(axis=2), 1.0, atol=1e-12)

    def test_single_pixel_rejected(self):
        with pytest.raises(InvalidInputError):
            par.affinity_kernel(np.ones((1, 1)))

    def test_overflowing_spread_rejected(self):
        # the sums over each neighborhood overflow
        signs = uniform_field((60, 1), (16, 16)) < 0.5
        with pytest.raises(InvalidInputError, match="image"):
            par.affinity_kernel(np.where(signs, -1.5e308, 1.5e308))

    def test_overflowing_variance_rejected(self):
        # the variance overflows to inf, which would flatten every affinity
        with pytest.raises(InvalidInputError, match="image"):
            par.affinity_kernel(normal_field((60, 2), (16, 16), scale=1e200))

    def test_isolated_pixel_rejected_when_every_logit_overflows(self):
        image = np.zeros((5, 5))
        image[2, 2] = 1e152  # its sigma is floored, so each (difference / sigma)**2 overflows
        with pytest.raises(InvalidInputError, match="image"):
            par.affinity_kernel(image)


class TestRefine:
    def test_tau_zero_identity(self):
        mask = uniform_field((61, 0), (16, 16))
        k = par.affinity_kernel(uniform_field((61, 1), (16, 16)))
        out = par.refine(mask, k, 0)
        assert np.array_equal(out, mask)
        assert out is not mask

    def test_constant_mask_fixed_point(self):
        k = par.affinity_kernel(np.full((16, 16), 3.0))
        out = par.refine(np.full((16, 16), 0.37), k, 7)
        assert np.allclose(out, 0.37, atol=1e-12)

    def test_range_preservation(self):
        image = uniform_field((61, 2), (24, 24))
        mask = uniform_field((61, 3), (24, 24), 0.1, 0.9)
        out = par.refine(mask, par.affinity_kernel(image), 10)
        assert out.min() >= mask.min() - 1e-12
        assert out.max() <= mask.max() + 1e-12

    def test_contraction_on_uniform_image(self):
        k = par.affinity_kernel(np.full((20, 20), 1.0))
        mask = uniform_field((61, 4), (20, 20))
        spread = []
        out = mask
        for _ in range(6):
            spread.append(np.abs(out - out.mean()).max())
            out = par.refine(out, k, 1)
        spread.append(np.abs(out - out.mean()).max())
        assert all(b <= a + 1e-12 for a, b in zip(spread, spread[1:]))

    def test_denoising_improves_dice(self):
        # noisy binary mask around a clean step: refinement with the clean
        # image's kernel must strictly improve Dice
        image = step_image()
        gt = (image > 0.5).astype(float)
        noise = uniform_field((61, 5), image.shape)
        noisy = gt.copy()
        flip = noise < 0.12
        noisy[flip] = 1.0 - noisy[flip]
        refined = par.refine(noisy, par.affinity_kernel(image), 10)
        before = lf.dice_score(noisy, gt)
        after = lf.dice_score(refined, gt)
        assert after > before

    def test_mass_preserved_interiorly_on_uniform_image(self):
        # uniform kernel weights are symmetric, so interior-supported masks
        # keep their total mass under one refinement step
        k = par.affinity_kernel(np.full((32, 32), 1.0))
        mask = np.zeros((32, 32))
        mask[8:24, 8:24] = uniform_field((61, 6), (16, 16))
        out = par.refine(mask, k, 1)
        assert out.sum() == pytest.approx(mask.sum(), rel=1e-12)

    def test_negative_tau_rejected(self):
        k = par.affinity_kernel(np.full((8, 8), 1.0))
        with pytest.raises(InvalidInputError):
            par.refine(np.zeros((8, 8)), k, -1)

    def test_shape_mismatch_rejected(self):
        k = par.affinity_kernel(np.full((8, 8), 1.0))
        with pytest.raises(InvalidInputError):
            par.refine(np.zeros((9, 9)), k, 1)

    @pytest.mark.parametrize("shape", [(8, 8), (8, 8, 7), (8, 8, 8, 1), (8, 9, 8)])
    def test_malformed_kernel_rejected(self, shape):
        with pytest.raises(InvalidInputError, match=r"kernel .*\(8, 8, 8\)"):
            par.refine(np.zeros((8, 8)), par.AffinityKernel(np.ones(shape)), 2)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda w: w.fill(np.nan),
            lambda w: w.__setitem__((3, 4, 0), np.inf),
            lambda w: w.__setitem__((3, 4, slice(0, 2)), [-0.25, 1.25]),
            lambda w: w.__setitem__((3, 4, 0), w[3, 4, 0] + 1e-6),
        ],
        ids=["nan", "inf", "negative", "row-sum-off-1"],
    )
    def test_kernel_weights_rejected(self, bad):
        # each returned a mask without an error, NaN for the NaN kernel
        weights = np.full((8, 8, 8), 0.125)
        bad(weights)
        with pytest.raises(InvalidInputError, match="^kernel weights must be non-negative"):
            par.refine(np.zeros((8, 8)), par.AffinityKernel(weights), 1)

    @pytest.mark.parametrize("k", range(8), ids=[str(o) for o in par.NEIGHBOR_OFFSETS])
    def test_weight_on_a_neighbor_off_the_grid_rejected(self, k):
        # it multiplies the zero padding, so the mask lost mass: a kernel of
        # 0.125 everywhere took a mask of 0.5 to 0.1875 at the corners
        with pytest.raises(InvalidInputError, match="^kernel weights must be 0 on neighbors off"):
            par.refine(np.full((8, 8), 0.5), par.AffinityKernel(np.full((8, 8, 8), 0.125)), 1)
        # one edge pixel, all its weight on the neighbor at offset k, off the grid
        weights = par.affinity_kernel(normal_field((61, 8), (8, 8))).weights.copy()
        dr, dc = par.NEIGHBOR_OFFSETS[k]
        row, col = (0 if dr < 0 else 7 if dr > 0 else 3), (0 if dc < 0 else 7 if dc > 0 else 3)
        weights[row, col] = np.eye(8)[k]
        with pytest.raises(InvalidInputError, match="^kernel weights must be 0 on neighbors off"):
            par.refine(np.full((8, 8), 0.5), par.AffinityKernel(weights), 1)

    def test_overflowing_mask_rejected(self):
        # a row of weights can sum to 1 + 2**-52, which carries a mask at the
        # float64 maximum to inf
        kernel = par.affinity_kernel(normal_field((61, 7), (8, 8)))
        with pytest.raises(InvalidInputError, match="^mask values overflow"):
            par.refine(np.full((8, 8), np.finfo(np.float64).max), kernel, 3)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peak traced allocation of one call at 128x128, where an (H, W) float64
    field is 128 KiB and the (H, W, 8) weights are 1 MiB."""

    def test_affinity_kernel_peak(self):
        image = normal_field((63, 0), (128, 128))
        assert traced_peak(par.affinity_kernel, image) <= 2.5 * 2**20

    def test_refine_peak_above_inputs(self):
        kernel = par.affinity_kernel(normal_field((63, 1), (128, 128)))
        mask = uniform_field((63, 2), (128, 128))
        assert traced_peak(par.refine, mask, kernel, 10) <= 1 * 2**20


class TestParLoss:
    def test_identical_masks_zero(self):
        m = uniform_field((62, 0), (10, 10))
        assert par.par_loss(m, m.copy()) == 0.0

    def test_arithmetic(self):
        a = np.zeros((10, 10))
        b = np.zeros((10, 10))
        b.flat[:10] = 0.5
        assert par.par_loss(a, b) == pytest.approx(5.0, abs=1e-15)

    def test_direct_sum_oracle(self):
        a = uniform_field((62, 1), (16, 16))
        b = uniform_field((62, 2), (16, 16))
        expect = float(sum(abs(x - y) for x, y in zip(a.ravel(), b.ravel())))
        assert par.par_loss(a, b) == pytest.approx(expect, rel=1e-12)


def _grids():
    shapes = st.tuples(st.integers(1, 10), st.integers(1, 10)).filter(lambda s: s[0] * s[1] > 1)
    return shapes.flatmap(lambda shape: st.tuples(
        hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)),
        hnp.arrays(np.float64, shape, elements=st.floats(-10.0, 10.0)),
    ))


class TestProperties:
    @settings(max_examples=30)
    @given(_grids(), st.integers(0, 4))
    def test_kernel_row_stochastic_and_refine_range_preserving(self, grid, tau):
        image, mask = grid
        k = par.affinity_kernel(image)
        h, w = image.shape
        rows, cols = np.mgrid[0:h, 0:w]
        for n, (dr, dc) in enumerate(par.NEIGHBOR_OFFSETS):
            on_grid = (0 <= rows + dr) & (rows + dr < h) & (0 <= cols + dc) & (cols + dc < w)
            assert np.all(k.weights[:, :, n][~on_grid] == 0.0)
        assert np.all(k.weights >= 0.0)
        assert np.allclose(k.weights.sum(axis=2), 1.0, rtol=0.0, atol=1e-12)
        out = par.refine(mask, k, tau)
        slack = 1e-12 * max(abs(mask.min()), abs(mask.max()))
        assert mask.min() - slack <= out.min() and out.max() <= mask.max() + slack
