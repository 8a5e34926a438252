import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import levelflow as lf
from levelflow import levelset as ls
from levelflow.errors import DegenerateRegionError, DivergenceError, InvalidInputError

from conftest import central_fd_grad, normal_field, rel_inf_err, uniform_field

P = ls.HeavisideParams()

# Locked on first run: two-disks, size 64, fg 1, bg 0, noise 0.05, seed 7;
# phi = gt - 0.5, default weights/epsilon, A1 = gt area, distance grown from gt.
GOLDEN_ENERGY = {
    "e_region": -4413.19844078319,
    "e_length": 27.1337943413697,
    "e_area": 2535557.45428945,
    "e_distance": 669.061373643861,
    "e_total": 210.36416033817,
}


class TestHeaviside:
    def test_symmetry_at_zero(self):
        for eps in (0.2, 1.0, 1.5, 7.0):
            h = ls.heaviside(np.zeros((1, 1)), ls.HeavisideParams(eps))
            assert h[0, 0] == 0.5

    def test_arctan_quarter_pi(self):
        h = ls.heaviside(np.array([[1.0]]), ls.HeavisideParams(1.0))
        assert h[0, 0] == pytest.approx(0.75, abs=1e-15)

    def test_dirac_peak(self):
        d = ls.dirac(np.zeros((1, 1)), ls.HeavisideParams(1.0))
        assert d[0, 0] == pytest.approx(1.0 / np.pi, abs=1e-15)

    def test_ranges(self):
        phi = normal_field((30, 0), (16, 16), scale=100.0)
        h = ls.heaviside(phi, P)
        d = ls.dirac(phi, P)
        assert np.all((h > 0) & (h < 1))
        assert np.all(d > 0)
        assert np.all(d <= 1.0 / (np.pi * P.epsilon))

    def test_dirac_is_heaviside_derivative(self):
        eps = 0.7
        p = ls.HeavisideParams(eps)
        s = np.linspace(-10 * eps, 10 * eps, 401).reshape(1, -1)
        h = 1e-6
        fd = (ls.heaviside(s + h, p) - ls.heaviside(s - h, p)) / (2 * h)
        assert np.allclose(fd, ls.dirac(s, p), atol=1e-6)

    def test_mask_mappings(self):
        y = uniform_field((30, 1), (4, 4))
        assert np.allclose(ls.mask_to_levelset(y), y - 0.5)


class TestRegionStats:
    def test_perfect_partition(self):
        image = np.zeros((16, 16))
        image[:, :8] = 1.0
        phi = np.where(image == 1.0, 1e12, -1e12)
        st = ls.region_stats(image, phi, P)
        assert st.mean_in == pytest.approx(1.0, abs=1e-9)
        assert st.mean_out == pytest.approx(0.0, abs=1e-9)
        assert st.var_in == ls.VAR_FLOOR
        assert st.var_out == ls.VAR_FLOOR

    def test_mass_partition_invariant(self):
        image = uniform_field((31, 0), (24, 24))
        phi = normal_field((31, 1), (24, 24))
        st = ls.region_stats(image, phi, P)
        assert st.mass_in + st.mass_out == pytest.approx(image.size, abs=1e-6 * image.size)

    def test_all_inside_degenerate(self):
        image = uniform_field((31, 2), (16, 16))
        with pytest.raises(DegenerateRegionError):
            ls.region_stats(image, np.full((16, 16), 1e15), P)

    def test_weighted_moment_oracle(self):
        image = uniform_field((31, 3), (32, 32))
        phi = normal_field((31, 4), (32, 32))
        st = ls.region_stats(image, phi, P)  # variances near 1/12: the floor does not bind
        w = ls.heaviside(phi, P)
        for weights, mean, var in (
            (w, st.mean_in, st.var_in),
            (1.0 - w, st.mean_out, st.var_out),
        ):
            m = float((weights * image).sum() / weights.sum())
            v = float((weights * (image - m) ** 2).sum() / weights.sum())
            assert mean == pytest.approx(m, rel=1e-10)
            assert var == pytest.approx(v, rel=1e-10)


class TestEnergies:
    def test_region_perfect_partition_floor_value(self):
        image = np.zeros((10, 10))
        image[:, :5] = 1.0
        phi = np.where(image == 1.0, 1e12, -1e12)
        st = ls.region_stats(image, phi, P)
        e = ls.energy_region(image, phi, P, st)
        assert e == pytest.approx(image.size * np.log(ls.VAR_FLOOR), rel=1e-6)

    def test_region_zero_for_exact_unit_stats(self):
        image = np.zeros((10, 10))
        image[:, :5] = 1.0
        phi = np.where(image == 1.0, 1e12, -1e12)
        st = ls.RegionStats(1.0, 0.0, 1.0, 1.0, 50.0, 50.0)
        assert ls.energy_region(image, phi, P, st) == pytest.approx(0.0, abs=1e-8)

    def test_region_brute_force_oracle(self):
        image = uniform_field((32, 0), (16, 16))
        phi = normal_field((32, 1), (16, 16))
        st = ls.region_stats(image, phi, P)
        total = 0.0
        for r in range(16):
            for c in range(16):
                h = 0.5 + np.arctan((phi[r, c]) / P.epsilon) / np.pi
                e1 = np.log(st.var_in) + (image[r, c] - st.mean_in) ** 2 / st.var_in
                e2 = np.log(st.var_out) + (image[r, c] - st.mean_out) ** 2 / st.var_out
                total += e1 * h + e2 * (1 - h)
        assert ls.energy_region(image, phi, P, st) == pytest.approx(total, rel=1e-9)

    def test_length_constant_zero(self):
        assert ls.energy_length(np.full((12, 12), 4.2), P) == 0.0

    def test_length_sharp_interface_vs_tv(self):
        n = 64
        phi = np.where(np.arange(n)[None, :] < n // 2, 1.0, -1.0) * np.ones((n, n))
        p = ls.HeavisideParams(0.1)
        e = ls.energy_length(phi, p)
        h_bin = (ls.heaviside(phi, p) > 0.5).astype(float)
        tv = np.abs(np.diff(h_bin, axis=1)).sum() + np.abs(np.diff(h_bin, axis=0)).sum()
        assert tv == n
        assert e == pytest.approx(n, rel=0.10)
        assert e == pytest.approx(tv, rel=0.10)

    def test_length_circle_perimeter(self):
        n, r = 128, 20.0
        rows, cols = np.mgrid[0:n, 0:n].astype(float)
        phi = r - np.hypot(rows - 64, cols - 64)
        e = ls.energy_length(phi, P)
        assert e == pytest.approx(2 * np.pi * r, rel=0.05)

    def test_area_exact_targets(self):
        phi = np.full((10, 10), 1e12)
        prior = ls.AreaPrior(100.0, 0.0)
        assert ls.energy_area(phi, P, prior) == pytest.approx(0.0, abs=1e-6)

    def test_area_arithmetic(self):
        phi = np.full((10, 10), 1e12)
        prior = ls.AreaPrior(90.0, 10.0)
        assert ls.energy_area(phi, P, prior) == pytest.approx(200.0, rel=1e-9)

    def test_area_direct_recomputation(self):
        phi = normal_field((33, 0), (16, 16))
        prior = ls.AreaPrior.from_a1(77.0, 256)
        m_in = ls.heaviside(phi, P).sum()
        expect = (m_in - 77.0) ** 2 + ((256 - m_in) - 179.0) ** 2
        assert ls.energy_area(phi, P, prior) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("a1", [-1.0, 256.5, 1e9, float("nan")])
    def test_area_prior_a1_outside_the_domain_names_a1(self, a1):
        with pytest.raises(InvalidInputError, match=r"^a1_target must be in \[0, 256\]"):
            ls.AreaPrior.from_a1(a1, 256)

    @pytest.mark.parametrize("a1", [0.0, 256.0])
    def test_area_prior_a1_at_the_domain_bounds(self, a1):
        assert ls.AreaPrior.from_a1(a1, 256).a2_target == 256.0 - a1

    def test_area_prior_domain_check(self):
        prior = ls.AreaPrior(10.0, 10.0)
        with pytest.raises(InvalidInputError):
            ls.energy_area(np.zeros((10, 10)), P, prior)

    def test_distance_zero_field(self):
        phi = normal_field((33, 1), (8, 8))
        assert ls.energy_distance(phi, P, np.zeros((8, 8))) == 0.0

    def test_distance_mass_on_seed(self):
        # H ~ 1 only where D = 0
        dist = np.ones((16, 16))
        dist[4:8, 4:8] = 0.0
        phi = np.where(dist == 0.0, 1e12, -1e12)
        e = ls.energy_distance(phi, P, dist)
        assert e == pytest.approx(0.0, abs=1e-6)

    def test_distance_product_oracle(self):
        phi = normal_field((33, 2), (16, 16))
        dist = np.abs(normal_field((33, 3), (16, 16)))
        expect = float((dist * ls.heaviside(phi, P)).sum())
        assert ls.energy_distance(phi, P, dist) == pytest.approx(expect, rel=1e-9)

    def test_distance_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            ls.energy_distance(np.zeros((4, 4)), P, np.full((4, 4), -1.0))

    def test_total_zero_weights(self, two_disks_64):
        image, gt = two_disks_64
        phi = ls.mask_to_levelset(gt)
        w = ls.EnergyWeights(0, 0, 0, 0)
        prior = ls.AreaPrior.from_a1(float(gt.sum()), gt.size)
        rep = ls.energy_total(image, phi, P, w, prior, np.zeros_like(image))
        assert rep.e_total == 0.0

    def test_total_selector(self, two_disks_64):
        image, gt = two_disks_64
        phi = ls.mask_to_levelset(gt)
        w = ls.EnergyWeights(1, 0, 0, 0)
        prior = ls.AreaPrior.from_a1(float(gt.sum()), gt.size)
        rep = ls.energy_total(image, phi, P, w, prior, np.zeros_like(image))
        assert rep.e_total == rep.e_region

    def test_total_weighted_sum_identity(self, two_disks_64):
        image, gt = two_disks_64
        phi = ls.mask_to_levelset(gt)
        w = ls.EnergyWeights()
        prior = ls.AreaPrior.from_a1(float(gt.sum()), gt.size)
        rep = ls.energy_total(image, phi, P, w, prior, np.zeros_like(image))
        assert rep.e_total == (
            w.lambda1 * rep.e_region
            + w.lambda2 * rep.e_length
            + w.lambda3 * rep.e_area
            + w.lambda4 * rep.e_distance
        )

    def test_total_golden_regression(self):
        spec = lf.PhantomSpec(kind="two-disks", size=64, fg=1.0, bg=0.0, noise_sigma=0.05, seed=7)
        image, gt = lf.make_phantom(spec)
        phi = ls.mask_to_levelset(gt)
        prior = ls.AreaPrior.from_a1(float(gt.sum()), gt.size)
        dist = lf.distance_for_mask(image, gt).values
        rep = ls.energy_total(image, phi, P, ls.EnergyWeights(), prior, dist)
        for key, value in GOLDEN_ENERGY.items():
            assert getattr(rep, key) == pytest.approx(value, rel=1e-10), key

    def test_translation_invariance(self):
        # content confined to a sub-box with constant surroundings; shifting
        # image, mask and distance together leaves every term unchanged
        base_img = np.zeros((24, 24))
        base_img[6:12, 6:12] = uniform_field((34, 0), (6, 6))
        base_y = np.full((24, 24), 0.2)
        base_y[6:12, 6:12] = uniform_field((34, 1), (6, 6), 0.2, 0.9)
        base_d = np.full((24, 24), 0.3)
        base_d[6:12, 6:12] = uniform_field((34, 2), (6, 6), 0.0, 1.0)
        w = ls.EnergyWeights(1.0, 1.0, 1.0, 1.0)
        prior = ls.AreaPrior.from_a1(120.0, 24 * 24)

        def total(img, y, d):
            return ls.energy_total(img, ls.mask_to_levelset(y), P, w, prior, d).e_total

        e0 = total(base_img, base_y, base_d)
        shifted = [np.roll(a, (5, 3), axis=(0, 1)) for a in (base_img, base_y, base_d)]
        e1 = total(*shifted)
        assert e1 == pytest.approx(e0, rel=1e-12)


@st.composite
def energy_row_inputs(draw):
    """(image, phi, p, w, prior, dist) on grids from 2x2 to 40x40: phi smooth
    or saturated to +-1e3, weights with zeros, dist zero or random."""
    shape = (draw(st.integers(2, 40)), draw(st.integers(2, 40)))
    key = draw(st.integers(0, 2**32))
    image = normal_field((key, 0), shape, scale=draw(st.sampled_from([0.1, 1.0, 50.0])))
    rows, cols = np.mgrid[0 : shape[0], 0 : shape[1]].astype(float)
    freq = draw(st.floats(0.0, 2.0))
    smooth = np.sin(freq * cols + key) + np.cos(freq * rows) + draw(st.floats(-2.5, 2.5))
    scale = draw(st.sampled_from([0.5, 3.0, "saturated"]))
    phi = np.where(smooth >= 0, 1e3, -1e3) if scale == "saturated" else scale * smooth
    p = ls.HeavisideParams(draw(st.sampled_from([1.5, 0.05, 1e-14])))
    lam = st.one_of(st.just(0.0), st.floats(1e-4, 10.0))
    w = ls.EnergyWeights(draw(lam), draw(lam), draw(lam), draw(lam))
    prior = ls.AreaPrior.from_a1(draw(st.floats(0.0, 1.0)) * phi.size, phi.size)
    dist = uniform_field((key, 1), shape) if draw(st.booleans()) else np.zeros(shape)
    return image, phi, p, w, prior, dist


def _row_or_degenerate(row):
    try:
        return row().tobytes()
    except DegenerateRegionError:
        return "degenerate"


class TestEnergyRow:
    """The sampler's one-pass trace row is energy_total's row, bit for bit."""

    @settings(max_examples=150)
    @given(energy_row_inputs())
    def test_equals_energy_total_bitwise(self, args):
        row = _row_or_degenerate(lambda: ls._energy_row(*args))
        assert row == _row_or_degenerate(lambda: ls.energy_total(*args).as_row())

    def test_both_raise_on_a_degenerate_region(self):
        phi = np.full((8, 8), 1e3)
        args = (normal_field((91, 0), (8, 8)), phi, ls.HeavisideParams(1e-14), ls.EnergyWeights(),
                ls.AreaPrior.from_a1(32.0, 64), np.zeros((8, 8)))
        for row in (lambda: ls._energy_row(*args), lambda: ls.energy_total(*args).as_row()):
            with pytest.raises(DegenerateRegionError):
                row()


class TestGradient:
    def test_all_zero_weights_zero_field(self, two_disks_64):
        image, gt = two_disks_64
        g = ls.grad_energy_wrt_mask(
            image, gt, P, ls.EnergyWeights(0, 0, 0, 0),
            ls.AreaPrior.from_a1(float(gt.sum()), gt.size), np.zeros_like(image),
        )
        assert np.all(g == 0.0)

    def test_sign_matches_nll_difference(self):
        image = np.zeros((16, 16))
        image[:, :8] = 1.0
        y = image.copy()
        phi = ls.mask_to_levelset(y)
        st = ls.region_stats(image, phi, P)
        g = ls.grad_energy_wrt_mask(
            image, y, P, ls.EnergyWeights(1, 0, 0, 0),
            ls.AreaPrior.from_a1(128.0, 256), np.zeros_like(image), stats=st,
        )
        e1 = np.log(st.var_in) + (image - st.mean_in) ** 2 / st.var_in
        e2 = np.log(st.var_out) + (image - st.mean_out) ** 2 / st.var_out
        drive = (e1 - e2) * ls.dirac(phi, P)
        assert np.all(np.sign(g) == np.sign(drive))

    def test_each_term_matches_finite_differences(self):
        image = uniform_field((35, 0), (12, 12))
        y = uniform_field((35, 1), (12, 12), 0.15, 0.85)
        dist = np.abs(normal_field((35, 2), (12, 12)))
        prior = ls.AreaPrior.from_a1(60.0, 144)
        stats = ls.region_stats(image, ls.mask_to_levelset(y), P)
        cases = {
            "region": (
                ls.EnergyWeights(1, 0, 0, 0),
                lambda yy: ls.energy_region(image, ls.mask_to_levelset(yy), P, stats),
            ),
            "length": (
                ls.EnergyWeights(0, 1, 0, 0),
                lambda yy: ls.energy_length(ls.mask_to_levelset(yy), P),
            ),
            "area": (
                ls.EnergyWeights(0, 0, 1, 0),
                lambda yy: ls.energy_area(ls.mask_to_levelset(yy), P, prior),
            ),
            "distance": (
                ls.EnergyWeights(0, 0, 0, 1),
                lambda yy: ls.energy_distance(ls.mask_to_levelset(yy), P, dist),
            ),
        }
        for name, (w, energy) in cases.items():
            analytic = ls.grad_energy_wrt_mask(image, y, P, w, prior, dist, stats=stats)
            fd = central_fd_grad(energy, y)
            assert rel_inf_err(analytic, fd) <= 1e-3, name

    def test_freeze_flag_equals_fresh_stats(self):
        # statistics supplied from region_stats at y and statistics the
        # gradient computes itself give the same bits
        image = uniform_field((35, 3), (10, 10))
        y = uniform_field((35, 4), (10, 10), 0.2, 0.8)
        dist = np.abs(normal_field((35, 5), (10, 10)))
        prior = ls.AreaPrior.from_a1(50.0, 100)
        stats = ls.region_stats(image, ls.mask_to_levelset(y), P)
        g1 = ls.grad_energy_wrt_mask(image, y, P, ls.EnergyWeights(), prior, dist, stats=stats)
        g2 = ls.grad_energy_wrt_mask(image, y, P, ls.EnergyWeights(), prior, dist)
        assert np.array_equal(g1, g2)


class TestEvolve:
    def _setup(self, two_disks):
        image, gt = two_disks
        phi0 = np.full(image.shape, -0.5)
        phi0[13:51, 13:51] = 0.5
        prior = ls.AreaPrior.from_a1(float((phi0 > 0).sum()), image.size)
        dist = lf.distance_for_mask(image, (phi0 > 0).astype(float)).values
        return image, gt, phi0, prior, dist

    def test_defaults_converge_to_ground_truth(self, two_disks_64):
        image, gt, phi0, prior, dist = self._setup(two_disks_64)
        phi, _ = ls.evolve(image, phi0, P, ls.EnergyWeights(), prior, dist, steps=3000)
        assert lf.dice_score((phi > 0).astype(float), gt) >= 0.98

    def test_noop_step(self, two_disks_64):
        image, gt, phi0, prior, dist = self._setup(two_disks_64)
        phi, trace = ls.evolve(image, phi0, P, ls.EnergyWeights(), prior, dist, dt=0.0, steps=1)
        assert np.array_equal(phi, phi0)
        assert trace.shape == (1, 5)

    def test_zero_steps_forbidden(self, two_disks_64):
        image, gt, phi0, prior, dist = self._setup(two_disks_64)
        with pytest.raises(InvalidInputError):
            ls.evolve(image, phi0, P, ls.EnergyWeights(), prior, dist, steps=0)

    def test_deterministic_trace(self, two_disks_64):
        image, gt, phi0, prior, dist = self._setup(two_disks_64)
        phi1, t1 = ls.evolve(image, phi0, P, ls.EnergyWeights(), prior, dist, dt=1.0, steps=50)
        phi2, t2 = ls.evolve(image, phi0, P, ls.EnergyWeights(), prior, dist, dt=1.0, steps=50)
        assert np.array_equal(phi1, phi2)
        assert np.array_equal(t1, t2)

    def test_monotone_descent(self, two_disks_64):
        image, gt, phi0, prior, dist = self._setup(two_disks_64)
        _, trace = ls.evolve(image, phi0, P, ls.EnergyWeights(), prior, dist, dt=0.1, steps=400)
        e = trace[:, 4]
        assert np.all(np.diff(e[5:]) <= 1e-9)

    def test_splitting_one_blob_to_two_components(self, two_disks_64):
        image, gt, phi0, prior, dist = self._setup(two_disks_64)
        _, n0 = ndimage.label(phi0 > 0, structure=np.ones((3, 3)))
        assert n0 == 1
        phi, _ = ls.evolve(image, phi0, P, ls.EnergyWeights(), prior, dist, dt=1.0, steps=500)
        _, n = ndimage.label(phi > 0, structure=np.ones((3, 3)))
        assert n == 2

    def test_lazy_stats_refresh_still_converges(self, two_disks_64):
        image, gt, phi0, prior, dist = self._setup(two_disks_64)
        phi, _ = ls.evolve(image, phi0, P, ls.EnergyWeights(), prior, dist,
                           dt=1.0, steps=300, stats_refresh=5)
        assert lf.dice_score((phi > 0).astype(float), gt) >= 0.98

    def test_phi_beyond_float32_is_a_divergence(self):
        # H saturates and the energy stays finite, but no saved field could hold phi
        image = np.tile(np.arange(16) / 15, (16, 1))
        phi0 = np.full((16, 16), -0.5)
        phi0[2:14, 2:14] = 0.5
        prior = ls.AreaPrior.from_a1(144.0, 256)
        with pytest.raises(DivergenceError, match="float32") as exc:
            ls.evolve(image, phi0, P, ls.EnergyWeights(), prior, np.zeros_like(image),
                      dt=1e150, steps=5)
        assert exc.value.step == 0

    def test_divergence_guard(self):
        image = np.zeros((16, 16))
        image[:, :8] = 1e200
        phi0 = normal_field((36, 0), (16, 16))
        prior = ls.AreaPrior.from_a1(128.0, 256)
        with pytest.raises(DivergenceError):
            ls.evolve(image, phi0, P, ls.EnergyWeights(), prior, np.zeros_like(image), steps=5)
