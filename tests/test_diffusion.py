import contextlib
import math
import re

import numpy as np
import pytest

import levelflow as lf
from levelflow import diffusion as dif
from levelflow import geodesic
from levelflow import levelset as ls
from levelflow.config import ExperimentConfig
from levelflow.errors import DivergenceError, InvalidInputError

from conftest import central_fd_grad, normal_field, rel_inf_err, uniform_field


def modes_32():
    rows, cols = np.mgrid[0:32, 0:32].astype(float)
    rr = (rows - 16) ** 2 + (cols - 16) ** 2
    disk = (rr <= 8**2).astype(float)
    ring = ((rr <= 10**2) & (rr >= 6**2)).astype(float)
    return disk, ring


class TestSchedule:
    def test_single_step_product(self):
        sched = dif.make_schedule(1, 0.3, 0.3)
        assert sched.alpha_bar[0] == pytest.approx(0.7, abs=1e-15)

    def test_default_long_schedule_locks_terminal_value(self):
        sched = dif.make_schedule(1000)
        # computed once and locked: near-pure noise at the end
        assert sched.alpha_bar[-1] == pytest.approx(4.0358297654e-05, rel=1e-8)
        assert sched.alpha_bar[-1] < 0.01

    def test_invariants(self):
        sched = dif.make_schedule(100, 1e-3, 0.1)
        assert np.all(np.diff(sched.alpha_bar) < 0)
        assert np.all((sched.alpha_bar > 0) & (sched.alpha_bar < 1))
        assert np.all(sched.sigma >= 0)
        assert sched.sigma[0] == 0.0
        assert np.allclose(sched.alpha, 1.0 - sched.beta)

    def test_bad_betas_rejected(self):
        with pytest.raises(InvalidInputError):
            dif.make_schedule(10, 0.02, 0.0001)  # beta1 > betaT
        with pytest.raises(InvalidInputError):
            dif.make_schedule(10, 0.0, 0.01)
        with pytest.raises(InvalidInputError):
            dif.make_schedule(10, 0.01, 1.0)
        with pytest.raises(InvalidInputError):
            dif.make_schedule(0)


class TestForwardAndPredict:
    def test_zero_noise_mean(self):
        sched = dif.make_schedule(30, 1e-3, 0.2)
        y0 = uniform_field((80, 0), (8, 8))
        yt = dif.forward_sample(y0, 12, sched, np.zeros((8, 8)))
        assert np.allclose(yt, np.sqrt(sched.alpha_bar[11]) * y0, rtol=1e-15)

    def test_zero_signal(self):
        sched = dif.make_schedule(30, 1e-3, 0.2)
        eps = normal_field((80, 1), (8, 8))
        yt = dif.forward_sample(np.zeros((8, 8)), 12, sched, eps)
        assert np.allclose(yt, np.sqrt(1 - sched.alpha_bar[11]) * eps, rtol=1e-15)

    def test_chain_matches_closed_form(self):
        # stepwise noising with matched effective noise reproduces the
        # closed-form marginal exactly
        sched = dif.make_schedule(25, 1e-3, 0.15)
        y0 = uniform_field((80, 2), (4, 4))
        y = y0.copy()
        for k in range(1, 26):
            e_k = normal_field((80, 100 + k), (4, 4))
            y = np.sqrt(sched.alpha[k - 1]) * y + np.sqrt(sched.beta[k - 1]) * e_k
        abar = sched.alpha_bar[-1]
        eps_eff = (y - np.sqrt(abar) * y0) / np.sqrt(1 - abar)
        closed = dif.forward_sample(y0, 25, sched, eps_eff)
        assert np.allclose(closed, y, atol=1e-6)

    def test_round_trip_identity(self):
        sched = dif.make_schedule(30, 1e-3, 0.2)
        y0 = uniform_field((80, 3), (8, 8))
        eps = normal_field((80, 4), (8, 8))
        for t in (1, 7, 30):
            yt = dif.forward_sample(y0, t, sched, eps)
            back = dif.predict_y0(yt, eps, t, sched)
            assert np.allclose(back, y0, atol=1e-6)

    def test_predict_with_zero_eps(self):
        sched = dif.make_schedule(30, 1e-3, 0.2)
        yt = uniform_field((80, 5), (8, 8))
        got = dif.predict_y0(yt, np.zeros((8, 8)), 9, sched)
        assert np.allclose(got, yt / np.sqrt(sched.alpha_bar[8]), rtol=1e-15)

    def test_t_out_of_range(self):
        sched = dif.make_schedule(10)
        z = np.zeros((4, 4))
        for t in (0, 11):
            with pytest.raises(InvalidInputError):
                dif.forward_sample(z, t, sched, z)
            with pytest.raises(InvalidInputError):
                dif.predict_y0(z, z, t, sched)
            with pytest.raises(InvalidInputError):
                dif.reverse_step(z, z, t, sched, z)

    @pytest.mark.parametrize("t", ["3", None, 3.0, np.float64(3.0), True])
    def test_t_of_another_type_rejected(self, t):
        # "3" and None raised a bare TypeError, 3.0 an IndexError; True was step 1
        sched = dif.make_schedule(10)
        z = np.zeros((4, 4))
        with pytest.raises(InvalidInputError, match=r"^t expects int, got "):
            dif.forward_sample(z, t, sched, z)
        eps = normal_field((80, 6), (4, 4))
        assert np.array_equal(dif.forward_sample(z, np.int64(3), sched, eps),
                              dif.forward_sample(z, 3, sched, eps))


class TestReverseStep:
    def test_zero_eps_zero_xi(self):
        sched = dif.make_schedule(30, 1e-3, 0.2)
        yt = uniform_field((81, 0), (8, 8))
        out = dif.reverse_step(yt, np.zeros((8, 8)), 10, sched, np.zeros((8, 8)))
        assert np.allclose(out, yt / np.sqrt(sched.alpha[9]), rtol=1e-15)

    def test_one_step_schedule_recovers_clean_signal(self):
        sched = dif.make_schedule(1, 0.2, 0.2)
        y0 = uniform_field((81, 1), (8, 8))
        eps = normal_field((81, 2), (8, 8))
        y1 = dif.forward_sample(y0, 1, sched, eps)
        out = dif.reverse_step(y1, eps, 1, sched, normal_field((81, 3), (8, 8)))
        # sigma_1 = 0: the injected xi must not matter
        assert np.allclose(out, y0, atol=1e-9)

    def test_deterministic(self):
        sched = dif.make_schedule(20, 1e-3, 0.2)
        yt = normal_field((81, 4), (8, 8))
        eps = normal_field((81, 5), (8, 8))
        xi = normal_field((81, 6), (8, 8))
        a = dif.reverse_step(yt, eps, 15, sched, xi)
        b = dif.reverse_step(yt, eps, 15, sched, xi)
        assert np.array_equal(a, b)


class TestGuidance:
    def test_gamma_zero_is_identity(self):
        sched = dif.make_schedule(20, 1e-3, 0.2)
        eps = normal_field((82, 0), (8, 8))
        grad = normal_field((82, 1), (8, 8))
        out = dif.guided_eps(eps, grad, 5, sched, dif.GuidancePolicy(gamma0=0.0))
        assert np.array_equal(out, eps)

    def test_zero_gradient_is_identity(self):
        sched = dif.make_schedule(20, 1e-3, 0.2)
        eps = normal_field((82, 2), (8, 8))
        out = dif.guided_eps(eps, np.zeros((8, 8)), 5, sched, dif.GuidancePolicy(gamma0=2.0))
        assert np.array_equal(out, eps)

    def test_score_noise_space_identity(self):
        # converting guided eps to a score equals guiding the score with the
        # converted scale, for every t
        sched = dif.make_schedule(20, 1e-3, 0.2)
        eps = normal_field((82, 3), (8, 8))
        grad = normal_field((82, 4), (8, 8))
        gp = dif.GuidancePolicy(gamma0=0.7, schedule="noise-scaled")
        for t in (1, 9, 20):
            ge = dif.guided_eps(eps, grad, t, sched, gp)
            gamma_eps = dif.guidance_scale(gp, t, sched)
            gamma_st = gamma_eps / np.sqrt(1 - sched.alpha_bar[t - 1])
            gs = dif.guided_score(dif.eps_to_score(eps, t, sched), grad, gamma_st)
            assert np.allclose(dif.score_to_eps(gs, t, sched), ge, rtol=1e-13, atol=1e-15)

    def test_noise_scaled_schedule_value(self):
        sched = dif.make_schedule(20, 1e-3, 0.2)
        gp = dif.GuidancePolicy(gamma0=0.5, schedule="noise-scaled")
        t = 13
        assert dif.guidance_scale(gp, t, sched) == pytest.approx(
            0.5 * np.sqrt(1 - sched.alpha_bar[12]), rel=1e-15
        )
        const = dif.GuidancePolicy(gamma0=0.5, schedule="constant")
        assert dif.guidance_scale(const, t, sched) == 0.5


class TestChainRuleGrad:
    def _config(self, image):
        return dif.GuidanceConfig(
            area=ls.AreaPrior.from_a1(0.4 * image.size, image.size)
        )

    def test_zero_weights_zero_field(self):
        sched = dif.make_schedule(10, 1e-3, 0.1)
        image = uniform_field((83, 0), (12, 12))
        cfg = dif.GuidanceConfig(weights=ls.EnergyWeights(0, 0, 0, 0))
        yt = normal_field((83, 1), (12, 12))
        eps = normal_field((83, 2), (12, 12))
        g = dif.chain_rule_grad(yt, eps, 5, sched, image, cfg, dist=np.zeros((12, 12)))
        assert np.all(g == 0.0)

    def test_unit_jacobian_limit(self):
        # alpha_bar ~ 1 surrogate: the pull-back factor is 1 and the
        # gradient equals the plain mask gradient
        sched = dif.make_schedule(1, 1e-12, 1e-12)
        image = uniform_field((83, 3), (12, 12))
        y = uniform_field((83, 4), (12, 12), 0.2, 0.8)
        dist = np.abs(normal_field((83, 5), (12, 12)))
        cfg = self._config(image)
        g = dif.chain_rule_grad(y, np.zeros((12, 12)), 1, sched, image, cfg, dist=dist)
        direct = ls.grad_energy_wrt_mask(
            image, y, cfg.heaviside, cfg.weights, cfg.area_prior(image.size), dist
        )
        assert np.allclose(g, direct, rtol=1e-6)

    def test_matches_finite_differences_of_composed_map(self):
        sched = dif.make_schedule(12, 1e-3, 0.15)
        t = 6
        image = uniform_field((83, 6), (12, 12))
        y0 = uniform_field((83, 7), (12, 12), 0.25, 0.75)
        eps = normal_field((83, 8), (12, 12))
        yt = dif.forward_sample(y0, t, sched, eps)
        dist = np.abs(normal_field((83, 9), (12, 12)))
        cfg = self._config(image)
        prior = cfg.area_prior(image.size)
        stats = ls.region_stats(
            image,
            ls.mask_to_levelset(np.clip(dif.predict_y0(yt, eps, t, sched), 0, 1)),
            cfg.heaviside,
        )

        def composed(yt_prime):
            yhat = np.clip(dif.predict_y0(yt_prime, eps, t, sched), 0.0, 1.0)
            return ls.energy_total(
                image, ls.mask_to_levelset(yhat), cfg.heaviside, cfg.weights, prior, dist,
                stats=stats,
            ).e_total

        fd = central_fd_grad(composed, yt)
        analytic = dif.chain_rule_grad(yt, eps, t, sched, image, cfg, dist=dist)
        assert rel_inf_err(analytic, fd) <= 1e-3

    def test_degenerate_mask_warns_and_zeroes(self):
        # with a near-hard Heaviside an all-ones clamped estimate leaves the
        # outside region without mass; guidance must fall back to zero
        sched = dif.make_schedule(10, 1e-3, 0.1)
        image = uniform_field((83, 10), (12, 12))
        cfg = dif.GuidanceConfig(
            heaviside=ls.HeavisideParams(1e-14),
            area=ls.AreaPrior.from_a1(0.4 * image.size, image.size),
        )
        yt = np.full((12, 12), 50.0)  # predicted clean mask clamps to all-ones
        with pytest.warns(dif.GuidanceFallbackWarning):
            g = dif.chain_rule_grad(
                yt, np.zeros((12, 12)), 5, sched, image, cfg, dist=np.zeros((12, 12))
            )
        assert np.all(g == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_bad_distance_rejected(self, bad):
        # unchecked, a NaN distance gives a NaN gradient and a negative one a wrong one
        sched = dif.make_schedule(10, 1e-3, 0.1)
        image = uniform_field((83, 12), (12, 12))
        yt = normal_field((83, 13), (12, 12))
        dist = np.zeros((12, 12))
        dist[3, 5] = bad
        with pytest.raises(InvalidInputError, match="distance field .*non-finite"):
            dif.chain_rule_grad(
                yt, np.zeros((12, 12)), 5, sched, image, self._config(image), dist=dist
            )


class TestMixtureProvider:
    def test_single_component_sharp(self):
        sched = dif.make_schedule(40, 1e-3, 0.2)
        disk, _ = modes_32()
        prov = dif.MixtureMaskProvider(masks=(disk,), weights=(1.0,), noise_scale=0.0)
        yt = normal_field((84, 0), (32, 32))
        t = 17
        eps = prov.eps_hat(yt, t, sched)
        abar = sched.alpha_bar[t - 1]
        expect = (yt - np.sqrt(abar) * disk) / np.sqrt(1 - abar)
        assert np.allclose(eps, expect, rtol=1e-12)

    def test_midpoint_symmetry(self):
        sched = dif.make_schedule(40, 1e-3, 0.2)
        disk, ring = modes_32()
        prov = dif.MixtureMaskProvider(masks=(disk, ring), weights=(0.5, 0.5))
        t = 11
        ymid = np.sqrt(sched.alpha_bar[t - 1]) * 0.5 * (disk + ring)
        r = prov.responsibilities(ymid, t, sched)
        assert np.allclose(r, 0.5, atol=1e-12)
        eps = prov.eps_hat(ymid, t, sched)
        direction = (disk - ring).ravel()
        assert abs(float(eps.ravel() @ direction)) <= 1e-9 * np.linalg.norm(direction)

    def test_score_matches_log_marginal_finite_differences(self):
        sched = dif.make_schedule(40, 1e-3, 0.2)
        disk, ring = modes_32()
        prov = dif.MixtureMaskProvider(
            masks=(disk[:8, :8], ring[:8, :8]), weights=(0.4, 0.6), noise_scale=0.2
        )
        yt = normal_field((84, 1), (8, 8))
        t = 15
        score = dif.eps_to_score(prov.eps_hat(yt, t, sched), t, sched)
        h = 1e-5
        fd = np.zeros_like(yt)
        for idx in np.ndindex(yt.shape):
            yp = yt.copy()
            yp[idx] += h
            ym = yt.copy()
            ym[idx] -= h
            fd[idx] = (prov.log_marginal(yp, t, sched) - prov.log_marginal(ym, t, sched)) / (
                2 * h
            )
        assert rel_inf_err(score, fd) <= 1e-4

    def test_log_marginal_of_a_stack_is_one_value_per_state(self):
        sched = dif.make_schedule(40, 1e-3, 0.2)
        disk, ring = modes_32()
        masks = (disk[:8, :8], ring[:8, :8], 1.0 - disk[:8, :8])
        prov = dif.MixtureMaskProvider(masks=masks, weights=(0.2, 0.3, 0.5))
        stack = normal_field((85, 1), (3, 8, 8))
        t = 15
        got = prov.log_marginal(stack, t, sched)
        assert got.shape == (3,)
        assert np.array_equal(got, [prov.log_marginal(y, t, sched) for y in stack])
        # one state: the logsumexp of its K terms as a flat sum, bit for bit
        terms, _, _, v = prov._log_terms(stack[0], t, sched)
        m = float(np.max(terms))
        expect = m + float(np.log(np.exp(terms - m).sum())) - 0.5 * 64 * np.log(2.0 * np.pi * v)
        assert prov.log_marginal(stack[0], t, sched) == expect

    def test_noise_scale_default_is_the_sampler_sections(self):
        disk, _ = modes_32()
        provider = dif.MixtureMaskProvider((disk,), (1.0,))
        assert provider.noise_scale == ExperimentConfig().sampler.noise_scale

    def test_validation(self):
        disk, ring = modes_32()
        with pytest.raises(InvalidInputError):
            dif.MixtureMaskProvider(masks=(), weights=())
        with pytest.raises(InvalidInputError):
            dif.MixtureMaskProvider(masks=(disk,), weights=(0.5,))
        with pytest.raises(InvalidInputError):
            dif.MixtureMaskProvider(masks=(disk, ring), weights=(1.5, -0.5))

    @pytest.mark.parametrize("scale", [-1.0, 1e300, float("nan")])
    def test_noise_scale_rule_is_the_sampler_sections(self, scale):
        disk, _ = modes_32()
        with pytest.raises(InvalidInputError) as provider_error:
            dif.MixtureMaskProvider(masks=(disk,), weights=(1.0,), noise_scale=scale)
        with pytest.raises(InvalidInputError) as params_error:
            dif.SamplerParams(noise_scale=scale)
        assert str(provider_error.value) == str(params_error.value)
        assert str(provider_error.value).startswith("noise_scale must be non-negative")

    def test_frozen_field_provider(self):
        sched = dif.make_schedule(10)
        eps = normal_field((84, 2), (8, 8))
        prov = dif.FrozenFieldProvider(eps)
        out = prov.eps_hat(np.zeros((8, 8)), 3, sched)
        assert np.array_equal(out, eps)


class TestSampler:
    def _setup(self):
        disk, ring = modes_32()
        image = disk.copy()
        sched = dif.make_schedule(40, 1e-3, 0.2)
        prov = dif.MixtureMaskProvider(masks=(disk, ring), weights=(0.5, 0.5), noise_scale=0.1)
        cfg = dif.GuidanceConfig(area=ls.AreaPrior.from_a1(float(disk.sum()), disk.size))
        return image, sched, prov, cfg

    def test_gamma_zero_bitwise_equals_unguided(self):
        image, sched, prov, cfg = self._setup()
        a = dif.sample(image, prov, sched, dif.GuidancePolicy(gamma0=0.0), seed=3, cfg=cfg)
        b = dif.sample(image, prov, sched, dif.GuidancePolicy(gamma0=0.0), seed=3, cfg=cfg)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.trace, b.trace)

    def test_full_pipeline_determinism(self):
        image, sched, prov, cfg = self._setup()
        gp = dif.GuidancePolicy(gamma0=0.3)
        a = dif.sample(image, prov, sched, gp, seed=11, ensemble=3, cfg=cfg)
        b = dif.sample(image, prov, sched, gp, seed=11, ensemble=3, cfg=cfg)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.trace, b.trace)

    def test_ensemble_mean_in_range(self):
        image, sched, prov, cfg = self._setup()
        res = dif.sample(
            image, prov, sched, dif.GuidancePolicy(gamma0=0.0), seed=5, ensemble=4, cfg=cfg
        )
        assert res.mask.min() >= 0.0
        assert res.mask.max() <= 1.0
        assert res.trace.shape == (40, 5)
        assert res.t_steps[0] == 40 and res.t_steps[-1] == 1

    def test_unknown_guidance_space_rejected(self):
        image, sched, prov, cfg = self._setup()
        with pytest.raises(InvalidInputError,
                           match="guidance_space must be one of noise, score, got 'x'"):
            dif.sample(image, prov, sched, dif.GuidancePolicy(), seed=0, cfg=cfg,
                       guidance_space="x")

    @pytest.mark.parametrize("space", dif.GUIDANCE_SPACES)
    def test_blown_up_guidance_is_a_divergence(self, space):
        image, sched, prov, cfg = self._setup()
        with pytest.raises(DivergenceError, match="noise prediction became non-finite") as exc:
            dif.sample(image, prov, sched, dif.GuidancePolicy(gamma0=1e200), seed=0, cfg=cfg,
                       guidance_space=space)
        assert exc.value.step == 1

    def test_empty_estimate_warns_at_each_distance_refresh(self):
        # a prediction far above y_t clamps every clean estimate to all zeros:
        # no seed pixels for the distance map, so each refresh falls back to zeros
        sched = dif.make_schedule(10, 1e-3, 0.1)
        image = uniform_field((83, 11), (12, 12))
        provider = dif.FrozenFieldProvider(np.full((12, 12), 50.0))
        cfg = dif.GuidanceConfig(area=ls.AreaPrior.from_a1(0.4 * image.size, image.size))
        with pytest.warns(dif.GuidanceFallbackWarning) as record:
            dif.sample(image, provider, sched, dif.GuidancePolicy(gamma0=0.3), seed=0, cfg=cfg,
                       distance_refresh=4)
        empty = [w for w in record if str(w.message).startswith("empty thresholded mask")]
        assert len(empty) == math.ceil(sched.T / 4)

    def test_malformed_prediction_is_invalid_input(self):
        image, sched, _, cfg = self._setup()

        class Flat:
            def eps_hat(self, yt, t, sched):
                return yt.ravel()

        with pytest.raises(InvalidInputError,
                           match=r"eps_hat must have shape \(1, 32, 32\), got \(1024,\)"):
            dif.sample(image, Flat(), sched, dif.GuidancePolicy(gamma0=0.0), seed=0, cfg=cfg)

    def test_one_member_turning_non_finite_is_a_divergence_at_its_step(self):
        # the whole stack steps together, so the first step at which any
        # member's prediction is non-finite is the one reported
        image, sched, prov, cfg = self._setup()
        k = 7

        class LastMemberBlowsUp:
            def eps_hat(self, yt, t, sched):
                eps = prov.eps_hat(yt, t, sched)
                if t == sched.T - k:
                    eps[2, 5, 5] = np.inf
                return eps

        with pytest.raises(dif.PredictionDivergenceError, match=f"at t={sched.T - k} ") as exc:
            dif.sample(image, LastMemberBlowsUp(), sched, dif.GuidancePolicy(gamma0=0.3), seed=0,
                       ensemble=3, cfg=cfg)
        assert exc.value.step == k

    @pytest.mark.parametrize(
        "reshape, got", [(lambda eps: eps[0], "(32, 32)"), (lambda eps: eps[:2], "(2, 32, 32)")],
        ids=["one-field", "wrong-ensemble"],
    )
    def test_prediction_of_another_shape_names_both_shapes(self, reshape, got):
        image, sched, prov, cfg = self._setup()

        class Misshapen:
            def eps_hat(self, yt, t, sched):
                return reshape(prov.eps_hat(yt, t, sched))

        message = re.escape(f"eps_hat must have shape (3, 32, 32), got {got}")
        with pytest.raises(InvalidInputError, match=message):
            dif.sample(image, Misshapen(), sched, dif.GuidancePolicy(gamma0=0.0), seed=0,
                       ensemble=3, cfg=cfg)

    def test_float32_prediction_is_read_as_float64(self):
        image, sched, prov, cfg = self._setup()

        class Float32:
            def eps_hat(self, yt, t, sched):
                return prov.eps_hat(yt, t, sched).astype(np.float32)

        class Widened:
            def eps_hat(self, yt, t, sched):
                return prov.eps_hat(yt, t, sched).astype(np.float32).astype(np.float64)

        gp = dif.GuidancePolicy(gamma0=0.3)
        a = dif.sample(image, Float32(), sched, gp, seed=4, ensemble=3, cfg=cfg)
        b = dif.sample(image, Widened(), sched, gp, seed=4, ensemble=3, cfg=cfg)
        assert a.mask.tobytes() == b.mask.tobytes()
        assert a.trace.tobytes() == b.trace.tobytes()

    def test_twenty_member_ensemble_reproducible_bitwise(self):
        disk, ring = modes_32()
        image = disk[:16, :16]
        sched = dif.make_schedule(8, 0.01, 0.3)
        prov = dif.MixtureMaskProvider(
            masks=(disk[:16, :16], ring[:16, :16]), weights=(0.5, 0.5), noise_scale=0.1
        )
        cfg = dif.GuidanceConfig()
        gp = dif.GuidancePolicy(gamma0=0.0)
        a = dif.sample(image, prov, sched, gp, seed=6, ensemble=20, cfg=cfg)
        b = dif.sample(image, prov, sched, gp, seed=6, ensemble=20, cfg=cfg)
        assert np.array_equal(a.mask, b.mask)
        assert a.mask.min() >= 0.0 and a.mask.max() <= 1.0

    def test_noise_and_score_spaces_match(self):
        image, sched, prov, cfg = self._setup()
        gp = dif.GuidancePolicy(gamma0=0.3)
        a = dif.sample(image, prov, sched, gp, seed=2, cfg=cfg, guidance_space="noise")
        b = dif.sample(image, prov, sched, gp, seed=2, cfg=cfg, guidance_space="score")
        assert np.abs(a.mask - b.mask).max() <= 1e-9

    def test_guided_seed_change_changes_output(self):
        image, sched, prov, cfg = self._setup()
        gp = dif.GuidancePolicy(gamma0=0.0)
        a = dif.sample(image, prov, sched, gp, seed=1, cfg=cfg)
        b = dif.sample(image, prov, sched, gp, seed=2, cfg=cfg)
        assert not np.array_equal(a.mask, b.mask)

    def test_guidance_prefers_image_consistent_mode(self):
        # paired-seed study (small version; the acceptance suite runs the
        # full one): guided samples land on the disk mode at least as often
        # and with lower mean final energy
        image, sched, prov, cfg = self._setup()
        disk, ring = modes_32()
        stats = {0.0: [], 0.3: []}
        modes = {0.0: 0, 0.3: 0}
        for seed in range(8):
            for g0 in (0.0, 0.3):
                res = dif.sample(
                    image, prov, sched, dif.GuidancePolicy(gamma0=g0), seed=seed, cfg=cfg
                )
                stats[g0].append(res.trace[-1, 4])
                if ((res.mask - disk) ** 2).sum() < ((res.mask - ring) ** 2).sum():
                    modes[g0] += 1
        assert np.mean(stats[0.3]) < np.mean(stats[0.0])
        assert modes[0.3] >= modes[0.0]

    def test_reused_solves_are_bit_identical(self, monkeypatch):
        # members whose clean estimates fall onto one mode ask for the same
        # distance map; answering from memory must change no bit
        image, sched, prov, cfg = self._setup()
        cfg = dif.GuidanceConfig(area=cfg.area)
        gp = dif.GuidancePolicy(gamma0=0.3)
        inits = []
        original = geodesic._exact_init

        def counting(*args):
            inits.append(args)
            return original(*args)

        monkeypatch.setattr(geodesic, "_exact_init", counting)
        runs = []
        for scope in (geodesic.reuse_solves, contextlib.nullcontext):
            monkeypatch.setattr(geodesic, "reuse_solves", scope)
            inits.clear()
            runs.append((dif.sample(image, prov, sched, gp, seed=7, ensemble=4, cfg=cfg,
                                    distance_refresh=10), len(inits)))
        (reused, n_reused), (fresh, n_fresh) = runs
        assert n_fresh == 4 * 4  # every member refreshes at steps 40, 30, 20, 10
        assert n_reused < n_fresh
        assert reused.mask.tobytes() == fresh.mask.tobytes()
        assert reused.trace.tobytes() == fresh.trace.tobytes()

    def test_bad_ensemble(self):
        image, sched, prov, cfg = self._setup()
        with pytest.raises(InvalidInputError):
            dif.sample(image, prov, sched, dif.GuidancePolicy(), seed=0, ensemble=0, cfg=cfg)


class TestTraceEnergyPasses:
    """Each trace row is one energy pass: one H, and no public energy_total."""

    @pytest.mark.parametrize("gamma0, ensemble", [(0.0, 1), (0.3, 3)], ids=["unguided", "guided"])
    def test_heaviside_and_energy_total_calls(self, monkeypatch, gamma0, ensemble):
        image, sched, prov, cfg = TestSampler()._setup()
        calls = {"heaviside": 0, "energy_total": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(ls, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ls, name, counting)
        gp = dif.GuidancePolicy(gamma0=gamma0)
        dif.sample(image, prov, sched, gp, seed=3, ensemble=ensemble, cfg=cfg)
        # T trace rows, plus one H per guidance gradient of every member step
        guided_steps = ensemble * sched.T if gamma0 > 0 else 0
        assert calls == {"heaviside": sched.T + guided_steps, "energy_total": 0}


class TestPerCallConstants:
    """What stays fixed for a call is derived once in it."""

    def test_one_speed_field_per_sample_call(self, monkeypatch):
        image, sched, prov, cfg = TestSampler()._setup()
        calls = {"speed_field": 0, "solve_eikonal": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(geodesic, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(geodesic, name, counting)
        dif.sample(image, prov, sched, dif.GuidancePolicy(gamma0=0.3), seed=5, ensemble=3,
                   cfg=cfg, distance_refresh=2)
        # every member refreshes its distance map every 2 of the T steps, on one speed field
        assert calls == {"speed_field": 1, "solve_eikonal": 3 * math.ceil(sched.T / 2)}

    def test_one_schedule_lookup_per_eps_hat(self, monkeypatch):
        _, sched, prov, _ = TestSampler()._setup()
        calls = []
        for owner, name in [(dif, "_check_t"), (dif.MixtureMaskProvider, "marginal_variance")]:
            def counting(*args, _name=name, _original=getattr(owner, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(owner, name, counting)
        prov.eps_hat(normal_field((86, 0), prov.masks[0].shape), 7, sched)
        assert calls == ["marginal_variance", "_check_t"]

    def test_one_default_area_prior_per_sample_call(self, monkeypatch):
        image, _, prov, _ = TestSampler()._setup()
        calls = []
        from_a1 = ls.AreaPrior.from_a1

        def counting(cls, *args):
            calls.append(args)
            return from_a1(*args)

        monkeypatch.setattr(ls.AreaPrior, "from_a1", classmethod(counting))
        dif.sample(image, prov, dif.make_schedule(5, 1e-3, 0.2), dif.GuidancePolicy(gamma0=0.3),
                   seed=5, ensemble=2, cfg=dif.GuidanceConfig())
        # 5 trace rows and 10 guidance gradients all read the one prior
        assert calls == [(0.5 * image.size, image.size)]


class TestLosses:
    def test_perfect_prediction_zero(self):
        eps = normal_field((85, 0), (8, 8))
        assert dif.dpm_loss(eps, eps.copy()) == 0.0

    def test_total_loss_arithmetic(self):
        assert dif.total_loss(1.0, 2.0, 10.0, eta1=0.5, eta2=0.005) == pytest.approx(2.05)

    def test_weight_linearity(self):
        a = normal_field((85, 1), (8, 8))
        b = normal_field((85, 2), (8, 8))
        assert dif.dpm_loss(a, b, w_t=2.0) == pytest.approx(2 * dif.dpm_loss(a, b, w_t=1.0))

    @pytest.mark.parametrize("key", ["l_dpm", "l_lsf", "l_par"])
    @pytest.mark.parametrize("value", ["a", None, True, 1 + 0j])
    def test_loss_of_another_type_rejected(self, key, value):
        # "a" and None raised a bare TypeError; True and 1+0j were summed
        losses = {"l_dpm": 1.0, "l_lsf": 2.0, "l_par": 3.0, key: value}
        with pytest.raises(InvalidInputError, match=rf"^{key} expects float, got "):
            dif.total_loss(**losses)

    @pytest.mark.parametrize("eta1, eta2", [(-1.0, 0.005), (0.5, -1e-9)])
    def test_negative_eta_rejected(self, eta1, eta2):
        with pytest.raises(InvalidInputError, match="^eta1 must" if eta1 < 0 else "^eta2 must"):
            dif.total_loss(1.0, 2.0, 10.0, eta1=eta1, eta2=eta2)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            dif.dpm_loss(np.zeros((4, 4)), np.zeros((4, 4)), w_t=0.0)
