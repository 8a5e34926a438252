"""The stacked sampler gives the same bits as the member-outer one it replaced.

``diffusion.sample`` steps all ensemble members together as one (E, H, W)
stack: one provider call, one noise draw and one reverse step per step.
The functions below are the bodies it replaced, kept verbatim as the
reference: ``sample`` walked members in its outer loop, ``rng.normals``
drew one key's field per call, and ``MixtureMaskProvider.eps_hat`` took one
(H, W) state.  Masks and traces must match byte for byte, with the same
number of guidance fallback warnings; a key sequence's draw must equal its
keys' single draws, and a stacked prediction its slices' predictions.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelflow import diffusion as dif
from levelflow import geodesic, rng
from levelflow.diffusion import (
    _INIT_TAG,
    _MEMBER_TAG,
    _STEP_TAG,
    GuidanceConfig,
    PredictionDivergenceError,
    SampleResult,
    SamplerParams,
    _distance_or_zeros,
    _trace_row,
    chain_rule_grad,
    eps_to_score,
    guidance_scale,
    guided_eps,
    guided_score,
    predict_y0,
    reverse_step,
    score_to_eps,
)
from levelflow.errors import InvalidInputError
from levelflow.errors import require_instance as _require_instance
from levelflow.field import as_field, check_same_shape

# ---------------------------------------------------------------------------
# Reference bodies
# ---------------------------------------------------------------------------


def raw_words(key: int, count: int, start: int = 0) -> np.ndarray:
    """``count`` raw uint64 words of the stream ``key``, counters ``start..``."""
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= rng._GOLDEN
    z += np.uint64(key & rng._MASK)
    return rng._finalize(z)


def uniforms(key: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform float64 samples in [0, 1)."""
    return (raw_words(key, count, start) >> np.uint64(11)).astype(np.float64) * rng._TWO_POW_NEG53


def normals(key: int, shape: tuple[int, ...] | int) -> np.ndarray:
    """Standard-normal field of the given shape via Box-Muller."""
    n = int(np.prod(shape))
    pairs = (n + 1) // 2
    # Words 0..pairs-1 give u1, the next pairs give u2; the cosines fill the
    # first half of the output and the sines the second.
    u = uniforms(key, 2 * pairs)
    # u1 = u + 2**-53 lies in (0, 1], so log() is always finite; the sum is
    # exact, the same bits as (word + 1) * 2**-53.
    r = np.sqrt(-2.0 * np.log(u[:pairs] + rng._TWO_POW_NEG53))
    theta = (2.0 * np.pi) * u[pairs:]
    z = np.empty((2, pairs))
    np.cos(theta, out=z[0])
    np.sin(theta, out=z[1])
    z *= r
    return z.ravel()[:n].reshape(shape)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


class MixtureReference:
    """``MixtureMaskProvider``'s prediction of one (H, W) state."""

    def __init__(self, provider):
        self.masks, self.weights = provider.masks, provider.weights
        self.marginal_variance = provider.marginal_variance

    def _log_terms(self, yt, t, sched) -> tuple[np.ndarray, int, float, float]:
        """The K log terms at step t, with t's index, sqrt(abar_t) and v_t."""
        v = self.marginal_variance(t, sched)  # checks t
        check_same_shape(yt, self.masks[0])
        root_abar = float(np.sqrt(sched.alpha_bar[t - 1]))
        terms = np.array(
            [
                np.log(w) - float(((yt - root_abar * m) ** 2).sum()) / (2.0 * v)
                for m, w in zip(self.masks, self.weights)
            ]
        )
        return terms, t - 1, root_abar, v

    def eps_hat(self, yt: np.ndarray, t: int, sched) -> np.ndarray:
        terms, i, root_abar, v = self._log_terms(yt, t, sched)
        ybar = sum(rk * m for rk, m in zip(_softmax(terms), self.masks))
        score = (root_abar * ybar - yt) / v
        return -score * np.sqrt(1.0 - sched.alpha_bar[i])  # score_to_eps


class FrozenReference:
    def __init__(self, provider):
        self.eps_field = provider.eps_field

    def eps_hat(self, yt, t, sched):
        dif._check_t(t, sched)
        check_same_shape(yt, self.eps_field)
        return self.eps_field


def sample(
    image, provider, sched, gp, seed, ensemble=1, cfg=GuidanceConfig(), guidance_space="noise",
    distance_refresh=50,
) -> SampleResult:
    SamplerParams(ensemble, distance_refresh, guidance_space=guidance_space)
    if not callable(getattr(provider, "eps_hat", None)):
        raise InvalidInputError(f"provider must have a callable eps_hat, got {provider!r}")
    _require_instance("cfg", cfg, GuidanceConfig)
    image = as_field(image, "image")
    cfg = replace(cfg, area=cfg.area_prior(image.size))
    speed = geodesic.speed_field(image, cfg.speed)
    shape = image.shape
    guided = gp.gamma0 > 0
    trace = np.full((sched.T, 5), np.nan)
    t_steps = np.arange(sched.T, 0, -1)
    accum = np.zeros(shape)

    # Members whose clean estimates land on one mask share its distance map.
    # An overflow is left to the divergence check on eps_hat below.
    with geodesic.reuse_solves(), np.errstate(over="ignore", invalid="ignore"):
        for member in range(ensemble):
            y = normals(rng.derive_key(seed, _MEMBER_TAG, member, _INIT_TAG), shape)
            dist = None
            for step_index, t in enumerate(t_steps):
                t = int(t)
                raw = provider.eps_hat(y, t, sched)
                try:
                    eps_hat = as_field(raw, "eps_hat")
                except InvalidInputError:
                    if np.isfinite(np.asarray(raw, dtype=np.float64)).all():
                        raise  # a malformed prediction, not a blow-up
                    raise PredictionDivergenceError(
                        f"noise prediction became non-finite at t={t}", step=step_index
                    ) from None
                needs_energy = guided or member == 0
                if needs_energy and step_index % distance_refresh == 0:
                    y0_est = np.clip(predict_y0(y, eps_hat, t, sched), 0.0, 1.0)
                    dist = _distance_or_zeros(speed, y0_est)
                if member == 0:
                    trace[step_index] = _trace_row(image, y, eps_hat, t, sched, cfg, dist)
                if guided:
                    g = chain_rule_grad(y, eps_hat, t, sched, image, cfg, dist=dist)
                    if guidance_space == "noise":
                        eps_use = guided_eps(eps_hat, g, t, sched, gp)
                    else:
                        gamma_eps = guidance_scale(gp, t, sched)
                        gamma_st = gamma_eps / float(np.sqrt(1.0 - sched.alpha_bar[t - 1]))
                        s = eps_to_score(eps_hat, t, sched)
                        eps_use = score_to_eps(guided_score(s, g, gamma_st), t, sched)
                else:
                    eps_use = eps_hat
                if t > 1:
                    key = rng.derive_key(seed, _MEMBER_TAG, member, _STEP_TAG, t)
                    xi = normals(key, shape)
                else:
                    xi = np.zeros(shape)
                y = reverse_step(y, eps_use, t, sched, xi)
            accum += y

    mask = np.clip(accum / ensemble, 0.0, 1.0)
    return SampleResult(mask=mask, trace=trace, t_steps=t_steps)


# ---------------------------------------------------------------------------
# Drawn inputs
# ---------------------------------------------------------------------------

# Odd sizes give an odd pixel count, whose draw rounds up to whole pairs.
SHAPES = [(9, 13), (8, 8), (7, 10), (12, 11)]


def _box(gen, shape) -> np.ndarray:
    h, w = shape
    r0, c0 = gen.integers(0, h // 2), gen.integers(0, w // 2)
    mask = np.zeros(shape)
    mask[r0 : r0 + gen.integers(2, h - r0 + 1), c0 : c0 + gen.integers(2, w - c0 + 1)] = 1.0
    return mask


@st.composite
def _providers(draw, shape):
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["mixture", "frozen"])) == "frozen":
        scale = draw(st.sampled_from([0.1, 1.0, 50.0]))
        return dif.FrozenFieldProvider(scale * gen.standard_normal(shape))
    k = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    weights = tuple(c / sum(counts) for c in counts)
    masks = tuple(_box(gen, shape) for _ in range(k))
    scale = draw(st.sampled_from([0.0, 0.1, 0.3]))
    return dif.MixtureMaskProvider(masks, weights, noise_scale=scale)


def _reference_provider(provider):
    if isinstance(provider, dif.FrozenFieldProvider):
        return FrozenReference(provider)
    return MixtureReference(provider)


def _run(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", dif.GuidanceFallbackWarning)
        result = fn(*args, **kwargs)
    fallbacks = [w for w in caught if issubclass(w.category, dif.GuidanceFallbackWarning)]
    return result, len(fallbacks)


@settings(max_examples=60)
@given(data=st.data())
def test_stacked_sample_matches_member_outer_reference(data):
    shape = data.draw(st.sampled_from(SHAPES), label="shape")
    steps = data.draw(st.integers(1, 8), label="T")
    provider = data.draw(_providers(shape), label="provider")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="image seed"))
    image = 0.8 * _box(gen, shape) + 0.1 * gen.standard_normal(shape)
    sched = dif.make_schedule(steps, 1e-3, 0.2)
    gp = dif.GuidancePolicy(gamma0=data.draw(st.sampled_from([0.0, 0.3]), label="gamma0"))
    kwargs = {
        "ensemble": data.draw(st.sampled_from([1, 2, 3, 5]), label="E"),
        "guidance_space": data.draw(st.sampled_from(dif.GUIDANCE_SPACES), label="space"),
        "distance_refresh": data.draw(st.sampled_from(sorted({1, 3, steps})), label="refresh"),
    }
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    want, want_fallbacks = _run(
        sample, image, _reference_provider(provider), sched, gp, seed, **kwargs
    )
    got, got_fallbacks = _run(dif.sample, image, provider, sched, gp, seed, **kwargs)
    assert got.mask.tobytes() == want.mask.tobytes()
    assert got.trace.tobytes() == want.trace.tobytes()
    assert got.t_steps.tobytes() == want.t_steps.tobytes()
    assert got_fallbacks == want_fallbacks


# The shapes of test_rng.py::test_normals_bytes_equal_the_reference_formula.
@pytest.mark.parametrize("shape", [(64, 64), (128, 128), (7, 9), (1, 1), 5, 0, (3, 0)])
@pytest.mark.parametrize("ensemble", [1, 3])
def test_a_key_sequence_draws_each_keys_field(shape, ensemble):
    keys = [rng.derive_key(k, 3) for k in range(ensemble)]
    stack = rng.normals(keys, shape)
    assert stack.shape == (ensemble, *np.shape(np.empty(shape)))
    for key, got in zip(keys, stack):
        assert got.tobytes() == rng.normals(key, shape).tobytes()
        assert got.tobytes() == normals(key, shape).tobytes()


def test_a_key_sequence_gives_rows_of_words_and_uniforms():
    keys = [rng.derive_key(k) for k in (4, 5)] + [2**64 - 1]
    words, u = rng.raw_words(keys, 9, start=7), rng.uniforms(keys, 9, start=7)
    assert words.shape == u.shape == (3, 9)
    for e, key in enumerate(keys):
        assert words[e].tobytes() == raw_words(key, 9, start=7).tobytes()
        assert u[e].tobytes() == uniforms(key, 9, start=7).tobytes()


@settings(max_examples=40)
@given(data=st.data())
def test_stacked_prediction_equals_its_slices(data):
    shape = data.draw(st.sampled_from(SHAPES + [(64, 64), (128, 128)]), label="shape")
    provider = data.draw(_providers(shape), label="provider")
    ensemble = data.draw(st.sampled_from([1, 2, 5]), label="E")
    sched = dif.make_schedule(8, 1e-3, 0.2)
    t = data.draw(st.integers(1, 8), label="t")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="y seed"))
    stack = data.draw(st.sampled_from([1e-3, 1.0, 30.0])) * gen.standard_normal((ensemble, *shape))
    got = provider.eps_hat(stack, t, sched)
    assert got.shape == stack.shape
    reference = _reference_provider(provider)
    for e in range(ensemble):
        want = reference.eps_hat(stack[e], t, sched)
        assert got[e].tobytes() == want.tobytes()
        assert provider.eps_hat(stack[e], t, sched).tobytes() == want.tobytes()
