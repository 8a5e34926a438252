"""Diffusion schedule, ancestral sampling and energy-guided sampling.

The forward chain is the standard variance-preserving one:
``y_t = sqrt(abar_t) y_0 + sqrt(1 - abar_t) eps`` with ``abar_t`` the
cumulative product of ``alpha_t = 1 - beta_t``.  Instead of a trained
noise predictor, pluggable analytic providers supply ``eps_hat``; the
mixture-of-masks provider computes the exact score of a Gaussian mixture
over reference masks, so the guidance math can be exercised end to end
without any learned component (anything exposing ``eps_hat(y_t, t,
schedule)`` can be swapped in, including a trained model).  ``sample``
passes it the ensemble as one (E, H, W) stack of states and expects a
prediction of the same shape; the analytic providers also take one state.

Energy guidance shifts the prediction by the gradient of the contour
energy evaluated at the one-shot clean-mask estimate:

    eps_guided = eps_hat + gamma_t * d(energy)/d(y_t),

where the chain rule through ``y0_hat = (y_t - sqrt(1-abar) eps_hat) /
sqrt(abar)`` contributes a ``1/sqrt(abar_t)`` factor (``eps_hat`` treated
as locally constant).  The identical update can be phrased on the score
via ``score = -eps / sqrt(1 - abar_t)``; both formulations are provided
and are algebraically equivalent.

The config sections ``schedule``, ``guidance``, ``sampler`` and ``losses``
live here, and the functions that read them build them to check arguments.
``sample``, ``chain_rule_grad``, ``forward_sample``, ``dpm_loss`` and the
provider constructors validate their fields; ``predict_y0``,
``reverse_step``, the guidance updates and the provider methods are
kernels that trust theirs (see :mod:`levelflow.field`).  What is fixed for
a call is derived once in it: ``sample`` builds one speed field for all its
distance refreshes and one area prior for all its steps, and a provider
method looks up step t's entries once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import geodesic, levelset, rng
from .errors import AT_LEAST_1, NON_NEGATIVE, POSITIVE, DegenerateRegionError, DivergenceError
from .errors import InvalidInputError, Params, Rule, one_of, param, require, require_floats
from .errors import require_instance, require_ints
from .field import _as_float64, as_field, as_fields, binarize, check_same_shape

GUIDANCE_SCHEDULES = ("constant", "noise-scaled")
GUIDANCE_SPACES = ("noise", "score")

_MEMBER_TAG = 0x4D454D42  # "MEMB"
_INIT_TAG = 0x494E4954  # "INIT"
_STEP_TAG = 0x53544550  # "STEP"


class GuidanceFallbackWarning(UserWarning):
    """Emitted when a guidance gradient falls back to zero (degenerate mask)."""


class PredictionDivergenceError(DivergenceError):
    """The noise prediction turned non-finite: the sampler itself diverged."""


@dataclass(frozen=True)
class ScheduleParams(Params):
    steps: int = param(1000, AT_LEAST_1)
    beta1: float = param(1e-4, Rule(lambda v: 0 < v < 1, "in (0, 1)"))
    betaT: float = 0.02

    def __post_init__(self):
        super().__post_init__()
        require(self.beta1 <= self.betaT < 1, "betaT", "in [beta1, 1)", self.betaT)


@dataclass(frozen=True)
class DiffusionSchedule(Params):
    """Variance schedule arrays, all of length T, indexed by t - 1.

    ``sigma`` is the reverse-step noise scale sqrt(beta_t), forced to 0 at
    t = 1 so the returned sample is noise-free.
    """

    T: int = param(rule=AT_LEAST_1)
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        for key in ("beta", "alpha", "alpha_bar", "sigma"):
            shape = getattr(self, key).shape
            require(shape == (self.T,), key, f"of shape ({self.T},)", shape)


def make_schedule(
    T: int, beta1: float = ScheduleParams.beta1, betaT: float = ScheduleParams.betaT
) -> DiffusionSchedule:
    """Linear variance schedule from beta1 to betaT over T steps."""
    ScheduleParams(T, beta1, betaT)
    beta = np.linspace(beta1, betaT, T)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    sigma = np.sqrt(beta)
    sigma[0] = 0.0
    return DiffusionSchedule(T=T, beta=beta, alpha=alpha, alpha_bar=alpha_bar, sigma=sigma)


def _check_t(t: int, sched: DiffusionSchedule) -> int:
    if type(t) is not int:  # the sampler's own steps are ints
        require_ints(t=t)
    require_instance("sched", sched, DiffusionSchedule)
    if not 1 <= t <= sched.T:
        raise InvalidInputError(f"step t={t} outside [1, {sched.T}]")
    return t - 1


def forward_sample(
    y0: np.ndarray, t: int, sched: DiffusionSchedule, noise: np.ndarray
) -> np.ndarray:
    """y_t = sqrt(abar_t) y0 + sqrt(1 - abar_t) noise (noise supplied by caller)."""
    i = _check_t(t, sched)
    y0, noise = as_fields(y0=y0, noise=noise)
    abar = sched.alpha_bar[i]
    return np.sqrt(abar) * y0 + np.sqrt(1.0 - abar) * noise


def predict_y0(
    yt: np.ndarray, eps_hat: np.ndarray, t: int, sched: DiffusionSchedule
) -> np.ndarray:
    """One-shot clean estimate y0_hat = (y_t - sqrt(1-abar) eps_hat) / sqrt(abar)."""
    i = _check_t(t, sched)
    check_same_shape(yt, eps_hat)
    abar = sched.alpha_bar[i]
    return (yt - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar)


def reverse_step(
    yt: np.ndarray, eps_hat: np.ndarray, t: int, sched: DiffusionSchedule, xi: np.ndarray
) -> np.ndarray:
    """One ancestral step t -> t-1 with caller-supplied standard noise xi."""
    i = _check_t(t, sched)
    check_same_shape(yt, eps_hat, xi)
    alpha = sched.alpha[i]
    abar = sched.alpha_bar[i]
    mean = (yt - (1.0 - alpha) / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(alpha)
    return mean + sched.sigma[i] * xi


def eps_to_score(eps: np.ndarray, t: int, sched: DiffusionSchedule) -> np.ndarray:
    i = _check_t(t, sched)
    return -np.asarray(eps) / np.sqrt(1.0 - sched.alpha_bar[i])


def score_to_eps(score: np.ndarray, t: int, sched: DiffusionSchedule) -> np.ndarray:
    i = _check_t(t, sched)
    return -np.asarray(score) * np.sqrt(1.0 - sched.alpha_bar[i])


# ---------------------------------------------------------------------------
# Guidance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuidancePolicy(Params):
    """Strength of the energy term injected into each reverse step.

    ``noise-scaled`` multiplies gamma0 by sqrt(1 - abar_t), which keeps the
    injected term commensurate with the score-to-noise conversion across
    the whole chain; ``constant`` applies gamma0 as is.
    """

    gamma0: float = param(0.3, NON_NEGATIVE)
    schedule: str = param("noise-scaled", one_of(GUIDANCE_SCHEDULES))


def guidance_scale(gp: GuidancePolicy, t: int, sched: DiffusionSchedule) -> float:
    require_instance("gp", gp, GuidancePolicy)
    i = _check_t(t, sched)
    if gp.schedule == "noise-scaled":
        return gp.gamma0 * float(np.sqrt(1.0 - sched.alpha_bar[i]))
    return gp.gamma0


def guided_eps(
    eps_hat: np.ndarray,
    grad_lsf: np.ndarray,
    t: int,
    sched: DiffusionSchedule,
    gp: GuidancePolicy,
) -> np.ndarray:
    """Noise-space guidance: eps_hat + gamma_t * grad."""
    check_same_shape(eps_hat, grad_lsf)
    return eps_hat + guidance_scale(gp, t, sched) * grad_lsf


def guided_score(score: np.ndarray, grad_lsf: np.ndarray, gamma_st: float) -> np.ndarray:
    """Score-space guidance: score - gamma_st * grad."""
    require_floats(gamma_st=gamma_st)
    check_same_shape(score, grad_lsf)
    return score - gamma_st * grad_lsf


@dataclass(frozen=True)
class SamplerParams(Params):
    ensemble: int = param(1, AT_LEAST_1)
    distance_refresh: int = param(50, AT_LEAST_1)
    noise_scale: float = param(
        0.1,
        Rule(lambda v: v >= 0 and NON_NEGATIVE.test(v * v), "non-negative, with a finite square"),
    )
    guidance_space: str = param("noise", one_of(GUIDANCE_SPACES))


@dataclass(frozen=True)
class GuidanceConfig(Params):
    """Contour-energy configuration used inside guided sampling."""

    heaviside: levelset.HeavisideParams = levelset.HeavisideParams()
    weights: levelset.EnergyWeights = levelset.EnergyWeights()
    area: levelset.AreaPrior | None = None
    speed: geodesic.SpeedParams = geodesic.SpeedParams()

    def area_prior(self, n_pixels: int) -> levelset.AreaPrior:
        if self.area is not None:
            return self.area
        # Neutral default: split the domain evenly.
        return levelset.AreaPrior.from_a1(0.5 * n_pixels, n_pixels)


def _distance_or_zeros(speed, mask_soft) -> np.ndarray:
    check_same_shape(speed, mask_soft)
    seeds = binarize(mask_soft)
    if not seeds.any():
        warnings.warn(
            "empty thresholded mask, distance term disabled for this refresh",
            GuidanceFallbackWarning,
            stacklevel=3,
        )
        return np.zeros_like(speed)
    return geodesic.solve_eikonal(speed, seeds).values


def chain_rule_grad(
    yt: np.ndarray,
    eps_hat: np.ndarray,
    t: int,
    sched: DiffusionSchedule,
    image: np.ndarray,
    cfg: GuidanceConfig,
    dist: np.ndarray,
) -> np.ndarray:
    """Gradient of the contour energy at y0_hat, pulled back to y_t.

    The clean estimate is clamped to [0, 1] before the energy sees it;
    pixels clamped away contribute zero gradient.  Region statistics are
    computed once at the clamped estimate and frozen.  ``dist`` is the
    caller's distance map of the clamped estimate's seeds; ``sample``
    refreshes it every ``distance_refresh`` steps.  A degenerate mask
    (all inside or all outside) yields a zero gradient and a warning
    instead of aborting the sampler.
    """
    i = _check_t(t, sched)
    require_instance("cfg", cfg, GuidanceConfig)
    yt, eps_hat = _as_float64(yt, "yt"), _as_float64(eps_hat, "eps_hat")
    yhat0 = predict_y0(yt, eps_hat, t, sched)
    y = np.clip(yhat0, 0.0, 1.0)
    interior = (yhat0 > 0.0) & (yhat0 < 1.0)
    try:  # grad_energy_wrt_mask validates image and dist
        g = levelset.grad_energy_wrt_mask(
            image, y, cfg.heaviside, cfg.weights, cfg.area_prior(np.size(image)), dist
        )
    except DegenerateRegionError:
        warnings.warn(
            "degenerate region statistics, guidance gradient set to zero",
            GuidanceFallbackWarning,
            stacklevel=2,
        )
        return np.zeros_like(y)
    return (interior * g) / np.sqrt(sched.alpha_bar[i])


# ---------------------------------------------------------------------------
# Analytic score providers
# ---------------------------------------------------------------------------


def _softmax(x: np.ndarray) -> np.ndarray:
    # over the last axis, whose sum then runs as it does for a 1-D x
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class MixtureMaskProvider:
    """Exact eps-prediction for a Gaussian mixture over reference masks.

    The clean-mask prior is sum_k w_k N(y^k, s^2 I); after forward noising
    to step t the marginal is a mixture with means sqrt(abar_t) y^k and
    isotropic variance v_t = abar_t s^2 + 1 - abar_t, whose score is the
    responsibility-weighted pull toward the component means.
    """

    masks: tuple[np.ndarray, ...]
    weights: tuple[float, ...]
    noise_scale: float = SamplerParams.noise_scale

    def __post_init__(self):
        for key, value in (("masks", self.masks), ("weights", self.weights)):
            sized = hasattr(value, "__len__") and getattr(value, "ndim", 1) > 0  # not 0-d
            require(sized, key, "a sequence", value)
        if len(self.masks) == 0:
            raise InvalidInputError("mixture needs at least one mask")
        if len(self.weights) != len(self.masks):
            raise InvalidInputError("mixture weights and masks must pair up")
        masks = tuple(as_field(m, "mode mask") for m in self.masks)
        check_same_shape(*masks)
        object.__setattr__(self, "masks", masks)
        for w in self.weights:
            require_floats(weights=w)
            require(POSITIVE.test(w), "mixture weights", POSITIVE.text, w)
        if abs(float(np.asarray(self.weights, dtype=np.float64).sum()) - 1.0) > 1e-9:
            raise InvalidInputError("mixture weights must sum to 1")
        SamplerParams(noise_scale=self.noise_scale)

    def marginal_variance(self, t: int, sched: DiffusionSchedule) -> float:
        i = _check_t(t, sched)
        abar = float(sched.alpha_bar[i])
        return abar * self.noise_scale**2 + (1.0 - abar)

    def _log_terms(self, yt, t, sched) -> tuple[np.ndarray, int, float, float]:
        """The K log terms at step t ((E, K) for E states), t's index, sqrt(abar_t) and v_t."""
        v = self.marginal_variance(t, sched)  # checks t
        check_same_shape(yt[0] if yt.ndim == 3 else yt, self.masks[0])  # a state or a stack
        root_abar = float(np.sqrt(sched.alpha_bar[t - 1]))
        sq = np.empty(yt.shape)  # each state's squared distance to one component mean
        terms = np.empty((*yt.shape[:-2], len(self.masks)))
        for k, (m, w) in enumerate(zip(self.masks, self.weights)):
            np.square(np.subtract(yt, root_abar * m, out=sq), out=sq)
            terms[..., k] = np.log(w) - sq.sum(axis=(-2, -1)) / (2.0 * v)
        return terms, t - 1, root_abar, v

    def responsibilities(self, yt: np.ndarray, t: int, sched: DiffusionSchedule) -> np.ndarray:
        return _softmax(self._log_terms(yt, t, sched)[0])

    def log_marginal(
        self, yt: np.ndarray, t: int, sched: DiffusionSchedule
    ) -> float | np.ndarray:
        terms, _, _, v = self._log_terms(yt, t, sched)
        m = terms.max(axis=-1, keepdims=True)  # a logsumexp per state, over the last axis
        const = -0.5 * self.masks[0].size * np.log(2.0 * np.pi * v)  # one state's pixel count
        return m[..., 0] + np.log(np.exp(terms - m).sum(axis=-1)) + const

    def eps_hat(self, yt: np.ndarray, t: int, sched: DiffusionSchedule) -> np.ndarray:
        terms, i, root_abar, v = self._log_terms(yt, t, sched)
        r = _softmax(terms)
        eps = np.zeros(yt.shape)  # ybar, then the score, then eps, in place
        for k, m in enumerate(self.masks):
            eps += r[..., k, None, None] * m
        eps *= root_abar
        eps -= yt
        eps /= v
        eps *= -np.sqrt(1.0 - sched.alpha_bar[i])  # score_to_eps
        return eps


@dataclass(frozen=True)
class FrozenFieldProvider:
    """Returns one fixed eps-prediction field (per state of a stack); for plumbing and tests."""

    eps_field: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eps_field", as_field(self.eps_field, "eps_field"))

    def eps_hat(self, yt: np.ndarray, t: int, sched: DiffusionSchedule) -> np.ndarray:
        _check_t(t, sched)
        check_same_shape(yt[0] if yt.ndim == 3 else yt, self.eps_field)
        return np.broadcast_to(self.eps_field, yt.shape)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleResult:
    """Ensemble-mean mask, per-step energies of the first member, and the
    step indices (t running T..1) the trace rows correspond to."""

    mask: np.ndarray
    trace: np.ndarray
    t_steps: np.ndarray


def sample(
    image: np.ndarray,
    provider,
    sched: DiffusionSchedule,
    gp: GuidancePolicy,
    seed: int,
    ensemble: int = SamplerParams.ensemble,
    cfg: GuidanceConfig = GuidanceConfig(),
    guidance_space: str = SamplerParams.guidance_space,
    distance_refresh: int = SamplerParams.distance_refresh,
) -> SampleResult:
    """Run guided reverse diffusion from pure noise, averaged over an ensemble.

    Every ensemble member draws its own noise streams derived from (seed,
    member).  Steps run in the outer loop over one (E, H, W) stack of member
    states: one provider call, noise draw and reverse step per step.  The
    guidance gradient and the distance refresh stay per member, since the
    benchmark pins their E * T and E * ceil(T / distance_refresh) calls; the
    energy trace follows member 0.  The member means are averaged in member
    order and clamped to [0, 1].  Identical (seed, config) inputs reproduce
    bit-identical results; gamma0 = 0 takes exactly the unguided path.
    Aborts with :class:`PredictionDivergenceError` at the first step at
    which any member's noise prediction is non-finite (a guidance strength
    far too large).
    """
    SamplerParams(ensemble, distance_refresh, guidance_space=guidance_space)
    if not callable(getattr(provider, "eps_hat", None)):
        raise InvalidInputError(f"provider must have a callable eps_hat, got {provider!r}")
    require_instance("sched", sched, DiffusionSchedule)
    require_instance("gp", gp, GuidancePolicy)
    require_instance("cfg", cfg, GuidanceConfig)
    image = as_field(image, "image")
    cfg = replace(cfg, area=cfg.area_prior(image.size))
    speed = geodesic.speed_field(image, cfg.speed)
    guided = gp.gamma0 > 0
    trace = np.full((sched.T, 5), np.nan)
    t_steps = np.arange(sched.T, 0, -1)
    solved = ensemble if guided else 1  # unguided, only member 0's trace reads a map
    dists = [None] * solved

    def draw(*tags):  # one stream per member
        keys = [rng.derive_key(seed, _MEMBER_TAG, e, *tags) for e in range(ensemble)]
        return rng.normals(keys, image.shape)

    y = draw(_INIT_TAG)
    # Members whose clean estimates land on one mask share its distance map.
    # An overflow is left to the divergence check on eps_hat below.
    with geodesic.reuse_solves(), np.errstate(over="ignore", invalid="ignore"):
        for step_index, t in enumerate(t_steps):
            t = int(t)
            eps_hat = _prediction(provider.eps_hat(y, t, sched), y.shape, t, step_index)
            if step_index % distance_refresh == 0:
                y0_est = np.clip(predict_y0(y[:solved], eps_hat[:solved], t, sched), 0.0, 1.0)
                for e in range(solved):
                    dists[e] = _distance_or_zeros(speed, y0_est[e])
                del y0_est
                if step_index + distance_refresh >= sched.T:
                    del speed  # the last refresh
            trace[step_index] = _trace_row(image, y[0], eps_hat[0], t, sched, cfg, dists[0])
            if guided:
                g = np.empty(y.shape)
                for e in range(ensemble):
                    g[e] = chain_rule_grad(y[e], eps_hat[e], t, sched, image, cfg, dist=dists[e])
                if guidance_space == "noise":
                    eps_hat = guided_eps(eps_hat, g, t, sched, gp)
                else:  # g becomes the guided score
                    gamma_st = guidance_scale(gp, t, sched) / np.sqrt(1.0 - sched.alpha_bar[t - 1])
                    g = guided_score(eps_to_score(eps_hat, t, sched), g, gamma_st)
                    eps_hat = score_to_eps(g, t, sched)
                del g
            xi = draw(_STEP_TAG, t) if t > 1 else np.zeros(y.shape)
            y = reverse_step(y, eps_hat, t, sched, xi)

    accum = sum(y, np.zeros(image.shape))  # the members in order
    mask = np.clip(accum / ensemble, 0.0, 1.0)
    return SampleResult(mask=mask, trace=trace, t_steps=t_steps)


def _prediction(raw, shape: tuple, t: int, step: int) -> np.ndarray:
    """A provider's prediction for a stack of ``shape``, checked by as_field's rules."""
    eps = _as_float64(raw, "eps_hat")
    if eps.shape != shape:
        raise InvalidInputError(f"eps_hat must have shape {shape}, got {eps.shape}")
    if not np.isfinite(eps).all():
        raise PredictionDivergenceError(f"noise prediction became non-finite at t={t}", step=step)
    return eps


def _trace_row(image, y, eps_hat, t, sched, cfg, dist):
    # sample checked image and set cfg.area; dist is a solver map or zeros; phi is a clipped mask
    phi = levelset.mask_to_levelset(np.clip(predict_y0(y, eps_hat, t, sched), 0.0, 1.0))
    try:
        return levelset._energy_row(image, phi, cfg.heaviside, cfg.weights, cfg.area, dist)
    except DegenerateRegionError:
        return np.full(5, np.nan)


# ---------------------------------------------------------------------------
# Loss assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossParams(Params):
    eta1: float = param(0.5, NON_NEGATIVE)
    eta2: float = param(0.005, NON_NEGATIVE)
    w_t: float = param(1.0, POSITIVE)


def dpm_loss(eps_true: np.ndarray, eps_hat: np.ndarray, w_t: float = LossParams.w_t) -> float:
    """Weighted mean squared error of the noise prediction."""
    LossParams(w_t=w_t)
    eps_true, eps_hat = as_fields(eps_true=eps_true, eps_hat=eps_hat)
    return w_t * float(np.mean((eps_true - eps_hat) ** 2))


def total_loss(
    l_dpm: float, l_lsf: float, l_par: float,
    eta1: float = LossParams.eta1, eta2: float = LossParams.eta2,
) -> float:
    """Training-style total: l_dpm + eta1 * l_lsf + eta2 * l_par."""
    require_floats(l_dpm=l_dpm, l_lsf=l_lsf, l_par=l_par)
    LossParams(eta1, eta2)
    return float(l_dpm + eta1 * l_lsf + eta2 * l_par)
