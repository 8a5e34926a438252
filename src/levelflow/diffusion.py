"""Diffusion schedule, ancestral sampling and energy-guided sampling.

The forward chain is the standard variance-preserving one:
``y_t = sqrt(abar_t) y_0 + sqrt(1 - abar_t) eps`` with ``abar_t`` the
cumulative product of ``alpha_t = 1 - beta_t``.  Instead of a trained
noise predictor, pluggable analytic providers supply ``eps_hat``; the
mixture-of-masks provider computes the exact score of a Gaussian mixture
over reference masks, so the guidance math can be exercised end to end
without any learned component (anything exposing ``eps_hat(y_t, t,
schedule)`` can be swapped in, including a trained model).

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
kernels that trust theirs (see :mod:`levelflow.field`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import geodesic, levelset, rng
from .errors import DegenerateRegionError, DivergenceError, InvalidInputError, require, require_ints
from .field import as_field, binarize, check_same_shape

GUIDANCE_SCHEDULES = ("constant", "noise-scaled")
GUIDANCE_SPACES = ("noise", "score")

_MEMBER_TAG = 0x4D454D42  # "MEMB"
_INIT_TAG = 0x494E4954  # "INIT"
_STEP_TAG = 0x53544550  # "STEP"


def _require_known(key: str, what: str, value: str, choices: tuple) -> None:
    if value not in choices:
        raise InvalidInputError(f"{key}: unknown {what} {value!r}, expected one of {choices}")


class GuidanceFallbackWarning(UserWarning):
    """Emitted when a guidance gradient falls back to zero (degenerate mask)."""


@dataclass(frozen=True)
class ScheduleParams:
    steps: int = 1000
    beta1: float = 1e-4
    betaT: float = 0.02

    def __post_init__(self):
        require_ints(steps=self.steps)
        require(self.steps >= 1, "steps", "at least 1", self.steps)
        require(0 < self.beta1 < 1, "beta1", "in (0, 1)", self.beta1)
        require(self.beta1 <= self.betaT < 1, "betaT", "in [beta1, 1)", self.betaT)


@dataclass(frozen=True)
class DiffusionSchedule:
    """Variance schedule arrays, all of length T, indexed by t - 1.

    ``sigma`` is the reverse-step noise scale sqrt(beta_t), forced to 0 at
    t = 1 so the returned sample is noise-free.
    """

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray


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
    if not 1 <= t <= sched.T:
        raise InvalidInputError(f"step t={t} outside [1, {sched.T}]")
    return t - 1


def forward_sample(
    y0: np.ndarray, t: int, sched: DiffusionSchedule, noise: np.ndarray
) -> np.ndarray:
    """y_t = sqrt(abar_t) y0 + sqrt(1 - abar_t) noise (noise supplied by caller)."""
    i = _check_t(t, sched)
    y0 = as_field(y0, "y0")
    noise = as_field(noise, "noise")
    check_same_shape(y0, noise)
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
class GuidancePolicy:
    """Strength of the energy term injected into each reverse step.

    ``noise-scaled`` multiplies gamma0 by sqrt(1 - abar_t), which keeps the
    injected term commensurate with the score-to-noise conversion across
    the whole chain; ``constant`` applies gamma0 as is.
    """

    gamma0: float = 0.3
    schedule: str = "noise-scaled"

    def __post_init__(self):
        require(0 <= self.gamma0 < math.inf, "gamma0", "non-negative and finite", self.gamma0)
        _require_known("schedule", "guidance schedule", self.schedule, GUIDANCE_SCHEDULES)


def guidance_scale(gp: GuidancePolicy, t: int, sched: DiffusionSchedule) -> float:
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
    check_same_shape(score, grad_lsf)
    return score - gamma_st * grad_lsf


@dataclass(frozen=True)
class SamplerParams:
    ensemble: int = 1
    distance_refresh: int = 50
    noise_scale: float = 0.1
    guidance_space: str = "noise"

    def __post_init__(self):
        require_ints(ensemble=self.ensemble, distance_refresh=self.distance_refresh)
        require(self.ensemble >= 1, "ensemble", "at least 1", self.ensemble)
        require(self.distance_refresh >= 1, "distance_refresh", "at least 1",
                self.distance_refresh)
        square = self.noise_scale * self.noise_scale
        require(self.noise_scale >= 0 and square < math.inf, "noise_scale",
                "non-negative, with a finite square", self.noise_scale)
        _require_known("guidance_space", "guidance space", self.guidance_space, GUIDANCE_SPACES)


@dataclass(frozen=True)
class GuidanceConfig:
    """Contour-energy configuration used inside guided sampling."""

    heaviside: levelset.HeavisideParams = levelset.HeavisideParams()
    weights: levelset.EnergyWeights = levelset.EnergyWeights()
    area: levelset.AreaPrior | None = None
    speed: geodesic.SpeedParams = geodesic.SpeedParams()
    distance_refresh: int = SamplerParams.distance_refresh

    def area_prior(self, n_pixels: int) -> levelset.AreaPrior:
        if self.area is not None:
            return self.area
        # Neutral default: split the domain evenly.
        return levelset.AreaPrior.from_a1(0.5 * n_pixels, n_pixels)


def _distance_or_zeros(image, mask_soft, cfg: GuidanceConfig) -> np.ndarray:
    seeds = binarize(mask_soft)
    if not seeds.any():
        warnings.warn(
            "empty thresholded mask, distance term disabled for this refresh",
            GuidanceFallbackWarning,
            stacklevel=3,
        )
        return np.zeros_like(image)
    dmap = geodesic.distance_for_mask(image, mask_soft, cfg.speed)
    return dmap.values


def chain_rule_grad(
    yt: np.ndarray,
    eps_hat: np.ndarray,
    t: int,
    sched: DiffusionSchedule,
    image: np.ndarray,
    cfg: GuidanceConfig = GuidanceConfig(),
    dist: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the contour energy at y0_hat, pulled back to y_t.

    The clean estimate is clamped to [0, 1] before the energy sees it;
    pixels clamped away contribute zero gradient.  Region statistics are
    computed once at the clamped estimate and frozen.  A degenerate mask
    (all inside or all outside) yields a zero gradient and a warning
    instead of aborting the sampler.
    """
    i = _check_t(t, sched)
    image = as_field(image, "image")
    yhat0 = predict_y0(yt, eps_hat, t, sched)
    y = np.clip(yhat0, 0.0, 1.0)
    interior = (yhat0 > 0.0) & (yhat0 < 1.0)
    if dist is None:
        dist = _distance_or_zeros(image, y, cfg)
    try:
        g = levelset.grad_energy_wrt_mask(
            image, y, cfg.heaviside, cfg.weights, cfg.area_prior(image.size), dist
        )
    except DegenerateRegionError:
        warnings.warn(
            "degenerate region statistics, guidance gradient set to zero",
            GuidanceFallbackWarning,
            stacklevel=2,
        )
        return np.zeros_like(image)
    return (interior * g) / np.sqrt(sched.alpha_bar[i])


# ---------------------------------------------------------------------------
# Analytic score providers
# ---------------------------------------------------------------------------


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + float(np.log(np.exp(x - m).sum()))


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
    noise_scale: float = 0.0

    def __post_init__(self):
        if len(self.masks) == 0:
            raise InvalidInputError("mixture needs at least one mask")
        if len(self.weights) != len(self.masks):
            raise InvalidInputError("mixture weights and masks must pair up")
        masks = tuple(as_field(m, "mode mask") for m in self.masks)
        check_same_shape(*masks)
        object.__setattr__(self, "masks", masks)
        w = np.asarray(self.weights, dtype=np.float64)
        if not np.all((w > 0) & (w < np.inf)):
            raise InvalidInputError("mixture weights must be positive and finite")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise InvalidInputError("mixture weights must sum to 1")
        SamplerParams(noise_scale=self.noise_scale)

    def marginal_variance(self, t: int, sched: DiffusionSchedule) -> float:
        i = _check_t(t, sched)
        abar = float(sched.alpha_bar[i])
        return abar * self.noise_scale**2 + (1.0 - abar)

    def _log_terms(self, yt, t, sched) -> np.ndarray:
        check_same_shape(yt, self.masks[0])
        i = _check_t(t, sched)
        root_abar = float(np.sqrt(sched.alpha_bar[i]))
        v = self.marginal_variance(t, sched)
        return np.array(
            [
                np.log(w) - float(((yt - root_abar * m) ** 2).sum()) / (2.0 * v)
                for m, w in zip(self.masks, self.weights)
            ]
        )

    def responsibilities(self, yt: np.ndarray, t: int, sched: DiffusionSchedule) -> np.ndarray:
        terms = self._log_terms(yt, t, sched)
        shifted = terms - terms.max()
        e = np.exp(shifted)
        return e / e.sum()

    def log_marginal(self, yt: np.ndarray, t: int, sched: DiffusionSchedule) -> float:
        v = self.marginal_variance(t, sched)
        const = -0.5 * yt.size * np.log(2.0 * np.pi * v)
        return _logsumexp(self._log_terms(yt, t, sched)) + const

    def eps_hat(self, yt: np.ndarray, t: int, sched: DiffusionSchedule) -> np.ndarray:
        i = _check_t(t, sched)
        root_abar = float(np.sqrt(sched.alpha_bar[i]))
        v = self.marginal_variance(t, sched)
        r = self.responsibilities(yt, t, sched)
        ybar = sum(rk * m for rk, m in zip(r, self.masks))
        score = (root_abar * ybar - yt) / v
        return score_to_eps(score, t, sched)


@dataclass(frozen=True)
class FrozenFieldProvider:
    """Returns one fixed eps-prediction field; for plumbing and tests."""

    eps_field: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eps_field", as_field(self.eps_field, "eps_field"))

    def eps_hat(self, yt: np.ndarray, t: int, sched: DiffusionSchedule) -> np.ndarray:
        _check_t(t, sched)
        check_same_shape(yt, self.eps_field)
        return self.eps_field


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
) -> SampleResult:
    """Run guided reverse diffusion from pure noise, averaged over an ensemble.

    Every ensemble member draws its own noise stream derived from (seed,
    member), runs T reverse steps with guidance injected at each one, and
    the member means are averaged in fixed order and clamped to [0, 1].
    The energy trace follows member 0.  Identical (seed, config) inputs
    reproduce bit-identical results; gamma0 = 0 takes exactly the
    unguided path.  Aborts with :class:`DivergenceError` once the noise
    prediction turns non-finite (a guidance strength far too large).
    """
    SamplerParams(ensemble, cfg.distance_refresh, guidance_space=guidance_space)
    image = as_field(image, "image")
    shape = image.shape
    guided = gp.gamma0 > 0
    trace = np.full((sched.T, 5), np.nan)
    t_steps = np.arange(sched.T, 0, -1)
    accum = np.zeros(shape)

    # Members whose clean estimates land on one mask share its distance map.
    # An overflow is left to the divergence check on eps_hat below.
    with geodesic.reuse_solves(), np.errstate(over="ignore", invalid="ignore"):
        for member in range(ensemble):
            y = rng.normals(rng.derive_key(seed, _MEMBER_TAG, member, _INIT_TAG), shape)
            dist = None
            for step_index, t in enumerate(t_steps):
                t = int(t)
                raw = provider.eps_hat(y, t, sched)
                try:
                    eps_hat = as_field(raw, "eps_hat")
                except InvalidInputError:
                    if np.isfinite(np.asarray(raw, dtype=np.float64)).all():
                        raise  # a malformed prediction, not a blow-up
                    raise DivergenceError(
                        f"noise prediction became non-finite at t={t}", step=step_index
                    ) from None
                needs_energy = guided or member == 0
                if needs_energy and step_index % cfg.distance_refresh == 0:
                    y0_est = np.clip(predict_y0(y, eps_hat, t, sched), 0.0, 1.0)
                    dist = _distance_or_zeros(image, y0_est, cfg)
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
                    xi = rng.normals(key, shape)
                else:
                    xi = np.zeros(shape)
                y = reverse_step(y, eps_use, t, sched, xi)
            accum += y

    mask = np.clip(accum / ensemble, 0.0, 1.0)
    return SampleResult(mask=mask, trace=trace, t_steps=t_steps)


def _trace_row(image, y, eps_hat, t, sched, cfg, dist):
    # sample checked image; dist is a solver map or zeros; phi is a clipped mask
    phi = levelset.mask_to_levelset(np.clip(predict_y0(y, eps_hat, t, sched), 0.0, 1.0))
    try:
        return levelset._energy_row(
            image, phi, cfg.heaviside, cfg.weights, cfg.area_prior(image.size), dist
        )
    except DegenerateRegionError:
        return np.full(5, np.nan)


# ---------------------------------------------------------------------------
# Loss assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossParams:
    eta1: float = 0.5
    eta2: float = 0.005
    w_t: float = 1.0

    def __post_init__(self):
        require(0 <= self.eta1 < math.inf, "eta1", "non-negative and finite", self.eta1)
        require(0 <= self.eta2 < math.inf, "eta2", "non-negative and finite", self.eta2)
        require(0 < self.w_t < math.inf, "w_t", "positive and finite", self.w_t)


def dpm_loss(eps_true: np.ndarray, eps_hat: np.ndarray, w_t: float = LossParams.w_t) -> float:
    """Weighted mean squared error of the noise prediction."""
    LossParams(w_t=w_t)
    eps_true = as_field(eps_true, "eps_true")
    eps_hat = as_field(eps_hat, "eps_hat")
    check_same_shape(eps_true, eps_hat)
    return w_t * float(np.mean((eps_true - eps_hat) ** 2))


def total_loss(
    l_dpm: float, l_lsf: float, l_par: float,
    eta1: float = LossParams.eta1, eta2: float = LossParams.eta2,
) -> float:
    """Training-style total: l_dpm + eta1 * l_lsf + eta2 * l_par."""
    LossParams(eta1, eta2)
    return float(l_dpm + eta1 * l_lsf + eta2 * l_par)
