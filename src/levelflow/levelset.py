"""Smoothed Heaviside machinery, the four-term contour energy and its flow.

The energy of a level set function phi against an image I is

    E = l1 * E_region + l2 * E_length + l3 * E_area + l4 * E_distance

with a Gaussian region term (per-pixel negative log-likelihood
``e_i = log var_i + (I - mu_i)^2 / var_i`` weighted by H(phi) inside and
1 - H(phi) outside), a total-variation perimeter surrogate, a quadratic
two-sided area prior and a seed-distance penalty.  Each term has one kernel
on H = H(phi), ``_region``, ``_length``, ``_area`` and ``_distance``, and
``_report`` weights them; the public ``energy_*`` terms, ``energy_total`` and
the sampler's one-H ``_energy_row`` are built from them, and the gradient
shares their ``|grad H|`` and area residuals.  Region statistics have closed
forms given phi and are treated as constants inside a gradient evaluation
(their back-reaction vanishes at the closed-form optimum).

Masks y in [0, 1] map to level sets by phi = y - 0.5, putting the contour
at mask value 0.5.

All gradients here are exact gradients of the *discretized* energies (the
perimeter term differentiates through the discrete stencils via
:func:`levelflow.field.gradient_adjoint`), so they agree with central
finite differences of the summed energy to truncation error.  The
explicit Euler stepper descends that same discrete gradient, which is a
consistent discretization of the classical curvature-based flow and keeps
the per-step energy trace monotone.

The config sections ``heaviside``, ``weights`` and ``evolve`` live here;
``evolve`` checks its step settings by building ``EvolveParams``.
``evolve``, ``energy_total``, ``region_stats`` and ``grad_energy_wrt_mask``
validate their fields; the other functions are kernels that trust theirs
(see :mod:`levelflow.field`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AT_LEAST_1, NON_NEGATIVE, POSITIVE, DegenerateRegionError, DivergenceError
from .errors import InvalidInputError, Params, param, require, require_floats
from .field import as_field, check_same_shape, gradient, gradient_adjoint

VAR_FLOOR = 1e-6  # keeps log var and 1/var finite on a flat region
GRAD_FLOOR = 1e-8  # keeps the unit normal grad H / |grad H| finite where H is flat
PHI_MAX = float(np.finfo(np.float32).max)  # fields are saved as float32 (LSF1)

TRACE_COLUMNS = ("e_region", "e_length", "e_area", "e_distance", "e_total")


@dataclass(frozen=True)
class HeavisideParams(Params):
    """Width of the arctan-smoothed step, in level set units."""

    epsilon: float = param(1.5, POSITIVE)


@dataclass(frozen=True)
class RegionStats:
    """Weighted means/variances of the two regions plus their soft masses."""

    mean_in: float
    mean_out: float
    var_in: float
    var_out: float
    mass_in: float
    mass_out: float


@dataclass(frozen=True)
class EnergyWeights(Params):
    lambda1: float = param(0.01, NON_NEGATIVE)
    lambda2: float = param(0.01, NON_NEGATIVE)
    lambda3: float = param(0.0001, NON_NEGATIVE)
    lambda4: float = param(0.001, NON_NEGATIVE)


@dataclass(frozen=True)
class AreaPrior(Params):
    """Target areas for the inside/outside regions.

    The two targets must sum to the pixel count of the domain they are
    used on (checked at evaluation time).
    """

    a1_target: float = param(rule=NON_NEGATIVE)
    a2_target: float = param(rule=NON_NEGATIVE)

    @classmethod
    def from_a1(cls, a1_target: float, n_pixels: int) -> "AreaPrior":
        require_floats(a1_target=a1_target)
        rule = f"in [0, {n_pixels}], the pixel count"
        require(0 <= a1_target <= n_pixels, "a1_target", rule, a1_target)
        return cls(a1_target=float(a1_target), a2_target=float(n_pixels) - float(a1_target))

    def check_domain(self, n_pixels: int) -> None:
        if abs(self.a1_target + self.a2_target - n_pixels) > 1e-6 * max(n_pixels, 1):
            raise InvalidInputError(
                f"area targets {self.a1_target} + {self.a2_target} do not sum to the "
                f"domain size {n_pixels}"
            )

    def residuals(self, h: np.ndarray) -> tuple[float, float]:
        """Soft inside and outside masses of H minus their targets."""
        self.check_domain(h.size)
        m_in = float(h.sum())
        return m_in - self.a1_target, float(h.size - m_in) - self.a2_target


@dataclass(frozen=True)
class EnergyReport:
    """Per-term energies and their weighted total for one (image, phi) pair."""

    e_region: float
    e_length: float
    e_area: float
    e_distance: float
    e_total: float

    def as_row(self) -> np.ndarray:
        return np.array(
            [self.e_region, self.e_length, self.e_area, self.e_distance, self.e_total]
        )


def heaviside(phi: np.ndarray, p: HeavisideParams) -> np.ndarray:
    """H(s) = 1/2 (1 + (2/pi) arctan(s / eps)); values in the open (0, 1)."""
    return 0.5 + np.arctan(phi / p.epsilon) / np.pi


def dirac(phi: np.ndarray, p: HeavisideParams) -> np.ndarray:
    """delta(s) = (1/pi) eps / (eps^2 + s^2) = dH/ds; peak 1/(pi eps) at 0."""
    d = np.multiply(phi, phi)
    d += p.epsilon * p.epsilon
    return np.divide(p.epsilon / np.pi, d, out=d)


def mask_to_levelset(y: np.ndarray) -> np.ndarray:
    """Map a soft mask in [0, 1] to a level set function with its contour at 0.5."""
    return y - 0.5


def region_stats_from_weights(image: np.ndarray, w_in: np.ndarray) -> RegionStats:
    """Weighted two-region statistics with arbitrary inside weights in [0, 1]."""
    check_same_shape(image, w_in)
    w_out = 1.0 - w_in
    n = image.size
    mass_in = float(w_in.sum())
    mass_out = float(w_out.sum())
    if mass_in < 1e-12 * n or mass_out < 1e-12 * n:
        raise DegenerateRegionError(
            f"region mass too small (in={mass_in:.3e}, out={mass_out:.3e}, n={n})"
        )
    scratch = w_in * image  # reused for every weighted sum below
    mean_in = float(scratch.sum() / mass_in)
    mean_out = float(np.multiply(w_out, image, out=scratch).sum() / mass_out)
    with np.errstate(over="ignore"):  # extreme intensities saturate to inf; guards downstream
        np.square(np.subtract(image, mean_in, out=scratch), out=scratch)
        scratch *= w_in
        var_in = float(scratch.sum() / mass_in)
        np.square(np.subtract(image, mean_out, out=scratch), out=scratch)
        scratch *= w_out
        var_out = float(scratch.sum() / mass_out)
    return RegionStats(
        mean_in=mean_in,
        mean_out=mean_out,
        var_in=max(var_in, VAR_FLOOR),
        var_out=max(var_out, VAR_FLOOR),
        mass_in=mass_in,
        mass_out=mass_out,
    )


def region_stats(image: np.ndarray, phi: np.ndarray, p: HeavisideParams) -> RegionStats:
    """Region statistics weighted by H(phi) / 1 - H(phi)."""
    image = as_field(image, "image")
    phi = as_field(phi, "phi")
    return region_stats_from_weights(image, heaviside(phi, p))


def nll_fields(image: np.ndarray, stats: RegionStats) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel Gaussian negative log-likelihoods (e1, e2) for both regions."""
    with np.errstate(over="ignore", invalid="ignore"):  # saturation feeds the divergence guard
        return _nll(image, stats.mean_in, stats.var_in), _nll(image, stats.mean_out, stats.var_out)


def _nll(image: np.ndarray, mean: float, var: float) -> np.ndarray:
    """log var + (image - mean)^2 / var, built in one fresh array."""
    e = np.subtract(image, mean)
    np.square(e, out=e)
    e /= var
    e += np.log(var)
    return e


def _region(image: np.ndarray, h: np.ndarray, stats: RegionStats) -> float:
    """Sum of e1 * H + e2 * (1 - H), the region term on H."""
    e1, e2 = nll_fields(image, stats)
    e1 *= h
    e2 *= 1.0 - h
    e1 += e2
    return float(e1.sum())


def _grad_norm(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """|grad H| = sqrt(gx * gx + gy * gy) in a new array; H lies in [0, 1], so
    squaring cannot overflow, and sqrt is within 1 ulp of np.hypot."""
    norm = np.multiply(gx, gx)
    norm += gy * gy
    return np.sqrt(norm, out=norm)


def _length(h: np.ndarray) -> float:
    """Sum of |grad H| over the grid (pixel area 1), the length term on H."""
    return float(_grad_norm(*gradient(h)).sum())


def _area(h: np.ndarray, prior: AreaPrior) -> float:
    r_in, r_out = prior.residuals(h)
    return r_in**2 + r_out**2


def _distance(h: np.ndarray, dist: np.ndarray) -> float:
    # the product takes H's memory order, which sets the order of the sum
    return float(np.multiply(h, dist, out=np.empty_like(h)).sum())


def _report(w: EnergyWeights, *terms: float) -> EnergyReport:
    """The region, length, area and distance terms and their weighted total."""
    region, length, area, distance = terms
    total = w.lambda1 * region + w.lambda2 * length + w.lambda3 * area + w.lambda4 * distance
    return EnergyReport(*terms, total)


def energy_region(
    image: np.ndarray, phi: np.ndarray, p: HeavisideParams, stats: RegionStats
) -> float:
    check_same_shape(image, phi)
    return _region(image, heaviside(phi, p), stats)


def energy_length(phi: np.ndarray, p: HeavisideParams) -> float:
    """Perimeter surrogate: sum of |grad H(phi)| over the grid (pixel area 1)."""
    return _length(heaviside(phi, p))


def energy_area(phi: np.ndarray, p: HeavisideParams, prior: AreaPrior) -> float:
    return _area(heaviside(phi, p), prior)


def _check_distance(dist: np.ndarray) -> None:
    """A distance field is non-negative and finite: one min and one max, no copy."""
    if not (dist.min() >= 0 and dist.max() < math.inf):  # a NaN fails both comparisons
        raise InvalidInputError("distance field must be non-negative, with no non-finite value")


def energy_distance(phi: np.ndarray, p: HeavisideParams, dist: np.ndarray) -> float:
    check_same_shape(phi, dist)
    _check_distance(dist)
    return _distance(heaviside(phi, p), dist)


def energy_total(
    image: np.ndarray,
    phi: np.ndarray,
    p: HeavisideParams,
    w: EnergyWeights,
    prior: AreaPrior,
    dist: np.ndarray,
    stats: RegionStats | None = None,
) -> EnergyReport:
    """Evaluate all four terms; region statistics recomputed from phi unless given."""
    image = as_field(image, "image")
    phi = as_field(phi, "phi")
    dist = as_field(dist, "dist")
    if stats is None:
        stats = region_stats_from_weights(image, heaviside(phi, p))
    region = energy_region(image, phi, p, stats)
    terms = (energy_length(phi, p), energy_area(phi, p, prior), energy_distance(phi, p, dist))
    return _report(w, region, *terms)


def _energy_row(
    image: np.ndarray, phi: np.ndarray, p: HeavisideParams, w: EnergyWeights,
    prior: AreaPrior, dist: np.ndarray,
) -> np.ndarray:
    """``energy_total(...).as_row()`` bit for bit from one H, on trusted fields."""
    h = heaviside(phi, p)
    region = _region(image, h, region_stats_from_weights(image, h))
    return _report(w, region, _length(h), _area(h, prior), _distance(h, dist)).as_row()


def _grad_energy_wrt_phi(
    image: np.ndarray,
    phi: np.ndarray,
    h: np.ndarray,
    p: HeavisideParams,
    w: EnergyWeights,
    prior: AreaPrior,
    dist: np.ndarray,
    stats: RegionStats,
) -> np.ndarray:
    """Exact gradient of the weighted discrete energy with frozen statistics;
    ``h`` is ``heaviside(phi, p)``."""
    d = dirac(phi, p)
    grad_h = np.zeros_like(phi)
    if w.lambda1 != 0.0:
        e1, e2 = nll_fields(image, stats)
        e1 -= e2
        e1 *= w.lambda1
        grad_h += e1
        del e1, e2
    if w.lambda2 != 0.0:
        gx, gy = gradient(h)
        norm = _grad_norm(gx, gy)
        np.maximum(norm, GRAD_FLOOR, out=norm)
        gx /= norm
        gy /= norm
        del norm
        adjoint = gradient_adjoint(gx, gy)
        adjoint *= w.lambda2
        grad_h += adjoint
    if w.lambda3 != 0.0:
        r_in, r_out = prior.residuals(h)
        grad_h += w.lambda3 * 2.0 * (r_in - r_out)
    if w.lambda4 != 0.0:
        grad_h += w.lambda4 * dist
    d *= grad_h
    return d


def grad_energy_wrt_mask(
    image: np.ndarray,
    y: np.ndarray,
    p: HeavisideParams,
    w: EnergyWeights,
    prior: AreaPrior,
    dist: np.ndarray,
    stats: RegionStats | None = None,
) -> np.ndarray:
    """Pointwise dE/dy for a soft mask y through phi = y - 0.5.

    The statistics, supplied or else computed at y, are held constant.
    Computed at y, they give the same value as letting them vary: at their
    closed forms the partial derivatives of the energy with respect to the
    statistics vanish, and a variance pinned at the floor is locally
    constant.
    """
    image = as_field(image, "image")
    y = as_field(y, "mask")
    check_same_shape(image, y, dist)
    _check_distance(dist)
    phi = mask_to_levelset(y)
    h = heaviside(phi, p)
    if stats is None:
        stats = region_stats_from_weights(image, h)
    # d(phi)/dy = 1
    return _grad_energy_wrt_phi(image, phi, h, p, w, prior, dist, stats)


@dataclass(frozen=True)
class EvolveParams(Params):
    dt: float = param(0.1, NON_NEGATIVE)
    steps: int = param(200, AT_LEAST_1)
    stats_refresh: int = param(1, AT_LEAST_1)


def evolve(
    image: np.ndarray,
    phi0: np.ndarray,
    p: HeavisideParams,
    w: EnergyWeights,
    prior: AreaPrior,
    dist: np.ndarray,
    dt: float = EvolveParams.dt,
    steps: int = EvolveParams.steps,
    stats_refresh: int = EvolveParams.stats_refresh,
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler descent phi <- phi - dt * dE/dphi.

    Statistics are refreshed every ``stats_refresh`` steps (alternating
    minimization); with the default of 1 each refresh can only lower the
    energy, so the returned per-step trace is non-increasing for stable
    time steps.  Returns the final phi and a (steps, 5) trace with columns
    ``TRACE_COLUMNS``.  Aborts with :class:`DivergenceError` if phi leaves
    the float32 range every saved field holds, or the energy leaves the
    finite range.
    """
    EvolveParams(dt, steps, stats_refresh)
    # phi is a C-ordered copy; the loop's other fields take its memory order
    # too (see levelflow.field on kernels and memory order).
    image = np.ascontiguousarray(as_field(image, "image"))
    phi = as_field(phi0, "phi0").copy()
    check_same_shape(image, phi)
    dist = np.ascontiguousarray(as_field(dist, "dist"))
    check_same_shape(image, dist)
    trace = np.empty((steps, 5), dtype=np.float64)
    for n in range(steps):
        if n % stats_refresh == 0:
            stats = region_stats(image, phi, p)
        g = _grad_energy_wrt_phi(image, phi, heaviside(phi, p), p, w, prior, dist, stats)
        g *= dt
        phi -= g
        if not (phi.max() <= PHI_MAX and phi.min() >= -PHI_MAX):  # a NaN fails both
            raise DivergenceError("level set function left the float32 range", step=n)
        report = energy_total(image, phi, p, w, prior, dist)
        trace[n] = report.as_row()
        if not np.isfinite(report.e_total):
            raise DivergenceError("energy became non-finite during evolution", step=n)
    return phi, trace
