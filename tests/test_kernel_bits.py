"""The stencil and energy kernels give the same bits as their reference bodies.

The kernels in ``levelflow.field`` and ``levelflow.levelset`` write into
arrays they allocate themselves.  The functions below are the straight
expression-per-line bodies they replaced, kept verbatim as the reference:
each kernel must match its reference byte for byte, on every grid shape,
memory layout and value class drawn here (signed zeros, subnormals and
values near the float64 range), and raise the same error where it raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levelflow import field, levelset
from levelflow.errors import DivergenceError, InvalidInputError
from levelflow.field import as_field, check_same_shape
from levelflow.levelset import (
    GRAD_FLOOR,
    PHI_MAX,
    AreaPrior,
    EnergyReport,
    EnergyWeights,
    EvolveParams,
    HeavisideParams,
    RegionStats,
    _check_distance,
    energy_area,
    heaviside,
    region_stats,
    region_stats_from_weights,
)

# ---------------------------------------------------------------------------
# Reference bodies
# ---------------------------------------------------------------------------


def gradient(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centred first derivatives (d/dx, d/dy) with replicate boundaries."""
    if f.shape[0] < 2 or f.shape[1] < 2:
        raise InvalidInputError(f"gradient needs at least a 2x2 grid, got {f.shape}")
    gx = np.empty_like(f)
    gy = np.empty_like(f)
    gx[:, 1:-1] = 0.5 * (f[:, 2:] - f[:, :-2])
    gx[:, 0] = 0.5 * (f[:, 1] - f[:, 0])
    gx[:, -1] = 0.5 * (f[:, -1] - f[:, -2])
    gy[1:-1, :] = 0.5 * (f[2:, :] - f[:-2, :])
    gy[0, :] = 0.5 * (f[1, :] - f[0, :])
    gy[-1, :] = 0.5 * (f[-1, :] - f[-2, :])
    return gx, gy


def gradient_adjoint(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    check_same_shape(vx, vy)
    out = np.zeros_like(vx)
    # x-direction: column j receives +v[j-1]/2 and -v[j+1]/2, with the
    # replicate-boundary rows folded into the first/last columns.
    out[:, 1:-1] += 0.5 * (vx[:, :-2] - vx[:, 2:])
    out[:, 0] += -0.5 * (vx[:, 0] + vx[:, 1])
    out[:, -1] += 0.5 * (vx[:, -1] + vx[:, -2])
    out[1:-1, :] += 0.5 * (vy[:-2, :] - vy[2:, :])
    out[0, :] += -0.5 * (vy[0, :] + vy[1, :])
    out[-1, :] += 0.5 * (vy[-1, :] + vy[-2, :])
    return out


def dirac(phi: np.ndarray, p: HeavisideParams) -> np.ndarray:
    """delta(s) = (1/pi) eps / (eps^2 + s^2) = dH/ds; peak 1/(pi eps) at 0."""
    return (p.epsilon / np.pi) / (p.epsilon * p.epsilon + phi * phi)


def nll_fields(image: np.ndarray, stats: RegionStats) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel Gaussian negative log-likelihoods (e1, e2) for both regions."""
    with np.errstate(over="ignore", invalid="ignore"):  # saturation feeds the divergence guard
        e1 = np.log(stats.var_in) + (image - stats.mean_in) ** 2 / stats.var_in
        e2 = np.log(stats.var_out) + (image - stats.mean_out) ** 2 / stats.var_out
    return e1, e2


def energy_region(
    image: np.ndarray, phi: np.ndarray, p: HeavisideParams, stats: RegionStats
) -> float:
    check_same_shape(image, phi)
    h = heaviside(phi, p)
    e1, e2 = nll_fields(image, stats)
    return float((e1 * h + e2 * (1.0 - h)).sum())


def energy_length(phi: np.ndarray, p: HeavisideParams) -> float:
    """Perimeter surrogate: sum of |grad H(phi)| over the grid (pixel area 1)."""
    # H lies in [0, 1], so squaring cannot overflow; sqrt is within 1 ulp of np.hypot
    gx, gy = gradient(heaviside(phi, p))
    return float(np.sqrt(gx * gx + gy * gy).sum())


def energy_distance(phi: np.ndarray, p: HeavisideParams, dist: np.ndarray) -> float:
    check_same_shape(phi, dist)
    _check_distance(dist)
    return float((dist * heaviside(phi, p)).sum())


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
    e_region = energy_region(image, phi, p, stats)
    e_length = energy_length(phi, p)
    e_area = energy_area(phi, p, prior)
    e_distance = energy_distance(phi, p, dist)
    e_total = (
        w.lambda1 * e_region + w.lambda2 * e_length + w.lambda3 * e_area + w.lambda4 * e_distance
    )
    return EnergyReport(e_region, e_length, e_area, e_distance, e_total)


def _energy_row(
    image: np.ndarray, phi: np.ndarray, p: HeavisideParams, w: EnergyWeights,
    prior: AreaPrior, dist: np.ndarray,
) -> np.ndarray:
    """``energy_total(...).as_row()`` bit for bit from one H, on trusted fields."""
    h = heaviside(phi, p)
    e1, e2 = nll_fields(image, region_stats_from_weights(image, h))
    e_region = float((e1 * h + e2 * (1.0 - h)).sum())
    del e1, e2
    gx, gy = gradient(h)
    e_length = float(np.sqrt(gx * gx + gy * gy).sum())
    prior.check_domain(phi.size)
    m_in = float(h.sum())
    e_area = (m_in - prior.a1_target) ** 2 + (float(phi.size - m_in) - prior.a2_target) ** 2
    e_distance = float((dist * h).sum())
    e_total = (
        w.lambda1 * e_region + w.lambda2 * e_length + w.lambda3 * e_area + w.lambda4 * e_distance
    )
    return np.array([e_region, e_length, e_area, e_distance, e_total])


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
    d = dirac(phi, p)
    grad_h = np.zeros_like(phi)
    if w.lambda1 != 0.0:
        e1, e2 = nll_fields(image, stats)
        grad_h += w.lambda1 * (e1 - e2)
    if w.lambda2 != 0.0:
        gx, gy = gradient(h)
        norm = np.maximum(np.sqrt(gx * gx + gy * gy), GRAD_FLOOR)
        grad_h += w.lambda2 * gradient_adjoint(gx / norm, gy / norm)
    if w.lambda3 != 0.0:
        prior.check_domain(phi.size)
        m_in = float(h.sum())
        m_out = float(phi.size - m_in)
        grad_h += w.lambda3 * 2.0 * ((m_in - prior.a1_target) - (m_out - prior.a2_target))
    if w.lambda4 != 0.0:
        grad_h += w.lambda4 * dist
    return d * grad_h


def evolve(
    image: np.ndarray,
    phi0: np.ndarray,
    p: HeavisideParams,
    w: EnergyWeights,
    prior: AreaPrior,
    dist: np.ndarray,
    dt: float = EvolveParams.dt,
    steps: int = 1,
    stats_refresh: int = EvolveParams.stats_refresh,
) -> tuple[np.ndarray, np.ndarray]:
    EvolveParams(dt, steps, stats_refresh)
    image = as_field(image, "image")
    phi = as_field(phi0, "phi0").copy()
    check_same_shape(image, phi)
    dist = as_field(dist, "dist")
    check_same_shape(image, dist)
    trace = np.empty((steps, 5), dtype=np.float64)
    for n in range(steps):
        if n % stats_refresh == 0:
            stats = region_stats(image, phi, p)
        g = _grad_energy_wrt_phi(image, phi, heaviside(phi, p), p, w, prior, dist, stats)
        phi = phi - dt * g
        if not (phi.max() <= PHI_MAX and phi.min() >= -PHI_MAX):  # a NaN fails both
            raise DivergenceError("level set function left the float32 range", step=n)
        report = energy_total(image, phi, p, w, prior, dist)
        trace[n] = report.as_row()
        if not np.isfinite(report.e_total):
            raise DivergenceError("energy became non-finite during evolution", step=n)
    return phi, trace


# ---------------------------------------------------------------------------
# Drawn inputs
# ---------------------------------------------------------------------------

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -2.2e-310, 1e300, -1e300)

SHAPES = st.one_of(
    st.tuples(st.just(2), st.integers(2, 40)),
    st.tuples(st.integers(2, 40), st.just(2)),
    st.tuples(st.integers(2, 40), st.integers(2, 40)),
)


def _strided(a):
    big = np.full((2 * a.shape[0], 3 * a.shape[1]), np.nan)
    big[::2, ::3] = a
    return big[::2, ::3]


LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "strided": _strided,
    "strided-F": lambda a: _strided(a.T).T,
}


@st.composite
def _fields(draw, shape, scale=4.0):
    """A field of moderate values with up to four special values spliced in."""
    a = draw(hnp.arrays(np.float64, shape, elements=st.floats(-scale, scale)))
    spliced = st.tuples(st.integers(0, a.size - 1), st.sampled_from(SPECIAL))
    for i, value in draw(st.lists(spliced, max_size=4)):
        a.flat[i] = value
    return a


class Draw:
    """Draws one kernel's arguments, all arrays in one drawn memory layout.

    A sum runs in the memory order of the array it reduces, and where two
    arrays of different layouts meet, an in-place product takes the layout
    of the array it writes into; so only arguments that share a layout are
    held to the reference's bits.
    """

    def __init__(self, data):
        self.data = data
        self.shape = data.draw(SHAPES, label="shape")
        self.layout = LAYOUTS[data.draw(st.sampled_from(sorted(LAYOUTS)), label="layout")]

    def field(self, scale=4.0, non_negative=False):
        a = self.data.draw(_fields(self.shape, scale))
        return self.layout(np.abs(a) if non_negative else a)

    def heaviside(self):
        return HeavisideParams(self.data.draw(st.sampled_from([0.25, 1.5, 3.0])))

    def stats(self):
        mean = st.floats(-4.0, 4.0)
        var = st.floats(levelset.VAR_FLOOR, 10.0)
        d = self.data.draw
        return RegionStats(d(mean), d(mean), d(var), d(var), 1.0, 1.0)

    def weights(self):
        lam = st.sampled_from([0.0, 0.001, 0.01, 1.0])
        return EnergyWeights(*(self.data.draw(lam) for _ in range(4)))

    def prior(self):
        n = self.shape[0] * self.shape[1]
        return AreaPrior.from_a1(self.data.draw(st.floats(0.0, n)), n)


def _args(name, d: Draw):
    if name == "gradient":
        return (d.field(scale=1e3),)
    if name == "gradient_adjoint":
        return d.field(scale=1e3), d.field(scale=1e3)
    if name == "dirac":
        return d.field(), d.heaviside()
    if name == "nll_fields":
        return d.field(), d.stats()
    if name == "energy_region":
        return d.field(), d.field(), d.heaviside(), d.stats()
    if name == "energy_length":
        return d.field(), d.heaviside()
    if name == "energy_distance":
        return d.field(), d.heaviside(), d.field(non_negative=True)
    if name in ("energy_total", "_energy_row"):
        image, phi, p, w, prior = d.field(), d.field(), d.heaviside(), d.weights(), d.prior()
        return image, phi, p, w, prior, d.field(non_negative=True)
    if name == "_grad_energy_wrt_phi":
        image, phi, p = d.field(), d.field(), d.heaviside()
        w, prior, dist = d.weights(), d.prior(), d.field(non_negative=True)
        return image, phi, heaviside(phi, p), p, w, prior, dist, d.stats()
    if name == "evolve":
        dt = d.data.draw(st.sampled_from([0.0, 0.1, 1.0]))
        steps, stats_refresh = d.data.draw(st.integers(1, 3)), d.data.draw(st.integers(1, 2))
        return (*_args("energy_total", d), dt, steps, stats_refresh)
    raise AssertionError(name)


LIBRARY = {
    "gradient": field.gradient,
    "gradient_adjoint": field.gradient_adjoint,
    "dirac": levelset.dirac,
    "nll_fields": levelset.nll_fields,
    "energy_region": levelset.energy_region,
    "energy_length": levelset.energy_length,
    "energy_distance": levelset.energy_distance,
    "energy_total": levelset.energy_total,
    "_energy_row": levelset._energy_row,
    "_grad_energy_wrt_phi": levelset._grad_energy_wrt_phi,
    "evolve": levelset.evolve,
}


def _bits(value):
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, EnergyReport):
        return _bits(value.as_row())
    if isinstance(value, float):
        return np.float64(value).tobytes()
    assert value.dtype == np.float64
    return value.shape, value.tobytes()


def _outcome(fn, args):
    with np.errstate(all="ignore"):
        try:
            return _bits(fn(*args))
        except (InvalidInputError, DivergenceError, levelset.DegenerateRegionError) as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(LIBRARY))
@settings(max_examples=50)
@given(data=st.data())
def test_kernel_matches_reference_bits(name, data):
    args = _args(name, Draw(data))
    kept = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    assert _outcome(LIBRARY[name], args) == _outcome(globals()[name], args)
    for a, before in zip(args, kept):
        if isinstance(a, np.ndarray):
            assert a.tobytes() == before.tobytes()



@pytest.mark.parametrize("shape", [(2, 8), (16, 8), (40, 8), (2, 2), (128, 128)])
def test_stencils_match_reference_on_fixed_grids(shape):
    # 8-wide grids once met numpy's in-place np.negative bug on a column
    f, vx, vy = (np.random.default_rng(seed).standard_normal(shape) for seed in range(3))
    assert _bits(field.gradient(f)) == _bits(gradient(f))
    assert _bits(field.gradient_adjoint(vx, vy)) == _bits(gradient_adjoint(vx, vy))
