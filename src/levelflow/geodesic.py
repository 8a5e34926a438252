"""Edge-aware speed fields and geodesic distance maps via fast sweeping.

The distance map D solves the eikonal problem |grad D| = f outside the
seed region with D = 0 on it, where the speed (cost) field

    f = eps_d + beta_g * |grad I|^2 + nu * D_E

makes homogeneous regions cheap and image edges expensive.  D_E is an
optional externally supplied extra cost (zero by default).  Maps are
normalized to [0, 1] by their maximum.

The solver is the standard Godunov upwind discretization driven by fast
sweeping: four alternating sweep orders, iterated until the largest
update drops below ``tol * max(D)``.  The four sequential orders (rows
and columns ascending; rows ascending, columns descending; rows
descending, columns ascending; both descending) are replayed as one
cached schedule of diagonals: i+j ascending, i-j ascending, i-j
descending, i+j descending.  The neighbours a pixel reads already
updated in the sequential order lie on earlier diagonals of that sweep,
the others on later ones, and no two pixels of one diagonal are
neighbours, so updating a whole diagonal at once with numpy is
bit-identical to the sequential Gauss-Seidel pixel order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, InvalidInputError
from .field import as_field, binarize, check_same_shape, gradient

EIKONAL_TOL_DEFAULT = 1e-6


@dataclass(frozen=True)
class SpeedParams:
    eps_d: float = 1e-3
    beta_g: float = 1e3
    nu: float = 0.0

    def __post_init__(self):
        if self.eps_d <= 0:
            raise InvalidInputError("eps_d must be positive")
        if self.beta_g < 0 or self.nu < 0:
            raise InvalidInputError("beta_g and nu must be non-negative")


@dataclass(frozen=True)
class DistanceMap:
    """Normalized distance values plus the seed set they were grown from.

    ``values`` is 0 exactly on seeds and has maximum 1 unless the raw map
    was identically zero (seed covered everything); then ``flat`` is set
    and the values stay zero instead of dividing by zero.  ``raw`` is the
    unnormalized eikonal solution (``values`` times ``max_raw``, kept
    separately because the normalization round trip is not bit-exact).
    """

    values: np.ndarray
    seed_mask: np.ndarray
    raw: np.ndarray
    max_raw: float
    flat: bool


def speed_field(image: np.ndarray, sp: SpeedParams, d_e: np.ndarray | None = None) -> np.ndarray:
    """Strictly positive cost field for the eikonal problem."""
    image = as_field(image, "image")
    gx, gy = gradient(image)
    f = sp.eps_d + sp.beta_g * (gx * gx + gy * gy)
    if d_e is not None:
        d_e = as_field(d_e, "d_e")
        check_same_shape(image, d_e)
        f = f + sp.nu * d_e
    return f


@lru_cache(maxsize=8)
def _schedule(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Flat indices into the (h+2, w+2) padded grid, one array per diagonal,
    in the order of the four sequential sweeps."""
    h, w = shape
    i, j = np.indices(shape)
    idx = (i + 1) * (w + 2) + j + 1
    plus = [idx[i + j == d] for d in range(h + w - 1)]
    minus = [idx[i - j == d] for d in range(1 - w, h)]
    return tuple(plus + minus + minus[::-1] + plus[::-1])


@lru_cache(maxsize=8)
def _stencil(radius: int):
    """(dr, dc, segment length, sample offsets) for every offset within radius.

    Offsets are the nearest-pixel points at <= 1 px spacing along the
    segment from (0, 0) to (dr, dc); repeats are kept, each is one sample.
    """
    out = []
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            step = float(np.hypot(dr, dc))
            if step == 0 or step > radius:
                continue
            n_samples = max(3, int(np.ceil(2.0 * step)) + 1)
            samples = tuple(
                (int(round(s * dr)), int(round(s * dc))) for s in np.linspace(0.0, 1.0, n_samples)
            )
            out.append((dr, dc, step, samples))
    return tuple(out)


def _exact_init(dist, speed, seed, radius):
    # Seed the neighborhood of the seed set with straight-segment costs so
    # the first-order scheme does not bake its large near-source error into
    # every downstream characteristic.  The cost of the segment from a seed
    # pixel is its length times the mean speed sampled along it (a discrete
    # line integral, nearest-neighbor sampling at <= 1 px spacing): exact
    # for uniform speed, and any particular path only ever upper-bounds the
    # geodesic distance, so the sweeps remain free to lower these values.
    h, w = dist.shape
    for dr, dc, step, samples in _stencil(radius):
        if abs(dr) >= h or abs(dc) >= w:
            continue  # the segment leaves the grid from every pixel
        src_r = slice(max(0, -dr), h - max(0, dr))
        src_c = slice(max(0, -dc), w - max(0, dc))
        dst_r = slice(max(0, dr), h - max(0, -dr))
        dst_c = slice(max(0, dc), w - max(0, -dc))
        path_speed = np.zeros((dst_r.stop - dst_r.start, dst_c.stop - dst_c.start))
        for ri, ci in samples:
            path_speed += speed[
                dst_r.start - ri : dst_r.stop - ri, dst_c.start - ci : dst_c.stop - ci
            ]
        path_speed /= len(samples)
        cand = np.where(seed[src_r, src_c], step * path_speed, np.inf)
        dist[dst_r, dst_c] = np.minimum(dist[dst_r, dst_c], cand)
    dist[seed] = 0.0


def solve_eikonal(
    speed: np.ndarray,
    seed: np.ndarray,
    tol: float = EIKONAL_TOL_DEFAULT,
    exact_init_radius: int = 8,
    max_iterations: int = 10_000,
) -> DistanceMap:
    """Solve |grad D| = speed with D = 0 on the seed set, then normalize.

    ``exact_init_radius`` controls how far around the seed set initial
    straight-segment costs are planted before sweeping (see
    ``_exact_init``); 0 disables it and runs the bare Godunov scheme,
    whose near-source error for point seeds is O(1) relative.
    """
    speed = as_field(speed, "speed")
    seed_arr = np.asarray(seed)
    seed_bin = seed_arr if seed_arr.dtype == bool else binarize(as_field(seed_arr, "seed"))
    if seed_bin.shape != speed.shape:
        raise InvalidInputError(
            f"seed shape {seed_bin.shape} does not match speed shape {speed.shape}"
        )
    if not seed_bin.any():
        raise InvalidInputError("seed set is empty")
    if speed.min() <= 0:
        raise InvalidInputError("speed must be strictly positive everywhere")

    h, w = speed.shape
    padded = np.full((h + 2, w + 2), np.inf)
    dist = padded[1:-1, 1:-1]
    dist[seed_bin] = 0.0
    if exact_init_radius > 0:
        _exact_init(dist, speed, seed_bin, exact_init_radius)

    # Seeds hold 0 and every Godunov candidate is >= 0, so they never change.
    # An unreached (inf) neighbour, or two, makes |a - b| inf or nan, and
    # the comparison then selects the one-sided update min(a, b) + f.
    p = padded.ravel()
    stride = w + 2
    schedule = _schedule(speed.shape)
    speed_flat = np.pad(speed, 1).ravel()
    speeds = [speed_flat[idx] for idx in schedule]
    with np.errstate(invalid="ignore"):
        for _ in range(max_iterations):
            prev = dist.copy()
            for idx, f in zip(schedule, speeds):
                a = np.minimum(p[idx - 1], p[idx + 1])
                b = np.minimum(p[idx - stride], p[idx + stride])
                diff = np.abs(a - b)
                two_sided = 0.5 * (a + b + np.sqrt(2.0 * f * f - diff * diff))
                p[idx] = np.minimum(p[idx], np.where(diff < f, two_sided, np.minimum(a, b) + f))
            # dist never increases, so prev - dist is the largest update
            scale = tol * max(float(dist.max()), 1e-300)
            if np.isfinite(dist).all() and (prev - dist).max() < scale:
                break
        else:
            raise DivergenceError("fast sweeping did not converge", step=max_iterations)

    raw = dist.copy()
    max_raw = float(raw.max())
    flat = max_raw == 0.0
    values = raw.copy() if flat else raw / max_raw
    return DistanceMap(values, seed_bin.copy(), raw, max_raw, flat)


def distance_for_mask(
    image: np.ndarray,
    mask: np.ndarray,
    sp: SpeedParams = SpeedParams(),
    d_e: np.ndarray | None = None,
    tol: float = EIKONAL_TOL_DEFAULT,
) -> DistanceMap:
    """Distance map grown from the thresholded mask over the image's speed field."""
    image = as_field(image, "image")
    mask = as_field(mask, "mask")
    check_same_shape(image, mask)
    return solve_eikonal(speed_field(image, sp, d_e), binarize(mask), tol=tol)
