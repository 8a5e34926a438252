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
bit-identical to the sequential Gauss-Seidel pixel order.  In the flat
padded grid a diagonal is an arithmetic progression (step w+1 for i+j,
w+3 for i-j), so its pixels, their four neighbours and their speeds are
strided-slice views, not gathered copies.

A diagonal whose neighbour diagonals did not change since its last
visit is skipped.  This is exact: its candidates would be the same bits
as at that visit, and its values, which only ever decrease, are already
no larger than those candidates.  Each family (i+j and i-j) keeps one
dirty flag per diagonal; a pixel that drops flags the diagonals of its
four neighbours in both families.

The near-seed initialization sums speed samples along straight segments
in a fixed order, so offsets whose sample lists share a prefix share the
partial sum bit for bit.  A cached plan per radius walks the offsets in
the order of their sample lists and computes each partial sum once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, InvalidInputError
from .field import as_field, binarize, check_same_shape, gradient

EIKONAL_TOL_DEFAULT = 1e-6
_MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class SpeedParams:
    eps_d: float = 1e-3
    beta_g: float = 1e3
    nu: float = 0.0

    def __post_init__(self):
        if not 0 < self.eps_d < math.inf:
            raise InvalidInputError("eps_d must be positive and finite")
        if not (0 <= self.beta_g < math.inf and 0 <= self.nu < math.inf):
            raise InvalidInputError("beta_g and nu must be non-negative and finite")


@dataclass(frozen=True)
class DistanceMap:
    """Normalized distance values of an eikonal solution.

    ``values`` is 0 exactly on seeds and has maximum 1 unless the raw map
    was identically zero (seed covered everything); then ``flat`` is set
    and the values stay zero instead of dividing by zero.  ``raw`` is the
    unnormalized eikonal solution (``values`` times ``max_raw``, kept
    separately because the normalization round trip is not bit-exact).
    """

    values: np.ndarray
    raw: np.ndarray
    max_raw: float

    @property
    def flat(self) -> bool:
        return self.max_raw == 0.0


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
def _schedule(shape: tuple[int, int]):
    """The four sequential sweeps as (family, step, diagonals) triples.

    Family 0 holds the diagonals i+j = d, family 1 the diagonals i-j = d.
    In the flat (h+2, w+2) padded grid a diagonal is the strided slice
    ``lo:hi:step`` with step w+1 (family 0) or w+3 (family 1).  Each
    diagonal is ``(k, lo, hi, s, n)``: ``k`` its dirty-flag index in its
    own family, ``n`` its pixel count, and pixel m's neighbours lie on the
    other family's diagonals with flag indices s-1+2m and s+1+2m.
    """
    h, w = shape
    stride = w + 2
    plus, minus = [], []
    for d in range(h + w - 1):  # i + j = d, rows i0..i1
        i0, i1 = max(0, d - w + 1), min(d, h - 1)
        lo = (i0 + 1) * stride + d - i0 + 1
        plus.append((d + 1, lo, lo + (i1 - i0) * (w + 1) + 1, 2 * i0 - d + w, i1 - i0 + 1))
    for d in range(1 - w, h):  # i - j = d, rows i0..i1
        i0, i1 = max(0, d), min(h - 1, d + w - 1)
        lo = (i0 + 1) * stride + i0 - d + 1
        minus.append((d + w, lo, lo + (i1 - i0) * (w + 3) + 1, 2 * i0 - d + 1, i1 - i0 + 1))
    return (0, w + 1, plus), (1, w + 3, minus), (1, w + 3, minus[::-1]), (0, w + 1, plus[::-1])


def _shared(a, b) -> int:
    """Length of the common prefix of two sequences."""
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


@lru_cache(maxsize=8)
def _init_plan(radius: int):
    """Every offset within radius as a step of a walk over prefix sums.

    The samples of offset (dr, dc) are the nearest-pixel points at <= 1 px
    spacing along the segment from (0, 0) to (dr, dc); repeats are kept,
    each is one sample.  Offsets are ordered by their sample lists, so each
    shares a prefix of ``keep`` samples with the one before it.  An entry
    is ``(dr, dc, step, n, keep, adds)`` with ``step`` the segment length,
    ``n`` the sample count and ``adds`` holding (ri, ci, fresh) for the
    samples after the prefix; ``fresh`` is set when the partial sum before
    that sample is needed again by a later offset and so must not be
    overwritten.
    """
    lists = []
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            step = float(np.hypot(dr, dc))
            if step == 0 or step > radius:
                continue
            n_samples = max(3, int(np.ceil(2.0 * step)) + 1)
            samples = tuple(
                (int(round(s * dr)), int(round(s * dc))) for s in np.linspace(0.0, 1.0, n_samples)
            )
            lists.append((samples, dr, dc, step))
    lists.sort()
    keeps = [0] + [_shared(a[0], b[0]) for a, b in zip(lists, lists[1:])]
    plan = []
    for k, (samples, dr, dc, step) in enumerate(lists):
        # A later offset j shares exactly min(keeps[k+1..j]) samples with
        # this one; the partial sum of that many samples is needed again.
        needed, shared = set(), len(samples)
        for keep in keeps[k + 1 :]:
            shared = min(shared, keep)
            if shared < keeps[k]:
                break
            needed.add(shared)
        adds = tuple((ri, ci, d in needed) for d, (ri, ci) in enumerate(samples) if d >= keeps[k])
        plan.append((dr, dc, step, len(samples), keeps[k], adds))
    return tuple(plan)


def _exact_init(dist, speed, seed, radius):
    # Seed the neighborhood of the seed set with straight-segment costs so
    # the first-order scheme does not bake its large near-source error into
    # every downstream characteristic.  The cost of the segment from a seed
    # pixel is its length times the mean speed sampled along it (a discrete
    # line integral, nearest-neighbor sampling at <= 1 px spacing): exact
    # for uniform speed, and any particular path only ever upper-bounds the
    # geodesic distance, so the sweeps remain free to lower these values.
    # Samples are summed from 0 in list order, so offsets whose lists share
    # a prefix share its partial sum bit for bit; ``stack[d]`` holds the
    # sum of the first d samples, over the seeds' bounding box grown by the
    # radius (no segment from a seed leaves it).  Padding by the radius
    # keeps every shifted view in bounds: a pixel whose segment leaves the
    # box reads padding, but its source lies outside the seed mask.
    rows, cols = np.flatnonzero(seed.any(axis=1)), np.flatnonzero(seed.any(axis=0))
    box = (
        slice(max(rows[0] - radius, 0), rows[-1] + radius + 1),
        slice(max(cols[0] - radius, 0), cols[-1] + radius + 1),
    )
    dist, speed, seed = dist[box], speed[box], seed[box]
    h, w = dist.shape
    speed_pad, seed_pad = np.pad(speed, radius), np.pad(seed, radius)

    def shifted(a, dr, dc):  # a[r - dr, c - dc] at every box pixel (r, c)
        return a[radius - dr : radius - dr + h, radius - dc : radius - dc + w]

    stack = [np.zeros((h, w))]
    for dr, dc, step, n, keep, adds in _init_plan(radius):
        del stack[keep + 1 :]
        acc = stack[keep]
        for ri, ci, fresh in adds:
            if fresh:
                acc = acc + shifted(speed_pad, ri, ci)
            else:
                acc += shifted(speed_pad, ri, ci)
            stack.append(acc)
        np.minimum(dist, step * (acc / n), out=dist, where=shifted(seed_pad, dr, dc))


def solve_eikonal(
    speed: np.ndarray,
    seed: np.ndarray,
    tol: float = EIKONAL_TOL_DEFAULT,
    exact_init_radius: int = 8,
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
    f1 = np.pad(speed, 1).ravel()
    f2 = 2.0 * f1 * f1
    # One dirty flag per diagonal per family, padded by one at each end.
    flags = np.ones((2, h + w + 1), dtype=bool)
    with np.errstate(invalid="ignore"):
        for _ in range(_MAX_ITERATIONS):
            prev = dist.copy()
            for family, st, diagonals in _schedule(speed.shape):
                own, other = flags[family], flags[1 - family]
                for k, lo, hi, s, n in diagonals:
                    if not own[k]:  # no neighbour changed since the last visit
                        continue
                    own[k] = False
                    cur = p[lo:hi:st]
                    a = np.minimum(p[lo - 1 : hi - 1 : st], p[lo + 1 : hi + 1 : st])
                    b = np.minimum(
                        p[lo - stride : hi - stride : st], p[lo + stride : hi + stride : st]
                    )
                    f = f1[lo:hi:st]
                    diff = np.abs(a - b)
                    two_sided = 0.5 * (a + b + np.sqrt(f2[lo:hi:st] - diff * diff))
                    cand = np.where(diff < f, two_sided, np.minimum(a, b) + f)
                    drop = cand < cur
                    if drop.any():
                        np.copyto(cur, cand, where=drop)
                        own[k - 1] = own[k + 1] = True
                        other[s - 1 : s - 1 + 2 * n : 2] |= drop
                        other[s + 1 : s + 1 + 2 * n : 2] |= drop
            # dist never increases, so prev - dist is the largest update
            scale = tol * max(float(dist.max()), 1e-300)
            if np.isfinite(dist).all() and (prev - dist).max() < scale:
                break
        else:
            raise DivergenceError("fast sweeping did not converge", step=_MAX_ITERATIONS)

    raw = dist.copy()
    max_raw = float(raw.max())
    values = raw.copy() if max_raw == 0.0 else raw / max_raw
    return DistanceMap(values, raw, max_raw)


def distance_for_mask(
    image: np.ndarray,
    mask: np.ndarray,
    sp: SpeedParams = SpeedParams(),
    d_e: np.ndarray | None = None,
) -> DistanceMap:
    """Distance map grown from the thresholded mask over the image's speed field."""
    image = as_field(image, "image")
    mask = as_field(mask, "mask")
    check_same_shape(image, mask)
    return solve_eikonal(speed_field(image, sp, d_e), binarize(mask))
