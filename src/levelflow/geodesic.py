"""Edge-aware speed fields and geodesic distance maps.

The distance map D solves the eikonal problem |grad D| = f outside the
seed region with D = 0 on it, where the speed (cost) field

    f = eps_d + beta_g * |grad I|^2 + nu * D_E

makes homogeneous regions cheap and image edges expensive.  D_E is an
optional externally supplied extra cost (zero by default).  Maps are
normalized to [0, 1] by their maximum.

The solver is the standard Godunov upwind discretization, iterated as a
Jacobi fixed point on an active set (the Fast Iterative Method of Jeong
and Whitaker, 2008).  Each iteration computes the candidates of every
active pixel from the previous values at once and writes those that
drop; the next active set is the 4-neighbours of the dropped pixels,
seeds excluded.  The loop stops when no pixel drops, which is a fixed
point of the scheme: a pixel with no changed neighbour would compute the
same candidate again.  Values only ever decrease, and information travels
one pixel per iteration, so a solve needs about one iteration per pixel
along its longest characteristic; more than ``h * w + 1`` iterations
raises ``DivergenceError``, and so does a speed whose square overflows.

The near-seed initialization plants straight-segment costs within
``EXACT_INIT_RADIUS`` pixels of the seed set.  It sums each segment's
speed samples in list order over one flat run of the seeds' padded
bounding box, where every shift of the box is one contiguous slice.

Inside a ``with reuse_solves():`` scope, a repeated solve is answered from
memory: a call whose shape, speed bytes and seed pixels all match one of the
last ``_REUSE_MAX`` solves of the scope returns that solve's ``DistanceMap``
itself.  ``sample`` opens one scope per call, where ensemble members whose
clean estimates fall onto the same mask ask for the same map again.  Outside a
scope every call solves.  A map's values are read-only in or out of a scope,
so a map handed out twice cannot be changed by either holder.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NON_NEGATIVE, POSITIVE, DivergenceError, InvalidInputError, Params, param
from .errors import require_instance
from .field import as_fields, binarize, gradient

# How far around the seed set _exact_init plants straight-segment costs;
# the bare scheme's near-source error for point seeds is O(1) relative.
EXACT_INIT_RADIUS = 8

_REUSE_MAX = 8
# The solves of the innermost open reuse_solves() scope, least recently
# used first; None outside any scope.
_reuse: ContextVar[OrderedDict | None] = ContextVar("levelflow_eikonal_reuse", default=None)


@dataclass(frozen=True)
class SpeedParams(Params):
    eps_d: float = param(1e-3, POSITIVE)
    beta_g: float = param(1e3, NON_NEGATIVE)
    nu: float = param(0.0, NON_NEGATIVE)


@dataclass(frozen=True)
class DistanceMap:
    """Normalized distance values of an eikonal solution.

    ``values`` is 0 exactly on seeds and has maximum 1 unless the raw map
    was identically zero (seed covered everything); then ``flat`` is set
    and the values stay zero instead of dividing by zero.  ``max_raw`` is
    the maximum of the unnormalized eikonal solution.  A map's values are
    read-only.
    """

    values: np.ndarray
    max_raw: float

    @property
    def flat(self) -> bool:
        return self.max_raw == 0.0


def speed_field(image: np.ndarray, sp: SpeedParams, d_e: np.ndarray | None = None) -> np.ndarray:
    """Strictly positive cost field for the eikonal problem."""
    image, *extra = as_fields(image=image, **({} if d_e is None else {"d_e": d_e}))
    require_instance("sp", sp, SpeedParams)
    gx, gy = gradient(image)
    f = sp.eps_d + sp.beta_g * (gx * gx + gy * gy)
    if extra:  # the checked d_e
        f = f + sp.nu * extra[0]
    return f


@lru_cache(maxsize=8)
def _segments(radius: int):
    """``(dr, dc, step, samples)`` for every offset within radius.

    The samples of offset (dr, dc) are the nearest-pixel points at <= 1 px
    spacing along the segment from (0, 0) to (dr, dc); repeats are kept,
    each is one sample.  ``step`` is the segment length.
    """
    segments = []
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            step = float(np.hypot(dr, dc))
            if step == 0 or step > radius:
                continue
            n_samples = max(3, int(np.ceil(2.0 * step)) + 1)
            samples = tuple(
                (int(round(s * dr)), int(round(s * dc))) for s in np.linspace(0.0, 1.0, n_samples)
            )
            segments.append((dr, dc, step, samples))
    return tuple(segments)


def _exact_init(dist, speed, seed, radius):
    # Seed the neighborhood of the seed set with straight-segment costs so
    # the first-order scheme does not bake its large near-source error into
    # every downstream characteristic.  The cost of the segment from a seed
    # pixel is its length times the mean speed sampled along it (a discrete
    # line integral, nearest-neighbor sampling at <= 1 px spacing): exact
    # for uniform speed, and any particular path only ever upper-bounds the
    # geodesic distance, so the iteration remains free to lower these values.
    # The work covers the seeds' bounding box grown by the radius (no
    # segment from a seed leaves it), held as one flat run: each box row is
    # followed by ``radius`` zero pad columns, with ``radius + 1`` zero rows
    # above and below, so a shift by (dr, dc) is one contiguous slice.  As
    # |dc| <= radius, a column past either box edge lands in a pad column,
    # not in a neighbouring row, and is no seed.  Each segment's samples are
    # summed from +0.0 in list order; results in the pad columns are dropped.
    rows, cols = np.flatnonzero(seed.any(axis=1)), np.flatnonzero(seed.any(axis=0))
    box = (
        slice(max(rows[0] - radius, 0), rows[-1] + radius + 1),
        slice(max(cols[0] - radius, 0), cols[-1] + radius + 1),
    )
    h, w = dist[box].shape
    stride = w + radius
    base, size = (radius + 1) * stride, h * stride

    def run(a):
        padded = np.zeros((h + 2 * radius + 2, stride), a.dtype)
        padded[radius + 1 : radius + 1 + h, :w] = a[box]
        return padded.ravel()

    def shifted(a, dr, dc):  # a[r - dr, c - dc] at every box pixel (r, c)
        start = base - dr * stride - dc
        return a[start : start + size]

    speed_run, seed_run, flat = run(speed), run(seed), shifted(run(dist), 0, 0)
    acc = np.empty(size)
    for dr, dc, step, samples in _segments(radius):
        np.add(0.0, shifted(speed_run, *samples[0]), out=acc)
        for ri, ci in samples[1:]:
            acc += shifted(speed_run, ri, ci)
        acc /= len(samples)
        acc *= step
        np.minimum(flat, acc, out=flat, where=shifted(seed_run, dr, dc))
    dist[box] = flat.reshape(h, stride)[:, :w]


@contextmanager
def reuse_solves():
    """Answer repeated ``solve_eikonal`` calls in this scope from memory.

    The memo lives as long as the scope and holds the ``_REUSE_MAX`` most
    recently used solves; a scope opened inside another starts empty.
    """
    token = _reuse.set(OrderedDict())
    try:
        yield
    finally:
        _reuse.reset(token)


def _digest(a: np.ndarray) -> bytes:
    # C-order bytes: a strided view hashes its values, not its buffer.
    return hashlib.blake2b(np.ascontiguousarray(a)).digest()


def solve_eikonal(speed: np.ndarray, seed: np.ndarray) -> DistanceMap:
    """Solve |grad D| = speed with D = 0 on the seed set, then normalize.

    The seed set is ``seed >= 0.5`` for any field ``seed``, a boolean array
    included.  The result is a fixed point of the discrete scheme, iterated
    from straight-segment costs planted within ``EXACT_INIT_RADIUS`` of the
    seed set.  Inside a ``reuse_solves`` scope a repeated problem returns
    the earlier map.
    """
    speed, seed = as_fields(speed=speed, seed=seed)
    seed = binarize(seed)
    if not seed.any():
        raise InvalidInputError("seed set is empty")
    if speed.min() <= 0:
        raise InvalidInputError("speed must be strictly positive everywhere")

    # The memo sits here rather than in the sampler: deduplicating there
    # would call solve_eikonal fewer than the E * ceil(T / refresh) times
    # that bench/test_bench.py pins.  Moving it up waits until the bench
    # pins work instead of calls (ROADMAP item 1).
    memo = _reuse.get()
    if memo is not None:
        key = (speed.shape, _digest(speed), np.packbits(seed).tobytes())
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
    values = _solve(speed, seed, EXACT_INIT_RADIUS)
    max_raw = float(values.max())
    if max_raw != 0.0:
        values /= max_raw
    values.flags.writeable = False
    dmap = DistanceMap(values, max_raw)
    if memo is not None:
        memo[key] = dmap
        if len(memo) > _REUSE_MAX:
            memo.popitem(last=False)
    return dmap


def _solve(speed, seed, radius) -> np.ndarray:
    """The unnormalized Jacobi fixed-point solve of checked inputs (``seed`` boolean)."""
    h, w = speed.shape
    # The two-sided update squares the speed.  Past sqrt(max / 2) that is
    # inf, and a pixel waiting on it would stay unreached.
    f_max = float(speed.max())
    if 2.0 * f_max * f_max == math.inf:
        raise DivergenceError("eikonal update overflows float64; rescale the speed", step=0)
    stride = w + 2
    padded = np.full((h + 2, w + 2), np.inf)
    dist = padded[1:-1, 1:-1]
    dist[seed] = 0.0
    if radius > 0:
        _exact_init(dist, speed, seed, radius)

    # Flat indices into the padded grid.  Seeds hold 0 and padding holds
    # inf; neither is ever active.  An unreached (inf) neighbour, or two,
    # makes |a - b| inf or nan, and the comparison then selects the
    # one-sided update min(a, b) + f, as it does where diff * diff
    # overflows: there diff is above every speed.
    p = padded.ravel()
    f1 = np.pad(speed, 1).ravel()
    free = np.pad(~seed, 1).ravel()
    mark = np.zeros_like(free)
    active = np.flatnonzero(free)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(h * w + 1):
            a = np.minimum(p[active - 1], p[active + 1])
            b = np.minimum(p[active - stride], p[active + stride])
            f = f1[active]
            diff = np.abs(a - b)
            two_sided = 0.5 * (a + b + np.sqrt(2.0 * f * f - diff * diff))
            cand = np.where(diff < f, two_sided, np.minimum(a, b) + f)
            drop = cand < p[active]
            if not drop.any():
                break
            dropped = active[drop]
            p[dropped] = cand[drop]
            for offset in (-1, 1, -stride, stride):
                mark[dropped + offset] = True
            mark &= free
            active = np.flatnonzero(mark)
            mark[active] = False
        else:
            raise DivergenceError("eikonal iteration did not converge", step=h * w + 1)

    return dist.copy()


def distance_for_mask(
    image: np.ndarray,
    mask: np.ndarray,
    sp: SpeedParams = SpeedParams(),
    d_e: np.ndarray | None = None,
) -> DistanceMap:
    """Distance map grown from the thresholded mask over the image's speed field."""
    image, mask = as_fields(image=image, mask=mask)
    return solve_eikonal(speed_field(image, sp, d_e), binarize(mask))
