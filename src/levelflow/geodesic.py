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
seeds excluded.  The loop stops when no pixel drops, which is the exact
fixed point of the scheme: a pixel with no changed neighbour would
compute the same candidate again.  Values only ever decrease, and
information travels one pixel per iteration, so a solve needs about one
iteration per pixel along its longest characteristic; more than
``h * w + 1`` iterations raises ``DivergenceError``.

The near-seed initialization sums speed samples along straight segments
in a fixed order, so offsets whose sample lists share a prefix share the
partial sum bit for bit.  A cached plan per radius walks the offsets in
the order of their sample lists and computes each partial sum once.

Inside a ``with reuse_solves():`` scope, a repeated solve is answered from
memory: a call whose shape, ``exact_init_radius``, speed bytes and seed
pixels all match one of the last ``_REUSE_MAX`` solves of the scope
returns that solve's ``DistanceMap`` itself.  ``sample`` opens one scope
per call, where ensemble members whose clean estimates fall onto the same
mask ask for the same map again.  Outside a scope every call solves.  The
arrays of a ``DistanceMap`` are read-only in or out of a scope, so a map
handed out twice cannot be changed by either holder.
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

from .errors import DivergenceError, InvalidInputError, require, require_ints
from .field import as_field, binarize, check_same_shape, gradient

_REUSE_MAX = 8
# The solves of the innermost open reuse_solves() scope, least recently
# used first; None outside any scope.
_reuse: ContextVar[OrderedDict | None] = ContextVar("levelflow_eikonal_reuse", default=None)


@dataclass(frozen=True)
class SpeedParams:
    eps_d: float = 1e-3
    beta_g: float = 1e3
    nu: float = 0.0

    def __post_init__(self):
        require(0 < self.eps_d < math.inf, "eps_d", "positive and finite", self.eps_d)
        for name in ("beta_g", "nu"):
            value = getattr(self, name)
            require(0 <= value < math.inf, name, "non-negative and finite", value)


@dataclass(frozen=True)
class DistanceMap:
    """Normalized distance values of an eikonal solution.

    ``values`` is 0 exactly on seeds and has maximum 1 unless the raw map
    was identically zero (seed covered everything); then ``flat`` is set
    and the values stay zero instead of dividing by zero.  ``raw`` is the
    unnormalized eikonal solution (``values`` times ``max_raw``, kept
    separately because the normalization round trip is not bit-exact).
    Both arrays are read-only.
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
    # geodesic distance, so the iteration remains free to lower these values.
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


def solve_eikonal(speed: np.ndarray, seed: np.ndarray, exact_init_radius: int = 8) -> DistanceMap:
    """Solve |grad D| = speed with D = 0 on the seed set, then normalize.

    The result is the exact fixed point of the discrete scheme.
    ``exact_init_radius`` controls how far around the seed set initial
    straight-segment costs are planted before iterating (see
    ``_exact_init``); 0 disables it and runs the bare Godunov scheme,
    whose near-source error for point seeds is O(1) relative.  Inside a
    ``reuse_solves`` scope a repeated problem returns the earlier map.
    """
    require_ints(exact_init_radius=exact_init_radius)
    require(exact_init_radius >= 0, "exact_init_radius", "an int >= 0", exact_init_radius)
    radius = int(exact_init_radius)
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

    # The memo sits here rather than in the sampler: deduplicating there
    # would call solve_eikonal fewer than the E * ceil(T / refresh) times
    # that bench/test_bench.py pins.  Moving it up waits until the bench
    # pins work instead of calls (ROADMAP item 1).
    memo = _reuse.get()
    if memo is None:
        return _solve(speed, seed_bin, radius)
    key = (speed.shape, radius, _digest(speed), _digest(np.packbits(seed_bin)))
    if key in memo:
        memo.move_to_end(key)
        return memo[key]
    dmap = memo[key] = _solve(speed, seed_bin, radius)
    if len(memo) > _REUSE_MAX:
        memo.popitem(last=False)
    return dmap


def _solve(speed, seed, radius) -> DistanceMap:
    """The Jacobi fixed-point solve of checked inputs (``seed`` boolean)."""
    h, w = speed.shape
    stride = w + 2
    padded = np.full((h + 2, w + 2), np.inf)
    dist = padded[1:-1, 1:-1]
    dist[seed] = 0.0
    if radius > 0:
        _exact_init(dist, speed, seed, radius)

    # Flat indices into the padded grid.  Seeds hold 0 and padding holds
    # inf; neither is ever active.  An unreached (inf) neighbour, or two,
    # makes |a - b| inf or nan, and the comparison then selects the
    # one-sided update min(a, b) + f.
    p = padded.ravel()
    f1 = np.pad(speed, 1).ravel()
    free = np.pad(~seed, 1).ravel()
    mark = np.zeros_like(free)
    active = np.flatnonzero(free)
    with np.errstate(invalid="ignore"):
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

    raw = dist.copy()
    max_raw = float(raw.max())
    values = raw.copy() if max_raw == 0.0 else raw / max_raw
    raw.flags.writeable = values.flags.writeable = False
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
