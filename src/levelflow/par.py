"""Pixel-adaptive refinement: affinity-weighted neighbor averaging of masks.

Each pixel gets a softmax-normalized affinity to its 8-neighborhood,

    logit(q) = -((p(i,j) - p(q)) / sigma(i,j))^2,

with p the image intensity and sigma the local neighborhood standard
deviation, floored to stay finite on flat patches.  Border pixels
normalize over their existing neighbors, so the kernel is row-stochastic
everywhere.  Refinement applies the kernel tau times to the mask
(double-buffered, self excluded), which is a convex combination of
neighbor values and therefore range-preserving; the consistency loss is
the L1 distance between the mask and its refined version.

Both kernels stream over the neighbors one (H, W) view at a time: a field
is padded once by a zero frame, and its 8 neighbors are views into it in
NEIGHBOR_OFFSETS order.  Each sum over the neighbors is written out in the
order numpy sums an 8-long last axis, from +0.0,

    ((x0 + x1) + (x2 + x3)) + ((x4 + x5) + (x6 + x7)),

and sigma takes np.nanstd's steps, so every bit equals that of reducing an
(H, W, 8) stack.  Memory is the weights, stored (8, H, W) and shown as an
(H, W, 8) view, plus a few (H, W) temporaries.  An image whose neighborhood
spread, or every logit of one pixel, overflows float64 is rejected, and
so are a kernel whose weights are negative, do not sum to 1 at a pixel or
fall on a neighbor off the grid, and a refinement that overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, Params, Rule, param, require_instance
from .field import as_field, as_fields

# Fixed neighbor order: row-major over the 3x3 window minus the center.
NEIGHBOR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)

SIGMA_FLOOR = 1e-4  # keeps 1 / sigma finite on a flat neighborhood


@dataclass(frozen=True)
class ParParams(Params):
    tau: int = param(10, Rule(lambda v: v >= 0, "non-negative"))


@dataclass(frozen=True)
class AffinityKernel:
    """(H, W, 8) non-negative weights, zero at missing neighbors, rows sum to 1."""

    weights: np.ndarray


def _neighbors(padded: np.ndarray) -> list[np.ndarray]:
    """The 8 neighbor views, in NEIGHBOR_OFFSETS order, of a field padded by one."""
    h, w = padded.shape[0] - 2, padded.shape[1] - 2
    return [padded[1 + dr:1 + dr + h, 1 + dc:1 + dc + w] for dr, dc in NEIGHBOR_OFFSETS]


def _tree_sum(terms) -> np.ndarray:
    """Sum 8 (H, W) terms, each drawn only when needed, as numpy sums an 8-long axis."""
    t = iter(terms)
    total = (next(t) + next(t)) + (next(t) + next(t))
    total += (next(t) + next(t)) + (next(t) + next(t))
    total += 0.0  # numpy's sum starts from +0.0, so eight -0.0 terms sum to +0.0
    return total


def affinity_kernel(image: np.ndarray) -> AffinityKernel:
    """Softmax affinity over the 8-neighborhood from image intensity."""
    image = as_field(image, "image")
    if image.size < 2:
        raise InvalidInputError("affinity kernel needs at least two pixels")
    valid = _neighbors(np.pad(np.ones(image.shape, dtype=bool), 1))
    near = _neighbors(np.pad(image, 1))  # 0 off the grid, as nanstd fills NaN
    count = sum(valid, np.zeros(image.shape))
    logits = np.empty((8, *image.shape))
    # An overflow here ends in a non-finite sigma or shift, rejected below,
    # unless it is a logit of -inf beside a finite one: a weight of 0.
    with np.errstate(over="ignore", invalid="ignore"):
        # nanstd's steps: mean, deviations zeroed off the grid, squares, mean
        mean = _tree_sum(near) / count
        sq = (np.square(np.where(v, x - mean, 0.0)) for x, v in zip(near, valid))
        sigma = np.sqrt(_tree_sum(sq) / count)
        np.maximum(sigma, SIGMA_FLOOR, out=sigma)
        for logit, x, v in zip(logits, near, valid):
            np.subtract(x, image, out=logit)
            logit /= sigma
            logit *= logit
            logit *= -1.0  # not np.negative(..., out=...); see field.gradient_adjoint
            logit[~v] = -np.inf
    # Softmax over valid neighbors; max-shift keeps exp() in range and maps
    # equal logits to exactly equal weights.
    shift = logits.max(axis=0)
    if not (np.isfinite(sigma).all() and np.isfinite(shift).all()):
        raise InvalidInputError("image values lie too far apart for float64; rescale the image")
    logits -= shift
    np.exp(logits, out=logits)
    logits /= _tree_sum(logits)
    return AffinityKernel(weights=logits.transpose(1, 2, 0))


def _row_stochastic(weights: np.ndarray) -> bool:
    """Whether (8, H, W) weights are non-negative and sum to 1, to 1e-9, at every pixel."""
    # A NaN or infinite weight makes its sum NaN or inf, which min and max pass on.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _tree_sum(weights)
    return weights.min() >= 0.0 and 1.0 - 1e-9 <= sums.min() and sums.max() <= 1.0 + 1e-9


def refine(mask: np.ndarray, kernel: AffinityKernel, tau: int) -> np.ndarray:
    """Apply the kernel tau times; tau = 0 returns a copy of the mask."""
    ParParams(tau)
    mask = as_field(mask, "mask")
    require_instance("kernel", kernel, AffinityKernel)
    expected = (*mask.shape, len(NEIGHBOR_OFFSETS))
    if np.shape(kernel.weights) != expected:
        raise InvalidInputError(
            f"kernel weights must have shape {expected}, got {np.shape(kernel.weights)}"
        )
    weights = np.moveaxis(kernel.weights, 2, 0)
    if not _row_stochastic(weights):
        raise InvalidInputError("kernel weights must be non-negative and sum to 1 at every pixel")
    edge = {-1: 0, 1: -1}  # the row or column whose neighbor at this offset is off the grid
    for wk, (dr, dc) in zip(weights, NEIGHBOR_OFFSETS):
        if (dr and wk[edge[dr]].any()) or (dc and wk[:, edge[dc]].any()):
            raise InvalidInputError("kernel weights must be 0 on neighbors off the grid")
    padded = np.pad(mask, 1)  # a neighbor off the grid has weight 0 and value 0
    near = _neighbors(padded)
    # A row may sum to just above 1, so a mask near the float64 limit can
    # overflow; a non-finite value never turns finite again.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tau):
            padded[1:-1, 1:-1] = _tree_sum(wk * x for wk, x in zip(weights, near))
    out = padded[1:-1, 1:-1].copy()
    if not np.isfinite(out).all():
        raise InvalidInputError("mask values overflow float64 under refinement; rescale the mask")
    return out


def par_loss(mask: np.ndarray, refined: np.ndarray) -> float:
    """L1 consistency loss: sum of |mask - refined| (per-pixel mean is sum/N)."""
    mask, refined = as_fields(mask=mask, refined=refined)
    return float(np.abs(mask - refined).sum())
