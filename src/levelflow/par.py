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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .field import as_field, check_same_shape

# Fixed neighbor order: row-major over the 3x3 window minus the center.
NEIGHBOR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)

SIGMA_FLOOR = 1e-4  # keeps 1 / sigma finite on a flat neighborhood


@dataclass(frozen=True)
class ParParams:
    tau: int = 10

    def __post_init__(self):
        if self.tau < 0:
            raise InvalidInputError("tau must be non-negative")


@dataclass(frozen=True)
class AffinityKernel:
    """(H, W, 8) non-negative weights, zero at missing neighbors, rows sum to 1."""

    weights: np.ndarray


def _neighbor_stack(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack of the 8 shifted copies of f plus a validity mask, NaN outside."""
    h, w = f.shape
    stack = np.full((h, w, 8), np.nan)
    valid = np.zeros((h, w, 8), dtype=bool)
    for k, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        src_r = slice(max(0, dr), h + min(0, dr))
        src_c = slice(max(0, dc), w + min(0, dc))
        dst_r = slice(max(0, -dr), h + min(0, -dr))
        dst_c = slice(max(0, -dc), w + min(0, -dc))
        stack[dst_r, dst_c, k] = f[src_r, src_c]
        valid[dst_r, dst_c, k] = True
    return stack, valid


def affinity_kernel(image: np.ndarray) -> AffinityKernel:
    """Softmax affinity over the 8-neighborhood from image intensity."""
    image = as_field(image, "image")
    if image.size < 2:
        raise InvalidInputError("affinity kernel needs at least two pixels")
    stack, valid = _neighbor_stack(image)
    with np.errstate(invalid="ignore"):
        sigma = np.nanstd(stack, axis=2)
    sigma = np.maximum(sigma, SIGMA_FLOOR)
    diff = (stack - image[:, :, None]) / sigma[:, :, None]
    logits = np.where(valid, -(diff * diff), -np.inf)
    del stack, diff  # two (H, W, 8) arrays the softmax below no longer needs
    # Softmax over valid neighbors; max-shift keeps exp() in range and maps
    # equal logits to exactly equal weights.
    shift = logits.max(axis=2, keepdims=True)
    expd = np.where(valid, np.exp(logits - shift), 0.0)
    weights = expd / expd.sum(axis=2, keepdims=True)
    return AffinityKernel(weights=weights)


def refine(mask: np.ndarray, kernel: AffinityKernel, tau: int) -> np.ndarray:
    """Apply the kernel tau times; tau = 0 returns a copy of the mask."""
    if tau < 0:
        raise InvalidInputError("tau must be non-negative")
    mask = as_field(mask, "mask")
    if kernel.weights.shape[:2] != mask.shape:
        raise InvalidInputError(
            f"kernel shape {kernel.weights.shape[:2]} does not match mask {mask.shape}"
        )
    out = mask.copy()
    for _ in range(tau):
        stack, valid = _neighbor_stack(out)
        out = np.sum(kernel.weights * np.where(valid, stack, 0.0), axis=2)
    return out


def par_loss(mask: np.ndarray, refined: np.ndarray) -> float:
    """L1 consistency loss: sum of |mask - refined| (per-pixel mean is sum/N)."""
    mask = as_field(mask, "mask")
    refined = as_field(refined, "refined")
    check_same_shape(mask, refined)
    return float(np.abs(mask - refined).sum())
