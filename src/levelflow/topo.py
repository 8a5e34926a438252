"""Topological-derivative fields and a brute-force nucleation oracle.

The topological derivative T(x) of a two-region energy is the first-order
sensitivity of the energy to flipping an infinitesimal disk at x from its
region to the other.  For the piecewise-constant ("cv") energy

    T(x) = -(I(x) - c1)^2 + (I(x) - c2)^2

and for the two-phase Gaussian energy

    T(x) = -e1(x) + e2(x),    e_i = log var_i + (I - mu_i)^2 / var_i.

Both formulas describe hard set membership, so the statistics here are
computed on the mask binarized at 0.5 rather than on Heaviside-smoothed
weights.  ``_model_fields`` gives the per-pixel energies (e1, e2) of both
models once, for the field (``e2 - e1``) and for the oracle below, which
flips hard disks and recomputes every statistic after the flip exactly:
an independent check of the first-order fields, not a restatement of
them.  ``verify_td`` derives the unflipped energies once per call, for its
TD field and for the unflipped hard energy it hands to each probe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import AT_LEAST_1, InvalidInputError, Params, one_of, param, require, require_ints
from .errors import require_floats, require_instance
from .field import as_fields, binarize
from .levelset import nll_fields, region_stats_from_weights

TD_MODELS = ("cv", "gaussian")
PROBE_DIRECTIONS = ("remove-from-inside", "add-to-inside")
_MODEL_RULE = one_of(TD_MODELS)  # built once: _checked runs once per probe

_PROBE_TAG = 0x50524F42  # "PROB"

TIE_FACTOR = 1e-3  # verify_td's tie threshold is this times the largest |T|


@dataclass(frozen=True)
class NucleationProbe(Params):
    row: int
    col: int
    radius: int = param(rule=AT_LEAST_1)
    direction: str = param(rule=one_of(PROBE_DIRECTIONS))


def td_field(image: np.ndarray, mask: np.ndarray, model: str = "cv") -> np.ndarray:
    """Per-pixel topological derivative T from hard region statistics.

    Sign convention: flipping a pixel out of its current region changes
    the energy by (direction sign) * T.  The "cv" model uses the region
    means alone, the "gaussian" model the full two-phase likelihoods.
    """
    e1, e2 = _model_fields(*_checked(image, mask, model), model)
    return e2 - e1


def _checked(image, mask, model) -> tuple[np.ndarray, np.ndarray]:
    """The validated image and the mask binarized at 0.5."""
    require(_MODEL_RULE.test(model), "model", _MODEL_RULE.text, model)
    image, mask = as_fields(image=image, mask=mask)
    return image, binarize(mask)


def _disk_pixels(shape, probe: NucleationProbe) -> np.ndarray:
    h, w = shape
    r = probe.radius
    if not (r <= probe.row < h - r and r <= probe.col < w - r):
        raise InvalidInputError(
            f"probe disk (center ({probe.row}, {probe.col}), radius {r}) "
            f"does not fit inside a {h}x{w} grid"
        )
    disk = np.zeros(shape, dtype=bool)
    disk[probe.row - r : probe.row + r + 1, probe.col - r : probe.col + r + 1] = _footprint(r)
    return disk


@functools.lru_cache(maxsize=8)
def _footprint(r: int) -> np.ndarray:
    """Read-only (2r+1)x(2r+1) boolean disk of radius r."""
    rows, cols = np.mgrid[-r : r + 1, -r : r + 1]
    inside = rows * rows + cols * cols <= r * r
    inside.flags.writeable = False
    return inside


def _model_fields(image, mask_bin, model) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel (inside, outside) energies under ``model``, from hard statistics."""
    stats = region_stats_from_weights(image, mask_bin.astype(np.float64))
    if model == "cv":
        return (image - stats.mean_in) ** 2, (image - stats.mean_out) ** 2
    return nll_fields(image, stats)


def _hard_energy(image, mask_bin, model) -> float:
    return _energy_sum(mask_bin, *_model_fields(image, mask_bin, model))


def _energy_sum(mask_bin, e1, e2) -> float:
    return float(e1[mask_bin].sum() + e2[~mask_bin].sum())


def nucleation_delta(
    image: np.ndarray,
    mask: np.ndarray,
    probe: NucleationProbe,
    model: str = "cv",
    *,
    before_energy: float | None = None,
) -> float:
    """Exact energy change per flipped pixel for a hard disk flip.

    The disk is assigned wholesale to the target region given by the probe
    direction and the region statistics are fully recomputed afterwards,
    so the returned value contains every finite-size correction the
    first-order TD fields drop.

    ``before_energy`` is the hard energy of the unflipped mask,
    ``_hard_energy(image, binarize(mask), model)``; any other value gives a
    wrong delta.  ``verify_td`` computes it once per call and passes it to
    every probe.  When it is None it is computed here.
    """
    image, before = _checked(image, mask, model)
    require_instance("probe", probe, NucleationProbe)
    if before_energy is not None:
        require_floats(before_energy=before_energy)
    disk = _disk_pixels(image.shape, probe)
    after = before.copy()
    if probe.direction == "remove-from-inside":
        flipped = disk & before
        after[disk] = False
    else:
        flipped = disk & ~before
        after[disk] = True
    n_flipped = int(np.count_nonzero(flipped))
    if n_flipped == 0:
        raise InvalidInputError("probe disk lies entirely in its target region; nothing to flip")
    if before_energy is None:
        before_energy = _hard_energy(image, before, model)
    e_after = _hard_energy(image, after, model)
    return (e_after - before_energy) / n_flipped


@dataclass(frozen=True)
class TdVerifyReport:
    """Oracle-vs-field comparison over sampled probes.

    Samples whose |T| falls below the tie threshold are excluded from the
    statistics (the sign of a near-zero derivative is noise).  When every
    sample is excluded the rates are None and ``all_excluded`` is set.
    """

    model: str
    radius: int
    n_samples: int
    n_used: int
    tie_threshold: float
    median_rel_err: float | None
    max_rel_err: float | None
    sign_agreement_rate: float | None
    all_excluded: bool


def verify_td(
    image: np.ndarray,
    mask: np.ndarray,
    model: str = "cv",
    samples: int = 200,
    radius: int = 2,
    seed: int = 0,
) -> TdVerifyReport:
    """Compare the TD field against the nucleation oracle at random pixels.

    Probe centers are drawn at least ``radius`` pixels away from the image
    border.  A probe at an inside pixel removes the disk from the inside
    region and is compared against +T(x); at an outside pixel the disk is
    added and compared against -T(x) (the reverse move flips the sign of
    the first-order sensitivity).
    """
    require_ints(samples=samples, radius=radius)
    require(AT_LEAST_1.test(samples), "samples", AT_LEAST_1.text, samples)
    image, mask_bin = _checked(image, mask, model)
    e1, e2 = _model_fields(image, mask_bin, model)
    t = e2 - e1  # td_field
    h, w = t.shape
    if h <= 2 * radius or w <= 2 * radius:
        raise InvalidInputError("grid too small for the probe radius")

    tie_threshold = TIE_FACTOR * float(np.abs(t).max())
    before_energy = _energy_sum(mask_bin, e1, e2)

    key = rng.derive_key(seed, _PROBE_TAG)
    rows = radius + rng.integers(key, samples, h - 2 * radius, start=0)
    cols = radius + rng.integers(key, samples, w - 2 * radius, start=samples)

    rels = []
    agree = []
    for r, c in zip(rows, cols):
        inside = bool(mask_bin[r, c])
        direction = "remove-from-inside" if inside else "add-to-inside"
        probe = NucleationProbe(row=int(r), col=int(c), radius=radius, direction=direction)
        delta = nucleation_delta(image, mask, probe, model, before_energy=before_energy)
        expected = float(t[r, c]) if inside else -float(t[r, c])
        if abs(t[r, c]) < tie_threshold:
            continue
        rels.append(abs(delta - expected) / abs(expected))
        agree.append(np.sign(delta) == np.sign(expected))

    used = len(rels) > 0
    return TdVerifyReport(
        model=model,
        radius=radius,
        n_samples=samples,
        n_used=len(rels),
        tie_threshold=tie_threshold,
        median_rel_err=float(np.median(rels)) if used else None,
        max_rel_err=float(np.max(rels)) if used else None,
        sign_agreement_rate=float(np.mean(agree)) if used else None,
        all_excluded=not used,
    )
