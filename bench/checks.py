"""Correctness checks on the artifacts of one benchmark job.

Each CLI call of a job leaves an output directory with a ``manifest.json``.
A job fails if, in any of them:

- an artifact's sha256 differs from the digest the manifest lists;
- a field is non-finite, or a mask lies outside [0, 1];
- a JSON file is not standard JSON (``NaN`` and ``Infinity`` are rejected).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from levelflow.field import load_field

# Artifacts that hold masks, by file name; they must lie in [0, 1].
MASK_FIELDS = ("gt_mask.lsf1", "mask_final.lsf1", "refined.lsf1", "mask.lsf1")


class CheckError(Exception):
    """An output of the program is wrong."""


def _reject_constant(token):
    raise CheckError(f"non-standard JSON constant {token}")


def strict_json(path) -> object:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise CheckError(f"{path}: not JSON: {exc}") from None


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run_dir(out_dir) -> dict:
    """Check one CLI call's outputs; return ``{artifact: sha256}``."""
    manifest = strict_json(os.path.join(out_dir, "manifest.json"))
    digests = manifest["artifacts"]
    for rel, digest in digests.items():
        path = os.path.join(out_dir, rel)
        if sha256(path) != digest:
            raise CheckError(f"{path}: sha256 does not match manifest.json")
        if rel.endswith(".json"):
            strict_json(path)
        elif rel.endswith(".lsf1"):
            field = load_field(path)
            if not np.all(np.isfinite(field)):
                raise CheckError(f"{path}: non-finite values")
            if os.path.basename(rel) in MASK_FIELDS and (field.min() < 0.0 or field.max() > 1.0):
                raise CheckError(f"{path}: mask outside [0, 1]")
    return digests


def dice(pred: np.ndarray, ref: np.ndarray) -> float:
    """Dice of ``pred >= 0.5`` against ``ref >= 0.5``; 1 when both are empty."""
    p = pred >= 0.5
    r = ref >= 0.5
    denom = int(p.sum()) + int(r.sum())
    return 2.0 * int((p & r).sum()) / denom if denom else 1.0
