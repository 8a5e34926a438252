"""2-D scalar fields: stencils, file I/O and phantoms.

A field is a plain ``numpy`` array of shape ``(height, width)``, float64,
C-ordered, indexed ``[row, col]``; x runs along columns, y along rows.
The same representation serves images, level set functions, masks,
topological-derivative fields and distance maps.  All operations here are
pure functions.

Fields are validated once, at the package boundary.  An entry point (the
CLI, ``load_field``, a parameter or provider constructor, a public
function such as ``evolve`` or ``sample``) passes each field it receives
through :func:`as_field`, which rejects wrong rank, empty and non-finite
arrays with :class:`InvalidInputError`.  Kernels (``gradient``, ``heaviside``,
the energy terms, ``reverse_step``, ...) trust their arrays and keep only
the O(1) shape checks where two arrays meet.

Stencils use central differences in the interior and degrade to one-sided
differences at the borders through replicate (Neumann) padding, i.e. the
border derivative is ``(f[1] - f[0]) / 2``.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import FieldFormatError, InvalidInputError

LSF1_MAGIC = b"LSF1"

PHANTOM_KINDS = ("two-disks", "ring-with-hole", "c-shape", "two-rects")

# Stream tag separating phantom noise from other consumers of the same seed.
_PHANTOM_NOISE_TAG = 0x50484E54  # "PHNT"


def as_field(a, name: str = "field") -> np.ndarray:
    """Validate and coerce an array-like into a float64 (H, W) field."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


def check_same_shape(*fields: np.ndarray) -> None:
    shapes = {f.shape for f in fields}
    if len(shapes) > 1:
        raise InvalidInputError(f"fields must share one shape, got {sorted(shapes)}")


def binarize(f: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Boolean mask ``f >= threshold`` (ties count as foreground)."""
    return np.asarray(f) >= threshold


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
    """Exact adjoint of :func:`gradient`: <grad f, (vx,vy)> == <f, adjoint(vx,vy)>.

    Needed for discrete energy gradients that must match finite differences
    of the summed energy to rounding error; the continuous analogue is the
    negative divergence.
    """
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


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for a synthetic test image with a known binary ground truth."""

    kind: str
    size: int
    fg: float = 1.0
    bg: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PHANTOM_KINDS:
            raise InvalidInputError(
                f"unknown phantom kind {self.kind!r}, expected one of {PHANTOM_KINDS}"
            )
        if self.size < 32:
            raise InvalidInputError("phantom size must be at least 32")
        for name in ("fg", "bg"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite")
        if self.fg == self.bg:
            raise InvalidInputError("foreground and background intensities must differ")
        if not 0 <= self.noise_sigma < math.inf:
            raise InvalidInputError("noise_sigma must be non-negative and finite")
        if not 0 <= self.seed < rng.SEED_BOUND:
            raise InvalidInputError("seed must be in [0, 2**64)")


def _disk(rows, cols, cy, cx, r):
    return (rows - cy) ** 2 + (cols - cx) ** 2 <= r * r


def _phantom_mask(kind: str, size: int) -> np.ndarray:
    s = float(size)
    rows, cols = np.mgrid[0:size, 0:size].astype(np.float64)
    if kind == "two-disks":
        m = _disk(rows, cols, 0.30 * s, 0.34 * s, 0.14 * s)
        m |= _disk(rows, cols, 0.68 * s, 0.66 * s, 0.17 * s)
    elif kind == "ring-with-hole":
        rr = (rows - 0.5 * s) ** 2 + (cols - 0.5 * s) ** 2
        m = (rr <= (0.30 * s) ** 2) & (rr >= (0.16 * s) ** 2)
    elif kind == "c-shape":
        rr = (rows - 0.5 * s) ** 2 + (cols - 0.5 * s) ** 2
        ring = (rr <= (0.30 * s) ** 2) & (rr >= (0.16 * s) ** 2)
        gap = np.abs(np.arctan2(rows - 0.5 * s, cols - 0.5 * s)) < 0.5
        m = ring & ~gap
    elif kind == "two-rects":
        m = (rows >= 0.20 * s) & (rows <= 0.42 * s) & (cols >= 0.18 * s) & (cols <= 0.44 * s)
        m |= (rows >= 0.58 * s) & (rows <= 0.82 * s) & (cols >= 0.52 * s) & (cols <= 0.86 * s)
    else:  # pragma: no cover - guarded by PhantomSpec
        raise InvalidInputError(f"unknown phantom kind {kind!r}")
    return m.astype(np.float64)


def make_phantom(spec: PhantomSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (image, ground-truth mask) pair for a spec.

    image = fg * mask + bg * (1 - mask) + N(0, sigma^2) noise from the
    counter-based stream derived from (seed, phantom tag); rerunning with
    the same spec is bit-identical.
    """
    mask = _phantom_mask(spec.kind, spec.size)
    image = spec.fg * mask + spec.bg * (1.0 - mask)
    if spec.noise_sigma > 0:
        key = rng.derive_key(spec.seed, _PHANTOM_NOISE_TAG)
        image = image + spec.noise_sigma * rng.normals(key, mask.shape)
    return image, mask


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
# LSF1 is the package's bit-exact interchange format: magic "LSF1", then
# width and height as little-endian uint32, then row-major little-endian
# IEEE float32 samples.  PGM (P5, 8-bit) is supported for import/export of
# viewable images; the export header documents the linear rescale used.

_MAX_PIXELS = 1 << 31


def save_field(f: np.ndarray, path) -> None:
    """Write a field; dispatches on extension (.pgm -> PGM, else LSF1)."""
    f = as_field(f)
    if str(path).lower().endswith(".pgm"):
        _save_pgm(f, path)
    else:
        _save_lsf1(f, path)


def load_field(path) -> np.ndarray:
    """Read a field; dispatches on extension (.pgm -> PGM, else LSF1)."""
    if str(path).lower().endswith(".pgm"):
        return _load_pgm(path)
    return _load_lsf1(path)


def _save_lsf1(f: np.ndarray, path) -> None:
    h, w = f.shape
    with np.errstate(over="ignore"):
        samples = f.astype("<f4")
    if not np.isfinite(samples).all():
        raise InvalidInputError(
            f"field values {float(f.min())!r}..{float(f.max())!r} exceed the float32 range of LSF1"
        )
    payload = samples.tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(LSF1_MAGIC)
        fh.write(struct.pack("<II", w, h))
        fh.write(payload)


def _load_lsf1(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != LSF1_MAGIC:
        raise FieldFormatError(f"bad magic {blob[:4]!r}, expected {LSF1_MAGIC!r}", offset=0)
    if len(blob) < 12:
        raise FieldFormatError("truncated header: missing width/height", offset=4)
    w, h = struct.unpack("<II", blob[4:12])
    if w == 0 or h == 0 or w * h > _MAX_PIXELS:
        raise FieldFormatError(f"dimension overflow: {w}x{h}", offset=4)
    expected = w * h
    actual = (len(blob) - 12) // 4
    if len(blob) - 12 != expected * 4:
        raise FieldFormatError(
            f"truncated payload: header promises {expected} float32 values, "
            f"file holds {actual}",
            offset=12,
        )
    data = np.frombuffer(blob, dtype="<f4", offset=12, count=expected)
    arr = data.astype(np.float64).reshape(h, w)
    if not np.all(np.isfinite(arr)):
        raise FieldFormatError("payload contains non-finite values", offset=12)
    return arr


def _save_pgm(f: np.ndarray, path) -> None:
    lo = float(f.min())
    hi = float(f.max())
    if hi - lo == math.inf:
        raise InvalidInputError(f"field values {lo!r}..{hi!r} span too wide a range to rescale")
    if hi > lo:
        gray = np.rint((f - lo) / (hi - lo) * 255.0).astype(np.uint8)
        comment = f"# linear rescale: gray = round(255*(v - lo)/(hi - lo)), lo={lo!r}, hi={hi!r}"
    else:
        gray = np.zeros_like(f, dtype=np.uint8)
        comment = f"# constant field, value={lo!r}"
    h, w = f.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{comment}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes(order="C"))


def _load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise FieldFormatError(f"bad magic {blob[:2]!r}, expected b'P5'", offset=0)
    # Header: magic, width, height, maxval as ASCII tokens; '#' starts a
    # comment running to end of line.
    pos = 2
    tokens = []
    while len(tokens) < 3:
        m = re.compile(rb"\s*(#[^\n]*\n|\S+)").match(blob, pos)
        if m is None:
            raise FieldFormatError("truncated PGM header", offset=pos)
        pos = m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FieldFormatError(f"non-numeric PGM header fields {tokens}", offset=2) from None
    if maxval <= 0 or maxval > 255:
        raise FieldFormatError(f"unsupported PGM maxval {maxval} (8-bit only)", offset=2)
    if w <= 0 or h <= 0 or w * h > _MAX_PIXELS:
        raise FieldFormatError(f"dimension overflow: {w}x{h}", offset=2)
    # The maxval token is a maximal run of non-whitespace, so the byte after
    # it is the one whitespace byte before the raster, or the end of file,
    # which the size check rejects.
    pos += 1
    expected = w * h
    actual = len(blob) - pos
    if actual != expected:
        raise FieldFormatError(
            f"payload size mismatch: header promises {expected} bytes, file holds {actual}",
            offset=pos,
        )
    gray = np.frombuffer(blob, dtype=np.uint8, offset=pos, count=expected)
    return gray.astype(np.float64).reshape(h, w) / float(maxval)
