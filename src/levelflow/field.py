"""2-D scalar fields: stencils, file I/O and phantoms.

A field is a plain ``numpy`` array of shape ``(height, width)``, float64,
C-ordered, indexed ``[row, col]``; x runs along columns, y along rows.
The same representation serves images, level set functions, masks,
topological-derivative fields and distance maps.  All operations here are
pure functions.

Fields are validated once, at the package boundary.  An entry point (the
CLI, ``load_field``, a parameter or provider constructor, a public
function such as ``evolve`` or ``sample``) passes each field it receives
through :func:`as_field`, which rejects wrong rank, empty, non-real and
non-finite arrays with :class:`InvalidInputError`.  Kernels (``gradient``, ``heaviside``,
the energy terms, ``reverse_step``, ...) trust their arrays and keep only
the O(1) shape checks where two arrays meet.

Kernels allocate their outputs and never write into an argument: an
in-place operation (``out=``, ``*=``) is only ever applied to an array the
kernel made itself.  Each keeps the operation order of the plain
expression it stands for, so it returns the same bits.  A sum runs in the
memory order of the array it reduces, and the product of a C-ordered and a
Fortran-ordered array is C-ordered; a kernel whose array arguments share
one memory order therefore reduces in the order the plain expressions did.

Stencils use central differences in the interior and degrade to one-sided
differences at the borders through replicate (Neumann) padding, i.e. the
border derivative is ``(f[1] - f[0]) / 2``.
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import FINITE, NON_NEGATIVE, FieldFormatError, InvalidInputError, Params, Rule
from .errors import one_of, param

LSF1_MAGIC = b"LSF1"

PHANTOM_KINDS = ("two-disks", "ring-with-hole", "c-shape", "two-rects")

# Stream tag separating phantom noise from other consumers of the same seed.
_PHANTOM_NOISE_TAG = 0x50484E54  # "PHNT"


def as_field(a, name: str = "field") -> np.ndarray:
    """Validate and coerce an array-like into a float64 (H, W) field."""
    arr = np.asarray(a)
    if arr.dtype != np.float64:
        if arr.dtype.kind not in "biuf":  # bool, int, unsigned or float
            raise InvalidInputError(f"{name} must hold real numbers, got dtype {arr.dtype}")
        arr = arr.astype(np.float64)
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


def binarize(f: np.ndarray) -> np.ndarray:
    """Boolean mask ``f >= 0.5`` (ties count as foreground)."""
    return np.asarray(f) >= 0.5


def _check_grid(f: np.ndarray) -> None:
    if f.ndim != 2 or f.shape[0] < 2 or f.shape[1] < 2:
        raise InvalidInputError(f"gradient needs at least a 2x2 grid, got {f.shape}")


def gradient(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centred first derivatives (d/dx, d/dy) with replicate boundaries.

    The derivatives are float64 and in the memory order of ``f`` (Fortran
    order stays Fortran order, anything else is C order), which fixes the
    summation order of any reduction over them.
    """
    f = np.asarray(f, dtype=np.float64)
    _check_grid(f)
    if np.isfortran(f):
        gy, gx = gradient(f.T)
        return gx.T, gy.T
    f = np.ascontiguousarray(f)
    gx = np.empty(f.shape)
    # One pass over the flattened grid; the entries it takes across a row
    # end are the border columns, which the next two lines overwrite.
    np.subtract(f.reshape(-1)[2:], f.reshape(-1)[:-2], out=gx.reshape(-1)[1:-1])
    np.subtract(f[:, 1], f[:, 0], out=gx[:, 0])
    np.subtract(f[:, -1], f[:, -2], out=gx[:, -1])
    gx *= 0.5
    gy = np.empty(f.shape)
    np.subtract(f[2:], f[:-2], out=gy[1:-1])
    np.subtract(f[1], f[0], out=gy[0])
    np.subtract(f[-1], f[-2], out=gy[-1])
    gy *= 0.5
    return gx, gy


def gradient_adjoint(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`gradient`: <grad f, (vx,vy)> == <f, adjoint(vx,vy)>.

    Needed for discrete energy gradients that must match finite differences
    of the summed energy to rounding error; the continuous analogue is the
    negative divergence.  The result is a C-ordered float64 field.
    """
    vx = np.ascontiguousarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    check_same_shape(vx, vy)
    _check_grid(vx)
    # x-direction: column j receives +v[j-1]/2 and -v[j+1]/2, with the
    # replicate-boundary rows folded into the first/last columns.  As in
    # gradient, the border columns overwrite the flat pass's row-end entries.
    out = np.empty(vx.shape)
    np.subtract(vx.reshape(-1)[:-2], vx.reshape(-1)[2:], out=out.reshape(-1)[1:-1])
    np.add(vx[:, 0], vx[:, 1], out=out[:, 0])
    np.add(vx[:, -1], vx[:, -2], out=out[:, -1])
    out *= 0.5
    # -(0.5 * s) is -0.5 * s bit for bit; not np.negative(..., out=...), which
    # numpy 2.4.6 gets wrong in place on a column of an 8-wide grid
    out[:, 0] *= -1.0
    out += 0.0  # the sum starts from +0.0, so an x part of -0.0 becomes +0.0
    vy_part = np.empty(vx.shape)
    np.subtract(vy[:-2], vy[2:], out=vy_part[1:-1])
    np.add(vy[0], vy[1], out=vy_part[0])
    np.add(vy[-1], vy[-2], out=vy_part[-1])
    vy_part *= 0.5
    vy_part[0] *= -1.0
    out += vy_part
    return out


@dataclass(frozen=True)
class PhantomSpec(Params):
    """Recipe for a synthetic test image with a known binary ground truth."""

    kind: str = param(rule=one_of(PHANTOM_KINDS))
    # bounded, so numpy never sees a huge size
    size: int = param(rule=Rule(lambda v: 32 <= v <= 2**14, "from 32 to 16384"))
    fg: float = param(1.0, FINITE)
    bg: float = param(0.0, FINITE)
    noise_sigma: float = param(0.0, NON_NEGATIVE)
    seed: int = param(0, rng.SEED)

    def __post_init__(self):
        super().__post_init__()
        if self.fg == self.bg:
            raise InvalidInputError("foreground and background intensities must differ")


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


def save_field(f: np.ndarray, path) -> bytes:
    """Write a field and return its bytes; dispatches on extension (.pgm -> PGM,
    else LSF1).  The bytes are made and checked before the file or any directory is."""
    f = as_field(f)
    pgm = str(path).lower().endswith(".pgm")
    return write_file(path, _encode_pgm(f) if pgm else _encode_lsf1(f))


def write_file(path, data: bytes) -> bytes:
    """Write ``data`` to ``path`` and return it, making any missing parent directory first."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def load_field(path) -> np.ndarray:
    """Read a field by extension (.pgm -> PGM, else LSF1); an unreadable path raises OSError."""
    if str(path).lower().endswith(".pgm"):
        return _load_pgm(path)
    return _load_lsf1(path)


def _encode_lsf1(f: np.ndarray) -> bytes:
    h, w = f.shape
    with np.errstate(over="ignore"):
        samples = f.astype("<f4")
    if not np.isfinite(samples).all():
        raise InvalidInputError(
            f"field values {float(f.min())!r}..{float(f.max())!r} exceed the float32 range of LSF1"
        )
    return LSF1_MAGIC + struct.pack("<II", w, h) + samples.tobytes(order="C")


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


def _encode_pgm(f: np.ndarray) -> bytes:
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
    return f"P5\n{comment}\n{w} {h}\n255\n".encode("ascii") + gray.tobytes(order="C")


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
