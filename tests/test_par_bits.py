"""The streamed PAR kernels give the same bits as their stacked reference.

``par.affinity_kernel`` and ``par.refine`` work one (H, W) neighbor view
at a time.  The functions below are the bodies they replaced, which built
(H, W, 8) stacks and reduced them with numpy, kept verbatim as the
reference: the weights (as C-order (H, W, 8) bytes) and every refined mask
must match byte for byte, and neither function may write to its inputs.
Where the reference's weights are not finite, ``affinity_kernel`` must
raise ``InvalidInputError`` naming the image instead.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelflow import par
from levelflow.errors import InvalidInputError
from levelflow.field import as_field
from levelflow.par import NEIGHBOR_OFFSETS, SIGMA_FLOOR, AffinityKernel, ParParams

# ---------------------------------------------------------------------------
# Reference bodies
# ---------------------------------------------------------------------------


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
    ParParams(tau)
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


# ---------------------------------------------------------------------------
# Drawn inputs
# ---------------------------------------------------------------------------

# Signed zeros, subnormals and the largest values whose squared neighbor
# differences stay finite once divided by a sigma above SIGMA_FLOOR.
PALETTE = (0.0, -0.0, 1.0, 0.5, -3.0, 5e-324, -5e-324, 2.2e-310, 1e150, -1e150)

SHAPES = {
    "1 x n": st.tuples(st.just(1), st.integers(2, 12)),
    "n x 1": st.tuples(st.integers(2, 12), st.just(1)),
    "2 x 2": st.just((2, 2)),
    "n x 8": st.tuples(st.integers(1, 16), st.just(8)),
    "128 x 128": st.just((128, 128)),
}


def _read_only(a):
    a.setflags(write=False)
    return a


LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "C-read-only": lambda a: _read_only(np.ascontiguousarray(a)),
    "F-read-only": lambda a: _read_only(np.asfortranarray(a)),
}


@st.composite
def _fields(draw, shape):
    """Noise at one scale, a patchwork of palette values (ties and flat
    neighborhoods), a patchwork with noise spliced into a tenth of it, or
    one palette value with a few specks of another (isolated pixels)."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "patches", "patches+noise", "specks"]))
    noise = gen.standard_normal(shape) * draw(st.sampled_from([1e-310, 1e-3, 1.0, 1e140]))
    values = np.array(draw(st.lists(st.sampled_from(PALETTE), min_size=2, max_size=3)))
    if kind == "noise":
        a = noise
    elif kind == "specks":
        a = np.full(shape, values[0])
        a.flat[gen.integers(0, a.size, size=3)] = values[1]
    else:
        a = gen.choice(values, size=shape)
        if kind == "patches+noise":
            a = np.where(gen.random(shape) < 0.1, noise, a)
    return LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](a)


def _reference_kernel(image):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return affinity_kernel(image)


@pytest.mark.parametrize("shapes", sorted(SHAPES))
@settings(max_examples=40)
@given(data=st.data())
def test_streamed_par_matches_reference_bits(shapes, data):
    shape = data.draw(SHAPES[shapes], label="shape")
    image, mask = data.draw(_fields(shape)), data.draw(_fields(shape))
    kept = image.copy(), mask.copy()
    expected = _reference_kernel(image)
    if not np.isfinite(expected.weights).all():
        with pytest.raises(InvalidInputError, match="image"):
            par.affinity_kernel(image)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = par.affinity_kernel(image)
        assert kernel.weights.shape == expected.weights.shape
        assert np.ascontiguousarray(kernel.weights).tobytes() == expected.weights.tobytes()
        for tau in sorted({0, 1, data.draw(st.integers(2, 10), label="tau")}):
            want = refine(mask, expected, tau).tobytes()
            assert par.refine(mask, kernel, tau).tobytes() == want
            # a kernel built elsewhere, in C order, refines to the same bits
            assert par.refine(mask, expected, tau).tobytes() == want
    assert image.tobytes() == kept[0].tobytes() and mask.tobytes() == kept[1].tobytes()
