import numpy as np
import pytest
from hypothesis import settings

import levelflow as lf
from levelflow import rng

# Property tests draw the same examples on every run and every checkout,
# and the solver-heavy ones may take longer than hypothesis's deadline.
settings.register_profile("levelflow", derandomize=True, deadline=None)
settings.load_profile("levelflow")


def uniform_field(key_tags, shape, lo=0.0, hi=1.0):
    key = rng.derive_key(*key_tags)
    n = int(np.prod(shape))
    return lo + (hi - lo) * rng.uniforms(key, n).reshape(shape)


def normal_field(key_tags, shape, scale=1.0):
    key = rng.derive_key(*key_tags)
    return scale * rng.normals(key, shape)


def central_fd_grad(energy_fn, y, h=1e-4):
    """Central finite differences of a scalar-valued energy over every pixel."""
    g = np.zeros_like(y)
    for idx in np.ndindex(y.shape):
        yp = y.copy()
        yp[idx] += h
        ym = y.copy()
        ym[idx] -= h
        g[idx] = (energy_fn(yp) - energy_fn(ym)) / (2.0 * h)
    return g


def rel_inf_err(analytic, reference):
    """Max abs difference normalized by the reference's max magnitude."""
    return float(np.abs(analytic - reference).max() / np.abs(reference).max())


@pytest.fixture(scope="session")
def two_disks_64():
    spec = lf.PhantomSpec(kind="two-disks", size=64, seed=7)
    return lf.make_phantom(spec)


@pytest.fixture(scope="session")
def two_texture_128():
    """Noiseless two-disks geometry carrying smooth per-region textures with
    clearly different variances (the texture wavelength is much larger than
    any probe disk, keeping point sensitivities meaningful)."""
    size = 128
    spec = lf.PhantomSpec(kind="two-disks", size=size, seed=7)
    _, gt = lf.make_phantom(spec)
    rows, cols = np.mgrid[0:size, 0:size].astype(float)
    t1 = np.sin(2 * np.pi * 3 * rows / size) * np.cos(2 * np.pi * 2 * cols / size)
    t2 = np.cos(2 * np.pi * 2 * rows / size) * np.sin(2 * np.pi * 3 * cols / size)
    image = gt * (1.0 + 0.4 * t1) + (1 - gt) * 0.2 * t2
    return image, gt
