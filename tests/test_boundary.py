"""Where fields are validated: entry points reject bad fields, kernels
trust theirs.

The rule is stated in the ``levelflow.field`` module docstring.  The
entry-point table checks that every public entry point still turns a
non-finite, wrong-rank or mismatched field into ``InvalidInputError``; the
guard checks that the inner kernels make no ``as_field`` call of their own.
The last tests hold library calls to the same rule for seeds, int
parameters, parameter objects and array arguments.
"""

import inspect
import os
import sys
import typing
from dataclasses import is_dataclass, replace

import numpy as np
import pytest

import levelflow as lf
from levelflow import diffusion, field, levelset, rng
from levelflow.config import ExperimentConfig
from levelflow.errors import InvalidInputError

from conftest import params_classes

SHAPE = (16, 16)
MASK = np.zeros(SHAPE)
MASK[4:12, 4:12] = 1.0
IMAGE = MASK + 0.05 * np.cos(np.arange(SHAPE[1]))
P = lf.HeavisideParams()
W = lf.EnergyWeights()
PRIOR = lf.AreaPrior(64.0, 192.0)
SCHED = lf.make_schedule(5, 0.01, 0.3)
PROBE = lf.NucleationProbe(8, 8, 2, "remove-from-inside")

# Each entry point as a call taking its field arguments by name.  MASK is a
# well-formed value for every one of them; the tests swap one for a bad field.
ENTRY_POINTS = {
    "evolve": lambda image, phi0, dist: lf.evolve(image, phi0 - 0.5, P, W, PRIOR, dist),
    "energy_total": lambda image, phi, dist: lf.energy_total(image, phi - 0.5, P, W, PRIOR, dist),
    "region_stats": lambda image, phi: lf.region_stats(image, phi - 0.5, P),
    "grad_energy_wrt_mask": lambda image, y, dist: lf.grad_energy_wrt_mask(
        image, y, P, W, PRIOR, dist
    ),
    "sample": lambda image, mode_mask: lf.sample(
        image, lf.MixtureMaskProvider((mode_mask,), (1.0,)), SCHED, lf.GuidancePolicy(), seed=0
    ),
    "chain_rule_grad": lambda yt, eps, image: lf.chain_rule_grad(
        yt, eps, 3, SCHED, image, lf.GuidanceConfig(area=PRIOR), dist=Z
    ),
    "forward_sample": lambda y0, noise: lf.forward_sample(y0, 3, SCHED, noise),
    "dpm_loss": lambda eps_true, eps_hat: lf.dpm_loss(eps_true, eps_hat),
    "FrozenFieldProvider": lambda eps, yt: lf.FrozenFieldProvider(eps).eps_hat(yt, 3, SCHED),
    "MixtureMaskProvider": lambda m1, m2: lf.MixtureMaskProvider((m1, m2), (0.5, 0.5)),
    "speed_field": lambda image, d_e: lf.speed_field(image, lf.SpeedParams(), d_e),
    "solve_eikonal": lambda speed, seed: lf.solve_eikonal(speed + 1.0, seed),
    "distance_for_mask": lambda image, mask: lf.distance_for_mask(image, mask),
    "td_field": lambda image, mask: lf.td_field(image, mask, "cv"),
    "nucleation_delta": lambda image, mask: lf.nucleation_delta(image, mask, PROBE, "cv"),
    "verify_td": lambda image, mask: lf.verify_td(image, mask, "cv", 5, 2, 0),
    "refine": lambda mask, image: lf.refine(mask, lf.affinity_kernel(image), 2),
    "par_loss": lambda mask, refined: lf.par_loss(mask, refined),
    "confusion": lambda pred, gt: lf.confusion(pred, gt),
    "affinity_kernel": lambda image: lf.affinity_kernel(image),
    "save_field": lambda f: lf.save_field(f, os.devnull),
}
FIELDS = {name: list(inspect.signature(call).parameters) for name, call in ENTRY_POINTS.items()}

# Fields an entry point takes on trust, with only their shape checked: a
# provider's eps_hat is a kernel that sample calls with its own y.  (The
# dist of grad_energy_wrt_mask gets one min and one max, not an as_field.)
SHAPE_ONLY = {("FrozenFieldProvider", "yt")}


def _with_nan(f):
    out = f.copy()
    out[3, 5] = np.nan
    return out


# A 1-D field next to 2-D partners may be caught by either check.
BAD = {
    "nan": (_with_nan, "non-finite"),
    "1-d": (np.ravel, "2-D|shape"),
    "shape": (lambda f: f[:, :12], "shape"),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_accepts_valid_fields(name):
    ENTRY_POINTS[name](*(MASK.copy() for _ in FIELDS[name]))


def _cases():
    for name, args in sorted(FIELDS.items()):
        for arg in args:
            yield from ((name, arg, bad) for bad in ("nan", "1-d") if (name, arg) not in SHAPE_ONLY)
            if len(args) > 1:
                yield name, arg, "shape"


@pytest.mark.parametrize("name, arg, bad", list(_cases()))
def test_entry_point_rejects_bad_field(name, arg, bad):
    make, message = BAD[bad]
    fields = {a: make(MASK) if a == arg else MASK.copy() for a in FIELDS[name]}
    with pytest.raises(InvalidInputError, match=message):
        ENTRY_POINTS[name](**fields)


@pytest.mark.parametrize(
    "name, arg, culprit",
    [
        ("energy_total", "image", "image"),
        ("energy_total", "phi", "phi"),
        ("energy_total", "dist", "dist"),
        ("grad_energy_wrt_mask", "image", "image"),
        ("grad_energy_wrt_mask", "y", "mask"),
        ("grad_energy_wrt_mask", "dist", "distance"),
    ],
)
def test_non_finite_field_is_named(name, arg, culprit):
    # Statistics and H are computed from fields these entry points checked
    # once; a NaN still stops the call with the field's own name.
    fields = {a: _with_nan(MASK) if a == arg else MASK.copy() for a in FIELDS[name]}
    with pytest.raises(InvalidInputError, match=f"^{culprit}"):
        ENTRY_POINTS[name](**fields)


@pytest.fixture
def as_field_calls(monkeypatch):
    """Count ``as_field`` calls through every ``levelflow`` module binding it."""
    calls = []
    original = field.as_field

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("levelflow") and getattr(module, "as_field", None) is original:
            monkeypatch.setattr(module, "as_field", counting)
    return calls


PHI = MASK - 0.5
STATS = lf.region_stats(IMAGE, PHI, P)
PROVIDER = lf.MixtureMaskProvider((MASK, 1.0 - MASK), (0.5, 0.5))
Z = np.zeros(SHAPE)
KERNELS = {
    "heaviside": lambda: lf.heaviside(MASK, P),
    "dirac": lambda: lf.dirac(MASK, P),
    "mask_to_levelset": lambda: lf.mask_to_levelset(MASK),
    "nll_fields": lambda: levelset.nll_fields(IMAGE, STATS),
    "region_stats_from_weights": lambda: levelset.region_stats_from_weights(IMAGE, MASK),
    "energy_region": lambda: lf.energy_region(IMAGE, PHI, P, STATS),
    "energy_length": lambda: lf.energy_length(PHI, P),
    "energy_area": lambda: lf.energy_area(PHI, P, PRIOR),
    "energy_distance": lambda: lf.energy_distance(PHI, P, Z),
    "_energy_row": lambda: levelset._energy_row(IMAGE, PHI, P, W, PRIOR, Z),
    "_grad_energy_wrt_phi": lambda: levelset._grad_energy_wrt_phi(
        IMAGE, PHI, lf.heaviside(PHI, P), P, W, PRIOR, Z, STATS
    ),
    "gradient": lambda: lf.gradient(IMAGE),
    "gradient_adjoint": lambda: lf.gradient_adjoint(IMAGE, MASK),
    "predict_y0": lambda: lf.predict_y0(MASK, Z, 3, SCHED),
    "reverse_step": lambda: lf.reverse_step(MASK, Z, 3, SCHED, Z),
    "guided_eps": lambda: lf.guided_eps(Z, MASK, 3, SCHED, lf.GuidancePolicy()),
    "guided_score": lambda: lf.guided_score(Z, MASK, 0.3),
    "MixtureMaskProvider.eps_hat": lambda: PROVIDER.eps_hat(MASK, 3, SCHED),
    "MixtureMaskProvider.responsibilities": lambda: PROVIDER.responsibilities(MASK, 3, SCHED),
    "MixtureMaskProvider.log_marginal": lambda: PROVIDER.log_marginal(MASK, 3, SCHED),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_trusts_its_arrays(as_field_calls, name):
    KERNELS[name]()
    assert as_field_calls == []


@pytest.fixture
def read_only_arguments():
    """Every array the KERNELS calls take, made read-only for one test."""
    arrays = [IMAGE, MASK, PHI, Z, *PROVIDER.masks]  # a schedule's arrays are read-only already
    for a in arrays:
        a.flags.writeable = False
    yield
    for a in arrays:
        a.flags.writeable = True


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_writes_into_no_argument(read_only_arguments, name):
    # an in-place operation on a caller's array raises "read-only" here
    KERNELS[name]()


def test_evolve_step_validates_a_fixed_number_of_fields(as_field_calls):
    counts = []
    for steps in (1, 3):
        as_field_calls.clear()
        lf.evolve(IMAGE, MASK - 0.5, P, W, PRIOR, Z, steps=steps)
        counts.append(len(as_field_calls))
    # evolve checks its 3 fields once; each step re-enters the region_stats
    # and energy_total entry points (2 + 3 fields), and energy_total computes
    # its statistics without re-entering region_stats
    assert counts[0] <= 8
    assert (counts[1] - counts[0]) / 2 <= 5


def test_chain_rule_grad_validates_image_once(as_field_calls):
    # grad_energy_wrt_mask checks image and the clipped mask; chain_rule_grad
    # leaves image to it instead of checking it a second time
    lf.chain_rule_grad(MASK, Z, 3, SCHED, IMAGE, lf.GuidanceConfig(area=PRIOR), dist=Z)
    assert len(as_field_calls) == 2


def _sample(**kwargs):
    provider = lf.MixtureMaskProvider((MASK,), (1.0,))
    return lf.sample(IMAGE, provider, SCHED, lf.GuidancePolicy(), **{"seed": 0, **kwargs})


@pytest.mark.parametrize("seed", [-1, rng.SEED_BOUND, 3 * rng.SEED_BOUND - 1])
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: rng.derive_key(seed, 1),
        lambda seed: _sample(seed=seed),
        lambda seed: lf.verify_td(IMAGE, MASK, "cv", 5, 2, seed),
    ],
    ids=["derive_key", "sample", "verify_td"],
)
def test_seed_outside_the_bound_is_rejected(call, seed):
    # folding it modulo 2**64 would give two seeds one stream
    with pytest.raises(InvalidInputError, match=r"seed must be in \[0, 2\*\*64\)"):
        call(seed)


_KERNEL = lf.affinity_kernel(IMAGE)
INT_PARAMETERS = {
    "refine-tau": ("tau", lambda v: lf.refine(MASK, _KERNEL, v)),
    "evolve-steps": ("steps", lambda v: lf.evolve(IMAGE, PHI, P, W, PRIOR, Z, steps=v)),
    "evolve-stats_refresh": (
        "stats_refresh", lambda v: lf.evolve(IMAGE, PHI, P, W, PRIOR, Z, stats_refresh=v),
    ),
    "make_schedule": ("steps", lambda v: lf.make_schedule(v)),
    "sample-ensemble": ("ensemble", lambda v: _sample(ensemble=v)),
    "SamplerParams-distance_refresh": (
        "distance_refresh", lambda v: diffusion.SamplerParams(distance_refresh=v),
    ),
    "verify_td-samples": ("samples", lambda v: lf.verify_td(IMAGE, MASK, "cv", v, 2, 0)),
    "verify_td-radius": ("radius", lambda v: lf.verify_td(IMAGE, MASK, "cv", 5, v, 0)),
    "derive_key": ("seed", lambda v: rng.derive_key(v)),
}


def _stats(**changed):
    """Valid region statistics with some values changed."""
    return replace(lf.RegionStats(0.0, 1.0, 1.0, 1.0, 1.0, 1.0), **changed)


# Arguments that are neither fields nor parameter dataclasses, each given a
# value of the wrong kind, or a number numpy cannot take (an int past
# float64's range raised a bare OverflowError); the call names the argument.
BAD_ARGUMENTS = {
    "MixtureMaskProvider-weights": ("weights", lambda: lf.MixtureMaskProvider((MASK,), ("a",))),
    "MixtureMaskProvider-huge-weight": (
        "mixture weights", lambda: lf.MixtureMaskProvider((MASK,), (10**400,)),
    ),
    # a value with no length raised a bare TypeError from len
    "MixtureMaskProvider-number-weights": (
        "weights", lambda: lf.MixtureMaskProvider((MASK,), 1.0),
    ),
    "MixtureMaskProvider-0d-weights": (
        "weights", lambda: lf.MixtureMaskProvider((MASK,), np.array(1.0)),
    ),
    "MixtureMaskProvider-number-masks": ("masks", lambda: lf.MixtureMaskProvider(1.0, (1.0,))),
    "confusion-threshold": ("threshold", lambda: lf.confusion(MASK, MASK, "a")),
    "confusion-huge-threshold": ("threshold", lambda: lf.confusion(MASK, MASK, 10**400)),
    "confusion-inf-threshold": ("threshold", lambda: lf.confusion(MASK, MASK, float("inf"))),
    "sample-provider": ("provider", lambda: lf.sample(MASK, None, SCHED, lf.GuidancePolicy(), 0)),
    "sample-cfg": ("cfg", lambda: _sample(cfg=None)),
    "chain_rule_grad-cfg": (
        "cfg", lambda: lf.chain_rule_grad(MASK, Z, 3, SCHED, IMAGE, None, dist=Z),
    ),
    # a None or str schedule or policy raised a bare AttributeError
    "sample-sched": ("sched", lambda: lf.sample(MASK, PROVIDER, None, lf.GuidancePolicy(), 0)),
    "sample-gp": ("gp", lambda: lf.sample(MASK, PROVIDER, SCHED, None, 0)),
    "sample-str-gp": ("gp", lambda: lf.sample(MASK, PROVIDER, SCHED, "x", 0)),
    "guidance_scale-gp": ("gp", lambda: lf.guidance_scale(None, 1, SCHED)),
    "forward_sample-sched": ("sched", lambda: lf.forward_sample(MASK, 1, None, MASK)),
    "predict_y0-sched": ("sched", lambda: lf.predict_y0(MASK, MASK, 1, None)),
    "chain_rule_grad-sched": (
        "sched", lambda: lf.chain_rule_grad(MASK, Z, 1, None, IMAGE, lf.GuidanceConfig(), Z),
    ),
    "MixtureMaskProvider.eps_hat-sched": ("sched", lambda: PROVIDER.eps_hat(MASK, 1, None)),
    "GuidanceConfig-heaviside": ("heaviside", lambda: lf.GuidanceConfig(heaviside=1.5)),
    "GuidanceConfig-weights": ("weights", lambda: lf.GuidanceConfig(weights=None)),
    "GuidanceConfig-area": ("area", lambda: lf.GuidanceConfig(area=64.0)),
    "GuidanceConfig-speed": ("speed", lambda: lf.GuidanceConfig(speed=P)),
    # a None or str speed parameter raised a bare AttributeError
    "speed_field-sp": ("sp", lambda: lf.speed_field(IMAGE, None)),
    "speed_field-str-sp": ("sp", lambda: lf.speed_field(IMAGE, "x")),
    "distance_for_mask-sp": ("sp", lambda: lf.distance_for_mask(IMAGE, MASK, None)),
    # a None or str parameter object raised a bare AttributeError
    "make_phantom-spec": ("spec", lambda: lf.make_phantom("two-disks")),
    "refine-kernel": ("kernel", lambda: lf.refine(MASK, None, 1)),
    "energy_total-p": ("p", lambda: lf.energy_total(IMAGE, PHI, None, W, PRIOR, Z)),
    "evolve-prior": ("prior", lambda: lf.evolve(IMAGE, PHI, P, W, None, Z)),
    "nucleation_delta-probe": ("probe", lambda: lf.nucleation_delta(IMAGE, MASK, None, "cv")),
    "scores-c": ("c", lambda: lf.scores(None)),
    "grad_energy_wrt_mask-w": (
        "w", lambda: lf.grad_energy_wrt_mask(IMAGE, MASK, P, None, PRIOR, Z),
    ),
    "region_stats-p": ("p", lambda: lf.region_stats(IMAGE, PHI, None)),
    "energy_total-w": ("w", lambda: lf.energy_total(IMAGE, PHI, P, None, PRIOR, Z)),
    "energy_total-prior": ("prior", lambda: lf.energy_total(IMAGE, PHI, P, W, None, Z)),
    "energy_total-stats": ("stats", lambda: lf.energy_total(IMAGE, PHI, P, W, PRIOR, Z, "x")),
    "grad_energy_wrt_mask-p": (
        "p", lambda: lf.grad_energy_wrt_mask(IMAGE, MASK, None, W, PRIOR, Z),
    ),
    "grad_energy_wrt_mask-prior": (
        "prior", lambda: lf.grad_energy_wrt_mask(IMAGE, MASK, P, W, None, Z),
    ),
    "grad_energy_wrt_mask-stats": (
        "stats", lambda: lf.grad_energy_wrt_mask(IMAGE, MASK, P, W, PRIOR, Z, "x"),
    ),
    "evolve-w": ("w", lambda: lf.evolve(IMAGE, PHI, P, None, PRIOR, Z)),
    # a caller's statistics gave a silent NaN energy or gradient
    "energy_total-nan-stats": (
        "var_in", lambda: lf.energy_total(IMAGE, PHI, P, W, PRIOR, Z, _stats(var_in=np.nan)),
    ),
    "grad_energy_wrt_mask-negative-stats": (
        "var_in",
        lambda: lf.grad_energy_wrt_mask(IMAGE, MASK, P, W, PRIOR, Z, _stats(var_in=-1.0)),
    ),
    # a str raised a bare TypeError from the arithmetic
    "nucleation_delta-before_energy": (
        "before_energy", lambda: lf.nucleation_delta(IMAGE, MASK, PROBE, "cv", before_energy="x"),
    ),
    "guided_score-gamma_st": ("gamma_st", lambda: lf.guided_score(Z, MASK, "x")),
    # a negative seed built, and its to_dict() wrote a document the loader rejects
    "ExperimentConfig-seed": ("seed", lambda: ExperimentConfig(seed=-1)),
    "ExperimentConfig-bool-seed": ("seed", lambda: ExperimentConfig(seed=True)),
    # a negative count gave a Dice of 1.25, and a str a bare TypeError
    "Confusion-negative": ("tp", lambda: lf.scores(lf.Confusion(-5, 1, 1, 1))),
    "Confusion-str": ("tp", lambda: lf.Confusion("a", 1, 1, 1)),
    "ExperimentConfig-weights": ("weights", lambda: ExperimentConfig(weights={"lambda1": 0.01})),
}


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENTS))
def test_bad_argument_is_named(name):
    key, call = BAD_ARGUMENTS[name]
    with pytest.raises(InvalidInputError, match=rf"^{key}\b"):
        call()


# A valid instance of each Params class that takes required arguments.
VALID_PARAMS = {
    lf.AreaPrior: PRIOR,
    lf.Confusion: lf.Confusion(1, 1, 1, 1),
    lf.DiffusionSchedule: SCHED,
    lf.NucleationProbe: PROBE,
    lf.PhantomSpec: lf.PhantomSpec("two-disks", 32),
}


def _class_typed_fields():
    """(class, field, kind) for each field whose resolved annotation is one
    class, or one class ``| None``."""
    for cls in params_classes():
        for name, hint in typing.get_type_hints(cls).items():
            kinds = [k for k in typing.get_args(hint) or (hint,) if k is not type(None)]
            if len(kinds) == 1 and isinstance(kinds[0], type):
                yield pytest.param(cls, name, kinds[0], id=f"{cls.__name__}-{name}")


@pytest.mark.parametrize("cls, name, kind", list(_class_typed_fields()))
def test_params_field_of_another_type_is_named(cls, name, kind):
    valid = VALID_PARAMS[cls] if cls in VALID_PARAMS else cls()
    with pytest.raises(InvalidInputError, match=rf"^{name} expects "):
        replace(valid, **{name: b"x" if kind is str else "x"})


CFG = lf.GuidanceConfig()
# Each entry point's valid arguments by name, for the generated cases below.
VALID_CALLS = {
    lf.evolve: dict(image=IMAGE, phi0=PHI, p=P, w=W, prior=PRIOR, dist=Z, steps=1),
    lf.energy_total: dict(image=IMAGE, phi=PHI, p=P, w=W, prior=PRIOR, dist=Z, stats=STATS),
    lf.region_stats: dict(image=IMAGE, phi=PHI, p=P),
    lf.grad_energy_wrt_mask: dict(image=IMAGE, y=MASK, p=P, w=W, prior=PRIOR, dist=Z, stats=STATS),
    lf.chain_rule_grad: dict(
        yt=MASK, eps_hat=Z, t=3, sched=SCHED, image=IMAGE, cfg=CFG, dist=Z
    ),
    lf.sample: dict(
        image=IMAGE, provider=PROVIDER, sched=SCHED, gp=lf.GuidancePolicy(), seed=0, cfg=CFG
    ),
}


def _parameter_object_cases():
    """(function, parameter) for each parameter annotated with a package
    dataclass, or one of them ``| None``."""
    for f in VALID_CALLS:
        hints = typing.get_type_hints(f)
        hints.pop("return")
        for name, hint in hints.items():
            kinds = typing.get_args(hint) or (hint,)
            if any(is_dataclass(k) and k.__module__.startswith("levelflow") for k in kinds):
                yield pytest.param(f, name, id=f"{f.__name__}-{name}")


@pytest.mark.parametrize("f, name", list(_parameter_object_cases()))
def test_parameter_object_of_another_type_is_named(f, name):
    f(**VALID_CALLS[f])  # the valid call runs
    with pytest.raises(InvalidInputError, match=rf"^{name}\b"):
        f(**{**VALID_CALLS[f], name: "x"})


# Array arguments that a call converts without an isfinite scan, each with
# its label and a valid value: a list is taken as its array, and a non-real
# array is rejected by the label.
DIST = np.linspace(0.0, 1.0, MASK.size).reshape(SHAPE)
EPS = 0.1 * IMAGE
CONVERTED = {
    "grad_energy_wrt_mask-dist": (
        "distance", DIST, lambda v: lf.grad_energy_wrt_mask(IMAGE, MASK, P, W, PRIOR, v),
    ),
    "chain_rule_grad-yt": (
        "yt", MASK, lambda v: lf.chain_rule_grad(v, EPS, 3, SCHED, IMAGE, CFG, DIST),
    ),
    "chain_rule_grad-eps_hat": (
        "eps_hat", EPS, lambda v: lf.chain_rule_grad(MASK, v, 3, SCHED, IMAGE, CFG, DIST),
    ),
    "chain_rule_grad-dist": (
        "distance", DIST, lambda v: lf.chain_rule_grad(MASK, EPS, 3, SCHED, IMAGE, CFG, v),
    ),
}


@pytest.mark.parametrize("name", sorted(CONVERTED))
def test_list_argument_is_converted(name):
    _, value, call = CONVERTED[name]
    assert np.array_equal(call(value.tolist()), call(value))


@pytest.mark.parametrize("name", sorted(CONVERTED))
def test_non_real_array_argument_is_named(name):
    label, _, call = CONVERTED[name]
    with pytest.raises(InvalidInputError, match=rf"^{label} must hold real numbers"):
        call(np.full(SHAPE, "a"))


def test_mixture_takes_an_array_of_masks():
    masks, weights = np.stack([MASK, 1.0 - MASK]), np.array([0.25, 0.75])
    y = np.full(SHAPE, 0.5)
    from_arrays = lf.MixtureMaskProvider(masks, weights).eps_hat(y, 3, SCHED)
    from_tuples = lf.MixtureMaskProvider(tuple(masks), (0.25, 0.75)).eps_hat(y, 3, SCHED)
    assert np.array_equal(from_arrays, from_tuples)


@pytest.mark.parametrize("name", sorted(INT_PARAMETERS))
def test_int_parameter_rejects_bool_and_non_integral_values(name):
    key, call = INT_PARAMETERS[name]
    for bad in (2.5, 2.0, True, np.float64(2.0), np.bool_(True), "2"):
        with pytest.raises(InvalidInputError, match=rf"^{key} expects int, got "):
            call(bad)
    call(np.int64(2))  # numpy ints are ints
