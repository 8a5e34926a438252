"""Command-line front end wiring the modules into reproducible experiments.

Every subcommand returns its artifacts, and only after it has returned does
``main`` write them under ``--out`` (``fields/`` for LSF1/PGM rasters,
``reports/`` for JSON, ``traces/`` for CSV) plus a ``manifest.json``
recording the tool version, RNG algorithm, resolved configuration, resolved
arguments, and a sha256 per artifact.  A run that exits non-zero writes
nothing under ``--out``, except when an ``OSError`` strikes partway through
the writes.  Runs are pure functions of (config, args, seed): rerunning a
subcommand with ``--config <manifest.json>`` reproduces every artifact bit
for bit.

Exit codes: 0 success, 1 invalid input or configuration, 2 numerical or
runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import __version__, diffusion, geodesic, levelset, metrics, par, rng, topo
from .config import ExperimentConfig, load_config_document
from .errors import DivergenceError, FieldFormatError, InvalidInputError, LevelflowError
from .field import PHANTOM_KINDS, PhantomSpec, binarize, load_field, make_phantom
from .field import save_field, write_file

_LOSS_NOISE_TAG = 0x4C4F5353  # "LOSS"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Stop glibc from handing freed heap back to the kernel after each step.

    By default glibc trims the top of the heap once about two 128 KiB arrays
    are free, so every step of a 128x128 run faults its temporaries in again.
    Setting the trim threshold alone would also freeze glibc's dynamic mmap
    threshold where it stands, possibly at its 128 KiB start, where every
    128x128 float64 array is mmapped and unmapped on each allocation; so the
    mmap threshold is set too.  Only where memory comes from and goes back to
    changes, never a value.  Where there is no ``mallopt`` (a C library other
    than glibc) nothing is done.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # the most glibc's dynamic threshold reaches


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the
    # package's validation error instead so misuse maps to exit code 1.
    def error(self, message):
        raise InvalidInputError(message)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _dashed(obj) -> dict:
    """A dataclass's fields as report keys, with dashes for underscores."""
    return {k.replace("_", "-"): v for k, v in asdict(obj).items()}


def _csv(columns, rows) -> str:
    lines = [",".join(columns), *(",".join(f"{v:.17g}" for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


def _trace_csv(steps, trace) -> str:
    return _csv(("step", *levelset.TRACE_COLUMNS), ([s, *row] for s, row in zip(steps, trace)))


def _publish(out: str, command: str, cfg: ExperimentConfig, args: dict, files: dict) -> None:
    """Write a finished run's artifacts under ``out`` in ``files``' order, every
    report encoded as JSON before the first write, then ``manifest.json`` with
    the sha256 of each file's written bytes.  A directory is made only to hold a file."""
    encoded = {}
    for rel, artifact in files.items():
        try:
            encoded[rel] = _dump_json(artifact) if isinstance(artifact, dict) else artifact
        except ValueError as exc:  # a NaN or inf that no validator caught
            raise LevelflowError(f"{rel} would hold a non-finite number: {exc}") from None

    def write(rel: str, content) -> str:
        path = os.path.join(out, rel)
        try:
            if isinstance(content, str):
                data = write_file(path, content.encode())
            else:
                data = save_field(content, path)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {path} under --out: {exc}") from None
        return hashlib.sha256(data).hexdigest()

    digests = {rel: write(rel, content) for rel, content in encoded.items()}
    cfg_doc = cfg.to_dict()
    manifest = {
        "schema_version": 1,
        "tool": "levelflow",
        "tool_version": __version__,
        "rng_algorithm": rng.ALGORITHM_ID,
        "command": command,
        "seed": args["seed"],
        "config": cfg_doc,
        "config_sha256": hashlib.sha256(_dump_json(cfg_doc).encode()).hexdigest(),
        "args": args,
        "artifacts": dict(sorted(digests.items())),
    }
    write("manifest.json", _dump_json(manifest))


_TERMS = tuple(c.removeprefix("e_") for c in levelset.TRACE_COLUMNS)


def _final(trace) -> dict:
    """The last trace row keyed by term; a degenerate (NaN) row becomes null."""
    return {k: None if math.isnan(v) else v for k, v in zip(_TERMS, trace[-1])}


def _area_prior(n_pixels: int, a1, fallback_a1) -> levelset.AreaPrior:
    return levelset.AreaPrior.from_a1(fallback_a1 if a1 is None else a1, n_pixels)


# ---------------------------------------------------------------------------
# Flags
# ---------------------------------------------------------------------------
# Each subcommand declares its flags once, as rows (name, kind, default,
# help).  The kind is str, int, float, _FIELD (the path of a field file,
# which main reads), a tuple of allowed values, a range of allowed ints, or
# [kind] for a repeatable flag.  The default is a literal, a _Cfg path into
# the run's ExperimentConfig, or _REQUIRED.  The parser, the defaults and
# the checks on values replayed from a manifest's args all come from these
# rows: a value is taken from the command line, else the manifest, else the
# default, and then passes the same checks whatever its source.


class _Cfg(NamedTuple):
    """A default read from the run's config at a dotted attribute path."""

    path: str


_REQUIRED = object()
_FIELD = object()
_SEED = ("seed", range(rng.SEED_BOUND), _Cfg("seed"), "run seed in [0, 2**64)")
_COMMANDS: dict = {}


def _command(name: str, help_text: str, *rows):
    def register(fn):
        _COMMANDS[name] = (fn, help_text, (*rows, _SEED))
        return fn

    return register


def _check(label: str, kind, value):
    """``value`` as the flag's kind: text from the command line or JSON
    replayed from a manifest, rejected with exit 1 when it does not fit."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise InvalidInputError(f"{label} expects a list, got {value!r}")
        return [_check(label, kind[0], v) for v in value]
    if isinstance(kind, tuple):
        if value not in kind:
            raise InvalidInputError(f"{label} must be one of {', '.join(kind)}, got {value!r}")
        return value
    if isinstance(kind, range):
        converted = _check(label, int, value)
        if converted not in kind:
            raise InvalidInputError(
                f"{label} must be an int from {kind.start} to {kind.stop - 1}, got {value!r}"
            )
        return converted
    kind = str if kind is _FIELD else kind  # args keep the path
    accepted = {str: str, int: (str, int), float: (str, int, float)}[kind]
    try:
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError
        converted = kind(value)
    except (ValueError, OverflowError):
        raise InvalidInputError(f"{label} expects {kind.__name__}, got {value!r}") from None
    if kind is float and not math.isfinite(converted):
        raise InvalidInputError(f"{label} must be finite, got {value!r}")
    return converted


def _resolve(rows, ns: argparse.Namespace, saved: dict, cfg: ExperimentConfig) -> dict:
    args = {}
    for name, kind, default, _ in rows:
        label = f"--{name}"
        value = getattr(ns, name.replace("-", "_"))
        if value is None:
            value = saved.get(name)
        if value is None and isinstance(default, _Cfg):
            value, label = attrgetter(default.path)(cfg), f"config {default.path}"
        elif value is None:
            value = default
        if value is _REQUIRED:
            raise InvalidInputError(f"missing required argument --{name}")
        args[name] = None if value is None else _check(label, kind, value)
    return args


def _read_fields(rows, args: dict) -> dict:
    """The field of every field flag that is set (a list for a repeatable
    one), each checked against the shape of the first field read."""
    fields, first = {}, None
    for name, kind, _, _ in rows:
        if kind not in (_FIELD, [_FIELD]) or args[name] is None:
            continue
        fields[name] = []
        for path in args[name] if kind == [_FIELD] else [args[name]]:
            try:
                f = load_field(path)
            except (OSError, FieldFormatError) as exc:
                raise InvalidInputError(f"cannot read {name} file {path}: {exc}") from None
            first = first or (name, f.shape)
            if f.shape != first[1]:
                raise InvalidInputError(
                    f"--{name} has shape {f.shape}, but --{first[0]} has shape {first[1]}"
                )
            fields[name].append(f)
        if kind is _FIELD:
            fields[name] = fields[name][0]
    return fields


def _help(text: str, default, cfg: ExperimentConfig) -> str:
    if default is _REQUIRED:
        return f"{text} (required)"
    if isinstance(default, _Cfg):
        value = attrgetter(default.path)(cfg)
        shown = "" if value is None else f" = {value}"
        return f"{text} (default: config {default.path}{shown})"
    return text if default is None else f"{text} (default: {default})"


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(prog="levelflow", description=__doc__)
    parser.add_argument("--version", action="version", version=f"levelflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = ExperimentConfig()
    for command, (_, help_text, rows) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file or a previous run's manifest.json")
        for name, kind, default, text in rows:
            p.add_argument(
                f"--{name}",
                action="append" if isinstance(kind, list) else "store",
                metavar="{" + ",".join(kind) + "}" if isinstance(kind, tuple) else None,
                help=_help(text, default, defaults),
            )
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


@_command(
    "phantom",
    "generate a synthetic image + ground-truth mask",
    ("kind", PHANTOM_KINDS, _REQUIRED, "phantom geometry"),
    ("size", int, 64, "grid side length in pixels"),
    ("fg", float, PhantomSpec.fg, "foreground intensity"),
    ("bg", float, PhantomSpec.bg, "background intensity"),
    ("noise-sigma", float, PhantomSpec.noise_sigma, "additive Gaussian noise level"),
)
def _cmd_phantom(a, cfg: ExperimentConfig) -> dict:
    spec = PhantomSpec(a.kind, a.size, a.fg, a.bg, a.noise_sigma, a.seed)
    image, gt = make_phantom(spec)
    return {
        "fields/image.lsf1": image,
        "fields/gt_mask.lsf1": gt,
        "fields/image.pgm": image,
        "reports/phantom.json": {**_dashed(spec), "mask-area": float(gt.sum())},
    }


@_command(
    "energy",
    "evaluate the four-term energy of (image, mask)",
    ("image", _FIELD, _REQUIRED, "image field"),
    ("mask", _FIELD, _REQUIRED, "soft mask field in [0, 1]"),
    ("dist", _FIELD, None, "precomputed distance field (else computed from the mask)"),
)
def _cmd_energy(a, cfg: ExperimentConfig) -> dict:
    files = {}
    if a.dist is None:
        a.dist = geodesic.distance_for_mask(a.image, a.mask, cfg.speed).values
        files["fields/distance.lsf1"] = a.dist
    phi = levelset.mask_to_levelset(a.mask)
    prior = _area_prior(a.image.size, cfg.area.a1_target, float(binarize(a.mask).sum()))
    stats = levelset.region_stats(a.image, phi, cfg.heaviside)
    report = levelset.energy_total(
        a.image, phi, cfg.heaviside, cfg.weights, prior, a.dist, stats=stats
    )
    doc = {**dict(zip(_TERMS, report.as_row())), "weights": asdict(cfg.weights)}
    return {**files, "reports/energy.json": {**doc, "stats": _dashed(stats)}}


def _parse_box(text: str, shape):
    """``--init-box`` as (r0, c0, r1, c1): a non-empty box inside ``shape``."""
    try:
        r0, c0, r1, c1 = (int(v) for v in text.split(","))
    except ValueError:
        raise InvalidInputError(f"--init-box expects 'r0,c0,r1,c1', got {text!r}") from None
    h, w = shape
    if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
        raise InvalidInputError(
            f"--init-box {text!r} must satisfy 0 <= r0 < r1 <= {h} and 0 <= c0 < c1 <= {w}"
        )
    return r0, c0, r1, c1


@_command(
    "evolve",
    "gradient-flow evolution of a level set function",
    ("image", _FIELD, _REQUIRED, "image field"),
    ("init", _FIELD, None, "initial level set field"),
    ("init-box", str, None, "box initialization 'r0,c0,r1,c1'"),
    ("gt", _FIELD, None, "ground truth for a Dice report"),
    ("dist", _FIELD, None, "precomputed distance field"),
    ("dt", float, _Cfg("evolve.dt"), "explicit Euler time step"),
    ("steps", int, _Cfg("evolve.steps"), "number of evolution steps"),
    ("stats-refresh", int, _Cfg("evolve.stats_refresh"), "recompute region stats every N steps"),
)
def _cmd_evolve(a, cfg: ExperimentConfig) -> dict:
    image, phi0, dist = a.image, a.init, a.dist
    if (phi0 is None) == (a.init_box is None):
        raise InvalidInputError("provide exactly one of --init or --init-box")
    if phi0 is None:
        r0, c0, r1, c1 = _parse_box(a.init_box, image.shape)
        phi0 = np.full(image.shape, -0.5)
        phi0[r0:r1, c0:c1] = 0.5
    if dist is None:
        dist = geodesic.distance_for_mask(image, (phi0 > 0).astype(float), cfg.speed).values
    prior = _area_prior(image.size, cfg.area.a1_target, float((phi0 > 0).sum()))
    try:
        phi, trace = levelset.evolve(
            image,
            phi0,
            cfg.heaviside,
            cfg.weights,
            prior,
            dist,
            dt=a.dt,
            steps=a.steps,
            stats_refresh=a.stats_refresh,
        )
    except DivergenceError as exc:
        raise LevelflowError(f"{exc}; --dt {a.dt!r} may be too large") from None
    mask_final = (phi > 0).astype(float)
    doc = {
        "steps": a.steps,
        "dt": a.dt,
        "stats-refresh": a.stats_refresh,
        "final": _final(trace),
        "mask-area": float(mask_final.sum()),
    }
    if a.gt is not None:
        doc["dice"] = metrics.dice_score(mask_final, a.gt)
    return {
        "fields/phi_final.lsf1": phi,
        "fields/mask_final.lsf1": mask_final,
        "traces/energy.csv": _trace_csv(np.arange(1, a.steps + 1), trace),
        "reports/evolve.json": doc,
    }


@_command(
    "td-verify",
    "validate TD fields against the nucleation oracle",
    ("image", _FIELD, _REQUIRED, "image field"),
    ("mask", _FIELD, _REQUIRED, "mask field defining the two regions"),
    ("model", topo.TD_MODELS, "cv", "energy model"),
    ("radius", int, 2, "probe disk radius in pixels"),
    ("samples", int, 200, "number of probe pixels"),
)
def _cmd_td_verify(a, cfg: ExperimentConfig) -> dict:
    report = topo.verify_td(
        a.image, a.mask, model=a.model, samples=a.samples, radius=a.radius, seed=a.seed
    )
    td = topo.td_field(a.image, a.mask, a.model)
    return {"fields/td_field.lsf1": td, "reports/td_verify.json": _dashed(report)}


@_command(
    "geodesic",
    "edge-aware geodesic distance map from a mask",
    ("image", _FIELD, _REQUIRED, "image field"),
    ("mask", _FIELD, _REQUIRED, "seed region mask"),
    ("d-e", _FIELD, None, "optional extra-cost field"),
    ("eps-d", float, _Cfg("speed.eps_d"), "baseline speed"),
    ("beta-g", float, _Cfg("speed.beta_g"), "gradient-magnitude weight"),
    ("nu", float, _Cfg("speed.nu"), "extra-cost weight"),
)
def _cmd_geodesic(a, cfg: ExperimentConfig) -> dict:
    sp = geodesic.SpeedParams(eps_d=a.eps_d, beta_g=a.beta_g, nu=a.nu)
    dmap = geodesic.distance_for_mask(a.image, a.mask, sp, d_e=a.d_e)
    return {
        "fields/distance.lsf1": dmap.values,
        "reports/geodesic.json": {
            "max-raw": dmap.max_raw,
            "flat": dmap.flat,
            "seed-pixels": int(binarize(a.mask).sum()),
            **_dashed(sp),
        },
    }


@_command(
    "par",
    "pixel-adaptive refinement of a mask",
    ("image", _FIELD, _REQUIRED, "image the affinities are built from"),
    ("mask", _FIELD, _REQUIRED, "mask to refine"),
    ("tau", int, _Cfg("par.tau"), "number of refinement iterations"),
    ("gt", _FIELD, None, "ground truth for Dice before/after"),
)
def _cmd_par(a, cfg: ExperimentConfig) -> dict:
    kernel = par.affinity_kernel(a.image)
    refined = par.refine(a.mask, kernel, a.tau)
    loss = par.par_loss(a.mask, refined)
    doc = {"tau": a.tau, "l-par": loss, "l-par-mean": loss / a.mask.size}
    if a.gt is not None:
        doc["dice-before"] = metrics.dice_score(a.mask, a.gt)
        doc["dice-after"] = metrics.dice_score(refined, a.gt)
    return {"fields/refined.lsf1": refined, "reports/par.json": doc}


_SCHEDULE_FLAGS = (
    ("steps", int, _Cfg("schedule.steps"), "number of diffusion steps T"),
    ("beta1", float, _Cfg("schedule.beta1"), "first variance of the linear schedule"),
    ("betaT", float, _Cfg("schedule.betaT"), "last variance of the linear schedule"),
)


@_command(
    "sample",
    "energy-guided reverse diffusion sampling",
    ("image", _FIELD, _REQUIRED, "conditioning image for the energy"),
    ("mode-mask", [_FIELD], None, "reference mask (repeatable)"),
    ("mode-weight", [float], None, "mixture weight (repeatable; default uniform)"),
    ("frozen-eps", _FIELD, None, "fixed noise-prediction field instead of a mixture"),
    ("noise-scale", float, _Cfg("sampler.noise_scale"), "mixture component spread"),
    ("gamma0", float, _Cfg("guidance.gamma0"), "guidance strength"),
    ("gamma-schedule", diffusion.GUIDANCE_SCHEDULES, _Cfg("guidance.schedule"),
     "guidance decay policy"),
    ("guidance-space", diffusion.GUIDANCE_SPACES, _Cfg("sampler.guidance_space"),
     "apply guidance to the noise prediction or the score"),
    *_SCHEDULE_FLAGS,
    ("ensemble", int, _Cfg("sampler.ensemble"), "number of averaged runs"),
    ("a1", float, _Cfg("area.a1_target"),
     "area-prior target for the inside region (half the domain when unset)"),
)
def _cmd_sample(a, cfg: ExperimentConfig) -> dict:
    if (a.frozen_eps is None) == (not a.mode_mask):
        raise InvalidInputError("provide either --mode-mask (repeatable) or --frozen-eps")
    if a.frozen_eps is not None:
        provider = diffusion.FrozenFieldProvider(a.frozen_eps)
        n_modes = 0
    else:
        n_modes = len(a.mode_mask)
        weights = a.mode_weight or [1.0 / n_modes] * n_modes
        provider = diffusion.MixtureMaskProvider(
            masks=tuple(a.mode_mask), weights=tuple(weights), noise_scale=a.noise_scale
        )
    sched = diffusion.make_schedule(a.steps, a.beta1, a.betaT)
    gp = diffusion.GuidancePolicy(gamma0=a.gamma0, schedule=a.gamma_schedule)
    gcfg = diffusion.GuidanceConfig(
        heaviside=cfg.heaviside,
        weights=cfg.weights,
        area=None if a.a1 is None else levelset.AreaPrior.from_a1(a.a1, a.image.size),
        speed=cfg.speed,
    )
    try:
        result = diffusion.sample(
            a.image, provider, sched, gp, seed=a.seed, ensemble=a.ensemble, cfg=gcfg,
            guidance_space=a.guidance_space, distance_refresh=cfg.sampler.distance_refresh,
        )
    except diffusion.PredictionDivergenceError as exc:  # not an eikonal overflow
        raise LevelflowError(f"{exc}; --gamma0 {a.gamma0!r} may be too large") from None
    return {
        "fields/mask.lsf1": result.mask,
        "traces/energy.csv": _trace_csv(result.t_steps, result.trace),
        "reports/sample.json": {
            "ensemble": a.ensemble,
            "gamma0": gp.gamma0,
            "gamma-schedule": gp.schedule,
            "guidance-space": a.guidance_space,
            "steps": sched.T,
            "modes": n_modes,
            "final": _final(result.trace),
        },
    }


@_command(
    "metrics",
    "confusion-count metrics of pred vs gt",
    ("pred", _FIELD, _REQUIRED, "predicted mask field"),
    ("gt", _FIELD, _REQUIRED, "binary ground-truth field"),
    ("threshold", float, 0.5, "binarization threshold"),
)
def _cmd_metrics(a, cfg: ExperimentConfig) -> dict:
    c = metrics.confusion(a.pred, a.gt, a.threshold)
    row = {**asdict(metrics.scores(c)), **asdict(c)}
    return {
        "reports/metrics.json": {**row, "threshold": a.threshold},
        "reports/metrics.csv": _csv(row, [row.values()]),
    }


@_command(
    "losses",
    "assemble the diffusion + energy + consistency losses",
    ("image", _FIELD, _REQUIRED, "conditioning image"),
    ("mask", _FIELD, _REQUIRED, "clean mask the noise is added to"),
    ("t", int, _REQUIRED, "diffusion step to evaluate at"),
    ("eps-hat", _FIELD, None, "noise-prediction field (defaults to the true noise)"),
    ("w-t", float, _Cfg("losses.w_t"), "diffusion-loss weight"),
    ("eta1", float, _Cfg("losses.eta1"), "energy-loss weight"),
    ("eta2", float, _Cfg("losses.eta2"), "consistency-loss weight"),
    *_SCHEDULE_FLAGS,
)
def _cmd_losses(a, cfg: ExperimentConfig) -> dict:
    image, mask = a.image, a.mask
    sched = diffusion.make_schedule(a.steps, a.beta1, a.betaT)
    eps_true = rng.normals(rng.derive_key(a.seed, _LOSS_NOISE_TAG), image.shape)
    yt = diffusion.forward_sample(mask, a.t, sched, eps_true)
    eps_hat = eps_true if a.eps_hat is None else a.eps_hat
    l_dpm = diffusion.dpm_loss(eps_true, eps_hat, a.w_t)

    yhat0 = np.clip(diffusion.predict_y0(yt, eps_hat, a.t, sched), 0.0, 1.0)
    phi = levelset.mask_to_levelset(yhat0)
    # The localization distance grows from the clean training mask.
    dist = geodesic.distance_for_mask(image, mask, cfg.speed).values
    prior = _area_prior(image.size, cfg.area.a1_target, float(binarize(mask).sum()))
    l_lsf = levelset.energy_total(image, phi, cfg.heaviside, cfg.weights, prior, dist).e_total

    kernel = par.affinity_kernel(image)
    refined = par.refine(yhat0, kernel, cfg.par.tau)
    l_par = par.par_loss(yhat0, refined)

    total = diffusion.total_loss(l_dpm, l_lsf, l_par, a.eta1, a.eta2)
    return {
        "reports/losses.json": {
            "t": a.t,
            "w-t": a.w_t,
            "eta1": a.eta1,
            "eta2": a.eta2,
            "l-dpm": l_dpm,
            "l-lsf": l_lsf,
            "l-par": l_par,
            "total": total,
        },
    }


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        ns = build_parser().parse_args(argv)
        if ns.config is not None:
            cfg, saved = load_config_document(ns.config, ns.command)
        else:
            cfg, saved = ExperimentConfig(), None
        fn, _, rows = _COMMANDS[ns.command]
        args = _resolve(rows, ns, saved or {}, cfg)
        values = {**args, **_read_fields(rows, args)}
        if os.path.exists(ns.out) and not os.path.isdir(ns.out):
            raise InvalidInputError(f"--out {ns.out} exists and is not a directory")
        a = argparse.Namespace(**{k.replace("-", "_"): v for k, v in values.items()})
        _publish(ns.out, ns.command, cfg, args, fn(a, cfg))
        return EXIT_OK
    except InvalidInputError as exc:
        print(f"levelflow: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LevelflowError as exc:
        print(f"levelflow: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # e.g. a step count too large to allocate a schedule for
        print(f"levelflow: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
