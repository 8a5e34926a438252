"""Command-line front end wiring the modules into reproducible experiments.

Every subcommand writes its numeric artifacts under ``--out`` in a fixed
layout (``fields/`` for LSF1/PGM rasters, ``reports/`` for JSON,
``traces/`` for CSV) plus a ``manifest.json`` recording the tool version,
RNG algorithm, resolved configuration, resolved arguments, and a sha256
per artifact.  Runs are pure functions of (config, args, seed): rerunning
a subcommand with ``--config <manifest.json>`` reproduces every artifact
bit for bit.

Exit codes: 0 success, 1 invalid input or configuration, 2 numerical or
runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, diffusion, geodesic, levelset, metrics, par, rng, topo
from .config import ExperimentConfig, load_config_document
from .errors import InvalidInputError, LevelflowError
from .field import PhantomSpec, as_field, binarize, load_field, make_phantom, save_field

_LOSS_NOISE_TAG = 0x4C4F5353  # "LOSS"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the
    # package's validation error instead so misuse maps to exit code 1.
    def error(self, message):
        raise InvalidInputError(message)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


class _Run:
    """Output directory layout plus artifact bookkeeping for one invocation."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.artifacts: list[str] = []
        for sub in ("fields", "reports", "traces"):
            os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    def path(self, rel: str) -> str:
        return os.path.join(self.out_dir, rel)

    def add_field(self, rel: str, arr) -> None:
        save_field(arr, self.path(rel))
        self.artifacts.append(rel)

    def add_json(self, rel: str, obj) -> None:
        try:
            text = _dump_json(obj)
        except ValueError as exc:  # a NaN or inf that no validator caught
            raise LevelflowError(f"{rel} would hold a non-finite number: {exc}") from None
        with open(self.path(rel), "w", encoding="utf-8") as fh:
            fh.write(text)
        self.artifacts.append(rel)

    def add_trace(self, rel: str, steps, trace) -> None:
        with open(self.path(rel), "w", encoding="utf-8") as fh:
            fh.write("step,e_region,e_length,e_area,e_distance,e_total\n")
            for s, row in zip(steps, trace):
                cells = ",".join(f"{v:.17g}" for v in row)
                fh.write(f"{int(s)},{cells}\n")
        self.artifacts.append(rel)

    def finish(self, command: str, cfg: ExperimentConfig, args: dict, seed: int) -> None:
        cfg_doc = cfg.to_dict()
        manifest = {
            "schema_version": 1,
            "tool": "levelflow",
            "tool_version": __version__,
            "rng_algorithm": rng.ALGORITHM_ID,
            "command": command,
            "seed": seed,
            "config": cfg_doc,
            "config_sha256": hashlib.sha256(_dump_json(cfg_doc).encode()).hexdigest(),
            "args": args,
            "artifacts": {rel: _sha256(self.path(rel)) for rel in sorted(self.artifacts)},
        }
        with open(self.path("manifest.json"), "w", encoding="utf-8") as fh:
            fh.write(_dump_json(manifest))


def _load_input(path, name: str):
    try:
        return load_field(path)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {name} file {path}: {exc}") from None


class _ArgPool:
    """Resolution order for command parameters: flag > manifest args > default."""

    def __init__(self, ns: argparse.Namespace, manifest_args: dict | None):
        self.ns = ns
        self.saved = manifest_args or {}
        self.resolved: dict = {}

    def get(self, key: str, default=None, required: bool = False):
        value = getattr(self.ns, key.replace("-", "_"), None)
        if value is None:
            value = self.saved.get(key, default)
        if value is None and required:
            raise InvalidInputError(f"missing required argument --{key}")
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidInputError(f"--{key} must be finite, got {value}")
        self.resolved[key] = value
        return value

    def get_list(self, key: str, default=None):
        value = getattr(self.ns, key.replace("-", "_"), None)
        if not value:
            value = self.saved.get(key, default)
        self.resolved[key] = value
        return value


def _area_prior(cfg: ExperimentConfig, n_pixels: int, fallback_a1: float) -> levelset.AreaPrior:
    a1 = cfg.area.a1_target
    if a1 is None:
        a1 = fallback_a1
    a2 = cfg.area.a2_target
    if a2 is None:
        a2 = n_pixels - a1
    return levelset.AreaPrior(float(a1), float(a2), overridden=cfg.area.overridden)


def _guidance_config(cfg: ExperimentConfig, area: levelset.AreaPrior | None):
    return diffusion.GuidanceConfig(
        heaviside=cfg.heaviside,
        weights=cfg.weights,
        area=area,
        speed=cfg.speed,
        var_floor=cfg.numerics.var_floor,
        grad_floor=cfg.numerics.grad_floor,
        mapping=cfg.numerics.mapping,
        distance_refresh=cfg.sampler.distance_refresh,
    )


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_phantom(pool: _ArgPool, cfg: ExperimentConfig, run: _Run, seed: int):
    spec = PhantomSpec(
        kind=pool.get("kind", required=True),
        size=int(pool.get("size", 64)),
        fg=float(pool.get("fg", 1.0)),
        bg=float(pool.get("bg", 0.0)),
        noise_sigma=float(pool.get("noise-sigma", 0.0)),
        seed=seed,
    )
    image, gt = make_phantom(spec)
    run.add_field("fields/image.lsf1", image)
    run.add_field("fields/gt_mask.lsf1", gt)
    run.add_field("fields/image.pgm", image)
    run.add_json(
        "reports/phantom.json",
        {
            "kind": spec.kind,
            "size": spec.size,
            "fg": spec.fg,
            "bg": spec.bg,
            "noise-sigma": spec.noise_sigma,
            "seed": spec.seed,
            "mask-area": float(gt.sum()),
        },
    )


def _cmd_energy(pool: _ArgPool, cfg: ExperimentConfig, run: _Run, seed: int):
    image = _load_input(pool.get("image", required=True), "image")
    mask = _load_input(pool.get("mask", required=True), "mask")
    dist_path = pool.get("dist")
    if dist_path is not None:
        dist = _load_input(dist_path, "dist")
    else:
        dmap = geodesic.distance_for_mask(image, mask, cfg.speed)
        dist = dmap.values
        run.add_field("fields/distance.lsf1", dist)
    phi = levelset.mask_to_levelset(mask, cfg.numerics.mapping)
    prior = _area_prior(cfg, image.size, float(binarize(mask).sum()))
    stats = levelset.region_stats(image, phi, cfg.heaviside, cfg.numerics.var_floor)
    report = levelset.energy_total(
        image, phi, cfg.heaviside, cfg.weights, prior, dist, stats=stats
    )
    doc = report.to_json_dict()
    doc["stats"] = {
        "mean-in": stats.mean_in,
        "mean-out": stats.mean_out,
        "var-in": stats.var_in,
        "var-out": stats.var_out,
        "mass-in": stats.mass_in,
        "mass-out": stats.mass_out,
    }
    run.add_json("reports/energy.json", doc)


def _parse_box(text: str):
    try:
        r0, c0, r1, c1 = (int(v) for v in text.split(","))
    except ValueError:
        raise InvalidInputError(f"--init-box expects 'r0,c0,r1,c1', got {text!r}") from None
    if r0 >= r1 or c0 >= c1:
        raise InvalidInputError("--init-box bounds must satisfy r0 < r1 and c0 < c1")
    return r0, c0, r1, c1


def _cmd_evolve(pool: _ArgPool, cfg: ExperimentConfig, run: _Run, seed: int):
    image = _load_input(pool.get("image", required=True), "image")
    init_path = pool.get("init")
    init_box = pool.get("init-box")
    if (init_path is None) == (init_box is None):
        raise InvalidInputError("provide exactly one of --init or --init-box")
    if init_path is not None:
        phi0 = _load_input(init_path, "init")
    else:
        r0, c0, r1, c1 = _parse_box(init_box)
        phi0 = np.full(image.shape, -0.5)
        phi0[r0:r1, c0:c1] = 0.5
    dist_path = pool.get("dist")
    if dist_path is not None:
        dist = _load_input(dist_path, "dist")
    else:
        dist = geodesic.distance_for_mask(image, (phi0 > 0).astype(float), cfg.speed).values
    prior = _area_prior(cfg, image.size, float((phi0 > 0).sum()))
    dt = float(pool.get("dt", cfg.evolve.dt))
    steps = int(pool.get("steps", cfg.evolve.steps))
    stats_refresh = int(pool.get("stats-refresh", cfg.evolve.stats_refresh))
    phi, trace = levelset.evolve(
        image,
        phi0,
        cfg.heaviside,
        cfg.weights,
        prior,
        dist,
        dt=dt,
        steps=steps,
        stats_refresh=stats_refresh,
        var_floor=cfg.numerics.var_floor,
        grad_floor=cfg.numerics.grad_floor,
    )
    mask_final = (phi > 0).astype(float)
    run.add_field("fields/phi_final.lsf1", phi)
    run.add_field("fields/mask_final.lsf1", mask_final)
    run.add_trace("traces/energy.csv", np.arange(1, steps + 1), trace)
    doc = {
        "steps": steps,
        "dt": dt,
        "stats-refresh": stats_refresh,
        "final": dict(zip(("region", "length", "area", "distance", "total"), trace[-1])),
        "mask-area": float(mask_final.sum()),
    }
    gt_path = pool.get("gt")
    if gt_path is not None:
        gt = _load_input(gt_path, "gt")
        doc["dice"] = metrics.dice_score(mask_final, gt)
    run.add_json("reports/evolve.json", doc)


def _cmd_td_verify(pool: _ArgPool, cfg: ExperimentConfig, run: _Run, seed: int):
    image = _load_input(pool.get("image", required=True), "image")
    mask = _load_input(pool.get("mask", required=True), "mask")
    model = pool.get("model", "cv")
    radius = int(pool.get("radius", 2))
    samples = int(pool.get("samples", 200))
    report = topo.verify_td(
        image,
        mask,
        model=model,
        samples=samples,
        radius=radius,
        seed=seed,
        var_floor=cfg.numerics.var_floor,
    )
    field_fn = topo.td_field_cv if model == "cv" else topo.td_field_gaussian
    run.add_field("fields/td_field.lsf1", field_fn(image, mask, cfg.numerics.var_floor).values)
    run.add_json("reports/td_verify.json", report.to_json_dict())


def _cmd_geodesic(pool: _ArgPool, cfg: ExperimentConfig, run: _Run, seed: int):
    image = _load_input(pool.get("image", required=True), "image")
    mask = _load_input(pool.get("mask", required=True), "mask")
    sp = geodesic.SpeedParams(
        eps_d=float(pool.get("eps-d", cfg.speed.eps_d)),
        beta_g=float(pool.get("beta-g", cfg.speed.beta_g)),
        nu=float(pool.get("nu", cfg.speed.nu)),
    )
    de_path = pool.get("d-e")
    d_e = _load_input(de_path, "d-e") if de_path is not None else None
    dmap = geodesic.distance_for_mask(image, mask, sp, d_e=d_e)
    run.add_field("fields/distance.lsf1", dmap.values)
    run.add_json(
        "reports/geodesic.json",
        {
            "max-raw": dmap.max_raw,
            "flat": dmap.flat,
            "seed-pixels": int(dmap.seed_mask.sum()),
            "eps-d": sp.eps_d,
            "beta-g": sp.beta_g,
            "nu": sp.nu,
        },
    )


def _cmd_par(pool: _ArgPool, cfg: ExperimentConfig, run: _Run, seed: int):
    image = _load_input(pool.get("image", required=True), "image")
    mask = _load_input(pool.get("mask", required=True), "mask")
    tau = int(pool.get("tau", cfg.par.tau))
    kernel = par.affinity_kernel(image, cfg.par)
    refined = par.refine(mask, kernel, tau)
    loss = par.par_loss(mask, refined)
    run.add_field("fields/refined.lsf1", refined)
    doc = {"tau": tau, "l-par": loss, "l-par-mean": loss / mask.size}
    gt_path = pool.get("gt")
    if gt_path is not None:
        gt = _load_input(gt_path, "gt")
        doc["dice-before"] = metrics.dice_score(mask, gt)
        doc["dice-after"] = metrics.dice_score(refined, gt)
    run.add_json("reports/par.json", doc)


def _cmd_sample(pool: _ArgPool, cfg: ExperimentConfig, run: _Run, seed: int):
    image = _load_input(pool.get("image", required=True), "image")
    mode_paths = pool.get_list("mode-mask")
    frozen_path = pool.get("frozen-eps")
    if (frozen_path is None) == (not mode_paths):
        raise InvalidInputError("provide either --mode-mask (repeatable) or --frozen-eps")
    if frozen_path is not None:
        provider = diffusion.FrozenFieldProvider(_load_input(frozen_path, "frozen-eps"))
        n_modes = 0
    else:
        masks = tuple(_load_input(p, "mode-mask") for p in mode_paths)
        weight_vals = pool.get_list("mode-weight")
        if weight_vals:
            weights = tuple(float(v) for v in weight_vals)
        else:
            weights = tuple(1.0 / len(masks) for _ in masks)
        provider = diffusion.MixtureMaskProvider(
            masks=masks,
            weights=weights,
            noise_scale=float(pool.get("noise-scale", cfg.sampler.noise_scale)),
        )
        n_modes = len(masks)
    sched = diffusion.make_schedule(
        int(pool.get("steps", cfg.schedule.steps)),
        float(pool.get("beta1", cfg.schedule.beta1)),
        float(pool.get("betaT", cfg.schedule.betaT)),
        cfg.schedule.kind,
    )
    gp = diffusion.GuidancePolicy(
        gamma0=float(pool.get("gamma0", cfg.guidance.gamma0)),
        schedule=pool.get("gamma-schedule", cfg.guidance.schedule),
    )
    a1 = pool.get("a1", cfg.area.a1_target)
    area = None if a1 is None else levelset.AreaPrior.from_a1(float(a1), image.size)
    gcfg = _guidance_config(cfg, area)
    ensemble = int(pool.get("ensemble", cfg.sampler.ensemble))
    space = pool.get("guidance-space", cfg.sampler.guidance_space)
    result = diffusion.sample(
        image, provider, sched, gp, seed=seed, ensemble=ensemble, cfg=gcfg, guidance_space=space
    )
    run.add_field("fields/mask.lsf1", result.mask)
    run.add_trace("traces/energy.csv", result.t_steps, result.trace)
    final = dict(zip(("region", "length", "area", "distance", "total"), result.trace[-1]))
    run.add_json(
        "reports/sample.json",
        {
            "ensemble": ensemble,
            "gamma0": gp.gamma0,
            "gamma-schedule": gp.schedule,
            "guidance-space": space,
            "steps": sched.T,
            "modes": n_modes,
            # a degenerate last step leaves a NaN row, which JSON cannot hold
            "final": {k: None if math.isnan(v) else v for k, v in final.items()},
        },
    )


def _cmd_metrics(pool: _ArgPool, cfg: ExperimentConfig, run: _Run, seed: int):
    pred = _load_input(pool.get("pred", required=True), "pred")
    gt = _load_input(pool.get("gt", required=True), "gt")
    threshold = float(pool.get("threshold", 0.5))
    c = metrics.confusion(pred, gt, threshold)
    s = metrics.scores(c)
    doc = {"tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn, "threshold": threshold}
    doc.update(s.to_json_dict())
    run.add_json("reports/metrics.json", doc)
    csv_path = run.path("reports/metrics.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("dice,jaccard,precision,recall,tp,fp,fn,tn\n")
        fh.write(
            f"{s.dice:.17g},{s.jaccard:.17g},{s.precision:.17g},{s.recall:.17g},"
            f"{c.tp},{c.fp},{c.fn},{c.tn}\n"
        )
    run.artifacts.append("reports/metrics.csv")


def _cmd_losses(pool: _ArgPool, cfg: ExperimentConfig, run: _Run, seed: int):
    image = _load_input(pool.get("image", required=True), "image")
    mask = as_field(_load_input(pool.get("mask", required=True), "mask"), "mask")
    sched = diffusion.make_schedule(
        int(pool.get("steps", cfg.schedule.steps)),
        float(pool.get("beta1", cfg.schedule.beta1)),
        float(pool.get("betaT", cfg.schedule.betaT)),
        cfg.schedule.kind,
    )
    t = int(pool.get("t", required=True))
    eps_true = rng.normals(rng.derive_key(seed, _LOSS_NOISE_TAG), image.shape)
    yt = diffusion.forward_sample(mask, t, sched, eps_true)
    eps_hat_path = pool.get("eps-hat")
    eps_hat = _load_input(eps_hat_path, "eps-hat") if eps_hat_path is not None else eps_true
    w_t = float(pool.get("w-t", cfg.losses.w_t))
    l_dpm = diffusion.dpm_loss(eps_true, eps_hat, w_t)

    yhat0 = np.clip(diffusion.predict_y0(yt, eps_hat, t, sched), 0.0, 1.0)
    phi = levelset.mask_to_levelset(yhat0, cfg.numerics.mapping)
    # The localization distance grows from the clean training mask.
    dist = geodesic.distance_for_mask(image, mask, cfg.speed).values
    prior = _area_prior(cfg, image.size, float(binarize(mask).sum()))
    l_lsf = levelset.energy_total(
        image, phi, cfg.heaviside, cfg.weights, prior, dist, var_floor=cfg.numerics.var_floor
    ).e_total

    kernel = par.affinity_kernel(image, cfg.par)
    refined = par.refine(yhat0, kernel, cfg.par.tau)
    l_par = par.par_loss(yhat0, refined)

    eta1 = float(pool.get("eta1", cfg.losses.eta1))
    eta2 = float(pool.get("eta2", cfg.losses.eta2))
    total = diffusion.total_loss(l_dpm, l_lsf, l_par, eta1, eta2)
    run.add_json(
        "reports/losses.json",
        {
            "t": t,
            "w-t": w_t,
            "eta1": eta1,
            "eta2": eta2,
            "l-dpm": l_dpm,
            "l-lsf": l_lsf,
            "l-par": l_par,
            "total": total,
        },
    )


_COMMANDS = {
    "phantom": _cmd_phantom,
    "energy": _cmd_energy,
    "evolve": _cmd_evolve,
    "td-verify": _cmd_td_verify,
    "geodesic": _cmd_geodesic,
    "par": _cmd_par,
    "sample": _cmd_sample,
    "metrics": _cmd_metrics,
    "losses": _cmd_losses,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="levelflow", description=__doc__)
    parser.add_argument("--version", action="version", version=f"levelflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file or a previous run's manifest.json")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("phantom", help="generate a synthetic image + ground-truth mask")
    common(p)
    p.add_argument("--kind", choices=("two-disks", "ring-with-hole", "c-shape", "two-rects"),
                   help="phantom geometry")
    p.add_argument("--size", type=int, help="grid side length in pixels (default 64)")
    p.add_argument("--fg", type=float, help="foreground intensity (default 1)")
    p.add_argument("--bg", type=float, help="background intensity (default 0)")
    p.add_argument("--noise-sigma", type=float, help="additive Gaussian noise level (default 0)")

    p = sub.add_parser("energy", help="evaluate the four-term energy of (image, mask)")
    common(p)
    p.add_argument("--image", help="image field")
    p.add_argument("--mask", help="soft mask field in [0, 1]")
    p.add_argument("--dist", help="precomputed distance field (else computed from the mask)")

    p = sub.add_parser("evolve", help="gradient-flow evolution of a level set function")
    common(p)
    p.add_argument("--image", help="image field")
    p.add_argument("--init", help="initial level set field")
    p.add_argument("--init-box", help="box initialization 'r0,c0,r1,c1'")
    p.add_argument("--gt", help="ground truth for a Dice report")
    p.add_argument("--dist", help="precomputed distance field")
    p.add_argument("--dt", type=float, help="explicit Euler time step")
    p.add_argument("--steps", type=int, help="number of evolution steps")
    p.add_argument("--stats-refresh", type=int, help="recompute region stats every N steps")

    p = sub.add_parser("td-verify", help="validate TD fields against the nucleation oracle")
    common(p)
    p.add_argument("--image", help="image field")
    p.add_argument("--mask", help="mask field defining the two regions")
    p.add_argument("--model", choices=("cv", "gaussian"), help="energy model")
    p.add_argument("--radius", type=int, help="probe disk radius in pixels")
    p.add_argument("--samples", type=int, help="number of probe pixels")

    p = sub.add_parser("geodesic", help="edge-aware geodesic distance map from a mask")
    common(p)
    p.add_argument("--image", help="image field")
    p.add_argument("--mask", help="seed region mask")
    p.add_argument("--d-e", help="optional extra-cost field")
    p.add_argument("--eps-d", type=float, help="baseline speed")
    p.add_argument("--beta-g", type=float, help="gradient-magnitude weight")
    p.add_argument("--nu", type=float, help="extra-cost weight")

    p = sub.add_parser("par", help="pixel-adaptive refinement of a mask")
    common(p)
    p.add_argument("--image", help="image the affinities are built from")
    p.add_argument("--mask", help="mask to refine")
    p.add_argument("--tau", type=int, help="number of refinement iterations")
    p.add_argument("--gt", help="ground truth for Dice before/after")

    p = sub.add_parser("sample", help="energy-guided reverse diffusion sampling")
    common(p)
    p.add_argument("--image", help="conditioning image for the energy")
    p.add_argument("--mode-mask", action="append", help="reference mask (repeatable)")
    p.add_argument("--mode-weight", action="append", help="mixture weight (repeatable)")
    p.add_argument("--frozen-eps", help="fixed noise-prediction field instead of a mixture")
    p.add_argument("--noise-scale", type=float, help="mixture component spread")
    p.add_argument("--gamma0", type=float, help="guidance strength")
    p.add_argument("--gamma-schedule", choices=("constant", "noise-scaled"),
                   help="guidance decay policy")
    p.add_argument("--guidance-space", choices=("noise", "score"),
                   help="apply guidance to the noise prediction or the score")
    p.add_argument("--steps", type=int, help="number of diffusion steps T")
    p.add_argument("--beta1", type=float, help="first variance of the linear schedule")
    p.add_argument("--betaT", type=float, help="last variance of the linear schedule")
    p.add_argument("--ensemble", type=int, help="number of averaged runs")
    p.add_argument("--a1", type=float, help="area-prior target for the inside region")

    p = sub.add_parser("metrics", help="confusion-count metrics of pred vs gt")
    common(p)
    p.add_argument("--pred", help="predicted mask field")
    p.add_argument("--gt", help="binary ground-truth field")
    p.add_argument("--threshold", type=float, help="binarization threshold (default 0.5)")

    p = sub.add_parser("losses", help="assemble the diffusion + energy + consistency losses")
    common(p)
    p.add_argument("--image", help="conditioning image")
    p.add_argument("--mask", help="clean mask the noise is added to")
    p.add_argument("--t", type=int, help="diffusion step to evaluate at")
    p.add_argument("--eps-hat", help="noise-prediction field (defaults to the true noise)")
    p.add_argument("--w-t", type=float, help="diffusion-loss weight")
    p.add_argument("--eta1", type=float, help="energy-loss weight")
    p.add_argument("--eta2", type=float, help="consistency-loss weight")
    p.add_argument("--steps", type=int, help="number of diffusion steps T")
    p.add_argument("--beta1", type=float, help="first variance of the linear schedule")
    p.add_argument("--betaT", type=float, help="last variance of the linear schedule")

    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        if ns.config is not None:
            cfg, manifest_args = load_config_document(ns.config)
        else:
            cfg, manifest_args = ExperimentConfig(), None
        pool = _ArgPool(ns, manifest_args)
        seed = ns.seed
        if seed is None:
            seed = pool.saved.get("seed", cfg.seed)
        seed = int(seed)
        pool.resolved["seed"] = seed
        run = _Run(ns.out)
        _COMMANDS[ns.command](pool, cfg, run, seed)
        run.finish(ns.command, cfg, pool.resolved, seed)
        return EXIT_OK
    except InvalidInputError as exc:
        print(f"levelflow: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LevelflowError as exc:
        print(f"levelflow: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
