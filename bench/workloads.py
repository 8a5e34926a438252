"""The benchmark's workloads: the CLI calls that make up one job of each.

A job is what one user runs at a time: the ``segment`` pipeline (five CLI
calls on one noisy phantom) or one ``sample`` call.  Job ``i`` of a run
with workload seed ``s`` passes ``--seed s + i`` to every call; the
phantom kind of a ``segment`` job cycles with that seed.

``FULL`` holds the measured sizes and ``SMOKE`` tiny ones for the
benchmark's own tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from levelflow.field import save_field

KINDS = ("two-disks", "ring-with-hole", "c-shape", "two-rects")


@dataclass(frozen=True)
class Segment:
    """phantom -> evolve from an inset box -> par -> td-verify -> metrics."""

    size: int = 128
    steps: int = 200
    tau: int = 10
    samples: int = 200

    def build(self, inputs: str) -> None:
        """Nothing to prepare: each job draws its own phantom."""

    def calls(self, inputs: str, job: str, seed: int) -> list[list[str]]:
        inset = round(self.size / 5)
        box = f"{inset},{inset},{self.size - inset},{self.size - inset}"
        image = f"{job}/phantom/fields/image.lsf1"
        gt = f"{job}/phantom/fields/gt_mask.lsf1"
        mask = f"{job}/evolve/fields/mask_final.lsf1"
        refined = f"{job}/par/fields/refined.lsf1"
        common = ["--seed", str(seed), "--out"]
        return [
            ["phantom", "--kind", KINDS[seed % len(KINDS)], "--size", str(self.size),
             "--noise-sigma", "0.3", *common, f"{job}/phantom"],
            ["evolve", "--image", image, "--init-box", box, "--dt", "1.0",
             "--steps", str(self.steps), "--gt", gt, *common, f"{job}/evolve"],
            ["par", "--image", image, "--mask", mask, "--tau", str(self.tau), "--gt", gt,
             *common, f"{job}/par"],
            ["td-verify", "--image", image, "--mask", mask, "--model", "cv",
             "--samples", str(self.samples), "--radius", "2", *common, f"{job}/td-verify"],
            ["metrics", "--pred", refined, "--gt", gt, *common, f"{job}/metrics"],
        ]

    def final_and_references(self, inputs: str, job: str) -> tuple[str, list[str]]:
        return f"{job}/par/fields/refined.lsf1", [f"{job}/phantom/fields/gt_mask.lsf1"]

    def reported_dice(self, job: str) -> str | None:
        """The report whose ``dice`` must equal the benchmark's own Dice."""
        return f"{job}/metrics/reports/metrics.json"


@dataclass(frozen=True)
class Sample:
    """``sample`` on a disk image with a disk/ring mixture prior."""

    size: int
    steps: int
    ensemble: int
    gamma0: float
    distance_refresh: int

    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """The disk (also the conditioning image) and the ring."""
        c = (self.size - 1) / 2.0
        rows, cols = np.mgrid[0 : self.size, 0 : self.size]
        r = np.hypot(rows - c, cols - c) / self.size
        return (r <= 0.25).astype(np.float64), ((r <= 0.30) & (r >= 0.16)).astype(np.float64)

    def build(self, inputs: str) -> None:
        """Write the two mode masks and the config file."""
        disk, ring = self.masks()
        save_field(disk, f"{inputs}/disk.lsf1")
        save_field(ring, f"{inputs}/ring.lsf1")
        config = {
            "schema_version": 1,
            "schedule": {"steps": self.steps, "beta1": 1e-3, "betaT": 0.2},
            "sampler": {"distance_refresh": self.distance_refresh},
        }
        with open(f"{inputs}/config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)

    def calls(self, inputs: str, job: str, seed: int) -> list[list[str]]:
        a1 = float(self.masks()[0].sum())
        return [
            ["sample", "--image", f"{inputs}/disk.lsf1",
             "--mode-mask", f"{inputs}/disk.lsf1", "--mode-mask", f"{inputs}/ring.lsf1",
             "--config", f"{inputs}/config.json", "--gamma0", repr(self.gamma0),
             "--gamma-schedule", "noise-scaled", "--ensemble", str(self.ensemble),
             "--a1", repr(a1), "--seed", str(seed), "--out", f"{job}/sample"],
        ]

    def final_and_references(self, inputs: str, job: str) -> tuple[str, list[str]]:
        # Unguided, one member lands on the disk or the ring mode at random,
        # so a sample is scored against the nearer mode.
        return f"{job}/sample/fields/mask.lsf1", [f"{inputs}/disk.lsf1", f"{inputs}/ring.lsf1"]

    def reported_dice(self, job: str) -> str | None:
        return None


FULL = {
    "segment": Segment(),
    "sample-ensemble": Sample(size=64, steps=60, ensemble=8, gamma0=0.3, distance_refresh=50),
    "sample-single": Sample(size=128, steps=200, ensemble=1, gamma0=0.0, distance_refresh=200),
}

SMOKE = {
    "segment": Segment(size=32, steps=10, tau=2, samples=10),
    "sample-ensemble": Sample(size=32, steps=6, ensemble=2, gamma0=0.3, distance_refresh=5),
    "sample-single": Sample(size=32, steps=10, ensemble=1, gamma0=0.0, distance_refresh=10),
}

