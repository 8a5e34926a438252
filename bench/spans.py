"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: :class:`Tracer` rebinds the
public functions listed in ``SPANS`` and ``COUNTERS`` to timing wrappers in
every ``levelflow`` module that binds them by name (``from .field import
as_field`` makes a second binding that patching ``levelflow.field`` alone
would miss), and restores the originals afterwards.  Nothing under ``src/``
changes.

A span is ``[name, start, end, parent, job]`` with ``parent`` the index of
the enclosing span (``None`` for a job's root span).  A span's self time is
its duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time
from collections import defaultdict

ROOT_SPAN = "bench.job"

# (module, attribute, span name).  load_field and save_field share one span.
SPANS = (
    ("cli", "main", "cli.main"),
    ("field", "load_field", "field.io"),
    ("field", "save_field", "field.io"),
    ("levelset", "evolve", "levelset.evolve"),
    ("levelset", "energy_total", "levelset.energy_total"),
    ("levelset", "region_stats", "levelset.region_stats"),
    ("levelset", "grad_energy_wrt_mask", "levelset.grad_energy_wrt_mask"),
    ("geodesic", "solve_eikonal", "geodesic.solve_eikonal"),
    ("topo", "verify_td", "topo.verify_td"),
    ("topo", "nucleation_delta", "topo.nucleation_delta"),
    ("par", "affinity_kernel", "par.affinity_kernel"),
    ("par", "refine", "par.refine"),
    ("diffusion", "sample", "diffusion.sample"),
    ("diffusion", "reverse_step", "diffusion.reverse_step"),
    ("diffusion", "chain_rule_grad", "diffusion.chain_rule_grad"),
    ("rng", "normals", "rng.normals"),
    ("metrics", "confusion", "metrics.confusion"),
)

# Called thousands of times per job: counted, not timed, so the trace
# overhead stays small.
COUNTERS = (
    ("levelset", "heaviside", "levelset.heaviside"),
    ("field", "as_field", "field.as_field"),
)


def _file_bytes(a, r):
    return {"field.io.bytes": os.path.getsize(a["path"])}


# Work counts taken from a wrapped call's bound arguments ``a`` and result ``r``.
AMOUNTS = {
    ("geodesic", "solve_eikonal"): lambda a, r: {"geodesic.solve_eikonal.pixels": a["speed"].size},
    ("levelset", "evolve"): lambda a, r: {"levelset.evolve.steps": a["steps"]},
    ("par", "refine"): lambda a, r: {"par.refine.iterations": a["tau"]},
    ("diffusion", "sample"): lambda a, r: {"diffusion.member_steps": a["ensemble"] * a["sched"].T},
    ("rng", "normals"): lambda a, r: {"rng.normals.values": r.size},
    ("topo", "verify_td"): lambda a, r: {"topo.probes_used": r.n_used, "topo.probes": r.n_samples},
    ("field", "load_field"): _file_bytes,
    ("field", "save_field"): _file_bytes,
}


class Recorder:
    """Spans and per-job counts of one run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = {}  # job -> {counter name: value}
        self._stack: list[int] = []
        self._job = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        self.spans.append([name, 0.0, 0.0, parent, self._job])
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value) -> None:
        counts = self.counts[self._job]
        counts[name] = counts.get(name, 0) + value

    def begin_job(self, job) -> int:
        self._job = job
        self.counts[job] = {}
        return self.open(ROOT_SPAN)

    def end_job(self, root: int) -> None:
        self.close(root)
        self._job = None


def _span_wrapper(rec: Recorder, name: str, fn, amount):
    sig = inspect.signature(fn) if amount else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if amount:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in amount(bound.arguments, result).items():
                rec.add(key, value)
        return result

    return wrapper


def _counter_wrapper(rec: Recorder, name: str, fn):
    key = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add(key, 1)
        return fn(*args, **kwargs)

    return wrapper


class Tracer:
    """Installs the wrappers into the loaded ``levelflow`` modules on demand."""

    def __init__(self, rec: Recorder):
        self._saved: list[tuple] = []
        self._plan = []  # (original, wrapper)
        for mod, attr, name in SPANS:
            fn = getattr(importlib.import_module(f"levelflow.{mod}"), attr)
            self._plan.append((fn, _span_wrapper(rec, name, fn, AMOUNTS.get((mod, attr)))))
        for mod, attr, name in COUNTERS:
            fn = getattr(importlib.import_module(f"levelflow.{mod}"), attr)
            self._plan.append((fn, _counter_wrapper(rec, name, fn)))
        provider = importlib.import_module("levelflow.diffusion").MixtureMaskProvider
        self._method = (provider, provider.eps_hat)
        self._method_wrapper = _span_wrapper(rec, "diffusion.eps_hat", provider.eps_hat, None)

    def install(self) -> None:
        wrappers = {id(fn): wrapper for fn, wrapper in self._plan}
        modules = [m for n, m in sys.modules.items() if n == "levelflow" or n.startswith("levelflow.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        cls, method = self._method
        self._saved.append((cls, "eps_hat", method))
        cls.eps_hat = self._method_wrapper

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered(parent: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to the ``parent`` interval."""
    lo, hi = parent
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list) -> list[float]:
    """Self time of every span: duration minus the part its children cover."""
    children: dict = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - covered((start, end), children[i])
        for i, (name, start, end, parent, job) in enumerate(spans)
    ]


def per_job(spans: list) -> dict:
    """``{job: {"wall": root duration, "self": {name: s}, "calls": {name: n}}}``."""
    out: dict = {}
    for (name, start, end, parent, job), own in zip(spans, self_times(spans)):
        entry = out.setdefault(job, {"wall": 0.0, "self": defaultdict(float), "calls": defaultdict(int)})
        if name == ROOT_SPAN:
            entry["wall"] = end - start
        entry["self"][name] += own
        entry["calls"][name] += 1
    return out


def accounting_gap(jobs: dict) -> float:
    """Largest difference between a job's summed self times and its wall time."""
    return max((abs(sum(j["self"].values()) - j["wall"]) for j in jobs.values()), default=0.0)


def layer_metrics(jobs: dict, counts: dict, count_jobs: list, time_jobs: list) -> dict:
    """Per-layer metrics, each per job, from :func:`per_job` and ``Recorder.counts``.

    Times are medians over ``time_jobs``; counts are means over
    ``count_jobs``, a fixed set of job ids so that they repeat exactly for a
    given seed whatever the run length.
    """
    names = {name for job in jobs.values() for name in job["self"]}
    out = {}
    for name in names:
        out[f"{name}.self_s"] = statistics.median(jobs[j]["self"][name] for j in time_jobs)
        out[f"{name}.calls"] = sum(jobs[j]["calls"][name] for j in count_jobs) / len(count_jobs)
    totals: dict = defaultdict(float)
    for job in count_jobs:
        for key, value in counts[job].items():
            totals[key] += value
    for key, value in totals.items():
        out[key] = value / len(count_jobs)
    out["geodesic.us_per_pixel"] = statistics.median(
        1e6 * jobs[j]["self"]["geodesic.solve_eikonal"]
        / (counts[j].get("geodesic.solve_eikonal.pixels") or math.inf)
        for j in time_jobs
    )
    probes = totals["topo.probes"]
    out["topo.probes_used_ratio"] = totals["topo.probes_used"] / probes if probes else 0.0
    return out
