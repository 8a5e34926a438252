"""Tests of the benchmark's own code: span arithmetic, metric names, smoke runs."""

import json
import math

import pytest

import levelflow
from bench import run, spans, workloads

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))

# name, start, end, parent, job
TREE = [
    ["bench.job", 0.0, 10.0, None, 7],
    ["cli.main", 1.0, 9.0, 0, 7],
    ["field.io", 1.0, 2.0, 1, 7],
    ["levelset.evolve", 3.0, 8.0, 1, 7],
    ["levelset.energy_total", 4.0, 5.0, 3, 7],
    ["levelset.energy_total", 6.0, 7.5, 3, 7],
]


def test_self_times_of_hand_built_tree():
    assert spans.self_times(TREE) == pytest.approx([2.0, 2.0, 1.0, 2.5, 1.0, 1.5])
    job = spans.per_job(TREE)[7]
    assert job["wall"] == 10.0
    assert job["self"]["levelset.energy_total"] == pytest.approx(2.5)
    assert job["calls"]["levelset.energy_total"] == 2
    assert spans.accounting_gap({7: job}) == pytest.approx(0.0)


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert spans.covered((0.0, 10.0), [(9.0, 12.0), (1.0, 4.0), (3.0, 6.0)]) == pytest.approx(6.0)
    assert spans.covered((0.0, 1.0), []) == 0.0


def test_layer_metrics_counts_over_count_jobs_and_times_over_time_jobs():
    tree = TREE + [[n, s + 20, e + 20, None if p is None else p + 6, 8] for n, s, e, p, _ in TREE]
    counts = {7: {"levelset.evolve.steps": 200}, 8: {"levelset.evolve.steps": 100}}
    out = spans.layer_metrics(spans.per_job(tree), counts, [7], [7, 8])
    assert out["levelset.evolve.steps"] == 200
    assert out["levelset.energy_total.calls"] == 2
    assert out["levelset.evolve.self_s"] == pytest.approx(2.5)
    assert out["topo.probes_used_ratio"] == 0.0


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Untraced and traced smoke runs of every workload."""
    originals = (levelflow.levelset.heaviside, levelflow.cli.main, levelflow.field.as_field)
    out = {}
    for name, workload in workloads.SMOKE.items():
        for trace in (False, True):
            work = str(tmp_path_factory.mktemp(f"{name}-{int(trace)}"))
            out[name, trace] = run.measure(workload, work, seed=3, seconds=0.0, trace=trace)
    assert (levelflow.levelset.heaviside, levelflow.cli.main, levelflow.field.as_field) == originals
    return out


@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_smoke_workload_has_no_failures(smoke, name):
    for trace in (False, True):
        metrics, plain, all_jobs = smoke[name, trace]
        assert [j.error for j in all_jobs] == [None] * len(all_jobs)
        assert len(plain) == run.MIN_JOBS


def test_printed_metric_names_are_the_specified_ones(smoke):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    produced = set()
    for (name, trace), (metrics, _, all_jobs) in smoke.items():
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        result = run.result_line(metrics, wanted, all_jobs)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == (per_layer if trace else end_to_end)
        if trace:
            produced |= set(metrics)
        else:
            assert set(metrics) == end_to_end
            assert all(v["value"] > 0 for v in result["metrics"].values())
    assert per_layer <= produced


def test_traced_counts_follow_the_call_structure(smoke):
    seg = workloads.SMOKE["segment"]
    m = smoke["segment", True][0]
    assert m["geodesic.solve_eikonal.calls"] == 1
    assert m["levelset.heaviside.calls"] == 7 * seg.steps
    assert m["topo.nucleation_delta.calls"] == seg.samples
    assert m["cli.main.calls"] == 5

    ens = workloads.SMOKE["sample-ensemble"]
    m = smoke["sample-ensemble", True][0]
    assert m["geodesic.solve_eikonal.calls"] == ens.ensemble * math.ceil(ens.steps / ens.distance_refresh)
    assert m["diffusion.chain_rule_grad.calls"] == ens.ensemble * ens.steps
    assert m["diffusion.member_steps"] == ens.ensemble * ens.steps

    single = workloads.SMOKE["sample-single"]
    m = smoke["sample-single", True][0]
    assert m["geodesic.solve_eikonal.calls"] == 1
    assert m["rng.normals.calls"] == single.steps
    assert "diffusion.chain_rule_grad.calls" not in m
