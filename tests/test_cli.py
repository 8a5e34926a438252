import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelflow as lf
from levelflow import cli, config
from levelflow.cli import main
from levelflow.config import ExperimentConfig, config_from_dict, load_config_document
from levelflow.errors import InvalidInputError


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_hashes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = file_sha256(path)
    return out


# Required arguments of the callables below whose own checks are under test.
BASE_KWARGS = {
    lf.AreaPrior: {"a1_target": 1.0, "a2_target": 1.0},
    lf.PhantomSpec: {"kind": "two-disks", "size": 32},
    lf.evolve: {
        "image": np.eye(4),
        "phi0": np.eye(4) - 0.5,
        "p": lf.HeavisideParams(),
        "w": lf.EnergyWeights(),
        "prior": lf.AreaPrior(8.0, 8.0),
        "dist": np.zeros((4, 4)),
    },
    lf.dpm_loss: {"eps_true": np.zeros((4, 4)), "eps_hat": np.zeros((4, 4))},
    lf.total_loss: {"l_dpm": 1.0, "l_lsf": 2.0, "l_par": 3.0},
    lf.NucleationProbe: {"row": 4, "col": 4, "radius": 1, "direction": "add-to-inside"},
}

# Every parameter dataclass; each checks its fields through errors.Params.
PARAM_CLASSES = [
    lf.HeavisideParams, lf.EnergyWeights, lf.AreaPrior, lf.levelset.EvolveParams,
    lf.DiffusionSchedule, lf.GuidancePolicy, lf.diffusion.SamplerParams,
    lf.diffusion.LossParams, lf.SpeedParams, lf.ParParams, config.AreaParams, lf.PhantomSpec,
    lf.NucleationProbe,
]
# Library functions that check a float parameter by building its dataclass.
PARAM_CALLS = [(lf.evolve, "dt"), (lf.dpm_loss, "w_t"), (lf.total_loss, "eta1"),
               (lf.total_loss, "eta2")]
# (id, value): non-finite numbers, an int past float64's range (it compares
# below inf), then values of another type than the field's
BAD_VALUES = [("nan", float("nan")), ("inf", float("inf")), ("huge-int", 10**400),
              ("None", None), ("str", "1"), ("bool", True), ("numpy-bool", np.bool_(True)),
              ("complex", 1 + 0j), ("fraction", 2.5)]


def _rejected_values(annotation):
    """The BAD_VALUES a field of this annotation rejects: its own type is left out."""
    own = {"None": "| None" in annotation, "str": annotation == "str",
           "fraction": annotation != "int", "huge-int": annotation.startswith("int")}
    return [(name, value) for name, value in BAD_VALUES if not own.get(name)]


BAD_PARAMETER_CASES = [
    pytest.param(cls, name, value, id=f"{value_id}-{cls.__name__}-{name}")
    for cls, name, annotation in [
        *((cls, f.name, f.type) for cls in PARAM_CLASSES for f in dataclasses.fields(cls)),
        *((fn, name, "float") for fn, name in PARAM_CALLS),
    ]
    for value_id, value in _rejected_values(annotation)
] + [
    # within float64's range, but its square is not
    pytest.param(lf.diffusion.SamplerParams, "noise_scale", 10**200,
                 id="huge-square-SamplerParams-noise_scale"),
]


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom")
    assert main(["phantom", "--kind", "two-disks", "--size", "64", "--seed", "7",
                 "--out", str(out)]) == 0
    return out


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig()
        doc = cfg.to_dict()
        back = config_from_dict(doc)
        assert back == cfg

    def test_unknown_top_level_key(self):
        doc = ExperimentConfig().to_dict()
        doc["turbo"] = True
        with pytest.raises(InvalidInputError):
            config_from_dict(doc)

    def test_unknown_section_key(self):
        doc = ExperimentConfig().to_dict()
        doc["weights"]["lambda5"] = 1.0
        with pytest.raises(InvalidInputError):
            config_from_dict(doc)

    def test_version_checked(self):
        doc = ExperimentConfig().to_dict()
        doc["schema_version"] = 99
        with pytest.raises(InvalidInputError):
            config_from_dict(doc)

    def test_manifest_detected(self, phantom_dir):
        cfg, args = load_config_document(phantom_dir / "manifest.json", "phantom")
        assert args is not None
        assert args["kind"] == "two-disks"
        assert cfg.seed == 0  # config seed untouched; run seed lives in args

    def test_manifest_without_config(self, phantom_dir, tmp_path):
        doc = json.load(open(phantom_dir / "manifest.json"))
        del doc["config"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match="config"):
            load_config_document(path, "phantom")
        assert main(["phantom", "--config", str(path), "--out", str(tmp_path / "x")]) == 1

    def test_manifest_of_another_subcommand_rejected(self, phantom_dir, tmp_path, capsys):
        # an evolve run's --steps, --image and --seed must not become a sample's
        image = str(phantom_dir / "fields/image.lsf1")
        gt = str(phantom_dir / "fields/gt_mask.lsf1")
        evolve = tmp_path / "evolve"
        assert main(["evolve", "--image", image, "--init-box", "8,8,56,56", "--steps", "7",
                     "--out", str(evolve)]) == 0
        manifest = evolve / "manifest.json"
        with pytest.raises(InvalidInputError, match="only the 'evolve' subcommand, not 'sample'"):
            load_config_document(manifest, "sample")
        out = tmp_path / "sample"
        rc = main(["sample", "--config", str(manifest), "--mode-mask", gt, "--out", str(out)])
        _assert_rejected(capsys, rc, str(manifest), "'evolve'", "'sample'")
        assert not out.exists()

    @pytest.mark.parametrize("args", ["abc", 5, [["seed", 1]]])
    def test_manifest_args_not_an_object(self, phantom_dir, tmp_path, args):
        doc = json.load(open(phantom_dir / "manifest.json"))
        doc["args"] = args
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        assert main(["phantom", "--config", str(path), "--out", str(tmp_path / "x")]) == 1

    # Each field of every parameter dataclass, with each value it rejects.
    @pytest.mark.parametrize("cls, field, value", BAD_PARAMETER_CASES)
    def test_non_finite_parameter_rejected(self, cls, field, value):
        with pytest.raises(InvalidInputError, match=field):
            cls(**{**BASE_KWARGS.get(cls, {}), field: value})

    @pytest.mark.parametrize(
        "cls, field, annotation",
        [pytest.param(cls, f.name, f.type, id=f"{cls.__name__}-{f.name}")
         for cls in PARAM_CLASSES for f in dataclasses.fields(cls) if f.type != "str"],
    )
    def test_numpy_scalar_parameter_accepted(self, cls, field, annotation):
        value = getattr(cls(**BASE_KWARGS.get(cls, {})), field)
        kind = np.int64 if annotation == "int" else np.float32
        built = cls(**{**BASE_KWARGS.get(cls, {}), field: kind(1.0 if value is None else value)})
        assert type(getattr(built, field)) is kind

    def test_parameter_classes_share_one_check(self):
        assert len(PARAM_CLASSES) == 13
        assert set(config._SECTION_TYPES.values()) <= set(PARAM_CLASSES)
        for cls in PARAM_CLASSES:
            assert issubclass(cls, lf.errors.Params) and dataclasses.is_dataclass(cls), cls

    @pytest.mark.parametrize(
        "cls, field",
        [pytest.param(cls, f.name, id=f"{cls.__name__}-{f.name}")
         for cls in PARAM_CLASSES for f in dataclasses.fields(cls) if f.type == "str"],
    )
    def test_str_field_declares_its_choices(self, cls, field):
        rule = cls.__dataclass_fields__[field].metadata.get("rule")
        assert rule is not None and rule.text.startswith("one of "), rule
        choices = rule.text.removeprefix("one of ").split(", ")
        assert all(rule.test(c) for c in choices) and not rule.test("x")

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "1e999"])
    def test_non_finite_number_rejected(self, tmp_path, number):
        text = json.dumps(ExperimentConfig().to_dict()).replace('"dt": 0.1', f'"dt": {number}')
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match="non-finite"):
            load_config_document(path, "phantom")
        assert main(["phantom", "--config", str(path), "--out", str(tmp_path / "x")]) == 1


    @pytest.mark.parametrize(
        "section, key, value",
        [("heaviside", "epsilon", "abc"), ("area", "a1_target", "abc"),
         ("sampler", "distance_refresh", "x")],
    )
    def test_config_value_of_wrong_type_rejected(self, tmp_path, section, key, value):
        doc = ExperimentConfig().to_dict()
        doc[section][key] = value
        with pytest.raises(InvalidInputError, match=f"{section}.{key}"):
            config_from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["phantom", "--config", str(path), "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("seed", [None, "7", 1.5, True])
    def test_config_seed_of_wrong_type_rejected(self, tmp_path, seed):
        # a null seed used to reach PhantomSpec and crash with a TypeError
        doc = {**ExperimentConfig().to_dict(), "seed": seed}
        with pytest.raises(InvalidInputError, match="config seed"):
            config_from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["phantom", "--kind", "two-disks", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 1

    def test_schedule_that_cannot_run_rejected_at_load(self, tmp_path, capsys):
        # alpha_bar_T underflows to 0 over 1000 steps from beta1 0.5; the
        # schedule section builds its chain, so the document fails to load
        doc = ExperimentConfig().to_dict()
        doc["schedule"].update(steps=1000, beta1=0.5, betaT=0.99)
        message = "config schedule.steps must be few enough that alpha_bar_T > 0, got 1000"
        with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
            config_from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["phantom", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"levelflow: invalid input: {message}\n"
        assert not (tmp_path / "x").exists()

    @staticmethod
    def _losses(phantom_dir, out, *extra):
        return main(["losses", "--image", str(phantom_dir / "fields/image.lsf1"),
                     "--mask", str(phantom_dir / "fields/gt_mask.lsf1"), "--t", "5",
                     "--steps", "12", "--beta1", "0.01", "--betaT", "0.3", "--out", str(out),
                     *extra])

    def test_manifest_with_retired_settings_replays(self, phantom_dir, tmp_path):
        # manifests written before schedule.kind, the numerics section, the
        # area override and par.sigma_floor/features were removed hold the
        # one value each ever took
        assert self._losses(phantom_dir, tmp_path / "run") == 0
        doc = json.load(open(tmp_path / "run/manifest.json"))
        doc["config"]["schedule"]["kind"] = "linear"
        doc["config"]["numerics"] = {"mapping": "offset", "var_floor": 1e-06, "grad_floor": 1e-08}
        doc["config"]["par"].update(sigma_floor=0.0001, features="intensity")
        doc["config"]["area"].update(a2_target=None, overridden=False)
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(doc))
        assert main(["losses", "--config", str(old), "--out", str(tmp_path / "replay")]) == 0
        assert tree_hashes(tmp_path / "replay") == tree_hashes(tmp_path / "run")

    @pytest.mark.parametrize(
        "section, key, value",
        [("numerics", "mapping", "literal"), ("schedule", "kind", "cosine"),
         ("numerics", "var_floor", 1e-4), ("numerics", "grad_floor", 1e-6),
         ("par", "sigma_floor", 1e-3), ("numerics", "eps", 1e-6),
         ("area", "a2_target", 50.0), ("area", "overridden", True),
         ("area", "overridden", 0), ("area", "overridden", "yes"),
         ("par", "features", "intensity-xy")],
    )
    def test_retired_setting_at_another_value_rejected(
        self, phantom_dir, tmp_path, capsys, section, key, value
    ):
        doc = ExperimentConfig().to_dict()
        doc.setdefault(section, {})[key] = value
        with pytest.raises(InvalidInputError, match=f"{section}.{key}"):
            config_from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert self._losses(phantom_dir, tmp_path / "x", "--config", str(path)) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_retired_keys_are_not_live_fields(self):
        doc = ExperimentConfig().to_dict()
        assert [place for place in config._RETIRED if place[1] in doc.get(place[0], {})] == []

    def test_settable_values_pinned(self):
        # Each of the 26 config leaves is a setting that tests and the
        # benchmark have to cover; adding one means editing this list.
        doc = ExperimentConfig().to_dict()
        del doc["schema_version"]  # fixed by the code, not settable
        leaves = []
        for name, value in doc.items():
            leaves += [f"{name}.{key}" for key in value] if isinstance(value, dict) else [name]
        assert sorted(leaves) == [
            "area.a1_target",
            "evolve.dt", "evolve.stats_refresh", "evolve.steps",
            "guidance.gamma0", "guidance.schedule",
            "heaviside.epsilon",
            "losses.eta1", "losses.eta2", "losses.w_t",
            "par.tau",
            "sampler.distance_refresh", "sampler.ensemble", "sampler.guidance_space",
            "sampler.noise_scale",
            "schedule.beta1", "schedule.betaT", "schedule.steps",
            "seed",
            "speed.beta_g", "speed.eps_d", "speed.nu",
            "weights.lambda1", "weights.lambda2", "weights.lambda3", "weights.lambda4",
        ]

    def test_oversized_integer_rejected(self, tmp_path):
        digits = "9" * 5000  # beyond the interpreter's integer conversion limit
        text = json.dumps(ExperimentConfig().to_dict()).replace('"seed": 0', f'"seed": {digits}')
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["phantom", "--config", str(path), "--out", str(tmp_path / "x")]) == 1


class TestPhantomCommand:
    def test_layout_and_manifest(self, phantom_dir):
        for rel in ("fields/image.lsf1", "fields/gt_mask.lsf1", "fields/image.pgm",
                    "reports/phantom.json", "manifest.json"):
            assert (phantom_dir / rel).exists()
        manifest = json.load(open(phantom_dir / "manifest.json"))
        assert manifest["command"] == "phantom"
        assert manifest["seed"] == 7
        assert manifest["rng_algorithm"]
        assert set(manifest["artifacts"]) == {
            "fields/image.lsf1", "fields/gt_mask.lsf1", "fields/image.pgm",
            "reports/phantom.json",
        }

    def test_flag_rerun_identical(self, phantom_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(["phantom", "--kind", "two-disks", "--size", "64", "--seed", "7",
                     "--out", str(out2)]) == 0
        assert tree_hashes(phantom_dir) == tree_hashes(out2)

    def test_manifest_rerun_identical(self, phantom_dir, tmp_path):
        out2 = tmp_path / "rerun"
        assert main(["phantom", "--config", str(phantom_dir / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert tree_hashes(phantom_dir) == tree_hashes(out2)

    def test_different_seed_differs(self, phantom_dir, tmp_path):
        out2 = tmp_path / "seed9"
        assert main(["phantom", "--kind", "two-disks", "--size", "64", "--seed", "9",
                     "--noise-sigma", "0.1", "--out", str(out2)]) == 0
        out3 = tmp_path / "seed10"
        assert main(["phantom", "--kind", "two-disks", "--size", "64", "--seed", "10",
                     "--noise-sigma", "0.1", "--out", str(out3)]) == 0
        h2 = tree_hashes(out2)
        h3 = tree_hashes(out3)
        assert h2["fields/image.lsf1"] != h3["fields/image.lsf1"]


class TestEnergyCommand:
    def test_report_keys(self, phantom_dir, tmp_path):
        out = tmp_path / "energy"
        rc = main(["energy", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(phantom_dir / "fields/gt_mask.lsf1"), "--out", str(out)])
        assert rc == 0
        doc = json.load(open(out / "reports/energy.json"))
        assert {"region", "length", "area", "distance", "total", "weights"} <= set(doc)
        w = doc["weights"]
        assert (w["lambda1"], w["lambda2"], w["lambda3"], w["lambda4"]) == (
            0.01, 0.01, 0.0001, 0.001,
        )
        assert (out / "fields/distance.lsf1").exists()

    def test_flags_override_config(self, phantom_dir, tmp_path):
        cfg_doc = ExperimentConfig().to_dict()
        cfg_doc["weights"]["lambda1"] = 0.5
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        out = tmp_path / "energy_cfg"
        rc = main(["energy", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(phantom_dir / "fields/gt_mask.lsf1"),
                   "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        doc = json.load(open(out / "reports/energy.json"))
        assert doc["weights"]["lambda1"] == 0.5

    def test_bad_config_rejected(self, phantom_dir, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"schema_version": 1, "nonsense": {}}))
        rc = main(["energy", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(phantom_dir / "fields/gt_mask.lsf1"),
                   "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1


class TestEvolveCommand:
    def test_box_init_run(self, phantom_dir, tmp_path):
        out = tmp_path / "evolve"
        rc = main(["evolve", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--init-box", "13,13,51,51", "--gt", str(phantom_dir / "fields/gt_mask.lsf1"),
                   "--dt", "1.0", "--steps", "60", "--out", str(out)])
        assert rc == 0
        doc = json.load(open(out / "reports/evolve.json"))
        assert doc["steps"] == 60
        assert 0.0 <= doc["dice"] <= 1.0
        trace = open(out / "traces/energy.csv").read().splitlines()
        assert trace[0] == "step,e_region,e_length,e_area,e_distance,e_total"
        assert len(trace) == 61

    def test_requires_exactly_one_init(self, phantom_dir, tmp_path):
        rc = main(["evolve", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--out", str(tmp_path / "e1")])
        assert rc == 1

    @pytest.mark.parametrize("box", ["1,2,3", "a,b,c,d"])
    def test_malformed_init_box_exits_1_and_writes_nothing(self, phantom_dir, tmp_path, capsys,
                                                           box):
        out = tmp_path / "e"
        rc = main(["evolve", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--init-box", box, "--steps", "2", "--out", str(out)])
        assert rc == 1
        assert f"--init-box expects 'r0,c0,r1,c1', got {box!r}" in capsys.readouterr().err
        assert not out.exists()


class TestOtherCommands:
    def test_td_verify(self, phantom_dir, tmp_path):
        out = tmp_path / "td"
        rc = main(["td-verify", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(phantom_dir / "fields/gt_mask.lsf1"),
                   "--model", "cv", "--radius", "2", "--samples", "50",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        doc = json.load(open(out / "reports/td_verify.json"))
        assert doc["sign-agreement-rate"] == 1.0
        assert doc["median-rel-err"] <= 0.10

    def test_geodesic(self, phantom_dir, tmp_path):
        out = tmp_path / "geo"
        rc = main(["geodesic", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(phantom_dir / "fields/gt_mask.lsf1"), "--out", str(out)])
        assert rc == 0
        dist = lf.load_field(out / "fields/distance.lsf1")
        gt = lf.load_field(phantom_dir / "fields/gt_mask.lsf1")
        assert np.all(dist[gt > 0.5] == 0.0)
        doc = json.load(open(out / "reports/geodesic.json"))
        assert not doc["flat"]

    def test_geodesic_grid_smaller_than_init_radius(self, tmp_path):
        image = np.zeros((6, 40))
        image[:, 20:] = 1.0
        mask = np.zeros((6, 40))
        mask[2:4, 5:8] = 1.0
        lf.save_field(image, tmp_path / "image.lsf1")
        lf.save_field(mask, tmp_path / "mask.lsf1")
        rc = main(["geodesic", "--image", str(tmp_path / "image.lsf1"),
                   "--mask", str(tmp_path / "mask.lsf1"), "--out", str(tmp_path / "geo")])
        assert rc == 0

    def test_geodesic_overflowing_speed_exits_2(self, phantom_dir, tmp_path, capsys):
        # printed RuntimeWarnings, then blamed a non-finite number in the report
        out = tmp_path / "geo"
        rc = main(["geodesic", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(phantom_dir / "fields/gt_mask.lsf1"), "--eps-d", "1e300",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(
            "levelflow: numerical failure: eikonal update overflows float64; rescale the speed"
        )
        assert err.count("\n") == 1
        assert not (out / "reports/geodesic.json").exists()

    def test_par(self, phantom_dir, tmp_path):
        out = tmp_path / "par"
        rc = main(["par", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(phantom_dir / "fields/gt_mask.lsf1"),
                   "--gt", str(phantom_dir / "fields/gt_mask.lsf1"),
                   "--tau", "10", "--out", str(out)])
        assert rc == 0
        doc = json.load(open(out / "reports/par.json"))
        assert doc["tau"] == 10
        assert doc["l-par"] >= 0.0
        assert doc["l-par-mean"] == pytest.approx(doc["l-par"] / 4096)

    def test_sample_and_losses_and_metrics(self, phantom_dir, tmp_path):
        mode_dir = tmp_path / "modes"
        mode_dir.mkdir()
        disk = lf.load_field(phantom_dir / "fields/gt_mask.lsf1")
        lf.save_field(disk, mode_dir / "disk.lsf1")
        lf.save_field(1.0 - disk, mode_dir / "inv.lsf1")

        out = tmp_path / "sample"
        rc = main(["sample", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mode-mask", str(mode_dir / "disk.lsf1"),
                   "--mode-mask", str(mode_dir / "inv.lsf1"),
                   "--steps", "12", "--beta1", "0.01", "--betaT", "0.3",
                   "--gamma0", "0.2", "--seed", "4", "--a1", "632", "--out", str(out)])
        assert rc == 0
        mask = lf.load_field(out / "fields/mask.lsf1")
        assert mask.min() >= 0.0 and mask.max() <= 1.0
        trace = open(out / "traces/energy.csv").read().splitlines()
        assert len(trace) == 13
        assert trace[1].startswith("12,")

        out2 = tmp_path / "losses"
        rc = main(["losses", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(phantom_dir / "fields/gt_mask.lsf1"),
                   "--t", "5", "--steps", "12", "--beta1", "0.01", "--betaT", "0.3",
                   "--seed", "4", "--out", str(out2)])
        assert rc == 0
        doc = json.load(open(out2 / "reports/losses.json"))
        assert doc["l-dpm"] == 0.0  # eps-hat defaults to the true noise
        assert doc["total"] == pytest.approx(
            doc["l-dpm"] + 0.5 * doc["l-lsf"] + 0.005 * doc["l-par"]
        )

        out3 = tmp_path / "metrics"
        rc = main(["metrics", "--pred", str(out / "fields/mask.lsf1"),
                   "--gt", str(phantom_dir / "fields/gt_mask.lsf1"), "--out", str(out3)])
        assert rc == 0
        doc = json.load(open(out3 / "reports/metrics.json"))
        assert doc["tp"] + doc["fp"] + doc["fn"] + doc["tn"] == 4096
        csv_lines = open(out3 / "reports/metrics.csv").read().splitlines()
        assert csv_lines[0] == "dice,jaccard,precision,recall,tp,fp,fn,tn"
        assert len(csv_lines) == 2

    def test_sample_frozen_eps_provider(self, phantom_dir, tmp_path):
        eps_path = tmp_path / "eps.lsf1"
        lf.save_field(np.zeros((64, 64)), eps_path)
        out = tmp_path / "frozen"
        rc = main(["sample", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--frozen-eps", str(eps_path), "--steps", "6",
                   "--beta1", "0.01", "--betaT", "0.3", "--gamma0", "0",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        doc = json.load(open(out / "reports/sample.json"))
        assert doc["modes"] == 0
        # both provider styles given at once is a validation error
        rc = main(["sample", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--frozen-eps", str(eps_path),
                   "--mode-mask", str(phantom_dir / "fields/gt_mask.lsf1"),
                   "--out", str(tmp_path / "both")])
        assert rc == 1

    def test_sample_mode_mask_of_another_size_invalid(self, phantom_dir, tmp_path, capsys):
        small = tmp_path / "small.lsf1"
        lf.save_field(np.zeros((32, 32)), small)
        rc = main(["sample", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mode-mask", str(small), "--steps", "4", "--out", str(tmp_path / "s")])
        assert rc == 1
        assert "(32, 32)" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, phantom_dir, tmp_path):
        # near-hard Heaviside plus an all-ones mask starves the outside
        # region: numerical failure, exit code 2
        cfg_doc = ExperimentConfig().to_dict()
        cfg_doc["heaviside"]["epsilon"] = 1e-14
        cfg_path = tmp_path / "sharp.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        ones = tmp_path / "ones.lsf1"
        lf.save_field(np.ones((64, 64)), ones)
        rc = main(["energy", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(ones), "--config", str(cfg_path),
                   "--out", str(tmp_path / "fail")])
        assert rc == 2

    def test_missing_subcommand_invalid(self):
        assert main([]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_flag_invalid(self, phantom_dir, tmp_path, value):
        gt = str(phantom_dir / "fields/gt_mask.lsf1")
        rc = main(["metrics", "--pred", gt, "--gt", gt, "--threshold", value,
                   "--out", str(tmp_path / "m")])
        assert rc == 1
        assert not (tmp_path / "m/reports/metrics.json").exists()

    def test_non_finite_report_value_fails_cleanly(self, phantom_dir, tmp_path, capsys):
        # a hand-edited manifest can carry a threshold string that float()
        # reads as NaN; it is rejected as input like the flag would be
        gt = str(phantom_dir / "fields/gt_mask.lsf1")
        assert main(["metrics", "--pred", gt, "--gt", gt, "--out", str(tmp_path / "m0")]) == 0
        doc = json.load(open(tmp_path / "m0/manifest.json"))
        doc["args"]["threshold"] = "nan"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        assert main(["metrics", "--config", str(edited), "--out", str(tmp_path / "m1")]) == 1
        assert "--threshold" in capsys.readouterr().err
        assert not (tmp_path / "m1/reports/metrics.json").exists()

    def test_non_finite_report_is_named_and_nothing_written(self, tmp_path):
        # the guard behind every validator: no file is written before each
        # report is known to encode as standard JSON
        files = {"reports/ok.json": {"x": 1.0}, "reports/bad.json": {"x": float("nan")}}
        with pytest.raises(lf.LevelflowError, match="^reports/bad.json would hold a non-finite"):
            cli._publish(str(tmp_path / "out"), "metrics", ExperimentConfig(), {}, files)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value", [("size", "abc"), ("fg", [1]), ("threshold", "nan")],
        ids=["size-text", "fg-list", "threshold-nan"],
    )
    def test_bad_manifest_arg_names_the_flag(self, phantom_dir, tmp_path, capsys, key, value):
        if key == "threshold":
            gt = str(phantom_dir / "fields/gt_mask.lsf1")
            assert main(["metrics", "--pred", gt, "--gt", gt, "--out", str(tmp_path / "m")]) == 0
            doc = json.load(open(tmp_path / "m/manifest.json"))
        else:
            doc = json.load(open(phantom_dir / "manifest.json"))
        doc["args"][key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        out = tmp_path / "replay"
        assert main([doc["command"], "--config", str(edited), "--out", str(out)]) == 1
        assert f"--{key}" in capsys.readouterr().err
        assert not list(out.rglob("*.json"))

    def test_energy_shape_mismatch_names_both_shapes(self, phantom_dir, tmp_path, capsys):
        small = tmp_path / "small.lsf1"
        lf.save_field(np.zeros((32, 40)), small)
        rc = main(["energy", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(small), "--out", str(tmp_path / "e")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "(64, 64)" in err and "(32, 40)" in err

    @pytest.mark.parametrize("command", ["phantom", "energy", "evolve", "td-verify", "geodesic",
                                         "par", "sample", "metrics", "losses"])
    def test_help_lists_every_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        _, _, rows = cli._COMMANDS[command]
        for name, *_ in rows:
            assert f"--{name} " in out

    def test_unallocatable_step_count_exits_2_without_traceback(
        self, phantom_dir, tmp_path, capsys
    ):
        # a schedule of 10**16 steps needs 80 PB, beyond any address space,
        # so numpy refuses it at once and nothing is allocated
        rc = main(["losses", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(phantom_dir / "fields/gt_mask.lsf1"), "--t", "5",
                   "--steps", str(10**16), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("levelflow: out of memory:") and "Traceback" not in err

    def test_unallocatable_config_step_count_exits_2_without_traceback(self, tmp_path, capsys):
        # the schedule section builds its chain at load, and 10**16 steps
        # need 71 PiB, so numpy refuses them at once
        doc = ExperimentConfig().to_dict()
        doc["schedule"]["steps"] = 10**16
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        rc = main(["phantom", "--config", str(path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("levelflow: out of memory:") and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_degenerate_final_trace_row_is_json_null(self, phantom_dir, tmp_path):
        # a near-hard Heaviside and a noise prediction that drives every
        # pixel inside leave the outside region empty at every step
        cfg_doc = ExperimentConfig().to_dict()
        cfg_doc["heaviside"]["epsilon"] = 1e-14
        cfg_path = tmp_path / "sharp.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        eps_path = tmp_path / "eps.lsf1"
        lf.save_field(np.full((64, 64), -1000.0), eps_path)
        out = tmp_path / "degenerate"
        rc = main(["sample", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--frozen-eps", str(eps_path), "--config", str(cfg_path), "--steps", "4",
                   "--beta1", "0.01", "--betaT", "0.3", "--gamma0", "0", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        text = (out / "reports/sample.json").read_text()
        doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-standard {c}"))
        assert set(doc["final"].values()) == {None}

    def test_inputs_never_mutated(self, phantom_dir, tmp_path):
        image_path = phantom_dir / "fields/image.lsf1"
        mask_path = phantom_dir / "fields/gt_mask.lsf1"
        before = (image_path.read_bytes(), mask_path.read_bytes())
        for name, args in (
            ("m1", ["energy", "--image", str(image_path), "--mask", str(mask_path)]),
            ("m2", ["par", "--image", str(image_path), "--mask", str(mask_path), "--tau", "3"]),
            ("m3", ["geodesic", "--image", str(image_path), "--mask", str(mask_path)]),
        ):
            assert main(args + ["--out", str(tmp_path / name)]) == 0
        assert (image_path.read_bytes(), mask_path.read_bytes()) == before


# A child interpreter makes a 128x128 phantom, runs a 20-step unguided
# sample on it twice and prints the minor page faults of the second run.
FAULTS_CHILD = """
import resource, sys, tempfile
from levelflow.cli import main
d = tempfile.mkdtemp()
assert main(["phantom", "--kind", "two-disks", "--size", "128", "--out", d + "/p"]) == 0
argv = ["sample", "--image", d + "/p/fields/image.lsf1", "--mode-mask",
        d + "/p/fields/gt_mask.lsf1", "--steps", "20", "--gamma0", "0", "--out", d + "/s"]
assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocatorPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt policy is glibc's")
    def test_repeated_sample_keeps_its_heap(self):
        # Trimming the heap after each step costs about 4 800 faults here.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = {**os.environ, "PYTHONPATH": src}
        child = subprocess.run([sys.executable, "-c", FAULTS_CHILD], env=env,
                               capture_output=True, text=True, check=True)
        assert int(child.stdout) < 500

    @pytest.mark.parametrize("lookup", ["raises", "no-mallopt"])
    def test_policy_is_optional(self, phantom_dir, tmp_path, monkeypatch, capsys, lookup):
        argv = ["sample", "--image", str(phantom_dir / "fields/image.lsf1"),
                "--mode-mask", str(phantom_dir / "fields/gt_mask.lsf1"),
                "--steps", "5", "--gamma0", "0", "--seed", "2", "--out"]
        assert main(argv + [str(tmp_path / "plain")]) == 0
        capsys.readouterr()
        calls = []

        def cdll(name):
            calls.append(name)
            if lookup == "raises":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        cli._keep_freed_heap.cache_clear()
        try:
            assert main(argv + [str(tmp_path / "patched")]) == 0
        finally:
            cli._keep_freed_heap.cache_clear()
        assert calls == [None]
        assert capsys.readouterr().err == ""
        manifests = [(tmp_path / d / "manifest.json").read_bytes() for d in ("plain", "patched")]
        assert manifests[0] == manifests[1]


# A child interpreter runs the argument lists given as JSON in argv[1] in
# order and fails on a non-zero exit.
FRESH_CHILD = """
import json, sys
from levelflow.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


class TestParserReuse:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_manifests_match_a_fresh_interpreter(self, phantom_dir, tmp_path):
        image = str(phantom_dir / "fields/image.lsf1")
        gt = str(phantom_dir / "fields/gt_mask.lsf1")
        runs = [
            ["evolve", "--image", image, "--init-box", "13,13,51,51", "--steps", "5",
             "--out", str(tmp_path / "evolve")],
            ["sample", "--image", image, "--mode-mask", gt, "--steps", "5", "--seed", "4",
             "--out", str(tmp_path / "sample")],
            ["metrics", "--pred", str(tmp_path / "sample/fields/mask.lsf1"), "--gt", gt,
             "--out", str(tmp_path / "metrics")],
        ]
        manifests = [tmp_path / argv[0] / "manifest.json" for argv in runs]
        for argv in runs:
            assert main(argv) == 0
        here = [m.read_bytes() for m in manifests]
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        subprocess.run([sys.executable, "-c", FRESH_CHILD, json.dumps(runs)],
                       env={**os.environ, "PYTHONPATH": src}, check=True)
        assert here == [m.read_bytes() for m in manifests]

    @pytest.mark.parametrize("bad, flag", [
        (["--threshold"], "--threshold"),
        (["--bogus", "1"], "--bogus"),
    ])
    def test_bad_argv_after_a_success(self, phantom_dir, tmp_path, capsys, bad, flag):
        argv = ["metrics", "--pred", str(phantom_dir / "fields/gt_mask.lsf1"),
                "--gt", str(phantom_dir / "fields/gt_mask.lsf1"), "--out", str(tmp_path / "m")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + bad) == 1
        assert flag in capsys.readouterr().err
        assert main(argv) == 0

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_is_the_same_on_every_call(self, capsys, command):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


# Number tokens a strict config reader must refuse; the strategy stores a
# placeholder string and swaps the bare token in after encoding.
RAW_NUMBERS = ("NaN", "Infinity", "-Infinity", "1e999", "9" * 4301)
# Every (section, key) of the default config, top-level keys under section
# "", the retired keys, and keys no version ever had.
CONFIG_PLACES = sorted(
    {(s, k) for s, v in ExperimentConfig().to_dict().items() if isinstance(v, dict) for k in v}
    | {("", "seed"), ("", "schema_version"), ("", "turbo"), ("weights", "lambda5")}
    | set(config._RETIRED) | {("numerics", "eps")}
)
CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(-1e3, 1e3),
    st.text(max_size=3), st.just([]), st.just({}),
    st.sampled_from(list(config._RETIRED.values())),
    st.sampled_from(RAW_NUMBERS).map(lambda raw: f"<raw {raw}>"),
)


@st.composite
def mutated_config_text(draw):
    """A default config with up to three keys or sections set, swapped or dropped."""
    doc = ExperimentConfig().to_dict()
    for _ in range(draw(st.integers(1, 3))):
        section, key = draw(st.sampled_from(CONFIG_PLACES))
        target = doc if section == "" else doc.setdefault(section, {})
        op = draw(st.sampled_from(["set", "drop-key", "swap-section", "drop-section"]))
        if op == "swap-section":
            doc[section or key] = draw(CONFIG_VALUES)
        elif op == "drop-section":
            doc.pop(section or key, None)
        elif isinstance(target, dict) and op == "set":
            target[key] = draw(CONFIG_VALUES)
        elif isinstance(target, dict):
            target.pop(key, None)
    text = json.dumps(doc)
    for raw in RAW_NUMBERS:
        text = text.replace(json.dumps(f"<raw {raw}>"), raw)
    return text


# Values outside each settable key's range; its section's dataclass rejects
# every one at load, whatever the subcommand.  An int past float64's range
# (10**400) compares below inf, and 10**200 has no finite float square.
OUT_OF_RANGE = {
    ("heaviside", "epsilon"): [0, -1.5, 10**400],
    ("weights", "lambda1"): [-0.01, 10**400],
    ("weights", "lambda2"): [-1, 10**400],
    ("weights", "lambda3"): [-1e-4, 10**400],
    ("weights", "lambda4"): [-2.0, 10**400],
    ("area", "a1_target"): [-1.0, 10**400],
    ("speed", "eps_d"): [0, -1e-3, 10**400],
    ("speed", "beta_g"): [-1, 10**400],
    ("speed", "nu"): [-0.5, 10**400],
    ("par", "tau"): [-1],
    ("schedule", "steps"): [0, -5],
    ("schedule", "beta1"): [0, -1e-4, 1, 2.5, 10**400],
    ("schedule", "betaT"): [1, 1e-5, 10**400],
    ("guidance", "gamma0"): [-0.3, 10**400],
    ("guidance", "schedule"): ["x", ""],
    ("sampler", "ensemble"): [0, -1],
    ("sampler", "distance_refresh"): [0, -50],
    ("sampler", "noise_scale"): [-0.1, 1e200, 10**200],
    ("sampler", "guidance_space"): ["x", "Noise"],
    ("evolve", "dt"): [-0.1, 10**400],
    ("evolve", "steps"): [0, -5],
    ("evolve", "stats_refresh"): [0],
    ("losses", "eta1"): [-0.5, 10**400],
    ("losses", "eta2"): [-1, 10**400],
    ("losses", "w_t"): [0, -1.0, 10**400],
}
OUT_OF_RANGE_CASES = [(s, k, v) for (s, k), values in OUT_OF_RANGE.items() for v in values]


def _power_id(value):
    """``10**n`` for a power of ten too long to read; None keeps pytest's own id."""
    if type(value) is int and value >= 10**100:
        return f"10**{len(str(value)) - 1}"
    return None


def _sample_with(ensemble=1, distance_refresh=50, guidance_space="noise"):
    return lf.sample(np.eye(8), lf.FrozenFieldProvider(np.zeros((8, 8))), lf.make_schedule(2),
                     lf.GuidancePolicy(), seed=0, ensemble=ensemble,
                     guidance_space=guidance_space, distance_refresh=distance_refresh)


# For each key whose value a library function takes as an argument, a call of it.
LIBRARY_CALLS = {
    ("schedule", "steps"): lambda v: lf.make_schedule(v),
    ("schedule", "beta1"): lambda v: lf.make_schedule(10, beta1=v),
    ("schedule", "betaT"): lambda v: lf.make_schedule(10, betaT=v),
    ("evolve", "dt"): lambda v: lf.evolve(**BASE_KWARGS[lf.evolve], dt=v),
    ("evolve", "steps"): lambda v: lf.evolve(**BASE_KWARGS[lf.evolve], steps=v),
    ("evolve", "stats_refresh"): lambda v: lf.evolve(**BASE_KWARGS[lf.evolve], stats_refresh=v),
    ("losses", "eta1"): lambda v: lf.total_loss(1.0, 2.0, 3.0, eta1=v),
    ("losses", "eta2"): lambda v: lf.total_loss(1.0, 2.0, 3.0, eta2=v),
    ("losses", "w_t"): lambda v: lf.dpm_loss(**BASE_KWARGS[lf.dpm_loss], w_t=v),
    ("sampler", "ensemble"): lambda v: _sample_with(ensemble=v),
    ("sampler", "distance_refresh"): lambda v: _sample_with(distance_refresh=v),
    ("sampler", "guidance_space"): lambda v: _sample_with(guidance_space=v),
    ("guidance", "schedule"): lambda v: lf.GuidancePolicy(schedule=v),
    ("par", "tau"): lambda v: lf.refine(np.zeros((4, 4)), lf.affinity_kernel(np.eye(4)), v),
}


class TestConfigRanges:
    def test_every_section_key_has_out_of_range_values(self):
        doc = ExperimentConfig().to_dict()
        keys = {(s, k) for s, v in doc.items() if isinstance(v, dict) for k in v}
        assert set(OUT_OF_RANGE) == keys
        assert set(LIBRARY_CALLS) <= keys

    @pytest.mark.parametrize(
        "section, key, value", [case for case in OUT_OF_RANGE_CASES if case[:2] in LIBRARY_CALLS],
        ids=_power_id,
    )
    def test_library_rejects_what_the_config_rejects(self, section, key, value):
        with pytest.raises(InvalidInputError, match=rf"^{key}\b"):
            LIBRARY_CALLS[section, key](value)

    @pytest.mark.parametrize("section, key, value", OUT_OF_RANGE_CASES, ids=_power_id)
    def test_out_of_range_value_rejected_naming_the_key(self, section, key, value):
        doc = ExperimentConfig().to_dict()
        doc[section][key] = value
        with pytest.raises(InvalidInputError, match=rf"^config {section}\.{key}\b"):
            config_from_dict(doc)


class TestConfigFuzz:
    @settings(max_examples=40)
    @given(st.lists(st.sampled_from(OUT_OF_RANGE_CASES), min_size=1, max_size=3,
                    unique_by=lambda case: case[:2]))
    def test_out_of_range_values_exit_1_naming_one(self, cases):
        doc = ExperimentConfig().to_dict()
        for section, key, value in cases:
            doc[section][key] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["phantom", "--kind", "two-disks", "--size", "32", "--config", cfg,
                           "--out", out])
            assert rc == 1
            named = re.match(r"levelflow: invalid input: config (\w+\.\w+)\b", err.getvalue())
            assert named and named[1] in [f"{s}.{k}" for s, k, _ in cases]
            assert not os.path.exists(out)

    @settings(max_examples=50)
    @given(mutated_config_text())
    def test_mutated_config_exits_0_or_1_and_writes_standard_json(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = os.path.join(tmp, "out")
            rc = main(["phantom", "--kind", "two-disks", "--size", "32", "--config", cfg,
                       "--out", out])
            manifest = os.path.join(out, "manifest.json")
            assert rc in (0, 1)
            assert os.path.exists(manifest) == (rc == 0)
            if rc != 0:
                assert not os.path.exists(out)
            else:
                with open(manifest, encoding="utf-8") as fh:
                    json.load(fh, parse_constant=lambda c: pytest.fail(f"non-standard {c}"))


# The manifest-args fuzz replays energy, evolve and losses.  Integers come
# only from {-1, 0, 1, 10**15}: a mid-size count such as 10**8 steps would
# run for minutes or allocate GBs, while 10**15 steps is refused at once
# (its schedule or trace cannot be allocated).  The loop-count flags
# `ensemble` (sample) and `tau` (par) are excluded: they allocate nothing up
# front, so a huge value would loop for hours instead of failing fast.
FUZZED_COMMANDS = ("energy", "evolve", "losses")
ARG_VALUES = st.one_of(
    st.sampled_from([-1, 0, 1, 10**15]), st.none(), st.booleans(), st.floats(-4.0, 4.0),
    st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e999", "abc", ""]), st.just({}),
)


@st.composite
def args_mutations(draw):
    """A command plus up to three (op, key, value) edits of its manifest args."""
    command = draw(st.sampled_from(FUZZED_COMMANDS))
    flags = [name for name, *_ in cli._COMMANDS[command][2]]
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["swap", "listify", "drop", "extra"]))
        key = draw(st.sampled_from(["turbo", "out", "config"] if op == "extra" else flags))
        ops.append((op, key, draw(ARG_VALUES)))
    return command, ops


@pytest.fixture(scope="module")
def fuzz_manifests(tmp_path_factory):
    root = tmp_path_factory.mktemp("args_fuzz")
    assert main(["phantom", "--kind", "two-disks", "--size", "32", "--seed", "3",
                 "--out", str(root / "phantom")]) == 0
    image, gt = str(root / "phantom/fields/image.lsf1"), str(root / "phantom/fields/gt_mask.lsf1")
    runs = {
        "energy": ["energy", "--image", image, "--mask", gt],
        "evolve": ["evolve", "--image", image, "--init-box", "8,8,24,24", "--gt", gt,
                   "--steps", "3"],
        "losses": ["losses", "--image", image, "--mask", gt, "--t", "5"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(root / name)]) == 0
    return {name: json.loads((root / name / "manifest.json").read_text()) for name in runs}


class TestManifestArgsFuzz:
    @settings(max_examples=50)
    @given(mutation=args_mutations())
    def test_mutated_args_exit_0_1_or_2_with_matching_digests(self, fuzz_manifests, mutation):
        command, ops = mutation
        doc = json.loads(json.dumps(fuzz_manifests[command]))
        args = doc["args"]
        for op, key, value in ops:
            if op == "drop":
                args.pop(key, None)
            elif op == "listify":
                args[key] = [args.get(key)]
            else:
                args[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "manifest.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([command, "--config", path, "--out", out])
            assert rc in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if rc != 0:
                assert not os.path.exists(out)
                return
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                listed = json.load(fh)["artifacts"]
            assert listed == {rel: file_sha256(os.path.join(out, rel)) for rel in listed}


@pytest.fixture(scope="module")
def small_fields(tmp_path_factory):
    """A 16x16 image and mask that every field flag accepts."""
    root = tmp_path_factory.mktemp("small_fields")
    mask = np.zeros((16, 16))
    mask[4:12, 4:12] = 1.0
    image = mask + 0.05 * np.cos(np.arange(16))
    paths = {"image": str(root / "image.lsf1"), "mask": str(root / "mask.lsf1")}
    lf.save_field(image, paths["image"])
    lf.save_field(mask, paths["mask"])
    return paths


SMALL_SCHEDULE = ("--steps", "3", "--beta1", "0.01", "--betaT", "0.3")


class TestSeedRange:
    """A seed names one rng stream: only 0 <= seed < 2**64 is accepted."""

    SEEDED = {
        "sample": ("sample", "--image", "{image}", "--mode-mask", "{mask}", *SMALL_SCHEDULE),
        "losses": ("losses", "--image", "{image}", "--mask", "{mask}", "--t", "2",
                   *SMALL_SCHEDULE),
        "td-verify": ("td-verify", "--image", "{image}", "--mask", "{mask}", "--samples", "3"),
    }

    def argv(self, small_fields, command, out):
        return [a.format(**small_fields) for a in self.SEEDED[command]] + ["--out", str(out)]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_seed_flag_outside_range_exits_1(self, small_fields, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        assert main([*self.argv(small_fields, command, out), "--seed", str(seed)]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_largest_seed_accepted(self, small_fields, tmp_path, command):
        out = tmp_path / "out"
        assert main([*self.argv(small_fields, command, out), "--seed", str(2**64 - 1)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 2**64 - 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_replayed_seed_outside_range_exits_1(self, small_fields, tmp_path, capsys, command,
                                                 seed):
        first = tmp_path / "first"
        assert main([*self.argv(small_fields, command, first), "--seed", "5"]) == 0
        doc = json.loads((first / "manifest.json").read_text())
        doc["args"]["seed"] = seed
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "again")]) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_config_seed_outside_range_exits_1(self, small_fields, tmp_path, capsys, seed):
        doc = {**ExperimentConfig().to_dict(), "seed": seed}
        with pytest.raises(InvalidInputError, match="config seed"):
            config_from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = self.argv(small_fields, "losses", tmp_path / "out")
        assert main([*argv, "--config", str(path)]) == 1
        assert "config seed" in capsys.readouterr().err
        # a seed flag does not excuse the config's seed
        assert main([*argv, "--config", str(path), "--seed", "1"]) == 1

    def test_config_seed_at_the_bound_accepted(self):
        doc = {**ExperimentConfig().to_dict(), "seed": 2**64 - 1}
        assert config_from_dict(doc).seed == 2**64 - 1


# Every field flag of every subcommand that reads fields, as rows of one
# valid run: (command, field flags, other flags).  --mode-mask and
# --frozen-eps exclude each other, so sample has a row for each.
FIELD_RUNS = (
    ("energy", ("image", "mask", "dist"), ()),
    ("evolve", ("image", "init", "gt", "dist"), ("--steps", "2")),
    ("td-verify", ("image", "mask"), ("--samples", "3")),
    ("geodesic", ("image", "mask", "d-e"), ()),
    ("par", ("image", "mask", "gt"), ("--tau", "1")),
    ("sample", ("image", "mode-mask"), SMALL_SCHEDULE),
    ("sample", ("frozen-eps", "image"), SMALL_SCHEDULE),
    ("metrics", ("pred", "gt"), ()),
    ("losses", ("image", "mask", "eps-hat"), ("--t", "2", *SMALL_SCHEDULE)),
)


def _write_bad_field(kind, root, small_fields) -> str:
    """A path to hand a field flag that must end the run with exit 1."""
    path = root / f"{kind}.lsf1"
    if kind == "another-size":
        lf.save_field(np.full((12, 12), 0.5), path)
    elif kind == "truncated-lsf1":
        path.write_bytes(open(small_fields["mask"], "rb").read()[:-5])
    elif kind == "empty-file":
        path.write_bytes(b"")
    elif kind == "short-pgm-raster":
        path = root / "short.pgm"
        path.write_bytes(b"P5\n16 16\n255\n" + bytes(100))
    elif kind == "directory":
        path.mkdir()
    return str(path)  # "missing-path" leaves nothing there


BAD_FIELD_FILES = ("another-size", "truncated-lsf1", "empty-file", "short-pgm-raster",
                   "missing-path", "directory")


def _field_argv(row, small_fields, swap=None):
    """The row's valid argv, or with ``swap = (flag, path)`` one field replaced."""
    command, flags, extra = row
    paths = {f: small_fields["image" if f == "image" else "mask"] for f in flags}
    paths.update([swap] if swap else [])
    return [command, *extra, *(a for f in flags for a in (f"--{f}", paths[f]))]


# Each (command, field flag) once, with a row that gives it a valid run.
FIELD_FLAGS = {(row[0], flag): row for row in FIELD_RUNS for flag in row[1]}


class TestFieldFlagFuzz:
    @pytest.mark.parametrize("row", FIELD_RUNS, ids=lambda row: f"{row[0]}-{row[1][0]}")
    def test_valid_run_exits_0(self, small_fields, tmp_path, row):
        assert main([*_field_argv(row, small_fields), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("kind", BAD_FIELD_FILES)
    @pytest.mark.parametrize("command, flag", list(FIELD_FLAGS))
    def test_bad_field_file_exits_1(self, small_fields, tmp_path, capsys, command, flag, kind):
        bad = _write_bad_field(kind, tmp_path, small_fields)
        out = tmp_path / "out"
        argv = _field_argv(FIELD_FLAGS[command, flag], small_fields, swap=(flag, bad))
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("levelflow: invalid input:")
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("kind", ["missing-path", "truncated-lsf1", "another-size"])
    @pytest.mark.parametrize("command", ["evolve", "par"])
    def test_bad_gt_exits_1_before_any_compute(self, small_fields, tmp_path, monkeypatch,
                                               command, kind):
        # a bad --gt costs no evolve step and no refine iteration
        calls = []
        for module, name in [(cli.levelset, "evolve"), (cli.geodesic, "distance_for_mask"),
                             (cli.par, "affinity_kernel"), (cli.par, "refine")]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
        bad = _write_bad_field(kind, tmp_path, small_fields)
        argv = _field_argv(FIELD_FLAGS[command, "gt"], small_fields, swap=("gt", bad))
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert calls == []


# Valid argument lists of every subcommand on the 16x16 fields, as the
# subcommand name and (flag, value) pairs; {image} and {mask} are paths.
ARGV_BASES = {
    "phantom": [("--kind", "two-disks"), ("--size", "32")],
    "energy": [("--image", "{image}"), ("--mask", "{mask}")],
    "evolve": [("--image", "{image}"), ("--init-box", "4,4,12,12"), ("--gt", "{mask}"),
               ("--steps", "3")],
    "td-verify": [("--image", "{image}"), ("--mask", "{mask}"), ("--samples", "3")],
    "geodesic": [("--image", "{image}"), ("--mask", "{mask}")],
    "par": [("--image", "{image}"), ("--mask", "{mask}"), ("--gt", "{mask}"), ("--tau", "2")],
    "sample": [("--image", "{image}"), ("--mode-mask", "{mask}"), ("--steps", "3"),
               ("--beta1", "0.01"), ("--betaT", "0.3"), ("--ensemble", "2"),
               ("--gamma0", "0.2")],
    "metrics": [("--pred", "{mask}"), ("--gt", "{mask}")],
    "losses": [("--image", "{image}"), ("--mask", "{mask}"), ("--t", "2"), ("--steps", "3"),
               ("--beta1", "0.01"), ("--betaT", "0.3")],
}
# A huge loop count makes a run long, not wrong: these draw small values only.
LOOP_COUNTS = ("--ensemble", "--tau", "--steps", "--samples")
SMALL_VALUES = st.sampled_from(["-1", "0", "1", "2"])
FLAG_VALUES = st.one_of(
    SMALL_VALUES,
    st.sampled_from([str(10**15), str(2**64), "nan", "-inf", "1e999", "1e300", "0.5", "abc", "",
                     "4,4,12", "two-rects", "{image}"]),
)


@st.composite
def mutated_argv(draw):
    """A valid argument list with one to three mutations: a flag dropped,
    repeated or moved, values swapped between flags, a value replaced, an
    unknown flag, or a typo in the subcommand name."""
    command = draw(st.sampled_from(sorted(ARGV_BASES)))
    pairs = list(ARGV_BASES[command])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "repeat", "move", "swap", "value", "unknown",
                                   "typo"]))
        i = draw(st.integers(0, len(pairs) - 1)) if pairs else None
        j = draw(st.integers(0, len(pairs))) if pairs else 0
        if op == "typo":
            k = draw(st.integers(0, len(command) - 1))
            command = draw(st.sampled_from([
                command[:k] + command[k + 1:],
                command[:k] + command[k] + command[k:],
                command[:k] + "x" + command[k + 1:],
            ]))
        elif op == "unknown":
            pairs.insert(j, ("--turbo", draw(SMALL_VALUES)))
        elif i is None:
            continue
        elif op == "drop":
            del pairs[i]
        elif op == "repeat":
            pairs.insert(j, pairs[i])
        elif op == "move":
            pairs.insert(j, pairs.pop(i))
        elif op == "swap":
            k = draw(st.integers(0, len(pairs) - 1))
            (fi, vi), (fk, vk) = pairs[i], pairs[k]
            pairs[i], pairs[k] = (fi, vk), (fk, vi)
        else:
            flag = pairs[i][0]
            pairs[i] = (flag, draw(SMALL_VALUES if flag in LOOP_COUNTS else FLAG_VALUES))
    return [command, *(token for pair in pairs for token in pair)]


class TestArgvFuzz:
    # a fuzzed sample run may threshold an all-empty mask mid-run
    @pytest.mark.filterwarnings("ignore::levelflow.diffusion.GuidanceFallbackWarning")
    @settings(max_examples=100)
    @given(argv=mutated_argv())
    def test_mutated_argv_exits_0_1_or_2_with_standard_json(self, small_fields, argv):
        argv = [token.format(**small_fields) for token in argv]
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([*argv, "--out", out])
            assert rc in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if rc != 0:
                assert not os.path.exists(out)
                return
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                listed = json.load(fh)["artifacts"]
            assert listed == {rel: file_sha256(os.path.join(out, rel)) for rel in listed}
            for rel in listed:
                if rel.endswith(".json"):
                    with open(os.path.join(out, rel), encoding="utf-8") as fh:
                        json.load(fh, parse_constant=lambda c: pytest.fail(f"non-standard {c}"))

    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["phantom", "--kind", "two-disks", "--size", str(10**15)], "size"),
            (["phantom", "--kind", "two-disks", "--size", str(2**64)], "size"),
            (["sample", "--image", "{image}", "--mode-mask", "{mask}", *SMALL_SCHEDULE,
              "--noise-scale", "1e300"], "noise_scale"),
        ],
        ids=["size-1e15", "size-2**64", "noise-scale-1e300"],
    )
    def test_overflowing_value_exits_1(self, small_fields, tmp_path, capsys, argv, culprit):
        # a size numpy cannot allocate, and a scale whose square overflows
        argv = [token.format(**small_fields) for token in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert culprit in capsys.readouterr().err


# The first field flag of each subcommand, which the others' shapes must match.
FIRST_FIELD_FLAG = {command: "pred" if command == "metrics" else "image"
                    for command, *_ in FIELD_RUNS}

MIXTURE_RUN = FIELD_FLAGS["sample", "mode-mask"]


def _assert_rejected(capsys, rc, *culprits):
    """Exit 1 with the package's message naming every culprit, no traceback."""
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("levelflow: invalid input:")
    assert "Traceback" not in err
    for culprit in culprits:
        assert culprit in err


class TestFieldKind:
    """Field flags are one kind in the flag table: main reads them all, and
    checks each against the subcommand's first field flag, before a run
    writes anything."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_field_flag_is_fuzzed(self, command):
        rows = cli._COMMANDS[command][2]
        field_flags = {name for name, kind, *_ in rows if kind in (cli._FIELD, [cli._FIELD])}
        assert field_flags == {flag for cmd, flag in FIELD_FLAGS if cmd == command}

    def test_manifest_args_hold_the_paths(self, small_fields, tmp_path):
        out = tmp_path / "out"
        assert main(_field_argv(MIXTURE_RUN, small_fields) + ["--out", str(out)]) == 0
        args = json.loads((out / "manifest.json").read_text())["args"]
        assert args["image"] == small_fields["image"]
        assert args["mode-mask"] == [small_fields["mask"]]

    @pytest.mark.parametrize(
        "command, flag",
        [key for key in FIELD_FLAGS if key[1] != FIRST_FIELD_FLAG[key[0]]],
    )
    def test_another_size_names_the_flag_and_the_first_field_flag(
        self, small_fields, tmp_path, capsys, command, flag
    ):
        bad = _write_bad_field("another-size", tmp_path, small_fields)
        out = tmp_path / "out"
        argv = _field_argv(FIELD_FLAGS[command, flag], small_fields, swap=(flag, bad))
        rc = main([*argv, "--out", str(out)])
        first = FIRST_FIELD_FLAG[command]
        _assert_rejected(capsys, rc, f"--{flag} has shape (12, 12), but --{first} has shape "
                                     "(16, 16)")
        assert not out.exists()

    def test_second_mode_mask_of_another_size(self, small_fields, tmp_path, capsys):
        bad = _write_bad_field("another-size", tmp_path, small_fields)
        out = tmp_path / "out"
        argv = _field_argv(MIXTURE_RUN, small_fields) + ["--mode-mask", bad]
        rc = main([*argv, "--out", str(out)])
        _assert_rejected(capsys, rc, "--mode-mask has shape (12, 12), but --image has shape")
        assert not out.exists()

    @pytest.mark.parametrize(
        "swap",
        [("gt", "missing-path"), ("gt", "truncated-lsf1"), ("gt", "another-size"),
         ("init-box", "2,2,100,100"), ("dist", "another-size")],
        ids=lambda s: "-".join(s),
    )
    def test_rejected_run_leaves_no_output_tree(self, small_fields, tmp_path, capsys, swap):
        flag, what = swap
        argv = ["evolve", "--image", small_fields["image"], "--steps", "2",
                "--init-box", "4,4,12,12" if flag != "init-box" else what]
        if flag != "init-box":
            argv += [f"--{flag}", _write_bad_field(what, tmp_path, small_fields)]
        out = tmp_path / "out"
        _assert_rejected(capsys, main([*argv, "--out", str(out)]), flag)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, culprit",
        [(["evolve", "--image", "{image}", "--init-box", "4,4,12,12", "--steps", "2",
           "--gt", "{image}"], "ground truth must be binary"),
         (["par", "--image", "{image}", "--mask", "{mask}", "--gt", "{image}"],
          "ground truth must be binary"),
         (["energy", "--image", "{image}", "--mask", "{mask}", "--config", "{cfg}"],
          "a1_target must be in [0, 256]")],
        ids=["evolve-noisy-gt", "par-noisy-gt", "energy-a1-beyond-the-image"],
    )
    def test_late_rejection_leaves_no_output_tree(self, small_fields, tmp_path, capsys, argv,
                                                  culprit):
        # each is rejected only after a field it would write has been computed
        doc = ExperimentConfig().to_dict()
        doc["area"]["a1_target"] = 1e9
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [a.format(cfg=cfg, **small_fields) for a in argv]
        out = tmp_path / "out"
        _assert_rejected(capsys, main([*argv, "--out", str(out)]), culprit)
        assert not out.exists()

    def test_field_that_cannot_be_written_leaves_no_output_tree(self, tmp_path, capsys):
        # the first artifact exceeds LSF1's float32 range: no fields/ is made
        out = tmp_path / "out"
        rc = main(["phantom", "--kind", "two-disks", "--size", "32", "--fg", "1e39",
                   "--out", str(out)])
        _assert_rejected(capsys, rc, "exceed the float32 range of LSF1")
        assert not out.exists()

    def test_no_empty_directories(self, small_fields, tmp_path):
        out = tmp_path / "out"
        mask = small_fields["mask"]
        assert main(["metrics", "--pred", mask, "--gt", mask, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "reports"]


class TestAreaTarget:
    # energy's case is in TestFieldKind::test_late_rejection_leaves_no_output_tree
    AREA_RUNS = {
        "evolve": ("evolve", "--image", "{image}", "--init-box", "4,4,12,12", "--steps", "2"),
        "losses": ("losses", "--image", "{image}", "--mask", "{mask}", "--t", "2",
                   *SMALL_SCHEDULE),
        "sample": ("sample", "--image", "{image}", "--mode-mask", "{mask}", *SMALL_SCHEDULE),
    }

    @pytest.mark.parametrize(
        "command, source", [(c, "config") for c in sorted(AREA_RUNS)] + [("sample", "flag")]
    )
    def test_a1_beyond_the_pixel_count_names_a1(self, small_fields, tmp_path, capsys, command,
                                                source):
        argv = [a.format(**small_fields) for a in self.AREA_RUNS[command]]
        if source == "flag":
            argv += ["--a1", "257"]
        else:
            doc = ExperimentConfig().to_dict()
            doc["area"]["a1_target"] = 1e9
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            argv += ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "out"
        _assert_rejected(capsys, main([*argv, "--out", str(out)]),
                         "a1_target must be in [0, 256], the pixel count")
        assert not out.exists()


class TestOutPath:
    def test_existing_file_exits_1_before_any_compute(self, small_fields, tmp_path, capsys,
                                                      monkeypatch):
        calls = []
        monkeypatch.setattr(cli.metrics, "confusion", lambda *a, **k: calls.append(a))
        afile = tmp_path / "afile"
        afile.write_text("keep me")
        mask = small_fields["mask"]
        rc = main(["metrics", "--pred", mask, "--gt", mask, "--out", str(afile)])
        _assert_rejected(capsys, rc, f"--out {afile} exists and is not a directory")
        assert calls == []
        assert afile.read_text() == "keep me"

    @pytest.mark.parametrize("where", ["subdirectory-is-a-file", "parent-is-a-file"])
    def test_unwritable_output_tree_exits_1(self, small_fields, tmp_path, capsys, where):
        if where == "subdirectory-is-a-file":
            out = tmp_path / "out"
            out.mkdir()
            (out / "reports").write_text("")
        else:
            (tmp_path / "afile").write_text("")
            out = tmp_path / "afile" / "out"
        mask = small_fields["mask"]
        rc = main(["metrics", "--pred", mask, "--gt", mask, "--out", str(out)])
        _assert_rejected(capsys, rc, "cannot write", "under --out")


class TestInitBox:
    """--init-box must be a non-empty box inside the image: 0 <= r0 < r1 <= h
    and 0 <= c0 < c1 <= w on the 16x16 image."""

    @pytest.mark.parametrize("box", ["2,2,100,100", "20,20,30,30", "-2,4,8,8", "4,4,12,17",
                                     "10,10,5,20", "4,4,4,12"])
    @pytest.mark.parametrize("with_dist", [False, True], ids=["no-dist", "with-dist"])
    def test_box_outside_or_empty_exits_1(self, small_fields, tmp_path, capsys, box, with_dist):
        argv = ["evolve", "--image", small_fields["image"], f"--init-box={box}", "--steps", "2"]
        if with_dist:
            argv += ["--dist", small_fields["mask"]]
        out = tmp_path / "out"
        _assert_rejected(capsys, main([*argv, "--out", str(out)]), "--init-box",
                         "0 <= r0 < r1 <= 16 and 0 <= c0 < c1 <= 16")
        assert not out.exists()

    def test_box_of_the_whole_image_runs(self, small_fields, tmp_path):
        argv = ["evolve", "--image", small_fields["image"], "--init-box", "0,0,16,16",
                "--steps", "2", "--dist", small_fields["mask"]]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0


class TestEvolveBlowUp:
    def test_huge_dt_exits_2_naming_the_step_and_dt(self, tmp_path, capsys):
        # H saturates, so the energy stays finite; phi leaves the float32 range
        image = tmp_path / "ramp.lsf1"
        lf.save_field(np.tile(np.arange(16) / 15, (16, 1)), image)
        out = tmp_path / "out"
        rc = main(["evolve", "--image", str(image), "--init-box", "2,2,14,14", "--dt", "1e150",
                   "--steps", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("levelflow: numerical failure: level set function left the float32")
        assert "(step 0)" in err and "--dt 1e+150" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSampleBlowUp:
    @pytest.mark.parametrize("space", lf.diffusion.GUIDANCE_SPACES)
    def test_huge_gamma0_exits_2_naming_the_step_and_gamma0(self, phantom_dir, tmp_path, capsys,
                                                            space):
        out = tmp_path / "out"
        rc = main(["sample", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mode-mask", str(phantom_dir / "fields/gt_mask.lsf1"), "--steps", "20",
                   "--beta1", "1e-3", "--betaT", "0.2", "--gamma0", "1e200",
                   "--guidance-space", space, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("levelflow: numerical failure: noise prediction became non-finite")
        assert "(step 1)" in err and "--gamma0 1e+200" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_eikonal_overflow_prints_what_geodesic_prints(self, phantom_dir, tmp_path, capsys):
        # the --gamma0 hint belongs to the sampler's own divergence only
        image, mask = (str(phantom_dir / f"fields/{name}.lsf1") for name in ("image", "gt_mask"))
        assert main(["geodesic", "--image", image, "--mask", mask, "--eps-d", "1e300",
                     "--out", str(tmp_path / "geodesic")]) == 2
        geodesic_err = capsys.readouterr().err
        assert geodesic_err.startswith("levelflow: numerical failure: eikonal update overflows")
        out = tmp_path / "out"
        rc = main(["sample", "--image", image, "--mode-mask", mask, "--steps", "20",
                   "--config", _config_with(tmp_path, "speed", "eps_d", 1e300), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == geodesic_err
        assert not out.exists()


def _config_with(tmp_path, section, key, value):
    doc = ExperimentConfig().to_dict()
    doc[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


_PHANTOM = ("phantom", "--kind", "two-disks")
_TD_VERIFY = ("td-verify", "--image", "{image}", "--mask", "{mask}", "--samples", "3")
_SAMPLE = ("sample", "--image", "{image}", "--mode-mask", "{mask}", *SMALL_SCHEDULE)
# (argv, a config value (section, key, value) or None, the message main prints)
CLI_MESSAGES = {
    "kind": (("phantom", "--kind", "x"), None,
             "--kind must be one of two-disks, ring-with-hole, c-shape, two-rects, got 'x'"),
    "size": ((*_PHANTOM, "--size", "16"), None, "size must be from 32 to 16384, got 16"),
    "noise-sigma": ((*_PHANTOM, "--noise-sigma", "-1"), None,
                    "noise_sigma must be non-negative and finite, got -1.0"),
    "fg": ((*_PHANTOM, "--fg", "inf"), None, "--fg must be finite, got 'inf'"),
    "seed": ((*_PHANTOM, "--seed", "-1"), None,
             "--seed must be an int from 0 to 18446744073709551615, got '-1'"),
    "model": ((*_TD_VERIFY, "--model", "x"), None, "--model must be one of cv, gaussian, got 'x'"),
    "radius": ((*_TD_VERIFY, "--radius", "0"), None, "radius must be at least 1, got 0"),
    "samples": ((*_TD_VERIFY, "--samples", "0"), None, "samples must be at least 1, got 0"),
    "gamma-schedule": ((*_SAMPLE, "--gamma-schedule", "x"), None,
                       "--gamma-schedule must be one of constant, noise-scaled, got 'x'"),
    "guidance-space": ((*_SAMPLE, "--guidance-space", "x"), None,
                       "--guidance-space must be one of noise, score, got 'x'"),
    "mode-weight": ((*_SAMPLE, "--mode-weight", "-0.5"), None,
                    "mixture weights must be positive and finite, got -0.5"),
    "ensemble": ((*_SAMPLE, "--ensemble", "0"), None, "ensemble must be at least 1, got 0"),
    "a1": ((*_SAMPLE, "--a1", "99999"), None,
           "a1_target must be in [0, 256], the pixel count, got 99999.0"),
    "config-guidance-schedule": (
        _PHANTOM, ("guidance", "schedule", "x"),
        "config guidance.schedule must be one of constant, noise-scaled, got 'x'",
    ),
    "config-guidance-space": (
        _PHANTOM, ("sampler", "guidance_space", "x"),
        "config sampler.guidance_space must be one of noise, score, got 'x'",
    ),
}


class TestRejectionBranches:
    """Each rejection of bad input that a CLI run can reach exits 1 and names
    its culprit."""

    @pytest.mark.parametrize("name", CLI_MESSAGES)
    def test_message_is_exact(self, small_fields, tmp_path, capsys, name):
        argv, setting, message = CLI_MESSAGES[name]
        argv = [a.format(**small_fields) for a in argv]
        if setting is not None:
            argv += ["--config", _config_with(tmp_path, *setting)]
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert (rc, capsys.readouterr().err) == (1, f"levelflow: invalid input: {message}\n")

    def test_unknown_model(self, small_fields, tmp_path, capsys):
        rc = main(["td-verify", "--image", small_fields["image"], "--mask", small_fields["mask"],
                   "--model", "foo", "--out", str(tmp_path / "out")])
        _assert_rejected(capsys, rc, "--model must be one of cv, gaussian, got 'foo'")

    def test_replayed_mode_mask_not_a_list(self, small_fields, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_field_argv(MIXTURE_RUN, small_fields) + ["--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        doc["args"]["mode-mask"] = small_fields["mask"]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        rc = main(["sample", "--config", str(edited), "--out", str(tmp_path / "replay")])
        _assert_rejected(capsys, rc, "--mode-mask expects a list")
        assert not (tmp_path / "replay").exists()

    def test_stats_refresh_zero(self, small_fields, tmp_path, capsys):
        rc = main(["evolve", "--image", small_fields["image"], "--init-box", "4,4,12,12",
                   "--steps", "2", "--stats-refresh", "0", "--out", str(tmp_path / "out")])
        _assert_rejected(capsys, rc, "stats_refresh must be at least 1")

    @pytest.mark.parametrize("flags, culprit", [(("--samples", "0"), "samples"),
                                                (("--radius", "40"), "probe radius")])
    def test_td_verify_probes(self, phantom_dir, tmp_path, capsys, flags, culprit):
        rc = main(["td-verify", "--image", str(phantom_dir / "fields/image.lsf1"),
                   "--mask", str(phantom_dir / "fields/gt_mask.lsf1"), *flags,
                   "--out", str(tmp_path / "out")])
        _assert_rejected(capsys, rc, culprit)

    def test_mode_weights_do_not_pair_with_masks(self, small_fields, tmp_path, capsys):
        mask = small_fields["mask"]
        rc = main(["sample", "--image", small_fields["image"], "--mode-mask", mask,
                   "--mode-mask", mask, "--mode-weight", "1.0", *SMALL_SCHEDULE,
                   "--out", str(tmp_path / "out")])
        _assert_rejected(capsys, rc, "mixture weights and masks must pair up")

    @pytest.mark.parametrize(
        "section, key, value, culprit",
        [("guidance", "schedule", "x",
          "config guidance.schedule must be one of constant, noise-scaled, got 'x'"),
         ("sampler", "distance_refresh", 0, "distance_refresh must be at least 1"),
         ("par", "tau", -1, "tau must be non-negative")],
        ids=["guidance-schedule", "distance-refresh", "par-tau"],
    )
    def test_config_value_out_of_range(self, small_fields, tmp_path, capsys, section, key, value,
                                       culprit):
        # distance_refresh is checked where the sampler reads it
        argv = _field_argv(MIXTURE_RUN, small_fields)
        rc = main([*argv, "--config", _config_with(tmp_path, section, key, value),
                   "--out", str(tmp_path / "out")])
        _assert_rejected(capsys, rc, culprit)

    def test_config_integer_past_the_float_range(self, small_fields, tmp_path, capsys):
        # a 401-digit JSON integer compares below inf, and overflowed in heaviside
        config = _config_with(tmp_path, "heaviside", "epsilon", 10**400)
        out = tmp_path / "out"
        rc = main(["energy", "--image", small_fields["image"], "--mask", small_fields["mask"],
                   "--config", config, "--out", str(out)])
        _assert_rejected(capsys, rc, "config heaviside.epsilon must be positive and finite")
        assert not out.exists()

    def test_config_document_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1]")
        rc = main(["phantom", "--kind", "two-disks", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        _assert_rejected(capsys, rc, "config document must be a JSON object")

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        rc = main(["phantom", "--kind", "two-disks", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        _assert_rejected(capsys, rc, f"cannot read config {path}")

    @pytest.mark.parametrize(
        "name, blob, culprit",
        [("nan.lsf1", lf.field.LSF1_MAGIC + np.array([1, 1], "<u4").tobytes()
          + np.array([np.nan], "<f4").tobytes(), "payload contains non-finite values"),
         ("huge.pgm", b"P5\n70000 70000\n255\n" + bytes(16), "dimension overflow: 70000x70000")],
        ids=["lsf1-nan", "pgm-70000-squared"],
    )
    def test_malformed_field_file(self, small_fields, tmp_path, capsys, name, blob, culprit):
        path = tmp_path / name
        path.write_bytes(blob)
        rc = main(["metrics", "--pred", small_fields["mask"], "--gt", str(path),
                   "--out", str(tmp_path / "out")])
        _assert_rejected(capsys, rc, culprit)
