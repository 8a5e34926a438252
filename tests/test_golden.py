"""Pinned sha256 digests of every artifact from a fixed set of small CLI runs.

C8 proves that two runs of the same code agree; these digests prove that a
refactor leaves every artifact byte-identical.  Float output is only stable
per platform (the RNG's normals go through libm), so the digests are
checked only on the platform they were pinned on and skipped elsewhere.
"""

import hashlib
import json
import platform
import sys

import numpy as np
import pytest

import levelflow as lf
from levelflow.cli import main

PINNED_PLATFORM = ("linux", "x86_64", "2.4")

GOLDEN = {
    "energy": {
        "fields/distance.lsf1":
            "7223782e09fe625a262479adc5037a2a0ed18d9fb7aebf0343a0c1f714910d9d",
        "reports/energy.json":
            "4939ec01013ea1be346f0643c25724e3d2e249abce5b17b12b6fe728b704f2c8",
    },
    "evolve": {
        "fields/mask_final.lsf1":
            "eb0bd357bfa968d64953e4305b8d5f845cbe3d00e2f1df8016d88479caba5b13",
        "fields/phi_final.lsf1":
            "57ee93261dcbb85212d7851647e39570098a5599a9aaed05820311af5dd2b428",
        "reports/evolve.json":
            "8fe5f1352d283885404226686a316873b8be6d84bc10afca19ff9bf56c2bbdd5",
        "traces/energy.csv":
            "a45d14454ec388a135ee1884fa516be1552283c7229a85a0d9d4e552174fe701",
    },
    "geodesic": {
        "fields/distance.lsf1":
            "7223782e09fe625a262479adc5037a2a0ed18d9fb7aebf0343a0c1f714910d9d",
        "reports/geodesic.json":
            "f2f6b6ef6462be0d3f432f536d42713925c15d1862035f5aa1c9e2d90e16c18c",
    },
    "losses": {
        "reports/losses.json":
            "d6a72602dc31228fdab47f1f1ac6457078d7c9a486312f80eaa6f06cad6c237f",
    },
    "metrics": {
        "reports/metrics.csv":
            "ca033bd367e127efd77fc02f896ace067188aa9f81e7ab80f6ee926c90b99d97",
        "reports/metrics.json":
            "b9b169295ae6630f944773a67df855d10060eda8dfa4bbeaae13fffb5e5cb4ab",
    },
    "par": {
        "fields/refined.lsf1":
            "e86bbfee34eade438ad74599c9600b84cb5f52c738f74c8e13382c0585cd2dc5",
        "reports/par.json":
            "5749dd1b01dd22bed8348b001e01cad6e3d4bb4c1d5a98d79a136e703078c368",
    },
    "phantom": {
        "fields/gt_mask.lsf1":
            "3f03c72d6008e17fbc2333538001aa2a7dc2a45892d3d770d8053625a3a8e808",
        "fields/image.lsf1":
            "6d04f2d4b3e405d682c6c03e289353e638fec73e5380dbe043829ceeae86902d",
        "fields/image.pgm":
            "e162b96b3488a0ae554947ceb2dc11f020c945bffcd382a5979f66aec65b4e6f",
        "reports/phantom.json":
            "c2b6eff2c2a11092a00000a1a03c1f4600258a4293459c26691e2e4d2b97e8db",
    },
    "sample": {
        "fields/mask.lsf1":
            "7a875d0e943e3caa1ba3b2b2640e97694ae9747407fd179c53cf413cd6c00d0d",
        "reports/sample.json":
            "47afdd6a5c34920ed73ae29f4e51d55440d29f791535b84e0bbe6cb4bd52f267",
        "traces/energy.csv":
            "8bef0fbf3c4f04b86d63eb8e4265385bbdc28c5eeedeeaa4f93281b13a3b3ebe",
    },
    "td-verify": {
        "fields/td_field.lsf1":
            "965de1922b14323d3f810f22c114b02307b284a956b3b32b1b4947aa4b5663a2",
        "reports/td_verify.json":
            "52c8f086dbc55ebd4c2cfcc02ccbec09886977842395171a5e97fcb0a9bf9b4b",
    },
    "par-flat": {
        "fields/refined.lsf1":
            "8510fd98360d992a44fd32022ee59757cb01d33079703f2bcb1bcd044ab17d6b",
        "reports/par.json":
            "1b182f073e90ab0e3a301ead7d989d47d9e29f82c81ce1425442a22964475481",
    },
    "sample-refresh": {
        "fields/mask.lsf1":
            "e8d2c743131ee95d7c81f2a5e963ed6a04aec08ea2c12679ea3c3a33acefce13",
        "reports/sample.json":
            "e99cc19c67eb48ac14e87e355ac3b584b14449a7a789e03e0111803ce730a578",
        "traces/energy.csv":
            "8bef0fbf3c4f04b86d63eb8e4265385bbdc28c5eeedeeaa4f93281b13a3b3ebe",
    },
    "sample-unguided": {
        "fields/mask.lsf1":
            "1dc099dd923229443688a8d97953d4a571eb9e1117f7ad36ac39f9e39167df01",
        "reports/sample.json":
            "242ba32e0659629e74b62535c9fb56017dfab4d88c8e921915067ea4577e4357",
        "traces/energy.csv":
            "3f529ed8de2b171f8c6642590386314c27e2b8a88602af9a2e3e9c4766eb2730",
    },
    "sample-score": {
        "fields/mask.lsf1":
            "7a875d0e943e3caa1ba3b2b2640e97694ae9747407fd179c53cf413cd6c00d0d",
        "reports/sample.json":
            "162e2824bdb4b259b500dccccb37e22beb96bf13886ed91403f7456f8c59cfe8",
        "traces/energy.csv":
            "b28fa0b840d86aace971f22d114b7655828afbeefa4361b9f201132dc86faf91",
    },
    "evolve-refresh": {
        "fields/mask_final.lsf1":
            "b8a4ea27434378f37adb117fc1bb38ee92028cdcc540de5d3e41be108a9224a0",
        "fields/phi_final.lsf1":
            "956d8d2e62ae0678ef008c244c58e829136ff861e10174b6a8512093649840e1",
        "reports/evolve.json":
            "19e913e44d10014d3fd21675328b8c93e15523b25a2ef804bf404009143316aa",
        "traces/energy.csv":
            "9533ffc83f36d1d27b9a12c63dbe862e27269322ef19b0346bb26366ed98d0b1",
    },
    "td-verify-gaussian": {
        "fields/td_field.lsf1":
            "15cb84ce24387af5b8a8d69917721e4e29bfc5990569b3ad823eca6e7a0598a1",
        "reports/td_verify.json":
            "23bad58f620298b43f54c86947ab460e68cdf3f40b9359dc0fcc752569836de1",
    },
}


def current_platform():
    major, minor = np.__version__.split(".")[:2]
    return (sys.platform, platform.machine(), f"{major}.{minor}")


def run_all(root):
    """Run the fixed CLI set under ``root``; return {run: {artifact: sha256}}."""
    ph = root / "phantom"
    image = str(ph / "fields/image.lsf1")
    gt = str(ph / "fields/gt_mask.lsf1")
    sample = ["sample", "--image", image,
              "--mode-mask", str(root / "disk.lsf1"),
              "--mode-mask", str(root / "inv.lsf1"),
              "--steps", "10", "--beta1", "0.01", "--betaT", "0.3",
              "--gamma0", "0.2", "--seed", "4", "--a1", "632"]
    refresh = root / "refresh.json"
    refresh.write_text(json.dumps({"schema_version": 1, "sampler": {"distance_refresh": 3}}))
    runs = {
        "phantom": ["phantom", "--kind", "two-disks", "--size", "64", "--seed", "7",
                    "--noise-sigma", "0.2"],
        "energy": ["energy", "--image", image, "--mask", gt],
        "geodesic": ["geodesic", "--image", image, "--mask", gt],
        "evolve": ["evolve", "--image", image, "--init-box", "13,13,51,51", "--gt", gt,
                   "--dt", "1.0", "--steps", "40"],
        "td-verify": ["td-verify", "--image", image, "--mask", gt, "--model", "cv",
                      "--radius", "2", "--samples", "40", "--seed", "1"],
        "par": ["par", "--image", image, "--mask", gt, "--gt", gt, "--tau", "10"],
        "sample": sample + ["--ensemble", "3"],
        "metrics": ["metrics", "--pred", str(root / "sample/fields/mask.lsf1"), "--gt", gt],
        "losses": ["losses", "--image", image, "--mask", gt, "--t", "5", "--steps", "12",
                   "--beta1", "0.01", "--betaT", "0.3", "--seed", "4"],
        # Paths that no run above takes: a flat PAR image (sigma floor and
        # exact ties), mid-run distance refreshes shared by members, the
        # unguided and score-space samplers, stale region stats and the
        # gaussian TD model.
        "par-flat": ["par", "--image", gt, "--mask", gt, "--tau", "3"],
        "sample-refresh": sample + ["--ensemble", "4", "--config", str(refresh)],
        "sample-unguided": sample + ["--ensemble", "3", "--gamma0", "0"],
        "sample-score": sample + ["--ensemble", "3", "--guidance-space", "score"],
        "evolve-refresh": ["evolve", "--image", image, "--init-box", "13,13,51,51",
                           "--gt", gt, "--dt", "1.0", "--stats-refresh", "3",
                           "--steps", "60"],
        "td-verify-gaussian": ["td-verify", "--image", image, "--mask", gt,
                               "--model", "gaussian", "--radius", "2", "--samples", "40",
                               "--seed", "1"],
    }
    out = {}
    for name, args in runs.items():
        assert main(args + ["--out", str(root / name)]) == 0, name
        if name == "phantom":
            disk = lf.load_field(gt)
            lf.save_field(disk, root / "disk.lsf1")
            lf.save_field(1.0 - disk, root / "inv.lsf1")
        listed = json.loads((root / name / "manifest.json").read_text())["artifacts"]
        out[name] = {
            rel: hashlib.sha256((root / name / rel).read_bytes()).hexdigest()
            for rel in sorted(listed)
        }
        assert out[name] == listed, name
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    if current_platform() != PINNED_PLATFORM:
        pytest.skip(f"digests pinned on {PINNED_PLATFORM}, this is {current_platform()}")
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_artifact_digests_pinned(digests, run):
    assert digests[run] == GOLDEN[run]
