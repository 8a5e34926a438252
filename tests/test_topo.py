import numpy as np
import pytest

import levelflow as lf
from levelflow import levelset as ls
from levelflow import topo
from levelflow.errors import DegenerateRegionError, InvalidInputError
from levelflow.field import binarize

from conftest import normal_field


def two_constant(n=32):
    image = np.zeros((n, n))
    image[:, : n // 2] = 1.0
    return image, image.copy()


class TestTdFieldCv:
    def test_two_constant_substitution(self):
        image, mask = two_constant()
        t = topo.td_field(image, mask, "cv")
        # inside pixel (f = 1, c1 = 1, c2 = 0): flipping it out raises energy
        assert t[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_zero_at_mean_midpoint(self):
        # two background pixels moved to +/-0.5 keep c2 = 0 exactly, so the
        # +0.5 pixel sits exactly at (c1 + c2) / 2 where T vanishes
        image, mask = two_constant()
        image[5, 20] = 0.5
        image[9, 20] = -0.5
        t = topo.td_field(image, mask, "cv")
        assert t[5, 20] == pytest.approx(0.0, abs=1e-12)

    def test_sign_matches_boundary_drive(self):
        # the descent drive delta(phi) * T is a positive multiple of T
        image, mask = two_constant()
        image += 0.01 * normal_field((40, 0), image.shape)
        t = topo.td_field(image, mask, "cv")
        phi = ls.mask_to_levelset(mask)
        drive = ls.dirac(phi, ls.HeavisideParams()) * t
        nonzero = t != 0
        assert np.all(np.sign(drive[nonzero]) == np.sign(t[nonzero]))

    def test_degenerate_region(self):
        image = np.ones((16, 16))
        with pytest.raises(DegenerateRegionError):
            topo.td_field(image, np.ones((16, 16)), "cv")


class TestTdFieldGaussian:
    def test_substitution(self):
        # unit-variance carrier around means 0 / 10: at an inside pixel
        # sitting exactly on its region mean the quadratic part of e1 drops
        n = 64
        rows, cols = np.mgrid[0:n, 0:n]
        mask = (cols < n // 2).astype(float)
        pm = ((rows + cols) % 2 * 2 - 1).astype(float)
        image = 10.0 * (1.0 - mask) + pm
        image[8, 8] = 0.0
        image[10, 9] = 0.0  # second flip keeps the +1/-1 counts balanced
        t = topo.td_field(image, mask, "gaussian")
        st = ls.region_stats_from_weights(image, mask)
        assert st.mean_in == pytest.approx(0.0, abs=1e-12)
        assert st.mean_out == pytest.approx(10.0, abs=1e-12)
        expect = (np.log(st.var_out) + 100.0 / st.var_out) - np.log(st.var_in)
        assert t[8, 8] == pytest.approx(expect, rel=1e-9)
        assert t[8, 8] == pytest.approx(100.0, rel=0.02)

    def test_zero_where_likelihoods_tie(self):
        # symmetric construction (equal variances, means 2 / 0): a pixel at
        # the midpoint value 1 ties e1 = e2 up to the O(1/N) shift in the
        # statistics that the pixel itself causes
        n = 128
        rows, cols = np.mgrid[0:n, 0:n]
        mask = (cols < n // 2).astype(float)
        checker = ((rows + cols) % 2 * 2 - 1).astype(float)
        image = 2.0 * mask + 0.5 * checker
        image[11, 90] = 1.0
        t = topo.td_field(image, mask, "gaussian")
        assert abs(t[11, 90]) <= 0.01 * np.abs(t).max()

    def test_equal_variance_reduces_to_cv(self):
        n = 32
        rows, cols = np.mgrid[0:n, 0:n]
        mask = (cols < n // 2).astype(float)
        checker = ((rows + cols) % 2 * 2 - 1).astype(float)
        image = 2.0 * mask + 0.5 * checker  # both regions: variance 0.25 exactly
        st = ls.region_stats_from_weights(image, mask)
        assert st.var_in == pytest.approx(st.var_out, rel=1e-12)
        t_cv = topo.td_field(image, mask, "cv")
        t_g = topo.td_field(image, mask, "gaussian")
        assert np.allclose(t_g, t_cv / st.var_in, rtol=1e-9)


class TestNucleationDelta:
    @pytest.mark.parametrize(
        "radius, direction, match",
        [(0, "add-to-inside", "radius must be at least 1, got 0"),
         (1, "sideways",
          "direction must be one of remove-from-inside, add-to-inside, got 'sideways'")],
    )
    def test_bad_probe_rejected(self, radius, direction, match):
        with pytest.raises(InvalidInputError, match=match):
            topo.NucleationProbe(row=4, col=4, radius=radius, direction=direction)

    def test_unknown_model_rejected(self):
        image, mask = two_constant(16)
        probe = topo.NucleationProbe(row=8, col=8, radius=1, direction="add-to-inside")
        with pytest.raises(InvalidInputError, match="model must be one of cv, gaussian, got 'x'"):
            topo.td_field(image, mask, "x")
        with pytest.raises(InvalidInputError, match="model must be one of cv, gaussian, got 'x'"):
            topo.nucleation_delta(image, mask, probe, "x")

    def test_interior_cv_delta_close_to_td(self, two_disks_64):
        image, gt = two_disks_64
        t = topo.td_field(image, gt, "cv")
        probe = topo.NucleationProbe(row=43, col=42, radius=1, direction="remove-from-inside")
        delta = topo.nucleation_delta(image, gt, probe, "cv")
        n_bg = (gt == 0).sum()
        assert delta == pytest.approx(t[43, 42], abs=10.0 / n_bg)

    def test_zero_td_pixels_give_small_delta(self):
        # a whole disk of pixels sitting at (c1 + c2) / 2 has T ~ 0; the +/-
        # companion block keeps c2 = 0 exactly so T vanishes identically there
        image, mask = two_constant(48)
        image[9:12, 39:42] = 0.5
        image[29:32, 39:42] = -0.5
        probe = topo.NucleationProbe(row=10, col=40, radius=1, direction="add-to-inside")
        delta = topo.nucleation_delta(image, mask, probe, "cv")
        # first-order term vanishes; remaining is the finite-size correction
        assert abs(delta) < 0.05

    def test_radius_sequence_monotone_convergence(self, two_disks_64):
        image, gt = two_disks_64
        t = topo.td_field(image, gt, "cv")[43, 42]
        errs = []
        for radius in (3, 2, 1):
            probe = topo.NucleationProbe(43, 42, radius, "remove-from-inside")
            errs.append(abs(topo.nucleation_delta(image, gt, probe, "cv") - t))
        assert errs[0] > errs[1] > errs[2]

    def test_statistics_fully_recomputed(self):
        image, mask = two_constant()
        probe = topo.NucleationProbe(8, 8, 2, "remove-from-inside")
        delta = topo.nucleation_delta(image, mask, probe, "cv")
        # exact value: removing b ones from the inside leaves c1 = 1; the
        # outside gains b ones among its zeros
        b = 13.0
        n2 = 512.0
        c2p = b / (n2 + b)
        expect = (n2 * c2p**2 + b * (1 - c2p) ** 2) / b
        assert delta == pytest.approx(expect, rel=1e-12)

    def test_disk_outside_grid_rejected(self, two_disks_64):
        image, gt = two_disks_64
        with pytest.raises(InvalidInputError):
            topo.nucleation_delta(
                image, gt, topo.NucleationProbe(1, 1, 3, "remove-from-inside"), "cv"
            )

    def test_nothing_to_flip_rejected(self, two_disks_64):
        image, gt = two_disks_64
        # disk deep in the background with direction remove-from-inside
        with pytest.raises(InvalidInputError):
            topo.nucleation_delta(
                image, gt, topo.NucleationProbe(5, 32, 2, "remove-from-inside"), "cv"
            )

    @pytest.mark.parametrize("model", topo.TD_MODELS)
    @pytest.mark.parametrize("probe", [
        topo.NucleationProbe(43, 42, 2, "remove-from-inside"),
        topo.NucleationProbe(5, 32, 2, "add-to-inside"),
    ])
    def test_shared_before_energy_is_bit_identical(self, two_disks_64, model, probe):
        image, gt = two_disks_64
        image = image + 0.1 * normal_field((41, 0), image.shape)
        before = topo._hard_energy(image, binarize(gt), model)
        shared = topo.nucleation_delta(image, gt, probe, model, before_energy=before)
        default = topo.nucleation_delta(image, gt, probe, model)
        assert type(shared) is float
        assert shared == default

    def test_size_scaling_of_statistics_correction(self):
        # doubling the pixel count roughly halves the oracle-vs-field gap
        def gap(size):
            image, gt = lf.make_phantom(lf.PhantomSpec(kind="two-disks", size=size, seed=7))
            t = topo.td_field(image, gt, "cv")
            r, c = int(0.68 * size), int(0.66 * size)
            probe = topo.NucleationProbe(r, c, 2, "remove-from-inside")
            return abs(topo.nucleation_delta(image, gt, probe, "cv") - t[r, c])

        ratio = gap(91) / gap(64)  # 91^2 ~= 2 * 64^2
        assert 0.3 <= ratio <= 0.7


class TestVerifyTd:
    def test_cv_noiseless_phantom(self, two_disks_64):
        image, gt = two_disks_64
        rep = topo.verify_td(image, gt, model="cv", samples=200, radius=2, seed=1)
        assert rep.sign_agreement_rate == 1.0
        assert rep.median_rel_err <= 0.10
        assert rep.n_used == 200

    def test_gaussian_two_texture(self, two_texture_128):
        image, gt = two_texture_128
        rep = topo.verify_td(image, gt, model="gaussian", samples=200, radius=2, seed=1)
        assert rep.sign_agreement_rate >= 0.95
        assert rep.median_rel_err <= 0.15

    def test_tie_threshold_excludes_everything(self, two_disks_64, monkeypatch):
        image, gt = two_disks_64
        monkeypatch.setattr(topo, "TIE_FACTOR", 10.0)
        rep = topo.verify_td(image, gt, model="cv", samples=50, radius=2, seed=1)
        assert rep.all_excluded
        assert rep.n_used == 0
        assert rep.sign_agreement_rate is None
        assert rep.median_rel_err is None

    @pytest.mark.parametrize("model", topo.TD_MODELS)
    def test_unflipped_energy_computed_once(self, two_disks_64, monkeypatch, model):
        # one pair of model energies for the unflipped mask gives the TD
        # field and the unflipped hard energy; then one pair per probe
        image, gt = two_disks_64
        image = image + 0.1 * normal_field((42, 0), image.shape)
        calls = []
        model_fields = topo._model_fields

        def counted(*args):
            calls.append(None)
            return model_fields(*args)

        monkeypatch.setattr(topo, "_model_fields", counted)
        topo.verify_td(image, gt, model=model, samples=50, radius=2, seed=3)
        assert len(calls) == 51

    def test_deterministic(self, two_disks_64):
        image, gt = two_disks_64
        r1 = topo.verify_td(image, gt, "cv", samples=50, radius=2, seed=9)
        r2 = topo.verify_td(image, gt, "cv", samples=50, radius=2, seed=9)
        assert r1 == r2
