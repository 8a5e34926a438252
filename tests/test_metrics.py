from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levelflow import metrics
from levelflow.errors import InvalidInputError

from conftest import uniform_field


class TestConfusion:
    def test_perfect_prediction(self):
        gt = (uniform_field((70, 0), (16, 16)) > 0.5).astype(float)
        c = metrics.confusion(gt, gt)
        assert c.fp == 0 and c.fn == 0
        assert c.tp + c.tn == 256

    def test_inverted_prediction(self):
        gt = (uniform_field((70, 1), (16, 16)) > 0.5).astype(float)
        c = metrics.confusion(1.0 - gt, gt)
        assert c.tp == 0 and c.tn == 0

    def test_hand_counted_4x4(self):
        pred = np.array(
            [
                [0.9, 0.2, 0.8, 0.1],
                [0.6, 0.5, 0.4, 0.0],
                [0.3, 0.7, 1.0, 0.2],
                [0.1, 0.1, 0.6, 0.9],
            ]
        )
        gt = np.array(
            [
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 1.0, 0.0],
                [0.0, 1.0, 1.0, 1.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        # threshold 0.5, ties (the 0.5 entry) count as foreground:
        # pred_bin rows are 1010 / 1100 / 0110 / 0011 against the gt above
        c = metrics.confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (6, 2, 2, 6)
        s = metrics.scores(c)
        assert s.dice == pytest.approx(12 / 16)
        assert s.jaccard == pytest.approx(6 / 10)
        assert s.precision == pytest.approx(6 / 8)
        assert s.recall == pytest.approx(6 / 8)

    def test_counts_partition_domain(self):
        pred = uniform_field((70, 2), (32, 32))
        gt = (uniform_field((70, 3), (32, 32)) > 0.3).astype(float)
        c = metrics.confusion(pred, gt)
        assert c.tp + c.fp + c.fn + c.tn == 1024

    def test_non_binary_gt_rejected(self):
        with pytest.raises(InvalidInputError):
            metrics.confusion(np.zeros((4, 4)), np.full((4, 4), 0.5))


class TestScores:
    def test_identical_masks_all_one(self):
        c = metrics.Confusion(tp=10, fp=0, fn=0, tn=6)
        s = metrics.scores(c)
        assert (s.dice, s.jaccard, s.precision, s.recall) == (1.0, 1.0, 1.0, 1.0)

    def test_arithmetic_case(self):
        s = metrics.scores(metrics.Confusion(tp=50, fp=50, fn=50, tn=0))
        assert s.dice == pytest.approx(0.5)
        assert s.jaccard == pytest.approx(1 / 3)
        assert s.precision == pytest.approx(0.5)
        assert s.recall == pytest.approx(0.5)

    def test_disjoint_nonempty_masks_zero(self):
        s = metrics.scores(metrics.Confusion(tp=0, fp=7, fn=9, tn=100))
        assert (s.dice, s.jaccard, s.precision, s.recall) == (0.0, 0.0, 0.0, 0.0)

    def test_empty_vs_empty_convention(self):
        s = metrics.scores(metrics.Confusion(tp=0, fp=0, fn=0, tn=25))
        assert (s.dice, s.jaccard, s.precision, s.recall) == (1.0, 1.0, 1.0, 1.0)

    def test_one_empty_convention(self):
        # empty prediction, non-empty truth
        s = metrics.scores(metrics.Confusion(tp=0, fp=0, fn=5, tn=20))
        assert (s.dice, s.jaccard, s.precision, s.recall) == (0.0, 0.0, 0.0, 0.0)
        # non-empty prediction, empty truth
        s = metrics.scores(metrics.Confusion(tp=0, fp=5, fn=0, tn=20))
        assert (s.dice, s.jaccard, s.precision, s.recall) == (0.0, 0.0, 0.0, 0.0)


class TestIdentities:
    def test_dice_jaccard_identity(self):
        from levelflow import rng

        key = rng.derive_key(71, 0)
        counts = rng.integers(key, 4000, 1000).reshape(1000, 4)
        for tp, fp, fn, tn in counts:
            s = metrics.scores(metrics.Confusion(int(tp), int(fp), int(fn), int(tn)))
            assert s.dice == pytest.approx(2 * s.jaccard / (1 + s.jaccard), rel=1e-14)

    def test_dice_harmonic_mean_of_precision_recall(self):
        s = metrics.scores(metrics.Confusion(tp=30, fp=12, fn=7, tn=100))
        hm = 2 * s.precision * s.recall / (s.precision + s.recall)
        assert s.dice == pytest.approx(hm, rel=1e-14)

    @settings(max_examples=40)
    @given(
        st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
            lambda shape: st.tuples(hnp.arrays(np.bool_, shape), hnp.arrays(np.bool_, shape))
        )
    )
    def test_identities_on_random_binary_masks(self, masks):
        pred, gt = (m.astype(np.float64) for m in masks)
        c = metrics.confusion(pred, gt)
        assert c.tp + c.fp + c.fn + c.tn == gt.size
        s = metrics.scores(c)
        assert all(0.0 <= v <= 1.0 for v in astuple(s))
        assert abs(s.dice - 2 * s.jaccard / (1 + s.jaccard)) <= 1e-12

    def test_dice_symmetry(self):
        a = (uniform_field((71, 1), (20, 20)) > 0.4).astype(float)
        b = (uniform_field((71, 2), (20, 20)) > 0.6).astype(float)
        d1 = metrics.scores(metrics.confusion(a, b)).dice
        d2 = metrics.scores(metrics.confusion(b, a)).dice
        assert d1 == pytest.approx(d2, rel=1e-14)
