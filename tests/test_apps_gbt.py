"""Tests for the GBT application (repro.apps.gbt)."""

import numpy as np
import pytest

from repro.analysis.strategy import Strategy
from repro.apps.gbt import (
    GBTHyper,
    _best_splits,
    build_orion_program,
    quantize_features,
)
from repro.runtime.options import LoopOptions


class TestQuantization:
    def test_bins_in_range(self):
        rng = np.random.default_rng(0)
        features = rng.random((100, 3))
        binned = quantize_features(features, 8)
        assert binned.min() >= 0
        assert binned.max() <= 7

    def test_bins_monotone_in_value(self):
        features = np.linspace(0, 1, 100).reshape(-1, 1)
        binned = quantize_features(features, 4)[:, 0]
        assert (np.diff(binned) >= 0).all()

    def test_quantiles_balance_bins(self):
        rng = np.random.default_rng(1)
        features = rng.exponential(size=(1000, 1))  # heavily skewed
        binned = quantize_features(features, 4)[:, 0]
        counts = np.bincount(binned, minlength=4)
        assert counts.min() > 150  # quantile binning balances even skew


class TestSplitSelection:
    def test_obvious_split_found(self):
        # Residuals +1 for bin < 2, -1 for bin >= 2 on feature 0.
        hist_sum = np.zeros((1, 2, 4))
        hist_cnt = np.zeros((1, 2, 4))
        hist_sum[0, 0] = [10.0, 10.0, -10.0, -10.0]
        hist_cnt[0, 0] = [10, 10, 10, 10]
        hist_cnt[0, 1] = [40, 0, 0, 0]
        splits = _best_splits(hist_sum, hist_cnt, [0], min_samples=2)
        assert splits[0][0] == 0  # split on feature 0
        assert splits[0][1] == 1  # after bin 1

    def test_no_split_on_tiny_leaf(self):
        hist_sum = np.zeros((1, 1, 4))
        hist_cnt = np.zeros((1, 1, 4))
        hist_cnt[0, 0, 0] = 3
        splits = _best_splits(hist_sum, hist_cnt, [0], min_samples=8)
        assert splits == {}

    def test_no_split_on_pure_leaf(self):
        hist_sum = np.zeros((1, 1, 4))
        hist_cnt = np.full((1, 1, 4), 5.0)
        splits = _best_splits(hist_sum, hist_cnt, [0], min_samples=2)
        assert splits == {}


class TestOrionProgram:
    def test_loops_are_one_d(self, table_small, cluster_tiny):
        program = build_orion_program(table_small, cluster=cluster_tiny)
        assert program.plan.strategy in (
            Strategy.ONE_D,
            Strategy.DATA_PARALLEL,
        )

    def test_boosting_reduces_mse(self, table_small, cluster_tiny):
        program = build_orion_program(
            table_small,
            cluster=cluster_tiny,
            hyper=GBTHyper(max_depth=3, learning_rate=0.3),
        )
        history = program.run(6)
        assert history.final_loss < 0.3 * history.meta["initial_loss"]

    def test_monotone_improvement(self, table_small, cluster_tiny):
        program = build_orion_program(table_small, cluster=cluster_tiny)
        history = program.run(5)
        losses = [history.meta["initial_loss"]] + history.losses
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_validation_clean(self, table_small, cluster_tiny):
        program = build_orion_program(
            table_small, cluster=cluster_tiny,
            options=LoopOptions(validate=True),
        )
        program.run(2)

    def test_predictions_populated(self, table_small, cluster_tiny):
        program = build_orion_program(table_small, cluster=cluster_tiny)
        program.run(3)
        preds = program.arrays["preds"].values
        assert np.abs(preds).sum() > 0

    def test_deeper_trees_fit_better(self, table_small, cluster_tiny):
        shallow = build_orion_program(
            table_small, cluster=cluster_tiny, hyper=GBTHyper(max_depth=1)
        ).run(6)
        deep = build_orion_program(
            table_small, cluster=cluster_tiny, hyper=GBTHyper(max_depth=3)
        ).run(6)
        assert deep.final_loss < shallow.final_loss
