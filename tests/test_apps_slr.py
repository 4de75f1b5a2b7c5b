"""Tests for the SLR application (repro.apps.slr)."""

import numpy as np
import pytest

from repro.analysis.strategy import PlacementKind, Strategy
from repro.apps.slr import SLRApp, SLRHyper, build_orion_program, logistic_loss
from repro.runtime.options import LoopOptions


class TestOrionProgram:
    def test_plan_is_data_parallel(self, slr_small, cluster_tiny):
        program = build_orion_program(slr_small, cluster=cluster_tiny)
        assert program.plan.strategy is Strategy.DATA_PARALLEL
        assert program.plan.uses_buffers

    def test_weights_on_server_with_prefetch(self, slr_small, cluster_tiny):
        program = build_orion_program(slr_small, cluster=cluster_tiny)
        assert program.plan.placements["weights"].kind is PlacementKind.SERVER
        prefetch = program.train_loop.executor.prefetch.prefetch_fn
        assert prefetch is not None
        assert prefetch.arrays == ("weights",)

    def test_prefetch_indices_cover_features(self, slr_small, cluster_tiny):
        program = build_orion_program(slr_small, cluster=cluster_tiny)
        prefetch = program.train_loop.executor.prefetch.prefetch_fn
        key, sample = slr_small.entries[0]
        recorded = {idx[0] for _name, idx in prefetch(key, sample)}
        assert recorded == {fid for fid, _v in sample[0]}

    def test_loss_decreases(self, slr_small, cluster_tiny):
        program = build_orion_program(slr_small, cluster=cluster_tiny)
        history = program.run(4)
        assert history.final_loss < history.meta["initial_loss"]

    def test_adarev_variant_decreases(self, slr_small, cluster_tiny):
        program = build_orion_program(
            slr_small, cluster=cluster_tiny, hyper=SLRHyper(adarev=True)
        )
        history = program.run(4)
        assert history.final_loss < history.meta["initial_loss"]

    def test_validation_clean(self, slr_small, cluster_tiny):
        # Buffered writes are exempt from the serializability check.
        program = build_orion_program(
            slr_small, cluster=cluster_tiny,
            options=LoopOptions(validate=True),
        )
        program.run(2)


class TestSerialApp:
    def test_serial_training_converges(self, slr_small):
        app = SLRApp(slr_small, SLRHyper(step_size=0.2))
        state = app.init_state(0)
        before = app.loss(state)
        for _ in range(4):
            for key, value in app.entries():
                app.apply_entry(state, key, value)
        after = app.loss(state)
        assert after < before
        assert after < 0.6  # meaningfully below chance-level log loss

    def test_only_sample_features_touched(self, slr_small):
        app = SLRApp(slr_small)
        state = app.init_state(0)
        key, value = app.entries()[0]
        app.apply_entry(state, key, value)
        touched = np.nonzero(state["weights"])[0]
        expected = {fid for fid, _v in value[0]}
        assert set(touched) <= expected

    def test_adarev_state(self, slr_small):
        app = SLRApp(slr_small, SLRHyper(adarev=True))
        state = app.init_state(0)
        assert "n2" in state
        key, value = app.entries()[0]
        app.apply_entry(state, key, value)
        assert state["n2"].max() > 1e-8

    def test_logistic_loss_at_zero_weights(self, slr_small):
        weights = np.zeros(slr_small.num_features)
        assert logistic_loss(weights, slr_small.entries) == pytest.approx(
            np.log(2.0)
        )


def _loss_by_the_sample(weights, entries):
    """``logistic_loss`` as it was written before it was vectorized: the
    per-sample loop, kept as the bitwise oracle."""
    total = 0.0
    for (_sample,), (features, label) in entries:
        margin = sum(weights[fid] * fval for fid, fval in features)
        signed = margin if label == 1 else -margin
        total += float(np.log1p(np.exp(-signed)))
    return total / max(1, len(entries))


class TestLogisticLoss:
    @pytest.mark.parametrize("chunk", [7, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hex_equal_to_the_sample_loop_on_ragged_data(
        self, seed, chunk, monkeypatch
    ):
        """Lengths 0-9 with empty samples, a repeated id inside a sample
        and both labels, flattened in one chunk and in nine."""
        from repro.apps import slr

        monkeypatch.setattr(slr, "_LOSS_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        entries = []
        for sample in range(60):
            length = int(rng.integers(0, 10)) if sample % 7 else 0
            ids = rng.integers(0, 12, size=length)
            features = [
                (int(fid), float(rng.standard_normal())) for fid in ids
            ]
            entries.append(((sample,), (features, int(rng.integers(0, 2)))))
        for scale in (0.0, 0.5, 4.0):
            weights = rng.standard_normal(12) * scale
            assert logistic_loss(weights, entries).hex() == \
                _loss_by_the_sample(weights, entries).hex()

    def test_dataset_and_serial_app_agree(self, slr_small):
        rng = np.random.default_rng(3)
        weights = rng.standard_normal(slr_small.num_features)
        expected = _loss_by_the_sample(weights, slr_small.entries).hex()
        assert logistic_loss(weights, slr_small.entries).hex() == expected
        assert SLRApp(slr_small).loss({"weights": weights}).hex() == expected

    def test_no_entries(self):
        assert logistic_loss(np.zeros(3), []) == 0.0
