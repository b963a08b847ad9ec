"""The paper's central claim, verified end to end.

Section IV-B: the extended LRU list predicts the disk IO at any memory
size "without running the same programs multiple times for different
sizes of the disk cache".  Here we *do* run the workload multiple times
-- one full engine run per fixed memory size -- and check that a single
instrumented pass predicts every run's miss count exactly.
"""

from __future__ import annotations

import pytest

from repro.cache.predictor import ResizePredictor
from repro.cache.stack_distance import StackDistanceTracker
from repro.sim.prefill import warm_start_pages
from repro.sim.runner import run_method
from repro.units import GB

SIZES_GB = [2, 4, 8, 16]


@pytest.fixture(scope="module")
def predicted_and_actual(fast_machine, small_trace):
    # --- one instrumented pass (what the joint manager does) ---------------
    prefill = warm_start_pages(small_trace)
    tracker = StackDistanceTracker()
    tracker.access_array(prefill)
    predictor = ResizePredictor()
    predictor.record_array(
        small_trace.times, tracker.access_array(small_trace.pages)
    )
    page_bytes = fast_machine.page_bytes
    predictions = predictor.predict(
        [size * GB // page_bytes for size in SIZES_GB],
        window_s=fast_machine.manager.aggregation_window_s,
        period_start=0.0,
        period_end=600.0,
    )
    predicted = {
        size: prediction.num_disk_accesses
        for size, prediction in zip(SIZES_GB, predictions)
    }

    # --- one real engine run per size ---------------------------------------
    actual = {}
    for size in SIZES_GB:
        result = run_method(
            f"ONFM-{size}GB",
            small_trace,
            fast_machine,
            duration_s=600.0,
        )
        actual[size] = result.disk_page_accesses
    return predicted, actual


class TestPredictionMatchesReruns:
    def test_exact_at_every_size(self, predicted_and_actual):
        predicted, actual = predicted_and_actual
        for size in SIZES_GB:
            assert predicted[size] == actual[size], (
                f"{size} GB: predicted {predicted[size]}, "
                f"actual {actual[size]}"
            )

    def test_monotone_in_memory(self, predicted_and_actual):
        predicted, _ = predicted_and_actual
        counts = [predicted[size] for size in SIZES_GB]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_prediction_was_one_pass(self, predicted_and_actual):
        # Sanity: the comparison covers materially different configs.
        predicted, actual = predicted_and_actual
        assert predicted[SIZES_GB[0]] > predicted[SIZES_GB[-1]]
        assert actual[SIZES_GB[0]] > actual[SIZES_GB[-1]]
