"""Tests of the benchmark's own helpers (not of the library)."""

import dataclasses

import numpy as np
import pytest

from repro.core.batch import answer_why_not
from repro.core.engine import WhyNotEngine
from wnbench.correctness import check_record, record_answer
from wnbench.layers import LayerTracer
from wnbench.measure import (
    InsufficientSamples,
    percentile,
    samples_beyond,
    steal_fraction,
)


# -- percentile sample-count rule -------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert percentile(range(1, 101), 90) == 90
    with pytest.raises(InsufficientSamples):
        percentile(range(99), 90)


def test_median_is_always_reported():
    assert percentile([3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 10.0, 11.0], 50) == 6.0
    with pytest.raises(InsufficientSamples):
        percentile([], 50)


def test_steal_fraction_uses_the_eighth_field():
    before = [100, 0, 50, 800, 0, 0, 0, 50, 999, 999]
    after = [200, 0, 100, 1600, 0, 0, 0, 100, 2000, 2000]
    assert steal_fraction(before, after) == pytest.approx(50 / 1000)
    assert steal_fraction(None, after) is None


# -- self-time subtraction --------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def inner():
        clock.now += 4.0

    wrapped_inner = tracer.timed("index.range", inner)

    def outer():
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 2.0

    tracer.timed("core.explain", outer)()
    assert tracer.get("core.explain").total_s == 11.0
    assert tracer.get("core.explain").self_s == 3.0
    assert tracer.get("index.range").self_s == 8.0
    assert tracer.get("index.range").calls == 2


def test_units_count_only_outermost_calls_of_a_layer():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    leaf = tracer.timed("kernels.window", lambda rows: None, units=lambda a, k: a[0])
    top = tracer.timed(
        "kernels.verify", lambda rows: leaf(rows), units=lambda a, k: a[0]
    )
    top(7)
    leaf(5)
    assert tracer.layer_outer_calls("kernels.") == 2
    assert tracer.get("kernels.verify").units == 7
    assert tracer.get("kernels.window").units == 5
    assert tracer.get("kernels.window").calls == 2


def test_patch_rebinds_from_imports_and_restores():
    from repro.skyline import algorithms
    from repro.core import mwq

    original = algorithms.skyline_indices
    assert mwq.skyline_indices is original
    with LayerTracer() as tracer:
        tracer.patch(algorithms, "skyline_indices", "skyline.sfs")
        assert mwq.skyline_indices is not original
        mwq.skyline_indices(np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]))
        assert tracer.get("skyline.sfs").calls == 1
    assert algorithms.skyline_indices is original
    assert mwq.skyline_indices is original


# -- correctness gate --------------------------------------------------
@pytest.fixture(scope="module")
def question():
    rng = np.random.default_rng(3)
    products = rng.uniform(0.0, 1.0, size=(300, 2))
    customers = rng.uniform(0.0, 1.0, size=(300, 2))
    engine = WhyNotEngine(products, customers=customers)
    query = np.array([0.5, 0.5])
    members = set(engine.reverse_skyline(query).tolist())
    why_not = next(i for i in range(300) if i not in members)
    answer = answer_why_not(engine, why_not, query)
    yield engine, answer
    engine.close()


def _check(engine, answer):
    return check_record(
        engine.products, engine.customers, record_answer(answer),
        engine.config.policy, False,
    )


def test_gate_accepts_a_real_answer(question):
    engine, answer = question
    assert _check(engine, answer) == []


def test_gate_catches_a_dropped_culprit(question):
    engine, answer = question
    explanation = answer.explanation
    corrupted = dataclasses.replace(
        answer,
        explanation=dataclasses.replace(
            explanation, culprit_positions=explanation.culprit_positions[1:]
        ),
    )
    assert any("Λ" in p for p in _check(engine, corrupted))


def test_gate_catches_a_candidate_that_does_not_admit(question):
    engine, answer = question
    wrong = answer.mwp.candidates[0].__class__(
        answer.explanation.why_not, cost=0.0, verified=True
    )
    corrupted = dataclasses.replace(
        answer, mwp=dataclasses.replace(answer.mwp, candidates=[wrong])
    )
    assert any("MWP" in p for p in _check(engine, corrupted))
