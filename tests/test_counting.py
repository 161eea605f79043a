import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mrplab.counting import (
    CountingPath,
    arrivals_from_counting,
    arrivals_from_interarrivals,
    compensated_cumsum,
    compensated_cumsum_rows,
    count_at,
    counts_on_grid,
    interarrivals_from_arrivals,
    validate_counting_axioms,
)
from mrplab.errors import IngestionError, InvalidInterarrivalError, OutOfHorizonError


def dyadic_vectors():
    """Random positive interarrivals on a dyadic grid: prefix sums are exact."""
    return hs.lists(
        hs.integers(min_value=1, max_value=2**20).map(lambda m: m * 2.0**-15),
        min_size=1,
        max_size=200,
    )


def test_prefix_sum_example():
    assert np.array_equal(arrivals_from_interarrivals([1.0, 2.0, 3.0]), [0.0, 1.0, 3.0, 6.0])


def test_empty_interarrivals_give_origin():
    assert np.array_equal(arrivals_from_interarrivals([]), [0.0])


@given(dyadic_vectors())
@settings(max_examples=200, deadline=None)
def test_differencing_recovers_input_exactly(w):
    arr = arrivals_from_interarrivals(w)
    assert np.array_equal(interarrivals_from_arrivals(arr), np.asarray(w))


def test_nonpositive_interarrival_rejected_with_index():
    with pytest.raises(InvalidInterarrivalError, match="interarrival 3"):
        arrivals_from_interarrivals([1.0, 2.0, -0.5])
    with pytest.raises(InvalidInterarrivalError):
        arrivals_from_interarrivals([1.0, 0.0])


def test_compensated_cumsum_matches_fsum_on_adversarial_data():
    # mixed magnitudes where a naive running sum drifts
    rng = np.random.default_rng(0)
    w = np.abs(rng.standard_normal(5000)) * np.exp(rng.uniform(-20, 20, 5000))
    mine = compensated_cumsum(w)
    ref = np.array([math.fsum(w[: i + 1]) for i in range(len(w))])
    assert np.array_equal(mine, ref)


def test_compensated_cumsum_is_the_row_form_bitwise():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 20_000)) * np.exp(rng.uniform(-30, 30, (3, 20_000)))
    rows = compensated_cumsum_rows(w)
    for row, sums in zip(w, rows):
        assert np.array_equal(compensated_cumsum(row).view(np.int64), sums.view(np.int64))


def test_count_at_examples():
    path = CountingPath(np.array([1.0, 3.0, 6.0]), horizon=10.0)
    assert count_at(path, 3.0) == 2  # right-continuity includes T_k == t
    assert count_at(path, 0.0) == 0
    assert count_at(path, 0.999) == 0
    assert count_at(path, 10.0) == 3


def test_count_at_out_of_horizon():
    path = CountingPath(np.array([1.0]), horizon=2.0)
    with pytest.raises(OutOfHorizonError):
        count_at(path, 2.5)
    with pytest.raises(OutOfHorizonError):
        count_at(path, -0.1)


def test_nan_times_are_rejected():
    path = CountingPath.from_arrivals([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(OutOfHorizonError, match="t must not be NaN"):
        count_at(path, math.nan)
    with pytest.raises(OutOfHorizonError, match="t must not be NaN"):
        counts_on_grid(path, [0.5, math.nan])
    for events, horizon in (([1.0, math.nan, 3.0], 4.0), ([1.0, 2.0, math.nan], 5.0),
                            ([math.nan], 1.0), ([1.0, math.inf], math.inf)):
        with pytest.raises(IngestionError, match="finite"):
            CountingPath(np.array(events), horizon)


def test_count_at_matches_linear_scan_oracle():
    rng = np.random.default_rng(1)
    events = np.sort(rng.uniform(0.1, 50.0, 300))
    events = np.unique(events)
    path = CountingPath(events, horizon=55.0)
    for t in rng.uniform(0.0, 55.0, 200):
        assert count_at(path, t) == int(sum(1 for e in events if e <= t))


def test_arrivals_from_counting_examples():
    path = CountingPath(np.array([1.0, 3.0, 6.0]), horizon=6.0)
    assert np.array_equal(arrivals_from_counting(path), [0.0, 1.0, 3.0, 6.0])
    single = CountingPath(np.array([5.0]), horizon=5.0)
    assert np.array_equal(arrivals_from_counting(single), [0.0, 5.0])


@given(dyadic_vectors())
@settings(max_examples=200, deadline=None)
def test_full_round_trip_identity(w):
    arr = arrivals_from_interarrivals(w)
    path = CountingPath.from_arrivals(arr)
    arr2 = arrivals_from_counting(path)
    assert np.array_equal(arr, arr2)
    assert np.array_equal(interarrivals_from_arrivals(arr2), np.asarray(w))


@given(dyadic_vectors(), hs.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_duality_count_vs_arrival(w, seed):
    arr = arrivals_from_interarrivals(w)
    path = CountingPath.from_arrivals(arr, horizon=float(arr[-1]) + 1.0)
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, path.horizon, 50)
    counts = counts_on_grid(path, ts)
    for t, n_t in zip(ts, counts):
        for n in range(1, len(arr)):
            assert (n_t >= n) == (arr[n] <= t)


def test_counting_path_rejects_ties_and_disorder():
    with pytest.raises(IngestionError):
        CountingPath(np.array([1.0, 1.0, 2.0]), horizon=3.0)
    with pytest.raises(IngestionError):
        CountingPath(np.array([2.0, 1.0]), horizon=3.0)
    with pytest.raises(IngestionError):
        CountingPath(np.array([0.0, 1.0]), horizon=3.0)
    with pytest.raises(IngestionError):
        CountingPath(np.array([1.0, 2.0]), horizon=1.5)


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------


def _step_samples(events, horizon, n_grid=200):
    path = CountingPath(np.asarray(events, dtype=float), horizon=horizon)
    grid = np.union1d(np.linspace(0.0, horizon, n_grid), path.event_times)
    return list(zip(grid, counts_on_grid(path, grid)))


def test_axioms_pass_on_simulated_step_function():
    report = validate_counting_axioms(_step_samples([0.7, 1.9, 2.4, 5.0], 6.0))
    assert report.passed
    assert report.details["checks"]["unit_jumps"] == "ok"
    assert any("not falsifiable" in c for c in report.caveats)


def test_axiom_double_jump_detected():
    # duplicating an event time makes N jump by 2 between neighbouring points
    samples = [(0.0, 0), (0.5, 0), (1.0, 2), (2.0, 2)]
    report = validate_counting_axioms(samples)
    assert not report.passed
    assert report.details["checks"]["unit_jumps"] == "violated"


def test_axiom_nonzero_start_detected():
    report = validate_counting_axioms([(0.0, 1), (1.0, 2)])
    assert not report.passed
    assert report.details["checks"]["start_at_zero"] == "violated"


def test_axiom_decrease_detected():
    report = validate_counting_axioms([(0.0, 0), (1.0, 2), (2.0, 1)])
    assert not report.passed
    assert report.details["checks"]["right_continuity"] == "violated"


def test_axiom_noninteger_detected():
    report = validate_counting_axioms([(0.0, 0), (1.0, 0.5)])
    assert not report.passed
    assert report.details["checks"]["integer_values"] == "violated"


def test_axiom_unsorted_input_rejected():
    with pytest.raises(IngestionError):
        validate_counting_axioms([(1.0, 1), (0.5, 0)])
    with pytest.raises(IngestionError):
        validate_counting_axioms([(0.5, 0), (0.5, 1)])
    with pytest.raises(IngestionError):
        validate_counting_axioms([])


@pytest.mark.parametrize("samples", [[(-2.0, 3), (-1.0, 3)], [(-1.0, 0), (0.0, 0), (1.0, 1)]])
def test_axiom_samples_at_negative_times_rejected(samples):
    # N_t lives on t >= 0
    with pytest.raises(IngestionError, match="negative time"):
        validate_counting_axioms(samples)


def test_axiom_violations_name_each_first_offender():
    report = validate_counting_axioms([(0.0, 1), (0.5, 1.5), (1.0, 1), (2.0, 3), (3.0, 3)])
    assert report.statistic == 4.0
    assert report.details["violations"] == [
        "start-at-zero: N_0 = 1 != 0",
        "integer-values: N at t=0.5 is 1.5",
        "right-continuity/monotonicity: N decreases from 1.5 to 1 at t=1",
        "unit-jumps: N jumps from 1.5 to 3 between t=1 and t=2",
    ]
    assert report.details["checks"] == {
        "start_at_zero": "violated",
        "integer_values": "violated",
        "right_continuity": "violated",
        "unit_jumps": "violated",
        "divergence": "informational: observed max N = 3",
    }


def test_axiom_conflicting_duplicate_rejected_after_a_consistent_one():
    with pytest.raises(IngestionError, match=r"t=1\.0 "):
        validate_counting_axioms([(0.0, 0), (0.5, 0), (0.5, 0), (1.0, 1), (1.0, 2)])


def _raised(fn, *args):
    with pytest.raises((IngestionError, InvalidInterarrivalError)) as info:
        fn(*args)
    return str(info.value)


def test_messages_write_values_as_plain_floats():
    from mrplab.construction import MrpPath

    w = np.array([1.0, -2.0])
    texts = [
        _raised(arrivals_from_interarrivals, w),
        _raised(MrpPath.from_interarrivals, 1.0, w),
        _raised(MrpPath, (1.0,), w, np.zeros(3)),
    ]
    assert all(t == "interarrival 2 is not strictly positive: -2.0" for t in texts)
    texts = [
        _raised(CountingPath, np.array([-1.0, 2.0]), 3.0),
        _raised(validate_counting_axioms, np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0]])),
        *validate_counting_axioms(np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 1.5]])).details["violations"],
    ]
    assert texts == [
        "first event time must be positive, got -1.0",
        "duplicate grid point t=0.5 with conflicting counts",
        "integer-values: N at t=1 is 1.5",
    ]
    assert not any("np." in t for t in texts)


def test_divergence_reported_as_caveat_never_failure():
    report = validate_counting_axioms([(0.0, 0), (1.0, 1)])
    assert report.passed
    assert "informational" in report.details["checks"]["divergence"]
