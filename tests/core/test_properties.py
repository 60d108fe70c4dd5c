"""Property-based tests (hypothesis) on the coupling algebra's invariants.

Derandomized, so tier-1 runs are reproducible. The model's contracted
properties:

1. coupling values are strictly positive for any positive measurements;
2. ``C_ij == 1`` exactly when ``P_ij == P_i + P_j`` (Eq. 1's neutral
   point);
3. every kernel coefficient is a convex weighted average of the coupling
   values of the windows containing that kernel (the §3 formula);
4. the coupling predictor reduces to the summation baseline whenever all
   couplings equal 1.

Plus the window structure they rest on and supporting invariants: unit
invariance, linearity and monotonicity in the chain measurements, and the
destructive/constructive ordering against the baseline.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import kernel_coefficients
from repro.core.coupling import CouplingSet, coupling_value
from repro.core.kernel import ControlFlow
from repro.core.predictor import (
    CouplingPredictor,
    PredictionInputs,
    SummationPredictor,
)
from repro.util.stats import weighted_average

SETTINGS = dict(max_examples=100, deadline=None, derandomize=True)

# -- strategies -------------------------------------------------------------

kernel_names = st.integers(2, 7).map(
    lambda n: tuple(f"K{i}" for i in range(n))
)

positive = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)

coupling_factor = st.floats(
    min_value=0.25, max_value=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def measured_flow(draw):
    """A cyclic flow, a chain length, and consistent measurements.

    Chain times are constructed as ``factor * sum(isolated)`` so each
    window's true coupling value is known exactly.
    """
    names = draw(kernel_names)
    flow = ControlFlow(names)
    length = draw(st.integers(2, len(names)))
    isolated = {k: draw(positive) for k in names}
    factors = {w: draw(coupling_factor) for w in flow.windows(length)}
    chains = {
        w: factors[w] * sum(isolated[k] for k in w)
        for w in flow.windows(length)
    }
    return flow, length, isolated, chains, factors


def make_inputs(flow, isolated, chains, iterations=10):
    return PredictionInputs(
        flow=flow,
        iterations=iterations,
        loop_times=isolated,
        chain_times=chains,
    )


# -- window structure ---------------------------------------------------------


@settings(**SETTINGS)
@given(kernel_names, st.data())
def test_cyclic_windows_cover_each_kernel_exactly_l_times(names, data):
    flow = ControlFlow(names)
    length = data.draw(st.integers(2, len(names)))
    windows = flow.windows(length)
    assert len(windows) == len(names)
    for kernel in names:
        count = sum(1 for w in windows for k in w if k == kernel)
        assert count == length


@settings(**SETTINGS)
@given(kernel_names, st.data())
def test_windows_preserve_cyclic_adjacency(names, data):
    flow = ControlFlow(names)
    length = data.draw(st.integers(2, len(names)))
    adjacency = set(flow.adjacencies())
    for window in flow.windows(length):
        for a, b in zip(window, window[1:]):
            assert (a, b) in adjacency


# -- property 1: positivity ---------------------------------------------------


@settings(**SETTINGS)
@given(st.lists(positive, min_size=1, max_size=6), coupling_factor)
def test_coupling_values_are_strictly_positive(parts, factor):
    value = coupling_value(factor * sum(parts), parts)
    assert value > 0.0


@settings(**SETTINGS)
@given(measured_flow())
def test_coefficients_are_strictly_positive(bundle):
    flow, length, isolated, chains, _ = bundle
    cs = CouplingSet.from_performances(flow, length, chains, isolated)
    assert all(c > 0.0 for c in kernel_coefficients(cs).values())


# -- property 2: the neutral point --------------------------------------------


@settings(**SETTINGS)
@given(st.lists(positive, min_size=1, max_size=6))
def test_no_interaction_coupling_is_exactly_one(parts):
    assert math.isclose(coupling_value(sum(parts), parts), 1.0)


@settings(**SETTINGS)
@given(positive, positive)
def test_pairwise_coupling_is_one_iff_chain_equals_sum(p_i, p_j):
    # Exactly at P_ij == P_i + P_j the Eq. 1 coupling is exactly 1.
    assert coupling_value(p_i + p_j, [p_i, p_j]) == 1.0


@settings(**SETTINGS)
@given(positive, positive, coupling_factor)
def test_pairwise_coupling_deviates_exactly_with_the_chain(p_i, p_j, factor):
    value = coupling_value(factor * (p_i + p_j), [p_i, p_j])
    assert math.isclose(value, factor, rel_tol=1e-12)
    if factor > 1.0:
        assert value > 1.0
    elif factor < 1.0:
        assert value < 1.0


# -- coupling values ------------------------------------------------------------


@settings(**SETTINGS)
@given(st.lists(positive, min_size=1, max_size=6), st.floats(0.1, 10.0))
def test_coupling_scales_linearly_with_chain_time(parts, factor):
    base = coupling_value(sum(parts), parts)
    scaled = coupling_value(factor * sum(parts), parts)
    assert math.isclose(scaled, factor * base, rel_tol=1e-12)


@settings(**SETTINGS)
@given(st.lists(positive, min_size=2, max_size=6), st.floats(0.1, 10.0))
def test_coupling_is_unit_invariant(parts, unit):
    """Measuring in different units (ms vs s) cannot change C_S."""
    chain = 0.9 * sum(parts)
    a = coupling_value(chain, parts)
    b = coupling_value(unit * chain, [unit * p for p in parts])
    assert math.isclose(a, b, rel_tol=1e-12)


@settings(**SETTINGS)
@given(measured_flow())
def test_coupling_set_roundtrips_chain_performance(bundle):
    flow, length, isolated, chains, factors = bundle
    cs = CouplingSet.from_performances(flow, length, chains, isolated)
    for window, factor in factors.items():
        assert math.isclose(cs[window].value, factor, rel_tol=1e-9)


# -- property 3: convex weighted-average coefficients --------------------------


@settings(**SETTINGS)
@given(measured_flow())
def test_coefficients_match_the_weighted_average_formula(bundle):
    flow, length, isolated, chains, _ = bundle
    cs = CouplingSet.from_performances(flow, length, chains, isolated)
    coeffs = kernel_coefficients(cs)
    for kernel in flow.names:
        windows = flow.windows_containing(kernel, length)
        expected = weighted_average(
            values=[cs[w].value for w in windows],
            weights=[cs[w].chain_performance for w in windows],
        )
        assert math.isclose(coeffs[kernel], expected, rel_tol=1e-12)


@settings(**SETTINGS)
@given(measured_flow())
def test_coefficients_are_convex_combinations_of_couplings(bundle):
    flow, length, isolated, chains, _ = bundle
    cs = CouplingSet.from_performances(flow, length, chains, isolated)
    coeffs = kernel_coefficients(cs)
    values = cs.values()
    lo, hi = min(values.values()), max(values.values())
    for kernel, coeff in coeffs.items():
        assert lo - 1e-9 <= coeff <= hi + 1e-9
        # Tighter: bounded by the couplings of the windows containing it.
        own = [values[w] for w in flow.windows_containing(kernel, length)]
        assert min(own) - 1e-9 <= coeff <= max(own) + 1e-9


@settings(**SETTINGS)
@given(measured_flow(), st.floats(0.5, 1.5))
def test_uniform_coupling_gives_uniform_coefficients(bundle, factor):
    flow, length, isolated, _, _ = bundle
    chains = {
        w: factor * sum(isolated[k] for k in w) for w in flow.windows(length)
    }
    cs = CouplingSet.from_performances(flow, length, chains, isolated)
    for coeff in kernel_coefficients(cs).values():
        assert math.isclose(coeff, factor, rel_tol=1e-9)


# -- property 4: reduction to summation ----------------------------------------


@settings(**SETTINGS)
@given(measured_flow(), st.integers(1, 500))
def test_neutral_couplings_reduce_to_summation(bundle, iterations):
    flow, length, isolated, _, _ = bundle
    chains = {w: sum(isolated[k] for k in w) for w in flow.windows(length)}
    inputs = make_inputs(flow, isolated, chains, iterations)
    coupling = CouplingPredictor(length).predict(inputs)
    summation = SummationPredictor().predict(inputs)
    assert math.isclose(coupling, summation, rel_tol=1e-9)


# -- predictors -------------------------------------------------------------------


@settings(**SETTINGS)
@given(measured_flow(), st.integers(1, 500))
def test_constructive_couplings_predict_below_summation(bundle, iterations):
    flow, length, isolated, _, _ = bundle
    chains = {
        w: 0.8 * sum(isolated[k] for k in w) for w in flow.windows(length)
    }
    inputs = make_inputs(flow, isolated, chains, iterations)
    assert (
        CouplingPredictor(length).predict(inputs)
        < SummationPredictor().predict(inputs)
    )


@settings(**SETTINGS)
@given(measured_flow(), st.floats(1.05, 3.0))
def test_destructive_couplings_predict_above_summation(bundle, factor):
    flow, length, isolated, _, _ = bundle
    chains = {
        w: factor * sum(isolated[k] for k in w) for w in flow.windows(length)
    }
    inputs = make_inputs(flow, isolated, chains)
    assert (
        CouplingPredictor(length).predict(inputs)
        > SummationPredictor().predict(inputs)
    )


@settings(**SETTINGS)
@given(measured_flow(), st.floats(1.01, 3.0))
def test_prediction_is_monotone_in_chain_times(bundle, inflation):
    flow, length, isolated, chains, _ = bundle
    inputs = make_inputs(flow, isolated, chains)
    inflated = make_inputs(
        flow, isolated, {w: inflation * t for w, t in chains.items()}
    )
    predictor = CouplingPredictor(length)
    assert predictor.predict(inflated) > predictor.predict(inputs)


@settings(**SETTINGS)
@given(measured_flow(), st.integers(1, 100), st.floats(0.1, 10.0))
def test_prediction_scales_with_units(bundle, iterations, unit):
    """Rescaling every measurement rescales the prediction identically."""
    flow, length, isolated, chains, _ = bundle
    inputs = make_inputs(flow, isolated, chains, iterations)
    scaled = make_inputs(
        flow,
        {k: unit * v for k, v in isolated.items()},
        {w: unit * v for w, v in chains.items()},
        iterations,
    )
    predictor = CouplingPredictor(length)
    assert math.isclose(
        predictor.predict(scaled),
        unit * predictor.predict(inputs),
        rel_tol=1e-9,
    )
