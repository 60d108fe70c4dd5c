"""Coupling-algebra properties kept under their original test names.

The rest of the coupling properties live in ``tests/core/test_properties.py``;
these two reuse its strategies and pin, on their own, the convex-hull bound
of each coefficient and the reduction to summation at neutral couplings.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import kernel_coefficients
from repro.core.coupling import CouplingSet
from repro.core.predictor import CouplingPredictor, SummationPredictor
from tests.core.test_properties import SETTINGS, make_inputs, measured_flow


@settings(**SETTINGS)
@given(measured_flow())
def test_coefficients_lie_in_the_convex_hull_of_their_couplings(bundle):
    flow, length, isolated, chains, _ = bundle
    cs = CouplingSet.from_performances(flow, length, chains, isolated)
    coeffs = kernel_coefficients(cs)
    for kernel in flow.names:
        own = [
            cs[w].value for w in flow.windows_containing(kernel, length)
        ]
        assert min(own) - 1e-9 <= coeffs[kernel] <= max(own) + 1e-9


@settings(**SETTINGS)
@given(measured_flow(), st.integers(1, 200))
def test_all_neutral_couplings_reduce_to_summation(bundle, iterations):
    flow, length, isolated, _, _ = bundle
    neutral_chains = {
        w: sum(isolated[k] for k in w) for w in flow.windows(length)
    }
    inputs = make_inputs(flow, isolated, neutral_chains, iterations)
    assert math.isclose(
        CouplingPredictor(length).predict(inputs),
        SummationPredictor().predict(inputs),
        rel_tol=1e-9,
    )
