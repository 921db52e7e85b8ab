"""Shared test helpers and hypothesis strategies."""

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from epchain import ChainSpec


def assert_multiset_close(actual, expected, tol, label=""):
    """Assert two complex multisets match under an optimal pairing."""
    a = np.asarray(actual, dtype=complex)
    b = np.asarray(expected, dtype=complex)
    assert a.shape == b.shape, f"{label}: sizes differ, {a.shape} vs {b.shape}"
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    assert worst <= tol, f"{label}: multiset mismatch {worst:.3e} > {tol:.1e}"


@st.composite
def chain_specs(draw, max_n=6, min_n=1):
    """Random valid chain specifications with bounded rates."""
    n = draw(st.integers(min_n, max_n))
    rate = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    angle = st.floats(0.0, 2.0 * np.pi, allow_nan=False, allow_infinity=False)
    positive = st.floats(0.0, 1.5, allow_nan=False, allow_infinity=False)
    hopping = tuple(
        draw(rate) * np.exp(1j * draw(angle)) for _ in range(n - 1)
    )
    pairing = tuple(draw(positive) for _ in range(n - 1))
    sms = tuple(complex(draw(rate)) for _ in range(n))
    return ChainSpec(n_modes=n, hopping=hopping, pairing=pairing, sms=sms)


@st.composite
def spec_stacks(draw):
    """Stacks of 1 to 4 random chain specifications of one size."""
    spec = draw(chain_specs())
    n = spec.n_modes
    return [spec] + draw(st.lists(chain_specs(min_n=n, max_n=n), max_size=3))
