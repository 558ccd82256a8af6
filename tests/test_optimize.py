import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fawkit import multi_pool
from fawkit.multi_pool import optimize_allocation, preset_attack
from fawkit.optimize import grid_golden_max
from fawkit.single_pool import attacker_reward_formula, optimal_tau_closed_form

brackets = st.tuples(st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))  # (lo, width)


def _parabola(x0):
    return lambda x: -(x - x0) ** 2


@settings(max_examples=100)
@given(brackets, st.floats(0.0, 1.0), st.integers(1, 400), st.floats(1e-12, 1e-2))
def test_scan_finds_a_parabola_vertex(bracket, where, n_grid, xtol):
    lo, width = bracket
    hi = lo + width
    x0 = min(lo + where * width, hi)
    f = _parabola(x0)
    x, y = grid_golden_max(f, lo, hi, n_grid=n_grid, xtol=xtol)
    assert abs(x - x0) <= xtol + math.ulp(x0)
    assert y >= np.max(f(np.linspace(lo, hi, n_grid + 1)))  # never worse than the coarse grid


@settings(max_examples=100)
@given(st.floats(0.01, 0.49), st.floats(0.01, 0.49), st.floats(0.0, 1.0),
       st.integers(1, 1000), st.floats(1e-6, 1e-2))
def test_scan_finds_the_closed_form_tau(alpha, beta, c, n_grid, xtol):
    # the reward is flat to rounding within about 1e-8 of its argmax, so
    # xtol stays above that; the closed form is the true argmax here
    def f(tau):
        return attacker_reward_formula(alpha, beta, tau, c)

    x, y = grid_golden_max(f, 0.0, 1.0, n_grid=n_grid, xtol=xtol)
    tau = optimal_tau_closed_form(alpha, beta, c)
    assert abs(x - tau) <= xtol + math.ulp(tau)
    assert y >= np.max(f(np.linspace(0.0, 1.0, n_grid + 1)))


@settings(max_examples=100)
@given(brackets, st.floats(1e-6, 10.0), st.booleans(), st.integers(1, 400),
       st.floats(1e-12, 1e-2), st.booleans())
def test_a_maximum_at_an_end_is_that_end_exactly(bracket, gap, at_hi, n_grid, xtol, vectorized):
    lo, width = bracket
    hi = lo + width
    end = hi if at_hi else lo
    x0 = hi + gap if at_hi else lo - gap
    x, y = grid_golden_max(_parabola(x0), lo, hi, n_grid=n_grid, xtol=xtol, vectorized=vectorized)
    assert x == end
    assert y == _parabola(x0)(end)


@given(st.floats(-10.0, 10.0), st.floats(0.0, 10.0))
def test_an_empty_bracket_returns_lo(lo, below):
    f = _parabola(0.5)
    assert grid_golden_max(f, lo, lo - below) == (lo, f(lo))


def test_a_zero_xtol_stops_at_float_resolution():
    x, _ = grid_golden_max(_parabola(0.3), 0.0, 1.0, xtol=0.0)
    assert abs(x - 0.3) <= 4.0 * math.ulp(1.0)


def test_table2_solve_makes_few_kernel_calls(monkeypatch):
    # one call per Newton step scores all its derivative points, then one
    # for the KKT check and one for the reward: 5 calls, not one per point
    calls = []
    raw = multi_pool._reward_raw
    monkeypatch.setattr(multi_pool, "_reward_raw", lambda *args: calls.append(1) or raw(*args))
    res = optimize_allocation(*preset_attack("table2"), 1.0)
    assert res.converged
    assert len(calls) <= 10
