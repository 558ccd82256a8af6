import csv
import dataclasses
import io
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import game_scenarios
from fawkit import game, scenarios
from fawkit.errors import (
    ConstraintViolated,
    DegenerateInput,
    FawError,
    PowerOutOfRange,
    RationalFloorWarning,
)
from fawkit.game import (
    WINNER_BOTH_LOSE,
    WINNER_POOL1,
    WINNER_POOL2,
    WINNER_TIE,
    SWEEP_CSV_HEADER,
    RegionCell,
    _score,
    best_response,
    classify_winner,
    game_payoffs,
    net_payoffs,
    pot_payoffs_raw,
    solve_equilibrium,
    sweep_regions,
    sweep_regions_assumed_c,
    unilateral_gain,
    write_sweep_csv,
)
from fawkit.scenarios import GameScenario, SinglePoolScenario, validate_game
from fawkit.simulator import SimConfig, simulate
from fawkit.single_pool import reward_single, victim_reward

pytestmark = pytest.mark.filterwarnings("ignore::fawkit.errors.RationalFloorWarning")


def _payoff_rhs(g, r1, r2):
    """Defining equations evaluated at a candidate (r1, r2)."""
    ext = 1 - g.alpha1 - g.alpha2
    both = 1 - g.f1 - g.f2
    cross = g.f1 * g.f2 * (1 / (1 - g.f1) + 1 / (1 - g.f2)) * ext / both
    rhs1 = (g.alpha1 - g.f1) / both + g.c2 * g.f2 * ext / (1 - g.f2) \
        + g.c2p * cross + r2 * g.f1 / (g.alpha2 + g.f1)
    rhs2 = (g.alpha2 - g.f2) / both + g.c1 * g.f1 * ext / (1 - g.f1) \
        + g.c1p * cross + r1 * g.f2 / (g.alpha1 + g.f2)
    return rhs1, rhs2


def test_no_infiltration_gives_honest_shares():
    g = GameScenario(0.2, 0.1, 0.0, 0.0, 1.0, 1.0, 0.5, 0.5)
    assert game_payoffs(g) == (0.2, 0.1)
    assert net_payoffs(g) == (0.2, 0.1)


def test_one_sided_attack_matches_single_pool_forms():
    # pool 2 passive: pool 1 is a lone attacker on a beta = alpha2 pool
    a1, a2, f1, c1 = 0.2, 0.1, 0.05, 0.9
    g = GameScenario(a1, a2, f1, 0.0, c1, 0.0, 0.0, 0.0)
    r1, r2 = game_payoffs(g)
    tau = f1 / a1
    assert r1 == pytest.approx(
        reward_single(SinglePoolScenario(a1, a2, tau, c1)), abs=1e-14)
    assert r2 == pytest.approx(
        victim_reward(SinglePoolScenario(a1, a2, tau, c1)), abs=1e-14)


def test_payoff_system_exactness():
    rng = np.random.default_rng(31)
    for _ in range(200):
        a1 = rng.uniform(0.05, 0.45)
        a2 = rng.uniform(0.05, min(0.45, 0.99 - a1))
        c1p = rng.uniform(0, 1)
        g = GameScenario(a1, a2,
                         rng.uniform(0, a1), rng.uniform(0, a2),
                         rng.uniform(0, 1), rng.uniform(0, 1),
                         c1p, rng.uniform(0, 1 - c1p))
        r1, r2 = game_payoffs(g)
        rhs1, rhs2 = _payoff_rhs(g, r1, r2)
        assert abs(r1 - rhs1) <= 1e-10
        assert abs(r2 - rhs2) <= 1e-10


@given(game_scenarios())
def test_pot_system_determinant_at_least_three_quarters(g):
    """det = 1 - k1*k2 >= 3/4 on every valid scenario, so the pot solve is never singular.

    k1 = f1/(a2 + f1) grows with f1 and f1 <= a1, so k1 <= a1/(a1 + a2);
    likewise k2 <= a2/(a1 + a2). Hence k1*k2 <= a1*a2/(a1 + a2)^2 <= 1/4,
    because (a1 + a2)^2 - 4*a1*a2 = (a1 - a2)^2 >= 0.
    """
    k1 = g.f1 / (g.alpha2 + g.f1)
    k2 = g.f2 / (g.alpha1 + g.f2)
    assert 1.0 - k1 * k2 >= 0.75 - 1e-15


def test_swapping_pools_swaps_payoffs():
    g = GameScenario(0.3, 0.15, 0.1, 0.05, 0.8, 0.6, 0.3, 0.4)
    swapped = GameScenario(0.15, 0.3, 0.05, 0.1, 0.6, 0.8, 0.4, 0.3)
    r1, r2 = game_payoffs(g)
    s1, s2 = game_payoffs(swapped)
    assert (r1, r2) == (s2, s1)


def test_best_response_against_exhaustive_scan():
    g = GameScenario(0.2, 0.1, 0.0, 0.05, 0.3, 0.3, 0.15, 0.15)
    br = best_response(g, responder=1)
    # brute oracle: 1e-5-step scan of pool 1's payoff
    xs = np.arange(0.0, 0.2 + 1e-12, 1e-5)
    ys = pot_payoffs_raw(0.2, 0.1, xs, 0.05, 0.3, 0.3, 0.15, 0.15)[0]
    scan_best = xs[int(np.argmax(ys))]
    assert abs(br - scan_best) <= 2e-5
    assert float(pot_payoffs_raw(0.2, 0.1, br, 0.05, 0.3, 0.3, 0.15, 0.15)[0]) \
        >= float(np.max(ys)) - 1e-12


def test_attacking_a_compliant_pool_profits():
    # compliance is not an equilibrium: the best response to f = 0 is to attack
    g = GameScenario(0.2, 0.1, 0.0, 0.0, 0.5, 0.5, 0.25, 0.25)
    br = best_response(g, responder=1)
    assert br > 0.0
    r1, _ = game_payoffs(GameScenario(0.2, 0.1, br, 0.0, 0.5, 0.5, 0.25, 0.25))
    assert r1 > 0.2


def test_best_response_bounded_by_alpha():
    g = GameScenario(0.2, 1e-6, 0.0, 0.0, 0.5, 0.5, 0.25, 0.25)
    assert 0.0 <= best_response(g, responder=2) <= 1e-6


def test_best_response_rejects_a_powerless_opponent():
    # pool 2 holds only pool 1's infiltrator: the scan at f1 = 0 would cross an empty pool
    g = GameScenario(0.2, 0.0, 0.1, 0.0, 1.0, 1.0, 0.5, 0.5)
    with pytest.raises(DegenerateInput, match="alpha2"):
        best_response(g, responder=1)
    with pytest.raises(DegenerateInput, match="alpha2"):
        unilateral_gain(0.2, 0.0, 1.0, 1.0, 0.5, 0.5, 0.1, 0.0)


@given(st.floats(0.01, 0.49), st.floats(0.01, 0.49), st.sampled_from((1, 2)),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_best_response_matches_dense_scan(a1, a2, responder, opp_frac, c1, c2, c1p, c2p_frac):
    """The fixed scan-and-refine settings find the best pot anywhere in the valid domain."""
    c2p = c2p_frac * (1.0 - c1p)
    cap, f_opp = (a1, opp_frac * a2) if responder == 1 else (a2, opp_frac * a1)
    f1, f2 = (0.0, f_opp) if responder == 1 else (f_opp, 0.0)
    br = best_response(GameScenario(a1, a2, f1, f2, c1, c2, c1p, c2p), responder)
    assert 0.0 <= br <= cap

    def pot(x):
        args = (x, f_opp) if responder == 1 else (f_opp, x)
        return pot_payoffs_raw(a1, a2, *args, c1, c2, c1p, c2p)[responder - 1]

    assert float(pot(br)) >= float(np.max(pot(np.linspace(0.0, cap, 20001)))) - 1e-12


def _responder_pot(a1, a2, c1, c2, c1p, c2p, responder, f_opp, x):
    f1, f2 = (x, f_opp) if responder == 1 else (f_opp, x)
    return pot_payoffs_raw(a1, a2, f1, f2, c1, c2, c1p, c2p)[responder - 1]


@st.composite
def _responder_games(draw):
    """A valid game where both pools hold power, a responder, the opponent's f and a point x."""
    a1, a2 = draw(st.floats(1e-6, 0.4999)), draw(st.floats(1e-6, 0.4999))
    c1, c2, c1p = (draw(st.floats(0.0, 1.0)) for _ in range(3))
    c2p = draw(st.floats(0.0, 1.0 - c1p))
    responder = draw(st.sampled_from((1, 2)))
    cap, opp = (a1, a2) if responder == 1 else (a2, a1)
    return (a1, a2, c1, c2, c1p, c2p, responder, draw(st.floats(0.0, opp)),
            draw(st.floats(0.0, cap)))


@given(_responder_games())
def test_q_is_the_numerator_of_the_pot_derivative(game_at_x):
    """Q/D^2 is d pot/dx (complex step, no subtraction to cancel), and Q drops no x^5 term."""
    *args, x = game_at_x
    n, d = game._pot_fraction(*args)
    q = game._derivative_numerator(n, d)
    h = 1e-30
    slope = _responder_pot(*args, x + 1j * h).imag / h
    poly = np.polynomial.polynomial
    dx = poly.polyval(x, d)
    # the size of the terms N'D and ND' whose difference is Q: below it Q is rounding
    terms = (poly.polyval(x, np.abs(poly.polyder(n))) * poly.polyval(x, np.abs(d))
             + poly.polyval(x, np.abs(n)) * poly.polyval(x, np.abs(poly.polyder(d))))
    assert abs(poly.polyval(x, q) / dx**2 - slope) <= 1e-9 * max(abs(slope), terms / dx**2)
    full = np.convolve(poly.polyder(n), d) - np.convolve(n, poly.polyder(d))
    assert abs(full[5]) <= 1e-13 * np.abs(full).max()
    assert np.abs(full[:5] - q).max() <= 1e-13 * np.abs(full).max()


@pytest.mark.parametrize("a1, a2, c1, c2, c1p, c2p, responder, f_opp", [
    (0.2, 0.1, 0.8, 0.6, 0.4, 0.3, 1, 0.0),
    (0.2, 0.1, 0.8, 0.6, 0.4, 0.3, 2, 0.0),
    (0.2, 0.1, 0.0, 0.0, 0.0, 0.0, 1, 0.05),
    (0.2, 0.1, 0.0, 0.0, 0.0, 0.0, 2, 0.0),
    (0.2, 5e-324, 1.0, 1.0, 0.5, 0.5, 2, 0.1),
    (5e-324, 0.3, 0.9, 0.7, 0.5, 0.3, 1, 0.2),
    (0.2, 5e-324, 1.0, 1.0, 0.5, 0.5, 1, 5e-324),  # Q is rounding noise: pot is flat
    (5e-324, 5e-324, 1.0, 0.0, 0.0, 0.0, 1, 5e-324),  # every coefficient of Q is 0
    (1e-18, 0.2, 1.0, 1.0, 0.5, 0.5, 1, 0.1),  # every candidate scores the same pot
], ids=["f-opp-0-r1", "f-opp-0-r2", "c-0-r1", "c-0-both-f-0", "subnormal-cap-r2",
        "subnormal-cap-r1", "subnormal-opponent", "zero-q", "tied-ends"])
def test_kernel_edge_cases(a1, a2, c1, c2, c1p, c2p, responder, f_opp):
    """No RuntimeWarning (pytest makes one an error), x in [0, cap], the best pot, ties to 0."""
    args = (a1, a2, c1, c2, c1p, c2p, responder, f_opp)
    x = game._best_response_raw(*args)
    cap = a1 if responder == 1 else a2
    assert 0.0 <= x <= cap
    best = _responder_pot(*args, x)
    assert best >= _responder_pot(*args, np.linspace(0.0, cap, 2001)).max() - 1e-15
    if best == _responder_pot(*args, 0.0):
        assert x == 0.0


@pytest.mark.parametrize("args, root, end", [
    ((0.45, 0.1, 1.0, 1.0, 0.5, 0.5, 1, 0.05), 0.0, 0.45),  # pot(cap) > pot(0)
    ((0.45, 0.1, 0.0, 0.0, 0.0, 0.0, 1, 0.05), 0.45, 0.0),  # pot(0) > pot(cap)
], ids=["cap-end", "zero-end"])
def test_both_ends_are_candidates(monkeypatch, args, root, end):
    """With every root of Q moved onto one end, the other end still competes and wins."""
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: np.full(m.shape[:-1], root, complex))
    assert game._best_response_raw(*args) == end


@given(_responder_games())
def test_interior_best_response_is_a_local_maximum(game_at_x):
    *args, _ = game_at_x
    x = game._best_response_raw(*args)
    cap = args[0] if args[6] == 1 else args[1]
    assume(0.0 < x < cap)
    best = _responder_pot(*args, x)
    for step in (1e-9, 1e-6, 1e-3):
        for y in (max(x - step * cap, 0.0), min(x + step * cap, cap)):
            assert _responder_pot(*args, y) <= best + 4 * np.finfo(float).eps * abs(best)


def test_best_response_rejects_unknown_responder():
    g = GameScenario(0.2, 0.1, 0.0, 0.0, 0.5, 0.5, 0.25, 0.25)
    with pytest.raises(ConstraintViolated, match="responder"):
        best_response(g, responder=3)


def test_equilibrium_symmetric_game():
    res = solve_equilibrium(0.2, 0.2, 0.8, 0.8, 0.4, 0.4)
    assert res.converged
    assert abs(res.f1_star - res.f2_star) <= 1e-6
    assert abs(res.rer1_pct - res.rer2_pct) <= 1e-4


def test_equilibrium_larger_pool_wins_at_full_c():
    res = solve_equilibrium(0.2, 0.1, 1.0, 1.0, 0.5, 0.5)
    assert res.converged
    assert res.rer1_pct > 0 > res.rer2_pct
    assert 0 <= res.f1_star <= 0.2 and 0 <= res.f2_star <= 0.1


def test_nets_sum_to_sizes_at_full_c():
    # with c = 1 the external side never wins a fork, so the pools' net
    # takes split exactly alpha1 + alpha2 between them
    res = solve_equilibrium(0.2, 0.13, 1.0, 1.0, 0.5, 0.5)
    assert res.net1 + res.net2 == pytest.approx(0.33, abs=1e-9)


def test_equilibrium_unique_across_starts():
    rng = np.random.default_rng(37)
    tol = game.TOL
    for _ in range(10):
        a1 = rng.uniform(0.05, 0.45)
        a2 = rng.uniform(0.05, min(0.45, 0.99 - a1))
        c1, c2 = rng.uniform(0, 1, 2)
        c1p = rng.uniform(0, 1)
        c2p = rng.uniform(0, 1 - c1p)
        points = []
        for start in ((0.0, 0.0), (a1, a2), (a1, 0.0)):
            res = solve_equilibrium(a1, a2, c1, c2, c1p, c2p, start=start)
            assert res.converged
            points.append((res.f1_star, res.f2_star))
        spread = max(max(abs(p[0] - points[0][0]), abs(p[1] - points[0][1]))
                     for p in points)
        assert spread <= 10 * tol


def test_equilibrium_deviation_stable():
    res = solve_equilibrium(0.25, 0.15, 0.9, 0.7, 0.5, 0.3)
    assert res.deviation_gain <= 10 * game.TOL


# a tol far below game.TOL: over 1500 random games and starts every solve converges at 1e-14
# (in at most 17 rounds), while at 1e-16 about one in eight cycles at the level of rounding
FINE_TOL = 1e-13


@given(st.floats(0.001, 0.4999), st.floats(0.001, 0.4999), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_solve_at_the_floor_converges(a1, a2, c1, c2, c1p, c2p_frac):
    """Converged solves take at most 16 rounds, so 50 leave room; a cycling one never stops."""
    with pytest.MonkeyPatch.context() as mp:  # hypothesis rejects the function-scoped fixture
        mp.setattr(game, "TOL", FINE_TOL)
        mp.setattr(game, "MAX_ITER", 50)
        res = solve_equilibrium(a1, a2, c1, c2, c1p, c2p_frac * (1.0 - c1p), keep_trace=False)
    assert res.converged


@settings(max_examples=100)
@given(st.floats(0.001, 0.4999), st.floats(0.001, 0.4999), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([FINE_TOL, game.TOL]))
def test_converged_solve_is_deviation_stable(a1, a2, c1, c2, c1p, c2p_frac, s1, s2, tol):
    """Criterion 6 on 100 seeded games, widened to any game, start and tol."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game, "TOL", tol)
        res = solve_equilibrium(a1, a2, c1, c2, c1p, c2p_frac * (1.0 - c1p),
                                start=(s1 * a1, s2 * a2), keep_trace=False)
    assert res.converged
    assert res.deviation_gain <= 10 * tol


def test_equilibrium_trace_and_iteration_cap(monkeypatch):
    monkeypatch.setattr(game, "MAX_ITER", 1)
    res = solve_equilibrium(0.2, 0.1, 1.0, 1.0, 0.5, 0.5)
    assert not res.converged
    assert res.iterations == 1
    assert len(res.trace) == 3  # start plus two unilateral updates
    for start in ((0.1,), (0.1, 0.05, 0.0)):
        with pytest.raises(ConstraintViolated, match=re.escape(f"start={start!r} must be a pair")):
            solve_equilibrium(0.2, 0.1, 1.0, 1.0, 0.5, 0.5, start=start)


@pytest.mark.parametrize("max_iter", [1, game.MAX_ITER], ids=["cut", "converged"])
@pytest.mark.parametrize("a1, a2, c1, c2, c1p, c2p", [
    (0.2, 0.1, 1.0, 1.0, 0.5, 0.5),
    (0.25, 0.15, 0.9, 0.7, 0.5, 0.3),
    (0.3, 0.2, 0.1, 0.2, 0.05, 0.1),  # below the rational-manager floor
])
def test_keep_trace_only_drops_the_trace(monkeypatch, max_iter, a1, a2, c1, c2, c1p, c2p):
    monkeypatch.setattr(game, "MAX_ITER", max_iter)
    for start in ((0.0, 0.0), (a1, a2), (a1, 0.0)):
        traced = solve_equilibrium(a1, a2, c1, c2, c1p, c2p, start=start)
        untraced = solve_equilibrium(a1, a2, c1, c2, c1p, c2p, start=start, keep_trace=False)
        assert untraced.trace == ()
        for field in dataclasses.fields(traced):
            if field.name != "trace":  # repr round-trips a float and tells -0.0 from 0.0
                assert repr(getattr(untraced, field.name)) == repr(getattr(traced, field.name))
        assert len(traced.trace) == 2 * traced.iterations + 1
        assert traced.trace[0] == start
        assert traced.trace[-1] == (traced.f1_star, traced.f2_star)


def test_classify_winner():
    assert classify_winner(2.0, -1.0) == WINNER_POOL1
    assert classify_winner(-2.0, 0.5) == WINNER_POOL2
    assert classify_winner(-2.0, -0.5) == WINNER_BOTH_LOSE
    assert classify_winner(1.0, 1.0) == WINNER_TIE
    assert classify_winner(5e-5, -3.0) == WINNER_TIE  # borderline band
    assert classify_winner(3.0, -5e-5) == WINNER_TIE


def test_sweep_row_order_and_csv():
    cells = sweep_regions(0.2, [0.1, 0.15], [0.5, 1.0])
    assert [(c.c, c.alpha2) for c in cells] == [(0.5, 0.1), (0.5, 0.15), (1.0, 0.1), (1.0, 0.15)]
    text = write_sweep_csv(cells)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(SWEEP_CSV_HEADER)
    assert len(rows) == 5
    assert rows[1][0] == "0.1" and rows[1][1] == "0.5"
    assert rows[1][6] in (WINNER_POOL1, WINNER_POOL2, WINNER_BOTH_LOSE, WINNER_TIE)


def test_sweep_borderline_near_equal_sizes_at_full_c():
    axis = [0.17, 0.18, 0.19, 0.195, 0.205, 0.21, 0.22]
    cells = sweep_regions(0.2, axis, [1.0])
    for cell in cells:
        if cell.alpha2 < 0.2 - 0.006:
            assert cell.winner == WINNER_POOL1, cell
        elif cell.alpha2 > 0.2 + 0.006:
            assert cell.winner == WINNER_POOL2, cell


def test_sweep_cells_are_solve_and_classify():
    axis_a2, axis_c = [0.1, 0.25], [0.15, 0.6, 1.0]
    cells = sweep_regions(0.2, axis_a2, axis_c)
    for cell, (c, a2) in zip(cells, itertools.product(axis_c, axis_a2), strict=True):
        res = solve_equilibrium(0.2, a2, c, c, c / 2, c / 2)
        assert cell == RegionCell(a2, c, res.f1_star, res.f2_star, res.rer1_pct, res.rer2_pct,
                                  classify_winner(res.rer1_pct, res.rer2_pct), res.converged)


def test_assumed_c_cell_at_its_planning_c_is_the_plain_cell():
    axis_a2 = [0.1, 0.15, 0.3]
    axis_c = [0.2 + a2 for a2 in axis_a2]
    plain = sweep_regions(0.2, axis_a2, axis_c)
    assumed = sweep_regions_assumed_c(0.2, axis_a2, axis_c)
    at_floor = [(p, a) for p, a in zip(plain, assumed) if a.c == 0.2 + a.alpha2]
    assert len(at_floor) == len(axis_a2)
    for p, a in at_floor:
        assert a == p


def test_both_lose_region_exists_at_low_c():
    cells = sweep_regions(0.2, [0.18, 0.2], [0.2])
    assert any(c.winner == WINNER_BOTH_LOSE for c in cells)


def test_assumed_c_planning():
    # both managers plan for the rational floor c = alpha1 + alpha2, realized c varies
    ca = 0.2 + 0.1
    cells = sweep_regions_assumed_c(0.2, [0.1], [0.3, 1.0])
    planned = solve_equilibrium(0.2, 0.1, ca, ca, ca / 2, ca / 2)
    for cell in cells:
        assert cell.f1 == pytest.approx(planned.f1_star, abs=1e-9)
        assert cell.f2 == pytest.approx(planned.f2_star, abs=1e-9)
    at_floor = next(c for c in cells if c.c == 0.3)
    assert at_floor.rer1_pct == pytest.approx(planned.rer1_pct, abs=1e-9)
    at_one = next(c for c in cells if c.c == 1.0)
    assert at_one.winner == WINNER_POOL1


def test_assumed_c_shrinks_both_lose_region():
    axis_a2 = [0.12, 0.16, 0.2, 0.24]
    axis_c = [0.2, 0.4, 0.6, 0.8]
    known = sweep_regions(0.2, axis_a2, axis_c)
    assumed = sweep_regions_assumed_c(0.2, axis_a2, axis_c)
    known_lose = {(c.alpha2, c.c) for c in known if c.winner == WINNER_BOTH_LOSE}
    assumed_lose = {(c.alpha2, c.c) for c in assumed if c.winner == WINNER_BOTH_LOSE}
    assert assumed_lose <= known_lose


_SWEEPS = {False: sweep_regions, True: sweep_regions_assumed_c}


def _sweep_and_per_cell(alpha1, axis_a2, axis_c, assumed_c):
    """A sweep's cells, and the same cells built the slow way: one solve_equilibrium each."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalFloorWarning)
        cells = _SWEEPS[assumed_c](alpha1, axis_a2, axis_c)
        expected = []
        for c, a2 in itertools.product(axis_c, axis_a2):
            cp = alpha1 + a2 if assumed_c else c
            res = solve_equilibrium(alpha1, a2, cp, cp, cp / 2, cp / 2, keep_trace=False)
            _, _, (rer1, rer2) = _score(alpha1, a2, res.f1_star, res.f2_star, c, c, c / 2, c / 2)
            expected.append(RegionCell(a2, c, res.f1_star, res.f2_star, float(rer1), float(rer2),
                                       classify_winner(rer1, rer2), res.converged))
    return cells, expected


@settings(max_examples=20)
@given(st.floats(0.001, 0.49),
       st.lists(st.floats(0.001, 0.49), min_size=1, max_size=3),
       st.lists(st.floats(0.0, 1.0), min_size=0, max_size=2),
       st.booleans())
def test_lockstep_sweep_is_the_per_cell_solve(alpha1, axis_a2, axis_c, assumed_c):
    """Every cell, c below the floor and repeated alpha2 included, equals its own solve bit for bit."""
    axis_a2 = axis_a2 + axis_a2[:1]  # a repeated alpha2 shares its plans
    axis_c = axis_c + [1.0]
    cells, expected = _sweep_and_per_cell(alpha1, axis_a2, axis_c, assumed_c)
    assert cells == expected
    for cell in cells[-len(axis_a2):]:  # c = 1: the external side never wins a fork
        net1 = alpha1 * (1.0 + cell.rer1_pct / 100.0)
        net2 = cell.alpha2 * (1.0 + cell.rer2_pct / 100.0)
        assert net1 + net2 == pytest.approx(alpha1 + cell.alpha2, abs=1e-12)


@pytest.mark.parametrize("assumed_c", [False, True], ids=["plain", "assumed-c"])
def test_subnormal_alpha2_sweeps_as_the_per_cell_solve(assumed_c):
    # a grid step that underflows to 0 makes numpy build every row of a batched grid differently
    cells, expected = _sweep_and_per_cell(0.2, [1e-320, 0.1, 0.13, 5e-324], [0.3, 1.0], assumed_c)
    assert cells == expected


@pytest.mark.parametrize("assumed_c", [False, True], ids=["plain", "assumed-c"])
@pytest.mark.parametrize("max_iter", [1, 2])
def test_sweep_cells_cut_at_max_iter_are_the_per_cell_cut(monkeypatch, max_iter, assumed_c):
    monkeypatch.setattr(game, "MAX_ITER", max_iter)
    cells, expected = _sweep_and_per_cell(0.2, [0.1, 0.25, 0.1], [0.3, 1.0], assumed_c)
    assert cells == expected
    assert not any(cell.converged for cell in cells)


def _first_solve_error(alpha1, axis_a2, axis_c):
    for c, a2 in itertools.product(axis_c, axis_a2):
        try:
            solve_equilibrium(alpha1, a2, c, c, c / 2, c / 2)
        except FawError as exc:
            return exc
    raise AssertionError("every cell is valid")


@pytest.mark.parametrize("axis_a2, axis_c", [
    ([0.1], [0.5, 1.5]),
    ([0.1, 0.0], [1.0]),
    ([0.0, 0.1], [1.5]),
    ([0.1, 0.5], [1.0]),
], ids=["c-above-1", "alpha2-0", "alpha2-0-first", "alpha2-majority"])
def test_invalid_axis_raises_the_per_cell_error(axis_a2, axis_c):
    err = _first_solve_error(0.2, axis_a2, axis_c)
    with pytest.raises(type(err), match=re.escape(str(err))):
        sweep_regions(0.2, axis_a2, axis_c)
    if isinstance(err, DegenerateInput):  # assumed-c plans differ from plain ones only in c
        with pytest.raises(DegenerateInput, match=re.escape(str(err))):
            sweep_regions_assumed_c(0.2, axis_a2, axis_c)


@pytest.mark.parametrize("sweep", _SWEEPS.values(), ids=["plain", "assumed-c"])
@pytest.mark.parametrize("axis_a2, axis_c", [([], [0.5]), ([0.1], []), ([], [])])
def test_empty_axis_sweeps_to_no_cells(sweep, axis_a2, axis_c):
    assert sweep(0.2, axis_a2, axis_c) == []


def test_sweep_warns_once_with_the_count_of_plans_below_the_floor():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cells = sweep_regions(0.2, [0.1, 0.2], [0.1, 0.2, 0.5])
        assert sweep_regions_assumed_c(0.2, [0.1, 0.2], [0.1, 0.2, 0.5]) != []
    assert len(cells) == 6
    assert [(w.category, str(w.message), w.filename) for w in caught] == [
        (RationalFloorWarning, "4 of 6 sweep plans have a branch-win probability below the "
         "rational-manager floor alpha1 + alpha2", __file__)]


def _below_floor():
    return GameScenario(0.2, 0.1, 0.0, 0.0, 0.1, 0.1, 0.05, 0.05)


@pytest.mark.parametrize("call", [
    _below_floor,
    lambda: solve_equilibrium(0.2, 0.1, 0.1, 0.1, 0.05, 0.05),
    lambda: net_payoffs(_below_floor()),
    lambda: best_response(_below_floor(), 1),
    lambda: simulate(SimConfig(rounds=1000, seed=1, scenario=_below_floor())),
], ids=["GameScenario", "solve_equilibrium", "net_payoffs", "best_response", "simulate"])
def test_floor_warning_names_the_callers_line(call):
    """The one warning comes from building the game: a call on a built scenario adds none."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [(w.category, w.filename) for w in caught] == [(RationalFloorWarning, __file__)]


def test_sweep_passes_other_warnings_through(monkeypatch):
    def noisy_validate(g):
        warnings.warn("not about the floor", UserWarning)
        return validate_game(g)

    monkeypatch.setattr(scenarios, "validate_game", noisy_validate)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep_regions(0.2, [0.1], [0.5, 1.0])
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "not about the floor")] * 2


def _first_assumed_c_error(alpha1, axis_a2, axis_c):
    """The first error of the per-cell route: solve at the planning c, then score at the axis c."""
    for c, a2 in itertools.product(axis_c, axis_a2):
        cp = alpha1 + a2
        try:
            res = solve_equilibrium(alpha1, a2, cp, cp, cp / 2, cp / 2, keep_trace=False)
            net_payoffs(GameScenario(alpha1, a2, res.f1_star, res.f2_star, c, c, c / 2, c / 2))
        except FawError as exc:
            return exc
    raise AssertionError("every cell is valid")


@pytest.mark.parametrize("axis_c", [[1.5], [-0.5], [np.nan], [0.5, 1.5]],
                         ids=["1.5", "-0.5", "nan", "second-c"])
def test_assumed_c_rejects_an_axis_c_as_the_plain_sweep_does(axis_c):
    err = _first_assumed_c_error(0.2, [0.1], axis_c)
    assert type(err) is PowerOutOfRange
    for sweep in (sweep_regions, sweep_regions_assumed_c):
        with pytest.raises(PowerOutOfRange, match=re.escape(str(err))):
            sweep(0.2, [0.1], axis_c)


@pytest.mark.parametrize("axis_a2, axis_c", [
    ([0.0, 0.1], [1.5]),
    ([0.5, 0.1], [1.5]),
    ([0.1, 0.5], [1.5]),
    ([0.1, 0.0], [0.5, -0.5]),
], ids=["alpha2-0-first", "alpha2-majority-first", "c-before-alpha2", "alpha2-0-before-a-bad-c"])
def test_assumed_c_raises_the_first_cell_error(axis_a2, axis_c):
    err = _first_assumed_c_error(0.2, axis_a2, axis_c)
    with pytest.raises(type(err), match=re.escape(str(err))):
        sweep_regions_assumed_c(0.2, axis_a2, axis_c)


def test_assumed_c_checks_each_axis_c_once(monkeypatch):
    checked = []

    def counting_validate(g):
        checked.append((g.alpha2, g.c1))
        return validate_game(g)

    monkeypatch.setattr(scenarios, "validate_game", counting_validate)
    sweep_regions_assumed_c(0.2, [0.1, 0.15, 0.1], [0.5, 1.0, 0.5])
    # each plan once, and each distinct axis c once, after the plan of its first cell
    assert checked == [(0.1, 0.2 + 0.1), (0.1, 0.5), (0.15, 0.2 + 0.15), (0.1, 1.0)]
