"""Two pools infiltrating each other: payoffs, equilibrium, region sweeps.

Each pool's distributable pot is its hosting income (blocks it publishes
that survive, including opponent-found ones) plus its infiltrator's share
of the opponent's pot. The pots are mutually recursive but linear in each
other, so they come from an exact 2x2 solve:

    pot1 = (a1-f1)/(1-f1-f2) + c2*f2*E/(1-f2) + c2p*X + pot2 * f1/(a2+f1)
    pot2 = (a2-f2)/(1-f1-f2) + c1*f1*E/(1-f1) + c1p*X + pot1 * f2/(a1+f2)

with E = 1-a1-a2 and X = f1*f2*(1/(1-f1) + 1/(1-f2)) * E/(1-f1-f2). The
three-branch terms credit the HOST pool, hence the opponent's primed
probability appears in each pot.

A pool's own power keeps pot_i * a_i/(a_i + f_opp) after paying the
opponent's infiltrator; that net take is what decides winning and losing
(at c=1 the external side never wins a fork, the two nets sum to a1+a2
exactly, and the win/lose borderline is the pool-size diagonal). Best
responses are identical under pot or net because the outgoing-share factor
does not depend on the pool's own infiltration choice.

With the opponent held fixed, a pool's pot is N(x)/D(x) for cubics N and D
in its own infiltration x, so a best response is the best-scoring of x = 0,
x = alpha and the roots of the quartic Q = N'D - ND' in between (the x^5
terms cancel), found as eigenvalues of Q's companion matrix. A sweep runs
every plan's alternating best responses in lockstep on arrays, through the
same kernel and with the same bits per plan, so every sweep cell equals
its per-cell solve.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolated,
    DegenerateInput,
    RationalFloorWarning,
    _caller_stacklevel,
)
from .scenarios import GameScenario, validate_game

WINNER_POOL1 = "pool1"
WINNER_POOL2 = "pool2"
WINNER_BOTH_LOSE = "both_lose"
WINNER_TIE = "both_gain_tie"

TIE_EPS_PP = 1e-4      # |RER| below this (in percentage points) counts as the borderline
DEVIATION_GRID = 2000  # unilateral_gain: line-scan points per pool
MAX_ITER = 10000       # best-response rounds per solve: the default, and every sweep cell's cap
TOL = 1e-7             # default solve tol: best-response rounds stop when max |df| < TOL
# finest solve tol: over 1500 random games and starts every solve converges at 1e-14 (in at most
# 17 rounds), while at 1e-16 about one in eight cycles at the level of rounding
TOL_FLOOR = 1e-13

SWEEP_CSV_HEADER = ("alpha2", "c", "f1", "f2", "rer1_pct", "rer2_pct", "winner", "converged")

MAX_AXIS_POINTS = 10**6


def pot_payoffs_raw(a1, a2, f1, f2, c1, c2, c1p, c2p):
    """Solve the pot system; ufunc-friendly in f1/f2, no validation."""
    ext = 1.0 - a1 - a2
    k1 = f1 / (a2 + f1)
    k2 = f2 / (a1 + f2)
    both = 1.0 - f1 - f2
    cross = f1 * f2 * (1.0 / (1.0 - f1) + 1.0 / (1.0 - f2)) * ext / both
    h1 = (a1 - f1) / both + c2 * f2 * ext / (1.0 - f2) + c2p * cross
    h2 = (a2 - f2) / both + c1 * f1 * ext / (1.0 - f1) + c1p * cross
    det = 1.0 - k1 * k2
    return (h1 + k1 * h2) / det, (h2 + k2 * h1) / det


def game_payoffs(g: GameScenario) -> tuple[float, float]:
    """Exact (pot1, pot2) for a validated scenario.

    Substituting the result back into the defining equations reproduces it
    to rounding error; with f1 = f2 = 0 it is exactly (alpha1, alpha2).
    Validation keeps the system's determinant at 3/4 or more.
    """
    validate_game(g)
    r1, r2 = pot_payoffs_raw(g.alpha1, g.alpha2, g.f1, g.f2, g.c1, g.c2, g.c1p, g.c2p)
    return float(r1), float(r2)


def _score(a1, a2, f1, f2, c1, c2, c1p, c2p):
    """Pots, nets and net RERs (percent) of one strategy pair; a powerless pool's RER is nan."""
    r1, r2 = pot_payoffs_raw(a1, a2, f1, f2, c1, c2, c1p, c2p)
    net1 = r1 * (a1 / (a1 + f2))
    net2 = r2 * (a2 / (a2 + f1))
    rer1 = (net1 - a1) / a1 * 100.0 if a1 else math.nan
    rer2 = (net2 - a2) / a2 * 100.0 if a2 else math.nan
    return (r1, r2), (net1, net2), (rer1, rer2)


def net_payoffs(g: GameScenario) -> tuple[float, float]:
    """Each pool's take after paying the opponent's infiltrator its share."""
    validate_game(g)
    _, (net1, net2), _ = _score(g.alpha1, g.alpha2, g.f1, g.f2, g.c1, g.c2, g.c1p, g.c2p)
    return float(net1), float(net2)


def _require_powers(alpha1, alpha2):
    for name, power in (("alpha1", alpha1), ("alpha2", alpha2)):
        if power == 0.0:
            raise DegenerateInput(f"{name}={power!r} must be positive: a powerless pool has no RER")


def _require_tol(tol):
    if not math.isfinite(tol):  # at tol = inf every round would pass as converged
        raise ConstraintViolated(f"tol={tol!r} must be finite")
    if tol < TOL_FLOOR:
        raise ConstraintViolated(
            f"tol={tol!r} is below the floor {TOL_FLOOR!r}, the finest tol the solver is tested at")


def _check_game(alpha1, alpha2, c1, c2, c1p, c2p, f1=0.0, f2=0.0):
    """The checks of one solve: both pools hold power, and the game is valid."""
    _require_powers(alpha1, alpha2)
    validate_game(GameScenario(alpha1, alpha2, f1, f2, c1, c2, c1p, c2p))


def best_response(g: GameScenario, responder: int) -> float:
    """Most profitable infiltration power for one pool, opponent held fixed.

    The best-scoring of x = 0, x = alpha_responder and the pot's stationary
    points between them (see the module docstring), the smallest x on a
    tie. Both pools need power of their own, or a candidate empties a pool.
    """
    validate_game(g)
    if responder not in (1, 2):
        raise ConstraintViolated(f"responder={responder!r} must be 1 or 2")
    _require_powers(g.alpha1, g.alpha2)
    return float(_best_response_raw(g.alpha1, g.alpha2, g.c1, g.c2, g.c1p, g.c2p, responder,
                                    g.f2 if responder == 1 else g.f1))


def _pot_fraction(a1, a2, c1, c2, c1p, c2p, responder, f_opp):
    """Cubics N and D, lowest coefficient first, with the responder's pot = N(x)/D(x).

    x is the responder's infiltration; a, c and cp are its power and branch
    probabilities, b, c_opp and cp_opp the opponent's. Times (s - x)(1 - x),
    with s = 1 - f_opp, the hosts' pots without the recursion are quadratics
    hr and ho; then N = hr*(b + x) + x*ho and D = (s - x)(1 - x)(b + x*a/(a + f_opp)).
    """
    sides = ((a1, c1, c1p), (a2, c2, c2p))
    (a, c, cp), (b, c_opp, cp_opp) = sides if responder == 1 else sides[::-1]
    ext, s = 1.0 - a - b, 1.0 - f_opp
    g = f_opp * ext
    w = c_opp * g / s  # the forks the opponent's infiltrator wins for the responder's pool
    cross1, cross2 = g * (1.0 + 1.0 / s), g / s  # cross * (s - x)(1 - x) = cross1*x - cross2*x^2
    hr0 = a + w * s
    hr1 = -(1.0 + a) - w * (1.0 + s) + cp_opp * cross1
    hr2 = 1.0 + w - cp_opp * cross2
    ho0 = b - f_opp
    ho1 = -ho0 + c * ext * s + cp * cross1
    ho2 = -c * ext - cp * cross2
    k = a / (a + f_opp)
    return ((b * hr0, hr0 + b * hr1 + ho0, hr1 + b * hr2 + ho1, hr2 + ho2),
            (s * b, s * k - (1.0 + s) * b, b - (1.0 + s) * k, k))


def _derivative_numerator(n, d):
    """Q = N'D - ND', lowest coefficient first; its x^5 terms cancel, so Q is a quartic."""
    (n0, n1, n2, n3), (d0, d1, d2, d3) = n, d
    return (n1 * d0 - n0 * d1,
            2.0 * (n2 * d0 - n0 * d2),
            3.0 * (n3 * d0 - n0 * d3) + (n2 * d1 - n1 * d2),
            2.0 * (n3 * d1 - n1 * d3),
            n3 * d2 - n2 * d3)


def _best_response_raw(a1, a2, c1, c2, c1p, c2p, responder, f_opp):
    """The responder's most profitable infiltration against f_opp, for floats or 1-D arrays.

    The best by ``pot_payoffs_raw`` of x = 0, x = cap and the real parts of
    Q's roots clipped to [0, cap], the smallest x on a tie. The candidates
    hold every maximum, and a spurious one can only lose. Each array entry
    is one plan, with the scalar call's arithmetic and so its bits.
    """
    cap = a1 if responder == 1 else a2
    n, d = _pot_fraction(a1, a2, c1, c2, c1p, c2p, responder, f_opp)
    q = np.array(_derivative_numerator(n, d)).T
    # a leading coefficient below the rounding of the others is raised to it: the root it
    # moves lies beyond cap/eps, and Q changes on [0, cap] by no more than its rounding;
    # the smallest subnormal keeps a zero Q, where every x ties, from dividing by zero
    floor = np.maximum(math.ulp(1.0) * np.abs(q).max(axis=-1), math.ulp(0.0))
    lead = np.copysign(np.maximum(np.abs(q[..., 4]), floor), q[..., 4])
    companion = np.zeros(q.shape[:-1] + (4, 4))
    companion[..., 0, :] = -q[..., 3::-1] / lead[..., None]
    companion[..., 1:, :3] = np.eye(3)
    xs = np.empty(q.shape[:-1] + (6,))
    xs[..., :4] = np.linalg.eigvals(companion).real
    xs[..., 4], xs[..., 5] = 0.0, cap
    # floats stay floats, which round as numpy does at less cost
    a1, a2, c1, c2, c1p, c2p, f_opp, cap = (v[..., None] if isinstance(v, np.ndarray) else v
                                            for v in (a1, a2, c1, c2, c1p, c2p, f_opp, cap))
    xs = np.minimum(np.maximum(xs, 0.0), cap)
    f1, f2 = (xs, f_opp) if responder == 1 else (f_opp, xs)
    pot = pot_payoffs_raw(a1, a2, f1, f2, c1, c2, c1p, c2p)[responder - 1]
    return np.where(pot == pot.max(axis=-1, keepdims=True), xs, np.inf).min(axis=-1)[()]


def _lockstep_equilibria(a1, a2, c, tol):
    """``solve_equilibrium`` from (0, 0) for every (a2, c) plan at once: f1, f2 and converged.

    Each plan leaves the lockstep by the per-cell rule: max |df| < tol, or
    MAX_ITER rounds.
    """
    f1, f2 = np.zeros(len(a2)), np.zeros(len(a2))
    converged = np.zeros(len(a2), dtype=bool)
    live = np.arange(len(a2))
    for _ in range(MAX_ITER):
        if not live.size:
            break
        a2_, c_, half = a2[live], c[live], c[live] / 2.0
        new_f1 = _best_response_raw(a1, a2_, c_, c_, half, half, 1, f2[live])
        new_f2 = _best_response_raw(a1, a2_, c_, c_, half, half, 2, new_f1)
        done = np.maximum(np.abs(new_f1 - f1[live]), np.abs(new_f2 - f2[live])) < tol
        f1[live], f2[live] = new_f1, new_f2
        converged[live[done]] = True
        live = live[~done]
    return f1, f2, converged


@dataclass(frozen=True)
class EquilibriumResult:
    """Fixed point of alternating best responses.

    r1/r2 are the pot payoffs, net1/net2 the after-share takes, and the RER
    percentages are computed on the nets. ``deviation_gain`` is the largest
    pot improvement either pool could still find by unilateral deviation
    (post-hoc line scan); it should be of the order of the solve tolerance.
    """

    f1_star: float
    f2_star: float
    r1: float
    r2: float
    net1: float
    net2: float
    rer1_pct: float
    rer2_pct: float
    iterations: int
    converged: bool
    trace: tuple[tuple[float, float], ...]
    deviation_gain: float


def unilateral_gain(a1, a2, c1, c2, c1p, c2p, f1, f2) -> float:
    """Best gain from a lone deviation: a 2001-point scan per pool, kept as an independent check."""
    _require_powers(a1, a2)
    base1, base2 = pot_payoffs_raw(a1, a2, f1, f2, c1, c2, c1p, c2p)
    xs1 = np.linspace(0.0, a1, DEVIATION_GRID + 1)
    gain1 = np.max(pot_payoffs_raw(a1, a2, xs1, f2, c1, c2, c1p, c2p)[0]) - base1
    xs2 = np.linspace(0.0, a2, DEVIATION_GRID + 1)
    gain2 = np.max(pot_payoffs_raw(a1, a2, f1, xs2, c1, c2, c1p, c2p)[1]) - base2
    return float(max(gain1, gain2))


def solve_equilibrium(alpha1, alpha2, c1, c2, c1p, c2p,
                      tol: float = TOL, max_iter: int = MAX_ITER,
                      start: tuple[float, float] = (0.0, 0.0),
                      keep_trace: bool = True) -> EquilibriumResult:
    """Alternating best-response dynamics until max |df| < tol.

    Each best response is the maximum over [0, alpha_i] whatever the pot's
    shape; concavity in each pool's own infiltration is needed only for
    the dynamics to contract to the unique fixed point from any start. A
    run that exhausts max_iter returns converged=False with the trace kept
    for diagnosis. A tol below TOL_FLOOR, the finest tol the convergence
    and deviation tests cover, is rejected.
    """
    _require_tol(tol)
    if max_iter < 1:
        raise ConstraintViolated(f"max_iter={max_iter!r} must be >= 1")
    _check_game(alpha1, alpha2, c1, c2, c1p, c2p, *start)
    f1, f2 = float(start[0]), float(start[1])
    trace = [(f1, f2)] if keep_trace else []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_f1 = float(_best_response_raw(alpha1, alpha2, c1, c2, c1p, c2p, 1, f2))
        if keep_trace:
            trace.append((new_f1, f2))
        new_f2 = float(_best_response_raw(alpha1, alpha2, c1, c2, c1p, c2p, 2, new_f1))
        if keep_trace:
            trace.append((new_f1, new_f2))
        delta = max(abs(new_f1 - f1), abs(new_f2 - f2))
        f1, f2 = new_f1, new_f2
        if delta < tol:
            converged = True
            break
    (r1, r2), (net1, net2), (rer1, rer2) = _score(alpha1, alpha2, f1, f2, c1, c2, c1p, c2p)
    return EquilibriumResult(
        f1_star=f1,
        f2_star=f2,
        r1=float(r1),
        r2=float(r2),
        net1=float(net1),
        net2=float(net2),
        rer1_pct=float(rer1),
        rer2_pct=float(rer2),
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
        deviation_gain=unilateral_gain(alpha1, alpha2, c1, c2, c1p, c2p, f1, f2),
    )


def classify_winner(rer1_pct: float, rer2_pct: float) -> str:
    """Winner from RER signs; values within TIE_EPS_PP of zero land on the borderline."""
    near1 = abs(rer1_pct) <= TIE_EPS_PP
    near2 = abs(rer2_pct) <= TIE_EPS_PP
    if (rer1_pct > TIE_EPS_PP and rer2_pct > TIE_EPS_PP) or near1 or near2:
        return WINNER_TIE
    if rer1_pct > TIE_EPS_PP:
        return WINNER_POOL1
    if rer2_pct > TIE_EPS_PP:
        return WINNER_POOL2
    return WINNER_BOTH_LOSE


@dataclass(frozen=True)
class RegionCell:
    """One sweep cell: equilibrium outcome at (alpha2, c)."""

    alpha2: float
    c: float
    f1: float
    f2: float
    rer1_pct: float
    rer2_pct: float
    winner: str
    converged: bool


def sweep_axis(start: float, stop: float, step: float) -> list[float]:
    """The grid start + i*step, inclusive of stop when it lies on the grid (within 1e-12).

    Empty when start > stop. A non-finite value, a non-positive step or more
    than MAX_AXIS_POINTS points raise ConstraintViolated.
    """
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConstraintViolated(f"range {start!r}:{stop!r}:{step!r} is not finite")
    if step <= 0.0:
        raise ConstraintViolated("range step must be positive")
    if (stop - start) / step >= MAX_AXIS_POINTS:
        raise ConstraintViolated(
            f"range {start!r}:{stop!r}:{step!r} has more than {MAX_AXIS_POINTS} points")
    values: list[float] = []
    while (v := start + len(values) * step) <= stop + 1e-12:
        values.append(v)
    return values


def _sweep(alpha1, alpha2_axis, c_axis, tol, assumed_c):
    """Winner cells in c-major order, each scored at its axis c.

    A cell plays the equilibrium solved at its planning c: alpha1 + alpha2
    when ``assumed_c``, else the axis c. A plan is one (alpha2, planning c)
    pair, and one solve serves every cell that shares it. Every cell is
    checked first, as its solve and score would check it (each plan once,
    and each assumed-c axis c once), so the first invalid cell raises. Plans
    below the rational-manager floor raise one RationalFloorWarning with
    their count. All plans are then solved together in lockstep.
    """
    _require_tol(tol)
    plans, scored, cells = {}, set(), []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalFloorWarning)
        for c in c_axis:
            for a2 in alpha2_axis:
                plan = (a2, alpha1 + a2 if assumed_c else c)
                if plan not in plans:
                    _check_game(alpha1, a2, plan[1], plan[1], plan[1] / 2.0, plan[1] / 2.0)
                    plans[plan] = len(plans)
                if assumed_c and c not in scored:
                    _check_game(alpha1, a2, c, c, c / 2.0, c / 2.0)
                    scored.add(c)
                cells.append((a2, c, plans[plan]))
    if below := sum(cp < alpha1 + a2 for a2, cp in plans):  # validate_game's test at c1 = c2
        warnings.warn(f"{below} of {len(plans)} sweep plans have a branch-win probability "
                      "below the rational-manager floor alpha1 + alpha2",
                      RationalFloorWarning, stacklevel=_caller_stacklevel())
    a2s, cps = np.array(list(plans), dtype=float).reshape(-1, 2).T
    f1s, f2s, converged = _lockstep_equilibria(alpha1, a2s, cps, tol)
    out = []
    for a2, c, k in cells:
        f1, f2 = float(f1s[k]), float(f2s[k])
        _, _, (rer1, rer2) = _score(alpha1, a2, f1, f2, c, c, c / 2.0, c / 2.0)
        out.append(RegionCell(
            alpha2=float(a2), c=float(c), f1=f1, f2=f2,
            rer1_pct=float(rer1), rer2_pct=float(rer2),
            winner=classify_winner(rer1, rer2),
            converged=bool(converged[k]),
        ))
    return out


def sweep_regions(alpha1, alpha2_axis, c_axis, tol: float = TOL) -> list[RegionCell]:
    """Equilibrium winner map under the symmetric model c_i = c, c_i' = c/2.

    Cells are emitted row-major with c as the outer axis and alpha2 inner.
    A cell whose solve exhausts MAX_ITER is recorded with converged=False
    and the sweep continues.
    """
    return _sweep(alpha1, alpha2_axis, c_axis, tol, assumed_c=False)


def sweep_regions_assumed_c(alpha1, alpha2_axis, c_axis, tol: float = TOL) -> list[RegionCell]:
    """Winner map when both managers plan for c = alpha1 + alpha2.

    Strategies come from the equilibrium under the assumed (minimum
    rational) c; payoffs and winners are then evaluated under the actual
    axis c. Same cell order as sweep_regions.
    """
    return _sweep(alpha1, alpha2_axis, c_axis, tol, assumed_c=True)


def write_sweep_csv(cells) -> str:
    """Serialize sweep cells as CSV text, in the order the sweep produced them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for cell in cells:
        writer.writerow([
            f"{cell.alpha2:.10g}", f"{cell.c:.10g}",
            f"{cell.f1:.12g}", f"{cell.f2:.12g}",
            f"{cell.rer1_pct:.12g}", f"{cell.rer2_pct:.12g}",
            cell.winner, str(cell.converged).lower(),
        ])
    return buf.getvalue()
