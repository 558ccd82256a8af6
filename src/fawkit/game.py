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
in its own infiltration x, and pot' = Q/D^2 for the quartic Q = N'D - ND'
(the x^5 terms cancel) with D > 0. So a best response is the best-scoring
of x = 0, x = alpha and the points where Q falls through 0. The roots of
Q'' cut [0, alpha] into three pieces, on each of which Q is convex or
concave: such a point can only be a convex piece's first root or a concave
one's last, and Newton's method from that piece's left or right end reaches
it without passing it (in exact arithmetic), with no LAPACK call. One driver
runs the alternating best responses of a batch of plans in lockstep on
arrays, and a lone plan on floats, with the same bits: a sweep solves all
its plans at once, and a solve is the batch of one plan.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    ConstraintViolated,
    DegenerateInput,
    RationalFloorWarning,
    _warn,
)
from .scenarios import (
    GameScenario,
    _check_integer,
    _check_kind,
    _check_real,
    _check_unit,
    _floats,
    _sequence,
)

WINNER_POOL1 = "pool1"
WINNER_POOL2 = "pool2"
WINNER_BOTH_LOSE = "both_lose"
WINNER_TIE = "both_gain_tie"

TIE_EPS_PP = 1e-4      # |RER| below this (in percentage points) counts as the borderline
DEVIATION_GRID = 2000  # unilateral_gain: line-scan points per pool
# the stopping rule of every solve and sweep cell, read at call time: best-response rounds
# stop when max |df| < TOL, or after MAX_ITER rounds unconverged
TOL = 1e-7
MAX_ITER = 10000

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
    """Exact (pot1, pot2).

    Substituting the result back into the defining equations reproduces it
    to rounding error; with f1 = f2 = 0 it is exactly (alpha1, alpha2).
    A valid scenario keeps the system's determinant at 3/4 or more.
    """
    _check_kind("g", g, GameScenario)
    return pot_payoffs_raw(g.alpha1, g.alpha2, g.f1, g.f2, g.c1, g.c2, g.c1p, g.c2p)


def _score(a1, a2, f1, f2, c1, c2, c1p, c2p):
    """Pots, nets and net RERs (percent) of one strategy pair, or of arrays of them.

    A powerless pool's RER is nan; arrays, which only sweeps pass, hold none.
    """
    r1, r2 = pot_payoffs_raw(a1, a2, f1, f2, c1, c2, c1p, c2p)
    net1 = r1 * (a1 / (a1 + f2))
    net2 = r2 * (a2 / (a2 + f1))
    rer1, rer2 = ((net - a) / a * 100.0 if isinstance(a, np.ndarray) or a else math.nan
                  for net, a in ((net1, a1), (net2, a2)))
    return (r1, r2), (net1, net2), (rer1, rer2)


def net_payoffs(g: GameScenario) -> tuple[float, float]:
    """Each pool's take after paying the opponent's infiltrator its share."""
    _check_kind("g", g, GameScenario)
    _, (net1, net2), _ = _score(g.alpha1, g.alpha2, g.f1, g.f2, g.c1, g.c2, g.c1p, g.c2p)
    return net1, net2


def _require_powers(alpha1, alpha2):
    for name, power in (("alpha1", alpha1), ("alpha2", alpha2)):
        if power == 0.0:
            raise DegenerateInput(f"{name}={power!r} must be positive: a powerless pool has no RER")


def _check_game(alpha1, alpha2, c1, c2, c1p, c2p, f1=0.0, f2=0.0) -> GameScenario:
    """The checks of one solve: both pools hold power, and the game is valid, which it returns."""
    _require_powers(_check_real("alpha1", alpha1), _check_real("alpha2", alpha2))
    return GameScenario(alpha1, alpha2, f1, f2, c1, c2, c1p, c2p)


def best_response(g: GameScenario, responder: int) -> float:
    """Most profitable infiltration power for one pool, opponent held fixed.

    The best-scoring of x = 0, x = alpha_responder and the pot's stationary
    points between them (see the module docstring), the smallest x on a
    tie. Both pools need power of their own, or a candidate empties a pool.
    """
    _check_kind("g", g, GameScenario)
    responder = _check_integer("responder", responder, 1, 2)
    _require_powers(g.alpha1, g.alpha2)
    return _best_response_raw(g.alpha1, g.alpha2, g.c1, g.c2, g.c1p, g.c2p, responder,
                              g.f2 if responder == 1 else g.f1)


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


def _pick(cond, a, b):
    """``np.where`` for arrays, a conditional for floats, which stay floats."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _inflections(q, cap):
    """Two points of [0, cap], sorted, among them every real root there of P = Q''/2.

    P = q2 + 3*q3*x + 6*q4*x^2, by the stable quadratic formula. Where the
    discriminant is negative, or a quotient would be at least 1 in size (so
    beyond cap, and perhaps an overflow), the formula yields a point that is
    not a root instead; such a point only cuts in two a piece on which P
    keeps its sign.
    """
    a, b, c = 6.0 * q[4], 3.0 * q[3], q[2]
    disc = b * b - 4.0 * a * c
    disc = _pick(disc > 0.0, disc, 0.0)
    h = np.sqrt(disc) if isinstance(disc, np.ndarray) else math.sqrt(disc)
    t = -0.5 * _pick(b < 0.0, b - h, b + h)
    r0, r1 = (_pick(r > 0.0, _pick(r < cap, r, cap), 0.0)  # also maps -0.0 to 0.0
              for r in (t / _pick(abs(a) > abs(t), a, 1.0), c / _pick(abs(t) > abs(c), t, 1.0)))
    return _pick(r0 < r1, r0, r1), _pick(r0 < r1, r1, r0)


def _falling_root(q, lo, hi):
    """On a piece [lo, hi] where Q is convex or concave, where Q falls through 0, else an end.

    Q can fall through 0 only at a convex piece's first root or a concave
    one's last. A concave piece is searched as the convex R(u) = -Q(-u) on
    u = -x, so each search is Newton's method from the left end toward a
    first root, which it never passes in exact arithmetic; R's arithmetic is
    Q's with signs flipped, so no bit changes. A step is taken only when
    R > 0 > R', so it never divides by zero, and it is clipped at the far
    end. The iterates are thus monotone and stop at a float their next step
    keeps: an array entry that stops early keeps its bits while the others
    go on.
    """
    mid = 0.5 * (lo + hi)
    convex = q[2] + mid * (3.0 * q[3] + mid * (6.0 * q[4])) > 0.0
    s = _pick(convex, 1.0, -1.0)
    r = (s * q[0], q[1], s * q[2], q[3], s * q[4])  # R(u) = s*Q(s*u)
    dr = (r[1], 2.0 * r[2], 3.0 * r[3], 4.0 * r[4])
    u, far = s * _pick(convex, lo, hi), s * _pick(convex, hi, lo)
    while True:
        ru = r[0] + u * (r[1] + u * (r[2] + u * (r[3] + u * r[4])))
        dru = dr[0] + u * (dr[1] + u * (dr[2] + u * dr[3]))
        step = u - ru / _pick((ru > 0.0) & (dru < 0.0), dru, math.inf)
        new = _pick(step > far, far, step)
        moved = new != u
        if not (moved.any() if isinstance(moved, np.ndarray) else moved):
            return s * u + 0.0  # + 0.0 turns the -0.0 of a reflected 0 into 0.0
        u = new


def _best_response_raw(a1, a2, c1, c2, c1p, c2p, responder, f_opp):
    """The responder's most profitable infiltration against f_opp, for floats or 1-D arrays.

    The best by ``pot_payoffs_raw`` of x = 0, x = cap and each piece's
    falling root, the smallest x on a tie. The candidates hold every
    maximum, and a spurious one can only lose. Each array entry is one plan,
    with the scalar call's arithmetic and so its bits.
    """
    cap = a1 if responder == 1 else a2
    q = _derivative_numerator(*_pot_fraction(a1, a2, c1, c2, c1p, c2p, responder, f_opp))
    cuts = (0.0, *_inflections(q, cap), cap)

    def pot(x):
        f1, f2 = (x, f_opp) if responder == 1 else (f_opp, x)
        return pot_payoffs_raw(a1, a2, f1, f2, c1, c2, c1p, c2p)[responder - 1]

    if isinstance(cuts[1], np.ndarray):  # pieces and candidates on the leading axis
        ends = np.empty((4,) + cuts[1].shape)
        for row, cut in zip(ends, cuts):
            row[...] = cut
        xs = np.concatenate((ends[::3], _falling_root(q, ends[:3], ends[1:])))
        scores = pot(xs)
        return np.where(scores == scores.max(axis=0), xs, np.inf).min(axis=0)
    xs = [0.0, cap] + [_falling_root(q, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    scores = [pot(x) for x in xs]
    best = max(scores)
    return min(x for x, score in zip(xs, scores) if score == best)


def _equilibria(a1, a2, c1, c2, c1p, c2p, f1, f2, trace=None):
    """Alternating best responses from (f1, f2) for every plan at once: f1, f2, rounds, converged.

    Each argument is a 1-D array, one entry per plan, or a number all plans share. A plan
    leaves the batch by the per-cell rule, max |df| < TOL or MAX_ITER rounds. A lone live
    plan runs on Python floats, on which the kernel costs less and has its batch entry's
    bits. A ``trace`` list, given with one plan, gets its iterates.
    """
    n = np.broadcast(a1, a2, c1, c2, c1p, c2p, f1, f2).size
    plans = [np.full(n, v, dtype=float) for v in (a1, a2, c1, c2, c1p, c2p, f1, f2)]
    rounds = np.zeros(n, dtype=int)
    running = np.ones(n, dtype=bool)
    for _ in range(MAX_ITER):
        live = np.flatnonzero(running)
        if not live.size:
            break
        *game, f1, f2 = (v.item(live[0]) if live.size == 1 else v[live] for v in plans)
        new1 = _best_response_raw(*game, 1, f2)
        new2 = _best_response_raw(*game, 2, new1)
        if trace is not None:
            trace += [(new1, f2), (new1, new2)]
        plans[6][live], plans[7][live] = new1, new2
        rounds += running
        running[live] = ~(np.maximum(abs(new1 - f1), abs(new2 - f2)) < TOL)
    return plans[6], plans[7], rounds, ~running


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
    """Best gain from a lone deviation from (f1, f2), in the game _check_game checks."""
    return _deviation_gain(*vars(_check_game(a1, a2, c1, c2, c1p, c2p, f1, f2)).values())


def _deviation_gain(a1, a2, f1, f2, c1, c2, c1p, c2p):
    """A checked game's unilateral_gain: a 2001-point scan per pool, an independent check."""
    base1, base2 = pot_payoffs_raw(a1, a2, f1, f2, c1, c2, c1p, c2p)
    xs1 = np.linspace(0.0, a1, DEVIATION_GRID + 1)
    gain1 = np.max(pot_payoffs_raw(a1, a2, xs1, f2, c1, c2, c1p, c2p)[0]) - base1
    xs2 = np.linspace(0.0, a2, DEVIATION_GRID + 1)
    gain2 = np.max(pot_payoffs_raw(a1, a2, f1, xs2, c1, c2, c1p, c2p)[1]) - base2
    return float(max(gain1, gain2))


def solve_equilibrium(alpha1, alpha2, c1, c2, c1p, c2p, *,
                      start: tuple[float, float] = (0.0, 0.0),
                      keep_trace: bool = True) -> EquilibriumResult:
    """Alternating best-response dynamics from ``start`` until max |df| < TOL.

    The sweeps' driver run on one plan. Each best response is the maximum over [0, alpha_i]
    whatever the pot's shape; concavity in each pool's own infiltration is needed only for
    the dynamics to contract to the unique fixed point from any start. A run that exhausts
    MAX_ITER rounds returns converged=False with the trace kept for diagnosis.
    ``keep_trace=False`` drops only the trace.
    """
    start = _floats("start", start)
    if len(start) != 2:
        raise ConstraintViolated(f"start={start!r} must be a pair (f1, f2)")
    alpha1, alpha2, _, _, c1, c2, c1p, c2p = vars(
        _check_game(alpha1, alpha2, c1, c2, c1p, c2p, *start)).values()
    trace = [start] if keep_trace else None
    f1, f2, iterations, converged = (v.item() for v in _equilibria(
        alpha1, alpha2, c1, c2, c1p, c2p, *start, trace))
    pots, nets, rers = _score(alpha1, alpha2, f1, f2, c1, c2, c1p, c2p)
    return EquilibriumResult(f1, f2, *pots, *nets, *rers, iterations, converged,
                             tuple(trace or ()),
                             _deviation_gain(alpha1, alpha2, f1, f2, c1, c2, c1p, c2p))


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

    Empty when start > stop. A value that is not a finite real number, a
    non-positive step or more than MAX_AXIS_POINTS points raise ConstraintViolated.
    """
    start, stop, step = map(_check_real, ("start", "stop", "step"), (start, stop, step))
    if not all(map(math.isfinite, (start, stop, step))):
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


def _check_axes(alpha1, alpha2_axis, c_axis) -> tuple[list[float], list[float]]:
    """Check every cell as its solve and score would; returns the axes as checked floats.

    A cell's checks read its alpha2 or its c, never both: an alpha2 is checked in a c = 1
    game, where alpha1 + alpha2 < 1 keeps the floor check quiet, and a c as validate_game
    checks c1 (c/2, their sum and a valid alpha2's planning c alpha1 + alpha2 then pass
    too). So checking the first cell, its alpha2 before its c, then every alpha2, then every
    c raises the first failing cell's own error in c-major order. Each distinct float is
    checked once.
    """
    checks = {"alpha2": cache(lambda a2: _check_game(alpha1, a2, 1.0, 1.0, 0.5, 0.5).alpha2),
              "c1": cache(lambda c: _check_unit("c1", c))}

    def checked(name, axis):
        check = checks[name]
        # _check_real is each check's first step; run here, it keys the cache by float, so
        # True, which equals 1.0, fails instead of reusing 1.0's check
        return [check(_check_real(name, v)) for v in axis]

    checked("alpha2", alpha2_axis[:1])
    checked("c1", c_axis[:1])
    return checked("alpha2", alpha2_axis), checked("c1", c_axis)


def _sweep(alpha1, alpha2_axis, c_axis, assumed_c):
    """Winner cells in c-major order, each scored at its axis c.

    A cell plays the equilibrium solved at its planning c: alpha1 + alpha2
    when ``assumed_c``, else the axis c. A plan is one (alpha2, planning c)
    pair, and one solve serves every cell that shares it. Every cell is
    checked first, so the first invalid cell raises. Plans below the
    rational-manager floor raise one RationalFloorWarning with their count.
    All plans are then solved together in lockstep, and all cells scored
    together.
    """
    alpha2_axis, c_axis = _sequence("alpha2_axis", alpha2_axis), _sequence("c_axis", c_axis)
    if not (alpha2_axis and c_axis):
        return []
    alpha1 = _check_real("alpha1", alpha1)
    alpha2_axis, c_axis = _check_axes(alpha1, alpha2_axis, c_axis)
    cells = [(c, a2) for c in c_axis for a2 in alpha2_axis]
    plans: dict = {}
    ks = [plans.setdefault((a2, alpha1 + a2 if assumed_c else c), len(plans)) for c, a2 in cells]
    if below := sum(cp < alpha1 + a2 for a2, cp in plans):  # validate_game's test at c1 = c2
        _warn(f"{below} of {len(plans)} sweep plans have a branch-win probability below the "
              "rational-manager floor alpha1 + alpha2", RationalFloorWarning)
    a2s, cps = np.array(list(plans), dtype=float).T
    f1s, f2s, _, converged = _equilibria(alpha1, a2s, cps, cps, cps / 2.0, cps / 2.0, 0.0, 0.0)
    c, a2 = np.array(cells, dtype=float).T
    f1, f2 = f1s[ks], f2s[ks]
    _, _, (rer1, rer2) = _score(alpha1, a2, f1, f2, c, c, c / 2.0, c / 2.0)
    columns = (v.tolist() for v in (a2, c, f1, f2, rer1, rer2, converged[ks]))
    return [RegionCell(a2, c, f1, f2, r1, r2, classify_winner(r1, r2), done)
            for a2, c, f1, f2, r1, r2, done in zip(*columns)]


def sweep_regions(alpha1, alpha2_axis, c_axis) -> list[RegionCell]:
    """Equilibrium winner map under the symmetric model c_i = c, c_i' = c/2.

    Cells are emitted row-major with c as the outer axis and alpha2 inner.
    A cell whose solve exhausts MAX_ITER is recorded with converged=False
    and the sweep continues.
    """
    return _sweep(alpha1, alpha2_axis, c_axis, assumed_c=False)


def sweep_regions_assumed_c(alpha1, alpha2_axis, c_axis) -> list[RegionCell]:
    """Winner map when both managers plan for c = alpha1 + alpha2.

    Strategies come from the equilibrium under the assumed (minimum
    rational) c; payoffs and winners are then evaluated under the actual
    axis c. Same cell order as sweep_regions.
    """
    return _sweep(alpha1, alpha2_axis, c_axis, assumed_c=True)


def write_sweep_csv(cells) -> str:
    """Serialize sweep cells as CSV text, in the order the sweep produced them.

    No field needs CSV quoting: each is a number, a winner label or true/false.
    """
    _check_kind("cells", cells, Sequence)
    rows = [",".join(SWEEP_CSV_HEADER) + "\n"]
    for i, cell in enumerate(cells):
        if type(cell) is not RegionCell:  # a sweep's cells: skip the call for them
            _check_kind(f"cells[{i}]", cell, RegionCell)
        rows.append("%.10g,%.10g,%.12g,%.12g,%.12g,%.12g,%s,%s\n" % (
            cell.alpha2, cell.c, cell.f1, cell.f2, cell.rer1_pct, cell.rer2_pct,
            cell.winner, str(cell.converged).lower()))
    return "".join(rows)
