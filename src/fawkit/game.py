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

A sweep solves all of its equilibria at once: every plan runs the same
alternating best responses as ``solve_equilibrium``, in lockstep on
arrays. Each step is elementwise float64 arithmetic, which rounds exactly
as the scalar path does, so every sweep cell equals its per-cell solve.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, DegenerateInput, RationalFloorWarning
from .optimize import INV_PHI, INV_PHI2, grid_golden_max
from .scenarios import GameScenario, validate_game

WINNER_POOL1 = "pool1"
WINNER_POOL2 = "pool2"
WINNER_BOTH_LOSE = "both_lose"
WINNER_TIE = "both_gain_tie"

TIE_EPS_PP = 1e-4      # |RER| below this (in percentage points) counts as the borderline
BR_GRID = 1000         # best response: coarse scan points over [0, alpha]
BR_XTOL = 1e-9         # best response: golden-section bracket width
DEVIATION_GRID = 2000  # unilateral_gain: line-scan points per pool
MAX_ITER = 10000       # best-response rounds per solve: the default, and every sweep cell's cap
TOL = 1e-7             # default solve tol: best-response rounds stop when max |df| < TOL
TOL_FLOOR = 5e-8       # finest solve tol: best responses resolved to BR_XTOL can cycle below it
SWEEP_BLOCK = 8        # sweep grid scans: plans per kernel call, which bounds the scan's memory

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
            f"tol={tol!r} is below the floor {TOL_FLOOR!r} set by the best-response resolution")


def _check_game(alpha1, alpha2, c1, c2, c1p, c2p, f1=0.0, f2=0.0):
    """The checks of one solve: both pools hold power, and the game is valid."""
    _require_powers(alpha1, alpha2)
    validate_game(GameScenario(alpha1, alpha2, f1, f2, c1, c2, c1p, c2p))


def best_response(g: GameScenario, responder: int) -> float:
    """Most profitable infiltration power for one pool, opponent held fixed.

    Grid scan over [0, alpha_responder] then golden-section on the winning
    bracket. Boundary optima are returned as-is. Both pools need power of
    their own: the scan would otherwise pass through an empty pool.
    """
    validate_game(g)
    if responder not in (1, 2):
        raise ConstraintViolated(f"responder={responder!r} must be 1 or 2")
    _require_powers(g.alpha1, g.alpha2)
    return _best_response_raw(g.alpha1, g.alpha2, g.c1, g.c2, g.c1p, g.c2p, responder,
                              g.f2 if responder == 1 else g.f1)


def _responder_pot(a1, a2, c1, c2, c1p, c2p, responder, f_opp, x):
    """The responder's pot when it infiltrates with x against the opponent's f_opp."""
    f1, f2 = (x, f_opp) if responder == 1 else (f_opp, x)
    return pot_payoffs_raw(a1, a2, f1, f2, c1, c2, c1p, c2p)[responder - 1]


def _best_response_raw(a1, a2, c1, c2, c1p, c2p, responder, f_opp):
    f = lambda x: _responder_pot(a1, a2, c1, c2, c1p, c2p, responder, f_opp, x)
    x, _ = grid_golden_max(f, 0.0, a1 if responder == 1 else a2, n_grid=BR_GRID, xtol=BR_XTOL)
    return x


def _scan_grids(caps):
    """Rows np.linspace(0, cap, BR_GRID + 1), bit for bit, for a 1-D array of caps."""
    if (caps / BR_GRID == 0.0).any():
        # numpy rescales every row once any row's step underflows, so build rows one by one
        return np.array([np.linspace(0.0, cap, BR_GRID + 1) for cap in caps])
    return np.linspace(0.0, caps, BR_GRID + 1, axis=-1)


def _lockstep_best_responses(a1, a2, c, responder, f_opp):
    """``_best_response_raw`` for many symmetric-c plans at once, bit for bit.

    a2, c and f_opp are 1-D arrays with one entry per plan. Every step of
    ``grid_golden_max`` runs on all plans together: the grid scan in blocks
    of SWEEP_BLOCK plans, then golden-section with a per-plan live mask and
    the same grid-winner fallback.
    """
    a2, c, f_opp = a2[:, None], c[:, None], f_opp[:, None]
    half = c / 2.0
    shared = np.linspace(0.0, a1, BR_GRID + 1)[None, :] if responder == 1 else None

    def pot(x, k=slice(None)):
        return _responder_pot(a1, a2[k], c[k], c[k], half[k], half[k], responder, f_opp[k], x)

    # grid scan: per plan, the first grid maximum and its neighbours
    lo, hi, x_top, y_top = (np.empty((len(a2), 1)) for _ in range(4))
    for s in range(0, len(a2), SWEEP_BLOCK):
        k = slice(s, s + SWEEP_BLOCK)
        xs = shared if responder == 1 else _scan_grids(a2[k, 0])
        ys = pot(xs, k)
        xs = np.broadcast_to(xs, ys.shape)
        r, i = np.arange(len(ys)), ys.argmax(axis=1)
        y_top[k, 0], x_top[k, 0] = ys[r, i], xs[r, i]
        lo[k, 0], hi[k, 0] = xs[r, np.maximum(i - 1, 0)], xs[r, np.minimum(i + 1, BR_GRID)]

    # golden-section on each bracket, as optimize.golden_section_max
    h = hi - lo
    xc, xd = lo + INV_PHI2 * h, lo + INV_PHI * h
    yc, yd = pot(xc), pot(xd)
    while (live := h > BR_XTOL).any():
        up = yc > yd               # the maximum lies left of xd
        left, right = live & up, live & ~up
        hi = np.where(left, xd, hi)
        lo = np.where(right, xc, lo)
        xc, yc, xd, yd = (np.where(right, xd, xc), np.where(right, yd, yc),
                          np.where(left, xc, xd), np.where(left, yc, yd))
        h = np.where(live, h * INV_PHI, h)
        x = np.where(left, lo + INV_PHI2 * h, lo + INV_PHI * h)
        y = pot(x)
        xc, yc = np.where(left, x, xc), np.where(left, y, yc)
        xd, yd = np.where(right, x, xd), np.where(right, y, yd)
    x = 0.5 * (lo + hi)
    # the refined point can only improve on the grid winner
    return np.where(pot(x) < y_top, x_top, x)[:, 0]


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
        new_f1 = _lockstep_best_responses(a1, a2[live], c[live], 1, f2[live])
        new_f2 = _lockstep_best_responses(a1, a2[live], c[live], 2, new_f1)
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
    """Best pot improvement available to either pool by deviating alone."""
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

    The game is strictly concave in each pool's own infiltration over the
    valid domain, so the dynamics contract to the unique fixed point from
    any start. A run that exhausts max_iter returns converged=False with
    the trace kept for diagnosis. A tol below TOL_FLOOR is rejected: the
    best responses jitter at the golden-section width, so such a solve can
    cycle until max_iter without converging.
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
        new_f1 = _best_response_raw(alpha1, alpha2, c1, c2, c1p, c2p, 1, f2)
        if keep_trace:
            trace.append((new_f1, f2))
        new_f2 = _best_response_raw(alpha1, alpha2, c1, c2, c1p, c2p, 2, new_f1)
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
                      RationalFloorWarning, stacklevel=3)
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
