"""Golden fixtures: stored scenario sets re-run against their expected values.

Each fixture under ``fixtures/`` names its inputs, expected values and
tolerances; its runner recomputes the values with the library and records
one row per check.
"""

from __future__ import annotations

import json
from importlib import resources

from . import bounds
from . import game
from . import multi_pool
from . import single_pool
from .errors import UnknownFixture
from .scenarios import MultiPoolScenario, rer


def load_fixture(name: str) -> dict:
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(f"no fixture {name!r}; built-ins: {', '.join(FIXTURE_NAMES)}")
    path = resources.files("fawkit").joinpath("fixtures", f"{name}.json")
    return json.loads(path.read_text())


def _check(rows, name, expected, actual, ok):
    rows.append({"check": name, "expected": expected, "actual": actual, "ok": bool(ok)})


def _near(rows, name, want, got, tol, digits=4):
    """A check that ``got`` is within ``tol`` of ``want``, reported rounded to ``digits``."""
    _check(rows, name, want, round(got, digits), abs(got - want) <= tol)


def _reproduce_table1(fx, rows):
    tol = fx["tolerance_pp"]
    for ci, c in enumerate(fx["cs"]):
        for ai, alpha in enumerate(fx["alphas"]):
            res = single_pool.optimal_tau(alpha, fx["beta"], c)
            got = rer(res.reward_at_optimum, alpha)
            _near(rows, f"rer(alpha={alpha}, c={c})", fx["expected_rer_pct"][ci][ai], got, tol)


def _reproduce_case4(fx, rows):
    tol = fx["tolerances"]
    bwh = multi_pool.optimize_allocation(fx["alpha"], fx["betas"], 0.0)
    faw = multi_pool.optimize_allocation(fx["alpha"], fx["betas"], 1.0)
    improvement = (faw.rer_pct - bwh.rer_pct) / bwh.rer_pct * 100.0
    exp = fx["expected"]
    _near(rows, "bwh_rer_pct", exp["bwh_rer_pct"], bwh.rer_pct, tol["rer_pp"])
    _near(rows, "faw_rer_pct", exp["faw_rer_pct"], faw.rer_pct, tol["rer_pp"])
    _near(rows, "improvement_pct", exp["improvement_pct"], improvement, tol["improvement_pp"])


def _reproduce_changing_c(fx, rows):
    tol = fx["tolerances"]
    alpha, betas, planned = fx["alpha"], tuple(fx["betas"]), tuple(fx["planned_taus"])
    bwh = multi_pool.reward_npool(MultiPoolScenario(alpha, betas, planned, 0.0))
    mis = multi_pool.reward_npool(MultiPoolScenario(alpha, betas, planned, fx["c_actual"]))
    bwh_rer = rer(bwh, alpha)
    mis_rer = rer(mis, alpha)
    improvement = (mis_rer - bwh_rer) / bwh_rer * 100.0
    exp = fx["expected"]
    _near(rows, "rer_pct", exp["rer_pct"], mis_rer, tol["rer_pp"])
    _near(rows, "improvement_pct", exp["improvement_pct"], improvement, tol["improvement_pp"])


def _reproduce_borderline(fx, rows):
    ax = fx["alpha2_axis"]
    axis = game.sweep_axis(ax["start"], ax["stop"], ax["step"])
    cells = game.sweep_regions(fx["alpha1"], axis, [fx["c"]])
    flip = None
    for prev, cell in zip(cells, cells[1:]):
        if prev.winner == game.WINNER_POOL1 and cell.winner != game.WINNER_POOL1:
            flip = 0.5 * (prev.alpha2 + cell.alpha2)
            break
    want = fx["expected_crossing_alpha2"]
    tol = fx["tolerance_cells"] * ax["step"]
    _check(rows, "crossing_alpha2", want, None if flip is None else round(flip, 6),
           flip is not None and abs(flip - want) <= tol + 1e-12)
    off_diag = [c for c in cells if abs(c.alpha2 - fx["alpha1"]) > ax["step"] + 1e-12]
    larger_wins = all(
        (c.winner == game.WINNER_POOL1) == (fx["alpha1"] > c.alpha2)
        for c in off_diag
    )
    _check(rows, "larger_pool_wins_everywhere", True, larger_wins, larger_wins)


def _reproduce_cmax(fx, rows):
    dist = bounds.HonestPowerDistribution(fx["honest_shares"], fx["atomized_remainder"])
    got = bounds.c_max_single(fx["alpha"], fx["beta"], dist)
    _near(rows, "c_max", fx["expected_c_max"], got, fx["tolerance"], digits=6)


def _reproduce_selfish(fx, rows):
    got = bounds.selfish_mining_threshold(fx["gamma"])
    lo, hi = fx["expected_threshold_range"]
    _check(rows, "selfish_threshold", f"[{lo}, {hi}]", round(got, 6), lo <= got <= hi)
    gb = fx["gamma_bound"]
    dist = bounds.HonestPowerDistribution(gb["honest_shares"], gb["atomized_remainder"])
    got_gb = bounds.gamma_upper_bound(dist, gb["alpha"])
    _check(rows, "gamma_upper_bound", gb["expected"], got_gb,
           abs(got_gb - gb["expected"]) <= gb["tolerance"])


_REPRODUCERS = {
    "table1": _reproduce_table1,
    "case4": _reproduce_case4,
    "changing-c": _reproduce_changing_c,
    "borderline-c1": _reproduce_borderline,
    "cmax-0914": _reproduce_cmax,
    "selfish-009": _reproduce_selfish,
}
FIXTURE_NAMES = tuple(_REPRODUCERS)


def reproduce(name: str) -> tuple[bool, list[dict]]:
    """Run one built-in fixture; returns (all_passed, per-check rows)."""
    fx = load_fixture(name)
    rows: list[dict] = []
    _REPRODUCERS[name](fx, rows)
    return all(r["ok"] for r in rows), rows
