"""Workloads, output checks and per-layer probes of the fawkit benchmark.

A workload is a sequence of passes, and a pass is a list of operations run
one after another by a single caller (a closed loop). An operation times
only its calls into fawkit; its check runs afterwards, untimed, and returns
the problems it found. The run's seed drives every generated input: the
simulator seeds, the wide-pool powers and the sweep's alpha1. Fixture
inputs (table1, case4, changing-c, borderline-c1) stay fixed.

Every module is reached through its module attribute at call time, so a
traced pass sees the patched functions (see tracing.py).
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from contextlib import ExitStack
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fawkit import cli, game, multi_pool, optimize, scenarios, simulator, single_pool
from fawkit.scenarios import GameScenario, MultiPoolScenario, SinglePoolScenario

LAYERS = {
    "cli": cli,
    "game": game,
    "multi_pool": multi_pool,
    "optimize": optimize,
    "scenarios": scenarios,
    "simulator": simulator,
    "single_pool": single_pool,
}

SIM_ROUNDS = 10 ** 7        # montecarlo: rounds per simulate call
PROBE_ROUNDS = 1 << 21      # simulator probes: 8 blocks of BLOCK_ROUNDS
SIM_REPS = 3                # simulator probe repetitions per scenario kind
SIM_SE_BOUND = 5.0          # simulated means must lie within this many standard errors
WIDE_ALPHA, WIDE_C = 0.2, 0.7
WIDE_POOLS = 6
WIDE_POWERS = np.arange(30, 101) / 1000.0   # wide-pool powers are drawn from [0.03, 0.1]
NPOOL_SIZES = (4, 6, 8)
SWEEP_ALPHA2 = "0.05:0.45:0.01"
SWEEP_C = "0.1:1.0:0.1"
SWEEP_ALPHA1 = (0.15, 0.25)                 # the sweep's alpha1 is drawn from this range
REL_TOL = 1e-12
DEVIATION_TOL = 1e-9
PROBE_STREAM = 1 << 32      # seed key of the probes, apart from every pass index


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` lists problems."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]


class Runner:
    """Runs operations and tallies attempts, failures and timings.

    With a ``sampler`` (see reference.py) running, an operation's time
    excludes the time its handler took, and ``run_pass`` also returns the
    pass's time at the reference's nominal speed.
    """

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {}

    def run(self, op: Op, traced: bool = False):
        """Return ``(output, seconds)``; ``(None, None)`` if the call raised.

        An operation fails when its call raises or its check reports a
        problem; problems and tracebacks go to stderr.
        """
        self.attempted += 1
        try:
            with ExitStack() as scope:
                if traced:
                    scope.enter_context(self.tracer.installed(LAYERS))
                    scope.enter_context(self.tracer.span(f"bench.{op.name}"))
                spent = self.sampler.spent if self.sampler else 0.0
                start = time.perf_counter()
                out = op.call()
                seconds = time.perf_counter() - start
                if self.sampler:
                    seconds -= self.sampler.spent - spent
            problems = op.check(out)
        except Exception:
            self.failed += 1
            print(f"{op.name}: raised", file=sys.stderr)
            traceback.print_exc()
            return None, None
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"{op.name}: {problem}", file=sys.stderr)
        self.times.setdefault(op.name, []).append(seconds)
        return out, seconds

    def run_pass(self, ops: list, traced: bool = False) -> tuple[float, float]:
        """Run one pass; returns the sum of its operations' times as measured
        and at the nominal speed. Without a sampler the two are the same."""
        first = len(self.sampler.samples) if self.sampler else 0
        wall = sum(self.run(op, traced)[1] or 0.0 for op in ops)
        if not self.sampler:
            return wall, wall
        if len(self.sampler.samples) == first:
            self.sampler.sample()
        return wall, wall * statistics.fmean(1.0 / s for s in self.sampler.samples[first:])


# --- montecarlo ----------------------------------------------------------------

@dataclass(frozen=True)
class SimCase:
    """A scenario to simulate and the closed-form mean of each actor."""

    kind: str
    scenario: object
    refs: dict


def sim_cases() -> tuple[list[str], list[SimCase]]:
    """The single-pool, table2 and game scenarios at their optimal strategies,
    with the problems found in the solves that produced them."""
    tau = single_pool.optimal_tau(0.2, 0.2, 0.5).tau_bar
    single = SinglePoolScenario(0.2, 0.2, tau, 0.5)
    alpha, betas = multi_pool.preset_attack("table2")
    alloc = multi_pool.optimize_allocation(alpha, betas, 1.0)
    multi = MultiPoolScenario(alpha, betas, alloc.taus, 1.0)
    eq = game.solve_equilibrium(0.2, 0.1, 1.0, 1.0, 0.5, 0.5)
    duel = GameScenario(0.2, 0.1, eq.f1_star, eq.f2_star, 1.0, 1.0, 0.5, 0.5)
    net1, net2 = game.net_payoffs(duel)
    problems = []
    if not alloc.converged:
        problems.append("table2 allocation at c=1 did not converge")
    if not (eq.converged and eq.deviation_gain <= DEVIATION_TOL):
        problems.append(f"game equilibrium: converged={eq.converged}, "
                        f"deviation_gain={eq.deviation_gain!r}")
    if not close(eq.net1 + eq.net2, 0.2 + 0.1):
        problems.append(f"at c=1 net1 + net2 = {eq.net1 + eq.net2!r}, not alpha1 + alpha2")
    return problems, [
        SimCase("single", single, {"attacker": single_pool.reward_single(single)}),
        SimCase("multi", multi, {"attacker": multi_pool.reward_npool(multi)}),
        SimCase("game", duel, {"pool1": net1, "pool2": net2}),
    ]


def prepare_cases(runner: Runner) -> list[SimCase]:
    out, _ = runner.run(Op("prepare.sim_cases", sim_cases, lambda out: out[0]))
    if out is None:
        raise RuntimeError("could not build the simulated scenarios")
    return out[1]


def outcome_key(out):
    return out.case_counts, out.reward_sums, out.reward_sumsq, out.extras


def sim_op(case: SimCase, seed: int, rounds: int, workers: int = 1, seen=None) -> Op:
    """Simulate and serialise one scenario.

    ``seen`` shares outcomes between the operations of a pass: a
    single-worker run stores its outcome there and a two-worker run with
    the same seed must match it bitwise.
    """
    cfg = simulator.SimConfig(rounds=rounds, seed=seed, scenario=case.scenario,
                              workers=workers)

    def call():
        out = simulator.simulate(cfg)
        out.to_json()
        return out

    def check(out):
        problems = []
        if sum(out.case_counts.values()) != out.rounds_run or out.rounds_run != rounds:
            problems.append(f"case counts {out.case_counts} do not sum to {rounds} rounds")
        for actor, ref in case.refs.items():
            mean, se = out.reward_means[actor], out.std_error[actor]
            if not abs(mean - ref) <= SIM_SE_BOUND * se:
                problems.append(f"{actor} mean {mean!r} is more than {SIM_SE_BOUND} SE "
                                f"({se!r}) from the closed form {ref!r}")
        if seen is not None:
            key = (case.kind, seed)
            if workers == 1:
                seen[key] = outcome_key(out)
            elif seen.get(key) != outcome_key(out):
                problems.append(f"workers={workers} outcome differs from workers=1")
        return problems

    suffix = "" if workers == 1 else f"_w{workers}"
    return Op(f"sim.{case.kind}{suffix}", call, check)


class Montecarlo:
    """simulate at SIM_ROUNDS on each scenario kind, plus single with 2 workers."""

    REFERENCE = "race"

    def __init__(self, seed: int, runner: Runner, scratch: Path):
        self.seed = seed
        self.cases = prepare_cases(runner)

    def ops(self, k: int) -> list[Op]:
        seeds = [int(s) for s in rng_for(self.seed, k).integers(2 ** 63, size=len(self.cases))]
        seen: dict = {}
        ops = [sim_op(case, s, SIM_ROUNDS, seen=seen) for case, s in zip(self.cases, seeds)]
        ops.append(sim_op(self.cases[0], seeds[0], SIM_ROUNDS, workers=2, seen=seen))
        return ops


# --- closed-form -----------------------------------------------------------------

def table1_op(fx: dict) -> Op:
    cells = [(alpha, c) for c in fx["cs"] for alpha in fx["alphas"]]
    expected = [v for row in fx["expected_rer_pct"] for v in row]

    def call():
        return [single_pool.optimal_tau(alpha, fx["beta"], c) for alpha, c in cells]

    def check(results):
        problems = []
        for (alpha, c), res, want in zip(cells, results, expected):
            got = scenarios.rer(res.reward_at_optimum, alpha)
            if not abs(got - want) <= fx["tolerance_pp"]:
                problems.append(f"table1 alpha={alpha} c={c}: RER {got:.4f} %, expected {want}")
        return problems

    return Op("table1", call, check)


def within(problems: list, name: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{name} = {got:.4f}, expected {want} +- {tol}")


def table2_op(case4: dict, changing: dict) -> Op:
    """Allocation for table2 at c = 0 and c = 1, checked against case4 and changing-c."""

    def call():
        return [multi_pool.optimize_allocation(case4["alpha"], case4["betas"], c)
                for c in (0.0, 1.0)]

    def check(results):
        bwh, faw = results
        problems = [f"table2 solve at c={c} did not converge"
                    for c, res in zip((0.0, 1.0), results) if not res.converged]
        exp, tol = case4["expected"], case4["tolerances"]
        within(problems, "case4 bwh_rer_pct", bwh.rer_pct, exp["bwh_rer_pct"], tol["rer_pp"])
        within(problems, "case4 faw_rer_pct", faw.rer_pct, exp["faw_rer_pct"], tol["rer_pp"])
        within(problems, "case4 improvement_pct",
               (faw.rer_pct - bwh.rer_pct) / bwh.rer_pct * 100.0,
               exp["improvement_pct"], tol["improvement_pp"])
        alpha, planned = changing["alpha"], changing["planned_taus"]
        rers = [scenarios.rer(multi_pool.fixed_tau_reward_mismatched_c(
                    alpha, changing["betas"], planned, c), alpha)
                for c in (0.0, changing["c_actual"])]
        exp, tol = changing["expected"], changing["tolerances"]
        within(problems, "changing-c rer_pct", rers[1], exp["rer_pct"], tol["rer_pp"])
        within(problems, "changing-c improvement_pct", (rers[1] - rers[0]) / rers[0] * 100.0,
               exp["improvement_pct"], tol["improvement_pp"])
        return problems

    return Op("table2", call, check)


def wide_betas(rng: np.random.Generator) -> tuple[float, ...]:
    return tuple(float(b) for b in rng.choice(WIDE_POWERS, WIDE_POOLS, replace=False))


def wide_op(betas: tuple[float, ...]) -> Op:
    def call():
        return multi_pool.optimize_allocation(WIDE_ALPHA, betas, WIDE_C)

    def check(res):
        problems = []
        if not res.converged:
            problems.append(f"wide solve for {betas} did not converge")
        again = multi_pool.reward_npool(MultiPoolScenario(WIDE_ALPHA, betas, res.taus, WIDE_C))
        if not close(res.reward, again):
            problems.append(f"wide reward {res.reward!r} != reward_npool at its taus {again!r}")
        if res.reward < WIDE_ALPHA:
            problems.append(f"wide reward {res.reward!r} is below honest mining {WIDE_ALPHA}")
        return problems

    return Op("wide", call, check)


def npool_scenario(n: int) -> MultiPoolScenario:
    return MultiPoolScenario(0.2, tuple(0.05 + 0.005 * i for i in range(n)), (0.1,) * n, WIDE_C)


def npool_op() -> Op:
    """reward_npool at n = 4/6/8; n = 1 and 2 must match the dedicated formulas."""

    def call():
        return [multi_pool.reward_npool(npool_scenario(n)) for n in NPOOL_SIZES]

    def check(rewards):
        problems = [f"reward_npool n={n} = {r!r} is not in (0, 1)"
                    for n, r in zip(NPOOL_SIZES, rewards) if not 0.0 < r < 1.0]
        one, two = npool_scenario(1), npool_scenario(2)
        c = one.c
        single = single_pool.reward_single(
            SinglePoolScenario(one.alpha, one.betas[0], one.taus[0], c))
        pair = multi_pool.reward_two_pools(two.alpha, *two.betas, *two.taus, c, c, c / 2, c / 2)
        for n, want, got in ((1, single, multi_pool.reward_npool(one)),
                             (2, pair, multi_pool.reward_npool(two))):
            if not close(got, want):
                problems.append(f"reward_npool n={n} = {got!r}, expected {want!r}")
        return problems

    return Op("npool", call, check)


class ClosedForm:
    """table1 optimal taus, table2 and wide allocations, reward_npool at n = 4/6/8."""

    REFERENCE = "forks"

    def __init__(self, seed: int, runner: Runner, scratch: Path):
        self.seed = seed
        self.table1 = cli.load_fixture("table1")
        self.case4 = cli.load_fixture("case4")
        self.changing = cli.load_fixture("changing-c")

    def ops(self, k: int) -> list[Op]:
        return [table1_op(self.table1), table2_op(self.case4, self.changing),
                wide_op(wide_betas(rng_for(self.seed, k))), npool_op()]


# --- game-sweep ------------------------------------------------------------------

def nets(alpha1: float, cell) -> tuple[float, float]:
    return (alpha1 * (1.0 + cell.rer1_pct / 100.0),
            cell.alpha2 * (1.0 + cell.rer2_pct / 100.0))


def sweep_problems(alpha1: float, cells, n_cells: int) -> list[str]:
    """Checks that hold for plain and assumed-c sweeps alike."""
    problems = []
    if len(cells) != n_cells:
        problems.append(f"{len(cells)} cells, expected {n_cells}")
    problems += [f"cell alpha2={cell.alpha2} c={cell.c} did not converge"
                 for cell in cells if not cell.converged]
    for cell in cells:
        if cell.c == 1.0:
            net1, net2 = nets(alpha1, cell)
            if not close(net1 + net2, alpha1 + cell.alpha2, 1e-9):
                problems.append(f"c=1, alpha2={cell.alpha2}: net1 + net2 = {net1 + net2!r}")
    return problems


class GameSweep:
    """Winner-region sweeps on the CLI grid, the borderline-c1 sweep and the CLI itself."""

    REFERENCE = "search"

    def __init__(self, seed: int, runner: Runner, scratch: Path):
        self.seed = seed
        self.alpha2 = cli.parse_range(SWEEP_ALPHA2)
        self.c = cli.parse_range(SWEEP_C)
        self.border = cli.load_fixture("borderline-c1")
        ax = self.border["alpha2_axis"]
        self.border_axis = cli.parse_range(f"{ax['start']}:{ax['stop']}:{ax['step']}")
        self.csv_path = scratch / "game-sweep.csv"

    def alpha1(self, k: int) -> float:
        return round(float(rng_for(self.seed, k).uniform(*SWEEP_ALPHA1)), 3)

    def sweep_op(self, alpha1: float, seen: dict) -> Op:
        def call():
            return game.sweep_regions(alpha1, self.alpha2, self.c)

        def check(cells):
            problems = sweep_problems(alpha1, cells, len(self.alpha2) * len(self.c))
            for cell in cells:
                gain = game.unilateral_gain(alpha1, cell.alpha2, cell.c, cell.c, cell.c / 2,
                                            cell.c / 2, cell.f1, cell.f2)
                if gain > DEVIATION_TOL:
                    problems.append(f"alpha2={cell.alpha2} c={cell.c}: deviation gain {gain!r}")
            seen["csv"] = game.write_sweep_csv(cells)
            return problems

        return Op("sweep", call, check)

    def assumed_op(self, alpha1: float) -> Op:
        def call():
            return game.sweep_regions_assumed_c(alpha1, self.alpha2, self.c)

        def check(cells):
            problems = sweep_problems(alpha1, cells, len(self.alpha2) * len(self.c))
            plans = {}
            for cell in cells:
                if plans.setdefault(cell.alpha2, (cell.f1, cell.f2)) != (cell.f1, cell.f2):
                    problems.append(f"alpha2={cell.alpha2}: plan changes with the actual c")
            return problems

        return Op("sweep_assumed_c", call, check)

    def borderline_op(self) -> Op:
        fx = self.border
        step = fx["alpha2_axis"]["step"]

        def call():
            return game.sweep_regions(fx["alpha1"], self.border_axis, [fx["c"]])

        def check(cells):
            problems = [f"alpha2={c.alpha2} did not converge" for c in cells if not c.converged]
            flip = next((0.5 * (a.alpha2 + b.alpha2) for a, b in zip(cells, cells[1:])
                         if a.winner == game.WINNER_POOL1 and b.winner != game.WINNER_POOL1), None)
            want = fx["expected_crossing_alpha2"]
            if flip is None or abs(flip - want) > fx["tolerance_cells"] * step + 1e-12:
                problems.append(f"borderline-c1 crossing at {flip}, expected {want}")
            for cell in cells:
                if abs(cell.alpha2 - fx["alpha1"]) > step + 1e-12 and \
                        (cell.winner == game.WINNER_POOL1) != (fx["alpha1"] > cell.alpha2):
                    problems.append(f"borderline-c1 alpha2={cell.alpha2}: winner {cell.winner}")
            return problems

        return Op("borderline", call, check)

    def cli_op(self, alpha1: float, seen: dict) -> Op:
        argv = ["game-sweep", "--alpha1", repr(alpha1), "--alpha2", SWEEP_ALPHA2,
                "--c", SWEEP_C, "--output", str(self.csv_path)]

        def check(code):
            text = self.csv_path.read_text()
            self.csv_path.unlink()
            problems = [] if code == 0 else [f"faw game-sweep exited {code}"]
            if text != seen.get("csv"):
                problems.append("faw game-sweep CSV differs from sweep_regions")
            return problems

        return Op("cli_game_sweep", lambda: cli.main(argv), check)

    def ops(self, k: int) -> list[Op]:
        alpha1 = self.alpha1(k)
        seen: dict = {}
        return [self.sweep_op(alpha1, seen), self.assumed_op(alpha1), self.borderline_op(),
                self.cli_op(alpha1, seen)]


WORKLOADS = {"montecarlo": Montecarlo, "closed-form": ClosedForm, "game-sweep": GameSweep}


# --- per-layer probes --------------------------------------------------------------

def per_call(fn, inner: int, reps: int = 5) -> list[float]:
    """Seconds per call of ``fn``: one sample per batch of ``inner`` calls."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return samples


def probes(seed: int, runner: Runner, scratch: Path) -> dict[str, list[float]]:
    """Time each module's public functions; returns samples per metric name.

    Timings are converted to the metric's unit; counts and ratios are one
    sample each. Simulator probes run PROBE_ROUNDS rounds, a whole number
    of blocks, so the two-worker run splits them evenly.
    """
    rng = rng_for(seed, PROBE_STREAM)
    s: dict[str, list[float]] = {}
    cases = prepare_cases(runner)

    for case in cases:
        w1, w2, seen = [], [], {}
        for _ in range(SIM_REPS):
            sim_seed = int(rng.integers(2 ** 63))
            out, seconds = runner.run(sim_op(case, sim_seed, PROBE_ROUNDS, seen=seen))
            w1.append(seconds)
            if case.kind == "single":
                w2.append(runner.run(sim_op(case, sim_seed, PROBE_ROUNDS, 2, seen))[1])
        counts = out.case_counts
        forks = counts["C_fork_from_withheld"] + counts["D_multi_branch_fork"]
        s[f"simulator.ns_per_round.{case.kind}"] = [t / PROBE_ROUNDS * 1e9 for t in w1]
        s[f"sim_{case.kind}_mrounds_per_s"] = [PROBE_ROUNDS / t / 1e6 for t in w1]
        s[f"simulator.withheld_rounds_frac.{case.kind}"] = [forks / out.rounds_run]
        if case.kind == "multi":
            s["simulator.multi_branch_forks"] = [counts["D_multi_branch_fork"]]
        if case.kind == "single":
            s["simulator.w2_speedup"] = [statistics.median(w1) / statistics.median(w2)]
            s["sim_single_w2_mrounds_per_s"] = [PROBE_ROUNDS / t / 1e6 for t in w2]
        if case.kind == "game":
            s["simulator.to_json_ms"] = [t * 1e3 for t in per_call(out.to_json, 20)]

    _, multi, duel = (case.scenario for case in cases)
    s["scenarios.validate_multi_us"] = [
        t * 1e6 for t in per_call(lambda: scenarios.validate_multi(multi), 2000)]

    for n, inner, reps in ((4, 50, 5), (6, 5, 5), (8, 1, 3)):
        sc = npool_scenario(n)
        s[f"multi_pool.reward_npool_ms.n{n}"] = [
            t * 1e3 for t in per_call(lambda: multi_pool.reward_npool(sc), inner, reps)]
    s["multi_pool.reward_two_pools_us"] = [t * 1e6 for t in per_call(
        lambda: multi_pool.reward_two_pools(0.2, 0.2, 0.1, 0.1, 0.05, 1.0, 1.0, 0.5, 0.5), 1000)]

    alpha, betas = multi_pool.preset_attack("table2")
    table2 = Op("table2", lambda: multi_pool.optimize_allocation(alpha, betas, 1.0),
                lambda res: [] if res.converged else ["table2 solve did not converge"])
    runs = [runner.run(table2) for _ in range(3)]
    s["alloc_table2_solve_s"] = [seconds for _, seconds in runs]
    wide = wide_betas(rng)
    res, seconds = runner.run(wide_op(wide))
    s["alloc_wide_solve_s"] = [seconds]
    allocs = {"table2": (runs[0][0], MultiPoolScenario(alpha, betas, runs[0][0].taus, 1.0), 100),
              "wide": (res, MultiPoolScenario(WIDE_ALPHA, wide, res.taus, WIDE_C), 5)}
    for name, (res, sc, inner) in allocs.items():
        s[f"multi_pool.evaluations.{name}"] = [res.evaluations]
        s[f"multi_pool.ms_per_eval.{name}"] = [
            t * 1e3 for t in per_call(lambda: multi_pool.reward_npool(sc), inner)]

    def formula(tau):
        return single_pool.attacker_reward_formula(0.2, 0.2, tau, 0.5)

    for mode, inner in (("vectorized", 10), ("scalar", 1)):
        s[f"optimize.grid_golden_max_ms.{mode}"] = [t * 1e3 for t in per_call(
            lambda: optimize.grid_golden_max(formula, 0.0, 1.0, vectorized=mode == "vectorized"),
            inner)]
    s["single_pool.optimal_tau_ms"] = [
        t * 1e3 for t in per_call(lambda: single_pool.optimal_tau(0.2, 0.2, 0.5), 10)]

    sweep = GameSweep(seed, runner, scratch)
    alpha1 = sweep.alpha1(PROBE_STREAM)
    per_cell, iterations = [], []
    for c in sweep.c:
        for a2 in sweep.alpha2:
            start = time.perf_counter()
            res = game.solve_equilibrium(alpha1, a2, c, c, c / 2, c / 2, keep_trace=False)
            per_cell.append((time.perf_counter() - start) * 1e3)
            iterations.append(res.iterations)
    s["game.solve_equilibrium_ms"] = per_cell
    s["game.iterations_per_cell"] = [statistics.fmean(iterations)]
    seen: dict = {}
    n_cells = len(per_cell)
    _, t_sweep = runner.run(sweep.sweep_op(alpha1, seen))
    _, t_assumed = runner.run(sweep.assumed_op(alpha1))
    _, t_cli = runner.run(sweep.cli_op(alpha1, seen))
    s["sweep_cells_per_s"] = [n_cells / t_sweep]
    s["sweep_assumed_c_cells_per_s"] = [n_cells / t_assumed]
    s["cli.game_sweep_overhead_ms"] = [(t_cli - t_sweep) * 1e3]

    a1, a2, f1, f2, c1, c2, c1p, c2p = astuple(duel)
    s["game.best_response_ms"] = [
        t * 1e3 for t in per_call(lambda: game.best_response(duel, 1), 5)]
    s["game.unilateral_gain_ms"] = [t * 1e3 for t in per_call(
        lambda: game.unilateral_gain(a1, a2, c1, c2, c1p, c2p, f1, f2), 20)]
    s["game.pot_payoffs_us"] = [t * 1e6 for t in per_call(
        lambda: game.pot_payoffs_raw(a1, a2, f1, f2, c1, c2, c1p, c2p), 2000)]
    s["cli.build_parser_ms"] = [t * 1e3 for t in per_call(cli.build_parser, 5)]
    return s
