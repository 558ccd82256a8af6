"""Round-level Monte Carlo engine: one race → fork → payout path for every scenario.

Race: within a round, block finders are drawn one after another in
proportion to raw hash power. A find by an infiltration category is
withheld (the first per category is kept, later duplicates discarded) and
does not end the round; a find by any other category, an *ender*, does.
If the ender is external while blocks are withheld, the round ends in a
fork, and one branch wins it with its branch-table probability. Exactly one
unit of reward is paid out per round.

The model is this round-level race, but a block samples it as counts of
rounds that share a state, so its cost depends on 2^n_infil, not on the
number of rounds. Its first finds are one multinomial over the category
powers; the rounds an ender's find starts end at once. Three facts let the
rounds that withheld a block be counted too:

- **The ender does not depend on the withheld set.** Finds are i.i.d., so
  the enders of the held rounds that started in each category are one
  multinomial over the ender powers. Only the rounds external ends need
  their withheld set; the others never fork.
- **A repeat find changes nothing.** From set S the next change is a stop
  (weight: the ender power) or a new bit j not in S (weight: its power),
  so each pass of one multinomial per set adds a bit or stops the round,
  and at most n_infil passes are needed.
- **A fork's branch depends only on its set.** One multinomial per set over
  its branch probabilities resolves every fork of the block.

Each scenario kind only supplies a model (``_Model``) with four parts,
the first and third of which ``_race`` turns into ``_block``'s tables:

- **powers**: category powers, ordered as infiltration categories, then
  enders; external, the last ender, gets what the others leave;
- **host map**: for each infiltration category, the ender whose pool a
  winning withheld block credits, with external appended for a lost fork;
- **branch table**: for each withheld-set bitmask, the cumulative win
  probability of each infiltration branch in category order; the external
  branch wins the rest;
- **payout**: the reward each actor takes from a round won by each ender
  (the two-pool game adds a gross-pot matrix for its pools).

Single pool is the one-pool case of the n-pool model, so the two draw
identically at the same seed.

The attacker's cut of a pool win is credited as the deterministic share
expectation ta/(b+ta) rather than sampling share submissions; submission
counts concentrate tightly around power fractions, so this removes
variance without bias.

Reproducibility: a run is one block, drawn from ``Philox`` seeded with
``SeedSequence((seed, 0))``, so the outcome depends only on (seed, rounds,
scenario). A block costs the same at any round count, so nothing is gained
by splitting a run; ``workers`` changes neither the outcome nor the speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import _warn
from .scenarios import (
    SCHEMA_VERSION,
    GameScenario,
    MultiPoolScenario,
    Scenario,
    SinglePoolScenario,
    _check_integer,
    _check_kind,
    _total,
    scenario_to_dict,
)

# a run is one block of at most this many rounds: its int64 counts and the
# float moments of _moments stay exact
BLOCK_ROUNDS = 1 << 53
RNG_ALGORITHM = "philox4x64"

CASE_TAGS = (
    "A_innocent_win",
    "B_pool_honest_win",
    "C_fork_from_withheld",
    "D_multi_branch_fork",
    "E_external_win_no_withheld",
)

@dataclass(frozen=True)
class SimConfig:
    """One simulation request of at most ``BLOCK_ROUNDS`` rounds.

    ``workers`` is checked and echoed in the outcome's config, but it changes
    neither the outcome nor the speed: a run is one draw.
    """

    rounds: int
    seed: int
    scenario: Scenario
    workers: int = 1

    def __post_init__(self):
        for name, low, high in (("rounds", 1, BLOCK_ROUNDS), ("seed", 0, 2 ** 64 - 1),
                                ("workers", 1, None)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), low, high))
        _check_kind("scenario", self.scenario, Scenario)


@dataclass
class SimOutcome:
    """Accumulated per-actor rewards, case counts, and error estimates.

    ``reward_sums``/``reward_sumsq`` hold per-round sums, so means are
    sums/rounds and standard errors follow from the usual sample variance.
    For game runs the pool actors are net takes (they sum with external to
    one per round); the mutually-recursive pot payoffs appear under
    ``gross_reward_sums``.

    ``extras`` has one shape for every kind, keyed by actor name:
    ``{"wins": {actor: rounds}, "fork_wins": {actor: rounds}}``. A round is
    won by the actor whose own miners or pool mined the winning block, so
    ``wins`` sums to ``rounds_run``; ``fork_wins`` counts those won in a fork.
    """

    kind: str
    rounds_run: int
    case_counts: dict
    reward_sums: dict
    reward_sumsq: dict
    std_error: dict
    rng: dict
    config: dict
    extras: dict = field(default_factory=dict)
    gross_reward_sums: dict | None = None
    gross_std_error: dict | None = None

    @property
    def reward_means(self) -> dict:
        return {k: v / self.rounds_run for k, v in self.reward_sums.items()}

    def to_json_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "config": self.config,
            "rng": self.rng,
            "rounds_run": self.rounds_run,
            "case_counts": self.case_counts,
            "reward_sums": self.reward_sums,
            "reward_means": self.reward_means,
            "std_error": self.std_error,
            "extras": self.extras,
        }
        if self.gross_reward_sums is not None:
            doc["gross_reward_means"] = {
                k: v / self.rounds_run for k, v in self.gross_reward_sums.items()
            }
            doc["gross_std_error"] = self.gross_std_error
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _std_errors(sums: dict, sumsq: dict, n: int) -> dict:
    """Standard error of each actor's per-round mean; 0 for a single round."""
    out = {}
    for actor, total in sums.items():
        mean = total / n
        var = max(sumsq[actor] / n - mean * mean, 0.0) * n / (n - 1) if n > 1 else 0.0
        out[actor] = math.sqrt(var / n)
    return out


@dataclass(frozen=True)
class _Model:
    """Everything that differs between scenario kinds; see the module docstring.

    Enders are named after the actor that takes a round they win alone, so
    ``actors`` doubles as the ender list (external last) and ``payout`` is
    square: ``payout[e, a]`` is actor a's reward from a round ender e won.
    """

    kind: str
    actors: tuple[str, ...]
    tags: tuple[str, ...]   # case tag of a round each ender won without a fork
    race: tuple[np.ndarray, ...]  # _block's probabilities, from _race
    host: np.ndarray        # ender credited per infiltration branch, then external
    payout: np.ndarray
    gross: np.ndarray | None = None  # (enders, pools) gross pots, game only


def _steps(powers) -> list[float]:
    """Category powers, external's appended, as the steps of their clipped running total.

    Clipping rounding-negative powers at 0 and the running total at 1 keeps
    the total non-decreasing, so its steps are powers that multinomial
    takes; external's step, appended last, closes it at exactly 1.
    """
    steps, total, top = [], 0.0, 0.0
    for p in powers:
        total += p if p > 0.0 else 0.0
        steps.append(min(total, 1.0) - top)
        top = min(total, 1.0)
    steps.append(1.0 - top)
    return steps


def _race(powers, table) -> tuple[np.ndarray, ...]:
    """``_block``'s probabilities; a withheld-set bitmask indexes rows.

    Takes the raw category powers but external's, and each withheld set's
    cumulative branch win probabilities in category order between a column
    of 0s and a column of 1s (``table``), whose width thus gives the number k
    of infiltration categories and so the 2^k sets.
    Returns the first finds' category powers, the enders' powers given an
    ender, and per set: its jump row (each new bit, then a stop), the sets it
    grows into, and its branch win probabilities with external last.
    """
    powers = np.array(_steps(powers))
    k = table.shape[1] - 2
    sets = np.arange(1 << k)[:, None]
    grow = sets | 1 << np.arange(k)
    ender = powers[k:].sum()
    jump = np.empty((len(sets), k + 1))
    np.multiply(grow != sets, powers[:k], out=jump[:, :k])
    jump[:, k] = ender
    jump /= jump.sum(axis=1, keepdims=True)
    # c1p + c2p may pass 1 by a rounding, and multinomial rejects a negative p
    branch = np.maximum(table[:, 1:] - table[:, :-1], 0.0)
    return powers, powers[k:] / ender, jump, grow, branch


def _pool_model(kind, alpha, betas, taus, c, pools) -> _Model:
    """One attacker infiltrating len(betas) pools; a k-branch fork gives each branch c/k.

    Categories: [infiltration of each pool, innocent, each pool, external].
    """
    n = len(betas)
    ta = [t * alpha for t in taus]
    shares = [t / (b + t) if b + t > 0.0 else 0.0 for b, t in zip(betas, ta)]
    payout = np.diag([1.0, *[1.0 - s for s in shares], 1.0])  # each ender's own actor
    payout[1:-1, 0] = shares                                  # the attacker's cut of pool wins
    # held[mask, i]: how many of branches 0..i the withheld set holds
    held = np.cumsum(np.arange(1 << n)[:, None] >> np.arange(n) & 1, axis=1)
    table = np.zeros((1 << n, n + 2))
    table[:, -1] = 1.0
    np.multiply(c, held[1:] / held[1:, -1:], out=table[1:, 1:-1])  # the empty set holds none
    innocent = (1.0 - _total(taus)) * alpha
    return _Model(
        kind=kind,
        actors=("attacker", *pools, "external"),
        tags=("A_innocent_win",) + ("B_pool_honest_win",) * n + ("E_external_win_no_withheld",),
        race=_race([*ta, innocent, *betas], table),
        host=np.arange(1, n + 2),
        payout=payout,
    )


def _game_model(s: GameScenario) -> _Model:
    """Two pools infiltrating each other.

    Categories: [pool 1's miners in pool 2, pool 2's miners in pool 1,
    pool 1, pool 2, external]. A pool hosting the round's win pays its
    infiltrator a share of its pot, which includes the share flowing back
    the other way; the pool actors record net takes so one reward unit is
    distributed per round.
    """
    k1 = s.f1 / (s.alpha2 + s.f1)
    k2 = s.f2 / (s.alpha1 + s.f2)
    det = 1.0 - k1 * k2
    # row: hosting pool (or external), column: pool's pot
    pots = [[1.0 / det, k2 / det], [k1 / det, 1.0 / det], [0.0, 0.0]]
    # a pool keeps its pot less the opponent's infiltrator's share; external keeps its wins
    payout = [[p1 * (1.0 - k2), p2 * (1.0 - k1), 0.0] for p1, p2 in pots]
    payout[2][2] = 1.0
    return _Model(
        kind="game",
        actors=("pool1", "pool2", "external"),
        tags=("A_innocent_win", "A_innocent_win", "E_external_win_no_withheld"),
        race=_race([s.f1, s.f2, s.alpha1 - s.f1, s.alpha2 - s.f2],
                   np.array([[0.0, 0.0, 0.0, 1.0], [0.0, s.c1, s.c1, 1.0],
                             [0.0, 0.0, s.c2, 1.0], [0.0, s.c1p, s.c1p + s.c2p, 1.0]])),
        host=np.array([1, 0, 2]),
        payout=np.array(payout),
        gross=np.array(pots),
    )


def _model(s: Scenario) -> _Model:
    if isinstance(s, SinglePoolScenario):
        return _pool_model("single", s.alpha, (s.beta,), (s.tau,), s.c, ("pool",))
    if isinstance(s, MultiPoolScenario):
        pools = tuple(f"pool_{i + 1}" for i in range(len(s.betas)))
        return _pool_model("multi", s.alpha, s.betas, s.taus, s.c, pools)
    return _game_model(s)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block_index))))


def _block(model: _Model, rng, n) -> np.ndarray:
    """Race, then fork, n rounds as counts of rounds per withheld set; returns one count vector.

    The first finds are one multinomial. The enders of the held rounds are one
    more, since a round's ender does not depend on its withheld set. The rounds
    external ends race on as counts per set: a pass moves each set's rounds to
    a stop or to the set with one more bit, skipping repeat finds, which change
    nothing. One multinomial per set then resolves the forks, since a branch
    depends only on its set.

    With m enders the vector holds the rounds each ender won without a fork
    (m entries; external's are case E), the forks each ender won (m), then
    the case C and case D counts.
    """
    powers, ender_p, jump, grow, branch = model.race
    k, m = grow.shape[1], len(model.actors)
    first = rng.multinomial(n, powers)
    enders = rng.multinomial(first[:k], ender_p)  # (k, m): held rounds by first find and ender
    racing = np.zeros(1 << k, dtype=np.int64)
    racing[grow[0]] = enders[:, -1]  # grow[0] holds the one-bit sets
    forked = np.zeros_like(racing)
    while racing.any():
        moves = rng.multinomial(racing, jump)
        forked += moves[:, -1]
        racing = np.bincount(grow.ravel(), moves[:, :-1].ravel(), 1 << k).astype(np.int64)
    fork_wins = np.zeros(m, dtype=np.int64)
    fork_wins[model.host] = rng.multinomial(forked, branch).sum(axis=0)
    ends = first[k:] + enders.sum(axis=0)
    ends[-1] -= forked.sum()
    single = forked[grow[0]].sum()  # case C: one bit set
    return np.concatenate((ends, fork_wins, [single, forked.sum() - single]), dtype=np.int64)


def _moments(actors, wins: list[int], payout: np.ndarray) -> tuple[dict, dict]:
    """Per-actor ``wins @ payout`` and ``wins @ payout**2``.

    Whole-unit credits are exact integer counts added after the share terms,
    which are summed in ender order, so each result is rounded as few times
    as possible.
    """
    sums, sumsq = {}, {}
    for actor, column in zip(actors, zip(*payout.tolist())):
        exact, total, total_sq = 0, 0.0, 0.0
        for w, p in zip(wins, column):
            if p == 1.0:
                exact += w
            else:
                total += w * p
                total_sq += w * (p * p)
        sums[actor], sumsq[actor] = exact + total, exact + total_sq
    return sums, sumsq


def simulate(cfg: SimConfig) -> SimOutcome:
    """Run the scenario's model for ``cfg.rounds`` rounds."""
    _check_kind("cfg", cfg, SimConfig)
    model = _model(cfg.scenario)
    if cfg.rounds < 100:
        _warn("fewer than 100 rounds; statistics will be degenerate", UserWarning)
    counts = _block(model, _block_rng(cfg.seed, 0), cfg.rounds).tolist()
    m = len(model.actors)
    ends, fork_wins = counts[:m], counts[m:2 * m]
    wins = [e + f for e, f in zip(ends, fork_wins)]
    cases = dict.fromkeys(CASE_TAGS, 0)
    for tag, count in zip(model.tags, ends):
        cases[tag] += count
    cases["C_fork_from_withheld"], cases["D_multi_branch_fork"] = counts[-2:]
    sums, sumsq = _moments(model.actors, wins, model.payout)
    out = SimOutcome(
        kind=model.kind,
        rounds_run=cfg.rounds,
        case_counts=cases,
        reward_sums=sums,
        reward_sumsq=sumsq,
        std_error=_std_errors(sums, sumsq, cfg.rounds),
        rng={
            "algorithm": RNG_ALGORITHM,
            "seed": cfg.seed,
            "block_rounds": BLOCK_ROUNDS,
            "substream": "SeedSequence((seed, 0))",
        },
        config={
            "rounds": cfg.rounds,
            "seed": cfg.seed,
            "workers": cfg.workers,
            "scenario": scenario_to_dict(cfg.scenario),
        },
        extras={"wins": dict(zip(model.actors, wins)),
                "fork_wins": dict(zip(model.actors, fork_wins))},
    )
    if model.gross is not None:
        gross, gross_sq = _moments(model.actors[:-1], wins, model.gross)
        out.gross_reward_sums = gross
        out.gross_std_error = _std_errors(gross, gross_sq, cfg.rounds)
    return out


def _kind_only(scenario_type, name: str):
    """``simulate`` behind a check that the scenario is a ``scenario_type``."""
    def entry(cfg: SimConfig) -> SimOutcome:
        _check_kind("cfg", cfg, SimConfig)
        _check_kind("scenario", cfg.scenario, scenario_type)
        return simulate(cfg)
    entry.__name__ = entry.__qualname__ = name
    entry.__doc__ = f":func:`simulate` for a {scenario_type.__name__} only."
    return entry


simulate_single = _kind_only(SinglePoolScenario, "simulate_single")
simulate_multi = _kind_only(MultiPoolScenario, "simulate_multi")
simulate_game = _kind_only(GameScenario, "simulate_game")
