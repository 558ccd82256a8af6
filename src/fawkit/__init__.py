"""Fork-after-withholding mining attack analysis toolkit.

Closed-form reward calculators for infiltrating one or many proportional
pools, a two-pool mutual-attack game solver with region sweeps, network
bounds and countermeasure economics, and a round-level Monte Carlo engine
that independently cross-checks the single-pool, n-pool, game and
bonus-scheme rewards; the detection and honeypot averages and the network
bounds have no simulated counterpart.
"""

from .bounds import (
    HonestPowerDistribution,
    bonus_scheme_reward,
    c_from_gamma,
    c_max_single,
    c_min_rational,
    detection_resilient_reward,
    gamma_upper_bound,
    honeypot_bwh_bound,
    safe_bonus_threshold,
    selfish_mining_threshold,
)
from .errors import (
    BudgetExceeded,
    ConstraintViolated,
    DegenerateInput,
    FawError,
    InconsistentDistribution,
    NegativeEffectiveMinersWarning,
    PowerOutOfRange,
    RationalFloorWarning,
    ScenarioFileError,
    TooManyPools,
    UnknownFixture,
)
from .game import (
    EquilibriumResult,
    RegionCell,
    best_response,
    classify_winner,
    game_payoffs,
    net_payoffs,
    solve_equilibrium,
    sweep_regions,
    sweep_regions_assumed_c,
    write_sweep_csv,
)
from .multi_pool import (
    AllocationResult,
    POOL_PRESETS,
    optimize_allocation,
    preset_attack,
    reward_npool,
    reward_two_pools,
)
from .scenarios import (
    GameScenario,
    MultiPoolScenario,
    SinglePoolScenario,
    load_scenario,
    rer,
    scenario_to_dict,
)
from .simulator import SimConfig, SimOutcome, simulate
from .single_pool import (
    OptimalTauResult,
    optimal_tau,
    reward_single,
    victim_reward,
)

__version__ = "0.1.0"
