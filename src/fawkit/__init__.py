"""Fork-after-withholding mining attack analysis toolkit.

Closed-form reward calculators for infiltrating one or many proportional
pools, a two-pool mutual-attack game solver with region sweeps, network
bounds and countermeasure economics, and a round-level Monte Carlo engine
that independently cross-checks the single-pool, n-pool, game and
bonus-scheme rewards; the detection and honeypot averages and the network
bounds have no simulated counterpart.

Each exported name is imported from its submodule on first use (PEP 562), so
``import fawkit`` loads no numpy until a name from ``game``, ``multi_pool`` or
``simulator`` is asked for.
"""

import importlib as _importlib

# exported name -> the submodule that defines it; each submodule is exported too
_EXPORTS = {name: module for module, names in {
    "bounds": "HonestPowerDistribution bonus_scheme_reward c_from_gamma c_max_single "
              "c_min_rational detection_resilient_reward gamma_upper_bound honeypot_bwh_bound "
              "safe_bonus_threshold selfish_mining_threshold",
    "errors": "BudgetExceeded ConstraintViolated DegenerateInput FawError "
              "InconsistentDistribution NegativeEffectiveMinersWarning PowerOutOfRange "
              "RationalFloorWarning ScenarioFileError TooManyPools UnknownFixture",
    "game": "EquilibriumResult RegionCell best_response classify_winner game_payoffs "
            "net_payoffs solve_equilibrium sweep_regions sweep_regions_assumed_c write_sweep_csv",
    "multi_pool": "AllocationResult optimize_allocation preset_attack reward_npool "
                  "reward_two_pools",
    "scenarios": "GameScenario MultiPoolScenario POOL_PRESETS SinglePoolScenario load_scenario "
                 "rer scenario_to_dict",
    "simulator": "SimConfig SimOutcome simulate",
    "single_pool": "OptimalTauResult optimal_tau reward_single victim_reward",
}.items() for name in (module, *names.split())}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = globals()[name] = module if name == _EXPORTS[name] else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
