import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from fawkit.errors import (
    BudgetExceeded,
    ConstraintViolated,
    DegenerateInput,
    PowerOutOfRange,
    RationalFloorWarning,
    ScenarioFileError,
    TooManyPools,
)
from fawkit.scenarios import (
    GameScenario,
    MultiPoolScenario,
    SinglePoolScenario,
    load_scenario,
    rer,
    scenario_from_dict,
    scenario_to_dict,
    validate,
    validate_game,
    validate_multi,
    validate_single,
)


def test_valid_single_passes_through():
    s = SinglePoolScenario(alpha=0.2, beta=0.2, tau=0.5, c=0.5)
    assert validate_single(s) is s


def test_majority_guard():
    with pytest.raises(PowerOutOfRange):
        validate_single(SinglePoolScenario(0.6, 0.2, 0.0, 0.0))
    with pytest.raises(PowerOutOfRange):
        validate_single(SinglePoolScenario(0.5, 0.2, 0.0, 0.0))  # strict bound


def test_oversized_inputs_rejected():
    # both alpha and beta are individually out of range here; either error
    # class is acceptable per the contract, ours reports the fraction first
    with pytest.raises((PowerOutOfRange, BudgetExceeded)):
        validate_single(SinglePoolScenario(0.5, 0.6, 0.0, 0.0))
    with pytest.raises(PowerOutOfRange):
        validate_single(SinglePoolScenario(-0.1, 0.2, 0.0, 0.0))
    with pytest.raises(PowerOutOfRange):
        validate_single(SinglePoolScenario(0.2, 0.2, 1.5, 0.0))


def test_multi_budget_errors():
    with pytest.raises(BudgetExceeded):
        validate_multi(MultiPoolScenario(0.4, (0.4, 0.3), (0.0, 0.0), 0.0))
    with pytest.raises(BudgetExceeded):
        validate_multi(MultiPoolScenario(0.2, (0.1, 0.1), (0.6, 0.5), 0.0))


def test_multi_shape_errors():
    with pytest.raises(ConstraintViolated):
        validate_multi(MultiPoolScenario(0.2, (0.1, 0.1), (0.1,), 0.0))
    with pytest.raises(ConstraintViolated):
        validate_multi(MultiPoolScenario(0.2, (), (), 0.0))
    with pytest.raises(TooManyPools):
        validate_multi(MultiPoolScenario(0.2, (0.05,) * 9, (0.01,) * 9, 0.0))


def test_game_constraints():
    with pytest.raises(ConstraintViolated):
        validate_game(GameScenario(0.2, 0.1, 0.3, 0.0, 0.5, 0.5, 0.2, 0.2))  # f1 > alpha1
    with pytest.raises(ConstraintViolated):
        validate_game(GameScenario(0.2, 0.1, 0.0, 0.0, 0.5, 0.5, 0.7, 0.7))  # c1p+c2p > 1
    with pytest.raises(DegenerateInput, match="pool 1 is empty"):
        validate_game(GameScenario(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.5, 0.5))
    with pytest.raises(DegenerateInput, match="pool 2 is empty"):
        validate_game(GameScenario(0.2, 0.0, 0.0, 0.0, 1.0, 1.0, 0.5, 0.5))
    validate_game(GameScenario(0.2, 0.0, 0.1, 0.0, 1.0, 1.0, 0.5, 0.5))  # infiltrator only


def test_game_rational_floor_warning():
    with pytest.warns(RationalFloorWarning):
        validate_game(GameScenario(0.2, 0.2, 0.0, 0.0, 0.1, 0.1, 0.05, 0.05))


def test_validation_idempotent():
    s = validate_single(SinglePoolScenario(0.3, 0.1, 0.2, 0.9))
    assert validate_single(s) is s
    m = validate_multi(MultiPoolScenario(0.2, (0.1, 0.2), (0.3, 0.1), 0.5))
    assert validate_multi(m) is m


def test_fuzz_accepted_scenarios_satisfy_invariants():
    rng = np.random.default_rng(7)
    accepted = 0
    for _ in range(3000):
        vals = rng.uniform(-0.5, 1.5, size=4)
        try:
            s = SinglePoolScenario(*vals)
        except (PowerOutOfRange, BudgetExceeded):
            continue
        accepted += 1
        assert 0 <= s.alpha < 0.5 and 0 <= s.beta < 0.5
        assert 0 <= s.tau <= 1 and 0 <= s.c <= 1
        assert s.alpha + s.beta <= 1
    assert accepted > 0


def test_fuzz_multi_invariants():
    rng = np.random.default_rng(11)
    accepted = 0
    for _ in range(2000):
        n = rng.integers(1, 4)
        try:
            s = MultiPoolScenario(
                rng.uniform(-0.5, 1.5),
                tuple(rng.uniform(-0.5, 1.5, n)),
                tuple(rng.uniform(-0.5, 1.5, n)),
                rng.uniform(-0.5, 1.5),
            )
        except (PowerOutOfRange, BudgetExceeded, ConstraintViolated, TooManyPools):
            continue
        accepted += 1
        assert sum(s.taus) <= 1 + 1e-15
        assert s.alpha + sum(s.betas) <= 1 + 1e-15
        assert all(0 <= b < 0.5 for b in s.betas)
    assert accepted > 0


def test_fuzz_game_invariants():
    rng = np.random.default_rng(13)
    accepted = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalFloorWarning)
        for _ in range(3000):
            a1, a2 = rng.uniform(-0.1, 0.6, 2)
            f1, f2 = rng.uniform(-0.1, 0.6, 2)
            try:
                g = GameScenario(a1, a2, f1, f2, *rng.uniform(-0.2, 1.2, 4))
            except (PowerOutOfRange, ConstraintViolated, DegenerateInput):
                continue
            accepted += 1
            assert 0 <= g.alpha1 < 0.5 and 0 <= g.alpha2 < 0.5
            assert 0 <= g.f1 <= g.alpha1 and 0 <= g.f2 <= g.alpha2
            assert all(0 <= c <= 1 for c in (g.c1, g.c2, g.c1p, g.c2p))
            assert g.c1p + g.c2p <= 1 + 1e-15
            assert g.alpha1 + g.f2 > 0 and g.alpha2 + g.f1 > 0
    assert accepted > 0


@pytest.mark.parametrize("valid, field", [
    (SinglePoolScenario(0.2, 0.2, 0.5, 0.5), "alpha"),
    (MultiPoolScenario(0.2, (0.2, 0.1), (0.1, 0.05), 1.0), "alpha"),
    (GameScenario(0.2, 0.1, 0.05, 0.02, 0.5, 0.5, 0.25, 0.25), "alpha1"),
], ids=["single", "multi", "game"])
def test_replace_revalidates(valid, field):
    # the invariants hold for a scenario made by replace as for one built directly
    with pytest.raises(PowerOutOfRange, match=f"{field}=0.6 reaches the majority guard"):
        dataclasses.replace(valid, **{field: 0.6})


@pytest.mark.parametrize("build, named", [
    (lambda: MultiPoolScenario(0.2, ("x",), (0.1,), 0.5), "betas[0]='x'"),
    (lambda: MultiPoolScenario(0.2, 0.1, (0.1,), 0.5), "betas=0.1"),
    (lambda: MultiPoolScenario(0.2, (0.1,), (0.1, None), 0.5), "taus[1]=None"),
    (lambda: MultiPoolScenario(0.2, (0.1,), (0.1,), True), "c=True"),
    (lambda: SinglePoolScenario("0.2", 0.2, 0.1, 0.5), "alpha='0.2'"),
    (lambda: SinglePoolScenario(0.2, 0.2, False, 0.5), "tau=False"),
    (lambda: GameScenario("0.2", 0.1, 0, 0, 1, 1, 0.5, 0.5), "alpha1='0.2'"),
    (lambda: GameScenario(0.2, 0.1, "0", 0, 1, 1, 0.5, 0.5), "f1='0'"),
    (lambda: GameScenario(0.2, 0.1, 0, None, 1, 1, 0.5, 0.5), "f2=None"),
    (lambda: GameScenario(0.2, 0.1, 0, 0, 1, 1, 0.5, np.bool_(True)), f"c2p={np.True_!r}"),
], ids=["multi-beta-str", "multi-betas-scalar", "multi-tau-none", "multi-c-bool",
        "single-alpha-str", "single-tau-bool", "game-alpha1-str", "game-f1-str",
        "game-f2-none", "game-c2p-numpy-bool"])
def test_a_field_that_is_not_a_real_number_is_a_typed_error(build, named):
    with pytest.raises(ConstraintViolated, match="^" + re.escape(named) + " must be a"):
        build()


@pytest.mark.parametrize("build, named", [
    (lambda: MultiPoolScenario(0.2, (10 ** 400,), (0.1,), 0.5), "betas[0]"),
    (lambda: SinglePoolScenario(10 ** 5000, 0.2, 0.1, 0.5), "alpha"),
    (lambda: SinglePoolScenario(0.2, 0.2, 0.1, -10 ** 5000), "c"),
    (lambda: GameScenario(0.2, 0.1, 10 ** 400, 0, 1, 1, 0.5, 0.5), "f1"),
], ids=["multi-beta-10^400", "single-alpha-10^5000", "single-c-minus-10^5000", "game-f1-10^400"])
def test_an_int_past_the_largest_float_is_a_typed_error(build, named):
    # 10^400 once overflowed in float(); 10^5000 has too many digits to format with !r
    with pytest.raises(ConstraintViolated,
                       match="^" + re.escape(named) + " is above the largest float in magnitude$"):
        build()


def test_numpy_numbers_are_accepted():
    m = MultiPoolScenario(np.float64(0.2), np.array([0.1, 0.2]), [np.float32(0.5), 0],
                          np.int64(1))
    assert m.betas == (0.1, 0.2) and m.taus == (0.5, 0.0)
    SinglePoolScenario(np.float64(0.2), np.float32(0.2), np.int64(0), 0.5)
    GameScenario(0.2, 0.1, np.float64(0.05), np.float32(0.05), 1, 1, 0.5, np.float64(0.5))


def test_rer_values():
    assert rer(0.2, 0.2) == 0.0
    assert math.isclose(rer(0.206, 0.2), 3.0)
    assert math.isclose(rer(0.18, 0.2), -10.0)
    with pytest.raises(DegenerateInput):
        rer(0.1, 0.0)


def test_scenario_roundtrip_all_kinds():
    for s in (
        SinglePoolScenario(0.2, 0.2, 0.5, 0.5),
        MultiPoolScenario(0.2, (0.2, 0.1), (0.1, 0.05), 1.0),
        GameScenario(0.2, 0.1, 0.05, 0.02, 0.5, 0.5, 0.25, 0.25),
    ):
        assert scenario_from_dict(scenario_to_dict(s)) == s


def test_scenario_file_from_path(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"alpha": 0.2, "beta": 0.2, "tau": 0.1, "c": 0.0}))
    s = load_scenario(path)
    assert isinstance(s, SinglePoolScenario)
    assert s.tau == 0.1


def test_scenario_errors_cite_offending_key():
    # a value is the scenario type's to check, a key the loader's
    with pytest.raises(ConstraintViolated, match="tau='lots' must be a real number"):
        scenario_from_dict({"alpha": 0.2, "beta": 0.2, "tau": "lots", "c": 0.0})
    with pytest.raises(ScenarioFileError, match="'frobnicate'"):
        scenario_from_dict({"alpha": 0.2, "beta": 0.2, "tau": 0.1, "c": 0.0,
                            "frobnicate": 1})
    with pytest.raises(ScenarioFileError, match="'c'"):
        scenario_from_dict({"alpha": 0.2, "beta": 0.2, "tau": 0.1})
    with pytest.raises(ConstraintViolated, match=r"betas\[1\]=None must be a real number"):
        scenario_from_dict({"alpha": 0.2, "betas": [0.1, None], "taus": [0.1, 0.1], "c": 0.0})


def test_scenario_wrapper_unwrapped():
    doc = {"scenario": {"alpha": 0.2, "beta": 0.2, "tau": 0.1, "c": 0.5}, }
    s = scenario_from_dict(doc["scenario"])
    assert scenario_from_dict({"scenario": scenario_to_dict(s)}) == s


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFileError, match="invalid JSON"):
        load_scenario(path)


@pytest.mark.parametrize("text, error, named", [
    ('{"alpha": %s, "beta": 0.2, "tau": 0.1, "c": 0.5}' % ("1" * 401), ConstraintViolated,
     "alpha is above the largest float"),
    ('{"alpha": 0.2, "betas": [0.1, %s], "taus": [0.1, 0.1], "c": 0.5}' % ("1" * 401),
     ConstraintViolated, r"betas\[1\] is above the largest float"),
    ('{"alpha": %s, "beta": 0.2, "tau": 0.1, "c": 0.5}' % ("1" * 4301), ScenarioFileError,
     "scen.json|'alpha'"),
    ("[" * 100_000 + "]" * 100_000, ScenarioFileError, "scen.json"),
], ids=["float-overflow", "list-float-overflow", "over-4300-digits", "100000-deep"])
def test_unparsable_numbers_and_nesting_reported(tmp_path, text, error, named):
    # a number no float can hold is the scenario type's error, one or a depth the JSON
    # reader cannot take a file error: neither is a traceback
    path = tmp_path / "scen.json"
    path.write_text(text)
    with pytest.raises(error, match=named):
        load_scenario(path)


def test_unreadable_file_reported(tmp_path):
    path = tmp_path / "scen.json"
    path.write_bytes(b"\xff\xfe{}")  # not UTF-8
    with pytest.raises(ScenarioFileError, match="cannot read scenario file"):
        load_scenario(path)
    with pytest.raises(ScenarioFileError, match="cannot read scenario file"):
        load_scenario(tmp_path / "missing.json")


def test_validate_dispatch_rejects_non_scenarios():
    with pytest.raises(ConstraintViolated, match="s=41 must be a scenario"):
        validate(41)
