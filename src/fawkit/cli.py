"""Command-line surface: analytics, the game, sweeps, simulation, fixtures.

Every subcommand runs one library operation (or a sweep of one) and emits
one document: plot-ready JSON, the CSV header and row of the flattened
document, or the same flattened keys as an aligned key/value table; a sweep
emits JSON or its cells as CSV, a fixture run JSON or a report table. Each
scenario kind (single, multi, game) has a ``reward-KIND`` and a ``sim-KIND``
subcommand, which read the scenario from the file ``--scenario PATH`` or
from the kind's flags, never from both; a game's costs come from ``--c`` or
from all four of ``--c1/--c2/--c1p/--c2p``, never from both. Given no attack
strategy, such a subcommand first solves for it (tau by ``optimal_tau``,
the taus by ``optimize_allocation``, f1 and f2 by ``solve_equilibrium``)
and records that solve under ``"solve"``: the library result's fields. A
run given its strategy has no ``"solve"`` key. ``bounds`` and ``counter``
reject a flag their analytic does not read. Exit codes: 0 on success, 1 on
validation errors (the message names the violated constraint) and on an
unwritable ``--output``, 2 when an iterative solve, one that fills in a
strategy included, did not converge (the best-effort result is still
emitted with converged=false).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import warnings
from dataclasses import asdict
from functools import cache

# a function imports each library module it calls, so a command loads only its own
from .errors import ConstraintViolated, FawError
from .reproduce import FIXTURE_NAMES, load_fixture, reproduce  # noqa: F401 (re-export)
from .scenarios import (
    POOL_PRESETS,
    SCHEMA_VERSION,
    GameScenario,
    MultiPoolScenario,
    Scenario,
    SinglePoolScenario,
    load_scenario,
    rer,
    scenario_to_dict,
)


# --- small helpers -----------------------------------------------------------

def parse_range(text: str) -> list[float]:
    """A float, or START:STOP:STEP inclusive of STOP when it lies on the grid."""
    from . import game as game_mod
    parts = text.split(":")
    if len(parts) == 1:
        return [float(text)]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected FLOAT or START:STOP:STEP, got {text!r}")
    try:
        values = game_mod.sweep_axis(*(float(p) for p in parts))
    except ConstraintViolated as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return values


def parse_floats(text: str) -> tuple[float, ...]:
    """Comma-separated floats; a blank text is the empty tuple, an empty item an error."""
    parts = text.split(",") if text.strip() else []
    if not all(p.strip() for p in parts):
        raise argparse.ArgumentTypeError(f"empty item in {text!r}")
    return tuple(map(float, parts))


def _flatten(doc, prefix=""):
    flat = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


def emit(doc: dict, fmt: str, dest) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    if fmt == "json":  # strict JSON (RFC 8259), which has no NaN or Infinity: they become null
        try:
            text = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError:
            text = json.dumps(json.loads(json.dumps(doc), parse_constant=lambda _: None), indent=2)
        _write(text + "\n", dest)
        return
    # csv and table: the flattened document, list values as JSON
    flat = {k: json.dumps(v) if isinstance(v, (list, tuple)) else v
            for k, v in _flatten(doc).items()}
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows((flat, flat.values()))
        text = buf.getvalue()
    else:
        width = max(map(len, flat))
        text = "".join(f"{k:<{width}}  {v}\n" for k, v in flat.items())
    _write(text, dest)


def _write(text: str, dest) -> None:
    if dest in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(dest, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise FawError(f"cannot write {dest}: {exc.strerror or exc}") from None


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise FawError(f"missing required flag --{name.replace('_', '-')}")


# --- scenarios from a --scenario file or from flags ---------------------------
# Each builder returns (scenario, solve) from its kind's flags: solve is None
# when the strategy was given, else the record of the solve that filled it in.

def _scenario(args) -> tuple[Scenario, dict | None]:
    """The ``--scenario`` file, of the subcommand's kind, or the scenario its flags build."""
    if args.scenario is None:
        return args.build(args)
    for name in args.inline:
        if getattr(args, name) is not None:
            raise FawError(f"give --scenario or --{name}, not both")
    s = load_scenario(args.scenario)
    if not isinstance(s, args.kind):
        raise FawError(f"scenario file holds a {type(s).__name__}, need {args.kind.__name__}")
    return s, None


def _single_scenario(args) -> tuple[SinglePoolScenario, dict | None]:
    """Without ``--tau``, the optimal tau."""
    _require(args, "alpha", "beta", "c")
    if args.tau is not None:
        return SinglePoolScenario(args.alpha, args.beta, args.tau, args.c), None
    from . import single_pool
    res = single_pool.optimal_tau(args.alpha, args.beta, args.c)
    return SinglePoolScenario(args.alpha, args.beta, res.tau_bar, args.c), asdict(res)


def _multi_scenario(args) -> tuple[MultiPoolScenario, dict | None]:
    """Without ``--taus``, the optimal split."""
    from . import multi_pool
    inline = (args.alpha, args.betas)
    if args.preset and inline != (None, None):
        raise FawError("give --preset or --alpha with --betas, not both")
    if not args.preset and None in inline:
        raise FawError("need --alpha and --betas (or --preset)")
    alpha, betas = multi_pool.preset_attack(args.preset) if args.preset else inline
    _require(args, "c")
    if args.taus is not None:
        return MultiPoolScenario(alpha, betas, args.taus, args.c), None
    res = multi_pool.optimize_allocation(alpha, betas, args.c)
    return MultiPoolScenario(alpha, betas, res.taus, args.c), asdict(res)


def _game_cs(args):
    """(c1, c2, c1p, c2p) from ``--c`` or from all four of ``--c1/--c2/--c1p/--c2p``."""
    names = ("c1", "c2", "c1p", "c2p")
    cs = tuple(getattr(args, n) for n in names)
    if args.c is not None:
        if cs != (None,) * 4:
            raise FawError("give --c or --c1/--c2/--c1p/--c2p, not both")
        return args.c, args.c, args.c / 2.0, args.c / 2.0
    if None in cs:
        raise FawError("need --c (symmetric) or all of --c1/--c2/--c1p/--c2p; "
                       f"missing --{names[cs.index(None)]}")
    return cs


def _game_scenario(args) -> tuple[GameScenario, dict | None]:
    """Without ``--f1`` and ``--f2``, the equilibrium."""
    from . import game as game_mod
    _require(args, "alpha1", "alpha2")
    cs = _game_cs(args)
    if (args.f1 is None) != (args.f2 is None):
        raise FawError("give both --f1 and --f2, or neither for the equilibrium")
    if args.f1 is not None:
        return GameScenario(args.alpha1, args.alpha2, args.f1, args.f2, *cs), None
    res = game_mod.solve_equilibrium(args.alpha1, args.alpha2, *cs)
    return GameScenario(args.alpha1, args.alpha2, res.f1_star, res.f2_star, *cs), asdict(res)


def _single_rewards(s) -> dict:
    """closed-form single-pool attacker reward"""
    from . import single_pool
    attacker = single_pool.reward_single(s)
    victim = single_pool.victim_reward(s)
    return {"attacker_reward": attacker, "pool_reward": victim, "rer_pct": rer(attacker, s.alpha),
            "pool_rer_pct": rer(victim, s.beta + s.tau * s.alpha)}


def _multi_rewards(s) -> dict:
    """closed-form n-pool attacker reward"""
    from . import multi_pool
    reward = multi_pool.reward_npool(s)
    return {"reward": reward, "rer_pct": rer(reward, s.alpha)}


def _game_rewards(g) -> dict:
    """closed-form two-pool game payoffs and winner"""
    from . import game as game_mod
    r1, r2 = game_mod.game_payoffs(g)
    net1, net2 = game_mod.net_payoffs(g)
    rer1, rer2 = rer(net1, g.alpha1), rer(net2, g.alpha2)
    return {"r1": r1, "r2": r2, "net1": net1, "net2": net2, "rer1_pct": rer1, "rer2_pct": rer2,
            "winner": game_mod.classify_winner(rer1, rer2)}


# --- subcommand handlers ------------------------------------------------------

def _with_solve(doc: dict, solve: dict | None) -> dict:
    return doc if solve is None else {**doc, "solve": solve}


def _exit_code(solve: dict | None) -> int:
    """2 when a solve ran and did not converge (an optimal tau has no such flag)."""
    return 2 if solve is not None and solve.get("converged") is False else 0


def cmd_reward(args) -> int:
    s, solve = _scenario(args)
    emit(_with_solve({"scenario": scenario_to_dict(s), **args.rewards(s)}, solve),
         args.format, args.output)
    return _exit_code(solve)


def cmd_game_sweep(args) -> int:
    from . import game as game_mod
    sweep = game_mod.sweep_regions_assumed_c if args.assumed_c else game_mod.sweep_regions
    cells = sweep(args.alpha1, args.alpha2, args.c)
    if args.format == "json":
        emit({"alpha1": args.alpha1, "assumed_c": bool(args.assumed_c),
              "cells": [asdict(c) for c in cells]}, "json", args.output)
    else:
        _write(game_mod.write_sweep_csv(cells), args.output)
    return 0 if all(c.converged for c in cells) else 2


def cmd_sim(args) -> int:
    from . import simulator
    scenario, solve = _scenario(args)
    cfg = simulator.SimConfig(rounds=args.rounds, scenario=scenario, seed=args.seed)
    emit(_with_solve(simulator.simulate(cfg).to_json_dict(), solve), args.format, args.output)
    return _exit_code(solve)


# subcommand -> analytic -> (flags it reads, in output order; the bounds function it calls,
# which takes them in that order; result key)
_ANALYTICS = {
    "bounds": {
        "c-max": (("alpha", "beta", "shares", "atomized_remainder"), "c_max_single", "c_max"),
        "c-min": (("alpha", "beta"), "c_min_rational", "c_min"),
        "c-from-gamma": (("gamma", "alpha", "beta"), "c_from_gamma", "c"),
        "selfish-threshold": (("gamma",), "selfish_mining_threshold", "threshold"),
        "gamma-bound": (("alpha", "shares", "atomized_remainder"), "gamma_upper_bound",
                        "gamma_bound"),
    },
    "counter": {
        "detection": (("alpha", "beta", "tau", "c", "L"), "detection_resilient_reward",
                      "reward_lower_bound"),
        "honeypot": (("alpha", "beta", "tau", "L"), "honeypot_bwh_bound", "reward_lower_bound"),
        "bonus": (("alpha", "beta", "tau", "c", "t"), "bonus_scheme_reward", "reward"),
        "bonus-threshold": (("pool_power", "c_max"), "safe_bonus_threshold", "threshold"),
    },
}


# what an analytic reads for these flags when they are not given; it needs every other one
_ANALYTIC_DEFAULTS = {"shares": (), "atomized_remainder": 0.0, "L": 1}


def cmd_analytic(args) -> int:
    from . import bounds
    flags, function, key = _ANALYTICS[args.command][args.what]
    call = getattr(bounds, function)
    for name, option in args.options.items():
        if getattr(args, name) is None:
            setattr(args, name, _ANALYTIC_DEFAULTS.get(name))
        elif name not in flags:
            raise FawError(f"{args.what} does not read {option}")
    _require(args, *flags)
    inputs = {name: getattr(args, name) for name in flags}
    value = call(*inputs.values())
    doc = {"what": args.what, **inputs, key: value}
    if key.startswith("reward"):
        doc["rer_pct"] = rer(value, args.alpha)
    if hasattr(call, "substitution_note"):
        doc["note"] = call.substitution_note
    if args.what == "bonus-threshold":
        doc["feasible"] = value <= 1.0  # a bonus fraction above 1 cannot be paid
    emit(doc, args.format, args.output)
    return 0


def cmd_reproduce(args) -> int:
    ok, rows = reproduce(args.fixture)
    if args.format == "json":
        emit({"fixture": args.fixture, "passed": ok, "checks": rows}, "json", args.output)
    else:
        lines = [f"fixture: {args.fixture}"]
        for r in rows:
            status = "PASS" if r["ok"] else "FAIL"
            lines.append(f"  [{status}] {r['check']}: expected {r['expected']}, got {r['actual']}")
        lines.append(f"result: {'PASS' if ok else 'FAIL'} ({sum(r['ok'] for r in rows)}/{len(rows)})")
        _write("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


# --- parser -------------------------------------------------------------------

def _add_common(p, formats=("json", "csv", "table")):
    """``--format``, one of the formats the subcommand emits (the first is the default)."""
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--output", default=None, help="destination path (default stdout)")


def _add_scenario_opt(p):
    p.add_argument("--scenario", default=None, help="JSON scenario file instead of inline flags")


def _single_flags(p):
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--tau", type=float, help="infiltration fraction (default: the optimal tau)")


def _multi_flags(p):
    p.add_argument("--alpha", type=float)
    p.add_argument("--betas", type=parse_floats)
    p.add_argument("--taus", type=parse_floats, help="default: the optimal split")
    p.add_argument("--c", type=float)
    p.add_argument("--preset", choices=sorted(POOL_PRESETS))


def _game_flags(p):
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    for name in ("f1", "f2"):
        p.add_argument(f"--{name}", type=float,
                       help=f"pool {name[1]}'s infiltration; omit both for the equilibrium")
    p.add_argument("--c", type=float, default=None, help="symmetric model: c_i=c, c_i'=c/2")
    for name in ("c1", "c2", "c1p", "c2p"):
        p.add_argument(f"--{name}", type=float, default=None)


# kind -> (its scenario type, its flag group, its scenario builder, its
# closed-form rewards); each kind gets a reward-KIND subcommand, helped by the
# rewards' docstring, and a sim-KIND subcommand
_KINDS = (
    ("single", SinglePoolScenario, _single_flags, _single_scenario, _single_rewards),
    ("multi", MultiPoolScenario, _multi_flags, _multi_scenario, _multi_rewards),
    ("game", GameScenario, _game_flags, _game_scenario, _game_rewards),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="faw", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    for kind, cls, add_flags, build, rewards in _KINDS:
        flags = argparse.ArgumentParser(add_help=False)
        add_flags(flags)
        # the kind's flags, each None unless given
        scenario = {"kind": cls, "build": build, "inline": tuple(vars(flags.parse_args([])))}
        p = sub.add_parser(f"reward-{kind}", parents=[flags], help=rewards.__doc__)
        _add_scenario_opt(p)
        _add_common(p)
        p.set_defaults(func=cmd_reward, rewards=rewards, **scenario)
        p = sub.add_parser(f"sim-{kind}", parents=[flags], help=f"Monte Carlo {kind} run")
        p.add_argument("--rounds", type=int, required=True, help="1 to 2^53")
        p.add_argument("--seed", type=int, default=42, help="default 42")
        _add_scenario_opt(p)
        _add_common(p)
        p.set_defaults(func=cmd_sim, **scenario)

    p = sub.add_parser("game-sweep", help="winner-region sweep over (alpha2, c)")
    p.add_argument("--alpha1", type=float, required=True)
    p.add_argument("--alpha2", type=parse_range, required=True, help="FLOAT or START:STOP:STEP")
    p.add_argument("--c", type=parse_range, required=True, help="FLOAT or START:STOP:STEP")
    p.add_argument("--assumed-c", action="store_true",
                   help="plan strategies at c = alpha1+alpha2, evaluate at the axis c")
    _add_common(p, ("csv", "json"))
    p.set_defaults(func=cmd_game_sweep)

    # each analytic flag is None unless given; options maps its dest to its name
    p = sub.add_parser("bounds", help="fork-win probability bounds and related thresholds")
    p.add_argument("what", choices=tuple(_ANALYTICS["bounds"]))
    options = [
        p.add_argument("--alpha", type=float),
        p.add_argument("--beta", type=float),
        p.add_argument("--gamma", type=float),
        p.add_argument("--shares", type=parse_floats),
        p.add_argument("--atomized", type=float, dest="atomized_remainder", metavar="ATOMIZED"),
    ]
    _add_common(p)
    p.set_defaults(func=cmd_analytic, options={a.dest: a.option_strings[0] for a in options})

    p = sub.add_parser("counter", help="countermeasure economics")
    p.add_argument("what", choices=tuple(_ANALYTICS["counter"]))
    options = [
        p.add_argument("--alpha", type=float),
        p.add_argument("--beta", type=float),
        p.add_argument("--tau", type=float),
        p.add_argument("--c", type=float),
        p.add_argument("-L", "--identities", type=int, dest="L", metavar="IDENTITIES"),
        p.add_argument("--t", type=float),
        p.add_argument("--pool-power", type=float),
        p.add_argument("--c-max", type=float),
    ]
    _add_common(p)
    p.set_defaults(func=cmd_analytic, options={a.dest: a.option_strings[0] for a in options})

    p = sub.add_parser("reproduce", help="run a built-in golden fixture")
    p.add_argument("fixture", choices=FIXTURE_NAMES)
    _add_common(p, ("table", "json"))
    p.set_defaults(func=cmd_reproduce)

    return ap


_parser = cache(build_parser)  # main's parser, built once per process: no handler changes it


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with warnings.catch_warnings():
        # one line per warning, without the source line Python would echo
        warnings.showwarning = lambda message, category, *_: print(
            f"warning: {category.__name__}: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except FawError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
