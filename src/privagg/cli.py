"""Command line front end.

One subcommand per solver plus generation, verification, and batch tooling.
The solver subcommands' numeric flags come from ``harness.SOLVERS``, and each
subcommand takes only the shared flags (--seed, --no-noise, --out) that its
handler reads. Exit codes: 0 on success, 2 when a solver declares an abort,
1 on errors, usage errors included. JSON results go to --out when given,
otherwise stdout; gen-game requires --out.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from .dp_core import BudgetError, NoiseSource, ParameterError, as_count, as_real, seeded_generator
from .game_core import aggregator, as_array, load_game, save_game, translate_checks
from .harness import (
    SOLVERS,
    DeviationSpec,
    ExperimentConfig,
    deviation_test,
    game_view,
    generate,
    run_experiment,
    score,
    solve,
)
from .lp_core import DegenerateError, DistMWParams, FeasibilityLP, distmw_solve
from .market import corollary_eta, from_aggregative, market_maker_loss, market_zeta

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ABORT = 2

log = logging.getLogger("privagg")


def _src(args) -> NoiseSource:
    mode = NoiseSource.NOISE_OFF if args.no_noise else NoiseSource.NOISY
    return NoiseSource(args.seed, mode)


def _emit(args, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=1, allow_nan=False)
    except ValueError:  # NaN and Infinity are not JSON
        raise ParameterError("the result holds a non-finite number; nothing written") from None
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
        log.info("wrote %s", args.out)
    else:
        print(text)


def cmd_gen_game(args) -> int:
    flags = {key: getattr(args, key) for key in ("n", "m", "d", "gamma", "lam", "W")}
    params = {key: val for key, val in flags.items() if val is not None}
    save_game(game_view(generate(args.kind, seed=args.seed, **params)), args.out)
    log.info("wrote %s", args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    """presl, npresl, psummnash and select: one ``harness.SOLVERS`` entry."""
    params = vars(args)
    if args.command == "select":  # the flags given, over the CLI's default target or slope
        own = {"peak": {"target": 0.0}, "linear": {"slope": 1.0}}
        given = {key: params[f"quality_{key}"] for key in ("target", "lam", "slope")}
        params["quality"] = {
            "kind": args.quality_kind, **own[args.quality_kind],
            **{key: value for key, value in given.items() if value is not None},
        }
    out = solve(args.command, load_game(args.game), params, _src(args))
    if out.aborted:
        _emit(args, {"aborted": True, **out.fields})
        return EXIT_ABORT
    max_regret, loss = score(out.game, out.profile)
    payload = {
        "profile": [int(a) for a in out.profile],
        "regret": max_regret,
        "aggregator": aggregator(out.game, out.profile).tolist(),
    }
    if loss is not None:
        payload["loss"] = loss
    _emit(args, {**payload, "aborted": False, **out.fields})
    return EXIT_OK


def cmd_market_sim(args) -> int:
    trials = as_count("trials", args.trials)
    if args.game:
        market = from_aggregative(load_game(args.game))
    else:
        market = generate("market", seed=args.seed, n=args.n, d=args.d, lam=args.lam)
    rng = seeded_generator(args.seed)
    cap = market.lam / 16.0
    worst_total = 0.0
    worst_security = 0.0
    for _ in range(trials):
        x = rng.integers(0, market.m, size=market.n)
        rep = market_maker_loss(market, x)
        worst_security = max(worst_security, float(np.max(rep.per_security)))
        worst_total = max(worst_total, rep.total)
    _emit(
        args,
        {
            "n": market.n,
            "d": market.d,
            "lambda": market.lam,
            "trials": trials,
            "per_security_cap": cap,
            "worst_per_security": worst_security,
            "worst_total": worst_total,
            "cap_respected": worst_security <= cap + 1e-9,
            "equilibrium_zeta": market_zeta(market.n, market.lam, market.d),
            "privacy_accuracy_scale": corollary_eta(market.n, market.lam, market.d),
        },
    )
    return EXIT_OK


def cmd_distmw_solve(args) -> int:
    with open(args.lp) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ParameterError("LP JSON must be an object")
    try:
        lp = FeasibilityLP(
            gamma=as_real("gamma", payload["gamma"]),
            cons_f=as_array("cons_f", payload["cons_f"]),
            cons_b=as_array("cons_b", payload["cons_b"]),
            supports=as_array("supports", payload["supports"]),
        )
    except KeyError as exc:
        raise ParameterError(f"LP JSON missing field {exc}") from None
    n, m = lp.shape
    params = DistMWParams(
        epsilon=args.epsilon, delta=args.delta, alpha=args.alpha, beta=args.beta,
        n=n, m=m, gamma=lp.gamma,
    )
    res = distmw_solve(lp, params, _src(args))
    margins = lp.margins(res.p_bar)
    _emit(
        args,
        {
            "p_bar": res.p_bar.tolist(),
            "transcript": res.transcript,
            "rounds": params.T,
            "margins": margins.tolist(),
            "max_margin": float(np.max(margins)),
        },
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    game = load_game(args.game)
    with open(args.profile) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        if "profile" not in payload:
            raise ParameterError("profile JSON object lacks the field 'profile'")
        payload = payload["profile"]
    report = translate_checks(game, as_array("profile", payload), eta=args.eta)
    _emit(
        args,
        {
            "max_regret": report.max_br,
            "max_fixed_aggregator_regret": report.max_abr,
            "gamma_eff": report.gamma_eff,
            "eta": args.eta,
            "is_eta_nash": report.is_eta_nash(),
            "br_to_abr_violation": report.br_to_abr_violation,
            "abr_to_br_violation": report.abr_to_br_violation,
        },
    )
    return EXIT_OK


def cmd_deviate(args) -> int:
    rng = seeded_generator(args.seed)
    types = rng.uniform(0.0, 1.0, size=as_count("n", args.n))
    spec = DeviationSpec(
        true_types=types, player=args.player, misreport=args.misreport,
        epsilon=args.epsilon, alpha=args.alpha, beta=args.beta,
        runs=args.runs, seed=args.seed,
    )
    report = deviation_test(spec)
    _emit(
        args,
        {
            "mean_gain": report.mean_gain,
            "max_gain": report.max_gain,
            "stderr": report.stderr,
            "eta_budget": report.eta,
            "within_budget": report.within_budget,
        },
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    with open(args.config) as fh:
        config = ExperimentConfig.from_json(fh.read())
    if args.no_noise:
        config.noise = False
    result = run_experiment(config)
    log.info("wrote %s and %s", result.csv_path, result.summary_path)
    print(json.dumps(result.summary, indent=1))
    return EXIT_ABORT if result.summary["aborts"] == config.trials else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, but 2 is EXIT_ABORT here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


# subcommand -> (SOLVERS entry, handler, input file flag, help line)
_SOLVER_COMMANDS = {
    "presl": ("presl", cmd_solve, "--game", "private equilibrium search"),
    "npresl": ("npresl", cmd_solve, "--game", "exact grid-sweep counterpart"),
    "psummnash": ("psummnash", cmd_solve, "--game", "scalar summarization solver"),
    "select": ("select", cmd_solve, "--game", "quality-ordered selection"),
    "distmw-solve": ("distmw", cmd_distmw_solve, "--lp", "private LP dynamics"),
}
_DEFAULTS = {"beta": 0.05}


def _solver_flags(p: argparse.ArgumentParser, algorithm: str, **defaults: float) -> None:
    """One float flag per numeric param of a SOLVERS entry, in its order:
    required unless it has a default."""
    defaults = {**_DEFAULTS, **defaults}
    for name in SOLVERS[algorithm].params:
        if name in defaults:
            p.add_argument(f"--{name}", type=float, default=defaults[name])
        else:
            p.add_argument(f"--{name}", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="privagg",
        description="Jointly private equilibrium computation for aggregative games",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    # the shared flags, one parent each: a subcommand takes those its handler reads
    seed, no_noise, out = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument("--seed", type=int, default=0)
    no_noise.add_argument("--no-noise", action="store_true", help="deterministic mode")
    out.add_argument("--out", help="write the JSON result here instead of stdout")

    p = sub.add_parser("gen-game", parents=[seed], help="generate a game JSON file")
    p.add_argument("--out", required=True, help="write the game JSON here")
    p.add_argument("--kind", required=True, choices=["linear", "anonymous", "threshold", "market"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--W", type=float)
    p.set_defaults(func=cmd_gen_game)

    for command, (algorithm, handler, source, text) in _SOLVER_COMMANDS.items():
        p = sub.add_parser(command, parents=[seed, no_noise, out], help=text)
        p.add_argument(source, required=True)
        _solver_flags(p, algorithm)
        p.set_defaults(func=handler)
        if command == "select":
            p.add_argument("--quality-kind", choices=["peak", "linear"], default="peak")
            p.add_argument("--quality-target", type=float, help="peak only (default 0)")
            p.add_argument("--quality-lam", type=float, help="peak only (default 1)")
            p.add_argument("--quality-slope", type=float, help="linear only (default 1)")

    p = sub.add_parser("market-sim", parents=[seed, out], help="market maker loss simulation")
    p.add_argument("--game", help="market game JSON (overrides generator flags)")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--lam", type=float, default=8.0)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=cmd_market_sim)

    p = sub.add_parser("verify", parents=[out], help="regret and translation report")
    p.add_argument("--game", required=True)
    p.add_argument("--profile", required=True, help="JSON file with a profile")
    p.add_argument("--eta", type=float, default=0.1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("deviate", parents=[seed, out], help="mediator misreport experiment")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--player", type=int, default=0)
    p.add_argument("--misreport", type=float, default=1.0)
    _solver_flags(p, "psummnash", epsilon=1.0)
    p.add_argument("--runs", type=int, default=20)
    p.set_defaults(func=cmd_deviate)

    p = sub.add_parser("bench", parents=[no_noise], help="batch experiment from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ParameterError, BudgetError, DegenerateError, json.JSONDecodeError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
