"""Command line front end.

One subcommand per solver plus generation, verification, and batch tooling.
Exit codes: 0 on success, 2 when a solver declares an abort, 1 on errors.
JSON results go to --out when given, otherwise stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from .dp_core import NoiseSource, ParameterError
from .game_core import (
    aggregator,
    load_game,
    regret,
    save_game,
    translate_checks,
)
from .harness import (
    DeviationSpec,
    ExperimentConfig,
    deviation_test,
    generate,
    profile_loss,
    run_experiment,
)
from .lp_core import DegenerateError, DistMWParams, FeasibilityLP, distmw_solve
from .market import (
    MarketGame,
    corollary_eta,
    from_aggregative,
    market_maker_loss,
    market_zeta,
    to_aggregative,
)
from .onedim import (
    QualitySpec,
    QuasiAggregativeGame,
    SelectionParams,
    psummnash,
    select_equilibrium,
)
from .presl import BudgetError, PreslParams, npresl, presl

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ABORT = 2

log = logging.getLogger("privagg")


def _src(args) -> NoiseSource:
    mode = NoiseSource.NOISE_OFF if args.no_noise else NoiseSource.NOISY
    return NoiseSource(args.seed, mode)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=1)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
        log.info("wrote %s", args.out)
    else:
        print(text)


def _profile_payload(game, profile) -> dict:
    rep = regret(game, profile)
    payload = {
        "profile": [int(a) for a in profile],
        "regret": rep.max_regret,
        "aggregator": aggregator(game, profile).tolist(),
    }
    if game.loss is not None:
        payload["loss"] = profile_loss(game, profile)
    return payload


def cmd_gen_game(args) -> int:
    params = {}
    for key in ("n", "m", "d", "gamma", "lam", "W"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    game = generate(args.kind, seed=args.seed, **params)
    if isinstance(game, QuasiAggregativeGame):
        game = game.base
    elif isinstance(game, MarketGame):
        game = to_aggregative(game)
    save_game(game, args.out)
    log.info("wrote %s", args.out)
    return EXIT_OK


def cmd_presl(args) -> int:
    game = load_game(args.game)
    params = PreslParams.for_game(
        game, zeta=args.zeta, epsilon=args.epsilon, delta=args.delta, beta=args.beta
    )
    res = presl(game, params, _src(args))
    if res.aborted:
        _emit(args, {"aborted": True, "queries": res.queries_asked, "alpha": params.alpha})
        return EXIT_ABORT
    payload = _profile_payload(game, res.profile)
    payload.update(
        {
            "aborted": False,
            "alpha": params.alpha,
            "bound": params.nash_bound,
            "hit_y": res.hit_y,
            "hit_s": res.hit_s.tolist(),
            "queries": res.queries_asked,
        }
    )
    _emit(args, payload)
    return EXIT_OK


def cmd_npresl(args) -> int:
    game = load_game(args.game)
    res = npresl(game, zeta=args.zeta, alpha=args.alpha, beta=args.beta, src=_src(args))
    if res.aborted:
        _emit(args, {"aborted": True, "alpha": args.alpha})
        return EXIT_ABORT
    payload = _profile_payload(game, res.profile)
    payload.update(
        {
            "aborted": False,
            "s_hat": res.s_hat.tolist(),
            "y_star": res.y_star,
            "witness_loss": res.witness_loss,
            "feasible_points": res.feasible_points,
        }
    )
    _emit(args, payload)
    return EXIT_OK


def cmd_psummnash(args) -> int:
    qgame = QuasiAggregativeGame(load_game(args.game))
    res = psummnash(qgame, args.epsilon, args.alpha, args.beta, _src(args))
    if res.aborted:
        _emit(args, {"aborted": True, "queries": list(res.queries)})
        return EXIT_ABORT
    payload = _profile_payload(qgame.base, res.profile)
    payload.update(
        {
            "aborted": False,
            "stage": res.stage,
            "bound": res.approx_bound(qgame.gamma),
            "queries": list(res.queries),
        }
    )
    _emit(args, payload)
    return EXIT_OK


def cmd_select(args) -> int:
    qgame = QuasiAggregativeGame(load_game(args.game))
    if args.quality_kind == "peak":
        quality = QualitySpec.peak(args.quality_target, args.quality_lam)
    else:
        quality = QualitySpec.linear(args.quality_slope)
    params = SelectionParams.for_game(
        qgame, zeta=args.zeta, epsilon=args.epsilon, alpha=args.alpha,
        beta=args.beta, quality=quality,
    )
    res = select_equilibrium(qgame, params, _src(args))
    if res.aborted:
        _emit(args, {"aborted": True, "queries": list(res.queries)})
        return EXIT_ABORT
    payload = _profile_payload(qgame.base, res.profile)
    payload.update(
        {
            "aborted": False,
            "branch": res.branch,
            "s_star": res.s_star,
            "quality": res.quality_value,
            "bound": params.approx_bound,
        }
    )
    _emit(args, payload)
    return EXIT_OK


def cmd_market_sim(args) -> int:
    if args.game:
        market = from_aggregative(load_game(args.game))
    else:
        market = generate("market", seed=args.seed, n=args.n, d=args.d, lam=args.lam)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
    cap = market.lam / 16.0
    worst_total = 0.0
    worst_security = 0.0
    for _ in range(args.trials):
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
            "trials": args.trials,
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
    try:
        lp = FeasibilityLP(
            gamma=payload["gamma"],
            cons_f=np.asarray(payload["cons_f"]),
            cons_b=np.asarray(payload["cons_b"]),
            supports=np.asarray(payload["supports"], dtype=bool),
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
    profile = payload["profile"] if isinstance(payload, dict) else payload
    report = translate_checks(game, np.asarray(profile), eta=args.eta)
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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
    types = rng.uniform(0.0, 1.0, size=args.n)
    spec = DeviationSpec(
        true_types=types,
        player=args.player,
        misreport=args.misreport,
        epsilon=args.epsilon,
        alpha=args.alpha,
        beta=args.beta,
        runs=args.runs,
        seed=args.seed,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privagg",
        description="Jointly private equilibrium computation for aggregative games",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--no-noise", action="store_true", help="deterministic mode")
    common.add_argument("--out", help="write the JSON result here instead of stdout")

    p = sub.add_parser("gen-game", parents=[common], help="generate a game JSON file")
    p.add_argument("--kind", required=True, choices=["linear", "anonymous", "threshold", "market"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--W", type=float)
    p.set_defaults(func=cmd_gen_game)

    p = sub.add_parser("presl", parents=[common], help="private equilibrium search")
    p.add_argument("--game", required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.05)
    p.set_defaults(func=cmd_presl)

    p = sub.add_parser("npresl", parents=[common], help="exact grid-sweep counterpart")
    p.add_argument("--game", required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.05)
    p.set_defaults(func=cmd_npresl)

    p = sub.add_parser("psummnash", parents=[common], help="scalar summarization solver")
    p.add_argument("--game", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.05)
    p.set_defaults(func=cmd_psummnash)

    p = sub.add_parser("select", parents=[common], help="quality-ordered selection")
    p.add_argument("--game", required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--quality-kind", choices=["peak", "linear"], default="peak")
    p.add_argument("--quality-target", type=float, default=0.0)
    p.add_argument("--quality-lam", type=float, default=1.0)
    p.add_argument("--quality-slope", type=float, default=1.0)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("market-sim", parents=[common], help="market maker loss simulation")
    p.add_argument("--game", help="market game JSON (overrides generator flags)")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--lam", type=float, default=8.0)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=cmd_market_sim)

    p = sub.add_parser("distmw-solve", parents=[common], help="private LP dynamics")
    p.add_argument("--lp", required=True, help="feasibility LP JSON")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.05)
    p.set_defaults(func=cmd_distmw_solve)

    p = sub.add_parser("verify", parents=[common], help="regret and translation report")
    p.add_argument("--game", required=True)
    p.add_argument("--profile", required=True, help="JSON file with a profile")
    p.add_argument("--eta", type=float, default=0.1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("deviate", parents=[common], help="mediator misreport experiment")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--player", type=int, default=0)
    p.add_argument("--misreport", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--runs", type=int, default=20)
    p.set_defaults(func=cmd_deviate)

    p = sub.add_parser("bench", parents=[common], help="batch experiment from a config")
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
