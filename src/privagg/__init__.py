"""Jointly private equilibrium computation for large aggregative games.

The package splits into differential-privacy primitives (dp_core), the game
model (game_core), LP dynamics (lp_core), grid-search solvers (presl),
scalar-aggregator solvers and selection (onedim), the commodity market
instantiation (market), and experiment tooling (harness, cli).
"""

from .dp_core import (
    NoiseSource,
    ParameterError,
    PrivacyLedger,
    ScoredOutcomeSet,
    SparseSession,
    StateError,
    check_finite,
    compose_adaptive,
    exp_mechanism_accuracy_bound,
    exponential_mechanism,
    first_below,
    laplace_sample,
    sparse_accuracy_bound,
)
from .game_core import (
    AggregativeGame,
    LinearUtility,
    TableUtility,
    ThresholdUtility,
    abr_profile,
    abr_set,
    aggregator,
    expected_aggregator,
    game_from_json,
    game_to_json,
    load_game,
    regret,
    sample_profile,
    save_game,
    translate_checks,
)
from .lp_core import (
    DistMWParams,
    FeasibilityLP,
    distmw_solve,
    exact_lp_min,
    kl_project,
    most_violated,
    mw_accuracy_bound,
    mw_update,
    replay_mw_player,
)
from .market import (
    MarketGame,
    corollary_eta,
    hinge_price,
    imbalance,
    market_maker_loss,
    market_zeta,
    portfolio_matrix,
    to_aggregative,
    trader_utility,
)
from .onedim import (
    QualitySpec,
    QuasiAggregativeGame,
    SelectionParams,
    V,
    make_optin_game,
    psummnash,
    s_extremes,
    select_equilibrium,
    smooth_walk,
    validate_quasi,
)
from .presl import (
    BudgetError,
    PreslParams,
    existence_bound,
    npresl,
    presl,
    query_order,
    sampling_deviation_bound,
)
from .harness import (
    ExperimentConfig,
    brute_force_equilibria,
    deviation_test,
    generate,
    run_experiment,
)

__version__ = "0.1.0"
