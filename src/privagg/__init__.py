"""Jointly private equilibrium computation for large aggregative games.

The package splits into differential-privacy primitives (dp_core), the game
model (game_core), LP dynamics (lp_core), grid-search solvers (presl),
scalar-aggregator solvers and selection (onedim), the commodity market
instantiation (market), and experiment tooling (harness, cli). Names are
imported from those submodules (``from privagg.onedim import psummnash``);
the package itself holds only the submodules and ``__version__``.
"""

__version__ = "0.1.0"
