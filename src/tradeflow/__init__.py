"""Two-country trade-flow dynamics: threshold-activated exchange between two
economies, solved in closed form and numerically, with fixed-point money
analysis and feasibility-region scanning."""

from .analytic import (
    PiecewiseTrajectory,
    RegimeSegment,
    simulate_analytic,
    solve_a_exports,
    solve_b_exports,
    solve_bilateral,
    solve_no_exchange,
)
from .core import (
    Event,
    GoodEconomy,
    MoneyState,
    NormalizedState,
    PriceSet,
    Regime,
    TwoGoodScenario,
    validate_scenario,
)
from .exchange import classify_regime, exchange_flow, rhs
from .integrator import (
    DepletionPolicy,
    SolverOptions,
    TimeSeries,
    integrate_with_events,
    rk4_step,
)
from .money import (
    FeasibilityResult,
    MarginCoefficients,
    balanced_sigma2,
    feasibility_at_k,
    feasibility_check,
    margins,
    one_good_money_rates,
    trade_balances,
    two_good_money_rates,
)
from .region import GridSpec, KInterval, RegionScan, feasible_k_interval, scan_region
from .scenario import Scenario, ScenarioError, parse_scenario, serialize_scenario
from .steady import (
    RegimeEquilibrium,
    fixed_point_production,
    is_steady_state,
    regime_equilibria,
)

__version__ = "0.1.0"
