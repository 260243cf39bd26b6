//! Query plans for demand-driven runs.
//!
//! A [`QueryPlan`] records, per goal position, whether the query binds that
//! position to a concrete element, and which [`DemandStrategy`] the engine
//! should take for that binding pattern. Upper layers (`kv-core`'s
//! `ProgramQuery`, `kv-homeomorphism`'s solver) consult the plan to decide
//! between full saturation and the demand path (magic-set rewriting for
//! Datalog, lazy arena expansion for pebble games).

use std::fmt;

/// How the engine should evaluate a query with a given binding pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandStrategy {
    /// Saturate the full IDB / materialize the full arena, then look up.
    Full,
    /// Derive only goal-relevant facts: magic-set rewriting on the Datalog
    /// side, lazy dominance-pruned arena expansion on the game side.
    Demand,
}

/// How a Datalog program's rule bodies are compiled into join loops.
///
/// `Textual` evaluates every body in the order the rule was written (the
/// paper's presentation, and the engine's historical behaviour);
/// `CostBased` lets the planner in `kv-datalog` reorder atoms by estimated
/// selectivity and select specialized join kernels. Both modes derive the
/// *same tuple set at every stage* — atom order within a body is
/// semantics-free — so differential suites can run each side by side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlannerMode {
    /// Textual atom order, generic probe loop.
    Textual,
    /// Cost-based atom order with specialized join kernels (the
    /// production default).
    #[default]
    CostBased,
}

impl fmt::Display for PlannerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlannerMode::Textual => "textual",
            PlannerMode::CostBased => "cost-based",
        })
    }
}

/// How cost-based plans lower each rule body into an executable join.
///
/// Binary lowering runs the planned atom order through pairwise kernels
/// (scan/probe/merge/check); generic lowering runs a worst-case-optimal
/// variable-at-a-time join over sorted posting intersections. Both lowerings
/// run *inside* the global semi-naive stage loop and derive the same tuple
/// set at every stage (the Theorem 3.6 stage-identity suites certify this),
/// so the choice is purely a performance knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JoinLowering {
    /// Per rule: generic join for cyclic bodies whose estimated binary
    /// intermediates blow up past the estimated output, binary otherwise.
    #[default]
    Auto,
    /// Force pairwise binary kernels for every rule.
    Binary,
    /// Force the worst-case-optimal generic join for every rule with at
    /// least two body atoms.
    Generic,
}

impl fmt::Display for JoinLowering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinLowering::Auto => "auto",
            JoinLowering::Binary => "binary",
            JoinLowering::Generic => "generic",
        })
    }
}

/// A binding pattern plus the demand strategy chosen for it.
///
/// The pattern has one flag per goal position: `true` means the query
/// supplies a concrete element there ("bound"), `false` means the position
/// is left open ("free"). The plan additionally carries the
/// [`PlannerMode`] the engine should compile rule bodies with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    pattern: Vec<bool>,
    strategy: DemandStrategy,
    planner: PlannerMode,
    lowering: JoinLowering,
}

impl QueryPlan {
    /// A plan with an explicit pattern and strategy (default planner mode).
    pub fn new(pattern: Vec<bool>, strategy: DemandStrategy) -> Self {
        Self {
            pattern,
            strategy,
            planner: PlannerMode::default(),
            lowering: JoinLowering::default(),
        }
    }

    /// The same plan with an explicit [`PlannerMode`].
    pub fn with_planner(mut self, planner: PlannerMode) -> Self {
        self.planner = planner;
        self
    }

    /// The planner mode rule bodies are compiled with.
    pub fn planner(&self) -> PlannerMode {
        self.planner
    }

    /// The same plan with an explicit [`JoinLowering`].
    pub fn with_lowering(mut self, lowering: JoinLowering) -> Self {
        self.lowering = lowering;
        self
    }

    /// The join lowering cost-based plans execute rule bodies with.
    pub fn lowering(&self) -> JoinLowering {
        self.lowering
    }

    /// Full saturation for an `arity`-ary goal (all positions free).
    pub fn full(arity: usize) -> Self {
        Self::new(vec![false; arity], DemandStrategy::Full)
    }

    /// The automatic policy: take the demand path whenever at least one
    /// position is bound, full saturation otherwise (an all-free query
    /// needs every answer anyway, so demand buys nothing).
    pub fn auto(pattern: Vec<bool>) -> Self {
        let strategy = if pattern.iter().any(|&b| b) {
            DemandStrategy::Demand
        } else {
            DemandStrategy::Full
        };
        Self::new(pattern, strategy)
    }

    /// The binding pattern, one flag per goal position.
    pub fn pattern(&self) -> &[bool] {
        &self.pattern
    }

    /// The chosen strategy.
    pub fn strategy(&self) -> DemandStrategy {
        self.strategy
    }

    /// Whether this plan routes to the demand path.
    pub fn is_demand(&self) -> bool {
        self.strategy == DemandStrategy::Demand
    }

    /// Number of bound positions.
    pub fn bound_count(&self) -> usize {
        self.pattern.iter().filter(|&&b| b).count()
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.pattern {
            f.write_str(if b { "b" } else { "f" })?;
        }
        write!(
            f,
            "/{}",
            match self.strategy {
                DemandStrategy::Full => "full",
                DemandStrategy::Demand => "demand",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_plan_picks_demand_iff_some_position_bound() {
        assert!(QueryPlan::auto(vec![true, true]).is_demand());
        assert!(QueryPlan::auto(vec![false, true]).is_demand());
        assert!(!QueryPlan::auto(vec![false, false]).is_demand());
        assert!(!QueryPlan::full(2).is_demand());
        assert_eq!(QueryPlan::auto(vec![true, false]).to_string(), "bf/demand");
    }

    #[test]
    fn planner_mode_defaults_cost_based_and_is_overridable() {
        let plan = QueryPlan::auto(vec![true, false]);
        assert_eq!(plan.planner(), PlannerMode::CostBased);
        let textual = plan.clone().with_planner(PlannerMode::Textual);
        assert_eq!(textual.planner(), PlannerMode::Textual);
        // Display stays binding-pattern/strategy only (stable across modes).
        assert_eq!(textual.to_string(), "bf/demand");
        assert_eq!(PlannerMode::Textual.to_string(), "textual");
        assert_eq!(PlannerMode::CostBased.to_string(), "cost-based");
    }

    #[test]
    fn lowering_defaults_auto_and_is_overridable() {
        let plan = QueryPlan::full(2);
        assert_eq!(plan.lowering(), JoinLowering::Auto);
        let generic = plan.clone().with_lowering(JoinLowering::Generic);
        assert_eq!(generic.lowering(), JoinLowering::Generic);
        assert_eq!(
            plan.with_lowering(JoinLowering::Binary).lowering(),
            JoinLowering::Binary
        );
        assert_eq!(JoinLowering::Auto.to_string(), "auto");
        assert_eq!(JoinLowering::Binary.to_string(), "binary");
        assert_eq!(JoinLowering::Generic.to_string(), "generic");
    }
}
