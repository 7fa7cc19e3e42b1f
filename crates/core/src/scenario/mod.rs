//! Scenario construction: deterministic LANs with schemes deployed and
//! attacks or benign churn injected.

mod attack;
mod benign;
pub mod lan;
pub mod scale;

pub use attack::{AttackScenario, AttackSpec, CompletedRun};
pub use benign::{BenignRun, BenignScenario};
pub use lan::{BuiltLan, ScenarioConfig};
pub use scale::{ScaleConfig, ScaleLan};
