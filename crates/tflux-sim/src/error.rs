//! Typed simulation failures.
//!
//! A simulation that cannot continue reports *why* through
//! [`SimError`] instead of panicking, so sweep drivers (bench harness,
//! figures generation) can attribute the failure to a configuration
//! rather than unwinding through the event loop.

use crate::config::ConfigError;
use std::fmt;
use tflux_core::error::CoreError;

/// Why a simulation run could not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The machine configuration cannot be simulated: the core count and
    /// the cache geometries are caller-set fields, checked when a run
    /// starts.
    Config(ConfigError),
    /// The TSU state machine rejected a command — an invalid
    /// program/configuration pair (e.g. a block exceeding TSU capacity),
    /// not a data-dependent condition.
    Protocol(CoreError),
    /// The event queue drained with cores still waiting on the TSU: the
    /// program cannot make progress under this configuration.
    Deadlock {
        /// Number of cores that never reached the Exit condition.
        stuck: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid machine configuration: {e}"),
            SimError::Protocol(e) => write!(f, "TSU protocol error: {e}"),
            SimError::Deadlock { stuck } => write!(
                f,
                "simulation deadlocked: {stuck} cores stuck with no pending events"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Protocol(e) => Some(e),
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for SimError {
    fn from(e: CoreError) -> Self {
        SimError::Protocol(e)
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_errors_chain_their_source() {
        let e = SimError::from(CoreError::EmptyProgram);
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("protocol"));
    }

    #[test]
    fn config_errors_chain_their_source() {
        let e = SimError::from(ConfigError::NoCores);
        let source = std::error::Error::source(&e).expect("chained source");
        assert_eq!(source.to_string(), ConfigError::NoCores.to_string());
        assert!(e.to_string().contains("no cores"));
    }
}
