//! Shared foundations for the `systemds-rs` workspace.
//!
//! This crate hosts the pieces every other crate needs: the workspace-wide
//! error type ([`SysDsError`]), the value types of frame columns and DML
//! scalars ([`ValueType`], [`ScalarValue`]), engine configuration
//! ([`config::EngineConfig`]), a fast non-cryptographic hasher used for
//! lineage keys ([`hash`]), small deterministic RNG utilities ([`rng`]), and
//! the scoped-thread helper every parallel operator goes through ([`par`]).

pub mod config;
pub mod error;
pub mod hash;
pub mod par;
pub mod rng;
pub mod testing;
pub mod value;

pub use config::{EngineConfig, NetConfig};
pub use error::{Result, SysDsError};
pub use value::{ScalarValue, ValueType};
