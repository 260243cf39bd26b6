//! Root facade for the Kolaitis–Vardi (PODS 1990) reproduction.
//!
//! Re-exports the full public API from [`kv_core`], plus the multi-tenant
//! serving layer as [`service`]; see the README for a tour and
//! `examples/` for runnable entry points.

#![warn(missing_docs)]

pub use kv_core::*;
pub use kv_service as service;

// The README's Rust blocks compile and run as doctests of this crate.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
