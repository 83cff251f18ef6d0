//! # mn-cli — the `mncube` command-line interface
//!
//! A thin, dependency-free front end over `mn-core` for exploring the
//! design space without writing Rust:
//!
//! ```sh
//! mncube run --topology tree --workload dct --dram 50 --placement last
//! mncube compare --workload backprop --arbiter adaptive
//! mncube topo --topology skiplist --cubes 16
//! mncube sweep --topology tree --workload kmeans
//! ```
//!
//! The argument parser is hand-rolled (the workspace keeps its dependency
//! set to the simulation essentials); see [`Command::parse`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod args;
mod commands;

pub use args::{ArgError, Command, CompareArgs, RunArgs, SweepArgs, TopoArgs};
pub use commands::{execute, execute_with};
