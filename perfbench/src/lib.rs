//! Benchmark of the Hermes simulator.
//!
//! * [`workloads`] defines the named workloads: each is a list of
//!   simulation points (configuration × trace) and an instruction window.
//! * [`traced`] is an outside-in traced copy of the simulator's main loop
//!   that times every call into a layer from the public API.
//! * [`bench`] runs a workload untraced through `hermes_exec::Engine`
//!   (the path every experiment binary takes) and traced through
//!   [`traced`], checks the outputs, and turns both into named metrics.

pub mod bench;
pub mod traced;
pub mod workloads;
