//! Real-network deployment of the protocol actors.
//!
//! The simulator in `spyker-simnet` executes actors deterministically in
//! virtual time; this crate executes the *same* `Node` actors over real
//! TCP sockets, one node per process or per thread, through [`tcp`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tcp;
