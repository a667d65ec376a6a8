//! Online serving for PRIME: a TCP front end over deployed
//! [`prime_core::PrimeSystem`]s.
//!
//! The paper evaluates PRIME on throughput-oriented batches; this crate
//! adds the *online* counterpart — a server that fields inference
//! requests over a socket, coalesces them into device batches, and
//! sheds load when a model's queue fills. Everything is `std`-only
//! (`std::net` + scoped threads, no async runtime), matching the
//! repo's offline-container constraint.
//!
//! * [`wire`] — the length-prefixed binary protocol: `u32` little-endian
//!   frame length, then a tagged payload. Decoding is total: any
//!   truncated, oversized, or garbage frame yields a typed
//!   [`WireError`], never a panic.
//! * [`batcher`] — the FIFO [`BatchCollector`] with bounded-queue
//!   admission. The server's dispatchers are work-conserving: a free
//!   dispatcher takes up to `max_batch` queued jobs at once. The
//!   collector also models a time-windowed policy (`max_delay`,
//!   `poll`) over an *injected clock* for the benchmark's batcher
//!   replay; the server does not read that window.
//! * [`server`] — [`Registry`] (deploy-at-registration; rejected models
//!   surface P031 and are never advertised), [`Server`] (accept loop +
//!   per-connection readers + per-model dispatchers, all scoped; each
//!   dispatcher owns its model's system), and [`ShutdownHandle`]
//!   (graceful drain).
//! * [`client`] — a minimal blocking [`Client`] for tests and tools.
//!   The load driver is `prime-benchmark`, whose served workloads run
//!   this server open loop.
//! * [`workloads`] — the standard MLP-M-class / CNN-1-class registry
//!   shared by the `prime-serve` bin and `prime-benchmark`, matching
//!   `bench_throughput`'s geometry.
//!
//! Served outputs are bit-identical to direct [`prime_core::PrimeSystem`]
//! calls: digital requests may share an `infer_batch` call (replicated
//! bank copies hold byte-identical weights), while seeded-noisy
//! requests always run alone so the per-bank RNG draw order matches a
//! direct `infer_batch_noisy` call.
//!
//! # Examples
//!
//! ```no_run
//! use prime_serve::{BatchConfig, Client, Response, Server};
//! use prime_serve::workloads::{sample_input, standard_registry, CNN_1, CNN_1_WIDTH};
//! use prime_device::NoiseModel;
//!
//! let registry = standard_registry(BatchConfig::default_online(), NoiseModel::default())?;
//! let server = Server::bind("127.0.0.1:0", registry)?;
//! let addr = server.local_addr()?;
//! let stop = server.shutdown_handle()?;
//! std::thread::spawn(move || server.run());
//! let mut client = Client::connect(addr)?;
//! match client.infer(CNN_1, sample_input(CNN_1_WIDTH, 0))? {
//!     Response::Output { values, .. } => println!("{values:?}"),
//!     other => println!("refused: {other:?}"),
//! }
//! stop.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod error;
pub mod server;
pub mod wire;
pub mod workloads;

pub use batcher::{Admission, BatchCollector, BatchConfig};
pub use client::Client;
pub use error::{ClientError, ServeError};
pub use server::{ModelStats, Registry, ServeStats, Server, ShutdownHandle};
pub use wire::{Mode, Request, Response, WireError, MAX_FRAME_BYTES};
