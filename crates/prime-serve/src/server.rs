//! The serving loop: a `std::net` TCP front end for deployed
//! [`PrimeSystem`]s.
//!
//! Threading model (all scoped, so [`Server::run`] returns only after
//! every thread has been joined — no leaks):
//!
//! * one **accept loop** (the calling thread) taking connections;
//! * one **reader** thread per connection, decoding frames and pushing
//!   jobs into the owning model's [`BatchCollector`];
//! * one **dispatcher** thread per model, owning that model's
//!   [`PrimeSystem`]. It is work-conserving: whenever it is free and
//!   jobs are queued, it takes the oldest `max_batch` of them
//!   ([`BatchCollector::take_batch`]) and runs them at once, writing
//!   responses back through each job's captured write half. Jobs that
//!   arrive while a batch runs flush together on its next turn, so
//!   batches form under load and no request waits on an idle device.
//!
//! A system is reachable only from the dispatcher that owns it, so
//! exclusive access is enforced by ownership and no lock guards it.
//!
//! Batching preserves bit-identity with direct [`PrimeSystem`] calls:
//! digital jobs in a flush are coalesced into one `infer_batch` call
//! (replicated copies hold byte-identical weights, so batch composition
//! cannot change an output), while seeded-noisy jobs are *never*
//! coalesced — each runs as its own single-input `infer_batch_noisy`
//! call, because the per-bank RNG stream draw order depends on batch
//! position.
//!
//! Shutdown is cooperative: [`ShutdownHandle::shutdown`] raises an
//! atomic flag and self-connects once to unblock `accept`. Readers poll
//! the flag via short socket read timeouts; dispatchers drain whatever
//! is still queued before exiting, so every admitted request is
//! answered.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use prime_analyze::unservable_model;
use prime_compiler::Objective;
use prime_core::{PrimeError, PrimeSystem};
use prime_device::NoiseModel;
use prime_nn::Network;
use prime_sim::SimCostModel;

use crate::batcher::{Admission, BatchCollector, BatchConfig};
use crate::error::ServeError;
use crate::wire::{
    decode_request, encode_response, frame, Mode, Request, Response, WireError,
    MAX_FRAME_BYTES,
};

/// How long a blocked reader waits before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(25);
/// How long an idle dispatcher waits before re-checking the flag.
const IDLE_WAIT: Duration = Duration::from_millis(20);
/// The accept loop's pause after a transient failure; each further
/// failure in a row doubles it, up to [`ACCEPT_BACKOFF_MAX`].
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
/// The longest pause between accept attempts.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// The server's mutexes guard plain data (a job queue, a write half)
/// that stays consistent even if a holder panicked, so absorbing poison
/// is safe. No mutex guards a [`PrimeSystem`]: its dispatcher owns it.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared side of a registered model: its batching queue, the
/// analog noise model for noisy-mode requests, and its counters. The
/// deployed system itself is owned by the model's dispatcher.
struct ModelRuntime {
    name: String,
    width: usize,
    noise: NoiseModel,
    queue: Mutex<BatchCollector<ServeJob>>,
    wake: Condvar,
    served: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
}

/// The set of models a [`Server`] exposes. Deployment happens at
/// registration time, so a server never advertises a model the static
/// verifier rejected.
#[derive(Default)]
pub struct Registry {
    /// Each model's shared runtime and its deployed system.
    models: Vec<(ModelRuntime, PrimeSystem)>,
    log: Vec<String>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Deploys `net` onto `system` under a cost-model-driven mapping
    /// search and registers the result under `name`. The registry keeps
    /// the deployed system until [`Server::run`] hands it to the model's
    /// dispatcher.
    ///
    /// The search under `objective` enumerates candidate mappings,
    /// prunes those the static verifiers reject, scores the rest with
    /// the simulator-backed cost model, and deploys the argmin. The full
    /// search report — chosen candidate and rejected alternatives —
    /// lands in [`Registry::registration_log`].
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateModel`] if `name` is taken;
    /// [`ServeError::NotServable`] (leading with the P031 diagnostic)
    /// if the deploy verifier rejects the network;
    /// [`ServeError::Deploy`] for any other deploy failure, including a
    /// search whose every candidate was pruned.
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        name: &str,
        mut system: PrimeSystem,
        net: &Network,
        calibration: &[f32],
        batch: BatchConfig,
        noise: NoiseModel,
        objective: Objective,
    ) -> Result<(), ServeError> {
        if self.models.iter().any(|(m, _)| m.name == name) {
            return Err(ServeError::DuplicateModel { model: name.to_string() });
        }
        match system.deploy_auto(net, calibration, objective, &SimCostModel) {
            Ok(()) => {}
            Err(PrimeError::Rejected { diagnostics }) => {
                let mut all = vec![unservable_model(name, &diagnostics)];
                all.extend(diagnostics);
                return Err(ServeError::NotServable {
                    model: name.to_string(),
                    diagnostics: all,
                });
            }
            Err(error) => {
                return Err(ServeError::Deploy { model: name.to_string(), error })
            }
        }
        if let Some(search) = system.deploy_stats().and_then(|s| s.search.as_ref()) {
            self.log.push(format!("registered `{name}`: {}", search.describe()));
        }
        let runtime = ModelRuntime {
            name: name.to_string(),
            width: net.inputs(),
            noise,
            queue: Mutex::new(BatchCollector::new(batch)),
            wake: Condvar::new(),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        };
        self.models.push((runtime, system));
        Ok(())
    }

    /// Names of the registered models, in registration order.
    pub fn model_names(&self) -> Vec<String> {
        self.models.iter().map(|(m, _)| m.name.clone()).collect()
    }

    /// One entry per successful [`Registry::register`] call: the mapping
    /// the model deployed with — for searched objectives, the full
    /// candidate-by-candidate report.
    pub fn registration_log(&self) -> &[String] {
        &self.log
    }
}

/// Per-model counters reported by [`Server::run`] on shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// Model name.
    pub model: String,
    /// Requests answered with an `Output` response.
    pub served: u64,
    /// Requests refused with an `Overloaded` response.
    pub shed: u64,
    /// Requests answered with an `Error` response.
    pub failed: u64,
    /// `infer_batch`/`infer_batch_noisy` calls issued.
    pub batches: u64,
}

/// Whole-server counters reported by [`Server::run`] on shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Per-model counters, in registration order.
    pub models: Vec<ModelStats>,
}

/// Raises the shutdown flag and unblocks the accept loop.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Asks the server to stop. Idempotent; safe from any thread.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Wake the accept loop; the connection is dropped immediately.
        if let Ok(stream) = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)) {
            drop(stream);
        }
    }
}

/// A bound-but-not-yet-running PRIME inference server.
pub struct Server {
    listener: TcpListener,
    registry: Registry,
    flag: Arc<AtomicBool>,
}

impl Server {
    /// Binds a listener for `registry`'s models. Use `127.0.0.1:0` to
    /// let the OS pick a port (see [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoModels`] for an empty registry, otherwise any
    /// socket bind failure as [`ServeError::Io`].
    pub fn bind(addr: impl ToSocketAddrs, registry: Registry) -> Result<Server, ServeError> {
        if registry.models.is_empty() {
            return Err(ServeError::NoModels);
        }
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Io {
            context: "bind",
            detail: e.to_string(),
        })?;
        Ok(Server { listener, registry, flag: Arc::new(AtomicBool::new(false)) })
    }

    /// The address the server is listening on.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(|e| ServeError::Io {
            context: "local_addr",
            detail: e.to_string(),
        })
    }

    /// A handle that can stop [`Server::run`] from another thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket cannot report its address.
    pub fn shutdown_handle(&self) -> Result<ShutdownHandle, ServeError> {
        Ok(ShutdownHandle { flag: Arc::clone(&self.flag), addr: self.local_addr()? })
    }

    /// Serves until [`ShutdownHandle::shutdown`] is called, then drains
    /// all queued work, joins every thread, and returns the final
    /// counters.
    ///
    /// A transient `accept` failure (a connection aborted before it was
    /// taken, or descriptors or memory briefly exhausted) does not stop
    /// the server: the accept loop pauses for a short, capped backoff and
    /// accepts again.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] only for a fatal accept-loop failure;
    /// per-connection and per-request errors are answered on the wire
    /// instead.
    pub fn run(self) -> Result<ServeStats, ServeError> {
        let Server { listener, registry, flag } = self;
        let (models, systems): (Vec<ModelRuntime>, Vec<PrimeSystem>) =
            registry.models.into_iter().unzip();
        let models = &models[..];
        let flag = &*flag;
        let epoch = Instant::now();
        let connections = AtomicU64::new(0);
        let accept_error = std::thread::scope(|scope| {
            for (model, system) in models.iter().zip(systems) {
                scope.spawn(move || dispatcher(model, system, flag));
            }
            let mut accept_error = None;
            let mut backoff = ACCEPT_BACKOFF_MIN;
            loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => {
                        backoff = ACCEPT_BACKOFF_MIN;
                        stream
                    }
                    Err(_) if flag.load(Ordering::SeqCst) => break,
                    Err(e) if accept_error_is_transient(&e) => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                        continue;
                    }
                    Err(e) => {
                        accept_error = Some(ServeError::Io {
                            context: "accept",
                            detail: e.to_string(),
                        });
                        flag.store(true, Ordering::SeqCst);
                        break;
                    }
                };
                if flag.load(Ordering::SeqCst) {
                    // The shutdown handle's wake connection (or a late
                    // client); either way we are closing.
                    break;
                }
                connections.fetch_add(1, Ordering::Relaxed);
                scope.spawn(move || connection(stream, models, flag, epoch));
            }
            // Make sure dispatchers notice the flag even if their
            // queues are idle.
            for model in models {
                model.wake.notify_one();
            }
            accept_error
        });
        if let Some(e) = accept_error {
            return Err(e);
        }
        Ok(ServeStats {
            connections: connections.load(Ordering::Relaxed),
            models: models
                .iter()
                .map(|m| ModelStats {
                    model: m.name.clone(),
                    served: m.served.load(Ordering::Relaxed),
                    shed: m.shed.load(Ordering::Relaxed),
                    failed: m.failed.load(Ordering::Relaxed),
                    batches: m.batches.load(Ordering::Relaxed),
                })
                .collect(),
        })
    }
}

/// Whether an `accept` failure is transient, so the accept loop should
/// back off and retry rather than stop the server: a per-connection
/// failure (the peer aborted or reset, the call was interrupted, would
/// block or timed out), or descriptor or memory exhaustion (`ENFILE` 23
/// and `EMFILE` 24, the same numbers on Linux and macOS), which frees as
/// connections close.
fn accept_error_is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::OutOfMemory
    ) || matches!(e.raw_os_error(), Some(23 | 24))
}

/// One admitted request: what to compute and where to send the answer.
struct ServeJob {
    id: u64,
    mode: Mode,
    input: Vec<f32>,
    reply: Reply,
}

/// A shared write half of a connection. Dispatchers for different
/// models may interleave responses on one connection; the mutex keeps
/// frames atomic.
#[derive(Clone)]
struct Reply {
    stream: Arc<Mutex<TcpStream>>,
}

impl Reply {
    fn send(&self, response: &Response) {
        let bytes = match encode_response(response).and_then(|payload| frame(&payload)) {
            Ok(bytes) => bytes,
            Err(e) => {
                // The response itself cannot travel (a field outgrew its
                // wire header). Degrade to a small typed error so the
                // client is not left waiting on a frame that never comes;
                // this fallback is tiny, so its encode cannot fail.
                let fallback = Response::Error {
                    id: response.id(),
                    message: format!("response could not be encoded: {e}"),
                };
                match encode_response(&fallback).and_then(|payload| frame(&payload)) {
                    Ok(bytes) => bytes,
                    Err(_) => return,
                }
            }
        };
        let mut guard = lock(&self.stream);
        // A vanished client is its own problem; the server keeps going.
        let _ = guard.write_all(&bytes);
        let _ = guard.flush();
    }
}

/// Per-model dispatch loop, work-conserving: whenever it is free and
/// jobs are queued, it takes the oldest `max_batch` of them and runs
/// them at once, so jobs that arrived during the previous batch flush
/// together. It sleeps only on an empty queue, and on shutdown it
/// drains the queue before returning. The loop owns the model's system
/// for the server's lifetime.
fn dispatcher(model: &ModelRuntime, mut system: PrimeSystem, flag: &AtomicBool) {
    let mut guard = lock(&model.queue);
    loop {
        if !guard.is_empty() {
            let jobs = guard.take_batch();
            drop(guard);
            execute_batch(model, &mut system, jobs);
            guard = lock(&model.queue);
        } else if flag.load(Ordering::SeqCst) {
            return;
        } else {
            guard = model
                .wake
                .wait_timeout(guard, IDLE_WAIT)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Runs one flushed batch. Digital jobs coalesce into a single
/// `infer_batch`; noisy jobs run one at a time to keep per-bank RNG
/// draw order — and therefore outputs — bit-identical to direct calls.
fn execute_batch(model: &ModelRuntime, system: &mut PrimeSystem, jobs: Vec<ServeJob>) {
    let mut digital: Vec<ServeJob> = Vec::new();
    let mut noisy: Vec<(ServeJob, u64)> = Vec::new();
    for job in jobs {
        match job.mode {
            Mode::Digital => digital.push(job),
            Mode::Noisy { seed } => noisy.push((job, seed)),
        }
    }
    if !digital.is_empty() {
        let inputs: Vec<Vec<f32>> =
            digital.iter_mut().map(|j| std::mem::take(&mut j.input)).collect();
        answer(model, &digital, system.infer_batch(&inputs));
    }
    for (job, seed) in noisy {
        let input = std::slice::from_ref(&job.input);
        let outputs = system.infer_batch_noisy(input, &model.noise, seed);
        answer(model, std::slice::from_ref(&job), outputs);
    }
}

/// Replies to `jobs` from one device call's `result`, in order, and
/// counts the call and each outcome. A job the call returned no output
/// for is answered with a typed error, never left waiting.
fn answer(model: &ModelRuntime, jobs: &[ServeJob], result: Result<Vec<Vec<f32>>, PrimeError>) {
    model.batches.fetch_add(1, Ordering::Relaxed);
    let (mut outputs, error) = match result {
        Ok(outputs) => (outputs.into_iter(), None),
        Err(e) => (Vec::new().into_iter(), Some(e)),
    };
    for job in jobs {
        let response = match outputs.next() {
            Some(values) => {
                model.served.fetch_add(1, Ordering::Relaxed);
                Response::Output { id: job.id, values }
            }
            None => {
                model.failed.fetch_add(1, Ordering::Relaxed);
                let message = match &error {
                    Some(e) => format!("inference failed: {e}"),
                    None => "inference returned no output".to_string(),
                };
                Response::Error { id: job.id, message }
            }
        };
        job.reply.send(&response);
    }
}

/// Outcome of reading an exact byte count with shutdown polling.
enum ReadOutcome {
    Done,
    Closed,
    Shutdown,
}

fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    flag: &AtomicBool,
) -> ReadOutcome {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if flag.load(Ordering::SeqCst) {
                    return ReadOutcome::Shutdown;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
    ReadOutcome::Done
}

/// Per-connection reader: frame -> decode -> admit (or answer a typed
/// error). Runs until the peer closes, a frame is unrecoverable, or
/// shutdown is raised.
fn connection(stream: TcpStream, models: &[ModelRuntime], flag: &AtomicBool, epoch: Instant) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let reply = match stream.try_clone() {
        Ok(write_half) => Reply { stream: Arc::new(Mutex::new(write_half)) },
        Err(_) => return,
    };
    let mut reader = stream;
    let mut header = [0u8; 4];
    loop {
        match read_exact_polling(&mut reader, &mut header, flag) {
            ReadOutcome::Done => {}
            ReadOutcome::Closed | ReadOutcome::Shutdown => return,
        }
        let len = u32::from_le_bytes(header);
        if len > MAX_FRAME_BYTES {
            // The stream cannot be resynchronized past a bogus length.
            let e = WireError::Oversized {
                len: u64::from(len),
                limit: u64::from(MAX_FRAME_BYTES),
            };
            reply.send(&Response::Error { id: 0, message: e.to_string() });
            return;
        }
        let mut payload = vec![0u8; len as usize];
        match read_exact_polling(&mut reader, &mut payload, flag) {
            ReadOutcome::Done => {}
            ReadOutcome::Closed | ReadOutcome::Shutdown => return,
        }
        match decode_request(&payload) {
            Ok(request) => admit(request, models, &reply, epoch),
            Err(e) => {
                // Framing survived but the payload is garbage: answer
                // and keep the connection (frames stay aligned).
                reply.send(&Response::Error {
                    id: 0,
                    message: format!("bad request: {e}"),
                });
            }
        }
    }
}

/// Routes a decoded request to its model's collector, answering
/// immediately for unknown models, width mismatches, and sheds.
fn admit(request: Request, models: &[ModelRuntime], reply: &Reply, epoch: Instant) {
    let Request { id, model, mode, input } = request;
    let Some(runtime) = models.iter().find(|m| m.name == model) else {
        reply.send(&Response::Error {
            id,
            message: format!("unknown model `{model}`"),
        });
        return;
    };
    if input.len() != runtime.width {
        reply.send(&Response::Error {
            id,
            message: format!(
                "model `{model}` expects {} inputs, got {}",
                runtime.width,
                input.len()
            ),
        });
        return;
    }
    let job = ServeJob { id, mode, input, reply: reply.clone() };
    let admission = lock(&runtime.queue).offer(job, epoch.elapsed());
    match admission {
        Admission::Admitted => runtime.wake.notify_one(),
        Admission::Shed { queue_depth, queue_bound } => {
            runtime.shed.fetch_add(1, Ordering::Relaxed);
            reply.send(&Response::Overloaded {
                id,
                model,
                queue_depth: u32::try_from(queue_depth).unwrap_or(u32::MAX),
                queue_bound: u32::try_from(queue_bound).unwrap_or(u32::MAX),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_connection_and_exhaustion_accept_errors_are_transient() {
        for kind in [
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
            io::ErrorKind::OutOfMemory,
        ] {
            assert!(accept_error_is_transient(&io::Error::from(kind)), "{kind:?}");
        }
        for (errno, name) in [(23, "ENFILE"), (24, "EMFILE")] {
            assert!(
                accept_error_is_transient(&io::Error::from_raw_os_error(errno)),
                "{name}"
            );
        }
    }

    #[test]
    fn other_accept_errors_are_fatal() {
        for kind in [
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::InvalidInput,
            io::ErrorKind::AddrInUse,
            io::ErrorKind::NotConnected,
            io::ErrorKind::Unsupported,
            io::ErrorKind::Other,
        ] {
            assert!(!accept_error_is_transient(&io::Error::from(kind)), "{kind:?}");
        }
        // EBADF and EINVAL: a listener that is closed or not listening.
        for errno in [9, 22] {
            assert!(!accept_error_is_transient(&io::Error::from_raw_os_error(errno)), "{errno}");
        }
    }
}
