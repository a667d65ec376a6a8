//! Open-loop load over one connection with many requests in flight.
//!
//! A sender thread issues request `i` at `start + i / rate` whatever the
//! server is doing, and a receiver thread reads responses as they come
//! and matches them to requests by id. Latency is charged from the
//! *scheduled* send time, so a stall shows up as latency on every request
//! it delays rather than as a quietly reduced offered load. Two threads
//! and one connection keep the generator within a 2-core host, and the
//! protocol's per-request ids let any number of requests share that
//! connection (a blocking client could keep only one in flight).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use prime_serve::wire::{decode_response, encode_request, frame, split_frame};
use prime_serve::{Request, Response, MAX_FRAME_BYTES};

use crate::report::{fail, BenchError};

/// How long the receiver blocks in one read before re-checking whether
/// the run is over.
const READ_POLL: Duration = Duration::from_millis(20);

/// One open-loop run's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoop {
    /// Offered load, requests per second.
    pub rate_per_s: f64,
    /// Requests to send.
    pub count: usize,
    /// How long after the last scheduled send unanswered requests are
    /// given before they count as timed out.
    pub drain: Duration,
    /// Also time encoding, socket writes and response decoding.
    pub trace: bool,
}

impl OpenLoop {
    /// When request `i` is due, relative to the run's start.
    pub fn scheduled(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// One response as the receiver saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Received {
    /// When the read that completed the response returned.
    pub at: Duration,
    /// Time spent in `decode_response` (traced runs only, else zero).
    pub decode: Duration,
    /// The decoded response.
    pub response: Response,
}

/// One request's timeline, relative to the moment the run started.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// When the request was due.
    pub scheduled: Duration,
    /// When the sender, having built the request, started encoding it.
    pub sent: Duration,
    /// Time spent in `encode_request` + `frame` (traced runs only).
    pub encode: Duration,
    /// Time spent in the socket `write_all` (traced runs only).
    pub write: Duration,
    /// The matching response, if one arrived before the drain deadline.
    pub received: Option<Received>,
}

impl Record {
    /// How late the generator sent the request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.scheduled)
    }

    /// Response time charged from the scheduled send time.
    pub fn latency(&self) -> Option<Duration> {
        self.received
            .as_ref()
            .map(|r| r.at.saturating_sub(self.scheduled))
    }
}

/// Everything one open-loop run observed.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// One record per request, in send order (request id = index + 1).
    pub records: Vec<Record>,
    /// Responses whose id matched no outstanding request.
    pub strays: u64,
}

struct Sent {
    scheduled: Duration,
    sent: Duration,
    encode: Duration,
    write: Duration,
}

/// Drives `plan.count` requests at `addr`, building request `i` with
/// `make(i)`; the driver assigns ids `1..=count`.
///
/// # Errors
///
/// Connection failures, a socket error mid-run, or a response frame that
/// does not decode. Slow, refused or missing answers are not errors: they
/// show in the returned records.
pub fn drive<F>(addr: SocketAddr, plan: &OpenLoop, make: F) -> Result<LoadRun, BenchError>
where
    F: FnMut(usize) -> Request + Send,
{
    if !(plan.rate_per_s > 0.0 && plan.rate_per_s.is_finite()) {
        return Err(fail(format!(
            "offered rate {} is not a positive rate",
            plan.rate_per_s
        )));
    }
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| fail(format!("cannot connect to {addr}: {e}")))?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(READ_POLL))?;
    let done = AtomicBool::new(false);
    let sent_count = AtomicUsize::new(0);
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let result = send_all(stream, start, plan, make, &sent_count);
            done.store(true, Ordering::SeqCst);
            result
        });
        let receiver = scope.spawn(|| receive_all(reader, start, plan, &done, &sent_count));
        let sent = sender
            .join()
            .unwrap_or_else(|_| Err(fail("sender thread panicked")));
        let received = receiver
            .join()
            .unwrap_or_else(|_| Err(fail("receiver thread panicked")));
        (sent, received)
    });
    let (mut answers, strays) = received?;
    let records = sent?
        .into_iter()
        .zip(answers.iter_mut())
        .map(|(s, answer)| Record {
            scheduled: s.scheduled,
            sent: s.sent,
            encode: s.encode,
            write: s.write,
            received: answer.take(),
        })
        .collect();
    Ok(LoadRun { records, strays })
}

fn send_all<F>(
    mut stream: TcpStream,
    start: Instant,
    plan: &OpenLoop,
    mut make: F,
    sent_count: &AtomicUsize,
) -> Result<Vec<Sent>, BenchError>
where
    F: FnMut(usize) -> Request,
{
    let mut sent = Vec::with_capacity(plan.count);
    for i in 0..plan.count {
        let scheduled = plan.scheduled(i);
        if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let mut request = make(i);
        request.id = i as u64 + 1;
        let at = start.elapsed();
        let bytes = frame(&encode_request(&request)?)?;
        let encoded = plan.trace.then(|| start.elapsed());
        stream.write_all(&bytes)?;
        let (encode, write) = match encoded {
            Some(encoded) => (encoded - at, start.elapsed() - encoded),
            None => (Duration::ZERO, Duration::ZERO),
        };
        sent.push(Sent {
            scheduled,
            sent: at,
            encode,
            write,
        });
        sent_count.store(i + 1, Ordering::SeqCst);
    }
    Ok(sent)
}

type Answers = (Vec<Option<Received>>, u64);

fn receive_all(
    mut reader: TcpStream,
    start: Instant,
    plan: &OpenLoop,
    sender_done: &AtomicBool,
    sent_count: &AtomicUsize,
) -> Result<Answers, BenchError> {
    let mut answers: Vec<Option<Received>> = vec![None; plan.count];
    let mut answered = 0usize;
    let mut strays = 0u64;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut read_at = Duration::ZERO;
    let mut sender_finished: Option<Duration> = None;
    loop {
        let mut offset = 0;
        while let Some((payload, consumed)) = split_frame(&buf[offset..], MAX_FRAME_BYTES)? {
            let decode_start = plan.trace.then(|| start.elapsed());
            let response = decode_response(payload)?;
            let decode = decode_start.map_or(Duration::ZERO, |t| start.elapsed() - t);
            offset += consumed;
            let slot = usize::try_from(response.id())
                .ok()
                .and_then(|id| id.checked_sub(1))
                .and_then(|i| answers.get_mut(i));
            match slot {
                Some(slot) if slot.is_none() => {
                    *slot = Some(Received {
                        at: read_at,
                        decode,
                        response,
                    });
                    answered += 1;
                }
                _ => strays += 1,
            }
        }
        buf.drain(..offset);
        if sender_done.load(Ordering::SeqCst) {
            let finished = *sender_finished.get_or_insert_with(|| start.elapsed());
            if answered >= sent_count.load(Ordering::SeqCst)
                || start.elapsed() > finished + plan.drain
            {
                break;
            }
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                read_at = start.elapsed();
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(fail(format!("receive failed: {e}"))),
        }
    }
    Ok((answers, strays))
}
