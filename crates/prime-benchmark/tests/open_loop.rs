//! The open-loop driver against a stub server that answers every request
//! 50 ms after it arrives: sends must stay on schedule (many requests in
//! flight on one connection), and latency must be charged from each
//! request's scheduled send time.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use prime_benchmark::load::{drive, LoadRun, OpenLoop};
use prime_benchmark::stats::percentile_ms;
use prime_serve::wire::{decode_request, encode_response, frame, split_frame};
use prime_serve::{Mode, Request, Response, MAX_FRAME_BYTES};

const DELAY: Duration = Duration::from_millis(50);

/// Serves one connection: a reader queues each request's id with its due
/// time, and a writer answers it `DELAY` after arrival, echoing the id.
fn stub_server(listener: TcpListener) {
    let (stream, _) = listener.accept().expect("the driver connects");
    let mut writer = stream.try_clone().expect("socket clones");
    let (due_tx, due_rx) = mpsc::channel::<(Instant, u64)>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (due, id) in due_rx {
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let response = Response::Output {
                    id,
                    values: vec![id as f32],
                };
                let bytes = frame(&encode_response(&response).expect("encodes")).expect("frames");
                if writer.write_all(&bytes).is_err() {
                    return;
                }
            }
        });
        let mut reader = stream;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 8192];
        loop {
            while let Some((payload, used)) = split_frame(&buf, MAX_FRAME_BYTES).expect("framed") {
                let id = decode_request(payload).expect("decodes").id;
                due_tx
                    .send((Instant::now() + DELAY, id))
                    .expect("writer is alive");
                buf.drain(..used);
            }
            match reader.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
        drop(due_tx);
    });
}

/// Drives `count` requests at `rate` against a fresh stub; `make` may
/// stall the sender to simulate a late generator.
fn run_against_stub(rate: f64, count: usize, make: impl FnMut(usize) + Send) -> LoadRun {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds loopback");
    let addr = listener.local_addr().expect("bound address");
    let plan = OpenLoop {
        rate_per_s: rate,
        count,
        drain: Duration::from_secs(2),
        trace: true,
    };
    let mut make = make;
    std::thread::scope(|scope| {
        scope.spawn(move || stub_server(listener));
        drive(addr, &plan, |i| {
            make(i);
            Request {
                id: 0,
                model: "stub".into(),
                mode: Mode::Digital,
                input: vec![i as f32],
            }
        })
    })
    .expect("the run completes")
}

fn lags(run: &LoadRun) -> Vec<Duration> {
    run.records.iter().map(|r| r.lag()).collect()
}

#[test]
fn sends_stay_on_schedule_while_every_reply_takes_50_ms() {
    let run = run_against_stub(200.0, 100, |_| {});
    for (i, record) in run.records.iter().enumerate() {
        let answer = record.received.as_ref().expect("every request is answered");
        assert_eq!(
            answer.response.id(),
            i as u64 + 1,
            "responses match requests by id"
        );
        assert_eq!(
            answer.response,
            Response::Output {
                id: i as u64 + 1,
                values: vec![i as f32 + 1.0]
            }
        );
    }
    let lag_p99 = percentile_ms(&lags(&run), 99.0).expect("samples");
    assert!(
        lag_p99 < 5.0,
        "generator lag p99 {lag_p99:.3} ms: sends fell behind schedule"
    );
    // At 200/s with 50 ms replies about ten requests are in flight. A
    // client with one request in flight would need 100 x 50 ms = 5 s, so
    // its last requests would wait seconds past their scheduled time.
    let latencies: Vec<Duration> = run.records.iter().filter_map(|r| r.latency()).collect();
    let worst = latencies.iter().max().expect("samples");
    assert!(
        latencies.iter().all(|l| *l >= DELAY),
        "no reply can beat the stub's delay"
    );
    assert!(
        *worst < DELAY + Duration::from_millis(40),
        "worst latency {worst:?}"
    );
    assert_eq!(run.strays, 0);
}

#[test]
fn latency_is_charged_from_the_scheduled_send_time() {
    // The sender stalls 40 ms before request 10, so requests 10.. leave
    // late. Their latency must include that lateness.
    let run = run_against_stub(200.0, 30, |i| {
        if i == 10 {
            std::thread::sleep(Duration::from_millis(40));
        }
    });
    let stalled = &run.records[10];
    assert!(
        stalled.lag() >= Duration::from_millis(35),
        "lag {:?}",
        stalled.lag()
    );
    for record in &run.records {
        let latency = record.latency().expect("answered");
        let answered = record.received.as_ref().expect("answered").at;
        assert_eq!(latency, answered - record.scheduled);
        assert!(
            latency >= record.lag() + DELAY,
            "latency {latency:?} lag {:?}",
            record.lag()
        );
    }
    assert!(stalled.latency().expect("answered") >= Duration::from_millis(85));
}
