//! Work-conserving dispatch: a free dispatcher runs a queued request at
//! once instead of waiting out the model's `max_delay` window.
//!
//! A lone request on an idle server whose model has a one-hour window
//! must come back within seconds, bit-identical to a direct
//! `infer_batch` call. A dispatcher that waited for the window would
//! hold it until the shutdown drain, so the answer would miss the
//! bound, and the test would still end: the drain answers the held
//! request and lets the server exit.

use std::sync::mpsc;
use std::time::Duration;

use prime_compiler::Objective;
use prime_core::PrimeSystem;
use prime_device::NoiseModel;
use prime_serve::workloads::{fc_net, sample_input};
use prime_serve::{BatchConfig, Client, Registry, Response, Server};

const MODEL: &str = "fc";
const WIDTHS: [usize; 3] = [16, 10, 4];
const WEIGHT_SEED: u64 = 7;
/// How long the test waits for the answer: generous for a loaded debug
/// build, and far below the model's window.
const ANSWER_BOUND: Duration = Duration::from_secs(10);

fn system() -> PrimeSystem {
    PrimeSystem::new(1, 2, 4, 2048)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_lone_request_is_served_without_waiting_out_the_window() {
    let net = fc_net(&WIDTHS, WEIGHT_SEED).expect("widths chain");
    let calibration = vec![0.5f32; WIDTHS[0]];
    let input = sample_input(WIDTHS[0], 3);

    let mut reference = system();
    reference.deploy(&net, &calibration).expect("fits");
    let expected = reference
        .infer_batch(std::slice::from_ref(&input))
        .expect("runs")
        .remove(0);

    let mut registry = Registry::new();
    registry
        .register(
            MODEL,
            system(),
            &net,
            &calibration,
            BatchConfig {
                max_batch: 8,
                max_delay: Duration::from_secs(3600),
                queue_bound: 16,
            },
            NoiseModel::default(),
            Objective::Latency,
        )
        .expect("test net deploys");
    let server = Server::bind("127.0.0.1:0", registry).expect("binds loopback");
    let addr = server.local_addr().expect("has an address");
    let stop = server.shutdown_handle().expect("has an address");
    let server_thread = std::thread::spawn(move || server.run());

    let (answers, answer) = mpsc::channel();
    let client_thread = std::thread::spawn(move || {
        let mut client =
            Client::connect_timeout(&addr, Duration::from_secs(5)).expect("connects");
        let _ = answers.send(client.infer(MODEL, input));
    });
    let answer = answer.recv_timeout(ANSWER_BOUND);

    // Stop before asserting: the drain answers a request the dispatcher
    // still holds, so the server and the client exit either way.
    stop.shutdown();
    let stats = server_thread
        .join()
        .expect("server thread must not panic")
        .expect("server must exit cleanly");
    client_thread.join().expect("client thread must not panic");

    match answer
        .unwrap_or_else(|_| {
            panic!("no answer within {ANSWER_BOUND:?}: an idle dispatcher held the request")
        })
        .expect("round trip succeeds")
    {
        Response::Output { values, .. } => assert_eq!(
            bits(&values),
            bits(&expected),
            "served output diverged from the direct call"
        ),
        other => panic!("expected an output, got {other:?}"),
    }
    let model = &stats.models[0];
    assert_eq!((model.served, model.shed, model.failed), (1, 0, 0));
    assert!(
        model.batches <= model.served,
        "a flush never needs more device calls than it has requests"
    );
}
