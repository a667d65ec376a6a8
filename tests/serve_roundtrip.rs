//! Loopback integration test for the serving stack: a real TCP server
//! on `127.0.0.1:0`, concurrent client threads mixing digital and
//! seeded-noisy requests, and a bit-identity check of every served
//! output against a direct `PrimeSystem` call on an identically
//! deployed system — the served path must add wire framing and
//! batching without changing a single output bit.
//!
//! One `#[test]` covers the whole lifecycle (serve -> drive -> shed ->
//! error paths -> drain -> verify counters -> socket closed), so the
//! server's threads never interleave with another test's.

use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

use prime::compiler::Objective;
use prime::core::PrimeSystem;
use prime::device::NoiseModel;
use prime::nn::{Activation, FullyConnected, Layer, Network};
use prime::serve::{BatchConfig, Client, Registry, Response, Server};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const MODEL: &str = "fc-a";
const SHEDDER: &str = "shedder";
const WIDTH: usize = 16;
const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 12;

fn test_net(seed: u64) -> Network {
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(WIDTH, 10, Activation::Relu)),
        Layer::Fc(FullyConnected::new(10, 4, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut SmallRng::seed_from_u64(seed));
    net
}

fn noise() -> NoiseModel {
    NoiseModel { program_sigma: 0.0, read_sigma: 0.05 }
}

fn input_for(t: usize, k: usize) -> Vec<f32> {
    (0..WIDTH).map(|j| ((t * 31 + k * 7 + j * 3) % 13) as f32 / 13.0).collect()
}

/// Request (t, k) runs noisy on odd k, with a per-request seed.
fn seed_for(t: usize, k: usize) -> u64 {
    0xA5A5_0000 + (t as u64) * 1000 + k as u64
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn served_outputs_are_bit_identical_under_concurrent_clients() {
    // --- Reference: the same net deployed directly, each request run as
    // its own single-input call (the served contract's other side).
    let net = test_net(7);
    let calibration = vec![0.5f32; WIDTH];
    let mut reference = PrimeSystem::new(2, 2, 4, 2048);
    reference.deploy(&net, &calibration).expect("fits");
    let mut expected: HashMap<(usize, usize), Vec<f32>> = HashMap::new();
    for t in 0..CLIENTS {
        for k in 0..REQUESTS_PER_CLIENT {
            let input = input_for(t, k);
            let out = if k % 2 == 1 {
                reference
                    .infer_batch_noisy(&[input], &noise(), seed_for(t, k))
                    .expect("runs")
            } else {
                reference.infer_batch(&[input]).expect("runs")
            };
            expected.insert((t, k), out.into_iter().next().expect("one output"));
        }
    }

    // --- Server: the same net deployed through the registry — under a
    // latency-objective mapping *search*, whose outputs must still match
    // the fixed-default reference deploy bit-for-bit — plus a
    // zero-capacity model whose every request is deterministically shed.
    let mut registry = Registry::new();
    registry
        .register(
            MODEL,
            PrimeSystem::new(2, 2, 4, 2048),
            &net,
            &calibration,
            BatchConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(2),
                queue_bound: 256,
            },
            noise(),
            Objective::Latency,
        )
        .expect("test net deploys");
    assert!(
        registry
            .registration_log()
            .last()
            .is_some_and(|entry| entry.contains("mapping search") && entry.contains("CHOSEN")),
        "searched registration must log the chosen candidate"
    );
    registry
        .register(
            SHEDDER,
            PrimeSystem::new(1, 2, 4, 2048),
            &net,
            &calibration,
            BatchConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(2),
                queue_bound: 0,
            },
            noise(),
            Objective::Fixed,
        )
        .expect("shedder deploys");
    let server = Server::bind("127.0.0.1:0", registry).expect("binds loopback");
    let addr = server.local_addr().expect("has an address");
    let stop = server.shutdown_handle().expect("has an address");
    let server_thread = std::thread::spawn(move || server.run());

    // --- Concurrent clients: digital and seeded-noisy requests racing
    // through the batch collector, every response checked bit-exactly.
    let expected = &expected;
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            scope.spawn(move || {
                let mut client =
                    Client::connect_timeout(&addr, Duration::from_secs(5)).expect("connects");
                for k in 0..REQUESTS_PER_CLIENT {
                    let input = input_for(t, k);
                    let response = if k % 2 == 1 {
                        client.infer_noisy(MODEL, input, seed_for(t, k))
                    } else {
                        client.infer(MODEL, input)
                    }
                    .expect("round trip succeeds");
                    match response {
                        Response::Output { values, .. } => assert_eq!(
                            bits(&values),
                            bits(&expected[&(t, k)]),
                            "client {t} request {k}: served output diverged from the \
                             direct call"
                        ),
                        other => panic!("client {t} request {k}: unexpected {other:?}"),
                    }
                }

                // The zero-capacity model sheds with the typed response,
                // echoing the request id, and the connection stays usable.
                match client.infer(SHEDDER, input_for(t, 0)).expect("round trip succeeds") {
                    Response::Overloaded { model, queue_depth, queue_bound, .. } => {
                        assert_eq!(model, SHEDDER);
                        assert_eq!((queue_depth, queue_bound), (0, 0));
                    }
                    other => panic!("client {t}: expected Overloaded, got {other:?}"),
                }

                // Unknown models and wrong widths answer typed errors
                // without poisoning the connection.
                match client.infer("no-such-model", input_for(t, 0)).expect("round trip") {
                    Response::Error { message, .. } => {
                        assert!(message.contains("unknown model"), "got: {message}")
                    }
                    other => panic!("client {t}: expected Error, got {other:?}"),
                }
                match client.infer(MODEL, vec![0.5; WIDTH + 1]).expect("round trip") {
                    Response::Error { message, .. } => {
                        assert!(message.contains("expects"), "got: {message}")
                    }
                    other => panic!("client {t}: expected Error, got {other:?}"),
                }

                // Same noisy request again: the seeded stream restarts per
                // call, so the answer reproduces bit-exactly.
                match client
                    .infer_noisy(MODEL, input_for(t, 1), seed_for(t, 1))
                    .expect("round trip succeeds")
                {
                    Response::Output { values, .. } => {
                        assert_eq!(bits(&values), bits(&expected[&(t, 1)]))
                    }
                    other => panic!("client {t}: unexpected {other:?}"),
                }
            });
        }
    });

    // --- Graceful shutdown: run() drains, joins every scoped thread,
    // and hands back consistent counters.
    stop.shutdown();
    let stats = server_thread
        .join()
        .expect("server thread must not panic")
        .expect("server must exit cleanly");
    assert_eq!(stats.connections, CLIENTS as u64, "one connection per client");
    let by_name: HashMap<&str, _> =
        stats.models.iter().map(|m| (m.model.as_str(), m)).collect();
    let fc = by_name[MODEL];
    // 12 checked requests + 1 noisy repeat per client; the two error
    // probes never reach the model queue.
    assert_eq!(fc.served, (CLIENTS * (REQUESTS_PER_CLIENT + 1)) as u64);
    assert_eq!(fc.shed, 0);
    assert_eq!(fc.failed, 0);
    assert!(
        fc.batches <= fc.served,
        "digital coalescing must never need more device calls than requests"
    );
    let shedder = by_name[SHEDDER];
    assert_eq!(shedder.served, 0);
    assert_eq!(shedder.shed, CLIENTS as u64);

    // The listener died with run(): fresh connections must be refused.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "socket still accepting after shutdown"
    );
}
