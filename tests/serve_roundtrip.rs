//! Loopback integration test for the serving stack: a real TCP server
//! on `127.0.0.1:0` with two live models of different nets and input
//! widths, concurrent client threads interleaving digital and
//! seeded-noisy requests to both, and a bit-identity check of every
//! served output against a direct `PrimeSystem` call on that model's
//! own identically deployed system — the served path must add wire
//! framing and batching without changing a single output bit, and must
//! never run one model's request on another model's system.
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
const OTHER: &str = "fc-b";
const SHEDDER: &str = "shedder";
const WIDTH: usize = 16;
const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 12;

/// A live model: its name, layer widths, weight seed, bank count, and
/// the mode offset of [`noisy`].
struct Live {
    name: &'static str,
    widths: [usize; 3],
    seed: u64,
    banks: usize,
    offset: usize,
}

/// Two live models with different nets, input widths and bank counts.
const LIVE: [Live; 2] = [
    Live { name: MODEL, widths: [WIDTH, 10, 4], seed: 7, banks: 2, offset: 0 },
    Live { name: OTHER, widths: [24, 14, 6], seed: 11, banks: 3, offset: 1 },
];

/// A two-layer FC stack over `widths` (ReLU hidden, identity head) with
/// seeded weights.
fn test_net(widths: [usize; 3], seed: u64) -> Network {
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(widths[0], widths[1], Activation::Relu)),
        Layer::Fc(FullyConnected::new(widths[1], widths[2], Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut SmallRng::seed_from_u64(seed));
    net
}

fn noise() -> NoiseModel {
    NoiseModel { program_sigma: 0.0, read_sigma: 0.05 }
}

fn input_for(width: usize, t: usize, k: usize) -> Vec<f32> {
    (0..width).map(|j| ((t * 31 + k * 7 + j * 3) % 13) as f32 / 13.0).collect()
}

/// A live model's request (t, k) runs noisy on odd `k + offset`, with a
/// per-request seed: `MODEL` (offset 0) and `OTHER` (offset 1) take
/// opposite modes on every step.
fn noisy(offset: usize, k: usize) -> bool {
    (k + offset) % 2 == 1
}

fn seed_for(t: usize, k: usize) -> u64 {
    0xA5A5_0000 + (t as u64) * 1000 + k as u64
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn served_outputs_are_bit_identical_under_concurrent_clients() {
    // --- Reference: each live model's net deployed directly on its own
    // system, each request run as its own single-input call (the served
    // contract's other side).
    let mut expected: HashMap<(&str, usize, usize), Vec<f32>> = HashMap::new();
    for live in &LIVE {
        let width = live.widths[0];
        let mut reference = PrimeSystem::new(live.banks, 2, 4, 2048);
        reference.deploy(&test_net(live.widths, live.seed), &vec![0.5f32; width]).expect("fits");
        for t in 0..CLIENTS {
            for k in 0..REQUESTS_PER_CLIENT {
                let input = input_for(width, t, k);
                let out = if noisy(live.offset, k) {
                    reference
                        .infer_batch_noisy(&[input], &noise(), seed_for(t, k))
                        .expect("runs")
                } else {
                    reference.infer_batch(&[input]).expect("runs")
                };
                expected.insert((live.name, t, k), out.into_iter().next().expect("one output"));
            }
        }
    }

    // --- Server: both nets deployed through the registry — under a
    // latency-objective mapping *search*, whose outputs must still match
    // the fixed-default reference deploys bit-for-bit — plus a
    // zero-capacity model whose every request is deterministically shed.
    // Every model holds its own weights, so serving a request on another
    // model's system changes its answer.
    let mut registry = Registry::new();
    for live in &LIVE {
        registry
            .register(
                live.name,
                PrimeSystem::new(live.banks, 2, 4, 2048),
                &test_net(live.widths, live.seed),
                &vec![0.5f32; live.widths[0]],
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
    }
    registry
        .register(
            SHEDDER,
            PrimeSystem::new(1, 2, 4, 2048),
            &test_net([WIDTH, 10, 4], 13),
            &[0.5f32; WIDTH],
            BatchConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(2),
                queue_bound: 0,
            },
            noise(),
            Objective::Latency,
        )
        .expect("shedder deploys");
    let server = Server::bind("127.0.0.1:0", registry).expect("binds loopback");
    let addr = server.local_addr().expect("has an address");
    let stop = server.shutdown_handle().expect("has an address");
    let server_thread = std::thread::spawn(move || server.run());

    // --- Concurrent clients: digital and seeded-noisy requests to both
    // live models racing through their batch collectors, every response
    // checked bit-exactly against that model's own reference.
    let expected = &expected;
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            scope.spawn(move || {
                let mut client =
                    Client::connect_timeout(&addr, Duration::from_secs(5)).expect("connects");
                for k in 0..REQUESTS_PER_CLIENT {
                    for &Live { name, widths, offset, .. } in &LIVE {
                        let input = input_for(widths[0], t, k);
                        let response = if noisy(offset, k) {
                            client.infer_noisy(name, input, seed_for(t, k))
                        } else {
                            client.infer(name, input)
                        }
                        .expect("round trip succeeds");
                        match response {
                            Response::Output { values, .. } => assert_eq!(
                                bits(&values),
                                bits(&expected[&(name, t, k)]),
                                "client {t} request {k} to {name}: served output diverged \
                                 from the direct call"
                            ),
                            other => {
                                panic!("client {t} request {k} to {name}: unexpected {other:?}")
                            }
                        }
                    }
                }

                // The zero-capacity model sheds with the typed response,
                // echoing the request id, and the connection stays usable.
                match client.infer(SHEDDER, input_for(WIDTH, t, 0)).expect("round trip succeeds") {
                    Response::Overloaded { model, queue_depth, queue_bound, .. } => {
                        assert_eq!(model, SHEDDER);
                        assert_eq!((queue_depth, queue_bound), (0, 0));
                    }
                    other => panic!("client {t}: expected Overloaded, got {other:?}"),
                }

                // Unknown models and wrong widths answer typed errors
                // without poisoning the connection.
                match client.infer("no-such-model", input_for(WIDTH, t, 0)).expect("round trip") {
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
                    .infer_noisy(MODEL, input_for(WIDTH, t, 1), seed_for(t, 1))
                    .expect("round trip succeeds")
                {
                    Response::Output { values, .. } => {
                        assert_eq!(bits(&values), bits(&expected[&(MODEL, t, 1)]))
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
    // Each live model counts exactly its own requests: 12 checked
    // requests per client, plus 1 noisy repeat per client on `MODEL`;
    // the two error probes never reach a model queue.
    for (name, served) in [
        (MODEL, CLIENTS * (REQUESTS_PER_CLIENT + 1)),
        (OTHER, CLIENTS * REQUESTS_PER_CLIENT),
    ] {
        let model = by_name[name];
        assert_eq!(model.served, served as u64, "{name} served count");
        assert_eq!(model.shed, 0, "{name} shed count");
        assert_eq!(model.failed, 0, "{name} failed count");
        assert!(
            model.batches <= model.served,
            "{name}: digital coalescing must never need more device calls than requests"
        );
    }
    let shedder = by_name[SHEDDER];
    assert_eq!(shedder.served, 0);
    assert_eq!(shedder.shed, CLIENTS as u64);

    // The listener died with run(): fresh connections must be refused.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "socket still accepting after shutdown"
    );
}
