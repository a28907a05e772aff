//! Soak of the connection front at high keep-alive concurrency: 256 and then 1024
//! connections held open at once, every reply answered and bit-exact, and the
//! process's resident set flat across the arms — per-connection loop state (parse
//! buffers, pending-write queues) must scale with the live connection count and be
//! given back, not accumulate.
//!
//! A test binary of its own, so that the RSS it reads is this server's and these
//! clients' and nothing else's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vitality_serve::{BatchPolicy, ModelRegistry, ServeClient, Server, ServerConfig};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};

/// Requests each connection issues once every connection of its arm is open.
const PER_CLIENT: usize = 2;

/// What the resident set may grow by across the arms. glibc keeps freed
/// sub-mmap-threshold chunks in its arenas, so RSS plateaus at the high-water mark
/// (tens of MiB here); buffers or pending writes leaked per connection or per
/// request at these arm sizes are hundreds.
const RSS_ALLOWANCE_KIB: u64 = 128 * 1024;

/// Resident set size of this process in KiB (`VmRSS` from `/proc/self/status`);
/// `None` off Linux, where the RSS arm is skipped.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Opens `concurrency` keep-alive connections, holds them all open at once (the
/// barrier), then has each issue [`PER_CLIENT`] requests. Returns `(errors, wrong)`:
/// requests that were not answered, and answers that were not direct inference.
fn drive(
    addr: std::net::SocketAddr,
    concurrency: usize,
    images: &[Matrix],
    expected: &[Vec<f32>],
) -> (usize, usize) {
    let (errors, wrong) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let all_connected = Barrier::new(concurrency);
    std::thread::scope(|scope| {
        for c in 0..concurrency {
            let (errors, wrong, all_connected) = (&errors, &wrong, &all_connected);
            scope.spawn(move || {
                let client = ServeClient::connect(addr);
                all_connected.wait();
                let Ok(mut client) = client else {
                    errors.fetch_add(PER_CLIENT, Ordering::Relaxed);
                    return;
                };
                for i in 0..PER_CLIENT {
                    // A deterministic, client-skewed walk over the image pool.
                    let idx = (c * 7919 + i * 131) % images.len();
                    match client.infer("vit:taylor", &images[idx]) {
                        Ok(reply) if reply.logits == expected[idx] => {}
                        Ok(_) => {
                            wrong.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(err) => {
                            if errors.fetch_add(1, Ordering::Relaxed) < 5 {
                                eprintln!("c={concurrency} client {c} request {i}: {err}");
                            }
                        }
                    }
                }
            });
        }
    });
    (errors.into_inner(), wrong.into_inner())
}

#[test]
fn the_front_holds_1024_keep_alive_connections_with_flat_rss() {
    let cfg = TrainConfig::tiny();
    let model = VisionTransformer::new(
        &mut StdRng::seed_from_u64(196),
        cfg,
        AttentionVariant::Taylor,
    );
    let images: Vec<Matrix> = (0..24)
        .map(|i| {
            init::uniform(
                &mut StdRng::seed_from_u64(9000 + i),
                cfg.image_size,
                cfg.image_size,
                0.0,
                1.0,
            )
        })
        .collect();
    let expected: Vec<Vec<f32>> = images
        .iter()
        .map(|img| model.infer(img).logits.row(0).to_vec())
        .collect();
    let mut registry = ModelRegistry::new();
    registry.register("vit", model).expect("valid name");
    let server = Server::start(
        ServerConfig {
            policy: BatchPolicy {
                max_batch: 32,
                // Above the largest arm: 1024 clients with one request in flight
                // each can fill a 1024-deep queue exactly, and a refusal there
                // would read as a dropped reply.
                queue_capacity: 4096,
            },
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("boot server");
    let addr = server.local_addr();

    // Every arm must be clean, c = 64 included (a larger arm cannot be "no worse"
    // than a bad baseline); the first one also settles the worker workspaces
    // before the RSS baseline is read.
    assert_eq!(drive(addr, 64, &images, &expected), (0, 0), "c=64");
    let baseline = rss_kib();
    for concurrency in [256, 1024] {
        assert_eq!(
            drive(addr, concurrency, &images, &expected),
            (0, 0),
            "c={concurrency}: (unanswered, incorrect) replies"
        );
        if let (Some(baseline), Some(after)) = (baseline, rss_kib()) {
            assert!(
                after <= baseline + RSS_ALLOWANCE_KIB,
                "RSS not flat at c={concurrency}: {after} KiB vs {baseline} KiB before the arms"
            );
        }
    }
    let completed = server.metrics().completed.load(Ordering::Relaxed);
    server.shutdown();
    assert_eq!(completed, ((64 + 256 + 1024) * PER_CLIENT) as u64);
}
