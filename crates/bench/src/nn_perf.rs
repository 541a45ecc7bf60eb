//! CNN serving throughput: frames per second for the LeNet-5/AlexNet
//! proxies at every precision, served end-to-end through the
//! compiler → runtime → server stack by `coruscant_pipeline`.
//!
//! Each point pins the model's weights resident once, then serves a
//! fixed frame count two ways: a **single** arm (submit one request,
//! wait, repeat — per-request latency) and a **batched** arm (submit
//! the whole batch, then drain — cross-request interleaving across
//! banks). FPS is reported against both host wall time and the modeled
//! device makespan. Every decoded logit vector is checked against the
//! standalone [`coruscant_nn::infer::run_pim`] engine, so the bench
//! doubles as an exactness smoke test.

use coruscant_mem::MemoryConfig;
use coruscant_nn::infer::{proxy_alexnet, proxy_lenet5, run_pim, synth_image, synth_weights};
use coruscant_nn::models::Network;
use coruscant_nn::quant::Precision;
use coruscant_nn::tensor::Tensor3;
use coruscant_pipeline::serve::ServingSession;
use coruscant_pipeline::Pipeline;
use coruscant_server::{Priority, Server, ServerOptions};
use serde::Serialize;
use std::time::Instant;

/// One model × precision × arm measurement.
#[derive(Debug, Clone, Serialize)]
pub struct NnPoint {
    /// Network name (`lenet5-proxy`, `alexnet-proxy`).
    pub model: String,
    /// Weight precision served.
    pub precision: Precision,
    /// `single` (submit→wait serially) or `batched` (submit all, drain).
    pub arm: String,
    /// Frames served.
    pub frames: usize,
    /// Per-layer jobs the runtime completed (pins included).
    pub jobs_completed: u64,
    /// Host wall time for the whole arm, milliseconds.
    pub wall_ms: f64,
    /// Frames per second of host wall time.
    pub fps_wall: f64,
    /// Modeled device makespan (all banks drained), milliseconds.
    pub modeled_ms: f64,
    /// Frames per second of modeled device time.
    pub fps_modeled: f64,
}

/// The full `BENCH_nn.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct NnBench {
    /// Banks in the benched geometry.
    pub banks: usize,
    /// Tiles (pipeline hosting units) in the benched geometry.
    pub tiles: usize,
    /// Frames served per point.
    pub frames: usize,
    /// Cores the measuring host offered: `fps_wall` depends on it.
    pub host_cores: usize,
    /// Every model × precision × arm point.
    pub points: Vec<NnPoint>,
}

/// Serves `images` through a fresh pinned session, waiting according to
/// `batched`, and returns the measured point.
///
/// # Panics
///
/// Panics if the pipeline or server fails to come up, or if any served
/// logit vector differs from the standalone engine — the bench is also
/// an exactness gate.
#[must_use]
pub fn run_point(
    config: &MemoryConfig,
    net: &Network,
    precision: Precision,
    images: &[Tensor3],
    batched: bool,
) -> NnPoint {
    let weights = synth_weights(net, precision, 3);
    let expected: Vec<Vec<u64>> = images
        .iter()
        .map(|img| run_pim(config, net, &weights, img).expect("standalone engine runs"))
        .collect();
    let pipeline =
        Pipeline::new(config, net.clone(), weights, 0).expect("pipeline builds on this geometry");
    let server = Server::start(config.clone(), ServerOptions::default()).expect("server starts");
    let session = ServingSession::pin(server.client(), pipeline).expect("residencies pin");

    let started = Instant::now();
    let served: Vec<Vec<u64>> = if batched {
        let handles = session
            .submit_batch(images, Priority::Normal)
            .expect("batch admitted");
        handles
            .into_iter()
            .map(|h| h.wait().expect("request completes"))
            .collect()
    } else {
        images
            .iter()
            .map(|img| {
                session
                    .submit(img, Priority::Normal)
                    .expect("request admitted")
                    .wait()
                    .expect("request completes")
            })
            .collect()
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    assert_eq!(served, expected, "served logits must equal nn::pim_exec");
    let stats = server.shutdown().expect("server drains");
    assert!(stats.balanced(), "bench accounting must balance: {stats:?}");

    let modeled_ms = stats.runtime.makespan_cycles as f64 * config.memory_cycle_ns / 1e6;
    let frames = images.len();
    NnPoint {
        model: net.name.clone(),
        precision,
        arm: if batched { "batched" } else { "single" }.into(),
        frames,
        jobs_completed: stats.runtime.jobs,
        wall_ms,
        fps_wall: frames as f64 / (wall_ms / 1e3),
        modeled_ms,
        fps_modeled: if modeled_ms > 0.0 {
            frames as f64 / (modeled_ms / 1e3)
        } else {
            0.0
        },
    }
}

/// Runs the whole harness: {LeNet-5, AlexNet} × {Full, BWN, TWN} ×
/// {single, batched}.
///
/// # Panics
///
/// As [`run_point`].
#[must_use]
pub fn run_full(config: &MemoryConfig, frames: usize) -> NnBench {
    let models: [fn() -> Network; 2] = [proxy_lenet5, proxy_alexnet];
    let precisions = [Precision::Full, Precision::Bwn, Precision::Twn];
    let mut points = Vec::new();
    for model in models {
        let net = model();
        let images: Vec<Tensor3> = (0..frames)
            .map(|s| synth_image(&net, 7 + s as u64))
            .collect();
        for precision in precisions {
            for batched in [false, true] {
                points.push(run_point(config, &net, precision, &images, batched));
            }
        }
    }
    NnBench {
        banks: config.banks,
        tiles: config.banks * config.subarrays_per_bank * config.tiles_per_subarray,
        frames,
        host_cores: crate::runtime_perf::host_cores(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sixteen-tile geometry: every AlexNet-proxy layer gets a unit.
    fn serving_config() -> MemoryConfig {
        MemoryConfig {
            banks: 4,
            subarrays_per_bank: 2,
            tiles_per_subarray: 2,
            dbcs_per_tile: 4,
            pim_dbcs_per_tile: 1,
            nanowires_per_dbc: 64,
            rows_per_dbc: 32,
            trd: 7,
            bus_mhz: 1000,
            memory_cycle_ns: 1.25,
        }
    }

    /// One small point per arm: the harness measures, balances, and the
    /// batched arm completes the same frames as the single arm.
    #[test]
    fn harness_smoke() {
        let config = serving_config();
        let net = proxy_lenet5();
        let images: Vec<Tensor3> = (0..2).map(|s| synth_image(&net, 7 + s)).collect();
        for batched in [false, true] {
            let point = run_point(&config, &net, Precision::Twn, &images, batched);
            assert_eq!(point.frames, 2);
            assert!(point.fps_wall > 0.0);
            assert!(point.modeled_ms > 0.0);
            assert!(point.jobs_completed >= 2 * net.layers.len() as u64);
        }
    }
}
