//! ISAAC: the ReRAM crossbar CNN accelerator comparison point (Table IV).
//!
//! The paper compares CORUSCANT to ISAAC (Shafiee et al., ISCA'16) at the
//! headline-number granularity: frames per second on AlexNet and LeNet-5
//! full-precision inference. Those two numbers are carried here as the
//! analytic model, together with a throughput-per-network scaling helper
//! for other workloads (ISAAC's crossbars are compute-bound, so FPS
//! scales inversely with multiply-accumulate count).

use serde::{Deserialize, Serialize};

/// AlexNet inference throughput reported for ISAAC in the paper's
/// Table IV (frames per second).
pub(crate) const ALEXNET_FPS: f64 = 34.0;

/// LeNet-5 inference throughput reported for ISAAC (frames per second).
pub(crate) const LENET_FPS: f64 = 2581.0;

/// Approximate multiply-accumulate count of AlexNet inference.
pub(crate) const ALEXNET_MACS: f64 = 724e6;

/// The ISAAC throughput model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Isaac {
    /// Sustained MAC throughput implied by the AlexNet headline number.
    macs_per_second: f64,
}

impl Isaac {
    /// The model anchored to the paper's AlexNet figure.
    pub fn paper() -> Isaac {
        Isaac {
            macs_per_second: ALEXNET_FPS * ALEXNET_MACS,
        }
    }

    /// Estimated FPS for a network of `macs` multiply-accumulates per
    /// frame.
    pub fn fps(&self, macs: f64) -> f64 {
        self.macs_per_second / macs
    }

    /// The reported Table IV FPS for the two evaluated networks.
    pub fn reported_fps(network: &str) -> Option<f64> {
        match network {
            "alexnet" => Some(ALEXNET_FPS),
            "lenet5" => Some(LENET_FPS),
            _ => None,
        }
    }
}

impl Default for Isaac {
    fn default() -> Self {
        Isaac::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchored_to_alexnet() {
        let i = Isaac::paper();
        assert!((i.fps(ALEXNET_MACS) - ALEXNET_FPS).abs() < 1e-6);
    }

    #[test]
    fn fps_scales_inversely_with_macs() {
        let i = Isaac::paper();
        assert!((i.fps(ALEXNET_MACS / 2.0) - 2.0 * ALEXNET_FPS).abs() < 1e-6);
    }

    #[test]
    fn reported_numbers() {
        assert_eq!(Isaac::reported_fps("alexnet"), Some(34.0));
        assert_eq!(Isaac::reported_fps("lenet5"), Some(2581.0));
        assert_eq!(Isaac::reported_fps("vgg"), None);
    }
}
