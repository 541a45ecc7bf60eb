//! Dependency-aware multi-job CNN inference pipelines (paper §V-C +
//! §V-E, composed): a [`Pipeline`] lowers a [`Network`] into a DAG of
//! per-layer [`ChainJob`]s with explicit data dependencies, plus a
//! residency plan that pins each layer's request-independent weight
//! rows into its assigned PIM unit's storage DBCs *once* and reuses
//! them across requests.
//!
//! The shape of a served inference:
//!
//! 1. **Pin** — one resident pin per layer
//!    ([`Pipeline::pin_programs`] → [`Runtime::pin_resident`] or
//!    [`Client::pin_resident`]), layer `i` on unit `base + i`. Pins
//!    survive requests; quarantine re-materializes them on a healthy
//!    unit before any dependent job re-places.
//! 2. **Lower** — per request, [`Pipeline::lower`] emits one chain:
//!    layer 0 is [`ProgramSource::Ready`] (built from the input image),
//!    every later layer is [`ProgramSource::Deferred`] on its
//!    predecessor — its binder decodes the predecessor's readouts,
//!    applies the host post-op (requantization, BWN count mapping), and
//!    builds the layer's program. Placement is
//!    [`Placement::Resident`], so jobs follow their weights even across
//!    re-materialization, and the chain never consults the automatic
//!    placement cursor — reports are bit-identical across shard counts.
//! 3. **Serve** — [`serve::ServingSession`] drives the same flow
//!    through the async server frontend ([`Client::submit_pipeline`]),
//!    one admission decision per request, streaming batched results.
//!
//! Numeric contract: every lowered program computes the same function
//! as [`coruscant_nn::infer::run_pim`] — exact integer lane math, so
//! pipeline-served logits are bit-identical to the standalone engine
//! (`tests/nn_serving.rs` at the workspace root proves it, including
//! under fault injection with re-execute protection).
//!
//! [`Runtime::pin_resident`]: coruscant_runtime::Runtime::pin_resident
//! [`Client::pin_resident`]: coruscant_server::Client::pin_resident
//! [`Client::submit_pipeline`]: coruscant_server::Client::submit_pipeline
//! [`ProgramSource::Ready`]: coruscant_runtime::ProgramSource::Ready
//! [`ProgramSource::Deferred`]: coruscant_runtime::ProgramSource::Deferred
//! [`Placement::Resident`]: coruscant_runtime::Placement::Resident

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod lower;
pub mod serve;

use coruscant_core::program::PimProgram;
use coruscant_mem::MemoryConfig;
use coruscant_nn::infer::ModelWeights;
use coruscant_nn::layers::Layer;
use coruscant_nn::models::Network;
use coruscant_nn::quant::Precision;
use coruscant_nn::tensor::Tensor3;
use coruscant_runtime::{ChainJob, Placement, ProgramSource, ResidentPin};
use std::fmt;

pub use lower::LANE;
use lower::{ActData, Geom, Residency};

/// Why a pipeline could not be constructed or lowered.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// Weights do not align with the network's layers.
    Misaligned {
        /// Index of the first misaligned layer.
        layer: usize,
    },
    /// More layers than distinct tiles to host them.
    TooManyTiles {
        /// Layers needing a unit.
        layers: usize,
        /// Distinct tiles available from the base unit.
        tiles: usize,
    },
    /// A layer's resident weight rows overflow its tile's storage DBCs.
    Capacity {
        /// The overflowing layer.
        layer: usize,
        /// Slots the residency plan needs.
        needed: usize,
        /// Slots one tile offers.
        available: usize,
    },
    /// The geometry cannot host the lowering (lane width, scratch rows,
    /// pool gather width…).
    Geometry(String),
    /// `lower` was handed a pin set that does not match the layers.
    PinMismatch {
        /// Pins expected (one per layer).
        expected: usize,
        /// Pins supplied.
        got: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Misaligned { layer } => {
                write!(f, "weights misaligned with layer {layer}")
            }
            PipelineError::TooManyTiles { layers, tiles } => {
                write!(f, "{layers} layers but only {tiles} distinct tiles to pin them on")
            }
            PipelineError::Capacity {
                layer,
                needed,
                available,
            } => write!(
                f,
                "layer {layer} needs {needed} resident rows; a tile's storage DBCs offer {available}"
            ),
            PipelineError::Geometry(msg) => write!(f, "geometry: {msg}"),
            PipelineError::PinMismatch { expected, got } => {
                write!(f, "expected {expected} resident pins (one per layer), got {got}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// A compiled inference pipeline: one network + weights bound to a
/// memory geometry and a base unit, ready to pin residencies and lower
/// per-request job chains.
pub struct Pipeline {
    net: Network,
    weights: ModelWeights,
    geom: Geom,
    residencies: Vec<Residency>,
    base_unit: usize,
}

impl Pipeline {
    /// Builds a pipeline, validating that the geometry can host it: one
    /// distinct tile per layer starting at `base_unit`, every layer's
    /// residency within a tile's storage rows, pool windows within the
    /// TR gather width, and enough rows for the scratch discipline.
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] describing the first violated constraint.
    pub fn new(
        config: &MemoryConfig,
        net: Network,
        weights: ModelWeights,
        base_unit: usize,
    ) -> Result<Pipeline, PipelineError> {
        if !config.nanowires_per_dbc.is_multiple_of(LANE) || config.nanowires_per_dbc < LANE {
            return Err(PipelineError::Geometry(format!(
                "nanowires_per_dbc {} is not a multiple of the {LANE}-bit lane",
                config.nanowires_per_dbc
            )));
        }
        if config.rows_per_dbc < 22 {
            return Err(PipelineError::Geometry(format!(
                "rows_per_dbc {} < 22: the lowering's persistent rows do not fit",
                config.rows_per_dbc
            )));
        }
        if config.dbcs_per_tile <= config.pim_dbcs_per_tile {
            return Err(PipelineError::Geometry(
                "no storage DBCs in the tile to hold resident weights".into(),
            ));
        }
        let storage_dbcs = config.dbcs_per_tile - config.pim_dbcs_per_tile;
        let geom = Geom {
            lanes: config.nanowires_per_dbc / LANE,
            rows_per_dbc: config.rows_per_dbc,
            storage_base: config.pim_dbcs_per_tile,
            storage_slots: storage_dbcs * config.rows_per_dbc - 1,
            trd: config.trd,
        };
        if weights.layers.len() != net.layers.len() {
            return Err(PipelineError::Misaligned {
                layer: weights.layers.len().min(net.layers.len()),
            });
        }
        let tiles = config.banks * config.subarrays_per_bank * config.tiles_per_subarray;
        if base_unit + net.layers.len() > tiles {
            return Err(PipelineError::TooManyTiles {
                layers: net.layers.len(),
                tiles: tiles.saturating_sub(base_unit),
            });
        }
        let mut residencies = Vec::with_capacity(net.layers.len());
        for (li, (layer, lw)) in net.layers.iter().zip(&weights.layers).enumerate() {
            if !aligned(layer, lw) {
                return Err(PipelineError::Misaligned { layer: li });
            }
            if let Layer::MaxPool { window, .. } = layer {
                let k = window * window;
                if k > geom.max_gather() {
                    return Err(PipelineError::Geometry(format!(
                        "layer {li}: pool window {window}×{window} needs {k} operands; \
                         TRD {} allows {}",
                        geom.trd,
                        geom.max_gather()
                    )));
                }
            }
            let residency = lower::plan_residency(layer, lw, weights.precision);
            let needed = residency.slots();
            if needed > geom.storage_slots {
                return Err(PipelineError::Capacity {
                    layer: li,
                    needed,
                    available: geom.storage_slots,
                });
            }
            residencies.push(residency);
        }
        Ok(Pipeline {
            net,
            weights,
            geom,
            residencies,
            base_unit,
        })
    }

    /// The network being served.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The precision the pipeline's weights were synthesized for.
    pub fn precision(&self) -> Precision {
        self.weights.precision
    }

    /// The PIM unit hosting layer `li`'s residency and jobs.
    pub fn unit_for(&self, li: usize) -> usize {
        self.base_unit + li
    }

    /// Resident rows pinned across all layers (descriptor sentinels
    /// excluded).
    pub fn resident_rows(&self) -> usize {
        self.residencies.iter().map(Residency::slots).sum()
    }

    /// One pin program per layer, aligned with the network's layers.
    /// Run each on [`Pipeline::unit_for`]`(i)` via `pin_resident`; the
    /// returned [`ResidentPin`]s feed [`Pipeline::lower`]. Weightless
    /// layers pin a descriptor sentinel so every layer follows the same
    /// quarantine re-materialization contract.
    pub fn pin_programs(&self) -> Vec<PimProgram> {
        self.residencies
            .iter()
            .enumerate()
            .map(|(li, r)| lower::pin_program(&self.geom, li, r))
            .collect()
    }

    /// Lowers one inference request into a dependency chain: one job
    /// per layer, layer 0 built eagerly from `image`, each later layer
    /// deferred on its predecessor with a binder that decodes the
    /// predecessor's readouts (applying the host post-op) and builds
    /// the layer's program. Submit with
    /// [`Runtime::submit_chain`](coruscant_runtime::Runtime::submit_chain)
    /// or [`Client::submit_pipeline`](coruscant_server::Client::submit_pipeline);
    /// decode the final member's outputs with [`Pipeline::decode_logits`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::PinMismatch`] unless `pins` has one entry per
    /// layer (in layer order), or a lowering error for layer 0.
    pub fn lower(
        &self,
        image: &Tensor3,
        pins: &[ResidentPin],
    ) -> Result<Vec<ChainJob>, PipelineError> {
        if pins.len() != self.net.layers.len() {
            return Err(PipelineError::PinMismatch {
                expected: self.net.layers.len(),
                got: pins.len(),
            });
        }
        let precision = self.weights.precision;
        let mut chain = Vec::with_capacity(self.net.layers.len());
        let first = lower::build_layer_program(
            &self.geom,
            0,
            &self.net.layers[0],
            &self.weights.layers[0],
            precision,
            &ActData::Map(image.clone()),
        )
        .map_err(PipelineError::Geometry)?;
        chain.push(ChainJob {
            source: ProgramSource::Ready(first),
            placement: Placement::Resident(pins[0].res),
            after: vec![],
        });
        for (li, pin) in pins.iter().enumerate().skip(1) {
            let geom = self.geom.clone();
            let prev_layer = self.net.layers[li - 1].clone();
            let layer = self.net.layers[li].clone();
            let lw = self.weights.layers[li].clone();
            chain.push(ChainJob {
                source: ProgramSource::Deferred {
                    deps: vec![li - 1],
                    build: Box::new(move |deps| {
                        let acts = lower::decode_layer_outputs(
                            &geom,
                            &prev_layer,
                            precision,
                            false,
                            &deps[0],
                        )?;
                        lower::build_layer_program(&geom, li, &layer, &lw, precision, &acts)
                    }),
                },
                placement: Placement::Resident(pin.res),
                after: vec![],
            });
        }
        Ok(chain)
    }

    /// Decodes the final chain member's labeled readouts into logits —
    /// the same values [`coruscant_nn::infer::run_pim`] returns (final
    /// FC layers keep raw post-ReLU logits; a trailing conv or pool
    /// layer gets its usual post-op before flattening).
    ///
    /// # Errors
    ///
    /// A description of the mismatch when the readouts do not cover the
    /// final layer's outputs.
    pub fn decode_logits(&self, outputs: &[(String, Vec<u64>)]) -> Result<Vec<u64>, PipelineError> {
        let last = self.net.layers.len() - 1;
        let acts = lower::decode_layer_outputs(
            &self.geom,
            &self.net.layers[last],
            self.weights.precision,
            true,
            outputs,
        )
        .map_err(PipelineError::Geometry)?;
        Ok(match acts {
            ActData::Flat(v) => v,
            ActData::Map(t) => t.as_slice().iter().map(|&v| v as u64).collect(),
        })
    }
}

/// Whether a layer and its weights entry are the same kind.
fn aligned(layer: &Layer, weights: &coruscant_nn::infer::LayerWeights) -> bool {
    use coruscant_nn::infer::LayerWeights;
    matches!(
        (layer, weights),
        (Layer::Conv { .. }, LayerWeights::Conv(_))
            | (Layer::MaxPool { .. }, LayerWeights::None)
            | (Layer::Fc { .. }, LayerWeights::Fc(_))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_nn::infer::{proxy_lenet5, synth_weights};

    fn tiny() -> MemoryConfig {
        MemoryConfig::tiny()
    }

    fn lenet(precision: Precision) -> (Network, ModelWeights) {
        let net = proxy_lenet5();
        let w = synth_weights(&net, precision, 3);
        (net, w)
    }

    #[test]
    fn pipeline_validates_tile_budget() {
        let (net, w) = lenet(Precision::Twn);
        let layers = net.layers.len();
        // tiny(): 2 banks × 2 subarrays × 2 tiles = 8 tiles ≥ 4 layers.
        assert!(Pipeline::new(&tiny(), net.clone(), w.clone(), 0).is_ok());
        let err = Pipeline::new(&tiny(), net, w, 6).err().unwrap();
        assert_eq!(err, PipelineError::TooManyTiles { layers, tiles: 2 });
    }

    #[test]
    fn pipeline_rejects_misaligned_weights() {
        let (net, _) = lenet(Precision::Twn);
        let (other, w) = {
            let n = coruscant_nn::infer::proxy_alexnet();
            let w = synth_weights(&n, Precision::Twn, 3);
            (n, w)
        };
        assert!(matches!(
            Pipeline::new(&tiny(), net, w, 0),
            Err(PipelineError::Misaligned { .. })
        ));
        drop(other);
    }

    #[test]
    fn residency_counts_follow_precision() {
        let (net, full) = lenet(Precision::Full);
        let p_full = Pipeline::new(&tiny(), net.clone(), full, 0).unwrap();
        // Full pins one row per non-zero conv tap; the proxy's c1 layer
        // has 2 filters × ≤9 taps.
        assert!(p_full.resident_rows() > 0 && p_full.resident_rows() <= 18);

        let (net, bwn) = lenet(Precision::Bwn);
        let p_bwn = Pipeline::new(&tiny(), net.clone(), bwn, 0).unwrap();
        // BWN pins every tap plus the mask: 2 × 9 + 1.
        assert_eq!(p_bwn.resident_rows(), 19);

        let (net, twn) = lenet(Precision::Twn);
        let p_twn = Pipeline::new(&tiny(), net, twn, 0).unwrap();
        // TWN embeds its sign gathers in the per-request programs.
        assert_eq!(p_twn.resident_rows(), 0);
    }

    #[test]
    fn pin_programs_cover_every_layer_and_end_in_a_sentinel() {
        let (net, w) = lenet(Precision::Full);
        let layers = net.layers.len();
        let p = Pipeline::new(&tiny(), net, w, 0).unwrap();
        let pins = p.pin_programs();
        assert_eq!(pins.len(), layers);
        for prog in &pins {
            let Some(coruscant_core::program::Step::Readout { label, .. }) = prog.steps.last()
            else {
                panic!("pin programs end with a sentinel readout");
            };
            assert!(label.starts_with("resident:"));
        }
    }

    #[test]
    fn lower_requires_one_pin_per_layer() {
        let (net, w) = lenet(Precision::Twn);
        let p = Pipeline::new(&tiny(), net.clone(), w, 0).unwrap();
        let image = coruscant_nn::infer::synth_image(&net, 1);
        let err = p.lower(&image, &[]).err().unwrap();
        assert_eq!(
            err,
            PipelineError::PinMismatch {
                expected: net.layers.len(),
                got: 0
            }
        );
    }
}
