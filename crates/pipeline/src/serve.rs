//! End-to-end CNN serving over the async server frontend: pin a
//! [`Pipeline`]'s residencies once, then submit per-request job chains
//! and stream decoded logits.
//!
//! ```text
//! Server::start ── client() ── ServingSession::pin(pipeline)
//!                                   │ one Client::pin_resident per layer
//!                                   ▼
//!               session.submit(image) ─► Client::submit_pipeline (one
//!                                   │     admission decision per request)
//!                                   ▼
//!               InferenceHandle::wait ─► logits (bit-identical to
//!                                        coruscant_nn::infer::run_pim)
//! ```

use crate::{Pipeline, PipelineError, LANE};
use coruscant_nn::tensor::Tensor3;
use coruscant_runtime::ResidentPin;
use coruscant_server::Completion;
use coruscant_server::{Client, JobHandle, Priority, Rejected, ResultStream, ServeError};
use std::sync::Arc;

/// Why a serving-session operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// The server refused the submission.
    Rejected(Rejected),
    /// The pipeline could not lower the request.
    Pipeline(PipelineError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Rejected(r) => write!(f, "rejected: {r}"),
            SessionError::Pipeline(e) => write!(f, "pipeline: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<Rejected> for SessionError {
    fn from(r: Rejected) -> SessionError {
        SessionError::Rejected(r)
    }
}

impl From<PipelineError> for SessionError {
    fn from(e: PipelineError) -> SessionError {
        SessionError::Pipeline(e)
    }
}

/// A pinned pipeline bound to a server client: residencies live on
/// their units for the session's lifetime, and every request reuses
/// them — the model loads once, requests carry only activations.
pub struct ServingSession {
    pipeline: Arc<Pipeline>,
    client: Client,
    pins: Vec<ResidentPin>,
}

impl ServingSession {
    /// Pins `pipeline`'s per-layer residencies through `client` (layer
    /// `i` on unit [`Pipeline::unit_for`]`(i)`) and returns the live
    /// session. The pin jobs are queued ahead of any request chain, so
    /// requests may be submitted immediately.
    ///
    /// # Errors
    ///
    /// [`SessionError::Rejected`] when the server refuses a pin.
    pub fn pin(client: Client, pipeline: Pipeline) -> Result<ServingSession, SessionError> {
        let mut pins = Vec::with_capacity(pipeline.net().layers.len());
        for (li, program) in pipeline.pin_programs().into_iter().enumerate() {
            let (pin, _handle) = client.pin_resident(program, pipeline.unit_for(li))?;
            pins.push(pin);
        }
        Ok(ServingSession {
            pipeline: Arc::new(pipeline),
            client,
            pins,
        })
    }

    /// The pipeline being served.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The per-layer residency receipts, in layer order.
    pub fn pins(&self) -> &[ResidentPin] {
        &self.pins
    }

    /// Submits one inference request: lowers the image into a
    /// dependency chain and hands it to the server under one admission
    /// decision. The returned handle resolves to decoded logits.
    ///
    /// # Errors
    ///
    /// [`SessionError`] when lowering fails or the server sheds the
    /// request.
    pub fn submit(
        &self,
        image: &Tensor3,
        priority: Priority,
    ) -> Result<InferenceHandle, SessionError> {
        let chain = self.pipeline.lower(image, &self.pins)?;
        let handles = self.client.submit_pipeline(chain, priority)?;
        Ok(InferenceHandle {
            pipeline: Arc::clone(&self.pipeline),
            handles,
        })
    }

    /// Submits a batch of requests (one chain each) and returns their
    /// handles in input order. Chains on the same layer units batch in
    /// the runtime's bank FIFOs like any other jobs.
    ///
    /// # Errors
    ///
    /// Fails on the first rejected request; earlier chains stay
    /// submitted (their handles are dropped and resolve at drain).
    pub fn submit_batch(
        &self,
        images: &[Tensor3],
        priority: Priority,
    ) -> Result<Vec<InferenceHandle>, SessionError> {
        images
            .iter()
            .map(|img| self.submit(img, priority))
            .collect()
    }

    /// Submits a batch and returns a stream over each request's *final*
    /// chain member, yielding in input order (the pipeline analogue of
    /// [`Client::submit_stream`]). Decode each completion's outputs
    /// with [`Pipeline::decode_logits`], or use
    /// [`InferenceStream`] for decoded logits.
    ///
    /// # Errors
    ///
    /// Fails on the first rejected request, like
    /// [`ServingSession::submit_batch`].
    pub fn stream_batch(
        &self,
        images: &[Tensor3],
        priority: Priority,
    ) -> Result<InferenceStream, SessionError> {
        let tails = self
            .submit_batch(images, priority)?
            .into_iter()
            .map(|h| {
                let mut handles = h.handles;
                handles.pop().expect("chains are non-empty")
            })
            .collect();
        Ok(InferenceStream {
            pipeline: Arc::clone(&self.pipeline),
            stream: ResultStream::new(tails),
        })
    }
}

/// One in-flight inference request: the handles of its chain members,
/// resolved to logits by [`InferenceHandle::wait`].
pub struct InferenceHandle {
    pipeline: Arc<Pipeline>,
    handles: Vec<JobHandle>,
}

impl InferenceHandle {
    /// Blocks until the final layer resolves and decodes its readouts
    /// into logits.
    ///
    /// # Errors
    ///
    /// The final member's [`ServeError`] (a dropped predecessor
    /// cascades: the final member reports [`ServeError::Cancelled`]),
    /// or a decode mismatch mapped through
    /// [`SessionError::Pipeline`].
    pub fn wait(self) -> Result<Vec<u64>, SessionError> {
        let last = self
            .handles
            .into_iter()
            .next_back()
            .expect("chains are non-empty");
        let done = last.wait().map_err(|e| {
            SessionError::Rejected(match e {
                ServeError::Rejected(r) => r,
                // Map terminal serve errors onto the closest rejection
                // kind a caller can act on; the typed completion is
                // available via the raw chain handles when needed.
                _ => Rejected::Closed,
            })
        })?;
        Ok(self.pipeline.decode_logits(&done.outputs)?)
    }
}

/// Streaming decoded logits for a batch, in input order.
pub struct InferenceStream {
    pipeline: Arc<Pipeline>,
    stream: ResultStream,
}

impl InferenceStream {
    /// Requests not yet yielded.
    pub fn remaining(&self) -> usize {
        self.stream.remaining()
    }

    /// Blocks until the next request (in input order) resolves; `None`
    /// once the batch is exhausted. Completions decode to logits;
    /// failed requests pass their [`Completion`] error through.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<Vec<u64>, ServeError>> {
        let completion: Completion = self.stream.next()?;
        Some(match completion {
            Ok(done) => self
                .pipeline
                .decode_logits(&done.outputs)
                .map_err(|_| ServeError::Lost),
            Err(e) => Err(e),
        })
    }
}

impl Iterator for InferenceStream {
    type Item = Result<Vec<u64>, ServeError>;

    fn next(&mut self) -> Option<Self::Item> {
        InferenceStream::next(self)
    }
}

/// Lane width re-export sanity: sessions and the lowering agree on the
/// 16-bit lane contract.
const _: () = assert!(LANE == 16);
