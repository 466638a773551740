//! The site role of a distributed-streaming protocol.

/// A protocol participant observing one of the `m` local streams.
///
/// A site reacts to two stimuli: arrivals from its local stream
/// ([`Site::observe`] for one, [`Site::observe_batch`] for many) and a
/// broadcast from the coordinator ([`Site::on_broadcast`]). Any messages
/// for the coordinator are pushed into the `out` buffer — a buffer rather
/// than a return value so the hot path allocates nothing when (as almost
/// always) there is nothing to send.
///
/// # Example
///
/// A site that accumulates weight and reports whenever the pending total
/// reaches a broadcast-refreshed threshold:
///
/// ```
/// use cma_stream::Site;
///
/// struct ThresholdSite {
///     pending: f64,
///     threshold: f64,
/// }
///
/// impl Site for ThresholdSite {
///     type Input = f64;     // one weighted arrival
///     type UpMsg = f64;     // the reported batch of weight
///     type Broadcast = f64; // a refreshed threshold
///
///     fn observe(&mut self, w: f64, out: &mut Vec<f64>) {
///         self.pending += w;
///         if self.pending >= self.threshold {
///             out.push(self.pending);
///             self.pending = 0.0;
///         }
///     }
///
///     fn on_broadcast(&mut self, t: &f64) {
///         self.threshold = *t;
///     }
/// }
///
/// let mut site = ThresholdSite { pending: 0.0, threshold: 4.0 };
/// let mut out = Vec::new();
/// // The default observe_batch loops observe() and pauses at the first
/// // message: it stops after the 4th arrival with 4.0 reported.
/// let mut arrivals = vec![1.0; 10].into_iter();
/// site.observe_batch(&mut arrivals, &mut out);
/// assert_eq!(out, vec![4.0]);
/// assert_eq!(arrivals.len(), 6); // the rest await resumption
/// ```
pub trait Site {
    /// One arrival from the local stream (a weighted item, a matrix
    /// row, …).
    type Input;
    /// Message type sent up to the coordinator.
    type UpMsg;
    /// Broadcast type received from the coordinator.
    type Broadcast;

    /// Processes one arrival, pushing any resulting messages for the
    /// coordinator onto `out`.
    fn observe(&mut self, input: Self::Input, out: &mut Vec<Self::UpMsg>);

    /// Processes arrivals from `inputs` until the iterator is exhausted
    /// **or** at least one message has been pushed onto `out` — the
    /// batch-first entry point of the execution substrate.
    ///
    /// # Contract
    ///
    /// * The site consumes arrivals strictly in iterator order.
    /// * The site may return **before** exhausting `inputs`, but only
    ///   when `out` is non-empty; conversely, a return without any
    ///   message pushed means the iterator is exhausted. This is the one
    ///   rule drivers rely on to know when a batch is done.
    /// * The discipline every protocol implements is *pause-on-message*:
    ///   stop at the first arrival that produces messages and produce
    ///   exactly the messages repeated [`Site::observe`] calls would.
    ///   The driver then routes the pending messages (and delivers any
    ///   broadcasts they trigger) before resuming the site on the
    ///   remaining iterator, so batched execution is observably
    ///   identical to per-item execution — same messages, same
    ///   [`crate::CommStats`] — at every batch size.
    ///
    /// Between messages — the overwhelmingly common case, since the
    /// protocols' whole point is sublinear communication — the site runs
    /// one tight loop over the batch with no per-item driver round-trip.
    /// Protocols override this method when the math allows a genuinely
    /// faster batched step (hoisted threshold computation, fused sampler
    /// loops); the default simply loops over [`Site::observe`], pausing
    /// at the first message.
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = Self::Input>,
        out: &mut Vec<Self::UpMsg>,
    ) where
        Self: Sized,
    {
        for input in inputs {
            self.observe(input, out);
            if !out.is_empty() {
                return;
            }
        }
    }

    /// Applies a coordinator broadcast (typically a refreshed global
    /// threshold such as `Ŵ`, `F̂` or `τ`).
    fn on_broadcast(&mut self, broadcast: &Self::Broadcast);
}
