//! The protocol interface: how per-node algorithms plug into the engine.
//!
//! A [`Protocol`] is the state machine one node runs. In every slot the
//! engine asks each node for an [`Action`] (broadcast on a local channel,
//! listen on a local channel, or sleep), resolves collisions globally, and
//! then hands each node a [`Feedback`] describing what that node observed.
//!
//! The model (paper §3) is faithfully encoded in the feedback rules:
//!
//! * a broadcaster only learns that it sent (it "receives" only its own
//!   message in that slot);
//! * a listener hears a message iff **exactly one** of its *neighbors*
//!   broadcast on the same (global) channel in that slot;
//! * zero broadcasters and ≥ 2 broadcasters are indistinguishable: both are
//!   [`Feedback::Silence`] (no collision detection).
//!
//! For schedule-driven protocols the engine also offers a *batched* act
//! path: [`Protocol::act_batch`] receives a contiguous slice of protocol
//! instances plus a [`BatchCtx`] holding their private RNG streams, and the
//! default implementation simply delegates to scalar [`Protocol::act`] per
//! node — so every implementation keeps working, and the ones that opt in
//! can amortize RNG state traffic through pre-filled word buffers
//! ([`BatchCtx::buffered`], backed by the stream-identical
//! [`rand::RngCore::fill_u64s`]). Whatever the path, the per-node draw
//! sequence must be identical: the engine's differential tests compare the
//! batched and scalar paths bit for bit.

use crate::ids::{LocalChannel, NodeId, Slot};
use rand::rngs::SmallRng;
use rand::{BufferedRng, RngCore};

/// Packed per-node slot outcomes, as produced by the engine's resolution
/// phase and consumed by feedback delivery ([`FeedbackBatch`]).
///
/// One `u32` per node per slot. Values below [`outcome::MIN_SENTINEL`] are
/// the *external id* of the unique neighbor whose broadcast the node
/// received (an index into the slot's action buffer); the topmost values
/// are sentinels for the non-delivery outcomes. The packing keeps the
/// per-node state at 4 bytes so the resolution sweep and the delivery
/// sweep both run over one dense `u32` array.
pub mod outcome {
    /// The node broadcast this slot.
    pub const SENT: u32 = u32::MAX;
    /// The node slept this slot.
    pub const SLEPT: u32 = u32::MAX - 1;
    /// The node listened and no neighbor broadcast on its channel.
    pub const IDLE: u32 = u32::MAX - 2;
    /// The node listened and ≥ 2 neighbors broadcast on its channel.
    pub const COLLISION: u32 = u32::MAX - 3;
    /// The node listened on a channel occupied by primary-user traffic.
    pub const PU_BUSY: u32 = u32::MAX - 4;
    /// Smallest sentinel value: every outcome `< MIN_SENTINEL` is a
    /// broadcaster id, i.e. an actual delivery.
    pub const MIN_SENTINEL: u32 = PU_BUSY;
}

/// What a node decides to do in one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Tune to local channel `channel` and transmit `message`.
    Broadcast {
        /// The node-local channel label to transmit on.
        channel: LocalChannel,
        /// The message payload.
        message: M,
    },
    /// Tune to local channel `channel` and listen.
    Listen {
        /// The node-local channel label to listen on.
        channel: LocalChannel,
    },
    /// Stay idle this slot (radio off).
    Sleep,
}

impl<M> Action<M> {
    /// The channel this action tunes to, if any.
    pub fn channel(&self) -> Option<LocalChannel> {
        match self {
            Action::Broadcast { channel, .. } | Action::Listen { channel } => Some(*channel),
            Action::Sleep => None,
        }
    }

    /// `true` if this action transmits.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Action::Broadcast { .. })
    }
}

/// What a node observed at the end of one slot.
///
/// A received message is handed out *by reference* into the broadcaster's
/// still-live action buffer: the engine never clones payloads. A protocol
/// that wants to keep a message beyond the `feedback` call clones it there —
/// a single clone per actual delivery, paid only by the consumer that needs
/// ownership (many don't: they extract a `Copy` field and drop the rest).
#[derive(Debug, PartialEq, Eq)]
pub enum Feedback<'a, M> {
    /// The node broadcast; it learns nothing else this slot.
    Sent,
    /// The node listened and exactly one neighbor broadcast on its channel.
    Heard(&'a M),
    /// The node listened and heard nothing — either no neighbor broadcast on
    /// the channel or at least two did (collision). The two cases are
    /// indistinguishable in this model.
    Silence,
    /// The node slept.
    Slept,
}

// Manual impls: `Feedback` is always `Copy` (it carries at most a shared
// reference), with no `M: Clone`/`M: Copy` bound as a derive would add.
impl<M> Clone for Feedback<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Feedback<'_, M> {}

impl<'a, M> Feedback<'a, M> {
    /// Returns the received message, if any.
    pub fn heard(self) -> Option<&'a M> {
        match self {
            Feedback::Heard(m) => Some(m),
            _ => None,
        }
    }
}

/// Per-slot context handed to protocols, carrying the global slot clock and
/// the node's private randomness stream.
///
/// The slot index is global knowledge (the model is synchronous with
/// simultaneous start), and each node can "independently generate random
/// bits" (paper §3) — hence one independent RNG per node.
///
/// Generic over the random source so a protocol's slot-planning code can be
/// written once and driven either by the node's raw [`SmallRng`] (the
/// scalar [`Protocol::act`] path — the default type parameter keeps that
/// signature unchanged) or by a [`BufferedRng`] façade over it (the batched
/// [`Protocol::act_batch`] path). Both produce the identical draw stream.
pub struct SlotCtx<'a, R: RngCore = SmallRng> {
    /// The current slot (identical at all nodes).
    pub slot: Slot,
    /// The node's private random stream for this execution.
    pub rng: &'a mut R,
}

/// Batch context for [`Protocol::act_batch`]: the slot clock plus the
/// private RNG streams of every node in the batch (index-aligned with the
/// protocol slice).
///
/// Constructed by the engine, which hands each phase-1 chunk — the whole
/// node range when the phase runs as one chunk, a contiguous sub-range
/// per thread otherwise — its own `BatchCtx`.
pub struct BatchCtx<'a> {
    slot: Slot,
    rngs: &'a mut [SmallRng],
}

impl<'a> BatchCtx<'a> {
    /// Builds a batch context over `rngs` (one stream per node in the
    /// batch, in batch order).
    pub fn new(slot: Slot, rngs: &'a mut [SmallRng]) -> BatchCtx<'a> {
        BatchCtx { slot, rngs }
    }

    /// The current slot (identical at all nodes).
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// Number of nodes in the batch.
    pub fn len(&self) -> usize {
        self.rngs.len()
    }

    /// `true` if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.rngs.is_empty()
    }

    /// The raw RNG stream of node `i` of the batch.
    pub fn rng(&mut self, i: usize) -> &mut SmallRng {
        &mut self.rngs[i]
    }

    /// A scalar [`SlotCtx`] for node `i` — the escape hatch the default
    /// [`Protocol::act_batch`] uses to delegate to [`Protocol::act`].
    pub fn slot_ctx(&mut self, i: usize) -> SlotCtx<'_> {
        SlotCtx { slot: self.slot, rng: &mut self.rngs[i] }
    }

    /// A buffered view of node `i`'s stream with `reserve` words pre-drawn
    /// in one bulk [`rand::RngCore::fill_u64s`] call (capped at the
    /// façade's inline capacity). `reserve` must be a *lower bound* on the
    /// words the caller will actually draw (draws past the prefill fall
    /// through to the raw stream); the resulting draw sequence is
    /// bit-identical to using [`BatchCtx::rng`] directly.
    pub fn buffered(&mut self, i: usize, reserve: usize) -> BufferedRng<'_, SmallRng> {
        BufferedRng::with_reserve(&mut self.rngs[i], reserve)
    }
}

/// The slot's resolved outcomes for a contiguous batch of nodes, handed to
/// [`Protocol::feedback_batch`] — the delivery-side mirror of [`BatchCtx`].
///
/// Wraps the engine's packed `u32` [`outcome`] array (index-aligned with
/// the protocol batch) and the *full* slot action buffer, so a delivery
/// outcome decodes to [`Feedback::Heard`] borrowing the broadcaster's
/// message in place — zero clones, same as the scalar path. The outcome
/// slice covers only this batch's node range; broadcaster ids inside it
/// index the whole action buffer, which is why the two slices have
/// different extents.
pub struct FeedbackBatch<'a, M> {
    outcomes: &'a [u32],
    actions: &'a [Action<M>],
}

impl<'a, M> FeedbackBatch<'a, M> {
    /// Builds a feedback batch over this batch's `outcomes` range and the
    /// slot's full `actions` buffer.
    pub fn new(outcomes: &'a [u32], actions: &'a [Action<M>]) -> FeedbackBatch<'a, M> {
        FeedbackBatch { outcomes, actions }
    }

    /// Number of nodes in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// The raw packed outcome of node `i` of the batch (see [`outcome`]).
    pub fn outcome(&self, i: usize) -> u32 {
        self.outcomes[i]
    }

    /// The batch's raw packed outcome range, for implementations that want
    /// to sweep it directly (e.g. to count deliveries before dispatching).
    pub fn outcomes(&self) -> &'a [u32] {
        self.outcomes
    }

    /// The slot's full action buffer (broadcaster ids in
    /// [`FeedbackBatch::outcomes`] index into it).
    pub fn actions(&self) -> &'a [Action<M>] {
        self.actions
    }

    /// Decodes node `i`'s outcome into the [`Feedback`] the scalar path
    /// would deliver. The borrow lives as long as the action buffer, not
    /// the accessor call.
    pub fn feedback(&self, i: usize) -> Feedback<'a, M> {
        match self.outcomes[i] {
            outcome::SENT => Feedback::Sent,
            outcome::SLEPT => Feedback::Slept,
            outcome::IDLE | outcome::COLLISION | outcome::PU_BUSY => Feedback::Silence,
            b => match &self.actions[b as usize] {
                Action::Broadcast { message, .. } => Feedback::Heard(message),
                _ => unreachable!("resolved broadcaster must be broadcasting"),
            },
        }
    }
}

/// The shared body of every buffered [`Protocol::act_batch`] override:
/// for each node of the batch, pre-fill `reserve(node)` words of its
/// private stream in one bulk draw ([`BatchCtx::buffered`] — the reserve
/// must be a *lower bound* on the node's actual draws) and run `act` over
/// the buffered stream.
///
/// Ported protocols implement `act_batch` as one call to this, passing
/// their `min_draws` state inspection and their generic act body — so the
/// dispatch loop and the reserve contract live in exactly one place.
pub fn act_batch_buffered<P, Reserve, Act>(
    batch: &mut [P],
    ctx: &mut BatchCtx<'_>,
    out: &mut Vec<Action<P::Message>>,
    reserve: Reserve,
    mut act: Act,
) where
    P: Protocol,
    Reserve: Fn(&P) -> usize,
    Act: FnMut(&mut P, &mut SlotCtx<'_, BufferedRng<'_, SmallRng>>) -> Action<P::Message>,
{
    let slot = ctx.slot();
    for (i, p) in batch.iter_mut().enumerate() {
        let mut rng = ctx.buffered(i, reserve(p));
        out.push(act(p, &mut SlotCtx { slot, rng: &mut rng }));
    }
}

/// The shared body of every buffered [`Protocol::feedback_batch`] override:
/// for each node of the batch, decode its outcome, pre-fill
/// `reserve(node)` words of its private stream in one bulk draw (the
/// reserve must be a *lower bound* on the words the node's feedback body
/// will actually draw — most schedule-driven feedback paths draw zero, and
/// data-dependent transition draws simply fall through the façade), and
/// run `feedback` over the buffered stream.
///
/// Ported protocols implement `feedback_batch` as one call to this,
/// passing their reserve inspection and their generic feedback body — the
/// dispatch loop and the reserve contract live in exactly one place,
/// mirroring [`act_batch_buffered`].
pub fn feedback_batch_buffered<P, Reserve, Fb>(
    batch: &mut [P],
    ctx: &mut BatchCtx<'_>,
    fb: FeedbackBatch<'_, P::Message>,
    reserve: Reserve,
    mut feedback: Fb,
) where
    P: Protocol,
    Reserve: Fn(&P) -> usize,
    Fb: FnMut(&mut P, &mut SlotCtx<'_, BufferedRng<'_, SmallRng>>, Feedback<'_, P::Message>),
{
    debug_assert_eq!(batch.len(), ctx.len(), "one RNG stream per batched node");
    debug_assert_eq!(batch.len(), fb.len(), "one outcome per batched node");
    let slot = ctx.slot();
    for (i, p) in batch.iter_mut().enumerate() {
        let f = fb.feedback(i);
        let mut rng = ctx.buffered(i, reserve(p));
        feedback(p, &mut SlotCtx { slot, rng: &mut rng }, f);
    }
}

/// Static, node-local information available when a protocol instance is
/// constructed.
///
/// Note what is *absent*: the node does not know its neighbors, their
/// identities, nor the global channel labels — exactly the initial knowledge
/// of the paper's model. Global parameters such as `n`, `Δ`, `k`, `kmax` are
/// assumed common knowledge and are carried by the protocol parameter
/// structs in `crn-core`, not here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCtx {
    /// This node's unique identity.
    pub id: NodeId,
    /// Number of channels this node can access (the paper's `c`). Local
    /// labels are `0..num_channels`.
    pub num_channels: u16,
}

/// A per-node protocol state machine.
///
/// Implementations must be *oblivious to wall-clock length differences*: the
/// engine drives all nodes in lockstep, so any phase structure must be a
/// function of the slot count alone (all of the paper's algorithms have this
/// fixed-schedule property).
///
/// # Examples
///
/// A trivial protocol that broadcasts its identity on local channel 0 in
/// every slot:
///
/// ```
/// use crn_sim::{Action, Feedback, LocalChannel, NodeCtx, Protocol, SlotCtx};
///
/// struct Beacon {
///     me: u32,
/// }
///
/// impl Protocol for Beacon {
///     type Message = u32;
///     type Output = ();
///     fn act(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<u32> {
///         Action::Broadcast { channel: LocalChannel(0), message: self.me }
///     }
///     fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, _fb: Feedback<'_, u32>) {}
///     fn is_complete(&self) -> bool { false }
///     fn into_output(self) -> () {}
/// }
/// ```
pub trait Protocol {
    /// The message type exchanged over the air. No `Clone` bound: the
    /// engine delivers messages by reference and never clones them.
    /// Protocols that need ownership clone at their concrete type.
    type Message;
    /// The final result extracted when the run ends.
    type Output;

    /// Decide this slot's action. Called exactly once per slot, in slot
    /// order, before any feedback for the slot is delivered.
    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<Self::Message>;

    /// Decide one slot's actions for a contiguous batch of nodes: append
    /// exactly `batch.len()` actions to `out`, one per instance in batch
    /// order, drawing node `i`'s randomness only from stream `i` of `ctx`.
    ///
    /// This is the engine's phase-1 entry point — the unit a sharded
    /// engine dispatches to worker threads in node-range chunks.
    /// The default implementation delegates to scalar [`Protocol::act`]
    /// per node, so existing implementations keep working unchanged.
    ///
    /// An override must be **draw-for-draw identical** to the scalar path:
    /// for every node it must consume exactly the words `act` would (the
    /// [`BatchCtx::buffered`] reserve mechanism makes that automatic when
    /// the reserve is a lower bound on the node's draws). The engine's
    /// differential tests enforce this equivalence bit for bit.
    fn act_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, out: &mut Vec<Action<Self::Message>>)
    where
        Self: Sized,
    {
        debug_assert_eq!(batch.len(), ctx.len(), "one RNG stream per batched node");
        for (i, p) in batch.iter_mut().enumerate() {
            let mut sctx = ctx.slot_ctx(i);
            out.push(p.act(&mut sctx));
        }
    }

    /// Receive the observation for the slot. Called exactly once per slot
    /// after all nodes have acted. A heard message arrives by reference;
    /// clone it here if it must outlive the call.
    fn feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, Self::Message>);

    /// Deliver one slot's observations to a contiguous batch of nodes:
    /// node `i` of the batch receives the feedback decoded from outcome
    /// `i` of `fb`, drawing any randomness only from stream `i` of `ctx`.
    ///
    /// This is the engine's phase-3 entry point — the unit a sharded
    /// engine dispatches to worker threads in node-range chunks.
    /// The default implementation delegates to scalar
    /// [`Protocol::feedback`] per node, so existing implementations keep
    /// working unchanged.
    ///
    /// An override must be **draw-for-draw identical** to the scalar path
    /// (same contract as [`Protocol::act_batch`]; the engine's
    /// differential tests enforce the equivalence bit for bit).
    fn feedback_batch(
        batch: &mut [Self],
        ctx: &mut BatchCtx<'_>,
        fb: FeedbackBatch<'_, Self::Message>,
    ) where
        Self: Sized,
    {
        debug_assert_eq!(batch.len(), ctx.len(), "one RNG stream per batched node");
        debug_assert_eq!(batch.len(), fb.len(), "one outcome per batched node");
        for (i, p) in batch.iter_mut().enumerate() {
            let f = fb.feedback(i);
            let mut sctx = ctx.slot_ctx(i);
            p.feedback(&mut sctx, f);
        }
    }

    /// `true` once the protocol's fixed schedule has finished. The engine
    /// stops early when every node is complete.
    fn is_complete(&self) -> bool;

    /// Consume the protocol and produce its output.
    fn into_output(self) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_channel_accessor() {
        let b: Action<u8> = Action::Broadcast { channel: LocalChannel(3), message: 1 };
        let l: Action<u8> = Action::Listen { channel: LocalChannel(2) };
        let s: Action<u8> = Action::Sleep;
        assert_eq!(b.channel(), Some(LocalChannel(3)));
        assert_eq!(l.channel(), Some(LocalChannel(2)));
        assert_eq!(s.channel(), None);
        assert!(b.is_broadcast());
        assert!(!l.is_broadcast());
    }

    #[test]
    fn feedback_heard_extraction() {
        assert_eq!(Feedback::Heard(&7u32).heard(), Some(&7));
        assert_eq!(Feedback::<u32>::Silence.heard(), None);
        assert_eq!(Feedback::<u32>::Sent.heard(), None);
        assert_eq!(Feedback::<u32>::Slept.heard(), None);
    }

    #[test]
    fn feedback_batch_decodes_every_outcome() {
        let actions: Vec<Action<u32>> = vec![
            Action::Broadcast { channel: LocalChannel(0), message: 11 },
            Action::Sleep,
            Action::Broadcast { channel: LocalChannel(1), message: 22 },
        ];
        // A batch covering a sub-range whose broadcaster ids index the
        // full action buffer.
        let outcomes =
            [outcome::SENT, outcome::SLEPT, outcome::IDLE, outcome::COLLISION, outcome::PU_BUSY, 2];
        let fb = FeedbackBatch::new(&outcomes, &actions);
        assert_eq!(fb.len(), 6);
        assert_eq!(fb.feedback(0), Feedback::Sent);
        assert_eq!(fb.feedback(1), Feedback::Slept);
        assert_eq!(fb.feedback(2), Feedback::Silence);
        assert_eq!(fb.feedback(3), Feedback::Silence);
        assert_eq!(fb.feedback(4), Feedback::Silence);
        assert_eq!(fb.feedback(5), Feedback::Heard(&22));
        assert_eq!(fb.outcome(5), 2);
        const { assert!(outcome::MIN_SENTINEL <= outcome::PU_BUSY) };
    }

    #[test]
    fn feedback_is_copy_without_message_clone() {
        // `Feedback` must stay `Copy` even for non-`Clone` messages.
        struct NoClone;
        let m = NoClone;
        let fb: Feedback<'_, NoClone> = Feedback::Heard(&m);
        let a = fb;
        let b = fb;
        assert!(matches!(a, Feedback::Heard(_)));
        assert!(matches!(b, Feedback::Heard(_)));
    }
}
