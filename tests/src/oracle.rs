//! An independent reference stepper for the slot model of paper §3.
//!
//! The model, restated: time is slotted and global. In every slot each node
//! tunes to one of its own channels (by local label) and either broadcasts
//! or listens, or sleeps. A listener receives a message iff **exactly one**
//! of its neighbors broadcasts on the same global channel in that slot; with
//! none it hears silence, and with two or more the messages collide, which
//! is also silence (no collision detection). A broadcaster learns nothing.
//! Primary-user activity occupies a channel for a whole slot: broadcasts on
//! it are lost and its listeners hear noise, indistinguishable from a
//! collision.
//!
//! This stepper implements exactly that and nothing more. It shares no code
//! with the engine's collection, resolution or delivery phases: it owns its
//! protocol instances and per-node streams, asks each node for its action
//! through the scalar [`Protocol::act`], maps labels with
//! [`Network::channel_map`], and for each listener walks its neighbor list
//! counting broadcasters on the listener's global channel. There are no
//! buckets, no epochs and no renumbering, and it is quadratic where it
//! likes. Its only job is to be obviously right, so that the engine can be
//! stepped in lockstep against it.

use crn_sim::rng::stream_rng;
use crn_sim::{
    Action, BatchCtx, Counters, Feedback, GlobalChannel, Network, NodeCtx, NodeId, Protocol, Slot,
};
use rand::rngs::SmallRng;
use std::collections::BTreeSet;

/// What one node observed in one slot, by broadcaster identity rather than
/// by message, so two steppers can be compared without comparing payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// The node broadcast.
    Sent,
    /// The node listened and exactly one neighbor broadcast on its channel.
    HeardFrom(NodeId),
    /// The node listened and heard nothing (idle, collision, or PU noise).
    Silence,
    /// The node slept.
    Slept,
}

/// The reference stepper: one protocol instance and one RNG stream per node.
pub struct Oracle<'net, P: Protocol> {
    net: &'net Network,
    protocols: Vec<P>,
    rngs: Vec<SmallRng>,
    slot: u64,
    counters: Counters,
}

impl<'net, P: Protocol> Oracle<'net, P> {
    /// Builds every node's protocol with `make` and derives node `v`'s
    /// stream as `stream_rng(seed, v)`, the same lanes an engine seeded
    /// with `seed` hands its nodes.
    pub fn new(net: &'net Network, seed: u64, mut make: impl FnMut(NodeCtx) -> P) -> Self {
        let c = net.channels_per_node() as u16;
        let n = net.len();
        Oracle {
            net,
            protocols: (0..n)
                .map(|v| make(NodeCtx { id: NodeId(v as u32), num_channels: c }))
                .collect(),
            rngs: (0..n).map(|v| stream_rng(seed, v as u64)).collect(),
            slot: 0,
            counters: Counters::default(),
        }
    }

    /// Aggregate counters so far, in the engine's [`Counters`] shape.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Node `v`'s protocol instance.
    pub fn protocol(&self, v: NodeId) -> &P {
        &self.protocols[v.index()]
    }

    /// Runs one slot and returns what every node observed. `busy(g)` says
    /// whether the primary user occupies global channel `g` in this slot.
    pub fn step(&mut self, busy: impl Fn(GlobalChannel) -> bool) -> Vec<Observed> {
        let net = self.net;
        let n = net.len();
        let Oracle { protocols, rngs, counters, .. } = self;
        let mut ctx = BatchCtx::new(Slot(self.slot), rngs);

        // Every node picks an action; labels become global channels.
        let actions: Vec<Action<P::Message>> =
            (0..n).map(|v| protocols[v].act(&mut ctx.slot_ctx(v))).collect();
        let tuned: Vec<Option<GlobalChannel>> = actions
            .iter()
            .enumerate()
            .map(|(v, a)| a.channel().map(|l| net.channel_map(NodeId(v as u32))[l.index()]))
            .collect();

        // Action tallies and PU accounting over the channels anyone tuned to.
        let mut tuned_to = BTreeSet::new();
        for (a, g) in actions.iter().zip(&tuned) {
            match a {
                Action::Broadcast { .. } => counters.broadcasts += 1,
                Action::Listen { .. } => counters.listens += 1,
                Action::Sleep => counters.sleeps += 1,
            }
            if let Some(g) = *g {
                tuned_to.insert(g);
                if a.is_broadcast() && busy(g) {
                    counters.pu_blocked_broadcasts += 1;
                }
            }
        }
        counters.pu_busy_channel_slots += tuned_to.iter().filter(|&&g| busy(g)).count() as u64;

        // Each listener counts its neighbors broadcasting on its channel.
        let observed: Vec<Observed> = (0..n)
            .map(|v| match &actions[v] {
                Action::Broadcast { .. } => Observed::Sent,
                Action::Sleep => Observed::Slept,
                Action::Listen { .. } => {
                    let g = tuned[v];
                    if g.is_some_and(&busy) {
                        counters.collisions += 1;
                        counters.pu_blocked_listens += 1;
                        return Observed::Silence;
                    }
                    let senders: Vec<NodeId> = net
                        .neighbors(NodeId(v as u32))
                        .filter(|w| actions[w.index()].is_broadcast() && tuned[w.index()] == g)
                        .collect();
                    match senders[..] {
                        [] => {
                            counters.idle_listens += 1;
                            Observed::Silence
                        }
                        [w] => {
                            counters.deliveries += 1;
                            Observed::HeardFrom(w)
                        }
                        _ => {
                            counters.collisions += 1;
                            Observed::Silence
                        }
                    }
                }
            })
            .collect();

        // Every node gets its feedback through the scalar hook.
        for (v, seen) in observed.iter().enumerate() {
            let fb = match *seen {
                Observed::Sent => Feedback::Sent,
                Observed::Slept => Feedback::Slept,
                Observed::Silence => Feedback::Silence,
                Observed::HeardFrom(w) => match &actions[w.index()] {
                    Action::Broadcast { message, .. } => Feedback::Heard(message),
                    _ => unreachable!("a sender broadcasts"),
                },
            };
            protocols[v].feedback(&mut ctx.slot_ctx(v), fb);
        }

        self.slot += 1;
        self.counters.slots += 1;
        observed
    }
}
