//! Delivery-fault tolerance on top of [`crate::transport`]: the one
//! delivery layer the edge exchange and both analytics (distributed BFS,
//! triangle counting) run on.
//!
//! [`ReliableEndpoint`] sequence-numbers every payload per link; the
//! receiver delivers **in order, exactly once**, acks cumulatively as
//! its protocol takes each payload, and the sender retransmits unacked
//! payloads when the mesh goes idle. Redelivery dedup is *bounded*: one
//! `u64` cumulative counter per peer kills every duplicate below it, and
//! only the (small, transient) out-of-order window is buffered — no
//! unbounded seen-set. Every empty poll releases held (delayed) traffic,
//! so a delayed payload or ack waits at most until its sender idles.
//! Only a mesh that can drop payloads retransmits; on a loss-free one a
//! quiet link is just a slow peer. [`ReliableEndpoint::in_flight`]
//! exposes the per-link unacked count a sender bounds with a credit
//! window — since an ack covers only what the receiver's protocol has
//! taken, that count also bounds the payloads on the wire and in the
//! receiver's delivery queue; `poll_for_credit` is the poll such a
//! sender spins on while its window is full.
//!
//! [`run_ranks`] runs every protocol's ranks: it builds the mesh, runs
//! each rank's protocol on its own scoped thread over a reliable
//! endpoint, and merges and publishes the ranks' event timelines. Since
//! every payload arrives once and in order on its link, a protocol
//! closes a phase with one marker payload per link: a rank that has
//! taken a peer's marker holds everything that peer sent before it, so
//! no sequence tags, counts or dedup belong in protocol messages.
//!
//! ## Why termination is safe
//!
//! A rank leaves the mesh ([`ReliableEndpoint::close`]) only when (a) its
//! protocol has taken every payload meant for it — the last marker from
//! every peer, which in-order delivery puts behind everything else — and
//! (b) all of its own payloads are acked, so no peer still needs its
//! retransmissions. Acks ride the no-drop control class and are flushed
//! before exit; in-process channels retain already sent messages, so a
//! straggler still receives the final acks after the peer's thread is
//! gone. Drops are fair-loss with a deterministic bound
//! ([`crate::transport::FaultConfig::drop_cap`]), so idle-triggered
//! retransmission always makes progress. No wall clock, no timeouts.

use std::collections::{BTreeMap, VecDeque};

use kron_obs::events::{EventKind, RankRecorder, Timeline};

use crate::transport::{Endpoint, TransportConfig};

/// Wire format of the reliable layer.
#[derive(Debug, Clone)]
pub(crate) enum Packet<T> {
    /// Sequenced payload. `seq` is per (sender, receiver) link.
    Data {
        /// Sending rank (channels are anonymous).
        from: usize,
        /// Link-local sequence number, from 0.
        seq: u64,
        /// The protocol message.
        payload: T,
    },
    /// Cumulative ack: every `seq < upto` on the link was delivered and
    /// taken by the receiving protocol.
    Ack {
        /// Acking rank.
        from: usize,
        /// One past the highest sequence the protocol has taken.
        upto: u64,
    },
}

/// How many consecutive empty polls an idle rank waits before, on a mesh
/// that can drop payloads, retransmitting its unacked ones — and how many
/// wire reads a rank blocked on credit makes without freeing a slot
/// before doing the same. (Held traffic is flushed on every empty poll.)
/// Purely event-counted — no wall clock — so behaviour is identical on
/// loaded and idle machines.
const RETRY_IDLE_POLLS: u32 = 32;

/// Reliable, exactly-once, per-link-FIFO endpoint of one rank.
pub(crate) struct ReliableEndpoint<T: Clone + Send> {
    ep: Endpoint<Packet<T>>,
    /// Next sequence number to assign, per destination.
    next_seq: Vec<u64>,
    /// Sent but not yet cumulatively acked payloads, per destination.
    unacked: Vec<BTreeMap<u64, T>>,
    /// Next sequence expected, per source (the bounded dedup cursor).
    next_expected: Vec<u64>,
    /// Out-of-order arrivals awaiting their gap, per source.
    ooo: Vec<BTreeMap<u64, T>>,
    /// Payloads delivered in order, ready for the protocol.
    ready: VecDeque<(usize, T)>,
    /// Payloads the protocol has taken, per source — the ack cursor.
    taken: Vec<u64>,
    idle_polls: u32,
    /// Consecutive wire reads by `poll_for_credit` that did not shrink
    /// the blocked link's unacked set.
    credit_stalls: u32,
    /// Idle-triggered retransmissions.
    pub(crate) retransmissions: u64,
    /// Data packets pulled off the wire, per source (fresh + redelivered).
    data_received_from: Vec<u64>,
    /// Redeliveries discarded by dedup, per source.
    duplicates_from: Vec<u64>,
}

impl<T: Clone + Send> ReliableEndpoint<T> {
    /// Wraps a transport endpoint.
    fn new(ep: Endpoint<Packet<T>>) -> Self {
        let ranks = ep.ranks();
        ReliableEndpoint {
            ep,
            next_seq: vec![0; ranks],
            unacked: vec![BTreeMap::new(); ranks],
            next_expected: vec![0; ranks],
            ooo: vec![BTreeMap::new(); ranks],
            ready: VecDeque::new(),
            taken: vec![0; ranks],
            idle_polls: 0,
            credit_stalls: 0,
            retransmissions: 0,
            data_received_from: vec![0; ranks],
            duplicates_from: vec![0; ranks],
        }
    }

    /// This endpoint's rank.
    pub(crate) fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// Ranks in the mesh.
    pub(crate) fn ranks(&self) -> usize {
        self.ep.ranks()
    }

    /// The underlying transport's event recorder.
    pub(crate) fn recorder(&mut self) -> &mut RankRecorder {
        self.ep.recorder()
    }

    /// Redelivered payloads discarded by dedup, over all sources.
    pub(crate) fn duplicates_discarded(&self) -> u64 {
        self.duplicates_from.iter().sum()
    }

    /// Leaves the mesh once the protocol has taken every payload meant
    /// for this rank: polls until everything this rank sent is acked, so
    /// no peer still needs its retransmissions, flushes late acks and
    /// held copies to peers that are still draining, and hands back the
    /// event log. A payload delivered meanwhile is a protocol bug and
    /// panics.
    ///
    /// The log ends with per-link accounting: one [`EventKind::LinkSent`]
    /// per destination (`a` = first transmissions assigned on the link)
    /// and one [`EventKind::LinkDelivered`] per source (`a` = payloads
    /// delivered in order, `b` = redeliveries discarded). Together they
    /// let a timeline consumer check per-link conservation: the sender's
    /// sequence count must equal the receiver's in-order delivery
    /// cursor, and every data packet the receiver pulled is either a
    /// fresh delivery or a discarded redelivery, which this method
    /// asserts while recording.
    pub(crate) fn close(&mut self) -> RankRecorder {
        while !self.all_acked() {
            if let Some((from, _)) = self.poll() {
                panic!("rank {} took a payload from rank {from} after it finished", self.rank());
            }
        }
        self.ep.flush();
        if self.ep.recorder().is_active() {
            for dest in 0..self.next_seq.len() {
                let sent = self.next_seq[dest];
                self.ep.recorder().record(EventKind::LinkSent, dest as u32, sent, 0);
            }
            for src in 0..self.next_expected.len() {
                let delivered = self.next_expected[src];
                let dups = self.duplicates_from[src];
                assert!(
                    self.ooo[src].is_empty(),
                    "link accounting requires a clean exit; {} payloads from rank {src} \
                     still out of order",
                    self.ooo[src].len()
                );
                assert_eq!(
                    self.data_received_from[src],
                    delivered + dups,
                    "rank {} conservation violated on link from {src}: received {} != \
                     delivered {delivered} + deduplicated {dups}",
                    self.ep.rank(),
                    self.data_received_from[src],
                );
                self.ep
                    .recorder()
                    .record(EventKind::LinkDelivered, src as u32, delivered, dups);
            }
        }
        self.ep.take_recorder()
    }

    /// Sends `payload` to `dest` reliably (first transmission).
    pub(crate) fn send(&mut self, dest: usize, payload: T) {
        let seq = self.next_seq[dest];
        self.next_seq[dest] += 1;
        self.unacked[dest].insert(seq, payload.clone());
        let from = self.ep.rank();
        self.ep.send(dest, data_key(seq), Packet::Data { from, seq, payload });
    }

    /// True when every payload this rank ever sent is cumulatively acked.
    fn all_acked(&self) -> bool {
        self.unacked.iter().all(BTreeMap::is_empty)
    }

    /// Payloads sent to `dest` and not yet acked: the retained copies a
    /// retransmission would resend. An ack covers only what `dest`'s
    /// protocol has taken, so this also bounds the copies on the wire and
    /// in `dest`'s delivery queue.
    pub(crate) fn in_flight(&self, dest: usize) -> usize {
        self.unacked[dest].len()
    }

    /// Delivers the next in-order payload if one is available, else
    /// `None`. Processes all transport traffic that has arrived (acks
    /// included) before answering.
    pub(crate) fn poll(&mut self) -> Option<(usize, T)> {
        if let Some(out) = self.take_ready() {
            return Some(out);
        }
        let mut processed_any = false;
        while let Some(packet) = self.ep.try_recv() {
            self.idle_polls = 0;
            processed_any = true;
            match packet {
                Packet::Data { from, seq, payload } => {
                    self.data_received_from[from] += 1;
                    self.on_data(from, seq, payload);
                }
                Packet::Ack { from, upto } => {
                    let still_pending = self.unacked[from].split_off(&upto);
                    self.unacked[from] = still_pending;
                }
            }
        }
        if processed_any {
            // One inbox-depth sample per burst of arrivals (not per idle
            // poll, which would swamp the log with zeros).
            let depth = self.ready.len() as u64;
            self.ep
                .recorder()
                .record(EventKind::InboxDepth, kron_obs::events::NO_PEER, depth, 0);
        }
        let out = self.take_ready();
        if out.is_none() {
            // Flush before idling: a peer may be waiting on a held
            // payload or ack of this rank's.
            self.ep.flush();
            self.idle_polls += 1;
            if self.idle_polls >= RETRY_IDLE_POLLS {
                self.on_idle();
            }
            std::thread::yield_now();
        }
        out
    }

    /// [`poll`](Self::poll) for a sender blocked until
    /// [`in_flight(dest)`](Self::in_flight) shrinks. Every wire read that
    /// leaves `dest`'s unacked set as it was counts toward the idle
    /// action (flush held traffic; retransmit on a mesh that can drop),
    /// even when other traffic arrives: a peer that keeps sending keeps
    /// the plain idle count at zero, so one dropped payload would
    /// otherwise pin the blocked link until that peer stops sending.
    pub(crate) fn poll_for_credit(&mut self, dest: usize) -> Option<(usize, T)> {
        if let Some(out) = self.take_ready() {
            return Some(out);
        }
        let before = self.unacked[dest].len();
        let out = self.poll();
        if self.unacked[dest].len() < before {
            self.credit_stalls = 0;
        } else {
            self.credit_stalls += 1;
            if self.credit_stalls >= RETRY_IDLE_POLLS {
                self.on_idle();
            }
        }
        out
    }

    /// Hands the next delivered payload to the protocol and acks it.
    fn take_ready(&mut self) -> Option<(usize, T)> {
        let (from, payload) = self.ready.pop_front()?;
        self.taken[from] += 1;
        self.send_ack(from);
        Some((from, payload))
    }

    /// The liveness action of a rank that is making no progress: where
    /// payloads can be lost, resend the unacked, and release held traffic.
    fn on_idle(&mut self) {
        self.idle_polls = 0;
        self.credit_stalls = 0;
        // Without drops every payload arrives once held traffic is
        // released, so a resend would only duplicate it.
        if self.ep.can_drop() {
            self.retransmit();
        }
        self.ep.flush();
    }

    fn on_data(&mut self, from: usize, seq: u64, payload: T) {
        use std::cmp::Ordering;
        let expected = self.next_expected[from];
        match seq.cmp(&expected) {
            Ordering::Less => {
                // Redelivery below the cumulative cursor: dedup is the
                // single counter — nothing stored. Re-ack what the
                // protocol has taken so the sender stops retransmitting
                // (its ack may have been delayed); the rest is acked as
                // the protocol takes it.
                self.duplicates_from[from] += 1;
                self.ep.recorder().record(EventKind::DedupDiscard, from as u32, seq, 0);
                self.send_ack(from);
            }
            Ordering::Equal => {
                // Acked once the protocol takes it (`take_ready`).
                self.ep.recorder().record(EventKind::Deliver, from as u32, seq, 0);
                self.ready.push_back((from, payload));
                self.next_expected[from] += 1;
                // Release any contiguous run waiting behind the gap.
                while let Some(p) = self.ooo[from].remove(&self.next_expected[from]) {
                    self.ready.push_back((from, p));
                    self.next_expected[from] += 1;
                }
            }
            Ordering::Greater => {
                if self.ooo[from].insert(seq, payload).is_some() {
                    self.duplicates_from[from] += 1;
                    self.ep.recorder().record(EventKind::DedupDiscard, from as u32, seq, 1);
                }
            }
        }
    }

    fn send_ack(&mut self, to: usize) {
        let upto = self.taken[to];
        let from = self.ep.rank();
        // Acks are control class: never dropped, may be duplicated,
        // delayed, reordered — all harmless for a cumulative counter.
        self.ep.send_control(to, ack_key(upto), Packet::Ack { from, upto });
    }

    fn retransmit(&mut self) {
        let from = self.ep.rank();
        for dest in 0..self.unacked.len() {
            // Clone out the pending set to appease the borrow on self.ep.
            let pending: Vec<(u64, T)> = self.unacked[dest]
                .iter()
                .map(|(&s, p)| (s, p.clone()))
                .collect();
            for (seq, payload) in pending {
                self.retransmissions += 1;
                self.ep.recorder().record(EventKind::Retransmit, dest as u32, seq, 0);
                self.ep
                    .send(dest, data_key(seq), Packet::Data { from, seq, payload });
            }
        }
    }
}

#[inline]
fn data_key(seq: u64) -> u64 {
    seq ^ 0xDA7A_DA7A_0000_0000
}

#[inline]
fn ack_key(upto: u64) -> u64 {
    upto ^ 0xACC0_ACC0_0000_0000
}

/// Runs the ranks of every kron-dist protocol: builds a `transport`
/// mesh of `ranks` endpoints and runs `rank` on one scoped thread per
/// rank over its [`ReliableEndpoint`], which the protocol ends with
/// [`ReliableEndpoint::close`]. Returns the ranks' outputs in rank order
/// and their merged event timeline, which it also publishes to the
/// flight-recorder panic hook and trace export unless event recording
/// was off (empty timeline).
pub(crate) fn run_ranks<T, R, F>(
    transport: &TransportConfig,
    ranks: usize,
    rank: F,
) -> (Vec<R>, Timeline)
where
    T: Clone + Send,
    R: Send,
    F: Fn(ReliableEndpoint<T>) -> (R, RankRecorder) + Sync,
{
    let mut outputs = Vec::with_capacity(ranks);
    let mut recorders = Vec::with_capacity(ranks);
    std::thread::scope(|scope| {
        let rank = &rank;
        let handles: Vec<_> = Endpoint::mesh(transport, ranks)
            .into_iter()
            .map(|ep| scope.spawn(move || rank(ReliableEndpoint::new(ep))))
            .collect();
        for handle in handles {
            let (output, recorder) = handle.join().expect("rank thread panicked");
            outputs.push(output);
            recorders.push(recorder);
        }
    });
    let timeline = Timeline::from_recorders(recorders);
    if timeline.event_count() > 0 {
        kron_obs::events::publish_timeline(&timeline);
    }
    (outputs, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FaultConfig;

    /// Two endpoints of a 2-rank mesh, driven by hand on one thread.
    fn pair_of(config: &TransportConfig) -> (ReliableEndpoint<u64>, ReliableEndpoint<u64>) {
        let mut eps = Endpoint::mesh(config, 2);
        let b = ReliableEndpoint::new(eps.pop().expect("two"));
        let a = ReliableEndpoint::new(eps.pop().expect("one"));
        (a, b)
    }

    fn drain_count(ep: &mut ReliableEndpoint<u64>, want: usize) -> Vec<u64> {
        let mut got = Vec::new();
        let mut spins = 0u64;
        while got.len() < want {
            match ep.poll() {
                Some((_, v)) => got.push(v),
                None => {
                    spins += 1;
                    assert!(spins < 5_000_000, "no progress after {} items", got.len());
                }
            }
        }
        got
    }

    #[test]
    fn perfect_link_delivers_in_order() {
        let (mut a, mut b) = pair_of(&TransportConfig::Perfect);
        for v in 0..100 {
            a.send(1, v);
        }
        assert_eq!((a.in_flight(0), a.in_flight(1)), (0, 100));
        assert_eq!(drain_count(&mut b, 100), (0..100).collect::<Vec<_>>());
        // Drive a so it processes b's acks.
        while !a.all_acked() {
            let _ = a.poll();
        }
        assert_eq!(a.in_flight(1), 0);
    }

    #[test]
    fn chaos_link_still_exactly_once_in_order() {
        for seed in [1u64, 2, 3, 20, 21] {
            let cfg = TransportConfig::Faulty(FaultConfig::chaos(seed));
            let (mut a, mut b) = pair_of(&cfg);
            for v in 0..200 {
                a.send(1, v);
            }
            // Interleave: b drains while a retransmits and absorbs acks.
            let mut got = Vec::new();
            let mut spins = 0u64;
            while got.len() < 200 || !a.all_acked() {
                if let Some((_, v)) = b.poll() {
                    got.push(v);
                }
                let _ = a.poll();
                spins += 1;
                assert!(
                    spins < 20_000_000,
                    "seed {seed}: stalled at {} delivered, all_acked={}",
                    got.len(),
                    a.all_acked()
                );
            }
            assert_eq!(got, (0..200).collect::<Vec<_>>(), "seed {seed}");
            assert_eq!(b.poll(), None, "seed {seed}: spurious extra delivery");
            a.close();
            b.close();
        }
    }

    #[test]
    fn duplicates_are_discarded_not_redelivered() {
        let cfg = TransportConfig::Faulty(FaultConfig::dup_reorder_only(7));
        let (mut a, mut b) = pair_of(&cfg);
        for v in 0..300 {
            a.send(1, v);
        }
        a.ep.flush();
        let got = drain_count(&mut b, 300);
        assert_eq!(got, (0..300).collect::<Vec<_>>());
        // With dup_p = 0.25 over 300 messages some duplicates must have
        // been injected, and every copy past the first was discarded.
        assert!(b.duplicates_from[0] > 0, "no duplicate reached the receiver");
        assert_eq!(b.data_received_from[0], 300 + b.duplicates_from[0]);
        b.ep.flush();
    }
}
