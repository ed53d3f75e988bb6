//! The rank-to-rank transport abstraction.
//!
//! The paper's generator runs over HavoqGT's asynchronous MPI layer on
//! 1.57M BG/Q cores (§III), where message loss, delay, duplication (at
//! the retry layer), and reordering are everyday events. Perfect
//! in-process channels would hide exactly the protocol races a real
//! fabric exposes, so this module makes the network an explicit,
//! swappable component:
//!
//! * [`TransportConfig::Perfect`] — a loss-free FIFO channel mesh.
//! * [`TransportConfig::Faulty`] — a deterministic adversary that injects
//!   message **drop**, **duplication**, **delay**, and **reordering**
//!   according to a pure function of a `u64` seed and the message's
//!   logical identity. No wall clock is involved anywhere, so a failing
//!   schedule replays exactly from its seed.
//!
//! Protocols never talk to an `Endpoint` directly: every payload of
//! the edge exchange and of the analytics rides
//! `crate::reliability::ReliableEndpoint` on top of it.
//!
//! ## Fault model
//!
//! Messages travel in two classes:
//!
//! * **Lossy** (`Endpoint::send`) — every protocol payload. All four
//!   faults apply. Drops are *fair-loss with a deterministic bound*: a
//!   logical message (identified by its `key`) is dropped on at most
//!   [`FaultConfig::drop_cap`] attempts, so any retry loop terminates.
//! * **Control** (`Endpoint::send_control`) — the reliable layer's
//!   cumulative acks, nothing else. Never dropped (the BG/Q fabric is
//!   reliable for small control messages; unbounded loss there would
//!   make distributed termination unsolvable — the two-generals
//!   problem), but still subject to duplication, delay, and reordering,
//!   which a cumulative counter shrugs off.
//!
//! Delay is modelled without time: a delayed copy is parked in the
//! sender-side link buffer and released later — shuffled, which is where
//! reordering comes from. Liveness rule for protocols: **flush before you
//! idle** (`Endpoint::flush`); every held message is released no later
//! than the sender's next flush, so nothing is in flight while the whole
//! mesh waits.
//!
//! ## Determinism
//!
//! Every per-message fault decision is `mix(seed, src, dst, key, attempt,
//! salt)` — independent of thread scheduling. Thread interleaving still
//! decides *when* messages land (it always did), but which logical
//! message is dropped, duplicated, or parked on which attempt is a pure
//! function of the seed, and the reliable layer makes the final result
//! bit-identical regardless of interleaving. That pair of properties is
//! what the chaos suite (`crates/dist/tests/chaos.rs`) checks.

use std::collections::HashMap;

use crossbeam::channel::{unbounded, Receiver, Sender};
use kron_graph::hash::mix64;
use kron_obs::events::{EventKind, RankRecorder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Knobs of the seeded adversary. All probabilities are per logical
/// message (or per delivered copy, for delay), drawn from a pure hash of
/// the seed and the message identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Root seed; every injected fault is a pure function of it.
    pub seed: u64,
    /// Probability a lossy-class send attempt is dropped.
    pub drop_p: f64,
    /// Max attempts of one logical message that may be dropped; attempt
    /// `drop_cap` (0-based) and later always go through, bounding any
    /// retry loop at `drop_cap + 1` transmissions.
    pub drop_cap: u32,
    /// Probability a delivered message is duplicated.
    pub dup_p: f64,
    /// Max extra copies a duplication injects (uniform in `1..=dup_max`).
    pub dup_max: u32,
    /// Probability a delivered copy is parked in the link's delay buffer
    /// instead of being put on the wire immediately.
    pub delay_p: f64,
    /// Delay-buffer capacity; beyond it the oldest held message is
    /// force-released (bounded delay in message events).
    pub delay_cap: usize,
}

impl FaultConfig {
    /// Everything at once — the default chaos mix.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_p: 0.25,
            drop_cap: 3,
            dup_p: 0.25,
            dup_max: 2,
            delay_p: 0.25,
            delay_cap: 4,
        }
    }

    /// Drops only — exercises ack/retry without reorder noise.
    pub fn drops_only(seed: u64) -> Self {
        FaultConfig { dup_p: 0.0, delay_p: 0.0, ..Self::chaos(seed) }
    }

    /// Duplication + delay/reorder, no loss — exercises the reliable
    /// layer's dedup and reorder buffer.
    pub fn dup_reorder_only(seed: u64) -> Self {
        FaultConfig { drop_p: 0.0, ..Self::chaos(seed) }
    }
}

/// Which mesh the distributed protocols run over.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TransportConfig {
    /// Loss-free FIFO channels (the original behaviour).
    #[default]
    Perfect,
    /// Seeded deterministic fault injection.
    Faulty(FaultConfig),
}

const SALT_DROP: u64 = 0xD509_0000_0000_0001;
const SALT_DUP: u64 = 0xD509_0000_0000_0002;
const SALT_DUP_N: u64 = 0xD509_0000_0000_0003;
const SALT_DELAY: u64 = 0xD509_0000_0000_0004;

/// Pure fault draw in `[0, 1)` for one decision.
#[inline]
fn decide(seed: u64, src: usize, dst: usize, key: u64, attempt: u64, salt: u64) -> f64 {
    let link = mix64((src as u64) << 32 | dst as u64);
    let h = mix64(seed ^ link ^ mix64(key ^ salt) ^ mix64(attempt.wrapping_mul(0x9E37)));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Sender-side state of one directed link.
struct Link<T> {
    tx: Sender<T>,
    /// Transmission attempts seen per logical message key.
    attempts: HashMap<u64, u64>,
    /// Delay buffer: copies parked here are released (shuffled) on flush
    /// or when the buffer overflows.
    held: Vec<T>,
}

/// One rank's connection to the mesh: senders to every rank (self
/// included) plus its own receiver. All methods take `&mut self`; each
/// simulated rank owns its endpoint exclusively, so fault state needs no
/// locking.
pub(crate) struct Endpoint<T> {
    rank: usize,
    links: Vec<Link<T>>,
    rx: Receiver<T>,
    faults: Option<FaultConfig>,
    /// Shuffle source for release order of held messages (reordering);
    /// seeded per rank, affects ordering only — never whether a fault
    /// happens.
    shuffle: SmallRng,
    /// Per-rank event log (inert unless `kron_obs::events::set_enabled`
    /// was on when the mesh was built). Observation-only: recording never
    /// feeds back into fault decisions or message ordering.
    recorder: RankRecorder,
}

impl<T: Clone + Send> Endpoint<T> {
    /// Builds the full mesh: one endpoint per rank, fully connected
    /// (including a self link, so protocols can treat all ranks
    /// uniformly).
    pub(crate) fn mesh(config: &TransportConfig, ranks: usize) -> Vec<Endpoint<T>> {
        assert!(ranks > 0, "need at least one rank");
        let faults = match config {
            TransportConfig::Perfect => None,
            TransportConfig::Faulty(f) => {
                assert!((0.0..=1.0).contains(&f.drop_p), "drop_p out of range");
                assert!((0.0..=1.0).contains(&f.dup_p), "dup_p out of range");
                assert!((0.0..=1.0).contains(&f.delay_p), "delay_p out of range");
                Some(*f)
            }
        };
        let mut txs = Vec::with_capacity(ranks);
        let mut rxs = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| Endpoint {
                rank,
                links: txs
                    .iter()
                    .map(|tx| Link {
                        tx: tx.clone(),
                        attempts: HashMap::new(),
                        held: Vec::new(),
                    })
                    .collect(),
                rx,
                faults,
                shuffle: SmallRng::seed_from_u64(
                    faults.map_or(0, |f| f.seed) ^ mix64(rank as u64),
                ),
                recorder: RankRecorder::new(rank),
            })
            .collect()
    }

    /// This endpoint's rank.
    pub(crate) fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the mesh.
    pub(crate) fn ranks(&self) -> usize {
        self.links.len()
    }

    /// Whether a lossy-class send can be dropped on this mesh — the only
    /// fault a retransmission repairs.
    pub(crate) fn can_drop(&self) -> bool {
        self.faults.is_some_and(|f| f.drop_p > 0.0)
    }

    /// This rank's event recorder (for protocol layers to add epoch and
    /// accounting events of their own).
    pub(crate) fn recorder(&mut self) -> &mut RankRecorder {
        &mut self.recorder
    }

    /// Takes the recorder out (leaving an inert one) so a finished rank
    /// can hand its log back to the run driver.
    pub(crate) fn take_recorder(&mut self) -> RankRecorder {
        std::mem::take(&mut self.recorder)
    }

    /// Lossy-class send of the logical message `key` to `dest`. Retries
    /// of the same logical message must reuse the same `key`: the drop
    /// schedule is per `(link, key, attempt)`, and attempts at or beyond
    /// [`FaultConfig::drop_cap`] always deliver.
    pub(crate) fn send(&mut self, dest: usize, key: u64, msg: T) {
        self.transmit(dest, key, msg, true);
    }

    /// Control-class send: never dropped, still subject to duplication,
    /// delay, and reordering.
    pub(crate) fn send_control(&mut self, dest: usize, key: u64, msg: T) {
        self.transmit(dest, key, msg, false);
    }

    fn transmit(&mut self, dest: usize, key: u64, msg: T, lossy: bool) {
        let kind = if lossy { EventKind::Send } else { EventKind::SendControl };
        self.recorder.record(kind, dest as u32, key, 0);
        let src = self.rank;
        let link = &mut self.links[dest];
        let Some(f) = self.faults else {
            // Perfect transport: straight onto the FIFO channel. A send
            // can only fail if the receiver already exited — and a rank
            // exits only once it provably needs nothing more (all its
            // peers' traffic delivered, all its own sends acked), so a
            // late message to it (e.g. a spurious retransmission racing
            // the peer's final acks) is correct to discard.
            let _ = link.tx.send(msg);
            return;
        };
        let attempt = {
            let a = link.attempts.entry(key).or_insert(0);
            let cur = *a;
            *a += 1;
            cur
        };
        if lossy
            && attempt < f.drop_cap as u64
            && decide(f.seed, src, dest, key, attempt, SALT_DROP) < f.drop_p
        {
            self.recorder.record(EventKind::DropInjected, dest as u32, key, attempt);
            return;
        }
        let mut copies = 1u64;
        if f.dup_max > 0 && decide(f.seed, src, dest, key, attempt, SALT_DUP) < f.dup_p {
            let extra = 1 + (decide(f.seed, src, dest, key, attempt, SALT_DUP_N)
                * f.dup_max as f64) as u64;
            let extra = extra.min(f.dup_max as u64);
            self.recorder.record(EventKind::DupInjected, dest as u32, key, extra);
            copies += extra;
        }
        for copy in 0..copies {
            let parked = f.delay_cap > 0
                && decide(f.seed, src, dest, key, attempt ^ (copy << 32), SALT_DELAY)
                    < f.delay_p;
            if parked {
                if link.held.len() >= f.delay_cap {
                    // Bounded delay: overflow force-releases the oldest.
                    let oldest = link.held.remove(0);
                    let _ = link.tx.send(oldest);
                }
                link.held.push(msg.clone());
                self.recorder.record(
                    EventKind::Delayed,
                    dest as u32,
                    key,
                    link.held.len() as u64,
                );
            } else {
                let _ = link.tx.send(msg.clone());
            }
        }
    }

    /// Releases every held message on every outgoing link, in shuffled
    /// order (the reordering fault). Protocols call this before idling or
    /// exiting, which bounds any delay to one flush interval and makes
    /// held messages unable to stall a globally-waiting mesh.
    pub(crate) fn flush(&mut self) {
        for link in &mut self.links {
            if link.held.is_empty() {
                continue;
            }
            let mut held = std::mem::take(&mut link.held);
            // Fisher–Yates with the per-rank shuffle stream.
            for i in (1..held.len()).rev() {
                let j = self.shuffle.gen_range(0..=i);
                held.swap(i, j);
            }
            for msg in held {
                // Exited peers discard (see `transmit`): an endpoint is
                // only dropped once its rank needs nothing more.
                let _ = link.tx.send(msg);
            }
        }
    }

    /// Non-blocking receive. `None` means "nothing available right now"
    /// (or every sender is gone — termination is protocol-level, so the
    /// two cases need no distinction here).
    pub(crate) fn try_recv(&mut self) -> Option<T> {
        self.rx.try_recv().ok()
    }
}

impl<T> Drop for Endpoint<T> {
    fn drop(&mut self) {
        // Held messages are never silently lost: protocols flush before
        // dropping, and this backstop catches protocol bugs in tests.
        // (Skipped while unwinding so a failing assertion elsewhere is
        // not turned into a double-panic abort.)
        if !std::thread::panicking() {
            debug_assert!(
                self.links.iter().all(|l| l.held.is_empty()),
                "rank {} endpoint dropped with undelivered held messages — \
                 missing flush() before exit",
                self.rank
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(config: &TransportConfig, ranks: usize) -> Vec<Endpoint<u64>> {
        Endpoint::mesh(config, ranks)
    }

    fn drain(ep: &mut Endpoint<u64>) -> Vec<u64> {
        let mut got = Vec::new();
        while let Some(v) = ep.try_recv() {
            got.push(v);
        }
        got
    }

    #[test]
    fn perfect_mesh_is_fifo_and_lossless() {
        let mut eps = cell(&TransportConfig::Perfect, 2);
        let (mut a, mut b) = (eps.remove(0), eps.remove(0));
        for v in 0..100 {
            a.send(1, v, v);
        }
        a.flush();
        assert_eq!(drain(&mut b), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn self_link_works() {
        let mut eps = cell(&TransportConfig::Perfect, 1);
        let mut a = eps.remove(0);
        a.send(0, 7, 7);
        assert_eq!(a.try_recv(), Some(7));
        assert_eq!(a.try_recv(), None);
    }

    #[test]
    fn faulty_drops_are_bounded_per_key() {
        let f = FaultConfig { drop_p: 1.0, ..FaultConfig::drops_only(1) };
        let mut eps = cell(&TransportConfig::Faulty(f), 2);
        let (mut a, mut b) = (eps.remove(0), eps.remove(0));
        // With drop_p = 1, attempts 0..drop_cap all drop; attempt
        // drop_cap must deliver.
        for _ in 0..f.drop_cap {
            a.send(1, 42, 9);
            a.flush();
            assert_eq!(drain(&mut b), Vec::<u64>::new());
        }
        a.send(1, 42, 9);
        a.flush();
        assert_eq!(drain(&mut b), vec![9]);
    }

    #[test]
    fn control_class_never_drops() {
        let f = FaultConfig { drop_p: 1.0, ..FaultConfig::chaos(3) };
        let mut eps = cell(&TransportConfig::Faulty(f), 2);
        let (mut a, mut b) = (eps.remove(0), eps.remove(0));
        for v in 0..200 {
            a.send_control(1, v, v);
        }
        a.flush();
        let got = drain(&mut b);
        // Everything arrives at least once, dups allowed.
        let set: std::collections::BTreeSet<u64> = got.iter().copied().collect();
        assert_eq!(set, (0..200).collect());
        assert!(got.len() >= 200);
    }

    #[test]
    fn fault_schedule_reproduces_from_seed() {
        let run = |seed: u64| {
            let f = FaultConfig::chaos(seed);
            let mut eps = cell(&TransportConfig::Faulty(f), 2);
            let (mut a, mut b) = (eps.remove(0), eps.remove(0));
            for v in 0..500 {
                a.send(1, v, v);
            }
            a.flush();
            drain(&mut b)
        };
        assert_eq!(run(11), run(11), "delivery schedule must replay exactly");
        // Each key is sent once, so the sorted delivery names exactly the
        // dropped and the duplicated keys, whatever the release order.
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_ne!(sorted(run(11)), sorted(run(12)), "different seed, different faults");
    }

    #[test]
    fn chaos_injects_every_fault_kind() {
        let f = FaultConfig::chaos(5);
        let mut eps = cell(&TransportConfig::Faulty(f), 2);
        let (mut a, mut b) = (eps.remove(0), eps.remove(0));
        for v in 0..400 {
            a.send(1, v, v);
        }
        a.flush();
        let got = drain(&mut b);
        // Each key is sent once: a dropped one never arrives, a
        // duplicated one arrives more than once.
        let mut copies = [0u32; 400];
        for &v in &got {
            copies[v as usize] += 1;
        }
        assert!(copies.contains(&0), "no drops injected");
        assert!(copies.iter().any(|&c| c > 1), "no dups injected");
        // Delay and reordering: the received sequence is not sorted.
        assert!(got.windows(2).any(|w| w[0] > w[1]), "no reordering observed");
    }

    #[test]
    fn flush_releases_everything() {
        let f = FaultConfig { delay_p: 1.0, ..FaultConfig::dup_reorder_only(9) };
        let f = FaultConfig { dup_p: 0.0, ..f };
        let mut eps = cell(&TransportConfig::Faulty(f), 2);
        let (mut a, mut b) = (eps.remove(0), eps.remove(0));
        for v in 0..(f.delay_cap as u64) {
            a.send(1, v, v);
        }
        // All parked (buffer exactly at capacity): nothing on the wire.
        assert_eq!(drain(&mut b), Vec::<u64>::new());
        a.flush();
        let mut got = drain(&mut b);
        got.sort_unstable();
        assert_eq!(got, (0..f.delay_cap as u64).collect::<Vec<_>>());
    }
}
