//! Versioned controller→engine knob hand-off.

use zi_sync::{Condvar, Mutex};

use crate::Knobs;

/// A versioned publish cell carrying [`Knobs`] from the controller
/// (rank 0, after its optimizer step) to every rank engine.
///
/// The hazard this type exists to remove is the *torn strategy read*: a
/// knob update touches four fields, and a rank that read depth from
/// one update and the write-behind bound from another could run a
/// combination the controller never chose (e.g. depth 8 with a
/// 1-deep write window — a latent deadlock-by-back-pressure). The
/// optimizer placement knob travels here too: each engine re-tiers
/// drifted shards at its next step. Every
/// publish therefore replaces the whole tuple under one lock and bumps
/// a version; every read snapshots `(version, knobs)` under the same
/// lock, so readers observe exactly the published sequence.
///
/// Versions are strictly increasing and gaps are legal from a reader's
/// point of view: a slow rank that misses intermediate publishes just
/// jumps to the newest tuple (knobs are absolute settings, not deltas).
/// The `knob-cell-handoff` zi-check harness model-checks this protocol
/// — consistent snapshots, monotonic versions, no lost wakeup in
/// [`KnobCell::wait_past`].
pub struct KnobCell {
    slot: Mutex<(u64, Knobs)>,
    published: Condvar,
}

impl KnobCell {
    /// A cell holding `initial` at version 1.
    pub fn new(initial: Knobs) -> Self {
        KnobCell { slot: Mutex::new((1, initial)), published: Condvar::new() }
    }

    /// Atomically replace the knobs, bump the version, and wake every
    /// waiter. Returns the new version.
    pub fn publish(&self, knobs: Knobs) -> u64 {
        let mut slot = self.slot.lock();
        slot.0 += 1;
        slot.1 = knobs;
        let version = slot.0;
        drop(slot);
        self.published.notify_all();
        version
    }

    /// Snapshot the current `(version, knobs)` tuple.
    pub fn read(&self) -> (u64, Knobs) {
        *self.slot.lock()
    }

    /// Snapshot only if something newer than `seen` has been published.
    /// The polling path ranks use between steps: cheap no-op when the
    /// controller held still.
    pub fn read_if_newer(&self, seen: u64) -> Option<(u64, Knobs)> {
        let slot = self.slot.lock();
        (slot.0 > seen).then_some(*slot)
    }

    /// Block until a version newer than `seen` is published, then
    /// snapshot it. Used by consumers that must not run with stale
    /// knobs (and by the zi-check lost-wakeup harness).
    pub fn wait_past(&self, seen: u64) -> (u64, Knobs) {
        let mut slot = self.slot.lock();
        while slot.0 <= seen {
            self.published.wait(&mut slot);
        }
        *slot
    }
}

impl std::fmt::Debug for KnobCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (v, k) = self.read();
        write!(f, "KnobCell(v{v}: {k})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zi_sync::Arc;

    fn knobs(d: usize) -> Knobs {
        Knobs {
            step_pipeline_depth: d,
            prefetch_window: 2 * d,
            write_behind: 3 * d,
            optimizer_cpu_permille: 125 * d,
        }
    }

    #[test]
    fn publish_bumps_version_and_read_if_newer_filters() {
        let cell = KnobCell::new(knobs(1));
        let (v0, k0) = cell.read();
        assert_eq!((v0, k0), (1, knobs(1)));
        assert!(cell.read_if_newer(v0).is_none(), "nothing new yet");
        let v1 = cell.publish(knobs(2));
        assert!(v1 > v0);
        let (v, k) = cell.read_if_newer(v0).expect("publish must be visible");
        assert_eq!((v, k), (v1, knobs(2)));
        assert!(cell.read_if_newer(v1).is_none(), "already seen");
    }

    #[test]
    fn readers_skip_missed_versions_to_the_newest() {
        let cell = KnobCell::new(knobs(1));
        cell.publish(knobs(2));
        cell.publish(knobs(3));
        let (_, k) = cell.read_if_newer(1).unwrap();
        assert_eq!(k, knobs(3), "a lagging reader lands on the newest tuple");
    }

    #[test]
    fn wait_past_wakes_on_publish() {
        let cell = Arc::new(KnobCell::new(knobs(1)));
        let waiter = {
            let cell = Arc::clone(&cell);
            zi_sync::thread::spawn(move || cell.wait_past(1))
        };
        // The waiter may or may not already be parked; notify_all inside
        // publish covers both orders.
        cell.publish(knobs(5));
        let (v, k) = waiter.join().expect("waiter");
        assert_eq!(k, knobs(5));
        assert!(v > 1);
    }
}
