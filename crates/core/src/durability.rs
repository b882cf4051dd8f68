//! The durable store's degrade/heal logic as one value that does no IO
//! and reads no clock (`durable` module docs, "Degraded durability and
//! healing"): time comes in with an event, so a test replays any heal
//! schedule with made-up instants.

use cloud_sim::time::SimTime;
use std::time::{Duration, Instant};

/// Heal backoff: after `n` failed heals of an episode the next one waits
/// `min(HEAL_RETRY_BASE · 2^n, HEAL_RETRY_CAP)`. The first runs at the
/// first tend after the surrender.
pub const HEAL_RETRY_BASE: Duration = Duration::from_millis(100);
/// Ceiling on the wait between two heal attempts.
pub const HEAL_RETRY_CAP: Duration = Duration::from_secs(10);

/// Whether a durable store is actually putting ops on disk right now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Appends flow to the WAL normally.
    #[default]
    Durable,
    /// The disk defeated bounded retry: ops are in-memory only until a
    /// heal succeeds (see the `durable` module docs).
    Degraded,
}

/// What happened, fed to [`DurabilityMachine::on`]; the instants are
/// the caller's `now`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// The WAL writer gave up, its durability frontier then.
    Surrendered(SimTime),
    Tend(Instant),
    HealSucceeded,
    HealFailed(Instant),
    Close,
}

/// The IO a transition asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Io {
    Idle,
    /// Revive the WAL at a fresh generation, accept appends again, then
    /// checkpoint; report the outcome as a heal event.
    Heal,
    /// A durable store's closing checkpoint.
    Checkpoint,
}

/// A degraded episode: the watermark it published — ops after it may
/// be memory-only — and its failed heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Episode {
    lost: SimTime,
    failures: u32,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum State {
    #[default]
    Durable,
    /// Appends are dropped; the next heal may run at the instant (`None`:
    /// at the next tend).
    Degraded(Episode, Option<Instant>),
    /// A heal is in flight; `true` once the writer surrendered again
    /// during it, when even a checkpoint that lands ends nothing.
    Healing(Episode, bool),
}

/// The degrade/heal state machine, counting episodes and the heals
/// that ended one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DurabilityMachine {
    state: State,
    pub(crate) degraded_transitions: u64,
    pub(crate) heals: u64,
}

impl DurabilityMachine {
    /// One transition. A surrender inside an episode keeps its
    /// watermark; a close heals whatever the backoff says.
    pub(crate) fn on(&mut self, event: Event) -> Io {
        use State::{Degraded, Durable, Healing};
        let (state, io) = match (self.state, event) {
            (Durable, Event::Surrendered(lost)) => {
                self.degraded_transitions += 1;
                (Degraded(Episode { lost, failures: 0 }, None), Io::Idle)
            }
            (Healing(ep, _), Event::Surrendered(_)) => (Healing(ep, true), Io::Idle),
            (Degraded(ep, due), Event::Tend(now)) if due.is_none_or(|due| now >= due) => {
                (Healing(ep, false), Io::Heal)
            }
            (Degraded(ep, _) | Healing(ep, _), Event::Close) => (Healing(ep, false), Io::Heal),
            (Durable, Event::Close) => (Durable, Io::Checkpoint),
            (Healing(_, false), Event::HealSucceeded) => {
                self.heals += 1;
                (Durable, Io::Idle)
            }
            // The disk took the checkpoint but the writer gave up
            // meanwhile: try again at the next tend.
            (Healing(ep, true), Event::HealSucceeded) => (Degraded(ep, None), Io::Idle),
            (Healing(mut ep, _), Event::HealFailed(now)) => {
                ep.failures = ep.failures.saturating_add(1);
                let wait = HEAL_RETRY_BASE.saturating_mul(2u32.saturating_pow(ep.failures));
                (Degraded(ep, Some(now + wait.min(HEAL_RETRY_CAP))), Io::Idle)
            }
            (state, _) => (state, Io::Idle),
        };
        self.state = state;
        io
    }

    /// The watermark: ops at or before it are on disk, later ones may be
    /// memory-only. `None` outside an episode.
    pub(crate) fn lost(&self) -> Option<SimTime> {
        match self.state {
            State::Durable => None,
            State::Degraded(ep, _) | State::Healing(ep, _) => Some(ep.lost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the store, its writer, its caller or the disk does next.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        /// An op is recorded: to disk if appends flow, else dropped.
        Record,
        /// The writer gives up (only while it has not).
        Surrender,
        /// A tend, the clock `HEAL_RETRY_BASE` later.
        TendSoon,
        /// A tend, the clock `HEAL_RETRY_CAP` later.
        TendLate,
        /// The heal in flight lands / fails.
        HealLands,
        HealFails,
        /// Close, its IO landing / failing; it ends the sequence.
        CloseLands,
        CloseFails,
    }

    const STEPS: [Step; 8] = [
        Step::Record,
        Step::Surrender,
        Step::TendSoon,
        Step::TendLate,
        Step::HealLands,
        Step::HealFails,
        Step::CloseLands,
        Step::CloseFails,
    ];

    /// The machine, the store driving it as `DataStore` does, and a
    /// model disk — beside what the spec says the machine must show.
    #[derive(Debug, Clone, Copy)]
    struct World {
        machine: DurabilityMachine,
        now: Instant,
        /// Ops recorded so far; op `t` (from 1) happened at second `t`.
        recorded: u64,
        /// Bit `t`: op `t` is on the model disk.
        disk: u64,
        writer_ok: bool,
        /// The writer's frontier: the last op it put on disk.
        durable_at: u64,
        /// The append mirror.
        dropping: bool,
        /// A heal's IO is in flight.
        healing: bool,
        closed: bool,
        // The spec, kept apart from the machine.
        lost: Option<u64>,
        failures: u32,
        due: Option<Instant>,
        lapsed: bool,
        episodes: u64,
        heals: u64,
    }

    /// The backoff after `failures` failed heals, by repeated doubling.
    fn wait_after(failures: u32) -> Duration {
        (0..failures).fold(HEAL_RETRY_BASE, |wait, _| (wait * 2).min(HEAL_RETRY_CAP))
    }

    impl World {
        fn new() -> World {
            World {
                machine: DurabilityMachine::default(),
                now: crate::test_epoch(),
                recorded: 0,
                disk: 0,
                writer_ok: true,
                durable_at: 0,
                dropping: false,
                healing: false,
                closed: false,
                lost: None,
                failures: 0,
                due: None,
                lapsed: false,
                episodes: 0,
                heals: 0,
            }
        }

        fn all_recorded(&self) -> u64 {
            (1..=self.recorded).fold(0, |bits, t| bits | 1 << t)
        }

        /// `DurableSink::observe`, and what the spec expects of it.
        fn observe(&mut self) -> bool {
            if self.dropping {
                return true;
            }
            if self.writer_ok {
                return false;
            }
            let durable_at = SimTime::from_secs(self.durable_at);
            assert_eq!(self.machine.on(Event::Surrendered(durable_at)), Io::Idle);
            self.dropping = self.machine.lost().is_some();
            if self.healing {
                self.lapsed = true;
            } else {
                (self.lost, self.failures, self.due) = (Some(self.durable_at), 0, None);
                self.episodes += 1;
            }
            true
        }

        /// Revive the writer and let appends flow: the start of a heal.
        fn revive(&mut self) {
            (self.writer_ok, self.dropping, self.healing, self.lapsed) = (true, false, true, false);
        }

        fn heal_done(&mut self, lands: bool) {
            self.healing = false;
            if lands {
                self.disk |= self.all_recorded();
                self.machine.on(Event::HealSucceeded);
                if self.lapsed {
                    self.due = None;
                } else {
                    assert_eq!(self.disk, self.all_recorded(), "the heal covers the window");
                    self.lost = None;
                    self.heals += 1;
                }
            } else {
                self.machine.on(Event::HealFailed(self.now));
                self.failures += 1;
                self.due = Some(self.now + wait_after(self.failures));
            }
            self.dropping = self.machine.lost().is_some();
        }

        fn tend(&mut self, by: Duration) {
            self.now += by;
            self.observe();
            let io = self.machine.on(Event::Tend(self.now));
            let due =
                self.lost.is_some() && !self.healing && self.due.is_none_or(|due| self.now >= due);
            assert_eq!(io == Io::Heal, due, "a heal runs exactly when due");
            assert!(matches!(io, Io::Idle | Io::Heal));
            if io == Io::Heal {
                self.revive();
            }
        }

        fn close(&mut self, lands: bool) {
            self.observe();
            let io = self.machine.on(Event::Close);
            let want = match self.lost {
                Some(_) => Io::Heal,
                None => Io::Checkpoint,
            };
            assert_eq!(
                io, want,
                "close heals a degraded store, whatever the backoff"
            );
            if io == Io::Heal {
                self.revive();
            }
            if lands {
                // The heal's checkpoint, or the plain one; then the marker.
                self.disk |= self.all_recorded();
            }
            self.closed = true;
        }

        /// Applies `step`, or returns `None` where it cannot happen.
        fn step(mut self, step: Step) -> Option<World> {
            match step {
                Step::Record => {
                    self.recorded += 1;
                    if !self.observe() {
                        self.disk |= 1 << self.recorded;
                        self.durable_at = self.recorded;
                    }
                }
                Step::Surrender if self.writer_ok => self.writer_ok = false,
                Step::TendSoon => self.tend(HEAL_RETRY_BASE),
                Step::TendLate => self.tend(HEAL_RETRY_CAP),
                Step::HealLands | Step::HealFails if self.healing => {
                    self.heal_done(step == Step::HealLands);
                }
                Step::CloseLands | Step::CloseFails if !self.healing => {
                    self.close(step == Step::CloseLands);
                }
                _ => return None,
            }
            self.check();
            Some(self)
        }

        fn check(&self) {
            let lost = self.machine.lost().map(SimTime::as_secs);
            assert_eq!(lost, self.lost, "the watermark moves only as the spec says");
            let promised = (1..=lost.unwrap_or(self.recorded)).fold(0, |b, t| b | 1 << t);
            assert_eq!(
                self.disk & promised,
                promised,
                "an op the watermark covers is lost"
            );
            assert_eq!(self.machine.degraded_transitions, self.episodes);
            assert_eq!(self.machine.heals, self.heals);
            if !self.healing {
                assert_eq!(
                    self.dropping,
                    self.lost.is_some(),
                    "appends flow iff durable"
                );
            }
        }
    }

    /// Every sequence of at most `depth` steps from `world` (a close ends
    /// one early); returns how many there are.
    fn enumerate(world: World, depth: usize) -> u64 {
        if depth == 0 || world.closed {
            return 1;
        }
        STEPS
            .iter()
            .filter_map(|&step| world.step(step))
            .map(|next| enumerate(next, depth - 1))
            .sum()
    }

    /// The machine against a model disk, over every sequence of nine
    /// steps (eight kinds): from a fresh store, and from an episode six failed heals
    /// deep, where the waits reach the cap. After every prefix the
    /// watermark is the writer's frontier at the surrender, covers only
    /// ops on disk and clears only at a heal that lands; a landed heal
    /// has every recorded op on disk; a heal runs exactly when due, the
    /// wait doubling to the cap; close heals a degraded store whatever
    /// the backoff, and a failed close still keeps the watermark's
    /// promise; the counters count episodes and landed heals.
    #[test]
    fn durability_machine_keeps_its_promises_over_every_sequence() {
        const DEPTH: usize = 9;
        let fresh = World::new();
        let mut deep = fresh
            .step(Step::Record)
            .and_then(|w| w.step(Step::Surrender));
        for _ in 0..6 {
            deep = deep.and_then(|w| w.step(Step::TendLate)?.step(Step::HealFails));
        }
        let deep = deep.expect("six failed heals");
        assert_eq!((deep.failures, deep.lost), (6, Some(1)));
        let sequences = enumerate(fresh, DEPTH) + enumerate(deep, DEPTH);
        assert_eq!(sequences, 1_531_621);
    }
}
