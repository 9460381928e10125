//! The virtual-time end of the worker core: every worker's [`Core`] on
//! one thread, stepped batch by batch against a clock that jumps to the
//! earliest due work — no sleeping, no channel, no thread.
//!
//! Each worker's mailbox is a FIFO of [`Mail`]. A worker is *ready* when
//! it has mail or its next work is due; of the ready workers, a
//! scheduler seeded from the run's seed picks which one runs its next
//! batch and where that batch is cut — how much of the waiting mail it
//! takes in, which on threads is how much had arrived by the time the
//! worker looked. When no worker is ready, the clock jumps to the
//! earliest instant one of them has work due. The run ends when
//! [`Shared::settled`] holds — the quiescence test of the threaded end —
//! or when `max_events` commands and timer firings have run, and is
//! judged by the same judge as a threaded runtime's shutdown.
//!
//! After every batch the driver checks that `settled()` reads exactly
//! what the run's state says: every mailbox, batch queue and delay queue
//! empty, no timer live, no request live, every live node idle. A
//! disagreement is a bug in the runtime's claim or idle-flag books, and
//! the run panics on it.

use std::collections::VecDeque;

use oc_sim::{ArrivalSchedule, Choices, FailurePlan, FaultScript, Protocol, Tape};

use crate::worker::{assemble, Core, Mail, Next, Shared, Targeted};
use crate::{judge, RuntimeConfig, RuntimeReport};

/// Plays a scripted run of the threaded runtime's workers in virtual
/// time on the calling thread and returns its report: the nodes of
/// `nodes` (one namespace, `nodes[k]` with identity `k + 1`) sharded
/// over `config.workers` cores exactly as [`crate::Runtime::start`]
/// shards them, `script` as [`crate::Runtime::start_scripted`] applies
/// it, every arrival of `schedule` and every event of `failures` filed
/// as [`crate::Runtime::schedule_workload`] and
/// [`crate::Runtime::schedule_failures`] file them. The run stops when
/// it settles (`drained`) or once `max_events` events have run.
///
/// A pure function of its arguments: the same call returns the same
/// report, `wall` (the virtual time at the cut) included. `config.seed`
/// seeds the workers' delay and fault streams and the scheduler. With
/// `tape`, those `W + 1` draw streams — worker `w`'s is stream `w`, the
/// scheduler's stream `W` — come from it instead (a blank tape lets the
/// seed draw), and it keeps what the run drew.
///
/// # Panics
///
/// Panics like [`crate::Runtime::start_scripted`], or if `settled()`
/// ever disagrees with the run's state after a batch.
#[must_use]
pub fn run_virtual<P: Protocol + Send + 'static>(
    config: RuntimeConfig,
    script: FaultScript,
    nodes: Vec<P>,
    schedule: &ArrivalSchedule,
    failures: &FailurePlan,
    max_events: u64,
    tape: Option<&mut Tape>,
) -> RuntimeReport {
    let (shared, config, shards) = assemble(config, script, vec![nodes]);
    let scheduler_seed = config.seed ^ 0x5DEE_CE66_D1CE_5EED;
    let mut run = VirtualRun {
        shared: &shared,
        cores: shards
            .into_iter()
            .enumerate()
            .map(|(me, slots)| Core::new(me, slots, &shared, &config, tape.as_deref()))
            .collect(),
        inboxes: (0..config.workers).map(|_| VecDeque::new()).collect(),
        due: vec![None; config.workers],
        ready: Vec::with_capacity(config.workers),
        now: 0,
        choices: tape.as_deref().map_or_else(
            || Choices::seeded(scheduler_seed),
            |tape| tape.choices(config.workers, scheduler_seed),
        ),
    };
    run.file(shared.arrivals(schedule).1);
    run.file(shared.failures(failures));
    let drained = run.play(max_events);
    if let Some(tape) = tape {
        tape.keep(run.cores.iter().map(Core::choices).chain([&run.choices]));
    }
    let VirtualRun { cores, mut inboxes, now, .. } = run;
    let exits = cores
        .into_iter()
        .zip(&mut inboxes)
        .map(|(mut core, inbox)| {
            core.stop(inbox.drain(..));
            core.into_exit()
        })
        .collect();
    judge(&shared, exits, now, drained)
}

/// W worker cores, their mailboxes and the one clock.
struct VirtualRun<'a, P: Protocol> {
    shared: &'a Shared,
    cores: Vec<Core<'a, P>>,
    inboxes: Vec<VecDeque<Mail<P::Msg>>>,
    /// Per worker, the instant its earliest delayed command or live timer
    /// falls due, as its last batch reported.
    due: Vec<Option<u64>>,
    /// Scratch: the workers ready at the current instant.
    ready: Vec<usize>,
    /// Nanoseconds since the epoch.
    now: u64,
    /// The scheduler's draw stream: which ready worker runs, and where
    /// its batch is cut.
    choices: Choices,
}

impl<P: Protocol + Send + 'static> VirtualRun<'_, P> {
    /// Files commands that are due later with their workers, claims
    /// first — what [`crate::Runtime`]'s `send_later` does over channels.
    fn file(&mut self, items: Vec<(u64, Targeted<P::Msg>)>) {
        for (inbox, burst) in self.inboxes.iter_mut().zip(self.shared.placement.bursts(items)) {
            if !burst.is_empty() {
                self.shared.rare_claims.0.take(burst.len() as u64);
                inbox.push_back(Mail::Many(burst));
            }
        }
    }

    /// What `settled()` must read: no mail anywhere and every core
    /// holding nothing.
    fn holds_nothing(&self) -> bool {
        self.inboxes.iter().all(VecDeque::is_empty) && self.cores.iter().all(Core::holds_nothing)
    }

    /// Runs batches until the run settles (`true`) or `max_events` have
    /// run, or nothing is left to run although the run has not settled
    /// (`false`).
    fn play(&mut self, max_events: u64) -> bool {
        loop {
            let settled = self.shared.settled();
            assert_eq!(
                settled,
                self.holds_nothing(),
                "settled() disagrees with the run's state at {} ns",
                self.now
            );
            if settled {
                return true;
            }
            if self.cores.iter().map(Core::events).sum::<u64>() >= max_events {
                return false;
            }
            let now = self.now;
            self.ready.clear();
            for (w, inbox) in self.inboxes.iter().enumerate() {
                if !inbox.is_empty() || self.due[w].is_some_and(|due| due <= now) {
                    self.ready.push(w);
                }
            }
            if self.ready.is_empty() {
                match self.due.iter().flatten().min() {
                    Some(&earliest) => {
                        self.now = earliest;
                        continue;
                    }
                    None => return false,
                }
            }
            let w = self.ready[self.choices.up_to(self.ready.len() as u64 - 1) as usize];
            self.step(w);
        }
    }

    /// Worker `w` runs one batch at the current instant. It takes in a
    /// scheduler-chosen prefix of its mail — at least one piece unless it
    /// runs for work that fell due — then, like the threaded end's
    /// top-up, no more once its batch is full.
    fn step(&mut self, w: usize) {
        let now = self.now;
        let VirtualRun { cores, inboxes, choices, due, .. } = self;
        let inbox = &mut inboxes[w];
        let least = usize::from(due[w].is_none_or(|due| due > now));
        let take = if inbox.is_empty() {
            0
        } else {
            least + choices.up_to((inbox.len() - least) as u64) as usize
        };
        let core = &mut cores[w];
        for taken in 0..take {
            if taken > 0 && !core.wants_mail() {
                break;
            }
            core.accept(inbox.pop_front().expect("counted"));
        }
        let next = core.run_batch(
            || now,
            |to, mail| {
                inboxes[to].push_back(mail);
                Ok(())
            },
        );
        due[w] = match next {
            Next::Wait(at) => at,
            Next::Stop => unreachable!("a virtual run sends no Stop"),
        };
    }
}
