//! A bench-owned copy of the scalar checkpointed trial loop
//! (`fic::experiment::run_trial_checkpointed_observed_with`), call for
//! call, with the node half, the plant half and the settle check timed
//! on a sample of ticks.
//!
//! The copy exists because the library loop calls `System::tick`,
//! which hides its two halves. Every replicated trial is compared with
//! the library's result for the same pair — stop time, simulated
//! milliseconds, per-assertion check counts and the trial itself — so
//! the copy cannot drift from the library without failing the run.

use std::time::Instant;

use arrestor::{SettleDetector, Snapshot};
use fic::experiment::TrialExecution;
use fic::{Protocol, Trial};
use memsim::BitFlip;

use crate::workload::Rng;

/// Mean ticks between timed ticks.
const SAMPLE_EVERY: u64 = 64;

/// Accumulated sampled costs, nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Costs {
    /// Timed `tick_nodes` calls and their total.
    pub node: (u64, f64),
    /// Timed `tick_plant` calls (sensor sampling included) and their
    /// total.
    pub plant: (u64, f64),
    /// Timed `SettleDetector::check` calls and their total.
    pub settle: (u64, f64),
    /// Every `Snapshot::resume` and the total.
    pub resume: (u64, f64),
    /// Cost of one timer read, subtracted from each timed interval.
    pub timer_ns: f64,
    /// Whole replicated trials: count and total, ns.
    pub trial: (u64, f64),
    /// Simulated milliseconds of the replicated trials.
    pub simulated_ms: u64,
}

impl Costs {
    /// Fresh accumulators with the timer overhead calibrated.
    pub fn new() -> Self {
        Costs {
            timer_ns: timer_overhead_ns(),
            ..Costs::default()
        }
    }

    fn add(slot: &mut (u64, f64), ns: f64) {
        slot.0 += 1;
        slot.1 += ns;
    }

    /// Mean of one accumulator, ns.
    pub fn mean(slot: (u64, f64)) -> f64 {
        slot.1 / slot.0.max(1) as f64
    }
}

/// Median interval between two back-to-back `Instant::now` reads, ns:
/// what a timed interval adds to the work inside it.
fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..4096)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs one trial through the copied loop. Returns the trial, the
/// execution facts the library reports, and adds sampled costs to
/// `costs`; `rng` spaces the timed ticks (gaps uniform in
/// 1..2·`SAMPLE_EVERY`, so timing never aliases with the settle
/// detector's capture stride).
pub fn run_trial(
    protocol: &Protocol,
    flip: BitFlip,
    prefix: &Snapshot,
    analytic_settle: bool,
    costs: &mut Costs,
    rng: &mut Rng,
) -> (Trial, TrialExecution) {
    let timer = costs.timer_ns;
    let timed = |start: Instant| (start.elapsed().as_nanos() as f64 - timer).max(0.0);

    let trial_start = Instant::now();
    let start = Instant::now();
    let mut system = prefix.resume();
    Costs::add(&mut costs.resume, start.elapsed().as_nanos() as f64);
    let resumed_at = system.time_ms();
    let period = protocol.injection_period_ms.max(1);
    let mut settle =
        SettleDetector::new(&system, Some(flip), period).with_analytic(analytic_settle);

    let mut next_sample = 1 + rng.next_u64() % (2 * SAMPLE_EVERY - 1);
    let mut settle_stop_ms = None;
    while system.time_ms() < protocol.observation_ms {
        let t = system.time_ms();
        next_sample -= 1;
        let sampled = next_sample == 0;
        if sampled {
            next_sample = 1 + rng.next_u64() % (2 * SAMPLE_EVERY - 1);
        }
        let settled = if sampled {
            let start = Instant::now();
            let settled = settle.check(&system);
            Costs::add(&mut costs.settle, timed(start));
            settled
        } else {
            settle.check(&system)
        };
        if settled {
            settle_stop_ms = Some(t);
            break;
        }
        if t > 0 && t.is_multiple_of(period) {
            system.inject(flip);
        }
        if sampled {
            let t0 = Instant::now();
            let sensors = system.sensors();
            let t1 = Instant::now();
            system.tick_nodes(&sensors);
            let t2 = Instant::now();
            system.tick_plant(&sensors);
            let t3 = Instant::now();
            let ns = |a: Instant, b: Instant| ((b - a).as_nanos() as f64 - timer).max(0.0);
            Costs::add(&mut costs.node, ns(t1, t2));
            Costs::add(&mut costs.plant, ns(t0, t1) + ns(t2, t3));
        } else {
            let sensors = system.sensors();
            system.tick_nodes(&sensors);
            system.tick_plant(&sensors);
        }
    }

    let stopped_at = system.time_ms();
    Costs::add(&mut costs.trial, trial_start.elapsed().as_nanos() as f64);
    costs.simulated_ms += stopped_at - resumed_at;
    let execution = TrialExecution {
        settle_stop_ms,
        settle_proof: settle.proof(),
        settle_captures: settle.captures(),
        simulated_ms: stopped_at - resumed_at,
        skipped_ms: resumed_at + protocol.observation_ms.saturating_sub(stopped_at),
        ea_checks: system.master().detectors().check_counts(),
    };
    let outcome = system.finish();
    let mut per_ea_first_ms = [None; 7];
    for event in &outcome.detections {
        let ea = event.monitor.0;
        if ea < per_ea_first_ms.len() && per_ea_first_ms[ea].is_none() {
            per_ea_first_ms[ea] = Some(event.at);
        }
    }
    let trial = Trial {
        failed: outcome.verdict.failed(),
        per_ea_first_ms,
        first_injection_ms: period,
        final_distance_m: outcome.verdict.final_distance_m,
    };
    (trial, execution)
}
