//! Checkpointed execution: freezing a [`System`] mid-run and detecting
//! steady-state recurrence so a trial can finish early.
//!
//! Two cooperating pieces live here:
//!
//! * [`Snapshot`] — a frozen copy of the *complete* simulation state
//!   (master node with RAM + stack + kernel + detectors, slave node,
//!   plant, failure monitor, readout, trace). Campaigns snapshot the
//!   fault-free prefix of a test case once and fork every bit-flip
//!   trial of that case from the snapshot instead of replaying it from
//!   t = 0. Forking is a plain deep copy, so a resumed system is
//!   bit-identical to one that simulated the prefix itself.
//!
//! * [`SettleDetector`] — a steady-state recurrence detector. Once the
//!   aircraft is arrested, the closed-loop system converges to a
//!   periodically forced fixpoint: the plant is frozen, the controller
//!   idles, and the only remaining stimulus is the strictly periodic
//!   re-injection of the same bit flip. When the detector proves that
//!   the state at time `t` recurs from time `t − d` (for an aligned
//!   distance `d`), every future tick replays the interval
//!   `(t − d, t]` forever, so nothing observable — verdict, detection
//!   log firsts, final distance — can change any more and the trial
//!   may stop at `t` with the exact outputs of a full-window run.
//!
//! # Soundness of the recurrence argument
//!
//! The simulated system is deterministic, and a tick is a function of
//! the state alone — with three exceptions that carry *absolute time*
//! and therefore can never literally recur inside one observation
//! window: the master's `mscnt` clock, EA6's previous sample (a copy
//! of `mscnt`), and CALC's `prev_mscnt` stack local (another copy).
//! The detector therefore compares:
//!
//! 1. **Invariant projection** — every byte of state *except* those
//!    three cells, bit-exact: application RAM, stack, the slave's words
//!    (minus its write-only clock), plant state and failure-monitor
//!    accumulators (as `f64` bit patterns), kernel control-flow state,
//!    node latches, the inter-node mailbox, and each signal monitor's
//!    mode and previous sample.
//! 2. **The translation trio** — `mscnt`, EA6's previous and
//!    `prev_mscnt` may differ by a joint offset δ (mod 2¹⁶), because
//!    the only reader of absolute clock values is EA6's increment test
//!    `(s − s′) mod 2¹⁶ = 1`, and CALC's `dt = mscnt − prev_mscnt`;
//!    both are invariant under a joint translation.
//!
//! Four matching rules keep the translation sound in every corner:
//!
//! * When the injected flip targets the `mscnt` cell itself, the XOR
//!   does not commute with translation in general — but writing
//!   `v = H·2^(b+1) + D` (bit `b` is the flipped bit), `D` evolves
//!   deterministically (increments carry into `H` exactly when
//!   `D = 2^(b+1) − 1`; the XOR never carries), so two states whose
//!   clocks differ by `δ ≡ 0 (mod 2^(b+1))` stay exactly δ apart
//!   forever. Offsets not divisible by `2^(b+1)` are rejected.
//! * `prev_mscnt` must either carry the *same* offset δ (it is a
//!   sample of the clock), or be raw-equal while provably unread: the
//!   only reader is the ARRESTING-mode velocity-estimation pass, so a
//!   raw-stale sample is accepted only if the system mode is not
//!   ARRESTING at the capture, the flip cannot corrupt `sys_mode`
//!   (mode transitions are monotone ARMED → ARRESTING → STOPPED, so
//!   equal endpoint modes exclude a mid-period ARRESTING excursion),
//!   or the background process is halted/hung entirely.
//! * A δ-offset `prev_mscnt` is rejected when the flip targets the
//!   `prev_mscnt` bytes (the XOR would break the offset).
//! * **Retired clock**: for a clock-targeting flip, the divisibility
//!   requirement makes high-bit recurrences unreachable inside one
//!   window (δ would have to exceed it). But once `sys_mode` is
//!   STOPPED, CALC's velocity/stall pass — the only clock reader
//!   besides EA6 — can never run again, and STOPPED is absorbing
//!   (only the ARMED/ARRESTING arms write the mode variable, and this
//!   flip cannot). If EA6's first detection is also already in the
//!   log, every future EA6 check outcome is output-irrelevant — the
//!   log holds only per-mechanism *firsts* — so the whole trio is
//!   ignored and any offset matches.
//!
//! Excluded from the projection on purpose, with why each is safe:
//! the detection-event log (one first detection per mechanism, never
//! rewritten once logged and read only by [`System::finish`]; by
//! recurrence, any mechanism that would fire for the first time after
//! `t` already fired inside `(t − d, t]`), the monitors'
//! check/violation counters (statistics, never read back), the
//! slave's `mscnt` (incremented, never read), and the plant's
//! `time_ms` (bookkeeping, never fed back).
//!
//! # The analytic absorbing-band relaxation
//!
//! The two valve pressures are *not* part of the invariant byte
//! projection. They are compared separately, under either of two
//! rules: bit-exact equality (the historical behaviour, always
//! accepted), or, when [`SettleDetector::with_analytic`] is enabled,
//! the absorbing-band bound of [`crate::settle`]: if the valve commands
//! have been constant since before the older capture
//! ([`System::tick_nodes`] tracks the last change instant) and, per
//! valve, the padded hull of both pressures and the effective command
//! lies inside a single 0.01 bar sensor cell, then the pressure trajectory was inside that cell for the
//! whole matched interval and remains inside it forever (first-order
//! contraction towards the command, see `crate::settle` and
//! `docs/PROOFS.md`). The controller only ever reads the quantised
//! cell, the failure verdict never reads pressures at all, and the
//! failure accumulators are frozen post-arrest — so digital recurrence
//! plus an absorbing band proves the outputs final even though the
//! `f64` pressure bits never recur (for a zero command the decay
//! `p ← p·(149/150)` needs ≳110 s to reach 0 — the settle tail
//! PERFORMANCE.md measures). Such matches are reported as
//! [`SettleProof::AnalyticBand`].
//!
//! # The record-final stop
//!
//! A recurrence proves the *whole* state final; the record only needs
//! its verdict and first detections final. With the analytic
//! relaxation enabled, each due check after arrest first asks
//! [`crate::record_final::is_final`] whether the verdict is frozen, the
//! set point is absorbing, the schedule is nominal and every mechanism
//! that has not fired carries a certificate that it never will. If so
//! the trial stops there with no state proof: [`SettleDetector::check`]
//! returns `true` while [`SettleDetector::proof`] stays `None`. Callers
//! report that pairing (a stop instant without a proof) as a
//! record-final stop. The argument is in `docs/PROOFS.md`
//! §Record-final certificates.
//!
//! # The command-final stop
//!
//! Before arrest the record still needs the final distance, so no
//! check proves it final. With the analytic relaxation enabled, each
//! due check while the aircraft rolls asks
//! [`crate::record_final::commands_final`] whether the node can no
//! longer change the valve commands or log a detection. If so the trial
//! stops there, again with no state proof, and [`System::finish`]
//! completes the window on the plant alone; callers tell the two
//! proof-less stops apart by whether the plant had arrested at the
//! stop. The argument is in `docs/PROOFS.md` §Command-final tails.
//!
//! Captures only start once the failure monitor has seen an arrested
//! plant: while the aircraft still rolls, `distance_m` strictly
//! increases every tick, so no earlier state can recur and
//! fingerprinting would be wasted work.
//!
//! # The one run shape that stops early
//!
//! Every argument above is made for the paper's detection-only run: no
//! per-tick trace, no readout capture and no recovery write-back
//! ([`crate::RunConfig::stops_early`]). A trace or a readout records
//! state an early stop would leave out, and a repair writes absolute
//! values the translation rule does not cover, so for any other run the
//! detector disables itself and the run executes its full window.

use std::collections::VecDeque;

use ea_core::{Millis, Sample};
use memsim::{BitFlip, Region};

use crate::consts::{mode, slot};
use crate::kernel::KernelState;
use crate::reach;
use crate::system::System;

/// A frozen, resumable copy of a [`System`] mid-run.
///
/// Created by [`System::checkpoint`]. [`Snapshot::resume`] hands back
/// an independent system that continues from the captured instant;
/// because the simulation is deterministic, a resumed run is
/// bit-identical to one that executed the prefix itself.
#[derive(Debug, Clone)]
pub struct Snapshot {
    system: System,
}

impl Snapshot {
    pub(crate) fn of(system: &System) -> Self {
        Snapshot {
            system: system.clone(),
        }
    }

    /// A fresh system continuing from the frozen instant.
    pub fn resume(&self) -> System {
        self.system.clone()
    }

    /// The simulation time at which the snapshot was taken, ms.
    pub fn time_ms(&self) -> Millis {
        self.system.time_ms()
    }

    /// The test case the frozen system was engaged with.
    pub fn case(&self) -> simenv::TestCase {
        self.system.case()
    }
}

/// How many aligned captures the detector keeps for comparison.
///
/// A deep ring catches recurrences whose period is a multiple of the
/// capture stride: scheduler-slot drift realigns within 7 strides, and
/// the velocity-estimation cadence (every ≥ 100 ms of ARRESTING time)
/// beats against the injection period with an lcm of a few strides.
const RING: usize = 64;

/// Unmatched captures at one stride before the stride doubles.
///
/// Decoupled from [`RING`]: backoff wants to trigger quickly (a state
/// that has missed this many aligned captures is converging slowly, so
/// cheapen the sampling), while the ring wants to stay deep (old
/// captures are what long-period recurrences match against).
const BACKOFF_MISSES: u32 = 32;

/// Which argument proved a run's outputs final (telemetry: the
/// settle detector's effectiveness is invisible without knowing *why*
/// runs stop, not just that they do).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleProof {
    /// A hung node over an arrested plant: doubly frozen.
    FrozenHung,
    /// The invariant projection and the clock trio recurred exactly
    /// (offset δ = 0).
    ExactRecurrence,
    /// Recurrence up to a joint translation of the clock trio
    /// (δ ≠ 0).
    TranslatedRecurrence,
    /// The retired-clock rule: `sys_mode` STOPPED on both sides of a
    /// clock-targeting flip with EA6's first detection logged.
    RetiredClock,
    /// Digital recurrence with the pressures proven inside an
    /// absorbing sensor cell by the analytic convergence bound
    /// ([`crate::settle`]) instead of recurring bit-exactly.
    AnalyticBand,
}

impl SettleProof {
    /// Stable metric-label form (`frozen_hung`, `exact`, …).
    pub const fn label(self) -> &'static str {
        match self {
            SettleProof::FrozenHung => "frozen_hung",
            SettleProof::ExactRecurrence => "exact",
            SettleProof::TranslatedRecurrence => "translated",
            SettleProof::RetiredClock => "retired_clock",
            SettleProof::AnalyticBand => "analytic_band",
        }
    }
}

/// Steady-state recurrence detector for one run.
///
/// Construct once per trial, then call [`SettleDetector::check`] at
/// the top of every tick loop iteration (before injecting). A `true`
/// return is a proof that the run's observable outputs are final:
/// the caller may stop ticking and call [`System::finish`] directly.
#[derive(Debug)]
pub struct SettleDetector {
    /// Next instant at which there is anything to do; `u64::MAX` when
    /// the detector is disabled for this run. The tick-loop hot path
    /// is a single compare against this.
    next_check_ms: u64,
    /// Base alignment: lcm(slot cycle, injection period), ms.
    period_ms: u64,
    /// Current capture stride (a multiple of `period_ms`).
    stride_ms: u64,
    /// Unmatched captures at the current stride (backoff trigger).
    misses_at_stride: u32,
    ring: VecDeque<Fingerprint>,
    mscnt_addr: usize,
    prev_mscnt_addr: usize,
    ea6_name: &'static str,
    flip_hits_mscnt: bool,
    /// `2^(b+1)` for the flipped clock bit `b`; 1 when no clock flip.
    mscnt_modulus: u32,
    flip_hits_prev_mscnt: bool,
    flip_hits_sys_mode: bool,
    /// Whether the analytic stops ([`SettleDetector::with_analytic`])
    /// are on.
    analytic: bool,
    /// What the trial's flip can reach after arrest (record-final
    /// certificates).
    reach: crate::record_final::FlipReach,
    /// The trial's flip: a command-final stop needs the system to have
    /// recorded it, since [`System::finish`] continues on that record.
    flip: Option<BitFlip>,
    /// Fingerprints taken so far (telemetry: fingerprinting cost).
    captures: u64,
    /// What proved the run settled, once [`SettleDetector::check`]
    /// has returned `true`.
    proof: Option<SettleProof>,
}

/// One aligned state capture: an invariant byte projection (prefixed
/// by an FNV-1a hash for cheap rejection) plus the translation trio
/// and the guard data the matching rules need.
#[derive(Debug)]
struct Fingerprint {
    hash: u64,
    /// Capture time, ms — the recurrence distance is the difference of
    /// two capture times.
    at_ms: u64,
    bytes: Vec<u8>,
    kernel: KernelState,
    mscnt: u16,
    ea6_previous: Option<Sample>,
    prev_mscnt: u16,
    sys_mode: u16,
    /// Whether EA6's first detection was already logged at capture time
    /// (monotone: a logged first detection is never removed).
    ea6_decided: bool,
    /// Valve pressures as `f64` bit patterns — outside the invariant
    /// projection so [`SettleDetector::matches`] can accept either
    /// bit-exact recurrence or the analytic absorbing band.
    p_master_bits: u64,
    p_slave_bits: u64,
    /// Valve commands at capture (duplicated from `bytes` in value
    /// form: the band check integrates towards them).
    cmd_master_pu: u16,
    cmd_slave_pu: u16,
    /// Instant since which the command pair has been constant
    /// ([`System::cmds_stable_since_ms`]) — the band argument needs
    /// constancy over the whole matched interval.
    cmds_stable_since_ms: u64,
}

impl SettleDetector {
    /// A detector for a run of `system`, injected with `flip` (None
    /// for a fault-free run) every `injection_period_ms`.
    ///
    /// The detector starts disabled, and the run executes its full
    /// window, unless the run may stop early
    /// ([`crate::RunConfig::stops_early`]): a trace, a readout capture or
    /// a recovery write-back needs every tick of the node.
    pub fn new(system: &System, flip: Option<BitFlip>, injection_period_ms: u64) -> Self {
        let mscnt_addr = system.master().signals().mscnt.addr();
        let prev_mscnt_addr = system.master().calc_locals().prev_mscnt.addr();
        // The RAM row a flip hits and the flipped bit's index in it, off
        // the reach table.
        let ram_hit = flip.filter(|f| f.region == Region::AppRam).and_then(|f| {
            reach::ram_row(f.addr).map(|(row, offset)| (row, offset * 8 + usize::from(f.bit)))
        });
        let (flip_hits_mscnt, mscnt_modulus) = match ram_hit {
            Some((row, bit)) if row.has(reach::CLOCK) => (true, 1u32 << (bit + 1)),
            _ => (false, 1),
        };
        let period_ms = lcm(u64::from(slot::COUNT), injection_period_ms.max(1));
        SettleDetector {
            next_check_ms: if system.config().stops_early() {
                0
            } else {
                u64::MAX
            },
            period_ms,
            stride_ms: period_ms,
            misses_at_stride: 0,
            ring: VecDeque::with_capacity(RING),
            mscnt_addr,
            prev_mscnt_addr,
            ea6_name: crate::detectors::EaId::Ea6.signal_name(),
            flip_hits_mscnt,
            mscnt_modulus,
            flip_hits_prev_mscnt: flip.is_some_and(|f| {
                f.region == Region::Stack
                    && (f.addr == prev_mscnt_addr || f.addr == prev_mscnt_addr + 1)
            }),
            flip_hits_sys_mode: ram_hit.is_some_and(|(row, _)| row.name == "sys_mode"),
            analytic: false,
            reach: crate::record_final::FlipReach::of(flip, injection_period_ms),
            flip,
            captures: 0,
            proof: None,
        }
    }

    /// Enables (or disables) the analytic stops: the absorbing-band
    /// relaxation — pressure recurrence may then be proven by the
    /// convergence bound of [`crate::settle`] instead of bit-exact
    /// equality, which stops trials seconds earlier and gives
    /// never-recurring decays (e.g. towards a zero command) a sound
    /// early verdict — and the record-final and command-final stops
    /// (module docs). Off by default, so a detector without it stops on
    /// exact recurrence only; every campaign enables it. Has no effect
    /// on a detector that disabled itself ([`SettleDetector::new`]).
    #[must_use]
    pub const fn with_analytic(mut self, enabled: bool) -> Self {
        self.analytic = enabled;
        self
    }

    /// Fingerprints taken so far.
    pub const fn captures(&self) -> u64 {
        self.captures
    }

    /// The next simulation instant at which [`SettleDetector::check`]
    /// does any work. Every call before this instant takes the
    /// side-effect-free fast path and returns `false`, so a batch
    /// driver that skips those calls entirely (`arrestor::batch`)
    /// observes and mutates exactly the same state as one that makes
    /// them — the gate is what makes lazy environment sync in the
    /// lockstep executor sound.
    pub const fn next_check_ms(&self) -> u64 {
        self.next_check_ms
    }

    /// The argument that proved the run settled, once
    /// [`SettleDetector::check`] has returned `true`; `None` while the
    /// run is still live, and also after a record-final or command-final
    /// stop (module docs), which prove the record final but no state
    /// recurrence.
    pub const fn proof(&self) -> Option<SettleProof> {
        self.proof
    }

    /// Observes the system at the top of a tick-loop iteration (before
    /// any injection). Returns `true` once the run's observable
    /// outputs are provably final.
    pub fn check(&mut self, system: &System) -> bool {
        let t = system.time_ms();
        // Fast path: between scheduled capture points (and for the
        // whole run when disabled) there is nothing to observe. One
        // branch per tick keeps the detector invisible on the hot
        // loop; everything below runs at most once per stride.
        if t < self.next_check_ms {
            return false;
        }
        // A hung node over an arrested plant is doubly frozen: no
        // module (or assertion) will ever run again and the failure
        // accumulators cannot move. Checking only at stride points
        // delays the exit by under one stride of a frozen system,
        // which cannot change any output.
        if system.master().hung() && system.failmon().arrested() {
            self.proof = Some(SettleProof::FrozenHung);
            return true;
        }
        if t == 0 || !t.is_multiple_of(self.stride_ms) {
            self.next_check_ms = (t / self.stride_ms + 1) * self.stride_ms;
            return false;
        }
        self.next_check_ms = t + self.stride_ms;
        // While the aircraft rolls, distance strictly increases: no
        // recurrence is possible and capturing would be wasted work. The
        // node half may still stop once its commands are final:
        // `System::finish` then completes the window on the plant alone.
        if !system.failmon().arrested() {
            return self.analytic && system.injected() == self.flip && system.commands_final();
        }
        // The record can be final long before the state recurs; the
        // certificates cost a few cell reads, a capture far more.
        if self.analytic
            && self.reach.admits_certificates()
            && crate::record_final::is_final(system, self.reach)
        {
            return true;
        }
        let current = self.capture(system);
        self.captures += 1;
        if let Some(proof) = self.ring.iter().find_map(|old| self.matches(&current, old)) {
            self.proof = Some(proof);
            return true;
        }
        if self.ring.len() == RING {
            self.ring.pop_front();
        }
        self.ring.push_back(current);
        // Slow convergers (e.g. exact-f64 pressure decay) can take
        // seconds: back off geometrically so fingerprinting never
        // dominates a trial that refuses to settle. Every stride stays
        // a multiple of the alignment period, so matches across stride
        // changes remain sound.
        self.misses_at_stride += 1;
        if self.misses_at_stride >= BACKOFF_MISSES && self.stride_ms < self.period_ms * 8 {
            self.stride_ms *= 2;
            self.misses_at_stride = 0;
        }
        false
    }

    fn capture(&self, system: &System) -> Fingerprint {
        let mut bytes = Vec::with_capacity(1_600);
        let master = system.master();
        let mem = master.memory();
        push_masked(&mut bytes, mem.app().as_bytes(), self.mscnt_addr);
        push_masked(&mut bytes, mem.stack().as_bytes(), self.prev_mscnt_addr);
        // The slave's words but its clock, as the master's RAM above.
        let slave = system.slave();
        for v in [
            slave.ms_slot_nbr,
            slave.set_value,
            slave.is_value,
            slave.out_value,
            slave.pid_integ,
            slave.pid_prev_err,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }

        // The valve pressures stay out of the invariant projection:
        // `matches` compares them separately (bit-exact or via the
        // analytic absorbing band).
        let plant = system.plant_state();
        for v in [
            plant.distance_m,
            plant.velocity_ms,
            plant.retardation_ms2,
            plant.cable_force_n,
        ] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.push(u8::from(plant.arrested));

        let failmon = system.failmon();
        for v in [
            failmon.peak_retardation_ms2(),
            failmon.peak_force_n(),
            failmon.max_distance_m(),
        ] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.push(u8::from(failmon.arrested()));

        let (master_valve, slave_valve) = system.valve_commands_pu();
        for v in [
            master_valve,
            slave_valve,
            master.valve_latch(),
            master.last_pulse_total(),
            slave.valve_latch(),
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        push_option_u16(&mut bytes, master.comm_out());

        let mut ea6_previous = None;
        for (_, monitor) in master.detectors().bank().iter() {
            bytes.extend_from_slice(&monitor.mode().to_le_bytes());
            if monitor.name() == self.ea6_name {
                ea6_previous = monitor.previous();
            } else {
                push_option_sample(&mut bytes, monitor.previous());
            }
        }

        let ram = mem.app();
        let stack = mem.stack();
        let sig = master.signals();
        Fingerprint {
            hash: fnv1a(&bytes),
            at_ms: system.time_ms(),
            bytes,
            kernel: master.kernel().clone(),
            mscnt: sig.mscnt.read(ram),
            ea6_previous,
            prev_mscnt: master.calc_locals().prev_mscnt.read(stack),
            sys_mode: sig.sys_mode.read(ram),
            ea6_decided: master.detectors().has_detected(crate::detectors::EaId::Ea6),
            p_master_bits: plant.pressure_master_bar.to_bits(),
            p_slave_bits: plant.pressure_slave_bar.to_bits(),
            cmd_master_pu: master_valve,
            cmd_slave_pu: slave_valve,
            cmds_stable_since_ms: system.cmds_stable_since_ms(),
        }
    }

    /// Whether `current` recurs from `old`, and under which rule.
    fn matches(&self, current: &Fingerprint, old: &Fingerprint) -> Option<SettleProof> {
        if current.hash != old.hash || current.kernel != old.kernel || current.bytes != old.bytes {
            return None;
        }
        // Valve pressures, compared outside the byte projection:
        // bit-exact recurrence always qualifies; otherwise the analytic
        // absorbing band may prove the sensor readings constant over
        // the interval and forever after (module docs §analytic).
        let exact_pressures =
            current.p_master_bits == old.p_master_bits && current.p_slave_bits == old.p_slave_bits;
        if !exact_pressures {
            if !self.analytic {
                return None;
            }
            // Equal command latches at the endpoints are already in
            // `bytes`; the band argument additionally needs the
            // commands constant over the *whole* interval so the hull
            // covers every intermediate pressure.
            if current.cmds_stable_since_ms > old.at_ms {
                return None;
            }
            let master_ok = crate::settle::absorbing_cell(
                f64::from_bits(old.p_master_bits),
                f64::from_bits(current.p_master_bits),
                current.cmd_master_pu,
            )
            .is_some();
            let slave_ok = crate::settle::absorbing_cell(
                f64::from_bits(old.p_slave_bits),
                f64::from_bits(current.p_slave_bits),
                current.cmd_slave_pu,
            )
            .is_some();
            if !master_ok || !slave_ok {
                return None;
            }
        }
        // Everything below proves the *digital* state recurs; when the
        // pressures only matched via the band, the proof is reported
        // as AnalyticBand whatever trio rule carried it.
        let labelled = |proof: SettleProof| {
            if exact_pressures {
                proof
            } else {
                SettleProof::AnalyticBand
            }
        };
        // Retired-clock rule: once `sys_mode` is STOPPED, CALC's
        // velocity/stall pass — the only reader of the clock besides
        // EA6 — is unreachable, and STOPPED is absorbing (only the
        // ARMED/ARRESTING arms write `sys_mode`, and a clock-targeting
        // flip cannot). With EA6's first detection already logged, no
        // observable output depends on the clock trio any more, so the
        // translation conditions below are vacuous and any offset —
        // even one the XOR rule would reject — is acceptable.
        if self.flip_hits_mscnt
            && current.sys_mode == mode::STOPPED
            && old.sys_mode == mode::STOPPED
            && old.ea6_decided
        {
            return Some(labelled(SettleProof::RetiredClock));
        }
        // The clock and EA6's previous sample must agree on one joint
        // offset δ (mod 2^16).
        let delta = current.mscnt.wrapping_sub(old.mscnt);
        let ea6_shifted = match (current.ea6_previous, old.ea6_previous) {
            (None, None) => delta == 0,
            (Some(c), Some(o)) => {
                (c >> 16) == (o >> 16) && (c as u16).wrapping_sub(o as u16) == delta
            }
            _ => false,
        };
        if !ea6_shifted {
            return None;
        }
        if delta != 0 && self.flip_hits_mscnt && u32::from(delta) % self.mscnt_modulus != 0 {
            return None;
        }
        let proof = if delta == 0 {
            SettleProof::ExactRecurrence
        } else {
            SettleProof::TranslatedRecurrence
        };
        let prev_delta = current.prev_mscnt.wrapping_sub(old.prev_mscnt);
        let accepted = if prev_delta == delta {
            // Raw-equal (δ = 0) or co-translated with the clock; a
            // translated cell must not be XOR-ed by the flip itself.
            delta == 0 || !self.flip_hits_prev_mscnt
        } else if prev_delta == 0 {
            // Stale raw-equal sample under a shifted clock: accept
            // only if no ARRESTING velocity-estimation pass can read
            // it during the recurrence period.
            !self.flip_hits_sys_mode
                && (current.sys_mode != mode::ARRESTING
                    || current.kernel.hung()
                    || current.kernel.calc_halted())
        } else {
            false
        };
        accepted.then(|| labelled(proof))
    }
}

/// Appends `source` with the u16 cell at `masked_addr` zeroed out.
fn push_masked(bytes: &mut Vec<u8>, source: &[u8], masked_addr: usize) {
    let before = bytes.len();
    bytes.extend_from_slice(source);
    for offset in 0..2 {
        if let Some(b) = bytes.get_mut(before + masked_addr + offset) {
            *b = 0;
        }
    }
}

fn push_option_u16(bytes: &mut Vec<u8>, value: Option<u16>) {
    match value {
        Some(v) => {
            bytes.push(1);
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        None => bytes.extend_from_slice(&[0, 0, 0]),
    }
}

fn push_option_sample(bytes: &mut Vec<u8>, value: Option<Sample>) {
    match value {
        Some(v) => {
            bytes.push(1);
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        None => {
            bytes.push(0);
            bytes.extend_from_slice(&[0; 8]);
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

const fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RunConfig;
    use simenv::TestCase;

    fn system() -> System {
        System::new(TestCase::new(12_000.0, 55.0), RunConfig::default())
    }

    #[test]
    fn snapshot_resume_is_bit_identical_to_straight_run() {
        let mut reference = system();
        let mut forked = system();
        for _ in 0..500 {
            reference.tick();
            forked.tick();
        }
        let snapshot = forked.checkpoint();
        assert_eq!(snapshot.time_ms(), 500);
        let mut resumed = snapshot.resume();
        for _ in 0..2_000 {
            reference.tick();
            resumed.tick();
        }
        let a = reference.finish();
        let b = resumed.finish();
        assert_eq!(
            a.verdict.final_distance_m.to_bits(),
            b.verdict.final_distance_m.to_bits()
        );
        assert_eq!(a.detections, b.detections);
        assert_eq!(a.duration_ms, b.duration_ms);
    }

    #[test]
    fn snapshot_can_fork_many_independent_runs() {
        let mut base = system();
        for _ in 0..100 {
            base.tick();
        }
        let snapshot = base.checkpoint();
        let mut a = snapshot.resume();
        let mut b = snapshot.resume();
        a.inject(BitFlip::new(
            Region::AppRam,
            a.master().signals().set_value.addr() + 1,
            7,
        ));
        for _ in 0..200 {
            a.tick();
            b.tick();
        }
        // The injected fork diverges; the clean fork matches the base.
        assert_ne!(
            a.master()
                .signals()
                .set_value
                .read(a.master().memory().app()),
            b.master()
                .signals()
                .set_value
                .read(b.master().memory().app())
        );
        assert_eq!(snapshot.case(), base.case());
    }

    #[test]
    fn fault_free_run_settles_after_arrest_with_final_outputs() {
        let mut system = system();
        let mut detector = SettleDetector::new(&system, None, 20);
        let mut settled_at = None;
        while system.time_ms() < 40_000 {
            if settled_at.is_none() && detector.check(&system) {
                settled_at = Some(system.time_ms());
                break;
            }
            system.tick();
        }
        let t = settled_at.expect("a nominal arrestment settles well inside the window");
        assert!(system.plant_state().arrested);
        // Early outputs equal the full-window outputs.
        let early = system.clone().finish();
        let full = system.run_to_completion();
        assert_eq!(
            early.verdict.final_distance_m.to_bits(),
            full.verdict.final_distance_m.to_bits()
        );
        assert_eq!(early.detections, full.detections);
        assert!(t < 20_000, "settled too late: {t}");
    }

    #[test]
    fn analytic_band_stops_earlier_with_identical_outputs() {
        // Two detectors over one system: the analytic one must stop
        // strictly earlier (it does not wait for the f64 pressure bits
        // to recur) and the early outputs must equal the full window's.
        // A flip into `ms_slot_nbr` admits no record-final certificate
        // (it shifts the slot phase), so the band is the first analytic
        // stop, as for every E1 band stop of the paper campaign.
        let mut system = system();
        let flip = BitFlip::new(
            Region::AppRam,
            system.master().signals().ms_slot_nbr.addr() + 1,
            7,
        );
        let mut plain = SettleDetector::new(&system, Some(flip), 20);
        let mut analytic = SettleDetector::new(&system, Some(flip), 20).with_analytic(true);
        let mut analytic_at = None;
        let mut plain_at = None;
        let mut early = None;
        let inject = |system: &mut System| {
            let t = system.time_ms();
            if t > 0 && t.is_multiple_of(20) {
                system.inject(flip);
            }
        };
        while system.time_ms() < 40_000 && plain_at.is_none() {
            if analytic_at.is_none() && analytic.check(&system) {
                analytic_at = Some(system.time_ms());
                early = Some(system.clone());
            }
            if plain.check(&system) {
                plain_at = Some(system.time_ms());
            }
            inject(&mut system);
            system.tick();
        }
        let ta = analytic_at.expect("analytic detector settles inside the window");
        let te = plain_at.expect("exact detector settles inside the window");
        assert!(ta < te, "analytic {ta} ms must beat exact {te} ms");
        assert_eq!(analytic.proof(), Some(SettleProof::AnalyticBand));
        let early = early.expect("cloned at the analytic stop").finish();
        while system.time_ms() < 40_000 {
            inject(&mut system);
            system.tick();
        }
        let full = system.finish();
        assert_eq!(
            early.verdict.final_distance_m.to_bits(),
            full.verdict.final_distance_m.to_bits()
        );
        assert_eq!(early.detections, full.detections);
    }

    #[test]
    fn record_final_stop_precedes_recurrence_with_identical_outputs() {
        // A fault-free run: every mechanism is certified once the
        // set point rests, so the record-final stop comes before any
        // recurrence, reports no state proof, and finishes with the
        // full window's outputs.
        let mut system = system();
        let mut exact = SettleDetector::new(&system, None, 20);
        let mut record = SettleDetector::new(&system, None, 20).with_analytic(true);
        let mut record_at = None;
        let mut exact_at = None;
        let mut early = None;
        while system.time_ms() < 40_000 && exact_at.is_none() {
            if record_at.is_none() && record.check(&system) {
                record_at = Some(system.time_ms());
                early = Some(system.clone());
            }
            if exact.check(&system) {
                exact_at = Some(system.time_ms());
            }
            system.tick();
        }
        let tr = record_at.expect("the record-final stop fires inside the window");
        let te = exact_at.expect("exact recurrence settles inside the window");
        assert!(tr < te, "record-final {tr} ms must beat exact {te} ms");
        assert_eq!(record.proof(), None);
        assert!(record.captures() < exact.captures());
        let early = early.expect("cloned at the record-final stop").finish();
        let full = system.run_to_completion();
        assert_eq!(
            early.verdict.final_distance_m.to_bits(),
            full.verdict.final_distance_m.to_bits()
        );
        assert_eq!(early.verdict.failed(), full.verdict.failed());
        assert_eq!(early.detections, full.detections);
    }

    #[test]
    fn detector_disables_itself_for_runs_that_do_not_stop_early() {
        // A hung master over a rolling aircraft: its commands are final
        // seconds in, so a detection-only run stops there and `finish`
        // completes the window on the plant alone. A run that traces,
        // captures readouts or writes repairs back does neither.
        let flip = BitFlip::new(Region::Stack, memsim::STACK_BYTES - 4, 0);
        let observation_ms = 15_000;
        let run = |config: RunConfig| {
            let mut system = System::new(TestCase::new(12_000.0, 55.0), config);
            let mut detector = SettleDetector::new(&system, Some(flip), 20).with_analytic(true);
            let mut stopped_at = None;
            let mut cut = None;
            while system.time_ms() < observation_ms {
                let t = system.time_ms();
                if stopped_at.is_none() && detector.check(&system) {
                    stopped_at = Some(t);
                }
                if cut.is_none() && t > 0 && t.is_multiple_of(140) && system.commands_final() {
                    cut = Some(system.clone());
                }
                if t > 0 && t.is_multiple_of(20) {
                    system.inject(flip);
                }
                system.tick();
            }
            let cut = cut.expect("a hung master's commands become final");
            assert!(!cut.plant_state().arrested);
            let cut_distance = cut.plant_state().distance_m;
            (stopped_at, cut_distance, cut.finish())
        };
        let detection_only = RunConfig {
            observation_ms,
            ..RunConfig::default()
        };
        assert!(detection_only.stops_early());
        let (stopped_at, cut_distance, outcome) = run(detection_only.clone());
        assert!(stopped_at.is_some(), "a detection-only run stops early");
        assert!(
            outcome.verdict.final_distance_m > cut_distance,
            "no plant tail"
        );

        for (name, config) in [
            (
                "trace",
                RunConfig {
                    trace: true,
                    ..detection_only.clone()
                },
            ),
            (
                "readout",
                RunConfig {
                    record_every_ms: 100,
                    ..detection_only.clone()
                },
            ),
            (
                "hold-previous",
                RunConfig {
                    recovery: Some(ea_core::RecoveryStrategy::HoldPrevious),
                    ..detection_only.clone()
                },
            ),
            (
                "rate-project",
                RunConfig {
                    recovery: Some(ea_core::RecoveryStrategy::RateProject),
                    ..detection_only.clone()
                },
            ),
        ] {
            assert!(!config.stops_early(), "{name}");
            let (stopped_at, cut_distance, outcome) = run(config);
            assert_eq!(stopped_at, None, "{name}: the detector stopped the run");
            assert_eq!(
                outcome.verdict.final_distance_m.to_bits(),
                cut_distance.to_bits(),
                "{name}: finish ran the plant tail"
            );
        }
    }

    #[test]
    fn alignment_period_covers_slots_and_injections() {
        assert_eq!(lcm(7, 20), 140);
        assert_eq!(lcm(7, 7), 7);
        assert_eq!(gcd(12, 18), 6);
        let detector = SettleDetector::new(&system(), None, 20);
        assert_eq!(detector.period_ms, 140);
    }
}
