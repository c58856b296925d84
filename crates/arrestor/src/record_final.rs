//! Record-final certificates: proving at a settle check that no later
//! tick can change a trial's record, although its state has not
//! recurred.
//!
//! A trial's record is its failure verdict, its final distance and each
//! mechanism's first detection. The recurrence rules of
//! [`crate::checkpoint::SettleDetector`] wait until the *whole* state
//! repeats. After arrest the record is usually final long before that:
//! the valve pressures keep creeping and the clock keeps counting, but
//! nothing they drive can reach the record any more. [`is_final`]
//! proves this at a due check instant `t` (a multiple of the capture
//! stride, hence of the 7-slot cycle) from four premises:
//!
//! 1. **The verdict is frozen.** The plant has latched `arrested`, which
//!    freezes distance, velocity, force and retardation
//!    ([`simenv::Plant::step`]), so the failure monitor's peaks and
//!    maximum distance can never move again.
//! 2. **The set point is absorbing.** `sys_mode` is STOPPED, or
//!    ARRESTING with the checkpoint branch unreachable — every
//!    checkpoint passed (`i ≥ 6`), or the next threshold above every
//!    pulse count the flip can produce — and the flip's row of the
//!    reach table ([`crate::reach`]) has neither `PREMISES` nor, while
//!    ARRESTING, `CHECKPOINTS`. In both arms CALC then only ramps `SetValue`
//!    towards `set_target` and may move ARRESTING on to STOPPED:
//!    `set_target` and `i` are written only by the ARMED arm and
//!    ARRESTING's checkpoint branch. A trial whose flip keeps the
//!    drum's pulse count moving never stalls into STOPPED, so this arm
//!    matters.
//! 3. **The schedule is nominal.** The kernel state is clean, the flip
//!    breaks no premise (its RAM row has no `PREMISES`, its stack part
//!    derails no slot phase), and the slot counter reads 0. So PRES_S, V_REG
//!    and PRES_A last ran at `t − 6`, `t − 4` and `t − 2`, and run every
//!    7 ms from `t + 1`, `t + 3` and `t + 5` on.
//! 4. **Every enabled mechanism without a logged detection has a
//!    certificate:** every (previous, current) sample pair it will ever
//!    test lies in the pass set of its own parameters. A flip whose
//!    reach-table row taints the mechanism voids the certificate, unless
//!    the row's control-law rule absorbs it
//!    ([`crate::reach::Tracked`]): a `SetValue` flip keeps the set point
//!    in the hull of its target and the flipped target, an `IsValue` or
//!    `OutValue` flip moves at most one of two successive samples by its
//!    mask `m`. A mechanism that already fired needs no certificate,
//!    since the log keeps first detections only.
//!
//! The certificates rest on envelopes derived from the code:
//! [`is_value_step_pu`] bounds how far the filtered pressure reading can
//! move between two V_REG runs whatever the valve command, and
//! [`out_value_envelope`] bounds the regulator output — its next value,
//! its step and its maximum — under a set point held inside a hull. The
//! full argument is in `docs/PROOFS.md` §Record-final certificates.
//!
//! # Command-final tails
//!
//! While the aircraft still rolls the record also needs its final
//! distance, so [`is_final`] cannot hold. [`commands_final`] proves the
//! weaker fact that only the plant still needs integrating: from the
//! current instant on, whatever further injections of the trial's flip
//! do, the valve-command pair stays constant and no mechanism without a
//! logged detection can fire. [`crate::System::finish`] then completes
//! the window with the plant and the failure monitor alone. Five
//! premises, any instant, no injection period:
//!
//! 1. **Absorbing controller.** The master has hung (nothing on it runs
//!    again, its valve latch is frozen), or `sys_mode` is STOPPED, or
//!    ARRESTING with every checkpoint passed (`i ≥ 6`); `SetValue` rests
//!    on `set_target`, the kernel is clean and the slot counter in range.
//! 2. **Digital fixed point.** The master's filter cells and `IsValue`
//!    hold its reading, V_REG's update maps `(SetValue, reading,
//!    pid_integ, pid_prev_err)` onto the stored output and PID cells, and
//!    the valve latch holds the output; the slave, fed the same set point
//!    (or a frozen one when the master hung), sits at the same kind of
//!    fixed point over its own reading.
//! 3. **Readings stay put.** Each valve's pressure lies in the absorbing
//!    band of its command ([`crate::settle::absorbing_cell`]), whose cell
//!    is that valve's reading.
//! 4. **Flip reach** ([`CommandReach`]). Unless the master already
//!    hung, the flip's RAM row has no `COMMAND` and its stack part
//!    derails no slot phase ([`crate::reach`]). What such a flip reaches
//!    feeds only the velocity estimate, the stall detector (ARRESTING →
//!    STOPPED, which ramps to the same target), the checkpoint branch
//!    that `i ≥ 6` and STOPPED never enter, and EA4/EA6.
//! 5. **Record.** The master hung, or EA4 has a logged detection; every
//!    other enabled mechanism without one tests a repeated sample that
//!    passes (EA1, EA2, EA3, EA7) or the nominal slot and clock
//!    sequences (EA5, EA6, the latter only when the flip misses the
//!    clock).
//!
//! The argument is in `docs/PROOFS.md` §Command-final tails.

use ea_core::{Params, Sample};
use memsim::{BitFlip, Region};
use simenv::plant::to_units;
use simenv::spec;

use crate::consts::{
    mode, slot, CHECKPOINT_X_CM, OUT_MAX_PU, PID_ERR_DIV, PID_INTEG_CLAMP, PID_INTEG_DIV,
    PID_KD_DIV,
};
use crate::control::pid_step;
use crate::detectors::EaId;
use crate::node::SlaveNode;
use crate::reach::{self, Tracked};
use crate::settle::absorbing_cell;
use crate::signals::FILTER_DEPTH;
use crate::system::System;

/// Largest pressure reading, pu: the plant clamps valve commands to
/// [`spec::PRESSURE_MAX_BAR`] and each valve pressure moves towards its
/// command by a convex step, so it never leaves `[0, PRESSURE_MAX_BAR]`.
pub const IS_VALUE_MAX_PU: i64 = 20_000;

/// Bound on `|ΔIsValue|` between two consecutive V_REG runs under a
/// nominal schedule, pu — whatever the valve commands do.
///
/// A valve pressure moves by at most `PRESSURE_MAX_BAR · DT_S /
/// VALVE_TAU_S` per millisecond (its distance to the command is at most
/// the full range). Between two PRES_S runs the 4-deep filter swaps its
/// oldest reading for one taken `4 × 7 = 28` ms later, so the filter sum
/// changes by at most 28 ms of slew plus one unit of rounding, and the
/// truncating division by the depth passes at most a quarter of that,
/// rounded up: 934 pu against EA2's 1 000.
pub fn is_value_step_pu() -> i64 {
    let slew_pu_per_ms =
        spec::PRESSURE_MAX_BAR * spec::DT_S / spec::VALVE_TAU_S * spec::PRESSURE_UNITS_PER_BAR;
    let span_ms = (FILTER_DEPTH as f64) * f64::from(slot::COUNT);
    let reading_step = (span_ms * slew_pu_per_ms).ceil() as i64 + 1;
    div_ceil(reading_step, FILTER_DEPTH as i64)
}

/// Where the V_REG outputs after a stride-aligned check instant can
/// lie, for a set point held inside a hull from now on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutEnvelope {
    /// Lowest and highest possible output of the next V_REG run.
    pub first: (Sample, Sample),
    /// Bound on `|ΔOutValue|` between any two later consecutive runs.
    pub step: Sample,
    /// Bound on every later output.
    pub max: Sample,
}

/// The [`OutEnvelope`] of the V_REG runs after a check instant, for
/// a set point that stays inside `set_hull` (both ends included) and
/// readings of which at most one in two successive runs is XORed with
/// `reading_mask` (0: none is).
///
/// `is_value`, `integ_bits` and `prev_err_bits` are the cells the last
/// V_REG run left behind (PRES_S has not run since), `step_pu` the
/// [`is_value_step_pu`] bound. A run's reading then lies within
/// `step_pu + mask` of the previous run's. The next output is `pid_step`
/// over the next set point and reading; `pid_step` is non-decreasing in
/// the set point and non-increasing in the reading, so the hull ends
/// and the reading interval's ends give the output range exactly. Every
/// later pair is bounded term by term, with each truncating division
/// adding at most one unit: `3·Set − 2·Is` moves by at most `3·w +
/// 2·(step_pu + mask)` (`w` the hull width), the integral by at most
/// `max|err| / ERR_DIV` (divided by `INTEG_DIV` on the way out), the
/// derivative by half the change of two successive error steps, and the
/// final clamp is 1-Lipschitz. Every output is at most `3·Set +
/// INTEG_CLAMP / INTEG_DIV` plus the largest derivative term, since the
/// reading is never negative.
///
/// `None` when an error could leave the `i16` range: it would then
/// saturate in the stored previous-error cell and the derivative term
/// would no longer be Lipschitz in the reading.
pub fn out_value_envelope(
    set_hull: (u16, u16),
    reading_mask: u16,
    is_value: u16,
    integ_bits: u16,
    prev_err_bits: u16,
    step_pu: i64,
) -> Option<OutEnvelope> {
    let (set_lo, set_hi) = (i64::from(set_hull.0), i64::from(set_hull.1));
    let mask = i64::from(reading_mask);
    let reading_max = IS_VALUE_MAX_PU + mask;
    if set_lo > set_hi
        || set_hi > i64::from(i16::MAX)
        || reading_max - set_lo > -i64::from(i16::MIN)
    {
        return None;
    }
    let reading = i64::from(is_value);
    let reading_step = step_pu + mask;
    let low_reading = (reading - reading_step).clamp(0, reading_max) as u16;
    let high_reading = (reading + reading_step).clamp(0, reading_max) as u16;
    let output = |s: u16, r: u16| i64::from(pid_step(s, r, integ_bits, prev_err_bits).0);
    let width = set_hi - set_lo;
    // |err| over every set point in the hull and every reading.
    let err_max = set_hi.max(reading_max - set_lo);
    // An error step between two runs: the set point moves inside the
    // hull, the reading by at most `reading_step`.
    let err_step = width + reading_step;
    // The first later pair's derivative sees the stored previous error.
    let stored = i64::from(prev_err_bits as i16);
    let first_err_step = (set_lo - reading - stored)
        .abs()
        .max((set_hi - reading - stored).abs())
        + reading_step;
    let derivative_max = first_err_step.max(err_step) / PID_KD_DIV;
    let step = 3 * width
        + 2 * reading_step
        + err_max / PID_ERR_DIV / PID_INTEG_DIV
        + 1
        + (err_step + first_err_step.max(err_step)) / PID_KD_DIV
        + 1;
    Some(OutEnvelope {
        first: (
            output(set_hull.0, high_reading),
            output(set_hull.1, low_reading),
        ),
        step,
        max: (3 * set_hi + PID_INTEG_CLAMP / PID_INTEG_DIV + derivative_max)
            .min(i64::from(OUT_MAX_PU)),
    })
}

/// The XOR masks a flip applies to the three control-law cells; 0 for
/// a cell the flip misses. Each is non-zero only when the certificates
/// can absorb it (see [`FlipReach::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LawMasks {
    set_value: u16,
    is_value: u16,
    out_value: u16,
}

/// What a trial's flip can reach after arrest, decided once per trial
/// from the flip's coordinates. The default reaches nothing: a
/// fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlipReach {
    /// The flip can leave STOPPED or perturb the schedule (its RAM row's
    /// `PREMISES`, or a stack part that derails). No certificate holds.
    breaks_premises: bool,
    /// Bit `k` set: the flip's row taints EA`k+1` and no control-law
    /// rule absorbs it, so EA`k+1` has no certificate.
    tainted: u8,
    /// The flip's row has `CHECKPOINTS`: ARRESTING's checkpoint branch
    /// may run again.
    hits_checkpoints: bool,
    /// The XOR mask the flip applies to `pulscnt`; 0 for other flips.
    pulscnt_mask: u16,
    /// The flip's masks on `SetValue`, `IsValue` and `OutValue`.
    masks: LawMasks,
}

impl FlipReach {
    /// The reach of `flip` (`None`: a fault-free run), re-injected every
    /// `injection_period_ms`: its row of the reach table.
    pub fn of(flip: Option<BitFlip>, injection_period_ms: u64) -> Self {
        let mut reach = FlipReach::default();
        let Some(flip) = flip else {
            return reach;
        };
        if flip.region == Region::Stack {
            reach.breaks_premises = reach::stack_derails(flip.addr);
            return reach;
        }
        let Some((row, offset)) = reach::ram_row(flip.addr) else {
            return reach;
        };
        reach.breaks_premises = row.has(reach::PREMISES);
        reach.hits_checkpoints = row.has(reach::CHECKPOINTS);
        reach.tainted = row.taints.iter().fold(0, |bits, ea| bits | 1 << ea.index());
        if let Some(cell) = row.tracked {
            let mask = 1u16 << (8 * offset + usize::from(flip.bit));
            let absorbed = cell.absorbs(mask, injection_period_ms);
            if absorbed {
                reach.tainted = 0;
            }
            match cell {
                Tracked::Pulses => reach.pulscnt_mask = mask,
                _ if !absorbed => {}
                Tracked::SetValue => reach.masks.set_value = mask,
                Tracked::IsValue => reach.masks.is_value = mask,
                Tracked::OutValue => reach.masks.out_value = mask,
            }
        }
        reach
    }

    /// Whether the flip leaves premises 2 and 3 reachable at all.
    pub const fn admits_certificates(self) -> bool {
        !self.breaks_premises
    }

    const fn taints(self, ea: EaId) -> bool {
        self.tainted & (1 << ea.index()) != 0
    }
}

/// Whether `system`, observed at a stride-aligned check instant, has a
/// final record: premises 1–3 of the module docs hold and every enabled
/// mechanism without a logged detection has a certificate.
pub fn is_final(system: &System, reach: FlipReach) -> bool {
    if reach.breaks_premises || !system.plant_state().arrested {
        return false;
    }
    let master = system.master();
    let ram = master.memory().app();
    let sig = master.signals();
    let set_point_absorbing = match sig.sys_mode.read(ram) {
        mode::STOPPED => true,
        mode::ARRESTING => {
            // The pulse count is constant but for the flip (premise 4,
            // EA4): it takes `pulscnt` and `pulscnt ^ mask` only.
            let pulses = sig.pulscnt.read(ram);
            let pulses_max = pulses.max(pulses ^ reach.pulscnt_mask);
            let next = sig.i.read(ram);
            !reach.hits_checkpoints
                && master.last_pulse_total() == system.sensors().pulse_total
                && (usize::from(next) >= CHECKPOINT_X_CM.len()
                    || sig.cp_threshold(ram, next) > pulses_max)
        }
        _ => false,
    };
    if !set_point_absorbing || !master.kernel().is_clean() || sig.ms_slot_nbr.read(ram) != 0 {
        return false;
    }
    let law = ControlLaw::at(system, reach.masks);
    let detectors = master.detectors();
    EaId::ALL.into_iter().all(|ea| {
        if detectors.has_detected(ea) || !detectors.is_enabled(ea) {
            return true;
        }
        if reach.taints(ea) {
            return false;
        }
        let monitor = detectors.monitor(ea);
        certificate(
            ea,
            system,
            &law,
            monitor.active_params(),
            monitor.previous(),
        )
    })
}

/// The control law's future at a check instant: the set-point hull and
/// the output envelope, when `SetValue` rests on its target (CALC then
/// keeps it inside the hull of the target and the target XOR the flip's
/// `SetValue` mask), plus the flip's `IsValue` and `OutValue` masks.
struct ControlLaw {
    set_hull: Option<(u16, u16)>,
    envelope: Option<OutEnvelope>,
    masks: LawMasks,
}

impl ControlLaw {
    fn at(system: &System, masks: LawMasks) -> Self {
        let master = system.master();
        let ram = master.memory().app();
        let sig = master.signals();
        let target = sig.set_target.read(ram);
        let set_hull = (sig.set_value.read(ram) == target).then(|| {
            let flipped = target ^ masks.set_value;
            (target.min(flipped), target.max(flipped))
        });
        let envelope = set_hull.and_then(|hull| {
            out_value_envelope(
                hull,
                masks.is_value,
                sig.is_value.read(ram),
                sig.pid_integ.read(ram),
                sig.pid_prev_err.read(ram),
                is_value_step_pu(),
            )
        });
        ControlLaw {
            set_hull,
            envelope,
            masks,
        }
    }

    /// Bound on every later IsValue sample, pu, before the flip's mask.
    ///
    /// The master valve pressure moves towards its command by convex
    /// steps, so it never exceeds the larger of its current value and
    /// the largest command from now on: the current latch, or a later
    /// output, XORed at most with the `OutValue` mask. Readings quantise
    /// monotonically, and the filter averages readings, the oldest of
    /// which are still in its buffer.
    fn reading_max(&self, system: &System) -> Option<Sample> {
        let envelope = self.envelope?;
        let master = system.master();
        let ram = master.memory().app();
        let sig = master.signals();
        let command_max = (envelope.max + Sample::from(self.masks.out_value))
            .max(Sample::from(master.valve_latch()));
        let pressure_max = system
            .plant_state()
            .pressure_master_bar
            .max(command_max as f64 / spec::PRESSURE_UNITS_PER_BAR);
        let buffered = (0..FILTER_DEPTH).map(|k| Sample::from(sig.filt_read(ram, k)));
        Some(buffered.fold(Sample::from(to_units(pressure_max)), Sample::max))
    }
}

/// Premise 4 for one mechanism: every sample pair it will test from now
/// on passes `params`. `previous` is the mechanism's last sample; with
/// no logged detection every earlier check passed, so it is exactly the
/// value the mechanism last read.
fn certificate(
    ea: EaId,
    system: &System,
    law: &ControlLaw,
    params: &Params,
    previous: Option<Sample>,
) -> bool {
    let master = system.master();
    let ram = master.memory().app();
    let sig = master.signals();
    let value = |cell: memsim::CellU16| Sample::from(cell.read(ram));
    // A cell nothing writes any more: every later sample equals it.
    let constant = |v: Sample| previous == Some(v) && params.check(Some(v), v).is_ok();
    match ea {
        // The last V_REG sample may still be from the ramp.
        EaId::Ea1 => law.set_hull.is_some_and(|(lo, hi)| {
            let (lo, hi) = (Sample::from(lo), Sample::from(hi));
            let (first, last) = previous.map_or((lo, hi), |p| (p.min(lo), p.max(hi)));
            pairs_pass(params, first, last, last - first)
        }),
        // The reading steps by at most `is_value_step_pu` whatever the
        // commands; an IsValue flip moves one sample of a pair by its
        // mask, which needs a bound on the readings to stay in range.
        EaId::Ea2 => {
            let mask = Sample::from(law.masks.is_value);
            let hi = if mask == 0 {
                Some(IS_VALUE_MAX_PU)
            } else {
                law.reading_max(system).map(|max| max + mask)
            };
            previous == Some(value(sig.is_value))
                && hi.is_some_and(|hi| pairs_pass(params, 0, hi, is_value_step_pu() + mask))
        }
        // `i` is written only by the ARMED and ARRESTING arms.
        EaId::Ea3 => constant(value(sig.i)),
        // The arrested drum no longer turns: once DIST_S has consumed
        // the last pulse, every later delta is 0.
        EaId::Ea4 => {
            master.last_pulse_total() == system.sensors().pulse_total
                && constant(value(sig.pulscnt))
        }
        EaId::Ea5 => nominal_slots(params, previous, value(sig.ms_slot_nbr)),
        EaId::Ea6 => nominal_clock(params, previous, value(sig.mscnt)),
        // The output envelope; an OutValue flip moves one sample of a
        // pair by its mask, on top of an output at most `envelope.max`.
        EaId::Ea7 => {
            let Some(envelope) = law.envelope else {
                return false;
            };
            let last = value(sig.out_value);
            if previous != Some(last) {
                return false;
            }
            let mask = Sample::from(law.masks.out_value);
            let (lo, hi) = envelope.first;
            let first_step = (hi - last).max(last - lo).max(0);
            let top = if mask == 0 {
                Sample::from(OUT_MAX_PU)
            } else {
                (envelope.max + mask).max(last)
            };
            pairs_pass(params, 0, top, envelope.step.max(first_step) + mask)
        }
    }
}

/// EA5's certificate under a nominal schedule: the slot counter last
/// tested `slot` and every step of the slot cycle passes.
fn nominal_slots(params: &Params, previous: Option<Sample>, slot: Sample) -> bool {
    let count = Sample::from(slot::COUNT);
    previous == Some(slot) && (0..count).all(|s| params.check(Some(s), (s + 1) % count).is_ok())
}

/// EA6's certificate for a clock no flip reaches: it last tested
/// `mscnt`, and the nominal clock (+1 per tick, wrapping at 2^16)
/// passes.
fn nominal_clock(params: &Params, previous: Option<Sample>, mscnt: Sample) -> bool {
    let Params::Continuous(p) = params else {
        return false;
    };
    previous == Some(mscnt)
        && p.smin() <= 0
        && p.smax() >= Sample::from(u16::MAX)
        && p.increase().contains(1)
        && params.check(Some(Sample::from(u16::MAX)), 0).is_ok()
}

/// What a trial's flip can reach while the plant still rolls (module
/// docs §Command-final tails, premise 4), decided once per trial from
/// the flip's coordinates alone. Unlike [`FlipReach`] it does not depend
/// on the injection period: [`System::finish`] decides from it without
/// knowing the period, so every argument built on it must hold for any
/// injection instants.
///
/// The default reaches nothing: a run that is never injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommandReach {
    /// The flip can move a valve command of a running master: its RAM
    /// row has `COMMAND`, or its stack part derails.
    moves_commands: bool,
    /// The flip's row is the `CLOCK`, so EA6's samples leave the nominal
    /// clock.
    hits_clock: bool,
}

impl CommandReach {
    /// The reach of a run injected with more than one distinct flip:
    /// anything. Only a hung master can still be certified.
    pub const ANYTHING: CommandReach = CommandReach {
        moves_commands: true,
        hits_clock: true,
    };

    /// The reach of `flip`, re-injected at any instants: its row of the
    /// reach table. RAM past the bank counts as reaching anything.
    pub fn of(flip: BitFlip) -> Self {
        match flip.region {
            Region::Stack => CommandReach {
                moves_commands: reach::stack_derails(flip.addr),
                hits_clock: false,
            },
            Region::AppRam => {
                reach::ram_row(flip.addr).map_or(Self::ANYTHING, |(row, _)| CommandReach {
                    moves_commands: row.has(reach::COMMAND),
                    hits_clock: row.has(reach::CLOCK),
                })
            }
        }
    }
}

/// Whether `system`'s valve commands are final and its record needs
/// the plant alone from now on: premises 1–5 of the module docs hold
/// for a run whose flips reach at most `reach`. Sound at any instant
/// between two ticks, for any later injection instants.
pub fn commands_final(system: &System, reach: CommandReach) -> bool {
    let master = system.master();
    let detectors = master.detectors();
    let logged = |ea: EaId| detectors.has_detected(ea) || !detectors.is_enabled(ea);
    // A hung master runs nothing again and sends no set point, and no
    // flip can wake it: only the slave's loop is left to settle.
    let hung = master.hung();
    if !hung && (reach.moves_commands || !logged(EaId::Ea4) || !master.kernel().is_clean()) {
        return false;
    }
    let slave = system.slave();
    let (master_cmd, slave_cmd) = system.valve_commands_pu();
    if master.valve_latch() != master_cmd || slave.valve_latch() != slave_cmd {
        return false;
    }
    let plant = system.plant_state();
    let reading = |pressure_bar: f64, cmd: u16| absorbing_cell(pressure_bar, pressure_bar, cmd);
    let Some(slave_reading) = reading(plant.pressure_slave_bar, slave_cmd) else {
        return false;
    };
    if hung {
        return slave_at_fixed_point(slave, slave.set_value(), slave_reading);
    }
    let ram = master.memory().app();
    let sig = master.signals();
    let set_value = sig.set_value.read(ram);
    let absorbing = match sig.sys_mode.read(ram) {
        mode::STOPPED => true,
        mode::ARRESTING => usize::from(sig.i.read(ram)) >= CHECKPOINT_X_CM.len(),
        _ => false,
    };
    if !absorbing
        || set_value != sig.set_target.read(ram)
        || sig.ms_slot_nbr.read(ram) >= slot::COUNT
    {
        return false;
    }
    let Some(master_reading) = reading(plant.pressure_master_bar, master_cmd) else {
        return false;
    };
    let out_value = sig.out_value.read(ram);
    let (integ, prev_err) = (sig.pid_integ.read(ram), sig.pid_prev_err.read(ram));
    let master_fixed = (0..FILTER_DEPTH).all(|k| sig.filt_read(ram, k) == master_reading)
        && sig.is_value.read(ram) == master_reading
        && pid_step(set_value, master_reading, integ, prev_err) == (out_value, integ, prev_err)
        && master_cmd == out_value;
    if !master_fixed || !slave_at_fixed_point(slave, set_value, slave_reading) {
        return false;
    }
    EaId::ALL.into_iter().all(|ea| {
        if logged(ea) {
            return true;
        }
        let monitor = detectors.monitor(ea);
        let (params, previous) = (monitor.active_params(), monitor.previous());
        // A cell nothing writes any more: every later sample repeats it.
        let repeated = |cell: memsim::CellU16| {
            let v = Sample::from(cell.read(ram));
            previous == Some(v) && params.check(Some(v), v).is_ok()
        };
        match ea {
            EaId::Ea1 => repeated(sig.set_value),
            EaId::Ea2 => repeated(sig.is_value),
            EaId::Ea3 => repeated(sig.i),
            // Logged, or the predicate refused above.
            EaId::Ea4 => false,
            EaId::Ea5 => nominal_slots(params, previous, Sample::from(sig.ms_slot_nbr.read(ram))),
            EaId::Ea6 => {
                !reach.hits_clock
                    && nominal_clock(params, previous, Sample::from(sig.mscnt.read(ram)))
            }
            EaId::Ea7 => repeated(sig.out_value),
        }
    })
}

/// Whether the slave, fed `set_value` from now on and reading
/// `reading`, maps its state onto itself at every slot: its set point
/// and reading are the ones it will keep receiving, its PID update is a
/// fixed point, and its latch holds the output.
fn slave_at_fixed_point(slave: &SlaveNode, set_value: u16, reading: u16) -> bool {
    let ram = slave.ram();
    let sig = slave.signals();
    let out = sig.out_value.read(ram);
    let (integ, prev_err) = (sig.pid_integ.read(ram), sig.pid_prev_err.read(ram));
    sig.set_value.read(ram) == set_value
        && sig.is_value.read(ram) == reading
        && pid_step(set_value, reading, integ, prev_err) == (out, integ, prev_err)
        && slave.valve_latch() == out
}

/// Whether every pair `(a, b)` with `a, b ∈ [lo, hi]` and `|a − b| ≤
/// step` passes the continuous assertion `params`.
///
/// Both samples in range make tests 1 and 2 pass; an unchanged sample
/// passes (tests 3c–5c) independently of its value; and a change `d`
/// passes test 3a or 3b when the rate band contains it. The bands are
/// intervals, so containing 1 and the largest step covers every step
/// in between.
fn pairs_pass(params: &Params, lo: Sample, hi: Sample, step: Sample) -> bool {
    let Params::Continuous(p) = params else {
        return false;
    };
    let largest = step.min(hi - lo);
    p.smin() <= lo
        && hi <= p.smax()
        && params.check(Some(lo), lo).is_ok()
        && (largest <= 0
            || [p.increase(), p.decrease()]
                .into_iter()
                .all(|band| band.contains(1) && band.contains(largest)))
}

const fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::ea;
    use crate::instrument;

    #[test]
    fn is_value_step_stays_inside_ea2_rate() {
        assert_eq!(is_value_step_pu(), 934);
        assert!(is_value_step_pu() < ea::IS_VALUE_RATE);
    }

    #[test]
    fn settled_out_value_step_stays_inside_ea7_rate() {
        let d = is_value_step_pu();
        // A set point the reading has settled on: err ≈ 0.
        let e = out_value_envelope((5_000, 5_000), 0, 5_000, 0, 0, d).unwrap();
        assert!(e.step < ea::OUT_VALUE_RATE, "{e:?}");
        assert!(e.step <= 3_125, "{e:?}");
        assert!(e.first.0 <= 5_000 && 5_000 <= e.first.1);
        // The worst set point for the integral term still fits.
        let e = out_value_envelope((0, 0), 0, 20_000, 0, (-20_000i16) as u16, d).unwrap();
        assert!(e.step < ea::OUT_VALUE_RATE, "{e:?}");
        // A flipped set-point bit widens the step by about four times
        // the flip: bit 9 still fits, bit 10 does not.
        let e = out_value_envelope((5_000, 5_512), 0, 5_000, 0, 0, d).unwrap();
        assert!(e.step < ea::OUT_VALUE_RATE, "{e:?}");
        let e = out_value_envelope((5_000, 6_024), 0, 5_000, 0, 0, d).unwrap();
        assert!(e.step > ea::OUT_VALUE_RATE, "{e:?}");
        assert_eq!(out_value_envelope((0, 40_000), 0, 0, 0, 0, d), None);
        // A flipped reading bit widens the step by about three times the
        // flip: bit 10 still fits.
        let e = out_value_envelope((5_000, 5_000), 1_024, 5_000, 0, 0, d).unwrap();
        assert!(e.step < ea::OUT_VALUE_RATE, "{e:?}");
        // Outputs stay below three times the set point plus the integral
        // and derivative terms.
        let e = out_value_envelope((4_000, 4_000), 0, 4_000, 0, 0, d).unwrap();
        assert!(e.max < 15_000, "{e:?}");
    }

    #[test]
    fn pair_sets_follow_the_rate_bands() {
        let ea2 = Params::Continuous(instrument::ea2_is_value());
        assert!(pairs_pass(&ea2, 0, 20_000, 1_000));
        assert!(!pairs_pass(&ea2, 0, 20_000, 1_001));
        assert!(!pairs_pass(&ea2, 0, 20_001, 0));
        // A monotonic counter never passes a decrease.
        let ea4 = Params::Continuous(instrument::ea4_pulscnt());
        assert!(pairs_pass(&ea4, 100, 100, 0));
        assert!(!pairs_pass(&ea4, 100, 101, 1));
        let ea5 = Params::Discrete(instrument::ea5_slot());
        assert!(!pairs_pass(&ea5, 0, 0, 0));
    }
}
