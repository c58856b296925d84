//! The computer nodes: master (full module set, injectable memory,
//! executable assertions) and slave (receives the set point, drives the
//! second drum).

use ea_core::Millis;
use memsim::{BitFlip, Region, TargetMemory};

use crate::consts::slot;
use crate::control;
use crate::detectors::{Detectors, EaSet};
use crate::instrument::build_detectors;
use crate::kernel::{interpret_stack_hit, KernelState};
use crate::modules::{calc, clock, dist_s, pres_a, pres_s, v_reg};
use crate::signals::{CalcLocals, SignalMap};
use crate::stackmodel::{frame, master_stack};

/// Sensor values delivered to a node at the start of a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorFrame {
    /// Total rotation pulses since engagement (master only).
    pub pulse_total: u16,
    /// Pressure-sensor reading, software units.
    pub pressure_units: u16,
}

/// The master node: six modules over injectable RAM + stack, the seven
/// executable assertions, and the control-flow fault state.
#[derive(Debug, Clone)]
pub struct MasterNode {
    mem: TargetMemory,
    sig: SignalMap,
    locals: CalcLocals,
    det: Detectors,
    kernel: KernelState,
    valve_latch: u16,
    last_pulse_total: u16,
    comm_out: Option<u16>,
}

impl MasterNode {
    /// A master node initialised for a mission: `mass_cfg_100kg` is the
    /// operator-panel mass setting, `version` the enabled assertion set.
    /// Detection-only, as in the paper's experiment.
    pub fn new(mass_cfg_100kg: u16, version: EaSet) -> Self {
        MasterNode::with_detectors(mass_cfg_100kg, build_detectors(version))
    }

    /// A master node whose mechanisms also *repair* the signals they
    /// guard (the recovery ablation configuration).
    pub fn with_recovery(
        mass_cfg_100kg: u16,
        version: EaSet,
        recovery: ea_core::RecoveryStrategy,
    ) -> Self {
        MasterNode::with_detectors(
            mass_cfg_100kg,
            crate::instrument::build_detectors_with_recovery(version, recovery),
        )
    }

    /// A master node with a caller-supplied detector bank (calibration
    /// sweeps, custom parameterisations). The bank must hold EA1..EA7
    /// in order.
    pub fn with_detectors(mass_cfg_100kg: u16, det: Detectors) -> Self {
        let (_, locals) = master_stack();
        let mut mem = TargetMemory::new();
        let sig = SignalMap::allocate().expect("the image fits the paper RAM");
        sig.init(mem.app_mut(), mass_cfg_100kg);
        MasterNode {
            mem,
            sig,
            locals,
            det,
            kernel: KernelState::new(),
            valve_latch: 0,
            last_pulse_total: 0,
            comm_out: None,
        }
    }

    /// One 1 ms tick: CLOCK, DIST_S, the slot module, then the CALC
    /// background pass. Returns the valve command (pu) currently
    /// latched.
    pub fn tick(&mut self, sensors: SensorFrame, t: Millis) -> u16 {
        if self.kernel.hung() {
            return self.valve_latch;
        }
        let ram = self.mem.app_mut();

        // CLOCK.
        let slot_nbr = if self.kernel.consume_module_skip(frame::CLOCK) {
            self.sig.ms_slot_nbr.read(ram)
        } else {
            clock::run(&self.sig, ram, &mut self.det, t)
        };

        // DIST_S: the sensor interface hands over the pulses since the
        // last read (read-and-clear hardware counter).
        let delta = sensors.pulse_total.wrapping_sub(self.last_pulse_total);
        self.last_pulse_total = sensors.pulse_total;
        if self.kernel.consume_module_skip(frame::DIST_S) {
            // The pulses stay pending in the hardware counter.
            self.last_pulse_total = self.last_pulse_total.wrapping_sub(delta);
        } else {
            dist_s::run(&self.sig, ram, &mut self.det, delta, t);
        }

        // The slot module.
        match slot_nbr {
            slot::PRES_S if !self.kernel.consume_slot_skip(frame::PRES_S) => {
                pres_s::run(&self.sig, ram, sensors.pressure_units);
            }
            slot::V_REG if !self.kernel.consume_slot_skip(frame::V_REG) => {
                v_reg::run(&self.sig, ram, &mut self.det, t);
            }
            slot::PRES_A if !self.kernel.consume_slot_skip(frame::PRES_A) => {
                self.valve_latch = pres_a::run(&self.sig, ram, &mut self.det, t);
            }
            slot::COMM if !self.kernel.consume_slot_skip("COMM") => {
                let sv = self.sig.set_value.read(ram);
                self.sig.link_out.write(ram, sv);
                self.comm_out = Some(self.sig.link_out.read(ram));
            }
            _ => {}
        }

        // CALC background pass.
        if !self.kernel.calc_halted() {
            let (app, stack) = self.mem.banks_mut();
            calc::run(&self.sig, app, &self.locals, stack, &mut self.det, t);
        }

        self.valve_latch
    }

    /// Takes the set point transmitted to the slave this tick, if the
    /// COMM slot ran.
    pub fn take_comm(&mut self) -> Option<u16> {
        self.comm_out.take()
    }

    /// Applies a SWIFI bit flip; stack hits are interpreted into
    /// control-flow faults against the upcoming slot.
    ///
    /// Out-of-range coordinates are ignored (the FIC validates its error
    /// sets; a bad flip hitting nothing mirrors a flip into unmapped
    /// address space).
    pub fn inject(&mut self, flip: BitFlip) {
        let upcoming_slot = {
            let s = self.sig.ms_slot_nbr.read(self.mem.app());
            if s >= slot::COUNT - 1 {
                0
            } else {
                s + 1
            }
        };
        if self.mem.inject(flip).is_ok() && flip.region == Region::Stack {
            if let Some(fault) = interpret_stack_hit(flip.addr, upcoming_slot) {
                self.kernel.apply(fault);
            }
        }
    }

    /// Snapshot of the node's visible program state (scalar RAM
    /// variables plus CALC's stack locals) for trace capture.
    pub fn snapshot(&self) -> crate::trace::SignalSnapshot {
        let ram = self.mem.app();
        let stack = self.mem.stack();
        crate::trace::SignalSnapshot {
            mscnt: self.sig.mscnt.read(ram),
            ms_slot_nbr: self.sig.ms_slot_nbr.read(ram),
            pulscnt: self.sig.pulscnt.read(ram),
            i: self.sig.i.read(ram),
            set_value: self.sig.set_value.read(ram),
            is_value: self.sig.is_value.read(ram),
            out_value: self.sig.out_value.read(ram),
            sys_mode: self.sig.sys_mode.read(ram),
            set_target: self.sig.set_target.read(ram),
            link_out: self.sig.link_out.read(ram),
            pid_integ: self.sig.pid_integ.read(ram),
            pid_prev_err: self.sig.pid_prev_err.read(ram),
            calc_v_est: self.locals.v_est.read(stack),
            calc_stall_ms: self.locals.stall_ms.read(stack),
        }
    }

    /// The detection log of the node's assertions.
    pub fn detectors(&self) -> &Detectors {
        &self.det
    }

    #[cfg(test)]
    pub(crate) fn detectors_mut(&mut self) -> &mut Detectors {
        &mut self.det
    }

    /// The node's signal map (addresses for error-set construction).
    pub fn signals(&self) -> &SignalMap {
        &self.sig
    }

    /// The node's memory (for white-box inspection in tests/examples).
    pub fn memory(&self) -> &TargetMemory {
        &self.mem
    }

    /// Whether the node has hung from a control-flow fault.
    pub fn hung(&self) -> bool {
        self.kernel.hung()
    }

    /// Whether the background process has halted.
    pub fn calc_halted(&self) -> bool {
        self.kernel.calc_halted()
    }

    pub(crate) const fn kernel(&self) -> &KernelState {
        &self.kernel
    }

    pub(crate) const fn calc_locals(&self) -> &CalcLocals {
        &self.locals
    }

    pub(crate) const fn valve_latch(&self) -> u16 {
        self.valve_latch
    }

    pub(crate) const fn last_pulse_total(&self) -> u16 {
        self.last_pulse_total
    }

    pub(crate) const fn comm_out(&self) -> Option<u16> {
        self.comm_out
    }
}

/// The slave node: CLOCK, PRES_S, V_REG, PRES_A; no DIST_S/CALC (paper
/// Section 3.1), no assertions. It is never injected (the paper injects
/// only into the master), so its seven variables are plain words rather
/// than a RAM image.
#[derive(Debug, Clone, Default)]
pub struct SlaveNode {
    /// Slave millisecond clock.
    pub(crate) mscnt: u16,
    /// Slave scheduler slot.
    pub(crate) ms_slot_nbr: u16,
    /// Set point received from the master.
    pub(crate) set_value: u16,
    /// Slave pressure-sensor reading, pu.
    pub(crate) is_value: u16,
    /// Slave valve command, pu.
    pub(crate) out_value: u16,
    /// Slave PID integral accumulator.
    pub(crate) pid_integ: u16,
    /// Slave PID previous error (derivative term).
    pub(crate) pid_prev_err: u16,
    valve_latch: u16,
}

impl SlaveNode {
    /// A fresh slave node.
    pub fn new() -> Self {
        SlaveNode::default()
    }

    /// One 1 ms tick. `incoming_set` is the set point received from the
    /// master (applied immediately when present).
    pub fn tick(&mut self, pressure_units: u16, incoming_set: Option<u16>) -> u16 {
        self.mscnt = self.mscnt.wrapping_add(1);
        self.ms_slot_nbr = if self.ms_slot_nbr >= slot::COUNT - 1 {
            0
        } else {
            self.ms_slot_nbr + 1
        };

        if let Some(sv) = incoming_set {
            self.set_value = sv;
        }

        match self.ms_slot_nbr {
            slot::PRES_S => self.is_value = pressure_units,
            slot::V_REG => {
                (self.out_value, self.pid_integ, self.pid_prev_err) = control::pid_step(
                    self.set_value,
                    self.is_value,
                    self.pid_integ,
                    self.pid_prev_err,
                );
            }
            slot::PRES_A => self.valve_latch = self.out_value,
            _ => {}
        }
        self.valve_latch
    }

    /// The current set point held by the slave.
    pub const fn set_value(&self) -> u16 {
        self.set_value
    }

    pub(crate) const fn valve_latch(&self) -> u16 {
        self.valve_latch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::Region;

    fn idle_sensors() -> SensorFrame {
        SensorFrame {
            pulse_total: 0,
            pressure_units: 0,
        }
    }

    #[test]
    fn master_ticks_quietly_when_idle() {
        let mut node = MasterNode::new(120, EaSet::ALL);
        for t in 1..=100u64 {
            node.tick(idle_sensors(), t);
        }
        assert!(node.detectors().events().is_empty());
        assert_eq!(node.signals().mscnt.read(node.memory().app()), 100);
        assert!(!node.hung());
    }

    #[test]
    fn master_engages_on_pulses() {
        let mut node = MasterNode::new(120, EaSet::ALL);
        for t in 1..=50u64 {
            node.tick(
                SensorFrame {
                    pulse_total: t as u16, // one pulse per ms
                    pressure_units: 0,
                },
                t,
            );
        }
        let ram = node.memory().app();
        assert_eq!(
            node.signals().sys_mode.read(ram),
            crate::consts::mode::ARRESTING
        );
        assert!(node.signals().set_value.read(ram) > 0);
        assert!(node.detectors().events().is_empty());
    }

    #[test]
    fn hang_freezes_everything() {
        let mut node = MasterNode::new(120, EaSet::ALL);
        for t in 1..=10u64 {
            node.tick(idle_sensors(), t);
        }
        let mscnt_before = node.signals().mscnt.read(node.memory().app());
        // Hit the ISR context: top of the stack bank.
        node.inject(BitFlip::new(Region::Stack, memsim::STACK_BYTES - 1, 0));
        assert!(node.hung());
        for t in 11..=20u64 {
            node.tick(idle_sensors(), t);
        }
        assert_eq!(node.signals().mscnt.read(node.memory().app()), mscnt_before);
    }

    #[test]
    fn ram_injection_perturbs_signals() {
        let mut node = MasterNode::new(120, EaSet::ALL);
        for t in 1..=10u64 {
            node.tick(idle_sensors(), t);
        }
        let mscnt_addr = node.signals().mscnt.addr();
        node.inject(BitFlip::new(Region::AppRam, mscnt_addr + 1, 5));
        node.tick(idle_sensors(), 11);
        // EA6 fires on the corrupted clock.
        assert!(!node.detectors().events().is_empty());
    }

    #[test]
    fn comm_transmits_set_value_every_cycle() {
        let mut node = MasterNode::new(120, EaSet::ALL);
        let mut transmissions = 0;
        for t in 1..=70u64 {
            node.tick(idle_sensors(), t);
            if node.take_comm().is_some() {
                transmissions += 1;
            }
        }
        assert_eq!(transmissions, 10); // every 7 ms
    }

    #[test]
    fn slave_follows_received_set_point() {
        let mut slave = SlaveNode::new();
        let mut valve = 0u16;
        let mut pressure = 0.0f64; // first-order valve model, τ ≈ 20 ms
        for t in 0..700u64 {
            let incoming = (t % 7 == 6).then_some(3_000);
            pressure += (f64::from(valve) - pressure) / 20.0;
            valve = slave.tick(pressure as u16, incoming);
        }
        assert_eq!(slave.set_value(), 3_000);
        // Feed-forward drives the valve command to the set point.
        assert!((2_500..=4_500).contains(&valve), "valve = {valve}");
    }
}
