//! The complete experiment target: master + slave nodes closed over the
//! environment simulator.

use ea_core::{DetectionEvent, Millis};
use memsim::BitFlip;
use simenv::{Constraints, FailureMonitor, Plant, PlantState, TestCase, Verdict};

use crate::detectors::EaSet;
use crate::node::{MasterNode, SensorFrame, SlaveNode};
use crate::record_final::CommandReach;

/// Configuration of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which assertions are enabled (logging only; behaviour-neutral
    /// unless `recovery` is set).
    pub version: EaSet,
    /// Observation window, ms (paper: 40 000).
    pub observation_ms: Millis,
    /// Failure-classification constraints.
    pub constraints: Constraints,
    /// When set, detections repair the signal in place (recovery
    /// write-back). `None` reproduces the paper's detection-only
    /// experiment.
    pub recovery: Option<ea_core::RecoveryStrategy>,
    /// When set, continuous rate bounds are scaled to this percentage
    /// of their derived values (parameter-calibration sweeps).
    pub rate_scale_percent: Option<u16>,
    /// When set, every tick appends a [`crate::trace::TickRecord`] to
    /// the run's [`crate::trace::Trace`] (returned in
    /// [`RunOutcome::trace`]). Disabled recording costs one `Option`
    /// check per tick and allocates nothing.
    pub trace: bool,
}

impl RunConfig {
    /// Whether a run may stop before its window ends: only the paper's
    /// detection-only run shape, which traces nothing and writes no
    /// repair back. Every other run needs each
    /// tick of the node for its outputs and executes its full window
    /// ([`crate::checkpoint::SettleDetector::new`], [`System::finish`],
    /// [`crate::batch::run_lockstep`]).
    pub const fn stops_early(&self) -> bool {
        !self.trace && self.recovery.is_none()
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            version: EaSet::ALL,
            observation_ms: simenv::spec::OBSERVATION_MS,
            constraints: Constraints::default(),
            recovery: None,
            rate_scale_percent: None,
            trace: false,
        }
    }
}

/// The result of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Failure classification of the arrestment.
    pub verdict: Verdict,
    /// Each enabled mechanism's first detection, in firing order.
    pub detections: Vec<DetectionEvent>,
    /// Timestamp of the first detection, ms.
    pub first_detection_ms: Option<Millis>,
    /// Ticks the node half simulated: the instant [`System::finish`]
    /// was called at, even when it completed the window with the plant
    /// alone.
    pub duration_ms: Millis,
    /// Per-tick trace (present only with [`RunConfig::trace`]).
    pub trace: Option<crate::trace::Trace>,
}

/// Master node + slave node + plant, stepped together at 1 ms.
#[derive(Debug, Clone)]
pub struct System {
    plant: Plant,
    master: MasterNode,
    slave: SlaveNode,
    failmon: FailureMonitor,
    config: RunConfig,
    case: TestCase,
    time_ms: Millis,
    master_valve_pu: u16,
    slave_valve_pu: u16,
    cmds_stable_since_ms: Millis,
    /// The first flip injected, if any, and what every flip injected so
    /// far can reach ([`System::finish`]'s command-final continuation).
    injected: Option<BitFlip>,
    reach: CommandReach,
    trace: Option<crate::trace::Trace>,
}

impl System {
    /// A system at the engagement instant of `case`.
    pub fn new(case: TestCase, config: RunConfig) -> Self {
        let mass_cfg = (case.mass_kg / 100.0).round() as u16;
        let master = match (config.recovery, config.rate_scale_percent) {
            (Some(strategy), _) => MasterNode::with_recovery(mass_cfg, config.version, strategy),
            (None, Some(scale)) => MasterNode::with_detectors(
                mass_cfg,
                crate::instrument::build_detectors_scaled(config.version, scale),
            ),
            (None, None) => MasterNode::new(mass_cfg, config.version),
        };
        let trace = config.trace.then(|| {
            crate::trace::Trace::with_capacity(usize::try_from(config.observation_ms).unwrap_or(0))
        });
        System {
            plant: Plant::new(case),
            master,
            slave: SlaveNode::new(),
            failmon: FailureMonitor::new(),
            config,
            case,
            time_ms: 0,
            master_valve_pu: 0,
            slave_valve_pu: 0,
            cmds_stable_since_ms: 0,
            injected: None,
            reach: CommandReach::default(),
            trace,
        }
    }

    /// Current simulation time, ms.
    pub const fn time_ms(&self) -> Millis {
        self.time_ms
    }

    /// The plant's current state.
    pub fn plant_state(&self) -> PlantState {
        self.plant.state()
    }

    /// The master node (signals, detectors, memory).
    pub fn master(&self) -> &MasterNode {
        &self.master
    }

    /// The test case this system was engaged with.
    pub const fn case(&self) -> TestCase {
        self.case
    }

    /// The run configuration.
    pub const fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Freezes the complete simulation state into a resumable
    /// [`crate::checkpoint::Snapshot`].
    pub fn checkpoint(&self) -> crate::checkpoint::Snapshot {
        crate::checkpoint::Snapshot::of(self)
    }

    pub(crate) const fn failmon(&self) -> &FailureMonitor {
        &self.failmon
    }

    pub(crate) const fn slave(&self) -> &SlaveNode {
        &self.slave
    }

    pub(crate) const fn valve_commands_pu(&self) -> (u16, u16) {
        (self.master_valve_pu, self.slave_valve_pu)
    }

    /// The instant (ms) since which the valve-command pair has been
    /// constant: [`System::tick_nodes`] stamps the current time whenever
    /// a tick produces a different `(master_pu, slave_pu)` pair than the
    /// previous one. The analytic settle proof
    /// ([`crate::settle`]) needs command constancy over a whole
    /// capture interval, not just equality at its endpoints.
    pub(crate) const fn cmds_stable_since_ms(&self) -> Millis {
        self.cmds_stable_since_ms
    }

    /// The first flip [`System::inject`] applied, if any.
    pub(crate) const fn injected(&self) -> Option<BitFlip> {
        self.injected
    }

    /// Whether the valve commands are final and only the plant still
    /// needs integrating, for the flips injected so far re-injected at
    /// any later instants ([`crate::record_final::commands_final`]).
    pub(crate) fn commands_final(&self) -> bool {
        crate::record_final::commands_final(self, self.reach)
    }

    /// Injects one SWIFI bit flip into the master's memory, and records
    /// it: [`System::finish`] assumes that later injections, had the run
    /// gone on, would repeat the flips recorded so far.
    pub fn inject(&mut self, flip: BitFlip) {
        match self.injected {
            None => {
                self.injected = Some(flip);
                self.reach = CommandReach::of(flip);
            }
            Some(first) if first != flip => self.reach = CommandReach::ANYTHING,
            Some(_) => {}
        }
        self.master.inject(flip);
    }

    /// Replaces this system's environment half — plant state and
    /// failure accumulators — with a copy of `other`'s.
    ///
    /// Sound only when this system's valve-command history is
    /// bit-identical to `other`'s since the two forked from a common
    /// snapshot: the plant integrates purely from (state, commands)
    /// and the failure monitor folds purely over plant states, so
    /// identical command histories imply identical environments. The
    /// lockstep batch executor (`arrestor::batch`) uses this to
    /// materialise a lane's implied environment from the shared
    /// reference lane instead of integrating one plant per lane.
    pub fn adopt_environment(&mut self, other: &System) {
        self.plant = other.plant.clone();
        self.failmon = other.failmon.clone();
    }

    /// Advances the whole system by one millisecond.
    pub fn tick(&mut self) {
        // Sensors sample the plant at the start of the tick; one frame
        // feeds both nodes and the trace recorder.
        let sensors = self.sensors();
        self.tick_nodes(&sensors);
        self.tick_plant(&sensors);
    }

    /// This instant's sensor readings — the frame [`System::tick`]
    /// feeds to both nodes. Pure: sampling does not advance anything.
    pub fn sensors(&self) -> simenv::SensorReadout {
        self.plant.sensor_readout()
    }

    /// The node half of [`System::tick`]: advances the clock and runs
    /// the master and slave control cycles against `sensors`, leaving
    /// the environment untouched. Returns the resulting valve commands
    /// `(master_pu, slave_pu)`.
    ///
    /// `tick_nodes` followed by [`System::tick_plant`] with the same
    /// frame is exactly [`System::tick`]; the split exists so the
    /// lockstep batch executor (`arrestor::batch`) can share one
    /// reference environment across lanes whose command histories have
    /// not diverged.
    pub fn tick_nodes(&mut self, sensors: &simenv::SensorReadout) -> (u16, u16) {
        self.time_ms += 1;
        let previous = (self.master_valve_pu, self.slave_valve_pu);
        self.master_valve_pu = self.master.tick(
            SensorFrame {
                pulse_total: sensors.pulse_total,
                pressure_units: sensors.pressure_master_units,
            },
            self.time_ms,
        );
        let incoming = self.master.take_comm();
        self.slave_valve_pu = self.slave.tick(sensors.pressure_slave_units, incoming);
        if (self.master_valve_pu, self.slave_valve_pu) != previous {
            self.cmds_stable_since_ms = self.time_ms;
        }
        (self.master_valve_pu, self.slave_valve_pu)
    }

    /// The environment half of [`System::tick`]: integrates the plant
    /// under the valve commands set by [`System::tick_nodes`], folds
    /// the new state into the failure monitor, and
    /// (when tracing) records the tick. `sensors` must be the frame
    /// passed to the matching `tick_nodes` call; it only feeds the
    /// trace record.
    pub fn tick_plant(&mut self, sensors: &simenv::SensorReadout) {
        let state = self.plant.step(
            f64::from(self.master_valve_pu) / simenv::spec::PRESSURE_UNITS_PER_BAR,
            f64::from(self.slave_valve_pu) / simenv::spec::PRESSURE_UNITS_PER_BAR,
        );
        self.failmon.observe(&state);

        if let Some(trace) = &mut self.trace {
            trace.push(crate::trace::TickRecord {
                t_ms: self.time_ms,
                signals: self.master.snapshot(),
                master_valve_pu: self.master_valve_pu,
                slave_valve_pu: self.slave_valve_pu,
                slave_set_value: self.slave.set_value(),
                sensor_pulse_total: sensors.pulse_total,
                sensor_pressure_units: sensors.pressure_master_units,
                hung: self.master.hung(),
                calc_halted: self.master.calc_halted(),
                plant: state,
            });
        }
    }

    /// Runs the remaining window without injections and returns the
    /// outcome.
    pub fn run_to_completion(mut self) -> RunOutcome {
        while self.time_ms < self.config.observation_ms {
            self.tick();
        }
        self.finish()
    }

    /// Finalises the run: classifies the arrestment and collects the
    /// detection log.
    ///
    /// A run that stops before its window ends with the aircraft still
    /// rolling is classified at its window end when its commands are
    /// final ([`crate::record_final::commands_final`]): no later tick of
    /// the node, under further injections of the recorded flips at any
    /// instants, could change the valve commands or log a detection, so
    /// the plant and the failure monitor alone complete the window under
    /// the latched commands, up to arrest or the window end. The verdict
    /// and final distance are then bit-identical to running the node
    /// on; `docs/PROOFS.md` §Command-final tails has the argument. Any
    /// other run is classified as it stands. The continuation is off for
    /// runs that may not stop early ([`RunConfig::stops_early`]), whose
    /// outputs need every tick of the node.
    pub fn finish(mut self) -> RunOutcome {
        if self.config.observation_ms > self.time_ms
            && !self.failmon.arrested()
            && self.config.stops_early()
            && self.commands_final()
        {
            self.run_plant_tail();
        }
        let verdict = self.failmon.verdict(&self.config.constraints, self.case);
        let detections = self.master.detectors().events().to_vec();
        let first_detection_ms = detections.first().map(|e| e.at);
        RunOutcome {
            verdict,
            detections,
            first_detection_ms,
            duration_ms: self.time_ms,
            trace: self.trace,
        }
    }

    /// Steps the plant and the failure monitor under the latched valve
    /// commands up to arrest or the window end, exactly as
    /// [`System::tick_plant`] would.
    fn run_plant_tail(&mut self) {
        let master_bar = f64::from(self.master_valve_pu) / simenv::spec::PRESSURE_UNITS_PER_BAR;
        let slave_bar = f64::from(self.slave_valve_pu) / simenv::spec::PRESSURE_UNITS_PER_BAR;
        for _ in self.time_ms..self.config.observation_ms {
            let state = self.plant.step(master_bar, slave_bar);
            self.failmon.observe(&state);
            if state.arrested {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::EaId;
    use memsim::Region;

    /// The heaviest, fastest aircraft under a flip of `mscnt`'s top bit
    /// every 20 ms: the clock jumps corrupt CALC's velocity estimate,
    /// the schedule brakes too little, and the aircraft overruns under
    /// commands that stop changing seconds in.
    fn overrun_run(version: EaSet) -> (System, BitFlip) {
        let config = RunConfig {
            version,
            ..RunConfig::default()
        };
        let system = System::new(TestCase::new(20_000.0, 70.0), config);
        let flip = BitFlip::new(
            Region::AppRam,
            system.master().signals().mscnt.addr() + 1,
            7,
        );
        (system, flip)
    }

    /// Runs `system` on, injecting `flip` every 20 ms, up to the first
    /// 140 ms check instant at which its commands are final.
    fn run_until_commands_final(system: &mut System, flip: BitFlip) -> Millis {
        while system.time_ms() < system.config().observation_ms {
            let t = system.time_ms();
            if t > 0 && t.is_multiple_of(140) && system.commands_final() {
                return t;
            }
            if t > 0 && t.is_multiple_of(20) {
                system.inject(flip);
            }
            system.tick();
        }
        panic!("the commands never became final");
    }

    #[test]
    fn finish_at_a_command_final_instant_equals_running_the_node_on() {
        let (mut system, flip) = overrun_run(EaSet::ALL);
        let t = run_until_commands_final(&mut system, flip);
        assert!(!system.plant_state().arrested, "certified at {t} ms");
        let early = system.clone().finish();
        assert_eq!(early.duration_ms, t);
        while system.time_ms() < system.config().observation_ms {
            if system.time_ms().is_multiple_of(20) {
                system.inject(flip);
            }
            system.tick();
        }
        let full = system.finish();
        assert!(full.verdict.causes.contains(&simenv::FailureCause::Overrun));
        assert_eq!(early.verdict.causes, full.verdict.causes);
        assert_eq!(early.verdict.arrested, full.verdict.arrested);
        for (a, b) in [
            (
                early.verdict.final_distance_m,
                full.verdict.final_distance_m,
            ),
            (early.verdict.peak_force_n, full.verdict.peak_force_n),
            (
                early.verdict.peak_retardation_g,
                full.verdict.peak_retardation_g,
            ),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(early.detections, full.detections);
    }

    #[test]
    fn finish_at_an_uncertified_rolling_instant_classifies_the_run_as_it_stands() {
        // Fault-free and rolling: EA4 has logged nothing, so the
        // commands are not final and nothing continues the window.
        let mut system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
        while system.time_ms() < 2_000 {
            system.tick();
        }
        assert!(!system.commands_final());
        let distance = system.plant_state().distance_m;
        let outcome = system.finish();
        assert!(!outcome.verdict.arrested);
        assert_eq!(
            outcome.verdict.final_distance_m.to_bits(),
            distance.to_bits()
        );
        assert!(outcome
            .verdict
            .causes
            .contains(&simenv::FailureCause::Overrun));
    }

    #[test]
    fn command_final_predicate_refuses_each_broken_premise() {
        let (mut system, flip) = overrun_run(EaSet::ALL);
        run_until_commands_final(&mut system, flip);
        let master = system.master();
        let sig = master.signals();
        let reach = crate::record_final::CommandReach::of;
        let holds = |s: &System, f| crate::record_final::commands_final(s, reach(f));
        assert!(holds(&system, flip));
        // A flip into SetValue could move the set point and the commands.
        let set_value = BitFlip::new(Region::AppRam, sig.set_value.addr(), 3);
        assert!(!holds(&system, set_value));
        // `i < 6`: the checkpoint branch could set a new target.
        let mut before_last_checkpoint = system.clone();
        let i = before_last_checkpoint.master().signals().i;
        before_last_checkpoint
            .master
            .inject(BitFlip::new(Region::AppRam, i.addr(), 1));
        assert!(i.read(before_last_checkpoint.master().memory().app()) < 6);
        assert!(!before_last_checkpoint.commands_final());
        // A pressure outside its command's cell still moves its reading.
        let mut depressurised = system.clone();
        assert_ne!(depressurised.valve_commands_pu(), (0, 0));
        depressurised.plant = Plant::new(depressurised.case);
        assert!(!depressurised.commands_final());

        // EA4 without a logged detection on a running master: the pulse
        // count could still leave its range. A version without EA4 is
        // certified; logging EA4 from then on voids the certificate.
        let version = EaId::ALL
            .into_iter()
            .filter(|&ea| ea != EaId::Ea4)
            .fold(EaSet::NONE, |set, ea| set.union(EaSet::only(ea)));
        let (mut system, flip) = overrun_run(version);
        run_until_commands_final(&mut system, flip);
        assert!(!system.master().detectors().has_detected(EaId::Ea4));
        system.master.detectors_mut().set_version(EaSet::ALL);
        assert!(!system.commands_final());
    }

    #[test]
    fn nominal_arrestment_succeeds_without_detection() {
        let system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
        let outcome = system.run_to_completion();
        assert!(!outcome.verdict.failed(), "verdict: {:?}", outcome.verdict);
        assert!(outcome.verdict.arrested);
        assert!(outcome.verdict.final_distance_m < 335.0);
        assert!(
            outcome.detections.is_empty(),
            "fault-free run raised {:?}",
            outcome.detections.first()
        );
    }

    #[test]
    fn heaviest_fastest_case_still_stops_in_time() {
        let system = System::new(TestCase::new(20_000.0, 70.0), RunConfig::default());
        let outcome = system.run_to_completion();
        assert!(!outcome.verdict.failed(), "verdict: {:?}", outcome.verdict);
        assert!(outcome.verdict.final_distance_m < 335.0);
        assert!(outcome.detections.is_empty());
    }

    #[test]
    fn lightest_slowest_case_is_gentle() {
        let system = System::new(TestCase::new(8_000.0, 40.0), RunConfig::default());
        let outcome = system.run_to_completion();
        assert!(!outcome.verdict.failed(), "verdict: {:?}", outcome.verdict);
        assert!(outcome.verdict.peak_retardation_g < 1.0);
        assert!(outcome.detections.is_empty());
    }

    #[test]
    fn injected_msb_set_value_error_is_detected() {
        let mut system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
        let set_addr = system.master().signals().set_value.addr();
        // Let the arrestment develop, then corrupt SetValue's MSB every
        // 20 ms like the FIC does.
        while system.time_ms() < 10_000 {
            if system.time_ms() >= 20 && system.time_ms().is_multiple_of(20) {
                system.inject(BitFlip::new(memsim::Region::AppRam, set_addr + 1, 7));
            }
            system.tick();
        }
        assert!(!system.master().detectors().events().is_empty());
    }
}
