//! The plant: aircraft + cable + drums + hydraulics, integrated at 1 ms.

use serde::{Deserialize, Serialize};

use crate::geometry::CableGeometry;
use crate::spec;
use crate::testcase::TestCase;

/// Instantaneous physical state exposed to the failure classifier and
/// the readout recorder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlantState {
    /// Time since engagement, ms.
    pub time_ms: u64,
    /// Distance travelled down the runway, m.
    pub distance_m: f64,
    /// Aircraft velocity, m/s (0 when arrested).
    pub velocity_ms: f64,
    /// Instantaneous retardation, m/s² (positive while slowing).
    pub retardation_ms2: f64,
    /// Total retarding force exerted by the cable on the aircraft, N.
    pub cable_force_n: f64,
    /// Actual pressure at the master valve, bar.
    pub pressure_master_bar: f64,
    /// Actual pressure at the slave valve, bar.
    pub pressure_slave_bar: f64,
    /// Whether the aircraft has come to a halt.
    pub arrested: bool,
}

/// One instant's sensor readings, as sampled by the nodes' sensor
/// interfaces at the start of a tick ([`Plant::sensor_readout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SensorReadout {
    /// Total rotation pulses since engagement (master drum tooth wheel).
    pub pulse_total: u16,
    /// Master pressure sensor, software units (0.01 bar).
    pub pressure_master_units: u16,
    /// Slave pressure sensor, software units (0.01 bar).
    pub pressure_slave_units: u16,
}

/// The environment simulator: consumes valve commands, produces sensor
/// readings, integrates the dynamics at [`spec::DT_S`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plant {
    geometry: CableGeometry,
    mass_kg: f64,
    time_ms: u64,
    x_m: f64,
    v_ms: f64,
    p_master_bar: f64,
    p_slave_bar: f64,
    retardation_ms2: f64,
    cable_force_n: f64,
    arrested: bool,
}

impl Plant {
    /// A plant at the moment of engagement for the given test case.
    pub fn new(case: TestCase) -> Self {
        Plant {
            geometry: CableGeometry::default(),
            mass_kg: case.mass_kg,
            time_ms: 0,
            x_m: 0.0,
            v_ms: case.velocity_ms,
            p_master_bar: 0.0,
            p_slave_bar: 0.0,
            retardation_ms2: 0.0,
            cable_force_n: 0.0,
            arrested: false,
        }
    }

    /// Advances one millisecond with the given commanded valve pressures
    /// (bar). Commands are clamped to the physical range
    /// `[0, PRESSURE_MAX_BAR]`; the valves follow with a first-order lag.
    pub fn step(&mut self, cmd_master_bar: f64, cmd_slave_bar: f64) -> PlantState {
        let dt = spec::DT_S;
        self.time_ms += 1;

        // Hydraulics: first-order lag towards the clamped command.
        let cmd_m = clamp_pressure(cmd_master_bar);
        let cmd_s = clamp_pressure(cmd_slave_bar);
        self.p_master_bar += (cmd_m - self.p_master_bar) / spec::VALVE_TAU_S * dt;
        self.p_slave_bar += (cmd_s - self.p_slave_bar) / spec::VALVE_TAU_S * dt;

        if !self.arrested {
            // Cable force: each drum's brake tension pulls along its
            // cable half; the along-runway components add.
            let cos_theta = self.geometry.cos_theta(self.x_m);
            let tension = spec::TENSION_N_PER_BAR * (self.p_master_bar + self.p_slave_bar);
            self.cable_force_n = tension * cos_theta;
            let total_force = self.cable_force_n + spec::ROLLING_RESIST_N;
            self.retardation_ms2 = total_force / self.mass_kg;

            // Semi-implicit Euler.
            self.v_ms -= self.retardation_ms2 * dt;
            if self.v_ms <= 0.0 {
                self.v_ms = 0.0;
                self.arrested = true;
                self.retardation_ms2 = 0.0;
                self.cable_force_n = 0.0;
            } else {
                self.x_m += self.v_ms * dt;
            }
        } else {
            self.retardation_ms2 = 0.0;
            self.cable_force_n = 0.0;
        }

        self.state()
    }

    /// The current physical state.
    pub fn state(&self) -> PlantState {
        PlantState {
            time_ms: self.time_ms,
            distance_m: self.x_m,
            velocity_ms: self.v_ms,
            retardation_ms2: self.retardation_ms2,
            cable_force_n: self.cable_force_n,
            pressure_master_bar: self.p_master_bar,
            pressure_slave_bar: self.p_slave_bar,
            arrested: self.arrested,
        }
    }

    /// Rotation-sensor reading: total pulses generated by the master
    /// drum's tooth wheel since engagement (also available bundled via
    /// [`Plant::sensor_readout`]).
    pub fn pulse_count(&self) -> u16 {
        let payout = self.geometry.payout_m(self.x_m);
        // Whole pulses, saturated to `u16`: `as` truncates towards zero,
        // which is the floor of every value it keeps, and reads NaN and
        // negatives as 0 and anything past `u16::MAX` as `u16::MAX`.
        (payout / spec::METERS_PER_PULSE) as u16
    }

    /// Master pressure-sensor reading in software units (0.01 bar).
    pub fn pressure_units_master(&self) -> u16 {
        to_units(self.p_master_bar)
    }

    /// Slave pressure-sensor reading in software units (0.01 bar).
    pub fn pressure_units_slave(&self) -> u16 {
        to_units(self.p_slave_bar)
    }

    /// All sensor readings of this instant as one frame — what the
    /// nodes' sensor interfaces sample at the start of a tick, and what
    /// a trace records as the run's environment inputs.
    pub fn sensor_readout(&self) -> SensorReadout {
        SensorReadout {
            pulse_total: self.pulse_count(),
            pressure_master_units: self.pressure_units_master(),
            pressure_slave_units: self.pressure_units_slave(),
        }
    }

    /// The cable geometry in use.
    pub fn geometry(&self) -> CableGeometry {
        self.geometry
    }

    /// Aircraft mass, kg.
    pub const fn mass_kg(&self) -> f64 {
        self.mass_kg
    }
}

/// The command clamp applied by [`Plant::step`] before the hydraulic
/// lag: NaN commands read as zero, everything else is clamped to the
/// physical range `[0, PRESSURE_MAX_BAR]`. Exported so the analytic
/// settle bound (`arrestor::settle`) reasons about the *exact* effective
/// command the plant integrates towards, not a reimplementation.
pub fn clamp_pressure(bar: f64) -> f64 {
    if bar.is_nan() {
        0.0
    } else {
        bar.clamp(0.0, spec::PRESSURE_MAX_BAR)
    }
}

/// The pressure-sensor quantisation: bar → software units of 0.01 bar,
/// rounded to nearest and saturated to `u16`. This is the exact map
/// behind [`Plant::pressure_units_master`]/[`Plant::pressure_units_slave`];
/// the analytic settle bound (`arrestor::settle`) uses it to delimit the
/// sensor cell a pressure trajectory must stay inside.
pub fn to_units(bar: f64) -> u16 {
    let units = bar * spec::PRESSURE_UNITS_PER_BAR;
    // `f64::round` (half away from zero) without its library call, on
    // the sensor hot path: `as` floors a non-negative value, saturating,
    // and reads NaN and negatives as 0; below 2³² the fraction is exact.
    let whole = units as u32;
    let half_up = units - f64::from(whole) >= 0.5;
    whole
        .saturating_add(u32::from(half_up))
        .min(u32::from(u16::MAX)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case() -> TestCase {
        TestCase::new(12_000.0, 55.0)
    }

    #[test]
    fn coasting_without_pressure_decelerates_slowly() {
        let mut plant = Plant::new(case());
        for _ in 0..1_000 {
            plant.step(0.0, 0.0);
        }
        let s = plant.state();
        // Rolling resistance only: a = 2000/12000 ≈ 0.167 m/s².
        assert!(s.velocity_ms < 55.0);
        assert!(s.velocity_ms > 54.5);
        assert!((s.distance_m - 55.0).abs() < 1.0);
    }

    #[test]
    fn braking_arrests_the_aircraft() {
        let mut plant = Plant::new(case());
        let mut steps = 0u64;
        while !plant.state().arrested && steps < 60_000 {
            plant.step(100.0, 100.0);
            steps += 1;
        }
        let s = plant.state();
        assert!(s.arrested, "aircraft should stop under 100 bar braking");
        assert!(s.distance_m < spec::RUNWAY_M);
        assert_eq!(s.velocity_ms, 0.0);
    }

    #[test]
    fn valve_lag_is_first_order() {
        let mut plant = Plant::new(case());
        // After one time constant (150 ms), pressure ≈ 63 % of command.
        for _ in 0..150 {
            plant.step(100.0, 0.0);
        }
        let p = plant.state().pressure_master_bar;
        assert!((p - 63.2).abs() < 2.0, "p = {p}");
        assert!(plant.state().pressure_slave_bar < 1.0);
    }

    #[test]
    fn commands_are_clamped() {
        let mut plant = Plant::new(case());
        for _ in 0..5_000 {
            plant.step(10_000.0, -50.0);
        }
        let s = plant.state();
        assert!(s.pressure_master_bar <= spec::PRESSURE_MAX_BAR + 1e-6);
        assert!(s.pressure_slave_bar >= 0.0);
        // NaN command must not poison the state.
        plant.step(f64::NAN, 0.0);
        assert!(plant.state().pressure_master_bar.is_finite());
    }

    #[test]
    fn pulse_count_tracks_payout() {
        let mut plant = Plant::new(case());
        assert_eq!(plant.pulse_count(), 0);
        for _ in 0..2_000 {
            plant.step(0.0, 0.0);
        }
        let payout = plant.geometry().payout_m(plant.state().distance_m);
        let expected = (payout / spec::METERS_PER_PULSE) as u16;
        assert_eq!(plant.pulse_count(), expected);
        assert!(plant.pulse_count() > 0);
    }

    #[test]
    fn sensor_readout_bundles_the_individual_sensors() {
        let mut plant = Plant::new(TestCase::new(12_000.0, 55.0));
        for _ in 0..500 {
            plant.step(20.0, 15.0);
        }
        let frame = plant.sensor_readout();
        assert_eq!(frame.pulse_total, plant.pulse_count());
        assert_eq!(frame.pressure_master_units, plant.pressure_units_master());
        assert_eq!(frame.pressure_slave_units, plant.pressure_units_slave());
        assert!(frame.pulse_total > 0);
        assert!(frame.pressure_master_units > frame.pressure_slave_units);
    }

    #[test]
    fn pressure_units_scale() {
        let mut plant = Plant::new(case());
        for _ in 0..10_000 {
            plant.step(50.0, 50.0);
        }
        // Pressure converged to ~50 bar = ~5000 units (if not arrested
        // first, which at 50 bar on 12 t takes longer than 10 s... the
        // valve keeps following its command even after arrest).
        let units = plant.pressure_units_master();
        assert!((4_900..=5_100).contains(&units), "units = {units}");
    }

    #[test]
    fn arrested_state_is_stable() {
        let mut plant = Plant::new(TestCase::new(8_000.0, 40.0));
        for _ in 0..60_000 {
            plant.step(120.0, 120.0);
        }
        let s1 = plant.state();
        assert!(s1.arrested);
        let d = s1.distance_m;
        for _ in 0..1_000 {
            plant.step(120.0, 120.0);
        }
        let s2 = plant.state();
        assert_eq!(s2.distance_m, d);
        assert_eq!(s2.velocity_ms, 0.0);
        assert_eq!(s2.retardation_ms2, 0.0);
    }

    #[test]
    fn heavier_aircraft_stops_later() {
        let run = |mass: f64| {
            let mut plant = Plant::new(TestCase::new(mass, 60.0));
            while !plant.state().arrested && plant.state().time_ms < 120_000 {
                plant.step(80.0, 80.0);
            }
            plant.state().distance_m
        };
        assert!(run(18_000.0) > run(9_000.0));
    }

    /// The sensor quantisation as `f64::round`/`f64::floor` and a
    /// saturating clamp spell it.
    fn reference_quantise(value: f64, round: bool) -> u16 {
        let whole = if round { value.round() } else { value.floor() };
        if whole < 0.0 {
            0
        } else if whole > f64::from(u16::MAX) {
            u16::MAX
        } else {
            whole as u16
        }
    }

    /// Each value, its neighbours one ulp away, and every half-unit
    /// boundary the sweep crosses with its neighbours.
    fn quantisation_inputs() -> Vec<f64> {
        let mut values = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            0.0,
            -0.0,
            4_294_967_295.5,
            4_294_967_296.0,
        ];
        for k in -2_000..140_000i64 {
            let half = k as f64 / 2.0;
            values.extend([half, half + 0.25, 0.37 * half]);
        }
        values
            .into_iter()
            .flat_map(|v| [v.next_down(), v, v.next_up()])
            .collect()
    }

    #[test]
    fn pressure_units_round_half_away_from_zero() {
        for units in quantisation_inputs() {
            let bar = units / spec::PRESSURE_UNITS_PER_BAR;
            assert_eq!(
                to_units(bar),
                reference_quantise(bar * spec::PRESSURE_UNITS_PER_BAR, true),
                "{bar:e} bar"
            );
        }
    }

    #[test]
    fn pulse_counts_floor() {
        for pulses in quantisation_inputs() {
            assert_eq!(
                pulses as u16,
                reference_quantise(pulses, false),
                "{pulses:e}"
            );
        }
    }

    #[test]
    fn time_advances_one_ms_per_step() {
        let mut plant = Plant::new(case());
        for _ in 0..123 {
            plant.step(0.0, 0.0);
        }
        assert_eq!(plant.state().time_ms, 123);
    }
}
