//! The memory image of the target software: every variable of the master
//! node bound to a fixed address in application RAM, plus the CALC
//! background process's stack-resident locals.
//!
//! All module code reads and writes *through* these cells, so an injected
//! bit flip in the RAM image perturbs real program state.

use memsim::{CellU16, Ram};

use crate::consts::{self, mode};
use crate::math::{distance_cm_from_payout, isqrt};
use crate::reach;

/// The application-RAM variables of the master node.
///
/// The first seven cells are the service-critical signals of paper
/// Table 4 (monitored by EA1–EA7); the rest are the unmonitored
/// variables the paper counts among the remaining 17 of 24 signals, the
/// checkpoint table, a diagnostic buffer and reserved space, filling the
/// full 417 bytes of the paper's application RAM.
#[derive(Debug, Clone)]
pub struct SignalMap {
    /// `mscnt` — millisecond clock (CLOCK).
    pub mscnt: CellU16,
    /// `ms_slot_nbr` — scheduler slot counter (CLOCK).
    pub ms_slot_nbr: CellU16,
    /// `pulscnt` — accumulated rotation pulses (DIST_S).
    pub pulscnt: CellU16,
    /// `i` — checkpoint counter (CALC).
    pub i: CellU16,
    /// `SetValue` — set-point pressure in pu (CALC → V_REG).
    pub set_value: CellU16,
    /// `IsValue` — measured pressure in pu (PRES_S → V_REG).
    pub is_value: CellU16,
    /// `OutValue` — valve command in pu (V_REG → PRES_A).
    pub out_value: CellU16,
    /// Operator-panel aircraft mass setting, units of 100 kg.
    pub mass_cfg: CellU16,
    /// System mode: armed / arresting / stopped.
    pub sys_mode: CellU16,
    /// CALC's slew-limit target for `SetValue`, pu.
    pub set_target: CellU16,
    /// Transmit mailbox of the master → slave set-point link.
    pub link_out: CellU16,
    /// V_REG integral accumulator (i16 stored as bits).
    pub pid_integ: CellU16,
    /// V_REG previous error (i16 stored as bits; feeds the derivative
    /// term).
    pub pid_prev_err: CellU16,
    /// CALC's distance estimate, cm (telemetry mirror, also used by the
    /// checkpoint law).
    pub calc_x_cm: CellU16,
    /// CALC's geometry factor `cosθ·1000` (telemetry mirror, also used
    /// by the checkpoint law).
    pub calc_cos1000: CellU16,
    /// PRES_S moving-average filter write index.
    pub filt_idx: CellU16,
    filt_buf: usize,
    cp_table: usize,
    cap_table: usize,
}

/// Depth of the PRES_S moving-average filter.
pub const FILTER_DEPTH: usize = 4;

impl SignalMap {
    /// Binds the complete master RAM image (exactly
    /// [`memsim::APP_RAM_BYTES`] bytes) to the addresses
    /// [`reach::ram_layout`] gives the [`crate::reach::RAM`] rows.
    pub fn allocate() -> Self {
        let at = |name: &str| reach::ram_span(name).expect("a row of the table").start;
        let cell = |name: &str| CellU16::at(at(name));
        SignalMap {
            mscnt: cell("mscnt"),
            ms_slot_nbr: cell("ms_slot_nbr"),
            pulscnt: cell("pulscnt"),
            i: cell("i"),
            set_value: cell("SetValue"),
            is_value: cell("IsValue"),
            out_value: cell("OutValue"),
            mass_cfg: cell("mass_cfg"),
            sys_mode: cell("sys_mode"),
            set_target: cell("set_target"),
            link_out: cell("link_out"),
            pid_integ: cell("pid_integ"),
            pid_prev_err: cell("pid_prev_err"),
            calc_x_cm: cell("calc_x_cm"),
            calc_cos1000: cell("calc_cos1000"),
            filt_idx: cell("filt_idx"),
            filt_buf: at("filt_buf"),
            cp_table: at("cp_table"),
            cap_table: at("cap_table"),
        }
    }

    /// Initialises the RAM image for a new mission: zeroes everything,
    /// sets the operator mass configuration (units of 100 kg), arms the
    /// system, and computes the checkpoint pulse-count table.
    pub fn init(&self, ram: &mut Ram, mass_cfg_100kg: u16) {
        ram.clear();
        self.mass_cfg.write(ram, mass_cfg_100kg);
        self.sys_mode.write(ram, mode::ARMED);
        for (idx, &x_cm) in consts::CHECKPOINT_X_CM.iter().enumerate() {
            // payout(x) = √(x² + a²) − a, converted to pulses.
            let a = consts::DRUM_OFFSET_CM;
            let payout_cm = isqrt((x_cm * x_cm + a * a) as u64) as i64 - a;
            let pulses = (payout_cm / consts::CM_PER_PULSE) as u16;
            let _ = ram.write_u16(self.cp_table + 2 * idx, pulses);
            // Per-checkpoint pressure protection cap (the installation's
            // hydraulic limit table).
            let _ = ram.write_u16(self.cap_table + 2 * idx, consts::SET_MAX_PU);
        }
    }

    /// Reads the pressure-protection cap for checkpoint `idx`, pu.
    /// Off-table indices read as the software ceiling.
    pub fn cap_for(&self, ram: &Ram, idx: u16) -> u16 {
        if usize::from(idx) >= consts::CHECKPOINT_X_CM.len() {
            return consts::SET_MAX_PU;
        }
        ram.read_u16(self.cap_table + 2 * usize::from(idx))
            .unwrap_or(consts::SET_MAX_PU)
    }

    /// Reads slot `k` of the PRES_S filter buffer.
    pub fn filt_read(&self, ram: &Ram, k: usize) -> u16 {
        ram.read_u16(self.filt_buf + 2 * (k % FILTER_DEPTH))
            .unwrap_or(0)
    }

    /// Writes slot `k` of the PRES_S filter buffer.
    pub fn filt_write(&self, ram: &mut Ram, k: usize, value: u16) {
        let _ = ram.write_u16(self.filt_buf + 2 * (k % FILTER_DEPTH), value);
    }

    /// Reads checkpoint threshold `idx` (pulses). Out-of-range indices
    /// read as `u16::MAX` (an unreachable threshold), mirroring how the
    /// 16-bit target would fall off the table.
    pub fn cp_threshold(&self, ram: &Ram, idx: u16) -> u16 {
        if usize::from(idx) >= consts::CHECKPOINT_X_CM.len() {
            return u16::MAX;
        }
        ram.read_u16(self.cp_table + 2 * usize::from(idx))
            .unwrap_or(u16::MAX)
    }

    /// `(signal name, start address)` of the seven monitored signals, in
    /// EA1..EA7 order — exactly the paper's Table 6 association
    /// (EA1 = SetValue, …, EA7 = OutValue maps via
    /// [`crate::EaId::signal_name`]).
    pub fn monitored(&self) -> [(&'static str, usize); 7] {
        [
            ("SetValue", self.set_value.addr()),
            ("IsValue", self.is_value.addr()),
            ("i", self.i.addr()),
            ("pulscnt", self.pulscnt.addr()),
            ("ms_slot_nbr", self.ms_slot_nbr.addr()),
            ("mscnt", self.mscnt.addr()),
            ("OutValue", self.out_value.addr()),
        ]
    }

    /// Reconstructs `x` (cm) from the pulse count — the controller-side
    /// inverse geometry (distinct from the plant's float geometry).
    pub fn distance_cm(&self, ram: &Ram) -> i64 {
        let payout_cm = i64::from(self.pulscnt.read(ram)) * consts::CM_PER_PULSE;
        distance_cm_from_payout(payout_cm, consts::DRUM_OFFSET_CM)
    }
}

/// CALC's stack-frame locals: live for the whole mission because CALC is
/// the background process whose frame never pops (paper Section 3.1).
/// Bit flips in the stack hitting these bytes perturb the velocity
/// estimation state — data errors that propagate into `SetValue` without
/// touching any monitored signal directly.
#[derive(Debug, Clone, Copy)]
pub struct CalcLocals {
    /// Pulse count at the last velocity-estimation instant.
    pub prev_pulscnt: CellU16,
    /// `mscnt` at the last velocity-estimation instant.
    pub prev_mscnt: CellU16,
    /// Estimated aircraft speed, cm/s.
    pub v_est: CellU16,
    /// Milliseconds without new pulses (stall/stop detector).
    pub stall_ms: CellU16,
    /// Last pulse count seen by the stall detector.
    pub last_pc: CellU16,
}

impl CalcLocals {
    /// Number of locals bytes the CALC frame must provide.
    pub const BYTES: usize = 10;

    /// Binds the locals at the given stack address (the locals base of
    /// the CALC frame).
    pub const fn at(base: usize) -> Self {
        CalcLocals {
            prev_pulscnt: CellU16::at(base),
            prev_mscnt: CellU16::at(base + 2),
            v_est: CellU16::at(base + 4),
            stall_ms: CellU16::at(base + 6),
            last_pc: CellU16::at(base + 8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::APP_RAM_BYTES;

    #[test]
    fn monitored_signals_have_distinct_addresses() {
        let sig = SignalMap::allocate();
        let mut addrs: Vec<usize> = sig.monitored().iter().map(|(_, a)| *a).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 7);
    }

    #[test]
    fn init_sets_mode_mass_and_checkpoints() {
        let sig = SignalMap::allocate();
        let mut ram = Ram::new(APP_RAM_BYTES);
        sig.init(&mut ram, 120);
        assert_eq!(sig.mass_cfg.read(&ram), 120);
        assert_eq!(sig.sys_mode.read(&ram), mode::ARMED);
        assert_eq!(sig.set_value.read(&ram), 0);
        // Checkpoint 1 at x = 30 m: payout = √(3000²+3000²) − 3000
        // = 1242 cm → 248 pulses.
        assert_eq!(sig.cp_threshold(&ram, 0), 248);
        // Thresholds strictly increase.
        for idx in 0..5 {
            assert!(sig.cp_threshold(&ram, idx) < sig.cp_threshold(&ram, idx + 1));
        }
        // Off-table reads are unreachable thresholds.
        assert_eq!(sig.cp_threshold(&ram, 6), u16::MAX);
        assert_eq!(sig.cp_threshold(&ram, 999), u16::MAX);
    }

    #[test]
    fn controller_distance_matches_plant_geometry() {
        let sig = SignalMap::allocate();
        let mut ram = Ram::new(APP_RAM_BYTES);
        sig.init(&mut ram, 120);
        // 400 pulses = 2000 cm payout → x = 4000 cm (3-4-5 triangle).
        sig.pulscnt.write(&mut ram, 400);
        assert_eq!(sig.distance_cm(&ram), 4_000);
    }

    #[test]
    fn calc_locals_are_packed_and_distinct() {
        let locals = CalcLocals::at(100);
        let addrs = [
            locals.prev_pulscnt.addr(),
            locals.prev_mscnt.addr(),
            locals.v_est.addr(),
            locals.stall_ms.addr(),
            locals.last_pc.addr(),
        ];
        for (k, addr) in addrs.iter().enumerate() {
            assert_eq!(*addr, 100 + 2 * k);
        }
        assert_eq!(addrs.len() * 2, CalcLocals::BYTES);
    }

    #[test]
    fn cap_table_initialises_to_ceiling() {
        let sig = SignalMap::allocate();
        let mut ram = Ram::new(APP_RAM_BYTES);
        sig.init(&mut ram, 120);
        for idx in 0..6 {
            assert_eq!(sig.cap_for(&ram, idx), crate::consts::SET_MAX_PU);
        }
        assert_eq!(sig.cap_for(&ram, 99), crate::consts::SET_MAX_PU);
    }

    #[test]
    fn filter_buffer_round_trips_and_wraps() {
        let sig = SignalMap::allocate();
        let mut ram = Ram::new(APP_RAM_BYTES);
        sig.init(&mut ram, 120);
        for k in 0..FILTER_DEPTH {
            sig.filt_write(&mut ram, k, (100 * k) as u16);
        }
        for k in 0..FILTER_DEPTH {
            assert_eq!(sig.filt_read(&ram, k), (100 * k) as u16);
            // Indices wrap modulo the depth.
            assert_eq!(sig.filt_read(&ram, k + FILTER_DEPTH), (100 * k) as u16);
        }
    }
}
