//! The master node's stack: the [`crate::reach::FRAMES`] table packed
//! from the top of the 1008-byte bank downwards
//! ([`crate::reach::frame_layout`]), with everything below the deepest
//! frame dead space.
//!
//! A bit flip in the stack can hit (a) dead space below the deepest
//! frame — no effect; (b) a frame's *locals* — a data error in the
//! owning activation; or (c) a frame's *control* data (return address,
//! saved registers) — typically a control-flow error. The paper observes
//! that stack errors mostly cause control-flow errors, which signal-level
//! assertions are not aimed at.
//!
//! The CALC frame's locals are *real storage*: [`crate::CalcLocals`]
//! binds the velocity-estimation state to those bytes ([`calc_locals`]),
//! so flips there are genuine data errors. Control-slot hits are
//! interpreted by [`crate::kernel`] as control-flow faults. A periodic
//! module's frame holds live data only while its slot runs; a flip at
//! any other time is overwritten by the next push, which the table's
//! `slot` column states.

use crate::reach;
use crate::signals::CalcLocals;

/// Frame names used in the layout (shared with the node's dispatch).
pub mod frame {
    /// Interrupt context / scheduler return chain.
    pub const ISR_CTX: &str = "ISR_CTX";
    /// The cyclic-executive dispatcher.
    pub const KERNEL: &str = "KERNEL";
    /// The background process.
    pub const CALC: &str = "CALC";
    /// 1 ms clock module.
    pub const CLOCK: &str = "CLOCK";
    /// Rotation-sensor module.
    pub const DIST_S: &str = "DIST_S";
    /// Pressure-sensor module.
    pub const PRES_S: &str = "PRES_S";
    /// PID regulator module.
    pub const V_REG: &str = "V_REG";
    /// Valve actuator module.
    pub const PRES_A: &str = "PRES_A";
}

/// The CALC locals, bound at the start of the CALC frame's locals part.
pub fn calc_locals() -> CalcLocals {
    let (row, span) = reach::frame_layout()
        .find(|(row, _)| row.name == frame::CALC)
        .expect("a row of the table");
    debug_assert!(CalcLocals::BYTES <= row.locals);
    CalcLocals::at(span.start + row.control)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::{frame_at, frame_layout, FramePart};
    use memsim::STACK_BYTES;

    #[test]
    fn layout_fits_with_dead_majority() {
        let live: usize = frame_layout().map(|(_, span)| span.len()).sum();
        assert!(live < STACK_BYTES / 5);
        assert_eq!(frame_layout().count(), 8);
    }

    #[test]
    fn calc_locals_land_in_calc_frame_locals() {
        let locals = calc_locals();
        for cell_addr in [
            locals.prev_pulscnt.addr(),
            locals.v_est.addr(),
            locals.last_pc.addr() + 1,
        ] {
            let (row, part) = frame_at(cell_addr).expect("locals cell in dead space");
            assert_eq!(row.name, frame::CALC);
            assert_eq!(part, FramePart::Locals);
        }
    }

    #[test]
    fn isr_context_is_topmost() {
        let (row, span) = frame_layout().next().unwrap();
        assert_eq!(row.name, frame::ISR_CTX);
        assert_eq!(span.end, STACK_BYTES);
    }

    #[test]
    fn bottom_of_stack_is_dead() {
        assert_eq!(frame_at(0), None);
        assert_eq!(frame_at(400), None);
    }
}
