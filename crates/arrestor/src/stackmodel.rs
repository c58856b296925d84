//! The master node's stack layout: the [`crate::reach::FRAMES`] table
//! pushed top of the 1008-byte stack downwards, with everything below
//! the deepest frame dead space.
//!
//! The CALC frame's locals are *real storage*: [`crate::CalcLocals`]
//! binds the velocity-estimation state to those bytes, so flips there
//! are genuine data errors. Control-slot hits are interpreted by
//! [`crate::kernel`] as control-flow faults.

use memsim::{StackLayout, STACK_BYTES};

use crate::reach::FRAMES;
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

/// Builds the master's stack layout and the CALC locals binding.
///
/// # Panics
///
/// Never for the paper's stack size; the layout totals ≈ 170 bytes.
pub fn master_stack() -> (StackLayout, CalcLocals) {
    let mut layout = StackLayout::new(STACK_BYTES);
    for row in &FRAMES {
        layout
            .push_frame(row.name, row.control, row.locals, row.liveness())
            .expect("fits");
    }
    let calc = layout.frame(frame::CALC).expect("a row of the table");
    let locals_base = calc.base + calc.control;
    debug_assert!(CalcLocals::BYTES <= calc.locals);
    (layout, CalcLocals::at(locals_base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{FramePart, StackHit};

    #[test]
    fn layout_fits_with_dead_majority() {
        let (layout, _) = master_stack();
        assert!(layout.live_bytes() < STACK_BYTES / 5);
        assert_eq!(layout.frames().len(), 8);
    }

    #[test]
    fn calc_locals_land_in_calc_frame_locals() {
        let (layout, locals) = master_stack();
        for cell_addr in [
            locals.prev_pulscnt.addr(),
            locals.v_est.addr(),
            locals.last_pc.addr() + 1,
        ] {
            match layout.classify(cell_addr) {
                StackHit::Frame { module, part, .. } => {
                    assert_eq!(module, frame::CALC);
                    assert_eq!(part, FramePart::Locals);
                }
                StackHit::Dead => panic!("locals cell in dead space"),
            }
        }
    }

    #[test]
    fn isr_context_is_topmost() {
        let (layout, _) = master_stack();
        let isr = layout.frame(frame::ISR_CTX).unwrap();
        assert_eq!(isr.base + isr.size(), STACK_BYTES);
    }

    #[test]
    fn bottom_of_stack_is_dead() {
        let (layout, _) = master_stack();
        assert_eq!(layout.classify(0), StackHit::Dead);
        assert_eq!(layout.classify(400), StackHit::Dead);
    }
}
