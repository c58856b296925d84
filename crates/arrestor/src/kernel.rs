//! The cyclic executive's fault semantics: what a corrupted stack means
//! for control flow.
//!
//! Signal-level executable assertions are "not aimed at" control-flow
//! errors (paper Section 5.2); this module is where those errors come
//! from in the reproduction. A bit flip hitting live stack control data,
//! or the dispatcher's scratch, derails execution: the node hangs, the
//! background process halts, or one dispatch or module run is skipped.
//! Which part of which frame raises which fault, and in which slots, is
//! the [`crate::reach::FRAMES`] table; [`interpret_stack_hit`] reads it.

use serde::{Deserialize, Serialize};

use crate::reach;

/// A control-flow fault pending or in effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlFlowFault {
    /// The node stops executing entirely (scheduler corruption).
    Hang,
    /// The background process halts; periodic modules continue.
    CalcHalt,
    /// The next slot-module dispatch is skipped.
    SkipSlotOnce,
    /// One run of the named module is skipped.
    SkipModuleOnce(&'static str),
}

/// Runtime control-flow state of the master node.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelState {
    hung: bool,
    calc_halted: bool,
    skip_slot: bool,
    skip_module: Option<&'static str>,
}

impl KernelState {
    /// A healthy kernel.
    pub fn new() -> Self {
        KernelState::default()
    }

    /// Whether the node has hung (nothing runs any more).
    pub const fn hung(&self) -> bool {
        self.hung
    }

    /// Whether the background process has halted.
    pub const fn calc_halted(&self) -> bool {
        self.calc_halted
    }

    /// Whether no fault is in effect or pending: the schedule runs
    /// every module in its slot.
    pub const fn is_clean(&self) -> bool {
        !self.hung && !self.calc_halted && !self.skip_slot && self.skip_module.is_none()
    }

    /// Applies a fault to the kernel state.
    pub fn apply(&mut self, fault: ControlFlowFault) {
        match fault {
            ControlFlowFault::Hang => self.hung = true,
            ControlFlowFault::CalcHalt => self.calc_halted = true,
            ControlFlowFault::SkipSlotOnce => self.skip_slot = true,
            ControlFlowFault::SkipModuleOnce(module) => self.skip_module = Some(module),
        }
    }

    /// Whether the slot module of this tick should be skipped; consumes
    /// the one-shot effects.
    pub fn consume_slot_skip(&mut self, module: &str) -> bool {
        if self.skip_slot {
            self.skip_slot = false;
            return true;
        }
        if self.skip_module == Some(module) {
            self.skip_module = None;
            return true;
        }
        false
    }

    /// Whether a run of an every-tick module (CLOCK, DIST_S) should be
    /// skipped; consumes the matching one-shot effect.
    pub fn consume_module_skip(&mut self, module: &str) -> bool {
        if self.skip_module == Some(module) {
            self.skip_module = None;
            return true;
        }
        false
    }
}

/// Interprets a flip into stack byte `addr` as a control-flow fault,
/// given the slot that will execute in the tick right after the
/// injection: the [`reach::FRAMES`] row's fault for the part hit.
///
/// Returns `None` for dead space, dormant per-run frames, and the CALC
/// locals (those bytes are real data storage — the corruption is already
/// in the bytes and needs no control-flow interpretation).
pub fn interpret_stack_hit(addr: usize, upcoming_slot: u16) -> Option<ControlFlowFault> {
    let (row, part) = reach::frame_at(addr)?;
    row.fault(part, upcoming_slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::slot;
    use crate::stackmodel::{frame, master_stack};
    use memsim::FramePart;

    /// The first byte of `module`'s frame part in the master stack.
    fn at(module: &str, part: FramePart) -> usize {
        let (layout, _) = master_stack();
        let frame = layout.frame(module).expect("a master frame");
        match part {
            FramePart::Control => frame.base,
            FramePart::Locals => frame.base + frame.control,
        }
    }

    #[test]
    fn kernel_control_hits_hang() {
        for name in [frame::ISR_CTX, frame::KERNEL] {
            let fault = interpret_stack_hit(at(name, FramePart::Control), 0).unwrap();
            assert_eq!(fault, ControlFlowFault::Hang);
        }
    }

    #[test]
    fn calc_control_halts_background() {
        let fault = interpret_stack_hit(at(frame::CALC, FramePart::Control), 0).unwrap();
        assert_eq!(fault, ControlFlowFault::CalcHalt);
    }

    #[test]
    fn calc_locals_are_data_not_control() {
        assert_eq!(
            interpret_stack_hit(at(frame::CALC, FramePart::Locals), 0),
            None
        );
    }

    #[test]
    fn dead_space_is_inert() {
        assert_eq!(interpret_stack_hit(10, 3), None);
        assert_eq!(interpret_stack_hit(memsim::STACK_BYTES, 3), None);
    }

    #[test]
    fn dormant_periodic_frames_are_inert() {
        // V_REG runs in slot 3; a hit while slot 0 is upcoming is dormant.
        assert_eq!(
            interpret_stack_hit(at(frame::V_REG, FramePart::Control), 0),
            None
        );
    }

    #[test]
    fn scheduled_periodic_frames_skip_once() {
        let fault = interpret_stack_hit(at(frame::V_REG, FramePart::Control), slot::V_REG).unwrap();
        assert_eq!(fault, ControlFlowFault::SkipModuleOnce(frame::V_REG));
        // CLOCK runs every tick: always vulnerable.
        let fault = interpret_stack_hit(at(frame::CLOCK, FramePart::Locals), 5).unwrap();
        assert_eq!(fault, ControlFlowFault::SkipModuleOnce(frame::CLOCK));
    }

    #[test]
    fn kernel_state_one_shots() {
        let mut k = KernelState::new();
        k.apply(ControlFlowFault::SkipSlotOnce);
        assert!(k.consume_slot_skip(frame::PRES_S));
        assert!(!k.consume_slot_skip(frame::PRES_S));

        k.apply(ControlFlowFault::SkipModuleOnce(frame::CLOCK));
        assert!(!k.consume_slot_skip(frame::PRES_S));
        assert!(k.consume_module_skip(frame::CLOCK));
        assert!(!k.consume_module_skip(frame::CLOCK));
    }

    #[test]
    fn kernel_state_persistent_faults() {
        let mut k = KernelState::new();
        assert!(!k.hung() && !k.calc_halted());
        k.apply(ControlFlowFault::CalcHalt);
        assert!(k.calc_halted());
        k.apply(ControlFlowFault::Hang);
        assert!(k.hung());
    }
}
