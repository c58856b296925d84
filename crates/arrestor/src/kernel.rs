//! The cyclic executive's fault semantics: what a corrupted stack means
//! for control flow.
//!
//! Signal-level executable assertions are "not aimed at" control-flow
//! errors (paper Section 5.2); this module is where those errors come
//! from in the reproduction. A bit flip hitting live stack *control*
//! data derails execution:
//!
//! * `ISR_CTX` or `KERNEL` control → the node **hangs**: no module —
//!   including the assertions — runs again; valve commands freeze.
//! * `CALC` control → the background process **halts**: the pressure
//!   schedule freezes at its current target, while the periodic modules
//!   keep running.
//! * `KERNEL` locals → the dispatcher's slot scratch is clobbered: the
//!   next slot dispatch is skipped once.
//! * A periodic module's frame (control or locals) is only live while
//!   the module executes; a hit in the same tick the module is
//!   scheduled makes that run misbehave — modelled as skipping the run
//!   (stale outputs). At any other time the frame is dormant and the
//!   next push overwrites the corruption: no effect.

use serde::{Deserialize, Serialize};

use memsim::{FramePart, Liveness, StackHit};

use crate::consts::slot;
use crate::stackmodel::frame;

/// A control-flow fault pending or in effect.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    skip_module: Option<String>,
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
            ControlFlowFault::SkipModuleOnce(module) => {
                self.skip_module = Some(module.to_owned());
            }
        }
    }

    /// Whether the slot module of this tick should be skipped; consumes
    /// the one-shot effects.
    pub fn consume_slot_skip(&mut self, module: &str) -> bool {
        if self.skip_slot {
            self.skip_slot = false;
            return true;
        }
        if self.skip_module.as_deref() == Some(module) {
            self.skip_module = None;
            return true;
        }
        false
    }

    /// Whether a run of an every-tick module (CLOCK, DIST_S) should be
    /// skipped; consumes the matching one-shot effect.
    pub fn consume_module_skip(&mut self, module: &str) -> bool {
        if self.skip_module.as_deref() == Some(module) {
            self.skip_module = None;
            return true;
        }
        false
    }
}

/// Interprets a stack hit into a control-flow fault, given the slot that
/// will execute in the tick right after the injection.
///
/// Returns `None` for dead space, dormant periodic frames, and the CALC
/// locals (those bytes are real data storage — the corruption is already
/// in the bytes and needs no control-flow interpretation).
pub fn interpret_stack_hit(hit: &StackHit, upcoming_slot: u16) -> Option<ControlFlowFault> {
    let StackHit::Frame {
        module,
        part,
        liveness,
        ..
    } = hit
    else {
        return None;
    };
    match (module.as_str(), part, liveness) {
        (frame::ISR_CTX | frame::KERNEL, FramePart::Control, _) => Some(ControlFlowFault::Hang),
        (frame::KERNEL, FramePart::Locals, _) => Some(ControlFlowFault::SkipSlotOnce),
        (frame::CALC, FramePart::Control, _) => Some(ControlFlowFault::CalcHalt),
        (frame::CALC, FramePart::Locals, _) => None,
        (name, _, Liveness::WhenScheduled) => scheduled_this_tick(name, upcoming_slot)
            .then(|| ControlFlowFault::SkipModuleOnce(static_name(name))),
        (_, _, Liveness::Always) => None,
    }
}

/// Whether the named periodic module executes in the given slot.
fn scheduled_this_tick(module: &str, slot_nbr: u16) -> bool {
    match module {
        frame::CLOCK | frame::DIST_S => true,
        frame::PRES_S => slot_nbr == slot::PRES_S,
        frame::V_REG => slot_nbr == slot::V_REG,
        frame::PRES_A => slot_nbr == slot::PRES_A,
        _ => false,
    }
}

fn static_name(module: &str) -> &'static str {
    match module {
        frame::CLOCK => frame::CLOCK,
        frame::DIST_S => frame::DIST_S,
        frame::PRES_S => frame::PRES_S,
        frame::V_REG => frame::V_REG,
        frame::PRES_A => frame::PRES_A,
        _ => frame::KERNEL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(module: &str, part: FramePart, liveness: Liveness) -> StackHit {
        StackHit::Frame {
            module: module.to_owned(),
            part,
            offset: 0,
            liveness,
        }
    }

    #[test]
    fn kernel_control_hits_hang() {
        for name in [frame::ISR_CTX, frame::KERNEL] {
            let fault =
                interpret_stack_hit(&hit(name, FramePart::Control, Liveness::Always), 0).unwrap();
            assert_eq!(fault, ControlFlowFault::Hang);
        }
    }

    #[test]
    fn calc_control_halts_background() {
        let fault = interpret_stack_hit(&hit(frame::CALC, FramePart::Control, Liveness::Always), 0)
            .unwrap();
        assert_eq!(fault, ControlFlowFault::CalcHalt);
    }

    #[test]
    fn calc_locals_are_data_not_control() {
        assert_eq!(
            interpret_stack_hit(&hit(frame::CALC, FramePart::Locals, Liveness::Always), 0),
            None
        );
    }

    #[test]
    fn dead_space_is_inert() {
        assert_eq!(interpret_stack_hit(&StackHit::Dead, 3), None);
    }

    #[test]
    fn dormant_periodic_frames_are_inert() {
        // V_REG runs in slot 3; a hit while slot 0 is upcoming is dormant.
        assert_eq!(
            interpret_stack_hit(
                &hit(frame::V_REG, FramePart::Control, Liveness::WhenScheduled),
                0
            ),
            None
        );
    }

    #[test]
    fn scheduled_periodic_frames_skip_once() {
        let fault = interpret_stack_hit(
            &hit(frame::V_REG, FramePart::Control, Liveness::WhenScheduled),
            slot::V_REG,
        )
        .unwrap();
        assert_eq!(fault, ControlFlowFault::SkipModuleOnce(frame::V_REG));
        // CLOCK runs every tick: always vulnerable.
        let fault = interpret_stack_hit(
            &hit(frame::CLOCK, FramePart::Locals, Liveness::WhenScheduled),
            5,
        )
        .unwrap();
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
