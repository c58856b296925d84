//! The reach table: where each RAM symbol and stack frame of the master
//! sits, and what a flip into it can touch, stated once.
//!
//! [`RAM`] is the application-RAM image in address order
//! ([`ram_layout`] places its rows; [`crate::SignalMap::allocate`] binds
//! its cells to them) and [`FRAMES`] the stack, top of the bank down
//! ([`frame_layout`] places its frames; the ≈ 83 % below the deepest
//! frame is dead space, see [`crate::stackmodel`]).
//! Dominance pruning (`fic::InertMap`), both certificate reaches
//! ([`crate::record_final::FlipReach`], [`crate::record_final::CommandReach`])
//! and the stack fault model ([`crate::kernel::interpret_stack_hit`])
//! are read off these rows; the arguments behind each column are in
//! `docs/PROOFS.md`. `tests/reach_table.rs` pins every derivation over
//! the whole coordinate space and checks that the rows cover both banks.

use std::ops::Range;

use memsim::{APP_RAM_BYTES, STACK_BYTES};

use crate::consts::{slot, CHECKPOINT_X_CM, SLEW_PU_PER_MS};
use crate::detectors::EaId::{self, Ea1, Ea2, Ea3, Ea4, Ea6, Ea7};
use crate::kernel::ControlFlowFault::{self, CalcHalt, Hang, SkipModuleOnce, SkipSlotOnce};
use crate::signals::FILTER_DEPTH;
use crate::stackmodel::frame;

/// Some module reads the symbol (a flip into one nothing reads is inert).
pub const READ: u8 = 1 << 0;
/// The symbol feeds a valve command once STOPPED, or ARRESTING with `i ≥ 6`.
pub const COMMAND: u8 = 1 << 1;
/// A flip can leave STOPPED, move the set point's target or shift the schedule.
pub const PREMISES: u8 = 1 << 2;
/// A flip can re-arm ARRESTING's checkpoint branch.
pub const CHECKPOINTS: u8 = 1 << 3;
/// The symbol is the millisecond clock EA6 follows.
pub const CLOCK: u8 = 1 << 4;

/// A cell the record-final certificates follow by a flip's XOR mask `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracked {
    /// CALC's ramp undoes the flip before the next injection when `m ≤
    /// SLEW_PU_PER_MS · period`.
    SetValue,
    /// Rewritten every 7 ms and sampled 2 ms later: with injections more
    /// than `slot::COUNT + 1` ms apart no two successive samples carry it.
    IsValue,
    /// Absorbed as `IsValue`.
    OutValue,
    /// `pulscnt`: never absorbed, but its mask bounds the pulse counts
    /// ARRESTING's threshold test can see.
    Pulses,
}

impl Tracked {
    /// Whether a flip of `mask` re-injected every `period_ms` taints no
    /// mechanism.
    pub(crate) fn absorbs(self, mask: u16, period_ms: u64) -> bool {
        let period = i64::try_from(period_ms).unwrap_or(i64::MAX);
        match self {
            Tracked::SetValue => i64::from(mask) <= SLEW_PU_PER_MS.saturating_mul(period),
            Tracked::IsValue | Tracked::OutValue => period > i64::from(slot::COUNT) + 1,
            Tracked::Pulses => false,
        }
    }
}

/// What a flip in one RAM symbol can touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RamRow {
    /// Symbol name in the [`crate::SignalMap`] image.
    pub name: &'static str,
    /// Width in bytes; [`REST`] for the fill block.
    pub bytes: usize,
    /// A union of [`READ`], [`COMMAND`], [`PREMISES`], [`CHECKPOINTS`], [`CLOCK`].
    pub touches: u8,
    /// The mechanisms whose post-arrest samples depend on the symbol.
    pub taints: &'static [EaId],
    /// The cell the certificates follow by its flip mask, if any.
    pub tracked: Option<Tracked>,
}

impl RamRow {
    /// Whether the row carries `fact`.
    pub const fn has(&self, fact: u8) -> bool {
        self.touches & fact != 0
    }
}

/// Width of the block that fills the rest of the bank.
pub const REST: usize = usize::MAX;

const fn row(
    name: &'static str,
    bytes: usize,
    touches: u8,
    taints: &'static [EaId],
    tracked: Option<Tracked>,
) -> RamRow {
    RamRow {
        name,
        bytes,
        touches,
        taints,
        tracked,
    }
}

/// The master's 417-byte application RAM, in address order. The first
/// seven cells are the monitored signals of paper Table 4.
#[rustfmt::skip]
pub const RAM: [RamRow; 21] = [
    row("mscnt",        2,                           READ | CLOCK,                 &[Ea6],      None),
    row("ms_slot_nbr",  2,                           READ | COMMAND | PREMISES,    &[],         None),
    row("pulscnt",      2,                           READ,                         &[Ea4],      Some(Tracked::Pulses)),
    row("i",            2,                           READ | COMMAND | CHECKPOINTS, &[Ea3],      None),
    row("SetValue",     2,                           READ | COMMAND,               &[Ea1, Ea7], Some(Tracked::SetValue)),
    row("IsValue",      2,                           READ | COMMAND,               &[Ea2, Ea7], Some(Tracked::IsValue)),
    row("OutValue",     2,                           READ | COMMAND,               &[Ea7],      Some(Tracked::OutValue)),
    row("mass_cfg",     2,                           READ,                         &[],         None),
    row("sys_mode",     2,                           READ | COMMAND | PREMISES,    &[],         None),
    row("set_target",   2,                           READ | COMMAND | PREMISES,    &[],         None),
    row("link_out",     2,                           READ | COMMAND,               &[],         None),
    row("pid_integ",    2,                           READ | COMMAND,               &[Ea7],      None),
    row("pid_prev_err", 2,                           READ | COMMAND,               &[Ea7],      None),
    row("calc_x_cm",    2,                           READ,                         &[],         None),
    row("calc_cos1000", 2,                           READ,                         &[],         None),
    row("filt_idx",     2,                           READ | COMMAND,               &[Ea2, Ea7], None),
    row("filt_buf",     2 * FILTER_DEPTH,            READ | COMMAND,               &[Ea2, Ea7], None),
    row("cp_table",     2 * CHECKPOINT_X_CM.len(),   READ | CHECKPOINTS,           &[],         None),
    row("cap_table",    2 * CHECKPOINT_X_CM.len(),   READ,                         &[],         None),
    row("dbg_trace",    32,                          0,                            &[],         None),
    row("reserved",     REST,                        0,                            &[],         None),
];

/// The [`RAM`] rows with their address spans, in allocation order.
pub fn ram_layout() -> impl Iterator<Item = (&'static RamRow, Range<usize>)> {
    RAM.iter().scan(0, |next, row| {
        let start = *next;
        *next = if row.bytes == REST {
            APP_RAM_BYTES
        } else {
            start + row.bytes
        };
        Some((row, start..*next))
    })
}

/// The address span of the RAM row called `name`.
pub fn ram_span(name: &str) -> Option<Range<usize>> {
    ram_layout()
        .find(|(row, _)| row.name == name)
        .map(|(_, span)| span)
}

/// The RAM row covering `addr` and `addr`'s offset in it; `None` past
/// the bank.
pub fn ram_row(addr: usize) -> Option<(&'static RamRow, usize)> {
    ram_layout()
        .find(|(_, span)| span.contains(&addr))
        .map(|(row, span)| (row, addr - span.start))
}

/// Which part of a stack frame a byte belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePart {
    /// Return address / saved registers: corruption derails control flow.
    Control,
    /// Local variables.
    Locals,
}

/// One frame of the master's stack and the faults a flip into it raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRow {
    /// The frame's module.
    pub name: &'static str,
    /// Control-slot bytes (return address, saved registers).
    pub control: usize,
    /// Locals bytes.
    pub locals: usize,
    /// The one slot whose tick runs the module (`None`: every tick); at
    /// any other time the next push overwrites a flip.
    pub slot: Option<u16>,
    /// The fault a flip into the control part raises.
    pub on_control: Option<ControlFlowFault>,
    /// The fault a flip into the locals raises (`None`: data storage).
    pub on_locals: Option<ControlFlowFault>,
}

impl FrameRow {
    /// The fault a flip into `part` raises when `upcoming_slot` runs in
    /// the tick right after the injection.
    pub(crate) fn fault(&self, part: FramePart, upcoming_slot: u16) -> Option<ControlFlowFault> {
        if self.slot.is_some_and(|only| only != upcoming_slot) {
            return None;
        }
        self.part_fault(part)
    }

    /// The fault a flip into `part` raises in the slots its frame is
    /// live in.
    pub(crate) const fn part_fault(&self, part: FramePart) -> Option<ControlFlowFault> {
        match part {
            FramePart::Control => self.on_control,
            FramePart::Locals => self.on_locals,
        }
    }
}

const fn frame_row(
    name: &'static str,
    control: usize,
    locals: usize,
    slot: Option<u16>,
    on_control: Option<ControlFlowFault>,
    on_locals: Option<ControlFlowFault>,
) -> FrameRow {
    FrameRow {
        name,
        control,
        locals,
        slot,
        on_control,
        on_locals,
    }
}

/// The master's stack frames, top of the bank downwards.
#[rustfmt::skip]
pub const FRAMES: [FrameRow; 8] = [
    frame_row(frame::ISR_CTX, 32, 0,  None,                Some(Hang),                          None),
    frame_row(frame::KERNEL,  16, 8,  None,                Some(Hang),                          Some(SkipSlotOnce)),
    frame_row(frame::CALC,    12, 40, None,                Some(CalcHalt),                      None),
    frame_row(frame::CLOCK,   4,  8,  None,                Some(SkipModuleOnce(frame::CLOCK)),  Some(SkipModuleOnce(frame::CLOCK))),
    frame_row(frame::DIST_S,  4,  8,  None,                Some(SkipModuleOnce(frame::DIST_S)), Some(SkipModuleOnce(frame::DIST_S))),
    frame_row(frame::PRES_S,  4,  8,  Some(slot::PRES_S),  Some(SkipModuleOnce(frame::PRES_S)), Some(SkipModuleOnce(frame::PRES_S))),
    frame_row(frame::V_REG,   4,  16, Some(slot::V_REG),   Some(SkipModuleOnce(frame::V_REG)),  Some(SkipModuleOnce(frame::V_REG))),
    frame_row(frame::PRES_A,  4,  8,  Some(slot::PRES_A),  Some(SkipModuleOnce(frame::PRES_A)), Some(SkipModuleOnce(frame::PRES_A))),
];

/// The [`FRAMES`] rows with their address spans, packed from the top of
/// the stack bank down.
pub fn frame_layout() -> impl Iterator<Item = (&'static FrameRow, Range<usize>)> {
    FRAMES.iter().scan(STACK_BYTES, |top, row| {
        let end = *top;
        *top -= row.control + row.locals;
        Some((row, *top..end))
    })
}

/// The frame row and part covering stack byte `addr`; `None` for dead
/// space and past the bank.
pub fn frame_at(addr: usize) -> Option<(&'static FrameRow, FramePart)> {
    let (row, span) = frame_layout().find(|(_, span)| span.contains(&addr))?;
    let part = if addr < span.start + row.control {
        FramePart::Control
    } else {
        FramePart::Locals
    };
    Some((row, part))
}

/// Whether some slot phase turns a flip into stack byte `addr` into a
/// control-flow fault.
pub(crate) fn stack_derails(addr: usize) -> bool {
    frame_at(addr).is_some_and(|(row, part)| row.part_fault(part).is_some())
}
