//! The whole-space reach check.
//!
//! Every in-range flip coordinate of the master — 417 × 8 RAM bits and
//! 1 008 × 8 stack bits — run through every reach derivation: the prune
//! class ([`fic::InertMap::classify`]), the command-final reach
//! ([`CommandReach::of`]), the record-final reach ([`FlipReach::of`]) at
//! injection periods on both sides of each absorption threshold
//! (`period > slot::COUNT + 1`, `mask ≤ SLEW_PU_PER_MS · period`) and,
//! for stack bits, the control-flow fault for every upcoming slot. One
//! digest of their `Debug` strings pins the lot, so a change to the
//! reach table (`arrestor::reach`) that moves any derivation shows here.
//! Every prune-inert flip must also reach nothing that a fault-free run
//! does not.

use arrestor::consts::CHECKPOINT_X_CM;
use arrestor::kernel::interpret_stack_hit;
use arrestor::reach;
use arrestor::reach::FramePart;
use arrestor::record_final::{CommandReach, FlipReach};
use arrestor::signals::FILTER_DEPTH;
use arrestor::stackmodel::{calc_locals, frame};
use arrestor::SignalMap;
use fic::InertMap;
use memsim::{BitFlip, Ram, Region, APP_RAM_BYTES, STACK_BYTES};

/// Injection periods around both absorption thresholds, ms.
const PERIODS_MS: [u64; 4] = [1, 8, 9, 20];

/// The digest of every coordinate's reaches, computed on the tree the
/// reach table replaced.
const PINNED_DIGEST: u64 = 0x7650_722f_3db0_f70f;

/// FNV-1a, 64-bit: a digest that does not depend on the toolchain.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_coordinate_keeps_its_reach() {
    let map = InertMap::new();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let (mut coordinates, mut inert) = (0, 0);
    for (region, bytes) in [
        (Region::AppRam, APP_RAM_BYTES),
        (Region::Stack, STACK_BYTES),
    ] {
        for addr in 0..bytes {
            for bit in 0..8 {
                let flip = BitFlip::new(region, addr, bit);
                let class = map.classify(flip);
                let command = CommandReach::of(flip);
                let reaches = PERIODS_MS.map(|p| FlipReach::of(Some(flip), p));
                let mut line = format!("{region:?} {addr} {bit} {class:?} {command:?} {reaches:?}");
                if region == Region::Stack {
                    let faults: Vec<_> = (0..8).map(|s| interpret_stack_hit(addr, s)).collect();
                    line.push_str(&format!(" {faults:?}"));
                }
                digest = fnv1a(digest, line.as_bytes());
                coordinates += 1;
                if class.is_some() {
                    inert += 1;
                    assert_eq!(command, CommandReach::default(), "{line}");
                    for (p, reach) in PERIODS_MS.iter().zip(reaches) {
                        assert_eq!(reach, FlipReach::of(None, *p), "{line}");
                    }
                }
            }
        }
    }
    assert_eq!(coordinates, 11_400);
    assert_eq!(inert, 9_480);
    assert_eq!(digest, PINNED_DIGEST, "digest {digest:#018x}");
}

/// Every byte of both banks lies in exactly one row of the reach table,
/// and the rows are the memory the node runs on: the RAM rows tile the
/// bank and every named cell and block of the image starts at its row,
/// and the frame rows tile the stack down from its top, with the CALC
/// locals inside CALC's locals part and the bytes below the deepest
/// frame dead.
#[test]
fn the_table_covers_both_banks() {
    let rows: Vec<_> = reach::ram_layout().collect();
    assert_eq!(rows.len(), reach::RAM.len());
    let mut next = 0;
    for (row, span) in &rows {
        assert_eq!(
            span.start, next,
            "{} does not follow its predecessor",
            row.name
        );
        assert!(!span.is_empty(), "{} is empty", row.name);
        next = span.end;
    }
    assert_eq!(next, APP_RAM_BYTES);
    for (row, span) in &rows {
        for addr in span.clone() {
            assert_eq!(reach::ram_row(addr), Some((*row, addr - span.start)));
        }
    }
    assert!(reach::ram_row(APP_RAM_BYTES).is_none());

    let sig = SignalMap::allocate();
    let cells = [
        ("mscnt", sig.mscnt),
        ("ms_slot_nbr", sig.ms_slot_nbr),
        ("pulscnt", sig.pulscnt),
        ("i", sig.i),
        ("SetValue", sig.set_value),
        ("IsValue", sig.is_value),
        ("OutValue", sig.out_value),
        ("mass_cfg", sig.mass_cfg),
        ("sys_mode", sig.sys_mode),
        ("set_target", sig.set_target),
        ("link_out", sig.link_out),
        ("pid_integ", sig.pid_integ),
        ("pid_prev_err", sig.pid_prev_err),
        ("calc_x_cm", sig.calc_x_cm),
        ("calc_cos1000", sig.calc_cos1000),
        ("filt_idx", sig.filt_idx),
    ];
    for (name, cell) in cells {
        assert_eq!(
            reach::ram_span(name),
            Some(cell.addr()..cell.addr() + 2),
            "{name}"
        );
        assert!(cell.addr() + 2 <= APP_RAM_BYTES, "{name}");
    }
    // The blocks: each row holds exactly the entries the image's
    // accessors read, entry 0 at the row's start.
    for (name, entries) in [
        ("filt_buf", FILTER_DEPTH),
        ("cp_table", CHECKPOINT_X_CM.len()),
        ("cap_table", CHECKPOINT_X_CM.len()),
    ] {
        let span = reach::ram_span(name).expect("a row of the table");
        assert_eq!(span.len(), 2 * entries, "{name}");
        let mut ram = Ram::new(APP_RAM_BYTES);
        for k in 0..entries {
            ram.write_u16(span.start + 2 * k, 100 + k as u16).unwrap();
        }
        for k in 0..entries {
            let entry = match name {
                "filt_buf" => sig.filt_read(&ram, k),
                "cp_table" => sig.cp_threshold(&ram, k as u16),
                _ => sig.cap_for(&ram, k as u16),
            };
            assert_eq!(entry, 100 + k as u16, "{name}[{k}]");
        }
    }

    let mut top = STACK_BYTES;
    let mut spans = reach::frame_layout();
    for row in &reach::FRAMES {
        let base = top - row.control - row.locals;
        assert_eq!(spans.next(), Some((row, base..top)), "{}", row.name);
        for addr in base..top {
            let part = if addr < base + row.control {
                FramePart::Control
            } else {
                FramePart::Locals
            };
            assert_eq!(
                reach::frame_at(addr),
                Some((row, part)),
                "stack byte {addr}"
            );
        }
        top = base;
    }
    assert_eq!(spans.next(), None);
    for addr in (0..top).chain([STACK_BYTES]) {
        assert_eq!(reach::frame_at(addr), None, "stack byte {addr}");
    }

    let locals = calc_locals();
    for cell in [
        locals.prev_pulscnt,
        locals.prev_mscnt,
        locals.v_est,
        locals.stall_ms,
        locals.last_pc,
    ] {
        assert!(cell.addr() + 2 <= STACK_BYTES);
        for addr in [cell.addr(), cell.addr() + 1] {
            let (row, part) = reach::frame_at(addr).expect("a live stack byte");
            assert_eq!(
                (row.name, part),
                (frame::CALC, FramePart::Locals),
                "byte {addr}"
            );
        }
    }
}
