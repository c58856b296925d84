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

use arrestor::kernel::interpret_stack_hit;
use arrestor::reach;
use arrestor::record_final::{CommandReach, FlipReach};
use arrestor::stackmodel::master_stack;
use arrestor::SignalMap;
use fic::InertMap;
use memsim::{BitFlip, Region, StackHit, APP_RAM_BYTES, STACK_BYTES};

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
/// and the rows are the memory the node runs on: the RAM image holds one
/// symbol per row, in order (a symbol without a row fails here), and the
/// frame rows classify every stack byte as the node's stack layout does
/// (bytes in no frame are the dead space).
#[test]
fn the_table_covers_both_banks() {
    let sig = SignalMap::allocate().unwrap();
    let symbols: Vec<_> = sig
        .symbols()
        .symbols()
        .map(|s| (s.name.clone(), s.addr..s.addr + s.width))
        .collect();
    let rows: Vec<_> = reach::ram_layout()
        .map(|(row, span)| (row.name.to_owned(), span))
        .collect();
    assert_eq!(symbols, rows);
    for addr in 0..APP_RAM_BYTES {
        let covering = rows.iter().filter(|(_, span)| span.contains(&addr)).count();
        assert_eq!(covering, 1, "RAM byte {addr}");
        let (row, offset) = reach::ram_row(addr).unwrap();
        let symbol = sig.symbols().symbol_at(addr).unwrap();
        assert_eq!(
            (row.name, offset),
            (symbol.name.as_str(), addr - symbol.addr)
        );
    }
    assert!(reach::ram_row(APP_RAM_BYTES).is_none());

    let (layout, _) = master_stack();
    assert_eq!(layout.frames().len(), reach::FRAMES.len());
    for addr in 0..STACK_BYTES + 1 {
        let expected = match layout.classify(addr) {
            StackHit::Dead => None,
            StackHit::Frame { module, part, .. } => Some((module, part)),
        };
        let row = reach::frame_at(addr).map(|(row, part)| (row.name.to_owned(), part));
        assert_eq!(row, expected, "stack byte {addr}");
    }
}
