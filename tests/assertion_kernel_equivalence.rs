//! Equivalence of the monitors' inline pass kernel with the Table 2 /
//! Table 3 procedures.
//!
//! Every `ea_core::SignalMonitor` answers the checks its kernel admits
//! without running `assert_cont`/`assert_disc`. The kernel must never
//! change an outcome, so these properties drive random parameter sets
//! and random sample sequences (with violations, wrap-arounds, mode
//! switches and resets) through `SignalMonitor` and `DetectorBank`, and
//! through a reference fold that calls `Params::check` on every sample.
//! The two must agree on every `Result`, on `previous`, `checks` and
//! `violations`, and on every logged detection event.
//!
//! One level up, `arrestor::Detectors::check` answers a passing sample
//! inline and leaves everything else to an out-of-line path. A third
//! property feeds random streams of the seven mechanisms' samples to it,
//! detection-only and with write-back, and to a reference that calls
//! `DetectorBank::observe` for every sample: return values, logged
//! events, `check_counts()` and each monitor's `previous` and
//! `violations` must agree, since the cost profile reads those counts.
//!
//! Parameter sets cover every class of paper Table 1 (monotone static
//! and dynamic rate in both directions, random; wrap on and off) and
//! every discrete class (linear, non-linear, random, with and without
//! self-loops), with discrete domains both inside and beyond the
//! kernel's span limit. Inputs are drawn from one `u64` seed per case; a
//! failure prints it.

use arrestor::instrument::placement_plan_with;
use arrestor::{build_detectors, Detectors, EaId, EaSet};
use ea_core::monitor::{Checked, KERNEL_DOMAIN_SPAN};
use ea_core::prelude::*;
use proptest::prelude::*;

/// Splitmix64: the whole case derives from one seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next() % items.len() as u64) as usize]
    }
}

fn random_band(g: &mut Gen) -> (i64, i64) {
    let min = g.pick(&[0, 0, 1, 2, 5]);
    (min, min + g.range(0, 40))
}

/// A continuous set of a random Table 1 class.
fn random_continuous(g: &mut Gen) -> ContinuousParams {
    loop {
        let smin = g.range(-60, 60);
        let smax = smin + g.range(1, 300);
        let builder = ContinuousParams::builder(smin, smax);
        let builder = match g.range(0, 4) {
            // Static-rate monotone, up or down.
            0 => {
                let r = g.range(1, 5);
                builder.increase_rate(r, r)
            }
            1 => {
                let r = g.range(1, 5);
                builder.decrease_rate(r, r)
            }
            // Dynamic-rate monotone, up or down.
            2 => {
                let (lo, hi) = random_band(g);
                builder.increase_rate(lo, hi)
            }
            3 => {
                let (lo, hi) = random_band(g);
                builder.decrease_rate(lo, hi)
            }
            // Random.
            _ => {
                let (ilo, ihi) = random_band(g);
                let (dlo, dhi) = random_band(g);
                builder.increase_rate(ilo, ihi).decrease_rate(dlo, dhi)
            }
        };
        let builder = if g.chance(40) {
            builder.wrap_allowed()
        } else {
            builder
        };
        if let Ok(params) = builder.build() {
            return params;
        }
    }
}

/// A discrete set of a random class. Domains are dense or sparse and
/// span up to a little over twice the kernel's limit.
fn random_discrete(g: &mut Gen) -> DiscreteParams {
    let base = g.range(-20, 20);
    let span = if g.chance(70) {
        g.range(2, KERNEL_DOMAIN_SPAN)
    } else {
        g.range(KERNEL_DOMAIN_SPAN + 1, 2 * KERNEL_DOMAIN_SPAN + 8)
    };
    let mut domain: Vec<i64> = (base..base + span).filter(|_| g.chance(60)).collect();
    domain.insert(0, base);
    domain.push(base + span - 1);
    domain.dedup();
    let params = match g.range(0, 2) {
        0 => DiscreteParams::random(domain.iter().copied()).expect("non-empty"),
        1 => {
            // A shuffled traversal order.
            for i in (1..domain.len()).rev() {
                let j = (g.next() % (i as u64 + 1)) as usize;
                domain.swap(i, j);
            }
            DiscreteParams::linear(domain.iter().copied(), g.chance(50)).expect("≥ 2 values")
        }
        _ => {
            let graph: Vec<(i64, Vec<i64>)> = domain
                .iter()
                .map(|&from| {
                    let targets = domain.iter().copied().filter(|_| g.chance(30)).collect();
                    (from, targets)
                })
                .collect();
            DiscreteParams::non_linear(graph).expect("targets inside the domain")
        }
    };
    if g.chance(30) {
        params.with_self_loops()
    } else {
        params
    }
}

fn random_params(g: &mut Gen) -> Params {
    if g.chance(55) {
        random_continuous(g).into()
    } else {
        random_discrete(g).into()
    }
}

/// A family of one to three modes, mixing flavours.
fn random_family(g: &mut Gen) -> ModedParams {
    let modes = g.range(1, 3);
    let mut family = ModedParams::new(0, random_params(g));
    for m in 1..modes {
        family.insert(m as Mode * 3, random_params(g));
    }
    family
}

fn random_recovery(g: &mut Gen) -> RecoveryStrategy {
    match g.range(0, 4) {
        0 => RecoveryStrategy::None,
        1 => RecoveryStrategy::HoldPrevious,
        2 => RecoveryStrategy::Clamp,
        3 => RecoveryStrategy::Force(g.range(-80, 400)),
        _ => RecoveryStrategy::RateProject,
    }
}

/// A next sample for `params` after `previous`: mostly legal or on a
/// band edge, sometimes a wrap-around, sometimes anything nearby.
fn random_sample(g: &mut Gen, params: &Params, previous: Option<Sample>) -> Sample {
    match params {
        Params::Continuous(p) => {
            let prev = previous.unwrap_or(p.smin());
            let (inc, dec) = (p.increase(), p.decrease());
            match g.range(0, 9) {
                0 => prev + g.range(inc.min(), inc.max()),
                1 => prev - g.range(dec.min(), dec.max()),
                2 => prev + g.pick(&[inc.min(), inc.max(), inc.min() - 1, inc.max() + 1]),
                3 => prev - g.pick(&[dec.min(), dec.max(), dec.min() - 1, dec.max() + 1]),
                4 => prev,
                // Across the wrap point, either way.
                5 => p.smin() - (p.smax() - prev) + g.range(-2, inc.max() + 2),
                6 => p.smax() - (prev - p.smin()) - g.range(-2, dec.max() + 2),
                7 => g.pick(&[p.smin(), p.smax(), p.smin() - 1, p.smax() + 1]),
                _ => g.range(p.smin() - 20, p.smax() + 20),
            }
        }
        Params::Discrete(p) => {
            let lo = *p.domain().first().expect("non-empty");
            let hi = *p.domain().last().expect("non-empty");
            let successors: Vec<Sample> = previous
                .and_then(|prev| p.transitions_from(prev))
                .map(|t| t.iter().copied().collect())
                .unwrap_or_default();
            match g.range(0, 4) {
                0 | 1 if !successors.is_empty() => g.pick(&successors),
                2 => {
                    let domain: Vec<Sample> = p.domain().iter().copied().collect();
                    g.pick(&domain)
                }
                3 => previous.unwrap_or(lo),
                _ => g.range(lo - 3, hi + 3),
            }
        }
    }
}

/// The reference: one `SignalMonitor` spelled out over `Params::check`.
#[derive(Debug)]
struct RefMonitor {
    params: ModedParams,
    mode: Mode,
    previous: Option<Sample>,
    recovery: RecoveryStrategy,
    checks: u64,
    violations: u64,
}

impl RefMonitor {
    fn new(params: ModedParams, recovery: RecoveryStrategy) -> Self {
        RefMonitor {
            mode: params.initial_mode(),
            params,
            previous: None,
            recovery,
            checks: 0,
            violations: 0,
        }
    }

    fn check(&mut self, sample: Sample) -> Result<Checked, Violation> {
        self.checks += 1;
        let params = self.params.params_for(self.mode).expect("known mode");
        match params.check(self.previous, sample) {
            Ok(pass) => {
                self.previous = Some(sample);
                Ok(Checked {
                    pass,
                    committed: sample,
                })
            }
            Err(violation) => {
                self.violations += 1;
                self.previous = Some(self.recovery.recover(params, &violation));
                Err(violation)
            }
        }
    }

    fn set_mode(&mut self, mode: Mode) -> Result<(), Error> {
        self.params.params_for(mode)?;
        self.mode = mode;
        Ok(())
    }
}

/// The reference bank: first detection per enabled monitor.
struct RefBank {
    monitors: Vec<RefMonitor>,
    enabled: Vec<bool>,
    events: Vec<DetectionEvent>,
}

impl RefBank {
    fn observe(&mut self, id: usize, sample: Sample, at: Millis) -> Result<Checked, Violation> {
        let committed = self.monitors[id].previous;
        let result = self.monitors[id].check(sample);
        if let Err(violation) = result {
            let logged = self.events.iter().any(|e| e.monitor == MonitorId(id));
            if self.enabled[id] && !logged {
                self.events.push(DetectionEvent {
                    monitor: MonitorId(id),
                    at,
                    violation,
                    divergence: DivergenceMeta {
                        observed: sample,
                        committed,
                        deviation: committed.map(|c| sample.wrapping_sub(c)),
                    },
                });
            }
        }
        result
    }
}

fn same_state(monitor: &SignalMonitor, reference: &RefMonitor) -> Result<(), String> {
    let got = (
        monitor.mode(),
        monitor.previous(),
        monitor.checks(),
        monitor.violations(),
    );
    let want = (
        reference.mode,
        reference.previous,
        reference.checks,
        reference.violations,
    );
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "(mode, previous, checks, violations): monitor {got:?}, reference {want:?}"
        ))
    }
}

/// One random step on monitor `k`: a mode switch (sometimes to an
/// unregistered mode), a reset, or a check.
enum Step {
    SetMode(Mode),
    Reset,
    Check(Sample),
}

fn random_step(g: &mut Gen, monitor: &SignalMonitor, family: &ModedParams) -> Step {
    if g.chance(4) {
        let modes: Vec<Mode> = family.iter().map(|(m, _)| m).collect();
        let mode = if g.chance(85) { g.pick(&modes) } else { 1 };
        return Step::SetMode(mode);
    }
    if g.chance(1) {
        return Step::Reset;
    }
    Step::Check(random_sample(
        g,
        monitor.active_params(),
        monitor.previous(),
    ))
}

fn run_monitor_case(seed: u64) -> Result<(), String> {
    let mut g = Gen(seed);
    let family = random_family(&mut g);
    let recovery = random_recovery(&mut g);
    let mut monitor = SignalMonitor::new("x", family.clone()).with_recovery(recovery);
    let mut reference = RefMonitor::new(family.clone(), recovery);
    for step in 0..400 {
        match random_step(&mut g, &monitor, &family) {
            Step::SetMode(mode) => {
                let (got, want) = (monitor.set_mode(mode), reference.set_mode(mode));
                if got != want {
                    return Err(format!("step {step}: set_mode({mode}) {got:?} vs {want:?}"));
                }
            }
            Step::Reset => {
                monitor.reset();
                reference.previous = None;
            }
            Step::Check(sample) => {
                let (got, want) = (monitor.check(sample), reference.check(sample));
                if got != want {
                    return Err(format!("step {step}: check({sample}) {got:?} vs {want:?}"));
                }
            }
        }
        same_state(&monitor, &reference).map_err(|e| format!("step {step}: {e}"))?;
    }
    Ok(())
}

fn run_bank_case(seed: u64) -> Result<(), String> {
    let mut g = Gen(seed);
    let count = g.range(2, 5) as usize;
    let mut bank = DetectorBank::new();
    let mut reference = RefBank {
        monitors: Vec::new(),
        enabled: Vec::new(),
        events: Vec::new(),
    };
    let mut families = Vec::new();
    for k in 0..count {
        let family = random_family(&mut g);
        let recovery = random_recovery(&mut g);
        let id =
            bank.add(SignalMonitor::new(format!("s{k}"), family.clone()).with_recovery(recovery));
        let enabled = g.chance(75);
        bank.set_enabled(id, enabled);
        reference
            .monitors
            .push(RefMonitor::new(family.clone(), recovery));
        reference.enabled.push(enabled);
        families.push(family);
    }
    for at in 0..600 {
        let k = (g.next() % count as u64) as usize;
        let id = MonitorId(k);
        match random_step(&mut g, bank.monitor(id), &families[k]) {
            Step::SetMode(mode) => {
                let got = bank.monitor_mut(id).set_mode(mode);
                let want = reference.monitors[k].set_mode(mode);
                if got != want {
                    return Err(format!("t {at}: set_mode({mode}) {got:?} vs {want:?}"));
                }
            }
            Step::Reset => {
                bank.monitor_mut(id).reset();
                reference.monitors[k].previous = None;
            }
            Step::Check(sample) => {
                let got = bank.observe(id, sample, at);
                let want = reference.observe(k, sample, at);
                if got != want {
                    return Err(format!(
                        "t {at}: monitor {k} observe({sample}) {got:?} vs {want:?}"
                    ));
                }
            }
        }
        same_state(bank.monitor(id), &reference.monitors[k])
            .map_err(|e| format!("t {at}: monitor {k}: {e}"))?;
        if bank.events() != reference.events.as_slice() {
            return Err(format!(
                "t {at}: events {:?} vs {:?}",
                bank.events(),
                reference.events
            ));
        }
    }
    Ok(())
}

/// The reference for `Detectors::check`: `DetectorBank::observe` on
/// every sample, and on a violation of an enabled mechanism with
/// write-back on, the value its monitor committed.
fn reference_check(
    bank: &mut DetectorBank,
    write_back: bool,
    ea: EaId,
    value: u16,
    at: Millis,
) -> Option<u16> {
    let id = MonitorId(ea.index());
    match bank.observe(id, Sample::from(value), at) {
        Ok(_) => None,
        Err(_) if write_back && bank.is_enabled(id) => bank
            .monitor(id)
            .last_committed()
            .map(|v| v.clamp(0, i64::from(u16::MAX)) as u16),
        Err(_) => None,
    }
}

/// What a `Detectors` case exercised: checks that passed and that
/// violated, and write-backs returned.
#[derive(Debug, Default)]
struct DetectorsCoverage {
    passes: u64,
    violations: u64,
    repairs: u64,
}

fn run_detectors_case(seed: u64) -> Result<DetectorsCoverage, String> {
    let mut g = Gen(seed);
    let version = EaId::ALL
        .into_iter()
        .filter(|_| g.chance(60))
        .fold(EaSet::NONE, |set, ea| set.union(EaSet::only(ea)));
    let write_back = g.chance(50);
    let recovery = random_recovery(&mut g);
    let mut reference = placement_plan_with(recovery)
        .expect("the paper's plan")
        .build_bank();
    let mut detectors = Detectors::from_bank(reference.clone());
    if write_back {
        detectors = detectors.with_write_back();
    }
    detectors.set_version(version);
    for ea in EaId::ALL {
        reference.set_enabled(MonitorId(ea.index()), version.contains(ea));
    }
    let mut coverage = DetectorsCoverage::default();
    for at in 0..600 {
        let ea = g.pick(&EaId::ALL);
        let monitor = detectors.monitor(ea);
        let value = match monitor.previous() {
            // A bit flip of the last committed value.
            Some(prev) if g.chance(10) => (prev as u16) ^ (1 << g.range(0, 15)),
            previous => random_sample(&mut g, monitor.active_params(), previous) as u16,
        };
        let got = detectors.check(ea, value, at);
        let want = reference_check(&mut reference, write_back, ea, value, at);
        if got != want {
            return Err(format!("t {at}: {ea} check({value}) {got:?} vs {want:?}"));
        }
        coverage.repairs += u64::from(got.is_some());
        let (monitor, expected) = (
            detectors.monitor(ea),
            reference.monitor(MonitorId(ea.index())),
        );
        let state = |m: &SignalMonitor| (m.previous(), m.violations());
        if state(monitor) != state(expected) {
            return Err(format!(
                "t {at}: {ea} (previous, violations) {:?} vs {:?}",
                state(monitor),
                state(expected)
            ));
        }
        if detectors.events() != reference.events() {
            return Err(format!(
                "t {at}: events {:?} vs {:?}",
                detectors.events(),
                reference.events()
            ));
        }
        let counts: Vec<u64> = reference.iter().map(|(_, m)| m.checks()).collect();
        if detectors.check_counts().as_slice() != counts.as_slice() {
            return Err(format!(
                "t {at}: check_counts {:?} vs {counts:?}",
                detectors.check_counts()
            ));
        }
    }
    coverage.violations = EaId::ALL
        .iter()
        .map(|&ea| detectors.monitor(ea).violations())
        .sum();
    coverage.passes = detectors.check_counts().iter().sum::<u64>() - coverage.violations;
    Ok(coverage)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn detectors_match_the_bank(seed: u64) {
        if let Err(e) = run_detectors_case(seed) {
            prop_assert!(false, "seed {seed}: {e}");
        }
    }

    #[test]
    fn monitor_matches_the_table_procedures(seed: u64) {
        if let Err(e) = run_monitor_case(seed) {
            prop_assert!(false, "seed {seed}: {e}");
        }
    }

    #[test]
    fn bank_matches_the_table_procedures(seed: u64) {
        if let Err(e) = run_bank_case(seed) {
            prop_assert!(false, "seed {seed}: {e}");
        }
    }
}

/// The generators reach what the properties are about: monitors with
/// and without a kernel, each Table 2 pass kind (wraps included), and
/// each violation kind.
#[test]
fn generators_cover_both_paths() {
    let mut g = Gen(7);
    let (mut with_kernel, mut without_kernel) = (0, 0);
    let mut passes = std::collections::BTreeSet::new();
    let mut violations = std::collections::BTreeSet::new();
    for _ in 0..400 {
        let family = random_family(&mut g);
        let mut monitor = SignalMonitor::new("x", family.clone());
        for (mode, _) in family.iter() {
            monitor.set_mode(mode).unwrap();
            if monitor.has_pass_kernel() {
                with_kernel += 1;
            } else {
                without_kernel += 1;
            }
        }
        for _ in 0..200 {
            match random_step(&mut g, &monitor, &family) {
                Step::SetMode(mode) => {
                    let _ = monitor.set_mode(mode);
                }
                Step::Reset => monitor.reset(),
                Step::Check(sample) => match monitor.check(sample) {
                    Ok(checked) => {
                        passes.insert(format!("{:?}", checked.pass));
                    }
                    Err(v) => {
                        violations.insert(v.kind().code());
                    }
                },
            }
        }
    }
    assert!(
        with_kernel > 100 && without_kernel > 20,
        "{with_kernel} / {without_kernel}"
    );
    for pass in [
        "FirstSample",
        "Increase",
        "Decrease",
        "WrapIncrease",
        "WrapDecrease",
        "UnchangedDecreasing",
        "UnchangedIncreasing",
        "UnchangedRandom",
        "Discrete",
    ] {
        assert!(passes.contains(pass), "no {pass} pass in {passes:?}");
    }
    assert_eq!(violations.len(), 7, "violation kinds seen: {violations:?}");
}

/// The `Detectors` streams reach both halves of the check: passes,
/// violations, and with write-back on, repaired values handed back.
#[test]
fn detectors_streams_cover_violations_and_repairs() {
    let coverage = (0..64).fold(DetectorsCoverage::default(), |mut total, seed| {
        let case = run_detectors_case(seed).expect("agrees with the bank");
        total.passes += case.passes;
        total.violations += case.violations;
        total.repairs += case.repairs;
        total
    });
    assert!(
        coverage.passes > 5_000 && coverage.violations > 5_000 && coverage.repairs > 1_000,
        "{coverage:?}"
    );
}

#[test]
fn every_paper_mechanism_has_a_pass_kernel() {
    let detectors = build_detectors(EaSet::ALL);
    for ea in EaId::ALL {
        assert!(
            detectors.monitor(ea).has_pass_kernel(),
            "{ea} has no kernel"
        );
    }
}
