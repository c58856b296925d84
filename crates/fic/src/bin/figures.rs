//! Regenerates the paper's figures: the classification scheme (Fig 1),
//! the three continuous-signal examples (Fig 2, as CSV artefacts with a
//! cross-classification check), the non-linear state machine (Fig 3),
//! the software architecture with assertion placements (Fig 5/6 and
//! Table 4). `--out <dir>` is where the CSVs go (default `results`).

use std::path::PathBuf;

use fic::{cli, figures};

fn main() {
    let out_dir: PathBuf =
        cli::FIGURES.from_env(|args| Ok(args.value("--out")?.unwrap_or_else(|| "results".into())));
    std::fs::create_dir_all(&out_dir).expect("create out dir");

    println!("{}", figures::fig1_taxonomy());

    println!("Figure 2. Continuous signal examples (CSV artefacts + cross-check).");
    let series = figures::fig2_series(7, 200);
    println!(
        "{:<6}{:<12}{:>10}{:>12}{:>12}{:>12}",
        "Sub", "Class", "Samples", "vs (a)", "vs (b)", "vs (c)"
    );
    for s in &series {
        let path = out_dir.join(format!("fig2{}.csv", s.label.trim_matches(['(', ')'])));
        std::fs::write(&path, s.to_csv()).expect("write fig2 csv");
        let violations: Vec<String> = series
            .iter()
            .map(|other| s.violations_under(&other.params).to_string())
            .collect();
        println!(
            "{:<6}{:<12}{:>10}{:>12}{:>12}{:>12}",
            s.label,
            s.class.to_string(),
            s.samples.len(),
            violations[0],
            violations[1],
            violations[2],
        );
    }
    println!("(diagonal = 0: each series satisfies exactly its own parameter set)\n");

    println!("Figure 3. Non-linear sequential discrete example.");
    let sm = figures::fig3_state_machine();
    for &d in sm.domain() {
        let targets: Vec<String> = sm
            .transitions_from(d)
            .map(|t| t.iter().map(|v| format!("v{v}")).collect())
            .unwrap_or_default();
        println!("  T(v{d}) = {{{}}}", targets.join(", "));
    }
    println!();

    println!("{}", figures::fig5_architecture());
}
