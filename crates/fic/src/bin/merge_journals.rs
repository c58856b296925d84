//! Combines shard journals into one journal covering the union of
//! their trials — the scale-out companion of `--shard k/n`:
//!
//! ```text
//! full_campaign --shard 1/3 --journal shard1.jsonl   # host A
//! full_campaign --shard 2/3 --journal shard2.jsonl   # host B
//! full_campaign --shard 3/3 --journal shard3.jsonl   # host C
//! merge_journals merged.jsonl shard1.jsonl shard2.jsonl shard3.jsonl
//! full_campaign --from-journal merged.jsonl          # full tables
//! ```
//!
//! Inputs must agree on the protocol and claim distinct shards
//! (duplicate ⟨campaign, error, case⟩ records are deduplicated
//! first-wins, so re-merging is idempotent). Attribution lines keep
//! only oracle verdicts, the first enriched line per key. The output
//! is a fresh, unsharded journal that `--from-journal` and `--resume`
//! accept.

use std::path::PathBuf;
use std::process::ExitCode;

use fic::journal;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: merge_journals <out.jsonl> <in.jsonl> [<in.jsonl> ...]");
        return ExitCode::from(2);
    }
    let out = PathBuf::from(&args[0]);
    let inputs: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
    if inputs.contains(&out) {
        eprintln!("refusing to overwrite input {}", out.display());
        return ExitCode::from(2);
    }

    let merged = match journal::merge(&inputs) {
        Ok(journal) => journal,
        Err(e) => {
            eprintln!("merge failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if merged.truncated_tail {
        eprintln!("note: an input had a torn final line (crash evidence); dropped");
    }
    if let Err(e) = merged.write_to(&out) {
        eprintln!("failed to write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let e1 = merged
        .records
        .iter()
        .filter(|r| r.campaign == journal::CampaignKind::E1)
        .count();
    eprintln!(
        "merged {} journal(s): {} records ({} E1 + {} E2) -> {}",
        inputs.len(),
        merged.records.len(),
        e1,
        merged.records.len() - e1,
        out.display()
    );
    ExitCode::SUCCESS
}
