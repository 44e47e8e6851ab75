//! Regression-corpus replay: every shrunk reproducer ever committed
//! under `tests/regressions/` is parsed and re-run against the *real*
//! simulation on every `cargo test`.
//!
//! Each corpus file is a minimal fault schedule that once exposed an
//! invariant violation (see `shrinker_validation.rs` for how one is
//! produced and blessed). On a healthy tree the replay must be clean —
//! a reappearing violation means the bug the reproducer was shrunk from
//! has crept back in.

use ecolb_chaos::{run_plan, ReproArtifact};
use ecolb_metrics::json::ToJson;
use std::path::PathBuf;

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir("tests/regressions")
        .expect("corpus directory tests/regressions must exist")
        .map(|entry| entry.expect("read corpus entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn regression_corpus_replays_clean() {
    let files = corpus_files();
    assert!(
        !files.is_empty(),
        "the corpus must hold at least one reproducer"
    );
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let artifact = ReproArtifact::parse(&text)
            .unwrap_or_else(|e| panic!("{}: unparseable corpus file: {e}", path.display()));
        assert_eq!(
            ReproArtifact::parse(&artifact.to_json()).as_ref(),
            Ok(&artifact),
            "{}: the JSON round trip changed the artifact",
            path.display()
        );
        let outcome = run_plan(&artifact.scenario, &artifact.plan);
        assert!(
            outcome.ok(),
            "{}: invariant `{}` violated again at intensity-shrunk scale \
             (seed {}, {} servers, {} intervals): {:?}",
            path.display(),
            artifact.invariant,
            artifact.plan.seed,
            artifact.scenario.n_servers,
            artifact.scenario.intervals,
            outcome.violations
        );
        assert!(
            outcome.digests_checked >= 1,
            "{}: replay checked no digests",
            path.display()
        );
    }
}

/// Bytes that steer a mutation into the parser's interesting states:
/// structure, digits that grow numbers past `u32`/`u64`, signs,
/// exponents, escapes and invalid UTF-8.
const MUTATION_BYTES: &[u8] = b"{}[],:\"\\-+.eE0123456789 nulltruefalse\xff";

/// Numbers that replace a whole number of the document: fleet sizes,
/// server ids and probabilities at and past their bounds.
const MUTATION_NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "4",
    "1.0",
    "1.5",
    "-1",
    "0.999",
    "4294967299",
    "18446744073709551615",
    "18446744073709551616",
    "1e999",
];

/// Hostile input: arbitrary byte mutations of every corpus artifact
/// either parse or fail with an error, never a panic. Whatever parses
/// is safe to replay: its server ids index the fleet and its fault
/// probabilities are in the plan builders' ranges.
#[test]
fn mutated_corpus_artifacts_parse_or_fail_without_panicking() {
    use ecolb_faults::plan::FaultEventKind;
    use ecolb_simcore::proptest_lite::check_cases;

    let corpus: Vec<Vec<u8>> = corpus_files()
        .iter()
        .map(|p| std::fs::read(p).expect("read corpus file"))
        .collect();
    check_cases("mutated_corpus_artifacts", 512, |g| {
        let mut bytes = corpus[g.usize_in(0, corpus.len())].clone();
        for _ in 0..g.usize_in(1, 6) {
            let at = g.usize_in(0, bytes.len());
            let b = MUTATION_BYTES[g.usize_in(0, MUTATION_BYTES.len())];
            match g.u8_in(0, 5) {
                0 => bytes[at] = b,
                1 => bytes.insert(at, b),
                2 => {
                    bytes.remove(at);
                }
                3 => {
                    let end = g.usize_in(at, bytes.len()).min(at + 16);
                    let slice = bytes[at..end].to_vec();
                    bytes.splice(at..at, slice);
                }
                _ => {
                    let starts: Vec<usize> = (0..bytes.len())
                        .filter(|&i| {
                            bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                        })
                        .collect();
                    if !starts.is_empty() {
                        let start = starts[g.usize_in(0, starts.len())];
                        let mut end = start;
                        while end < bytes.len() && bytes[end].is_ascii_digit() {
                            end += 1;
                        }
                        let number = MUTATION_NUMBERS[g.usize_in(0, MUTATION_NUMBERS.len())];
                        bytes.splice(start..end, number.bytes());
                    }
                }
            }
            if bytes.is_empty() {
                bytes.push(b);
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(a) = ReproArtifact::parse(&text) {
            let n = a.scenario.n_servers;
            assert!(n > 0);
            for ev in &a.plan.events {
                match ev.kind {
                    FaultEventKind::ServerCrash { server, .. }
                    | FaultEventKind::ServerRecover { server } => assert!(server.index() < n),
                    FaultEventKind::LeaderCrash { .. } => {}
                }
            }
            assert!((0.0..=1.0).contains(&a.plan.message_loss_prob));
            assert!((0.0..1.0).contains(&a.plan.message_delay_prob));
            assert!((0.0..=1.0).contains(&a.plan.wake_failure_prob));
        }
    });
}
