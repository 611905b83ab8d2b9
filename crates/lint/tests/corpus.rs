//! Corpus tests: the five seeded defect classes must each be detected
//! (one of them also in a resumable step body)
//! with line-anchored spans (pinned by golden reports), and every real
//! rank program in the workspace must lint clean.
//!
//! Regenerate goldens with `UPDATE_GOLDEN=1 cargo test -p pdc-lint`.

use pdc_lint::{FindingKind, FnReport, Linter};
use std::fs;
use std::path::{Path, PathBuf};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Lint one corpus file (referenced relative to the crate root so the
/// rendered paths in goldens are machine-independent).
fn lint_corpus(name: &str) -> FnReport {
    let rel = format!("tests/corpus/{name}.rs");
    let src = fs::read_to_string(manifest_dir().join(&rel)).expect("corpus file");
    let mut linter = Linter::new();
    linter.add_source(&rel, &src);
    let mut reports = linter.analyze_all();
    assert_eq!(reports.len(), 1, "one entry function per corpus file");
    reports.pop().expect("report")
}

fn check_golden(name: &str, report: &FnReport) {
    let rendered = report.render();
    let golden = manifest_dir().join(format!("tests/corpus/{name}.expected.txt"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::write(&golden, &rendered).expect("write golden");
        return;
    }
    let want = fs::read_to_string(&golden).unwrap_or_default();
    assert_eq!(
        rendered, want,
        "golden mismatch for `{name}` — rerun with UPDATE_GOLDEN=1 if the change is intended"
    );
}

fn kinds(report: &FnReport) -> Vec<FindingKind> {
    report
        .report
        .violations
        .iter()
        .chain(report.report.warnings.iter())
        .map(|f| f.kind)
        .collect()
}

#[test]
fn detects_misaligned_bcast_root() {
    let r = lint_corpus("misaligned_bcast");
    assert!(
        kinds(&r).contains(&FindingKind::CollectiveMismatch),
        "{}",
        r.render()
    );
    // Spans anchor on both diverging bcast lines.
    let f = &r.report.violations[0];
    assert!(
        f.sites.iter().any(|s| s.ends_with(":9")) && f.sites.iter().any(|s| s.ends_with(":11")),
        "sites: {:?}",
        f.sites
    );
    check_golden("misaligned_bcast", &r);
}

/// The same defect in a resumable step body: `sc.op(..).await` lowers
/// like `comm.op(..)`, so the finding is the blocking twin's.
#[test]
fn detects_misaligned_bcast_root_in_a_step_body() {
    let r = lint_corpus("misaligned_bcast_step");
    let twin = lint_corpus("misaligned_bcast");
    assert_eq!(kinds(&r), kinds(&twin), "{}", r.render());
    let f = &r.report.violations[0];
    assert!(
        f.sites.iter().any(|s| s.ends_with(":9")) && f.sites.iter().any(|s| s.ends_with(":11")),
        "sites: {:?}",
        f.sites
    );
    check_golden("misaligned_bcast_step", &r);
}

#[test]
fn detects_tag_mismatch() {
    let r = lint_corpus("tag_mismatch");
    assert!(
        kinds(&r).contains(&FindingKind::UnmatchedSend),
        "{}",
        r.render()
    );
    let f = &r.report.violations[0];
    assert!(
        f.sites.iter().any(|s| s.ends_with(":10")),
        "sites: {:?}",
        f.sites
    );
    assert!(f.message.contains("tag"), "message: {}", f.message);
    check_golden("tag_mismatch", &r);
}

#[test]
fn detects_leaked_isend() {
    let r = lint_corpus("leaked_isend");
    assert!(
        kinds(&r).contains(&FindingKind::RequestLeak),
        "{}",
        r.render()
    );
    let f = &r.report.warnings[0];
    assert!(
        f.sites.iter().any(|s| s.ends_with(":12")),
        "sites: {:?}",
        f.sites
    );
    check_golden("leaked_isend", &r);
}

#[test]
fn detects_ssend_ring_cycle() {
    let r = lint_corpus("ssend_ring");
    assert!(kinds(&r).contains(&FindingKind::Deadlock), "{}", r.render());
    let f = &r.report.violations[0];
    assert!(
        f.sites.iter().any(|s| s.ends_with(":13")),
        "sites: {:?}",
        f.sites
    );
    check_golden("ssend_ring", &r);
}

#[test]
fn detects_type_confusion() {
    let r = lint_corpus("type_confusion");
    assert!(
        kinds(&r).contains(&FindingKind::TypeMismatch),
        "{}",
        r.render()
    );
    let f = &r.report.violations[0];
    assert!(
        f.sites.iter().any(|s| s.ends_with(":10")) && f.sites.iter().any(|s| s.ends_with(":12")),
        "sites: {:?}",
        f.sites
    );
    check_golden("type_confusion", &r);
}

/// Every real rank program in the workspace — the eight module bodies
/// plus their fault-tolerant variants and the profiler clinic — must
/// produce zero findings, and every resumable `*_step` body must be
/// analyzed under its own name.
#[test]
fn seed_modules_lint_clean() {
    let root = manifest_dir().join("../..");
    let mut linter = Linter::new();
    let mut step_fns = Vec::new();
    for dir in ["crates/core/src", "crates/prof/src", "crates/check/src"] {
        for entry in fs::read_dir(root.join(dir)).expect("source dir").flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|e| e == "rs") {
                linter.add_path(&p).expect("readable source");
                let src = fs::read_to_string(&p).expect("readable source");
                step_fns.extend(src.split("async fn ").skip(1).filter_map(|rest| {
                    let name = rest
                        .split(|c: char| !c.is_alphanumeric() && c != '_')
                        .next()?;
                    name.ends_with("_step").then(|| name.to_string())
                }));
            }
        }
    }
    let reports = linter.analyze_all();
    assert!(step_fns.len() >= 8, "module step bodies: {step_fns:?}");
    for step in &step_fns {
        assert!(
            reports.iter().any(|r| &r.function == step),
            "step body {step} was not analyzed"
        );
    }
    let rank_fns: Vec<_> = reports
        .iter()
        .filter(|r| r.function.ends_with("_rank"))
        .collect();
    assert!(
        rank_fns.len() >= 8,
        "expected the eight module rank bodies, found {:?}",
        rank_fns.iter().map(|r| &r.function).collect::<Vec<_>>()
    );
    for r in &reports {
        assert!(
            r.is_clean(),
            "false positive on {} ({}):\n{}",
            r.function,
            r.file,
            r.render()
        );
    }
}

/// The whole workspace (the binary's default scan set) stays clean —
/// the same invariant the CI lint-smoke job enforces.
#[test]
fn workspace_scan_is_clean() {
    let root = manifest_dir().join("../..");
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            collect_rs(&e.path().join("src"), &mut files);
        }
    }
    let mut linter = Linter::new();
    for f in &files {
        linter.add_path(f).expect("readable source");
    }
    for r in linter.analyze_all() {
        assert!(r.is_clean(), "false positive:\n{}", r.render());
    }
}

fn collect_rs(path: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(path) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}
