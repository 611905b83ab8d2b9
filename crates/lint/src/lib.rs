//! # pdc-lint: static communication analyzer for rank programs
//!
//! `pdc-lint` reads the *source* of per-rank module bodies — `*_rank`
//! functions, resumable `*_step` bodies, and any function taking a
//! `&mut Comm` or `StepComm` rank handle — and
//! extracts a symbolic per-rank communication summary: the ordered
//! sequence of sends, receives, and collectives each rank would
//! perform, with peer expressions like `(rank + 1) % size` folded at a
//! small set of model world sizes ([`MODEL_SIZES`]).
//!
//! Four MUST-style analyses run over the summaries:
//!
//! 1. **Collective alignment** — every rank must reach the same
//!    collective sequence (operation, root, reduction operator, element
//!    type), including across rank-conditional branches.
//! 2. **Point-to-point matching** — every send with a resolvable
//!    destination must have a plausible receive there; tag and element
//!    type mismatches are flagged.
//! 3. **Unwaited requests** — `isend`/`irecv` requests must flow into a
//!    `wait_*`/`test_recv` on every path.
//! 4. **Rendezvous cycles** — `ssend` dependency cycles (the classic
//!    ring deadlock), detected over the definite prefix of each rank.
//!
//! Findings reuse the [`pdc_check`] report types, so static lint output
//! and dynamic checker output read identically. See `docs/linting.md`
//! for the IR and the soundness/completeness caveats.

pub mod analyses;
pub mod lex;
pub mod parse;
pub mod spec;
pub mod sym;
pub mod walk;

use serde::Serialize;
use std::collections::HashSet;
use std::path::Path;

pub use pdc_check::{Finding, FindingKind, Report, Severity};
pub use walk::MODEL_SIZES;

/// The lint result for one analyzed entry-point function.
#[derive(Debug, Clone, Serialize)]
pub struct FnReport {
    /// Source file the function lives in.
    pub file: String,
    /// Function name.
    pub function: String,
    /// Line of the `fn` item.
    pub line: u32,
    /// Findings, in [`pdc_check::Report`] form.
    pub report: Report,
}

impl FnReport {
    /// Any violations (warnings allowed)?
    pub fn is_clean(&self) -> bool {
        self.report.is_clean() && self.report.warnings.is_empty()
    }

    /// Human rendering: a header naming the function, then the standard
    /// report body.
    pub fn render(&self) -> String {
        format!(
            "pdc-lint: {} ({}:{}) [model sizes {:?}]\n{}",
            self.function,
            self.file,
            self.line,
            MODEL_SIZES,
            self.report.render()
        )
    }
}

/// The analyzer: feed it source files, then ask for reports.
#[derive(Default)]
pub struct Linter {
    ctx: walk::Ctx,
}

impl Linter {
    pub fn new() -> Self {
        Self {
            ctx: walk::Ctx { files: Vec::new() },
        }
    }

    /// Parse and register one source string.
    pub fn add_source(&mut self, path: &str, src: &str) {
        self.ctx.files.push(parse::parse_file(path, src));
    }

    /// Read, parse, and register one file from disk.
    ///
    /// # Errors
    /// Propagates the read error if the file is unreadable.
    pub fn add_path(&mut self, path: &Path) -> std::io::Result<()> {
        let src = std::fs::read_to_string(path)?;
        self.add_source(&path.display().to_string(), &src);
        Ok(())
    }

    /// Entry points: functions with a rank handle that are either named
    /// `*_rank` / `*_step` (module bodies, blocking and resumable) or
    /// never called as a helper from other parsed functions. Helpers are
    /// analyzed *inlined into* their callers — standalone they would look
    /// like one-sided programs and produce spurious unmatched-send
    /// findings.
    fn entry_points(&self) -> Vec<(usize, &parse::FnDef)> {
        let mut called: HashSet<&str> = HashSet::new();
        for file in &self.ctx.files {
            for f in &file.fns {
                collect_callees(&f.body, &mut called);
            }
        }
        let mut entries = Vec::new();
        for (fi, file) in self.ctx.files.iter().enumerate() {
            for f in &file.fns {
                let body = f.name.ends_with("_rank") || f.name.ends_with("_step");
                if body || !called.contains(f.name.as_str()) {
                    entries.push((fi, f));
                }
            }
        }
        entries
    }

    /// Analyze every entry point; one report per function, in file
    /// order.
    pub fn analyze_all(&self) -> Vec<FnReport> {
        self.entry_points()
            .into_iter()
            .map(|(fi, f)| FnReport {
                file: self.ctx.files[fi].path.clone(),
                function: f.name.clone(),
                line: f.line,
                report: analyses::analyze_fn(&self.ctx, fi, f),
            })
            .collect()
    }

    /// Analyze one function by name (first match across files).
    pub fn analyze_named(&self, name: &str) -> Option<FnReport> {
        for (fi, file) in self.ctx.files.iter().enumerate() {
            if let Some(f) = file.fns.iter().find(|f| f.name == name) {
                return Some(FnReport {
                    file: file.path.clone(),
                    function: f.name.clone(),
                    line: f.line,
                    report: analyses::analyze_fn(&self.ctx, fi, f),
                });
            }
        }
        None
    }
}

fn collect_callees<'n>(nodes: &'n [parse::Node], out: &mut HashSet<&'n str>) {
    use parse::Node;
    for n in nodes {
        match n {
            Node::HelperCall { callee, .. } => {
                out.insert(callee.as_str());
            }
            Node::Let { inner, .. }
            | Node::Assign { inner, .. }
            | Node::ExprStmt { inner, .. }
            | Node::Return { inner, .. } => collect_callees(inner, out),
            Node::If {
                cond_inner,
                then_,
                else_,
                ..
            } => {
                collect_callees(cond_inner, out);
                collect_callees(then_, out);
                if let Some(e) = else_ {
                    collect_callees(e, out);
                }
            }
            Node::Match { inner, arms, .. } => {
                collect_callees(inner, out);
                for a in arms {
                    collect_callees(&a.body, out);
                }
            }
            Node::Loop { body, .. } => collect_callees(body, out),
            Node::WithPhase { body, .. } => {
                if let parse::PhaseBody::Inline(def) = body {
                    collect_callees(&def.body, out);
                }
            }
            Node::Block(b) => collect_callees(b, out),
            Node::LetClosure { def, .. } => collect_callees(&def.body, out),
            Node::Op(_) | Node::Break { .. } | Node::Continue { .. } => {}
        }
    }
}
