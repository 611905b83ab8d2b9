//! Item extraction and IR construction.
//!
//! From a lexed file pdc-lint extracts every `fn` that takes a rank
//! handle — a `&mut Comm` parameter, or a `StepComm` by value or `&mut`
//! (a resumable step body) — and lowers its body to a small statement
//! tree ([`Node`]). A step body's `sc.op(..).await?` lowers exactly like
//! `comm.op(..)?`: the trailing `.await` is a postfix the symbolic layer
//! skips. Expressions are kept as
//! token slices — the symbolic layer in [`crate::sym`] evaluates them
//! per model `(rank, size)` — while control flow, `Comm` method calls,
//! helper calls, and closures are made explicit so the walker can
//! resolve them.

use crate::lex::{lex, Delim, Tok, Token, Tree};
use std::collections::HashMap;
use std::rc::Rc;

/// Is `trees[i]` a plain assignment `=` (not `==`, `<=`, `>=`, `!=`,
/// `=>` or a compound operator's tail)?
fn is_assign_eq(trees: &[Tree], i: usize) -> bool {
    if !trees.get(i).is_some_and(|t| t.is_punct('=')) {
        return false;
    }
    if trees
        .get(i + 1)
        .is_some_and(|t| t.is_punct('=') || t.is_punct('>'))
    {
        return false;
    }
    // A compound operator's head is glued to the `=`; `Option<Vec<T>> =`
    // (a type closing before a spaced `=`) is still a plain assignment.
    if let Some(Tree::Leaf(prev)) = i.checked_sub(1).map(|p| &trees[p]) {
        if let Tok::Punct(c) = prev.tok {
            if prev.joint && "<>!=+-*/%&|^".contains(c) {
                return false;
            }
        }
    }
    true
}

/// Primitive element types the analyzer tracks for send/recv payloads.
pub const PRIM_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool",
];

/// One statement (or statement-like expression) in the lowered body.
#[derive(Debug, Clone)]
pub enum Node {
    /// A `Comm` method call (send/recv/collective/wait).
    Op(CommOp),
    /// `let pats = init;` — `inner` holds comm ops / control flow found
    /// inside the initializer, in evaluation order.
    Let {
        pats: Vec<String>,
        ty_elem: Option<String>,
        init: Vec<Tree>,
        inner: Vec<Node>,
        line: u32,
    },
    /// `let name = |comm| { ... };` — a closure that can later be handed
    /// to `with_phase`.
    LetClosure {
        name: String,
        def: Rc<ClosureDef>,
    },
    /// `name = rhs;` (including compound assignments).
    Assign {
        name: String,
        rhs: Vec<Tree>,
        inner: Vec<Node>,
    },
    If {
        cond: Vec<Tree>,
        cond_inner: Vec<Node>,
        /// `if let PATS = scrutinee` — pats bound in the then-branch.
        pats: Vec<String>,
        then_: Vec<Node>,
        else_: Option<Vec<Node>>,
        line: u32,
    },
    Match {
        scrutinee: Vec<Tree>,
        inner: Vec<Node>,
        arms: Vec<Arm>,
        line: u32,
    },
    Loop {
        kind: LoopKind,
        body: Vec<Node>,
        /// Variables assigned anywhere in the body — bound to Unknown
        /// before walking so stale values never leak into conditions.
        assigned: Vec<String>,
        line: u32,
    },
    /// `helper(..., comm, ...)` — a call to another function that takes
    /// the comm; inlined by the walker when it resolves.
    HelperCall {
        callee: String,
        args: Vec<Vec<Tree>>,
        line: u32,
    },
    /// `comm.with_phase("name", closure)`.
    WithPhase {
        body: PhaseBody,
        line: u32,
    },
    Return {
        inner: Vec<Node>,
        expr: Vec<Tree>,
        line: u32,
    },
    Break {
        line: u32,
    },
    Continue {
        line: u32,
    },
    /// Any other expression statement; `inner` carries embedded comm ops.
    ExprStmt {
        toks: Vec<Tree>,
        inner: Vec<Node>,
    },
    Block(Vec<Node>),
}

#[derive(Debug, Clone)]
pub enum PhaseBody {
    Inline(Rc<ClosureDef>),
    Named(String),
}

#[derive(Debug, Clone)]
pub struct ClosureDef {
    /// The closure's comm parameter name (ops inside were lowered
    /// against it).
    pub comm: String,
    pub body: Vec<Node>,
}

#[derive(Debug, Clone)]
pub enum LoopKind {
    For { pats: Vec<String>, iter: Vec<Tree> },
    While { cond: Vec<Tree> },
    WhileLet { scrutinee: Vec<Tree> },
    Loop,
}

#[derive(Debug, Clone)]
pub struct Arm {
    pub pats: Vec<String>,
    /// Integer-literal pattern, when the arm is a plain literal.
    pub lit: Option<i64>,
    pub wild: bool,
    pub body: Vec<Node>,
}

/// A single `Comm` method call with its raw argument token slices.
#[derive(Debug, Clone)]
pub struct CommOp {
    pub method: String,
    pub line: u32,
    /// Turbofish type arguments (`recv::<f64>` → `["f64"]`).
    pub tyargs: Vec<String>,
    pub args: Vec<Vec<Tree>>,
    /// `carrier.push(comm.isend(..))` — the Vec the request lands in.
    pub pushed_into: Option<String>,
}

/// A function taking `&mut Comm`, lowered.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    pub line: u32,
    /// All parameter names, in order (including the comm parameter).
    pub params: Vec<String>,
    pub comm_param: String,
    pub body: Vec<Node>,
    /// Function-local `const NAME: <int> = v;` bindings.
    pub consts: HashMap<String, i64>,
}

/// One parsed source file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    pub path: String,
    pub consts: HashMap<String, i64>,
    pub fns: Vec<FnDef>,
}

/// Parse a source file: lex, scan items, lower every comm function.
pub fn parse_file(path: &str, src: &str) -> ParsedFile {
    let trees = lex(src);
    let mut out = ParsedFile {
        path: path.to_string(),
        consts: HashMap::new(),
        fns: Vec::new(),
    };
    scan_items(&trees, &mut out);
    out
}

fn scan_items(trees: &[Tree], out: &mut ParsedFile) {
    let mut i = 0;
    let mut cfg_test = false;
    while i < trees.len() {
        match &trees[i] {
            t if t.is_punct('#') => {
                // `#[...]` or `#![...]` attribute; look for cfg(test).
                let mut j = i + 1;
                if trees.get(j).is_some_and(|t| t.is_punct('!')) {
                    j += 1;
                }
                if let Some(attr) = trees.get(j).and_then(|t| t.as_group(Delim::Bracket)) {
                    if attr_is_cfg_test(attr) {
                        cfg_test = true;
                    }
                    i = j + 1;
                } else {
                    i += 1;
                }
                continue; // attributes carry to the next item
            }
            t if t.is_ident("mod") => {
                let body = trees.get(i + 2).and_then(|t| t.as_group(Delim::Brace));
                if let Some(body) = body {
                    if !cfg_test {
                        scan_items(body, out);
                    }
                    i += 3;
                } else {
                    i += 1;
                }
            }
            t if t.is_ident("impl") || t.is_ident("trait") => {
                // Recurse into the first brace group of the item.
                let mut j = i + 1;
                while j < trees.len() {
                    if let Some(body) = trees[j].as_group(Delim::Brace) {
                        if !cfg_test {
                            scan_items(body, out);
                        }
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
            }
            t if t.is_ident("fn") => {
                if !cfg_test {
                    if let Some(f) = parse_fn(trees, i + 1) {
                        out.fns.push(f);
                    }
                }
                // Skip to the body brace so nested closures aren't
                // re-scanned as items.
                let mut j = i + 1;
                while j < trees.len() {
                    if trees[j].as_group(Delim::Brace).is_some() {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
            }
            t if t.is_ident("const") => {
                parse_const(trees, i + 1, &mut out.consts);
                while i < trees.len() && !trees[i].is_punct(';') {
                    i += 1;
                }
                i += 1;
            }
            _ => i += 1,
        }
        cfg_test = false;
    }
}

fn attr_is_cfg_test(attr: &[Tree]) -> bool {
    if !attr.first().is_some_and(|t| t.is_ident("cfg")) {
        return false;
    }
    attr.iter().any(|t| {
        t.as_group(Delim::Paren)
            .is_some_and(|inner| inner.iter().any(|t| t.is_ident("test")))
    })
}

/// `const NAME: T = <int>;` → record NAME.
fn parse_const(trees: &[Tree], at: usize, consts: &mut HashMap<String, i64>) {
    let Some(name) = trees.get(at).and_then(|t| t.as_ident()) else {
        return;
    };
    // Find `=`, then a single integer literal before `;`.
    let mut j = at + 1;
    while j < trees.len() && !trees[j].is_punct('=') && !trees[j].is_punct(';') {
        j += 1;
    }
    if !trees.get(j).is_some_and(|t| t.is_punct('=')) {
        return;
    }
    if let Some(Tree::Leaf(Token {
        tok: Tok::Int(v, _),
        ..
    })) = trees.get(j + 1)
    {
        if trees.get(j + 2).is_some_and(|t| t.is_punct(';')) {
            consts.insert(name.to_string(), *v);
        }
    }
}

/// At `trees[at]` = fn name. Returns None for fns without a rank-handle
/// (`Comm` or `StepComm`) parameter.
fn parse_fn(trees: &[Tree], at: usize) -> Option<FnDef> {
    let name = trees.get(at)?.as_ident()?.to_string();
    let line = trees[at].line();
    let mut j = at + 1;
    // Skip generics `<...>` (depth-aware; `->` inside `Fn(..) -> T`
    // bounds must not close a level).
    if trees.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        let mut prev_minus = false;
        while j < trees.len() {
            match trees[j].as_punct() {
                Some('<') => depth += 1,
                Some('>') if !prev_minus => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            prev_minus = trees[j].is_punct('-');
            j += 1;
        }
    }
    let params_group = loop {
        let t = trees.get(j)?;
        if let Some(g) = t.as_group(Delim::Paren) {
            break g;
        }
        j += 1;
    };
    // Parse parameters; find the comm parameter.
    let mut params = Vec::new();
    let mut comm_param = None;
    for p in split_top(params_group, ',') {
        let Some(colon) = p.iter().position(|t| t.is_punct(':')) else {
            continue;
        };
        let pname = p[..colon]
            .iter()
            .filter_map(|t| t.as_ident())
            .rfind(|s| *s != "mut" && *s != "ref")?
            .to_string();
        let is_comm = p[colon..]
            .iter()
            .any(|t| t.is_ident("Comm") || t.is_ident("StepComm"));
        if is_comm && comm_param.is_none() {
            comm_param = Some(pname.clone());
        }
        params.push(pname);
    }
    let comm_param = comm_param?;
    // Body: first brace group after the params.
    let mut k = j + 1;
    let body_group = loop {
        let t = trees.get(k)?;
        if let Some(g) = t.as_group(Delim::Brace) {
            break g;
        }
        k += 1;
    };
    let mut b = Builder {
        comm: comm_param.clone(),
        consts: HashMap::new(),
    };
    let body = b.build_block(body_group);
    Some(FnDef {
        name,
        line,
        params,
        comm_param,
        body,
        consts: b.consts,
    })
}

/// Split a token slice at top-level occurrences of a punct.
pub fn split_top(trees: &[Tree], sep: char) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut angle = 0i32;
    for (i, t) in trees.iter().enumerate() {
        match t.as_punct() {
            Some('<') => angle += 1,
            Some('>') if angle > 0 => angle -= 1,
            Some(c) if c == sep && angle == 0 => {
                if i > start {
                    out.push(&trees[start..i]);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < trees.len() {
        out.push(&trees[start..]);
    }
    out
}

struct Builder {
    comm: String,
    consts: HashMap<String, i64>,
}

impl Builder {
    fn build_block(&mut self, trees: &[Tree]) -> Vec<Node> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < trees.len() {
            let t = &trees[i];
            if t.is_punct(';') {
                i += 1;
                continue;
            }
            if t.is_punct('#') {
                // Statement attribute: skip `#[...]`.
                i += 1;
                if trees
                    .get(i)
                    .is_some_and(|t| t.as_group(Delim::Bracket).is_some())
                {
                    i += 1;
                }
                continue;
            }
            match t.as_ident() {
                Some("let") => i = self.build_let(trees, i + 1, &mut out),
                Some("const") => {
                    parse_const(trees, i + 1, &mut self.consts);
                    i = skip_to_semi(trees, i);
                }
                Some("if") => i = self.build_if(trees, i, &mut out),
                Some("match") => i = self.build_match(trees, i, &mut out),
                Some("for") => i = self.build_for(trees, i, &mut out),
                Some("while") => i = self.build_while(trees, i, &mut out),
                Some("loop") => {
                    let line = t.line();
                    let mut j = i + 1;
                    while j < trees.len() && trees[j].as_group(Delim::Brace).is_none() {
                        j += 1;
                    }
                    if let Some(g) = trees.get(j).and_then(|t| t.as_group(Delim::Brace)) {
                        let body = self.build_block(g);
                        let assigned = collect_assigned(g);
                        out.push(Node::Loop {
                            kind: LoopKind::Loop,
                            body,
                            assigned,
                            line,
                        });
                        i = j + 1;
                    } else {
                        i += 1;
                    }
                }
                Some("return") => {
                    let line = t.line();
                    let end = stmt_end(trees, i + 1);
                    let expr: Vec<Tree> = trees[i + 1..end].to_vec();
                    let inner = self.scan_expr(&expr);
                    out.push(Node::Return { inner, expr, line });
                    i = end + 1;
                }
                Some("break") => {
                    out.push(Node::Break { line: t.line() });
                    i = skip_to_semi(trees, i);
                }
                Some("continue") => {
                    out.push(Node::Continue { line: t.line() });
                    i = skip_to_semi(trees, i);
                }
                _ => {
                    if let Some(g) = t.as_group(Delim::Brace) {
                        // Bare block statement.
                        let body = self.build_block(g);
                        out.push(Node::Block(body));
                        i += 1;
                        continue;
                    }
                    // Expression statement (possibly an assignment).
                    let end = stmt_end(trees, i);
                    let toks: Vec<Tree> = trees[i..end].to_vec();
                    self.build_expr_stmt(toks, &mut out);
                    i = end + 1;
                }
            }
        }
        out
    }

    fn build_expr_stmt(&mut self, toks: Vec<Tree>, out: &mut Vec<Node>) {
        if toks.is_empty() {
            return;
        }
        if let Some((name, eq)) = assignment_target(&toks) {
            let rhs: Vec<Tree> = toks[eq + 1..].to_vec();
            let inner = self.scan_expr(&rhs);
            out.push(Node::Assign { name, rhs, inner });
            return;
        }
        let mut inner = self.scan_expr(&toks);
        // `carrier.push(comm.isend(..))` — tag embedded request ops with
        // the Vec they land in.
        if let Some(recv) = push_receiver(&toks) {
            for n in &mut inner {
                if let Node::Op(op) = n {
                    if matches!(op.method.as_str(), "isend" | "irecv") {
                        op.pushed_into = Some(recv.clone());
                    }
                }
            }
        }
        if inner.len() == 1 && matches!(inner[0], Node::Op(_) | Node::WithPhase { .. }) {
            out.push(inner.pop().unwrap());
        } else {
            out.push(Node::ExprStmt { toks, inner });
        }
    }

    fn build_let(&mut self, trees: &[Tree], at: usize, out: &mut Vec<Node>) -> usize {
        let line = trees.get(at).map_or(0, |t| t.line());
        // Pattern (and optional type) up to the first assignment `=`.
        let mut eq = at;
        while eq < trees.len() {
            if is_assign_eq(trees, eq) {
                break;
            }
            if trees[eq].is_punct(';') {
                return eq + 1; // `let x;` — nothing to model
            }
            eq += 1;
        }
        if eq >= trees.len() {
            return trees.len();
        }
        let pre = &trees[at..eq];
        let (pat_toks, ty_toks) = match pre.iter().position(|t| t.is_punct(':')) {
            Some(c) => (&pre[..c], Some(&pre[c + 1..])),
            None => (pre, None),
        };
        let pats = pattern_idents(pat_toks);
        let ty_elem = ty_toks.and_then(prim_in);
        let end = stmt_end(trees, eq + 1);
        let init: Vec<Tree> = trees[eq + 1..end].to_vec();
        // Closure initializer?
        if let Some(def) = self.parse_closure(&init) {
            if let Some(name) = pats.first() {
                out.push(Node::LetClosure {
                    name: name.clone(),
                    def: Rc::new(def),
                });
                return end + 1;
            }
        }
        let mut inner = self.scan_expr(&init);
        if let Some(recv) = push_receiver(&init) {
            for n in &mut inner {
                if let Node::Op(op) = n {
                    if matches!(op.method.as_str(), "isend" | "irecv") {
                        op.pushed_into = Some(recv.clone());
                    }
                }
            }
        }
        out.push(Node::Let {
            pats,
            ty_elem,
            init,
            inner,
            line,
        });
        end + 1
    }

    fn build_if(&mut self, trees: &[Tree], at: usize, out: &mut Vec<Node>) -> usize {
        let (node, next) = self.parse_if(trees, at);
        if let Some(n) = node {
            out.push(n);
        }
        next
    }

    /// Parse `if [let PAT =] COND { } [else if ... | else { }]` starting
    /// at the `if` keyword. Returns the node and the index after it.
    fn parse_if(&mut self, trees: &[Tree], at: usize) -> (Option<Node>, usize) {
        let line = trees[at].line();
        let mut j = at + 1;
        let mut pats = Vec::new();
        if trees.get(j).is_some_and(|t| t.is_ident("let")) {
            j += 1;
            let mut eq = j;
            while eq < trees.len() && !is_assign_eq(trees, eq) {
                eq += 1;
            }
            pats = pattern_idents(&trees[j..eq.min(trees.len())]);
            j = eq + 1;
        }
        let cond_start = j;
        while j < trees.len() && trees[j].as_group(Delim::Brace).is_none() {
            j += 1;
        }
        let cond: Vec<Tree> = trees[cond_start..j].to_vec();
        let cond_inner = self.scan_expr(&cond);
        let Some(then_g) = trees.get(j).and_then(|t| t.as_group(Delim::Brace)) else {
            return (None, j + 1);
        };
        let then_ = self.build_block(then_g);
        let mut next = j + 1;
        let mut else_ = None;
        if trees.get(next).is_some_and(|t| t.is_ident("else")) {
            next += 1;
            if trees.get(next).is_some_and(|t| t.is_ident("if")) {
                let (n, after) = self.parse_if(trees, next);
                else_ = Some(n.into_iter().collect());
                next = after;
            } else if let Some(else_g) = trees.get(next).and_then(|t| t.as_group(Delim::Brace)) {
                else_ = Some(self.build_block(else_g));
                next += 1;
            }
        }
        (
            Some(Node::If {
                cond,
                cond_inner,
                pats,
                then_,
                else_,
                line,
            }),
            next,
        )
    }

    fn build_match(&mut self, trees: &[Tree], at: usize, out: &mut Vec<Node>) -> usize {
        let line = trees[at].line();
        let mut j = at + 1;
        while j < trees.len() && trees[j].as_group(Delim::Brace).is_none() {
            j += 1;
        }
        let scrutinee: Vec<Tree> = trees[at + 1..j].to_vec();
        let inner = self.scan_expr(&scrutinee);
        let Some(arms_g) = trees.get(j).and_then(|t| t.as_group(Delim::Brace)) else {
            return j + 1;
        };
        let arms = self.parse_arms(arms_g);
        out.push(Node::Match {
            scrutinee,
            inner,
            arms,
            line,
        });
        j + 1
    }

    fn parse_arms(&mut self, trees: &[Tree]) -> Vec<Arm> {
        let mut arms = Vec::new();
        let mut i = 0;
        while i < trees.len() {
            if trees[i].is_punct(',') || trees[i].is_punct(';') {
                i += 1;
                continue;
            }
            // Pattern up to `=>`.
            let start = i;
            let mut fat = None;
            while i < trees.len() {
                if trees[i].is_punct('=')
                    && matches!(&trees[i], Tree::Leaf(tok) if tok.joint)
                    && trees.get(i + 1).is_some_and(|t| t.is_punct('>'))
                {
                    fat = Some(i);
                    break;
                }
                i += 1;
            }
            let Some(fat) = fat else { break };
            let pat_toks = &trees[start..fat];
            // Drop a trailing `if GUARD` from the pattern for binding
            // purposes (guards bind nothing new that we track).
            let guard_at = pat_toks.iter().position(|t| t.is_ident("if"));
            let pat_core = &pat_toks[..guard_at.unwrap_or(pat_toks.len())];
            let wild = pat_core.len() == 1 && pat_core[0].is_ident("_");
            let lit = match pat_core {
                [Tree::Leaf(Token {
                    tok: Tok::Int(v, _),
                    ..
                })] => Some(*v),
                _ => None,
            };
            let pats = pattern_idents(pat_core);
            i = fat + 2;
            // Body: brace block or expression up to top-level `,`.
            let body = if let Some(g) = trees.get(i).and_then(|t| t.as_group(Delim::Brace)) {
                i += 1;
                self.build_block(g)
            } else {
                let start = i;
                while i < trees.len() && !trees[i].is_punct(',') {
                    i += 1;
                }
                let toks: Vec<Tree> = trees[start..i].to_vec();
                let mut body = Vec::new();
                self.build_expr_stmt(toks, &mut body);
                body
            };
            arms.push(Arm {
                pats,
                lit,
                wild,
                body,
            });
        }
        arms
    }

    fn build_for(&mut self, trees: &[Tree], at: usize, out: &mut Vec<Node>) -> usize {
        let line = trees[at].line();
        let mut j = at + 1;
        while j < trees.len() && !trees[j].is_ident("in") {
            j += 1;
        }
        let pats = pattern_idents(&trees[at + 1..j.min(trees.len())]);
        let iter_start = j + 1;
        let mut k = iter_start;
        while k < trees.len() && trees[k].as_group(Delim::Brace).is_none() {
            k += 1;
        }
        let iter: Vec<Tree> = trees[iter_start..k].to_vec();
        let Some(body_g) = trees.get(k).and_then(|t| t.as_group(Delim::Brace)) else {
            return k + 1;
        };
        let body = self.build_block(body_g);
        let assigned = collect_assigned(body_g);
        out.push(Node::Loop {
            kind: LoopKind::For { pats, iter },
            body,
            assigned,
            line,
        });
        k + 1
    }

    fn build_while(&mut self, trees: &[Tree], at: usize, out: &mut Vec<Node>) -> usize {
        let line = trees[at].line();
        let mut j = at + 1;
        let is_let = trees.get(j).is_some_and(|t| t.is_ident("let"));
        let cond_start = j;
        while j < trees.len() && trees[j].as_group(Delim::Brace).is_none() {
            j += 1;
        }
        let cond: Vec<Tree> = trees[cond_start..j].to_vec();
        let Some(body_g) = trees.get(j).and_then(|t| t.as_group(Delim::Brace)) else {
            return j + 1;
        };
        let body = self.build_block(body_g);
        let assigned = collect_assigned(body_g);
        out.push(Node::Loop {
            kind: if is_let {
                LoopKind::WhileLet { scrutinee: cond }
            } else {
                LoopKind::While { cond }
            },
            body,
            assigned,
            line,
        });
        j + 1
    }

    /// Scan an expression token slice for comm ops, helper calls, and
    /// embedded control flow, in evaluation order.
    fn scan_expr(&mut self, trees: &[Tree]) -> Vec<Node> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < trees.len() {
            let t = &trees[i];
            // `comm . method …`
            if t.as_ident() == Some(self.comm.as_str())
                && trees.get(i + 1).is_some_and(|t| t.is_punct('.'))
            {
                if let Some((node, next)) = self.parse_comm_call(trees, i) {
                    out.push(node);
                    i = next;
                    continue;
                }
                i += 2;
                continue;
            }
            // Embedded `if` / `match` in expression position.
            if t.is_ident("if") {
                let (node, next) = self.parse_if(trees, i);
                if let Some(n) = node {
                    out.push(n);
                }
                i = next;
                continue;
            }
            if t.is_ident("match") {
                let mut tmp = Vec::new();
                let next = self.build_match(trees, i, &mut tmp);
                out.extend(tmp);
                i = next;
                continue;
            }
            // Helper call: `name(args…)` with the comm var (or a borrow
            // of it, `&comm` / `&mut sc`) as a top-level argument. Skip
            // method calls (`.name(...)`).
            if let (Some(name), Some(args)) = (
                t.as_ident(),
                trees.get(i + 1).and_then(|t| t.as_group(Delim::Paren)),
            ) {
                let is_method = i > 0 && trees[i - 1].is_punct('.');
                let comm_arg = split_top(args, ',').iter().any(|a| self.is_comm_arg(a));
                if !is_method && comm_arg && name != self.comm {
                    let arg_toks: Vec<Vec<Tree>> =
                        split_top(args, ',').iter().map(|a| a.to_vec()).collect();
                    // Inner ops inside non-comm args still count.
                    for a in &arg_toks {
                        out.extend(self.scan_expr(a));
                    }
                    out.push(Node::HelperCall {
                        callee: name.to_string(),
                        args: arg_toks,
                        line: t.line(),
                    });
                    i += 2;
                    continue;
                }
            }
            // Recurse into any group.
            match t {
                Tree::Group { trees: inner, .. } => {
                    out.extend(self.scan_expr(inner));
                    i += 1;
                }
                _ => i += 1,
            }
        }
        out
    }

    /// `comm`, `&comm`, or `&mut comm` for the current comm variable.
    fn is_comm_arg(&self, arg: &[Tree]) -> bool {
        let ident = match arg {
            [t] => t,
            [amp, t] if amp.is_punct('&') => t,
            [amp, m, t] if amp.is_punct('&') && m.is_ident("mut") => t,
            _ => return false,
        };
        ident.as_ident() == Some(self.comm.as_str())
    }

    /// At `trees[i]` = comm ident followed by `.`. Parses
    /// `comm.method::<T>(args)`. Returns None for untracked methods so
    /// the caller can skip just the `comm .` prefix.
    fn parse_comm_call(&mut self, trees: &[Tree], i: usize) -> Option<(Node, usize)> {
        let method = trees.get(i + 2)?.as_ident()?.to_string();
        let line = trees[i + 2].line();
        let mut j = i + 3;
        // Turbofish.
        let mut tyargs = Vec::new();
        if trees.get(j).is_some_and(|t| t.is_punct(':'))
            && trees.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && trees.get(j + 2).is_some_and(|t| t.is_punct('<'))
        {
            j += 3;
            let mut depth = 1i32;
            while j < trees.len() && depth > 0 {
                match trees[j].as_punct() {
                    Some('<') => depth += 1,
                    Some('>') => depth -= 1,
                    _ => {
                        if let Some(id) = trees[j].as_ident() {
                            if PRIM_TYPES.contains(&id) {
                                tyargs.push(id.to_string());
                            }
                        }
                    }
                }
                j += 1;
            }
        }
        let args_g = trees.get(j)?.as_group(Delim::Paren)?;
        let args: Vec<Vec<Tree>> = split_top(args_g, ',').iter().map(|a| a.to_vec()).collect();
        let next = j + 1;
        if method == "with_phase" {
            let body = self.parse_phase_body(args.get(1).map_or(&[][..], |a| &a[..]))?;
            return Some((Node::WithPhase { body, line }, next));
        }
        if !crate::spec::is_tracked(&method) {
            // Still scan argument expressions for nested calls.
            let mut nested = Vec::new();
            for a in &args {
                nested.extend(self.scan_expr(a));
            }
            if nested.is_empty() {
                return None;
            }
            return Some((
                Node::ExprStmt {
                    toks: Vec::new(),
                    inner: nested,
                },
                next,
            ));
        }
        // Nested ops inside the arguments come first (evaluation order).
        let mut pre = Vec::new();
        for a in &args {
            pre.extend(self.scan_expr(a));
        }
        let op = Node::Op(CommOp {
            method,
            line,
            tyargs,
            args,
            pushed_into: None,
        });
        if pre.is_empty() {
            Some((op, next))
        } else {
            pre.push(op);
            Some((
                Node::ExprStmt {
                    toks: Vec::new(),
                    inner: pre,
                },
                next,
            ))
        }
    }

    fn parse_phase_body(&mut self, arg: &[Tree]) -> Option<PhaseBody> {
        if arg.len() == 1 {
            if let Some(name) = arg[0].as_ident() {
                return Some(PhaseBody::Named(name.to_string()));
            }
        }
        self.parse_closure(arg)
            .map(|d| PhaseBody::Inline(Rc::new(d)))
    }

    /// Parse `|params| body` / `move |params| body` into a ClosureDef;
    /// the closure's first parameter becomes its comm variable.
    fn parse_closure(&mut self, toks: &[Tree]) -> Option<ClosureDef> {
        let mut i = 0;
        if toks.get(i).is_some_and(|t| t.is_ident("move")) {
            i += 1;
        }
        if !toks.get(i).is_some_and(|t| t.is_punct('|')) {
            return None;
        }
        i += 1;
        // Parameters up to the closing `|`. `||` (no params) lexes as two
        // adjacent pipes and falls out naturally.
        let pstart = i;
        while i < toks.len() && !toks[i].is_punct('|') {
            i += 1;
        }
        let param = toks[pstart..i]
            .iter()
            .filter_map(|t| t.as_ident())
            .find(|s| *s != "mut" && *s != "ref")
            .map(str::to_string);
        i += 1; // closing pipe
                // Optional `-> Type` before the body.
        if toks.get(i).is_some_and(|t| t.is_punct('-'))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('>'))
        {
            i += 2;
            while i < toks.len() && toks[i].as_group(Delim::Brace).is_none() {
                i += 1;
            }
        }
        let comm = param.unwrap_or_else(|| self.comm.clone());
        let saved = std::mem::replace(&mut self.comm, comm.clone());
        let body = if let Some(g) = toks.get(i).and_then(|t| t.as_group(Delim::Brace)) {
            self.build_block(g)
        } else {
            let rest: Vec<Tree> = toks[i..].to_vec();
            let mut body = Vec::new();
            self.build_expr_stmt(rest, &mut body);
            body
        };
        self.comm = saved;
        Some(ClosureDef { comm, body })
    }
}

/// Index just past the end of the statement starting at `i` (the
/// position of the terminating `;`, or `trees.len()`).
fn stmt_end(trees: &[Tree], i: usize) -> usize {
    let mut j = i;
    while j < trees.len() && !trees[j].is_punct(';') {
        j += 1;
    }
    j
}

fn skip_to_semi(trees: &[Tree], i: usize) -> usize {
    stmt_end(trees, i) + 1
}

/// Lowercase (or `_`-prefixed) idents bound by a pattern; skips path
/// segments like `Some` / `BucketStrategy`.
fn pattern_idents(trees: &[Tree]) -> Vec<String> {
    let mut out = Vec::new();
    collect_pattern_idents(trees, &mut out);
    out
}

fn collect_pattern_idents(trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Leaf(Token {
                tok: Tok::Ident(s), ..
            }) => {
                let lower = s
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_lowercase() || c == '_');
                if lower && s != "mut" && s != "ref" && s != "if" {
                    out.push(s.clone());
                }
            }
            Tree::Group { trees, .. } => collect_pattern_idents(trees, out),
            _ => {}
        }
    }
}

/// Does this statement assign to a variable? Returns (name, index of the
/// `=` token). Matches `x = …`, `x += …`, `x <<= …`, `x[i] = …`,
/// `x.f = …` — and rejects `x == …`.
fn assignment_target(trees: &[Tree]) -> Option<(String, usize)> {
    let name = trees.first()?.as_ident()?.to_string();
    if name == "if" || name == "match" || name == "return" {
        return None;
    }
    let mut i = 1;
    // Place expression: `.field`, `[index]` chains.
    loop {
        match trees.get(i) {
            Some(t) if t.is_punct('.') => i += 2,
            Some(Tree::Group {
                delim: Delim::Bracket,
                ..
            }) => i += 1,
            _ => break,
        }
    }
    // Operator run ending in `=` (not `==`, `<=`, `>=`, `!=`, `=>`).
    let op_start = i;
    while trees
        .get(i)
        .and_then(|t| t.as_punct())
        .is_some_and(|c| "+-*/%&|^<>".contains(c))
    {
        i += 1;
    }
    let t = trees.get(i)?;
    if !t.is_punct('=') {
        return None;
    }
    if trees
        .get(i + 1)
        .is_some_and(|t| t.is_punct('=') || t.is_punct('>'))
    {
        return None;
    }
    // Bare `=` preceded by a comparison-ish run (`<`, `>`, `!`) of length
    // one is `<=` / `>=` — not an assignment. (`<<=`, `>>=` have run 2.)
    if i - op_start == 1 {
        let prev = trees[op_start].as_punct();
        if matches!(prev, Some('<') | Some('>')) {
            return None;
        }
    }
    Some((name, i))
}

/// All assignment targets anywhere inside a loop body (for pre-binding
/// loop-carried variables to Unknown).
fn collect_assigned(trees: &[Tree]) -> Vec<String> {
    let mut out = Vec::new();
    // Statement-ish boundaries: scan every position; assignment_target
    // anchors on an ident so spurious matches are cheap to tolerate.
    fn walk(trees: &[Tree], out: &mut Vec<String>) {
        for (i, t) in trees.iter().enumerate() {
            if t.as_ident().is_some() {
                let prev_dot = i > 0 && trees[i - 1].is_punct('.');
                if !prev_dot {
                    if let Some((name, _)) = assignment_target(&trees[i..]) {
                        if !out.contains(&name) {
                            out.push(name);
                        }
                    }
                }
            }
            if let Tree::Group { trees: inner, .. } = t {
                walk(inner, out);
            }
        }
    }
    walk(trees, &mut out);
    out
}

/// `X.push(ARG)` → Some("X").
fn push_receiver(trees: &[Tree]) -> Option<String> {
    let name = trees.first()?.as_ident()?.to_string();
    if trees.get(1)?.is_punct('.') && trees.get(2)?.is_ident("push") {
        trees.get(3)?.as_group(Delim::Paren)?;
        return Some(name);
    }
    None
}

/// First primitive element type mentioned in a type token slice
/// (`Vec<f64>` → `f64`).
pub fn prim_in(trees: &[Tree]) -> Option<String> {
    for t in trees {
        match t {
            Tree::Leaf(Token {
                tok: Tok::Ident(s), ..
            }) if PRIM_TYPES.contains(&s.as_str()) => return Some(s.clone()),
            Tree::Group { trees, .. } => {
                if let Some(p) = prim_in(trees) {
                    return Some(p);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_comm_fns_and_consts() {
        let src = r#"
const TAG: u32 = 7;
fn helper(x: usize) -> usize { x }
pub fn ring(comm: &mut Comm, n: usize) -> Result<u64> {
    const LOCAL: u32 = 3;
    let right = (comm.rank() + 1) % comm.size();
    comm.send(&[0u64], right, TAG)?;
    let (v, _) = comm.recv::<u64>(right, LOCAL)?;
    Ok(v[0])
}
#[cfg(test)]
mod tests {
    fn fake(comm: &mut Comm) {}
}
"#;
        let f = parse_file("x.rs", src);
        assert_eq!(f.consts.get("TAG"), Some(&7));
        assert_eq!(f.fns.len(), 1, "helper (no comm) and test fn skipped");
        let fd = &f.fns[0];
        assert_eq!(fd.name, "ring");
        assert_eq!(fd.comm_param, "comm");
        assert_eq!(fd.consts.get("LOCAL"), Some(&3));
        assert_eq!(fd.params, vec!["comm", "n"]);
    }

    #[test]
    fn lowers_control_flow_and_ops() {
        let src = r#"
fn f(comm: &mut Comm) -> Result<()> {
    let mut reqs = Vec::new();
    if comm.rank() > 0 {
        reqs.push(comm.isend(&[1.0f64], comm.rank() - 1, 1)?);
    }
    for _ in 0..4 {
        comm.barrier()?;
    }
    comm.wait_all_sends(reqs)?;
    Ok(())
}
"#;
        let f = parse_file("x.rs", src);
        let body = &f.fns[0].body;
        // let, if, for, wait, tail Ok(())
        assert!(matches!(body[0], Node::Let { .. }));
        let Node::If { then_, .. } = &body[1] else {
            panic!("expected if, got {:?}", body[1]);
        };
        fn has_pushed_isend(n: &Node) -> bool {
            match n {
                Node::Op(op) => op.method == "isend" && op.pushed_into.as_deref() == Some("reqs"),
                Node::ExprStmt { inner, .. } => inner.iter().any(has_pushed_isend),
                _ => false,
            }
        }
        let pushed = then_.iter().any(has_pushed_isend);
        assert!(
            pushed,
            "isend inside push tagged with its carrier: {then_:?}"
        );
        assert!(matches!(body[2], Node::Loop { .. }));
        assert!(matches!(&body[3], Node::Op(op) if op.method == "wait_all_sends"));
    }

    #[test]
    fn step_bodies_lower_like_blocking_ones() {
        let src = r#"
pub async fn ring_step(mut sc: StepComm<'_, '_>, n: usize) -> Result<u64> {
    let right = (sc.rank() + 1) % sc.size();
    sc.send(&[0u64], right, 3).await?;
    let (v, _) = sc.recv::<u64, _, _>(right, 3).await?;
    merge(&mut sc, n).await?;
    Ok(v[0])
}
async fn merge(sc: &mut StepComm<'_, '_>, n: usize) -> Result<()> {
    sc.barrier().await
}
"#;
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns.len(), 2, "both step fns take a rank handle");
        let fd = &f.fns[0];
        assert_eq!(fd.comm_param, "sc");
        assert!(matches!(&fd.body[1], Node::Op(op) if op.method == "send"));
        let Node::Let { inner, .. } = &fd.body[2] else {
            panic!("expected let, got {:?}", fd.body[2]);
        };
        assert!(matches!(&inner[..], [Node::Op(op)] if op.method == "recv"));
        let Node::ExprStmt { inner, .. } = &fd.body[3] else {
            panic!("expected a call statement, got {:?}", fd.body[3]);
        };
        assert!(
            matches!(&inner[..], [Node::HelperCall { callee, .. }] if callee == "merge"),
            "a borrowed handle passes the comm along: {inner:?}"
        );
    }

    #[test]
    fn assignment_forms() {
        let t = crate::lex::lex("mask <<= 1");
        assert_eq!(assignment_target(&t).map(|(n, _)| n), Some("mask".into()));
        let t = crate::lex::lex("done == other");
        assert_eq!(assignment_target(&t), None);
        let t = crate::lex::lex("checksum += h[0]");
        assert_eq!(
            assignment_target(&t).map(|(n, _)| n),
            Some("checksum".into())
        );
        let t = crate::lex::lex("a <= b");
        assert_eq!(assignment_target(&t), None);
        let t = crate::lex::lex("blocks[i] = v");
        assert_eq!(assignment_target(&t).map(|(n, _)| n), Some("blocks".into()));
    }
}
