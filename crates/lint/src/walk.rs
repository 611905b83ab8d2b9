//! The per-rank walker: abstract interpretation of one lowered rank
//! program under a concrete model `(rank, size)`.
//!
//! Branches whose conditions fold to a concrete boolean (rank/size
//! comparisons, const tags) are taken exactly; data-dependent branches
//! are walked in *union mode* — every arm is visited, grouped under a
//! structural node, and assumed rank-uniform (every rank takes the same
//! arm). Small concrete `for` ranges are unrolled; all other loops are
//! walked once structurally. Helper functions taking `&mut Comm` are
//! inlined (same-file resolution first), closures handed to
//! `with_phase` are expanded, and request values are tracked through
//! let-bindings, `Vec::push`, pattern aliases, and helper arguments.

use crate::lex::{render, Tree};
use crate::parse::{Arm, ClosureDef, CommOp, FnDef, LoopKind, Node, ParsedFile, PhaseBody};
use crate::spec::{lookup, OpClass};
use crate::sym::{self, Env, Val};
use std::collections::HashMap;
use std::rc::Rc;

/// World sizes every rank program is instantiated at. Two catches
/// boundary cases, four a generic interior, five an odd size (parity
/// tricks that only work for even worlds show up here).
pub const MODEL_SIZES: &[i64] = &[2, 4, 5];

const MAX_UNROLL: i64 = 256;
const MAX_DEPTH: usize = 8;
/// Fuel bound on walked nodes, against pathological nesting.
const MAX_STEPS: usize = 2_000_000;

/// Root of a collective, as seen by one rank.
#[derive(Debug, Clone, PartialEq)]
pub enum Root {
    None,
    Concrete(i64),
    /// Unresolvable root — kept as source text (identical text on every
    /// rank means "same unknown", which is aligned).
    Expr(String),
}

/// One node of a rank's collective tree.
#[derive(Debug, Clone, PartialEq)]
pub enum CollNode {
    Coll {
        name: String,
        root: Root,
        op: Option<String>,
        ty: Option<String>,
        line: u32,
    },
    /// A data-dependent branch: every arm's collective subsequence.
    Branch {
        label: String,
        arms: Vec<Vec<CollNode>>,
        line: u32,
    },
    /// A loop we could not unroll.
    Loop {
        label: String,
        body: Vec<CollNode>,
        line: u32,
    },
    /// Opaque control effect (early return, unresolved helper).
    Marker { what: String, line: u32 },
}

impl CollNode {
    /// Short human description for divergence messages.
    pub fn describe(&self) -> String {
        match self {
            CollNode::Coll {
                name, root, op, ty, ..
            } => {
                let mut s = name.clone();
                let mut parts = Vec::new();
                match root {
                    Root::None => {}
                    Root::Concrete(r) => parts.push(format!("root={r}")),
                    Root::Expr(e) => parts.push(format!("root={e}")),
                }
                if let Some(op) = op {
                    parts.push(format!("op={op}"));
                }
                if let Some(ty) = ty {
                    parts.push(format!("elem={ty}"));
                }
                if !parts.is_empty() {
                    s.push('(');
                    s.push_str(&parts.join(", "));
                    s.push(')');
                }
                s
            }
            CollNode::Branch { label, .. } => format!("branch on `{label}`"),
            CollNode::Loop { label, .. } => format!("`{label}` loop"),
            CollNode::Marker { what, .. } => what.clone(),
        }
    }

    pub fn line(&self) -> u32 {
        match self {
            CollNode::Coll { line, .. }
            | CollNode::Branch { line, .. }
            | CollNode::Loop { line, .. }
            | CollNode::Marker { line, .. } => *line,
        }
    }
}

/// Direction of a point-to-point operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum P2pDir {
    Send { sync: bool },
    Recv { probe: bool },
}

/// One point-to-point or blocking-collective event in program order.
#[derive(Debug, Clone)]
pub enum FlatOp {
    P2p {
        dir: P2pDir,
        peer: Val,
        tag: Val,
        ty: Option<String>,
        line: u32,
        /// Emitted on a concretely-taken path (outside union mode).
        concrete: bool,
        /// Part of the definite prefix: concrete AND not preceded by any
        /// data-dependent region that performed communication.
        definite: bool,
    },
    /// A collective: blocks until all ranks arrive.
    CollBlock {
        name: String,
        line: u32,
        definite: bool,
    },
}

/// An isend/irecv whose request never reached a wait on this walk.
#[derive(Debug, Clone, PartialEq)]
pub struct Leak {
    pub line: u32,
    pub kind: &'static str,
}

/// Everything one rank's walk produced.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    pub colls: Vec<CollNode>,
    pub flat: Vec<FlatOp>,
    pub leaks: Vec<Leak>,
}

/// The parsed workspace: all files, for helper resolution.
#[derive(Default)]
pub struct Ctx {
    pub files: Vec<ParsedFile>,
}

impl Ctx {
    /// Resolve a helper by name: same file wins, then a globally unique
    /// match; ambiguous or unknown names stay opaque.
    fn resolve(&self, callee: &str, file_idx: usize) -> Option<(usize, &FnDef)> {
        if let Some(f) = self.files[file_idx].fns.iter().find(|f| f.name == callee) {
            return Some((file_idx, f));
        }
        let mut found = None;
        for (fi, file) in self.files.iter().enumerate() {
            for f in &file.fns {
                if f.name == callee {
                    if found.is_some() {
                        return None; // ambiguous
                    }
                    found = Some((fi, f));
                }
            }
        }
        found
    }
}

#[derive(Debug, Clone, Default)]
struct Binding {
    val: Option<Val>,
    elem_ty: Option<String>,
    carriers: Vec<usize>,
    closure: Option<Rc<ClosureDef>>,
}

struct Frame {
    comm: String,
    file_idx: usize,
    fn_consts: HashMap<String, i64>,
    scope_base: usize,
}

struct ReqInfo {
    line: u32,
    kind: &'static str,
    discharged: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Return,
    Break,
    Continue,
}

pub struct Walker<'a> {
    ctx: &'a Ctx,
    rank: i64,
    size: i64,
    scopes: Vec<HashMap<String, Binding>>,
    frames: Vec<Frame>,
    call_stack: Vec<String>,
    coll_stack: Vec<Vec<CollNode>>,
    flat: Vec<FlatOp>,
    reqs: Vec<ReqInfo>,
    in_unknown: u32,
    prefix_open: bool,
    prefix_dirty: bool,
    steps: usize,
}

impl Env for Walker<'_> {
    fn lookup(&self, name: &str) -> Option<Val> {
        self.find(name).and_then(|b| b.val)
    }
    fn lookup_const(&self, name: &str) -> Option<i64> {
        let frame = self.frames.last().expect("frame");
        frame
            .fn_consts
            .get(name)
            .or_else(|| self.ctx.files[frame.file_idx].consts.get(name))
            .copied()
    }
    fn comm_var(&self) -> &str {
        &self.frames.last().expect("frame").comm
    }
    fn rank(&self) -> i64 {
        self.rank
    }
    fn size(&self) -> i64 {
        self.size
    }
}

/// Walk one function as one rank of a `size`-rank world.
pub fn walk_fn(ctx: &Ctx, file_idx: usize, fndef: &FnDef, rank: i64, size: i64) -> RankTrace {
    let mut scope = HashMap::new();
    for p in &fndef.params {
        if *p != fndef.comm_param {
            scope.insert(p.clone(), Binding::default());
        }
    }
    let mut w = Walker {
        ctx,
        rank,
        size,
        scopes: vec![scope],
        frames: vec![Frame {
            comm: fndef.comm_param.clone(),
            file_idx,
            fn_consts: fndef.consts.clone(),
            scope_base: 0,
        }],
        call_stack: vec![fndef.name.clone()],
        coll_stack: vec![Vec::new()],
        flat: Vec::new(),
        reqs: Vec::new(),
        in_unknown: 0,
        prefix_open: true,
        prefix_dirty: false,
        steps: 0,
    };
    w.walk_block(&fndef.body);
    let leaks = w
        .reqs
        .iter()
        .filter(|r| !r.discharged)
        .map(|r| Leak {
            line: r.line,
            kind: r.kind,
        })
        .collect();
    RankTrace {
        colls: w.coll_stack.pop().unwrap_or_default(),
        flat: w.flat,
        leaks,
    }
}

impl<'a> Walker<'a> {
    fn find(&self, name: &str) -> Option<&Binding> {
        let base = self.frames.last().expect("frame").scope_base;
        for s in self.scopes[base..].iter().rev() {
            if let Some(b) = s.get(name) {
                return Some(b);
            }
        }
        None
    }

    fn find_mut(&mut self, name: &str) -> Option<&mut Binding> {
        let base = self.frames.last().expect("frame").scope_base;
        for s in self.scopes[base..].iter_mut().rev() {
            if s.contains_key(name) {
                return s.get_mut(name);
            }
        }
        None
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), b);
    }

    /// Update an existing binding in place, else create it in the
    /// innermost scope.
    fn rebind(&mut self, name: &str, b: Binding) {
        if let Some(slot) = self.find_mut(name) {
            *slot = b;
        } else {
            self.bind(name, b);
        }
    }

    fn coll_push(&mut self, node: CollNode) {
        self.coll_stack.last_mut().expect("coll frame").push(node);
    }

    fn marker(&mut self, what: String, line: u32) {
        self.coll_push(CollNode::Marker { what, line });
    }

    fn note_comm_effect(&mut self) {
        if self.in_unknown > 0 {
            self.prefix_dirty = true;
        }
    }

    fn maybe_close_prefix(&mut self) {
        if self.in_unknown == 0 && self.prefix_dirty {
            self.prefix_open = false;
            self.prefix_dirty = false;
        }
    }

    fn walk_block(&mut self, nodes: &[Node]) -> Flow {
        for n in nodes {
            self.steps += 1;
            if self.steps > MAX_STEPS {
                return Flow::Return;
            }
            let flow = self.walk_node(n);
            if flow != Flow::Normal {
                return flow;
            }
        }
        Flow::Normal
    }

    fn walk_node(&mut self, node: &Node) -> Flow {
        match node {
            Node::Op(op) => {
                self.emit_op(op);
                Flow::Normal
            }
            Node::Let {
                pats,
                ty_elem,
                init,
                inner,
                ..
            } => self.do_let(pats, ty_elem.as_deref(), init, inner),
            Node::LetClosure { name, def } => {
                self.bind(
                    name,
                    Binding {
                        closure: Some(Rc::clone(def)),
                        ..Binding::default()
                    },
                );
                Flow::Normal
            }
            Node::Assign { name, rhs, inner } => {
                let mark = self.reqs.len();
                let flow = self.walk_block(inner);
                let created: Vec<usize> = (mark..self.reqs.len()).collect();
                let val = sym::eval(rhs, self);
                let elem_ty = self.infer_elem(rhs);
                let prev = self.find(name);
                let keep_ty = prev.and_then(|b| b.elem_ty.clone());
                let keep_closure = prev.and_then(|b| b.closure.clone());
                self.rebind(
                    name,
                    Binding {
                        val: Some(val),
                        elem_ty: elem_ty.or(keep_ty),
                        carriers: created,
                        closure: keep_closure,
                    },
                );
                flow
            }
            Node::If {
                cond,
                cond_inner,
                pats,
                then_,
                else_,
                line,
            } => self.do_if(cond, cond_inner, pats, then_, else_.as_deref(), *line),
            Node::Match {
                scrutinee,
                inner,
                arms,
                line,
            } => self.do_match(scrutinee, inner, arms, *line),
            Node::Loop {
                kind,
                body,
                assigned,
                line,
            } => self.do_loop(kind, body, assigned, *line),
            Node::HelperCall { callee, args, line } => self.do_helper(callee, args, *line),
            Node::WithPhase { body, .. } => {
                let def = match body {
                    PhaseBody::Inline(def) => Some(Rc::clone(def)),
                    PhaseBody::Named(name) => self.find(name).and_then(|b| b.closure.clone()),
                };
                if let Some(def) = def {
                    self.walk_closure(&def);
                }
                Flow::Normal
            }
            Node::Return { inner, expr, line } => {
                self.walk_block(inner);
                self.discharge_in(expr);
                if self.in_unknown > 0 {
                    self.marker("early return".into(), *line);
                    Flow::Normal
                } else {
                    Flow::Return
                }
            }
            Node::Break { .. } => {
                if self.in_unknown > 0 {
                    Flow::Normal
                } else {
                    Flow::Break
                }
            }
            Node::Continue { .. } => {
                if self.in_unknown > 0 {
                    Flow::Normal
                } else {
                    Flow::Continue
                }
            }
            Node::ExprStmt { inner, .. } => self.walk_block(inner),
            Node::Block(body) => {
                self.scopes.push(HashMap::new());
                let flow = self.walk_block(body);
                self.scopes.pop();
                flow
            }
        }
    }

    fn do_let(
        &mut self,
        pats: &[String],
        ty_ann: Option<&str>,
        init: &[Tree],
        inner: &[Node],
    ) -> Flow {
        let mark = self.reqs.len();
        let flow = self.walk_block(inner);
        let created: Vec<usize> = (mark..self.reqs.len()).collect();
        let val = sym::eval(init, self);
        // Element type: a recv-ish op in the initializer is the most
        // reliable source, then the annotation, then the initializer's
        // shape.
        let elem_ty = recv_ty_in(inner)
            .or_else(|| ty_ann.map(str::to_string))
            .or_else(|| self.infer_elem(init));
        for (i, p) in pats.iter().enumerate() {
            self.bind(
                p,
                Binding {
                    val: Some(if pats.len() == 1 { val } else { Val::Unknown }),
                    elem_ty: if i == 0 { elem_ty.clone() } else { None },
                    carriers: created.clone(),
                    closure: None,
                },
            );
        }
        flow
    }

    fn do_if(
        &mut self,
        cond: &[Tree],
        cond_inner: &[Node],
        pats: &[String],
        then_: &[Node],
        else_: Option<&[Node]>,
        line: u32,
    ) -> Flow {
        self.walk_block(cond_inner);
        if pats.is_empty() {
            match sym::eval(cond, self) {
                Val::Bool(true) => {
                    self.scopes.push(HashMap::new());
                    let flow = self.walk_block(then_);
                    self.scopes.pop();
                    return flow;
                }
                Val::Bool(false) => {
                    if let Some(else_) = else_ {
                        self.scopes.push(HashMap::new());
                        let flow = self.walk_block(else_);
                        self.scopes.pop();
                        return flow;
                    }
                    return Flow::Normal;
                }
                _ => {}
            }
        }
        // Union mode: walk every arm under a structural branch node.
        let carrier_ids = self.carriers_in(cond);
        self.in_unknown += 1;
        self.coll_stack.push(Vec::new());
        self.scopes.push(HashMap::new());
        for p in pats {
            self.bind(
                p,
                Binding {
                    val: Some(Val::Unknown),
                    elem_ty: None,
                    carriers: carrier_ids.clone(),
                    closure: None,
                },
            );
        }
        self.walk_block(then_);
        self.scopes.pop();
        let arm_then = self.coll_stack.pop().expect("arm");
        self.coll_stack.push(Vec::new());
        if let Some(else_) = else_ {
            self.scopes.push(HashMap::new());
            self.walk_block(else_);
            self.scopes.pop();
        }
        let arm_else = self.coll_stack.pop().expect("arm");
        self.in_unknown -= 1;
        self.maybe_close_prefix();
        if !(arm_then.is_empty() && arm_else.is_empty()) {
            let label = if pats.is_empty() {
                format!("if {}", render(cond))
            } else {
                format!("if let {}", render(cond))
            };
            self.coll_push(CollNode::Branch {
                label,
                arms: vec![arm_then, arm_else],
                line,
            });
        }
        Flow::Normal
    }

    fn do_match(&mut self, scrutinee: &[Tree], inner: &[Node], arms: &[Arm], line: u32) -> Flow {
        self.walk_block(inner);
        // Concrete literal dispatch.
        if let Val::Int(v) = sym::eval(scrutinee, self) {
            let chosen = arms
                .iter()
                .find(|a| a.lit == Some(v))
                .or_else(|| arms.iter().find(|a| a.wild));
            if let Some(arm) = chosen {
                self.scopes.push(HashMap::new());
                let flow = self.walk_block(&arm.body);
                self.scopes.pop();
                return flow;
            }
        }
        let carrier_ids = self.carriers_in(scrutinee);
        self.in_unknown += 1;
        let mut arm_colls = Vec::with_capacity(arms.len());
        for arm in arms {
            self.coll_stack.push(Vec::new());
            self.scopes.push(HashMap::new());
            for p in &arm.pats {
                self.bind(
                    p,
                    Binding {
                        val: Some(Val::Unknown),
                        elem_ty: None,
                        carriers: carrier_ids.clone(),
                        closure: None,
                    },
                );
            }
            self.walk_block(&arm.body);
            self.scopes.pop();
            arm_colls.push(self.coll_stack.pop().expect("arm"));
        }
        self.in_unknown -= 1;
        self.maybe_close_prefix();
        if arm_colls.iter().any(|a| !a.is_empty()) {
            self.coll_push(CollNode::Branch {
                label: format!("match {}", render(scrutinee)),
                arms: arm_colls,
                line,
            });
        }
        Flow::Normal
    }

    fn do_loop(&mut self, kind: &LoopKind, body: &[Node], assigned: &[String], line: u32) -> Flow {
        // Concrete range for-loop: unroll.
        if let LoopKind::For { pats, iter } = kind {
            if let Some((a_toks, b_toks, incl)) = sym::split_range(iter) {
                let a = sym::eval(a_toks, self);
                let b = sym::eval(b_toks, self);
                if let (Val::Int(a), Val::Int(b)) = (a, b) {
                    let end = if incl { b + 1 } else { b };
                    if end >= a && end - a <= MAX_UNROLL {
                        for v in a..end {
                            self.scopes.push(HashMap::new());
                            for (i, p) in pats.iter().enumerate() {
                                self.bind(
                                    p,
                                    Binding {
                                        val: Some(if i == 0 && pats.len() == 1 {
                                            Val::Int(v)
                                        } else {
                                            Val::Unknown
                                        }),
                                        ..Binding::default()
                                    },
                                );
                            }
                            let flow = self.walk_block(body);
                            self.scopes.pop();
                            match flow {
                                Flow::Break => return Flow::Normal,
                                Flow::Return => return Flow::Return,
                                Flow::Continue | Flow::Normal => {}
                            }
                        }
                        return Flow::Normal;
                    }
                }
            }
        }
        // Structural loop: loop-carried variables become unknown, the
        // body is walked once in union mode.
        for name in assigned {
            if let Some(b) = self.find_mut(name) {
                b.val = Some(Val::Unknown);
            }
        }
        self.in_unknown += 1;
        self.coll_stack.push(Vec::new());
        self.scopes.push(HashMap::new());
        if let LoopKind::For { pats, iter } = kind {
            let (carriers, elem_ty) = self.iter_source(iter);
            for (i, p) in pats.iter().enumerate() {
                self.bind(
                    p,
                    Binding {
                        val: Some(Val::Unknown),
                        elem_ty: if i + 1 == pats.len() {
                            elem_ty.clone()
                        } else {
                            None
                        },
                        carriers: carriers.clone(),
                        closure: None,
                    },
                );
            }
        }
        if let LoopKind::WhileLet { scrutinee } = kind {
            // `while let Some(x) = …` — pattern idents were folded into
            // the scrutinee slice by the parser; nothing precise to
            // bind, but carriers still flow.
            let _ = scrutinee;
        }
        self.walk_block(body);
        self.scopes.pop();
        let colls = self.coll_stack.pop().expect("loop colls");
        self.in_unknown -= 1;
        self.maybe_close_prefix();
        if !colls.is_empty() {
            let label = match kind {
                LoopKind::For { iter, .. } => format!("for … in {}", render(iter)),
                LoopKind::While { cond } => format!("while {}", render(cond)),
                LoopKind::WhileLet { scrutinee } => {
                    format!("while let {}", render(scrutinee))
                }
                LoopKind::Loop => "loop".to_string(),
            };
            self.coll_push(CollNode::Loop {
                label,
                body: colls,
                line,
            });
        }
        Flow::Normal
    }

    /// Carriers and element type flowing out of a for-loop's iterated
    /// expression (`for req in pending`, `for x in data.iter()`).
    fn iter_source(&self, iter: &[Tree]) -> (Vec<usize>, Option<String>) {
        let carriers = self.carriers_in(iter);
        let elem_ty = iter
            .first()
            .and_then(|t| t.as_ident())
            .and_then(|n| self.find(n))
            .and_then(|b| b.elem_ty.clone());
        (carriers, elem_ty)
    }

    fn do_helper(&mut self, callee: &str, args: &[Vec<Tree>], line: u32) -> Flow {
        // Requests handed to a helper count as consumed.
        for a in args {
            self.discharge_in(a);
        }
        let frame_file = self.frames.last().expect("frame").file_idx;
        let resolved = self
            .ctx
            .resolve(callee, frame_file)
            .map(|(fi, f)| (fi, f.clone()));
        let too_deep =
            self.frames.len() >= MAX_DEPTH || self.call_stack.iter().any(|c| c == callee);
        let Some((file_idx, fndef)) = resolved.filter(|_| !too_deep) else {
            self.marker(format!("call {callee}(…)"), line);
            self.prefix_dirty = true;
            self.maybe_close_prefix();
            if self.in_unknown == 0 {
                self.prefix_open = false;
            }
            return Flow::Normal;
        };
        // Bind callee parameters from caller-context argument values.
        let mut scope = HashMap::new();
        for (p, a) in fndef.params.iter().zip(args.iter()) {
            if *p == fndef.comm_param {
                continue;
            }
            let val = sym::eval(a, self);
            let elem_ty = self.infer_elem(a);
            let carriers = self.carriers_in(a);
            scope.insert(
                p.clone(),
                Binding {
                    val: Some(val),
                    elem_ty,
                    carriers,
                    closure: None,
                },
            );
        }
        self.scopes.push(scope);
        self.frames.push(Frame {
            comm: fndef.comm_param.clone(),
            file_idx,
            fn_consts: fndef.consts.clone(),
            scope_base: self.scopes.len() - 1,
        });
        self.call_stack.push(callee.to_string());
        self.walk_block(&fndef.body);
        self.call_stack.pop();
        self.frames.pop();
        self.scopes.pop();
        Flow::Normal
    }

    fn walk_closure(&mut self, def: &ClosureDef) {
        // The closure sees the enclosing scope (captures) but speaks its
        // own comm parameter name.
        let parent = self.frames.last().expect("frame");
        let frame = Frame {
            comm: def.comm.clone(),
            file_idx: parent.file_idx,
            fn_consts: parent.fn_consts.clone(),
            scope_base: parent.scope_base,
        };
        self.scopes.push(HashMap::new());
        self.frames.push(frame);
        self.walk_block(&def.body);
        self.frames.pop();
        self.scopes.pop();
    }

    /// Request ids reachable from any identifier in a token slice.
    fn carriers_in(&self, toks: &[Tree]) -> Vec<usize> {
        let mut ids = Vec::new();
        let mut names = Vec::new();
        idents_in(toks, &mut names);
        for n in names {
            if let Some(b) = self.find(&n) {
                for id in &b.carriers {
                    if !ids.contains(id) {
                        ids.push(*id);
                    }
                }
            }
        }
        ids
    }

    fn discharge_in(&mut self, toks: &[Tree]) {
        for id in self.carriers_in(toks) {
            self.reqs[id].discharged = true;
        }
    }

    fn emit_op(&mut self, op: &CommOp) {
        let Some(spec) = lookup(&op.method) else {
            return;
        };
        self.note_comm_effect();
        let concrete = self.in_unknown == 0;
        let definite = concrete && self.prefix_open;
        let arg = |i: Option<usize>| -> &[Tree] {
            i.and_then(|i| op.args.get(i)).map_or(&[][..], |a| &a[..])
        };
        match spec.class {
            OpClass::Send | OpClass::Ssend | OpClass::Isend => {
                let peer = sym::eval_selector(arg(spec.peer), self);
                let tag = sym::eval_selector(arg(spec.tag), self);
                let ty = op
                    .tyargs
                    .first()
                    .cloned()
                    .or_else(|| self.infer_elem(arg(spec.data)));
                self.flat.push(FlatOp::P2p {
                    dir: P2pDir::Send {
                        sync: spec.class == OpClass::Ssend,
                    },
                    peer,
                    tag,
                    ty,
                    line: op.line,
                    concrete,
                    definite,
                });
                if spec.class == OpClass::Isend {
                    self.new_request("isend", op);
                }
            }
            OpClass::Recv | OpClass::Irecv | OpClass::Probe => {
                let peer = sym::eval_selector(arg(spec.peer), self);
                let tag = sym::eval_selector(arg(spec.tag), self);
                let ty = op
                    .tyargs
                    .first()
                    .cloned()
                    .or_else(|| self.infer_elem(arg(spec.data)));
                self.flat.push(FlatOp::P2p {
                    dir: P2pDir::Recv {
                        probe: spec.class == OpClass::Probe,
                    },
                    peer,
                    tag,
                    ty,
                    line: op.line,
                    concrete,
                    definite,
                });
                if spec.class == OpClass::Irecv {
                    self.new_request("irecv", op);
                }
            }
            OpClass::Sendrecv => {
                let sty = op
                    .tyargs
                    .first()
                    .cloned()
                    .or_else(|| self.infer_elem(arg(Some(0))));
                let rty = op.tyargs.get(1).cloned();
                let speer = sym::eval_selector(arg(Some(1)), self);
                let stag = sym::eval_selector(arg(Some(2)), self);
                let rpeer = sym::eval_selector(arg(Some(3)), self);
                let rtag = sym::eval_selector(arg(Some(4)), self);
                self.flat.push(FlatOp::P2p {
                    dir: P2pDir::Send { sync: false },
                    peer: speer,
                    tag: stag,
                    ty: sty,
                    line: op.line,
                    concrete,
                    definite,
                });
                self.flat.push(FlatOp::P2p {
                    dir: P2pDir::Recv { probe: false },
                    peer: rpeer,
                    tag: rtag,
                    ty: rty,
                    line: op.line,
                    concrete,
                    definite,
                });
            }
            OpClass::Wait => {
                for a in &op.args {
                    self.discharge_in(a);
                }
            }
            OpClass::Collective => {
                let root = match spec.root {
                    None => Root::None,
                    Some(i) => match sym::eval(arg(Some(i)), self) {
                        Val::Int(v) => Root::Concrete(v),
                        _ => Root::Expr(render(arg(Some(i)))),
                    },
                };
                let cop = spec.op.map(|i| render(arg(Some(i))));
                let ty = spec.data.and_then(|i| self.infer_elem(arg(Some(i))));
                self.coll_push(CollNode::Coll {
                    name: spec.name.to_string(),
                    root,
                    op: cop,
                    ty,
                    line: op.line,
                });
                self.flat.push(FlatOp::CollBlock {
                    name: spec.name.to_string(),
                    line: op.line,
                    definite,
                });
            }
        }
    }

    fn new_request(&mut self, kind: &'static str, op: &CommOp) {
        let id = self.reqs.len();
        self.reqs.push(ReqInfo {
            line: op.line,
            kind,
            discharged: false,
        });
        if let Some(name) = &op.pushed_into {
            if let Some(b) = self.find_mut(name) {
                b.carriers.push(id);
            } else {
                let name = name.clone();
                self.bind(
                    &name,
                    Binding {
                        carriers: vec![id],
                        ..Binding::default()
                    },
                );
            }
        }
    }

    /// Infer the element type of a payload expression.
    fn infer_elem(&self, toks: &[Tree]) -> Option<String> {
        infer_elem_with(toks, &|name| {
            self.find(name).and_then(|b| b.elem_ty.clone())
        })
    }
}

fn idents_in(toks: &[Tree], out: &mut Vec<String>) {
    for t in toks {
        if let Some(id) = t.as_ident() {
            out.push(id.to_string());
        }
        if let Tree::Group { trees, .. } = t {
            idents_in(trees, out);
        }
    }
}

/// Element type carried by a recv-ish op nested in a let initializer.
fn recv_ty_in(nodes: &[Node]) -> Option<String> {
    let mut found = None;
    for n in nodes {
        match n {
            Node::Op(op) => {
                if let Some(spec) = lookup(&op.method) {
                    if matches!(
                        spec.class,
                        OpClass::Recv | OpClass::Irecv | OpClass::Sendrecv
                    ) {
                        let ty = if spec.class == OpClass::Sendrecv {
                            op.tyargs.get(1).cloned()
                        } else {
                            op.tyargs.first().cloned()
                        };
                        if ty.is_some() {
                            found = ty;
                        }
                    }
                }
            }
            Node::ExprStmt { inner, .. } => {
                if let Some(ty) = recv_ty_in(inner) {
                    found = Some(ty);
                }
            }
            Node::If { then_, else_, .. } => {
                if let Some(ty) = recv_ty_in(then_) {
                    found = Some(ty);
                }
                if let Some(e) = else_ {
                    if let Some(ty) = recv_ty_in(e) {
                        found = Some(ty);
                    }
                }
            }
            Node::Match { arms, .. } => {
                for a in arms {
                    if let Some(ty) = recv_ty_in(&a.body) {
                        found = Some(ty);
                    }
                }
            }
            _ => {}
        }
    }
    found
}

/// Shared element-type inference over a payload token slice; `lookup`
/// resolves an identifier to its tracked element type.
fn infer_elem_with(toks: &[Tree], lookup: &dyn Fn(&str) -> Option<String>) -> Option<String> {
    use crate::lex::Delim;
    let mut toks = toks;
    // Strip leading `&`, `&mut`.
    while let Some(first) = toks.first() {
        if first.is_punct('&') || first.is_ident("mut") {
            toks = &toks[1..];
        } else {
            break;
        }
    }
    if toks.is_empty() {
        return None;
    }
    // `Some(inner)` unwraps; `None` is untyped.
    if toks[0].is_ident("None") {
        return None;
    }
    if toks[0].is_ident("Some") {
        if let Some(inner) = toks.get(1).and_then(|t| t.as_group(Delim::Paren)) {
            return infer_elem_with(inner, lookup);
        }
    }
    // `vec![…]` macro.
    if toks[0].is_ident("vec") && toks.get(1).is_some_and(|t| t.is_punct('!')) {
        if let Some(inner) = toks.get(2).and_then(|t| t.as_group(Delim::Bracket)) {
            return elem_of_literal_list(inner, lookup);
        }
    }
    // Array literal `[…]`.
    if let Tree::Group {
        delim: Delim::Bracket,
        trees,
        ..
    } = &toks[0]
    {
        if toks.len() == 1 {
            return elem_of_literal_list(trees, lookup);
        }
    }
    // Parenthesised expression.
    if let Tree::Group {
        delim: Delim::Paren,
        trees,
        ..
    } = &toks[0]
    {
        if toks.len() == 1 {
            return infer_elem_with(trees, lookup);
        }
    }
    // Identifier, optionally followed by slicing/index or a
    // type-preserving method.
    if let Some(base) = toks[0].as_ident() {
        if toks.len() == 1 {
            return lookup(base);
        }
        if toks.get(1).is_some_and(|t| {
            matches!(
                t,
                Tree::Group {
                    delim: Delim::Bracket,
                    ..
                }
            )
        }) {
            return lookup(base);
        }
        if toks.get(1).is_some_and(|t| t.is_punct('.')) {
            const PRESERVING: &[&str] = &[
                "as_deref",
                "as_slice",
                "as_ref",
                "as_mut_slice",
                "as_mut",
                "clone",
                "to_vec",
                "iter",
                "drain",
            ];
            if toks
                .get(2)
                .and_then(|t| t.as_ident())
                .is_some_and(|m| PRESERVING.contains(&m))
            {
                return lookup(base);
            }
            return None;
        }
    }
    // A cast or suffixed literal at top level (`x as u64`, `0u8`).
    literal_elem(toks)
}

/// Element type from a comma/semicolon-separated literal list.
fn elem_of_literal_list(trees: &[Tree], lookup: &dyn Fn(&str) -> Option<String>) -> Option<String> {
    // `[expr; n]` or `[a, b, …]` — examine each element expression.
    let parts: Vec<&[Tree]> = {
        let semis = crate::parse::split_top(trees, ';');
        if semis.len() > 1 {
            vec![semis[0]]
        } else {
            crate::parse::split_top(trees, ',')
        }
    };
    for part in parts {
        if let Some(ty) = literal_elem(part) {
            return Some(ty);
        }
        if part.len() == 1 {
            if let Some(id) = part[0].as_ident() {
                if let Some(ty) = lookup(id) {
                    return Some(ty);
                }
            }
        }
    }
    None
}

/// Type evidence inside one expression: an `as <prim>` cast or a
/// suffixed numeric literal; a bare float defaults to `f64`.
fn literal_elem(toks: &[Tree]) -> Option<String> {
    use crate::lex::{Tok, Token};
    let mut saw_bare_float = false;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("as") {
            if let Some(ty) = toks.get(i + 1).and_then(|t| t.as_ident()) {
                if crate::parse::PRIM_TYPES.contains(&ty) {
                    return Some(ty.to_string());
                }
            }
        }
        match t {
            Tree::Leaf(Token {
                tok: Tok::Int(_, raw),
                ..
            }) => {
                for p in crate::parse::PRIM_TYPES {
                    if raw.len() > p.len() && raw.ends_with(p) {
                        return Some((*p).to_string());
                    }
                }
            }
            Tree::Leaf(Token {
                tok: Tok::Float(raw),
                ..
            }) => {
                if raw.ends_with("f32") {
                    return Some("f32".into());
                }
                if raw.ends_with("f64") {
                    return Some("f64".into());
                }
                saw_bare_float = true;
            }
            _ => {}
        }
        i += 1;
    }
    if saw_bare_float {
        Some("f64".into())
    } else {
        None
    }
}
