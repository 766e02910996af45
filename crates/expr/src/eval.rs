//! Evaluation of expression DAGs over `f64` and over intervals.
//!
//! Three evaluators, by use case:
//!
//! * [`Expr::eval`] — memoized recursive `f64` evaluation; domain violations
//!   (`ln` of a negative, `0/0`, …) produce NaN, mirroring what a C
//!   implementation of the functional would compute.
//! * [`Tape`] — a flattened instruction tape for high-throughput repeated
//!   `f64` evaluation (the Pederson–Burke grid sweep evaluates the same
//!   functional at 10⁴–10¹⁰ points; pointer-chasing the DAG each time would
//!   dominate the run time).
//! * [`IntervalEnv`] — a reusable forward interval evaluator exposing
//!   per-node enclosures; the δ-complete solver's HC4 contractor runs its
//!   backward pass over the same storage.

use crate::node::{Expr, Kind, NodeId};
use std::collections::HashMap;
use xcv_interval::Interval;

/// Errors surfaced by the evaluators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable index exceeded the supplied environment.
    UnboundVar(u32),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnboundVar(v) => write!(f, "unbound variable x{v}"),
        }
    }
}
impl std::error::Error for EvalError {}

impl Expr {
    /// Memoized `f64` evaluation. Variables are read from `env` by index.
    ///
    /// Out-of-domain operations yield NaN (and NaN propagates), matching the
    /// behaviour of a straight C translation of the functional.
    pub fn eval(&self, env: &[f64]) -> Result<f64, EvalError> {
        let mut memo: HashMap<NodeId, f64> = HashMap::new();
        self.eval_memo(env, &mut memo)
    }

    fn eval_memo(&self, env: &[f64], memo: &mut HashMap<NodeId, f64>) -> Result<f64, EvalError> {
        if let Some(&v) = memo.get(&self.id()) {
            return Ok(v);
        }
        let v = match self.kind() {
            Kind::Const(c) => *c,
            Kind::Var(i) => *env.get(*i as usize).ok_or(EvalError::UnboundVar(*i))?,
            Kind::Add(a, b) => a.eval_memo(env, memo)? + b.eval_memo(env, memo)?,
            Kind::Mul(a, b) => a.eval_memo(env, memo)? * b.eval_memo(env, memo)?,
            Kind::Div(a, b) => a.eval_memo(env, memo)? / b.eval_memo(env, memo)?,
            Kind::Neg(a) => -a.eval_memo(env, memo)?,
            Kind::PowI(a, n) => a.eval_memo(env, memo)?.powi(*n),
            Kind::Pow(a, b) => {
                let base = a.eval_memo(env, memo)?;
                let e = b.eval_memo(env, memo)?;
                if base < 0.0 {
                    f64::NAN
                } else {
                    base.powf(e)
                }
            }
            Kind::Exp(a) => a.eval_memo(env, memo)?.exp(),
            Kind::Ln(a) => {
                let x = a.eval_memo(env, memo)?;
                if x <= 0.0 {
                    f64::NAN
                } else {
                    x.ln()
                }
            }
            Kind::Sqrt(a) => a.eval_memo(env, memo)?.sqrt(),
            Kind::Cbrt(a) => a.eval_memo(env, memo)?.cbrt(),
            Kind::Atan(a) => a.eval_memo(env, memo)?.atan(),
            Kind::Sin(a) => a.eval_memo(env, memo)?.sin(),
            Kind::Cos(a) => a.eval_memo(env, memo)?.cos(),
            Kind::Tanh(a) => a.eval_memo(env, memo)?.tanh(),
            Kind::Abs(a) => a.eval_memo(env, memo)?.abs(),
            Kind::Min(a, b) => a.eval_memo(env, memo)?.min(b.eval_memo(env, memo)?),
            Kind::Max(a, b) => a.eval_memo(env, memo)?.max(b.eval_memo(env, memo)?),
            Kind::LambertW(a) => xcv_interval::lambert_w0_f64(a.eval_memo(env, memo)?),
            Kind::Ite {
                cond,
                then,
                otherwise,
            } => {
                let c = cond.eval_memo(env, memo)?;
                if c.is_nan() {
                    f64::NAN
                } else if c >= 0.0 {
                    then.eval_memo(env, memo)?
                } else {
                    otherwise.eval_memo(env, memo)?
                }
            }
        };
        memo.insert(self.id(), v);
        Ok(v)
    }

    /// Forward interval evaluation (one-shot). For repeated evaluation over
    /// many boxes, use [`IntervalEnv`].
    pub fn eval_interval(&self, domains: &[Interval]) -> Interval {
        let mut env = IntervalEnv::new(std::slice::from_ref(self));
        env.forward(domains);
        env.value(self)
    }
}

// ---------------------------------------------------------------------------
// Instruction tape
// ---------------------------------------------------------------------------

/// One flattened instruction; operands are slot indices into the tape's
/// register file. Shared by the f64 [`Tape`] and the interval
/// [`crate::IntervalTape`] — one lowering ([`lower_dag`]), two interpreters.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instr {
    Const(f64),
    /// A constant-only subtree folded at compile time by
    /// [`fold_constants_interval`]: the stored enclosure is exactly what the
    /// forward pass would have computed for the subtree, kept as an interval
    /// (not a point) so outward rounding survives the fold. Never emitted
    /// into f64 tapes.
    IConst(Interval),
    Var(u32),
    Add(u32, u32),
    Mul(u32, u32),
    Div(u32, u32),
    Neg(u32),
    PowI(u32, i32),
    Pow(u32, u32),
    Exp(u32),
    Ln(u32),
    Sqrt(u32),
    Cbrt(u32),
    Atan(u32),
    Sin(u32),
    Cos(u32),
    Tanh(u32),
    Abs(u32),
    Min(u32, u32),
    Max(u32, u32),
    LambertW(u32),
    Ite(u32, u32, u32),
}

/// A compiled, allocation-free evaluator for one expression.
///
/// ```
/// use xcv_expr::{var, Tape};
/// let e = var(0) * var(0) + 1.0;
/// let tape = Tape::compile(&e);
/// let mut scratch = tape.scratch();
/// assert_eq!(tape.eval(&[3.0], &mut scratch), 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct Tape {
    code: Vec<Instr>,
}

/// Per-slot transitive variable-dependency bitsets of a lowered program:
/// bit `v` set when the slot depends on variable `v` (variables `>= 64`
/// saturate to all-ones — sound, only ever over-recomputing). Computed for
/// [`crate::IntervalTape`]'s dirty-slot passes.
pub(crate) fn compute_deps(code: &[Instr]) -> Vec<u64> {
    let mut deps = vec![0u64; code.len()];
    for i in 0..code.len() {
        deps[i] = match code[i] {
            Instr::Const(_) | Instr::IConst(_) => 0,
            Instr::Var(v) if v < 64 => 1 << v,
            Instr::Var(_) => u64::MAX,
            op => {
                let mut m = 0u64;
                for_each_operand(op, |a| m |= deps[a as usize]);
                m
            }
        };
    }
    deps
}

/// A DAG (one or more roots, shared nodes lowered once) flattened into a
/// topologically ordered instruction list, with the bookkeeping both tape
/// interpreters need.
pub(crate) struct Lowered {
    pub(crate) code: Vec<Instr>,
    /// Slot of each root, in input order.
    pub(crate) roots: Vec<u32>,
    /// `(slot, variable id)` for every variable node, in program order.
    pub(crate) var_slots: Vec<(u32, u32)>,
}

/// The single Kind-to-instruction lowering behind [`Tape`] and
/// [`crate::IntervalTape`]: merged topological order across `roots`
/// (children before parents; nodes shared between roots appear once).
pub(crate) fn lower_dag(roots: &[Expr]) -> Lowered {
    let mut order: Vec<Expr> = Vec::new();
    let mut slot: HashMap<NodeId, u32> = HashMap::new();
    for r in roots {
        for e in r.topo_order() {
            if let std::collections::hash_map::Entry::Vacant(v) = slot.entry(e.id()) {
                v.insert(order.len() as u32);
                order.push(e);
            }
        }
    }
    let s = |x: &Expr| slot[&x.id()];
    let mut code = Vec::with_capacity(order.len());
    let mut var_slots = Vec::new();
    for (i, e) in order.iter().enumerate() {
        let instr = match e.kind() {
            Kind::Const(c) => Instr::Const(*c),
            Kind::Var(v) => {
                var_slots.push((i as u32, *v));
                Instr::Var(*v)
            }
            Kind::Add(a, b) => Instr::Add(s(a), s(b)),
            Kind::Mul(a, b) => Instr::Mul(s(a), s(b)),
            Kind::Div(a, b) => Instr::Div(s(a), s(b)),
            Kind::Neg(a) => Instr::Neg(s(a)),
            Kind::PowI(a, n) => Instr::PowI(s(a), *n),
            Kind::Pow(a, b) => Instr::Pow(s(a), s(b)),
            Kind::Exp(a) => Instr::Exp(s(a)),
            Kind::Ln(a) => Instr::Ln(s(a)),
            Kind::Sqrt(a) => Instr::Sqrt(s(a)),
            Kind::Cbrt(a) => Instr::Cbrt(s(a)),
            Kind::Atan(a) => Instr::Atan(s(a)),
            Kind::Sin(a) => Instr::Sin(s(a)),
            Kind::Cos(a) => Instr::Cos(s(a)),
            Kind::Tanh(a) => Instr::Tanh(s(a)),
            Kind::Abs(a) => Instr::Abs(s(a)),
            Kind::Min(a, b) => Instr::Min(s(a), s(b)),
            Kind::Max(a, b) => Instr::Max(s(a), s(b)),
            Kind::LambertW(a) => Instr::LambertW(s(a)),
            Kind::Ite {
                cond,
                then,
                otherwise,
            } => Instr::Ite(s(cond), s(then), s(otherwise)),
        };
        code.push(instr);
    }
    Lowered {
        code,
        roots: roots.iter().map(s).collect(),
        var_slots,
    }
}

/// Rebuild one instruction with every operand slot passed through `f` —
/// the single enumeration of `Instr`'s operand shape, behind both operand
/// visiting ([`for_each_operand`]) and slot remapping ([`compact`]).
fn map_operands(instr: Instr, mut f: impl FnMut(u32) -> u32) -> Instr {
    match instr {
        Instr::Const(_) | Instr::IConst(_) | Instr::Var(_) => instr,
        Instr::Neg(a) => Instr::Neg(f(a)),
        Instr::PowI(a, n) => Instr::PowI(f(a), n),
        Instr::Exp(a) => Instr::Exp(f(a)),
        Instr::Ln(a) => Instr::Ln(f(a)),
        Instr::Sqrt(a) => Instr::Sqrt(f(a)),
        Instr::Cbrt(a) => Instr::Cbrt(f(a)),
        Instr::Atan(a) => Instr::Atan(f(a)),
        Instr::Sin(a) => Instr::Sin(f(a)),
        Instr::Cos(a) => Instr::Cos(f(a)),
        Instr::Tanh(a) => Instr::Tanh(f(a)),
        Instr::Abs(a) => Instr::Abs(f(a)),
        Instr::LambertW(a) => Instr::LambertW(f(a)),
        Instr::Add(a, b) => Instr::Add(f(a), f(b)),
        Instr::Mul(a, b) => Instr::Mul(f(a), f(b)),
        Instr::Div(a, b) => Instr::Div(f(a), f(b)),
        Instr::Pow(a, b) => Instr::Pow(f(a), f(b)),
        Instr::Min(a, b) => Instr::Min(f(a), f(b)),
        Instr::Max(a, b) => Instr::Max(f(a), f(b)),
        Instr::Ite(c, t, e) => {
            let c = f(c);
            let t = f(t);
            Instr::Ite(c, t, f(e))
        }
    }
}

/// Visit the operand slots of one instruction.
pub(crate) fn for_each_operand(instr: Instr, mut f: impl FnMut(u32)) {
    map_operands(instr, |a| {
        f(a);
        a
    });
}

/// Fold constant-only subtrees of an f64 program: any instruction whose
/// operands are all literal constants is replaced by the constant it computes
/// — with exactly the f64 semantics of [`Tape::run`], so folding is
/// result-identical by construction (NaN included). The smart constructors
/// ([`crate::build`]) already fold binary arithmetic on constants; this pass
/// catches what they leave symbolic (`exp`/`ln`/`sqrt`/`pow` of constants and
/// chains thereof), which differentiation produces in quantity. Follow with
/// [`compact`] to drop the dead operand slots.
pub(crate) fn fold_constants_f64(lowered: &mut Lowered) {
    let n = lowered.code.len();
    let mut vals: Vec<f64> = vec![0.0; n];
    let mut is_const: Vec<bool> = vec![false; n];
    for i in 0..n {
        let instr = lowered.code[i];
        if let Instr::Const(c) = instr {
            vals[i] = c;
            is_const[i] = true;
            continue;
        }
        let mut all_const = !matches!(instr, Instr::Var(_) | Instr::IConst(_));
        for_each_operand(instr, |a| all_const &= is_const[a as usize]);
        if !all_const {
            continue;
        }
        // Run the single instruction over the already-folded register file —
        // the same interpreter step Tape::run would execute.
        let v = run_one_f64(instr, &vals);
        vals[i] = v;
        is_const[i] = true;
        lowered.code[i] = Instr::Const(v);
    }
}

/// The single-instruction step of the f64 interpreter, reading operands
/// from `vals`. [`Tape::run`] executes exactly this per slot (variables
/// aside, which need the input environment), and [`fold_constants_f64`]
/// folds with it — so folded and unfolded tapes are result-identical by
/// construction, not by parallel maintenance of two interpreters.
fn run_one_f64(instr: Instr, vals: &[f64]) -> f64 {
    let g = |j: u32| vals[j as usize];
    match instr {
        Instr::Const(c) => c,
        Instr::IConst(_) | Instr::Var(_) => f64::NAN,
        Instr::Add(a, b) => g(a) + g(b),
        Instr::Mul(a, b) => g(a) * g(b),
        Instr::Div(a, b) => g(a) / g(b),
        Instr::Neg(a) => -g(a),
        Instr::PowI(a, n) => g(a).powi(n),
        Instr::Pow(a, b) => {
            let base = g(a);
            if base < 0.0 {
                f64::NAN
            } else {
                base.powf(g(b))
            }
        }
        Instr::Exp(a) => g(a).exp(),
        Instr::Ln(a) => {
            let x = g(a);
            if x <= 0.0 {
                f64::NAN
            } else {
                x.ln()
            }
        }
        Instr::Sqrt(a) => g(a).sqrt(),
        Instr::Cbrt(a) => g(a).cbrt(),
        Instr::Atan(a) => g(a).atan(),
        Instr::Sin(a) => g(a).sin(),
        Instr::Cos(a) => g(a).cos(),
        Instr::Tanh(a) => g(a).tanh(),
        Instr::Abs(a) => g(a).abs(),
        Instr::Min(a, b) => g(a).min(g(b)),
        Instr::Max(a, b) => g(a).max(g(b)),
        Instr::LambertW(a) => xcv_interval::lambert_w0_f64(g(a)),
        Instr::Ite(c, t, e) => {
            let cv = g(c);
            if cv.is_nan() {
                f64::NAN
            } else if cv >= 0.0 {
                g(t)
            } else {
                g(e)
            }
        }
    }
}

/// Fold constant-only subtrees of an interval program. The folded value is
/// the *interval* the forward pass would have computed (outward rounding and
/// all), stored as [`Instr::IConst`] — folding to an f64 point would drop
/// the enclosure of irrational constants and be unsound for verification.
/// Follow with [`compact`].
pub(crate) fn fold_constants_interval(lowered: &mut Lowered) {
    let n = lowered.code.len();
    let mut vals: Vec<Interval> = vec![Interval::ENTIRE; n];
    let mut is_const: Vec<bool> = vec![false; n];
    for i in 0..n {
        let instr = lowered.code[i];
        match instr {
            Instr::Const(c) => {
                vals[i] = Interval::point(c);
                is_const[i] = true;
                continue;
            }
            Instr::IConst(v) => {
                vals[i] = v;
                is_const[i] = true;
                continue;
            }
            Instr::Var(_) => continue,
            _ => {}
        }
        let mut all_const = true;
        for_each_operand(instr, |a| all_const &= is_const[a as usize]);
        if !all_const {
            continue;
        }
        let v = crate::itape::eval_op(instr, &vals);
        vals[i] = v;
        is_const[i] = true;
        // A point that survived exactly stays a plain Const (cheaper and
        // shared with the f64 interpretation); anything widened by rounding
        // keeps its enclosure.
        lowered.code[i] = if v.is_point() {
            Instr::Const(v.lo)
        } else {
            Instr::IConst(v)
        };
    }
}

/// Drop instructions no root (transitively) uses and renumber the survivors.
/// Run after a folding pass: folded parents no longer reference the constant
/// subtrees they absorbed, so those slots — and the per-box work of
/// re-evaluating them — disappear from the program.
pub(crate) fn compact(lowered: &mut Lowered) {
    let n = lowered.code.len();
    let mut live = vec![false; n];
    for &r in &lowered.roots {
        live[r as usize] = true;
    }
    // Children precede parents, so one reverse sweep settles liveness.
    for i in (0..n).rev() {
        if live[i] {
            for_each_operand(lowered.code[i], |a| live[a as usize] = true);
        }
    }
    if live.iter().all(|&l| l) {
        return;
    }
    let mut remap = vec![u32::MAX; n];
    let mut code = Vec::with_capacity(n);
    for i in 0..n {
        if !live[i] {
            continue;
        }
        remap[i] = code.len() as u32;
        code.push(map_operands(lowered.code[i], |a| remap[a as usize]));
    }
    lowered.code = code;
    for r in &mut lowered.roots {
        *r = remap[*r as usize];
    }
    lowered.var_slots.retain(|&(slot, _)| live[slot as usize]);
    for (slot, _) in &mut lowered.var_slots {
        *slot = remap[*slot as usize];
    }
}

impl Tape {
    /// Flatten the DAG into a topologically ordered tape (constant-only
    /// subtrees folded, dead slots dropped).
    pub fn compile(root: &Expr) -> Tape {
        Tape::compile_multi(std::slice::from_ref(root)).0
    }

    /// Lower several roots into one tape with shared nodes evaluated once;
    /// returns the tape and the slot of each root (read results out of the
    /// scratch buffer after [`Tape::run`]).
    pub fn compile_multi(roots: &[Expr]) -> (Tape, Vec<u32>) {
        let mut lowered = lower_dag(roots);
        fold_constants_f64(&mut lowered);
        compact(&mut lowered);
        (Tape { code: lowered.code }, lowered.roots)
    }

    /// A scratch register file sized for this tape (reuse across calls).
    pub fn scratch(&self) -> Vec<f64> {
        vec![0.0; self.code.len()]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Evaluate a single-root tape; unbound variables read as NaN.
    pub fn eval(&self, vars: &[f64], scratch: &mut [f64]) -> f64 {
        self.run(vars, scratch);
        *scratch.last().unwrap_or(&f64::NAN)
    }

    /// Run the whole program, filling `scratch`; callers holding root slots
    /// from [`Tape::compile_multi`] read each root's value out of `scratch`.
    /// Unbound variables read as NaN.
    pub fn run(&self, vars: &[f64], scratch: &mut [f64]) {
        debug_assert_eq!(scratch.len(), self.code.len());
        for (i, instr) in self.code.iter().enumerate() {
            scratch[i] = match *instr {
                Instr::Var(v) => vars.get(v as usize).copied().unwrap_or(f64::NAN),
                // Interval constants never appear in f64 tapes (see
                // `fold_constants_interval`).
                Instr::IConst(_) => unreachable!("IConst in an f64 tape"),
                op => run_one_f64(op, scratch),
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Interval evaluation environment
// ---------------------------------------------------------------------------

/// Reusable forward interval evaluator over one or more rooted DAGs, with
/// per-node storage the HC4 backward pass can refine in place.
pub struct IntervalEnv {
    order: Vec<Expr>,
    pos: HashMap<NodeId, usize>,
    vals: Vec<Interval>,
}

impl IntervalEnv {
    /// Build the shared topological order for a set of roots.
    pub fn new(roots: &[Expr]) -> IntervalEnv {
        // Merge topo orders; nodes shared between roots appear once.
        let mut order: Vec<Expr> = Vec::new();
        let mut seen: HashMap<NodeId, usize> = HashMap::new();
        for r in roots {
            for e in r.topo_order() {
                if let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(e.id()) {
                    slot.insert(order.len());
                    order.push(e);
                }
            }
        }
        let vals = vec![Interval::ENTIRE; order.len()];
        IntervalEnv {
            order,
            pos: seen,
            vals,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Topological order (children before parents).
    pub fn order(&self) -> &[Expr] {
        &self.order
    }

    /// Index of a node in the shared order.
    pub fn index_of(&self, e: &Expr) -> Option<usize> {
        self.pos.get(&e.id()).copied()
    }

    /// Current enclosure for a node.
    pub fn value(&self, e: &Expr) -> Interval {
        self.vals[self.pos[&e.id()]]
    }

    /// Current enclosure by index.
    pub fn value_at(&self, idx: usize) -> Interval {
        self.vals[idx]
    }

    /// Overwrite the enclosure at an index (backward pass refinement).
    pub fn set_value_at(&mut self, idx: usize, v: Interval) {
        self.vals[idx] = v;
    }

    /// Intersect the stored enclosure at `idx`; returns the result.
    pub fn meet_at(&mut self, idx: usize, v: Interval) -> Interval {
        let m = self.vals[idx].intersect(&v);
        self.vals[idx] = m;
        m
    }

    /// Run the forward pass: compute the natural interval extension of every
    /// node given per-variable `domains` (indexed by variable id).
    pub fn forward(&mut self, domains: &[Interval]) {
        // Index-based iteration: cloning the `Arc<Node>` per node per pass
        // just to appease the borrow checker was measurable refcount churn
        // on SCAN-sized DAGs.
        for i in 0..self.order.len() {
            let v = self.forward_node(&self.order[i], domains);
            self.vals[i] = v;
        }
    }

    /// Re-run the forward pass but *intersect* with existing enclosures
    /// rather than overwriting (used between HC4 sweeps).
    pub fn forward_meet(&mut self) {
        for i in 0..self.order.len() {
            let fresh = self.forward_node_from_children(&self.order[i], i);
            if let Some(fresh) = fresh {
                self.vals[i] = self.vals[i].intersect(&fresh);
            }
        }
    }

    fn child_val(&self, e: &Expr) -> Interval {
        self.vals[self.pos[&e.id()]]
    }

    fn forward_node(&self, e: &Expr, domains: &[Interval]) -> Interval {
        match e.kind() {
            Kind::Const(c) => Interval::point(*c),
            Kind::Var(i) => domains
                .get(*i as usize)
                .copied()
                .unwrap_or(Interval::ENTIRE),
            _ => self
                .forward_node_from_children(e, usize::MAX)
                .expect("non-leaf"),
        }
    }

    /// Forward value from children only; `None` for leaves (constants keep
    /// their point value, variables keep their current — possibly contracted
    /// — domain).
    fn forward_node_from_children(&self, e: &Expr, _idx: usize) -> Option<Interval> {
        let v = match e.kind() {
            Kind::Const(_) | Kind::Var(_) => return None,
            Kind::Add(a, b) => self.child_val(a).add(&self.child_val(b)),
            Kind::Mul(a, b) => self.child_val(a).mul(&self.child_val(b)),
            Kind::Div(a, b) => self.child_val(a).div(&self.child_val(b)),
            Kind::Neg(a) => self.child_val(a).neg(),
            Kind::PowI(a, n) => self.child_val(a).powi(*n),
            Kind::Pow(a, b) => self.child_val(a).powf(&self.child_val(b)),
            Kind::Exp(a) => self.child_val(a).exp(),
            Kind::Ln(a) => self.child_val(a).ln(),
            Kind::Sqrt(a) => self.child_val(a).sqrt(),
            Kind::Cbrt(a) => self.child_val(a).cbrt(),
            Kind::Atan(a) => self.child_val(a).atan(),
            Kind::Sin(a) => self.child_val(a).sin(),
            Kind::Cos(a) => self.child_val(a).cos(),
            Kind::Tanh(a) => self.child_val(a).tanh(),
            Kind::Abs(a) => self.child_val(a).abs(),
            Kind::Min(a, b) => self.child_val(a).min_i(&self.child_val(b)),
            Kind::Max(a, b) => self.child_val(a).max_i(&self.child_val(b)),
            Kind::LambertW(a) => self.child_val(a).lambert_w0(),
            Kind::Ite {
                cond,
                then,
                otherwise,
            } => {
                let c = self.child_val(cond);
                if c.is_empty() {
                    Interval::EMPTY
                } else if c.certainly_ge(0.0) {
                    self.child_val(then)
                } else if c.certainly_lt(0.0) {
                    self.child_val(otherwise)
                } else {
                    self.child_val(then).hull(&self.child_val(otherwise))
                }
            }
        };
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{constant, var, Expr};
    use xcv_interval::interval;

    #[test]
    fn eval_polynomial() {
        let x = var(0);
        let e = x.powi(2) + 2.0 * var(0) + 1.0; // (x+1)^2
        assert_eq!(e.eval(&[3.0]).unwrap(), 16.0);
    }

    #[test]
    fn eval_unbound_var_errors() {
        let e = var(3) + 1.0;
        assert_eq!(e.eval(&[0.0]), Err(EvalError::UnboundVar(3)));
    }

    #[test]
    fn eval_domain_violation_nan() {
        let e = constant(-1.0).abs().neg().ln();
        assert!(e.eval(&[]).unwrap().is_nan());
        let e = var(0).sqrt();
        assert!(e.eval(&[-1.0]).unwrap().is_nan());
    }

    #[test]
    fn eval_transcendentals() {
        let e = var(0).exp().ln();
        assert!((e.eval(&[2.5]).unwrap() - 2.5).abs() < 1e-14);
        let e = var(0).atan();
        assert!((e.eval(&[1.0]).unwrap() - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
    }

    #[test]
    fn eval_ite_branches() {
        let e = Expr::ite(&(var(0) - 1.0), &constant(10.0), &constant(20.0));
        assert_eq!(e.eval(&[2.0]).unwrap(), 10.0);
        assert_eq!(e.eval(&[1.0]).unwrap(), 10.0); // boundary: cond >= 0
        assert_eq!(e.eval(&[0.0]).unwrap(), 20.0);
    }

    #[test]
    fn tape_matches_recursive_eval() {
        let x = var(0);
        let y = var(1);
        let e = (x.clone() * y.clone() + x.exp()).sqrt() / (y + 2.0);
        let tape = Tape::compile(&e);
        let mut scratch = tape.scratch();
        for &(a, b) in &[(0.5, 1.0), (2.0, 3.0), (0.1, 0.2)] {
            let r1 = e.eval(&[a, b]).unwrap();
            let r2 = tape.eval(&[a, b], &mut scratch);
            assert!((r1 - r2).abs() <= 1e-15 * r1.abs().max(1.0), "{r1} vs {r2}");
        }
    }

    #[test]
    fn tape_len_counts_shared_nodes_once() {
        let x = var(0);
        let t = x.clone() * x.clone();
        let e = t.clone() + t.clone();
        let tape = Tape::compile(&e);
        assert_eq!(tape.len(), 3); // x, x^2, add
    }

    #[test]
    fn interval_forward_contains_point_eval() {
        let x = var(0);
        let e = (x.clone() + 1.0).ln() * x.exp();
        let dom = [interval(0.5, 2.0)];
        let enc = e.eval_interval(&dom);
        for &p in &[0.5, 1.0, 1.7, 2.0] {
            let v = e.eval(&[p]).unwrap();
            assert!(enc.contains(v), "{v} not in {enc:?}");
        }
    }

    #[test]
    fn interval_ite_hull_when_undecided() {
        let e = Expr::ite(&var(0), &constant(1.0), &constant(5.0));
        let enc = e.eval_interval(&[interval(-1.0, 1.0)]);
        assert!(enc.contains(1.0) && enc.contains(5.0));
        let enc = e.eval_interval(&[interval(0.0, 1.0)]);
        assert_eq!(enc, Interval::point(1.0));
        let enc = e.eval_interval(&[interval(-2.0, -1.0)]);
        assert_eq!(enc, Interval::point(5.0));
    }

    #[test]
    fn tape_folds_constant_subtrees() {
        // exp(2) and sqrt(3) stay symbolic in the DAG (the smart
        // constructors only fold exact values) but fold at tape level, with
        // bit-identical f64 semantics.
        let e = constant(2.0).exp() + var(0).ln() * constant(3.0).sqrt();
        let unfolded = lower_dag(std::slice::from_ref(&e)).code.len();
        let tape = Tape::compile(&e);
        assert!(tape.len() < unfolded, "{} !< {unfolded}", tape.len());
        let mut s = tape.scratch();
        for &x in &[0.5, 1.7, 3.0] {
            assert_eq!(tape.eval(&[x], &mut s), e.eval(&[x]).unwrap());
        }
        // Domain-violating constants fold to NaN and keep propagating.
        let bad = constant(-1.0).ln() + var(0);
        let tape = Tape::compile(&bad);
        let mut s = tape.scratch();
        assert!(tape.eval(&[1.0], &mut s).is_nan());
    }

    #[test]
    fn folding_keeps_roots_and_vars_consistent() {
        // A root that folds entirely, sharing a tape with one that does not.
        let c = constant(2.0).exp() * constant(3.0).sqrt();
        let v = var(1) + constant(2.0).exp();
        let (tape, roots) = Tape::compile_multi(&[c.clone(), v.clone()]);
        let mut s = tape.scratch();
        tape.run(&[0.0, 4.0], &mut s);
        assert_eq!(s[roots[0] as usize], c.eval(&[]).unwrap());
        assert_eq!(s[roots[1] as usize], v.eval(&[0.0, 4.0]).unwrap());
    }

    #[test]
    fn interval_env_reuse() {
        let e = var(0).powi(2);
        let mut env = IntervalEnv::new(std::slice::from_ref(&e));
        env.forward(&[interval(1.0, 2.0)]);
        assert!(env.value(&e).contains(4.0));
        env.forward(&[interval(3.0, 4.0)]);
        assert!(env.value(&e).contains(16.0));
        assert!(!env.value(&e).contains(4.0));
    }

    #[test]
    fn interval_env_multi_root_shares() {
        let x = var(0);
        let f = x.clone() * 2.0;
        let g = x.clone() * 2.0 + 1.0;
        let env = IntervalEnv::new(&[f.clone(), g.clone()]);
        // x, 2x, 1?, 2x+1 — constants included
        assert!(env.len() >= 3);
        assert!(env.index_of(&f).is_some());
        assert!(env.index_of(&g).is_some());
    }
}
