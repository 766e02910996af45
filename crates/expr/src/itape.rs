//! Flat interval tape: the compile-once backend for interval evaluation and
//! HC4-revise contraction.
//!
//! [`crate::IntervalEnv`] walks the expression DAG through `Arc` handles and
//! `HashMap` slot maps — fine for one-shot evaluation, ruinous when the
//! δ-complete solver revisits the same formula on thousands of sub-boxes.
//! [`IntervalTape`] lowers one or more rooted DAGs *once* into a dense,
//! `Vec`-indexed program (children always precede parents; operands are plain
//! `u32` slot indices) and then runs every pass over a caller-owned slot file:
//!
//! * [`IntervalTape::forward`] — natural interval extension of every node;
//! * [`IntervalTape::forward_masked`] / [`IntervalTape::forward_from`] —
//!   *dirty-slot* re-evaluation: using the per-slot variable **dependency
//!   bitsets** computed at compile time ([`IntervalTape::deps`]), recompute
//!   only the slots downstream of the changed axes. The escalation ladder's
//!   3B slab shaver probes one box face at a time this way: a slab differs
//!   from the box only along one axis, so every slot outside that axis'
//!   dependency cone keeps its (already computed, bit-identical) enclosure;
//! * [`IntervalTape::forward_from_image`] — the same re-evaluation into a
//!   fresh slot file, seeded from another box's forward image, with the
//!   changed axes found by comparing the new box against that image's
//!   variable slots. The solver's depth-first search evaluates every child
//!   node this way from its parent's image: a child differs from its
//!   parent's popped box on the split axis and on every axis that HC4, or
//!   the escalation ladder's Newton and shaving rungs, narrowed before the
//!   split — usually the split axis alone;
//! * [`IntervalTape::forward_meet`] — re-tighten parents from narrowed
//!   children (between HC4 sweeps), intersecting in place;
//! * [`IntervalTape::backward`] — one reverse sweep of the HC4 inverse rules,
//!   contracting child enclosures in place (a no-op where no cheap inverse
//!   exists — always sound).
//!
//! The forward variants compute bit-identical slot values for the same box:
//! the dirty-slot passes only skip slots whose inputs are unchanged.
//!
//! # Clean slots in the backward sweep
//!
//! The HC4 passes carry one `dirty` flag per slot. A slot is *clean* while
//! its enclosure still equals the value the last forward or
//! [`IntervalTape::forward_meet`] evaluation computed for it; root
//! imposition, an inverse rule or `forward_meet`'s intersection that leaves
//! it narrower makes it dirty. [`IntervalTape::backward`] skips the inverse
//! rule of a clean slot whose operation is *total* — defined on all of ℝ:
//! `add`, `mul`, `neg`, `powi` with n a power of two, `exp`, `cbrt`,
//! `atan`, `abs`, `min`, `max`, `sin`, `cos` — and of every leaf. The skip
//! is exact, not a heuristic: a clean parent contains the image of its
//! children (they only narrow after the parent was evaluated), and a sound
//! inverse rule applied to an enclosure containing that image returns a
//! superset of each child, so the meet it would perform changes nothing.
//! Partial operations (`div`, `pow`, `ln`, `sqrt`, `lambertw`, `ite`,
//! `powi` with n ≤ 0) always run, because they clip a child to their domain
//! even from an unnarrowed parent: `sqrt` over [−1, 4] narrows its child to
//! [0, 4]. So do `tanh` and the other positive powers, which are total but
//! not on the list (`total` gives the reason). The emptiness test runs on
//! every slot, skipped or not: an empty slot in an unselected `ite` branch
//! proves the box empty.
//! A caller that sets every flag before the sweep runs every rule.
//!
//! Slot files are **write-before-read**: every pass overwrites each slot it
//! touches before reading it, so scratch buffers are reused across boxes
//! verbatim — no per-box reinitialization (to [`Interval::ENTIRE`] or
//! anything else) is ever needed, and none is performed.
//!
//! The tape itself is immutable after compilation and holds no interning
//! `Arc`s, so it is `Send + Sync` and can be shared across worker threads,
//! each bringing its own scratch slot file ([`IntervalTape::scratch`]).

use crate::eval::{lower_dag, Instr};
use crate::node::Expr;
use xcv_interval::{round, Interval};

/// The dependency-mask bit of variable `v`: variables 64 and beyond share a
/// saturated "could be anything" mask, which is always sound (they are only
/// ever *over*-recomputed).
#[inline]
fn var_bit(v: u32) -> u64 {
    if v < 64 {
        1 << v
    } else {
        u64::MAX
    }
}

/// The value a forward pass gives variable `v`'s slot: its domain, or
/// `ENTIRE` for a variable beyond `domains`.
#[inline]
fn var_value(domains: &[Interval], v: u32) -> Interval {
    domains.get(v as usize).copied().unwrap_or(Interval::ENTIRE)
}

/// A compiled, shareable interval program over one or more expression roots.
#[derive(Debug, Clone)]
pub struct IntervalTape {
    code: Vec<Instr>,
    /// Slot of each root, in the order given to [`IntervalTape::compile`].
    roots: Vec<u32>,
    /// `(slot, variable id)` for every variable node.
    var_slots: Vec<(u32, u32)>,
    /// Per-slot transitive variable-dependency bitset (bit `v` set when the
    /// slot's value depends on variable `v`; see [`IntervalTape::deps`]).
    deps: Vec<u64>,
}

impl IntervalTape {
    /// Lower the merged DAG of `roots` into a flat program. Nodes shared
    /// between roots are lowered once. The lowering itself is
    /// `eval::lower_dag`, shared with the f64 [`crate::Tape`].
    pub fn compile(roots: &[Expr]) -> IntervalTape {
        let mut lowered = lower_dag(roots);
        // Fold constant-only subtrees into their (outward-rounded) interval
        // values and drop the dead slots: differentiation leaves plenty of
        // `exp`/`ln`/`pow`-of-constant chains the smart constructors keep
        // symbolic, and every surviving slot is re-evaluated on every box.
        crate::eval::fold_constants_interval(&mut lowered);
        crate::eval::compact(&mut lowered);
        // Dependency bitsets over the folded, compacted program.
        let deps = crate::eval::compute_deps(&lowered.code);
        IntervalTape {
            code: lowered.code,
            roots: lowered.roots,
            var_slots: lowered.var_slots,
            deps,
        }
    }

    /// Serialize the program into a compact, self-contained text form that
    /// [`IntervalTape::from_portable`] reconstructs exactly — the transport
    /// used by proof certificates, where an *independent* checker re-runs
    /// the interval kernels without access to the expression DAG.
    ///
    /// Format: instructions in program order, `;`-separated, each an opcode
    /// followed by space-separated operands (slot indices, or numeric
    /// literals rendered with Rust's shortest round-trip `Display`, so every
    /// `f64` — interval-constant bounds included — survives bit-exactly);
    /// then `|` and the root slots, `,`-separated. The charset is plain
    /// ASCII with no quotes or backslashes, so the string embeds in
    /// hand-rolled JSON without escaping.
    pub fn to_portable(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.code.len() * 12);
        for (i, instr) in self.code.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            match *instr {
                Instr::Const(c) => {
                    let _ = write!(out, "const {c}");
                }
                Instr::IConst(v) => {
                    let _ = write!(out, "iconst {} {}", v.lo, v.hi);
                }
                Instr::Var(v) => {
                    let _ = write!(out, "var {v}");
                }
                Instr::Add(a, b) => {
                    let _ = write!(out, "add {a} {b}");
                }
                Instr::Mul(a, b) => {
                    let _ = write!(out, "mul {a} {b}");
                }
                Instr::Div(a, b) => {
                    let _ = write!(out, "div {a} {b}");
                }
                Instr::Neg(a) => {
                    let _ = write!(out, "neg {a}");
                }
                Instr::PowI(a, n) => {
                    let _ = write!(out, "powi {a} {n}");
                }
                Instr::Pow(a, b) => {
                    let _ = write!(out, "pow {a} {b}");
                }
                Instr::Exp(a) => {
                    let _ = write!(out, "exp {a}");
                }
                Instr::Ln(a) => {
                    let _ = write!(out, "ln {a}");
                }
                Instr::Sqrt(a) => {
                    let _ = write!(out, "sqrt {a}");
                }
                Instr::Cbrt(a) => {
                    let _ = write!(out, "cbrt {a}");
                }
                Instr::Atan(a) => {
                    let _ = write!(out, "atan {a}");
                }
                Instr::Sin(a) => {
                    let _ = write!(out, "sin {a}");
                }
                Instr::Cos(a) => {
                    let _ = write!(out, "cos {a}");
                }
                Instr::Tanh(a) => {
                    let _ = write!(out, "tanh {a}");
                }
                Instr::Abs(a) => {
                    let _ = write!(out, "abs {a}");
                }
                Instr::Min(a, b) => {
                    let _ = write!(out, "min {a} {b}");
                }
                Instr::Max(a, b) => {
                    let _ = write!(out, "max {a} {b}");
                }
                Instr::LambertW(a) => {
                    let _ = write!(out, "lambertw {a}");
                }
                Instr::Ite(c, t, e) => {
                    let _ = write!(out, "ite {c} {t} {e}");
                }
            }
        }
        out.push('|');
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{r}");
        }
        out
    }

    /// Reconstruct a tape serialized by [`IntervalTape::to_portable`],
    /// revalidating the structural invariants the interpreters rely on
    /// (operands strictly precede their slot; roots are in range). Variable
    /// slots are rebuilt from the `var` instructions in program order and
    /// the dependency bitsets recomputed, so the result behaves identically
    /// to the originally compiled tape.
    pub fn from_portable(text: &str) -> Result<IntervalTape, String> {
        let (code_part, roots_part) = text
            .split_once('|')
            .ok_or_else(|| "portable tape: missing '|' root separator".to_string())?;
        let mut code = Vec::new();
        let mut var_slots = Vec::new();
        for (i, tok) in code_part.split(';').enumerate() {
            let mut words = tok.split_whitespace();
            let op = words
                .next()
                .ok_or_else(|| format!("portable tape: empty instruction at slot {i}"))?;
            let mut num = |what: &str| -> Result<f64, String> {
                words
                    .next()
                    .ok_or_else(|| format!("portable tape: slot {i}: missing {what}"))?
                    .parse::<f64>()
                    .map_err(|e| format!("portable tape: slot {i}: bad {what}: {e}"))
            };
            let instr = match op {
                "const" => {
                    let c = num("constant")?;
                    if c.is_nan() {
                        return Err(format!("portable tape: slot {i}: NaN constant"));
                    }
                    Instr::Const(c)
                }
                "iconst" => {
                    let lo = num("lower bound")?;
                    let hi = num("upper bound")?;
                    Instr::IConst(Interval::checked(lo, hi))
                }
                _ => {
                    let mut slot_args = [0u32; 3];
                    let mut n_args = 0usize;
                    let mut powi_exp = 0i32;
                    let (want, is_powi, is_var) = match op {
                        "var" => (1, false, true),
                        "neg" | "exp" | "ln" | "sqrt" | "cbrt" | "atan" | "sin" | "cos"
                        | "tanh" | "abs" | "lambertw" => (1, false, false),
                        "powi" => (2, true, false),
                        "add" | "mul" | "div" | "pow" | "min" | "max" => (2, false, false),
                        "ite" => (3, false, false),
                        other => {
                            return Err(format!("portable tape: slot {i}: unknown op {other}"))
                        }
                    };
                    for k in 0..want {
                        let w = words
                            .next()
                            .ok_or_else(|| format!("portable tape: slot {i}: missing operand"))?;
                        if is_powi && k == 1 {
                            powi_exp = w.parse().map_err(|e| {
                                format!("portable tape: slot {i}: bad exponent: {e}")
                            })?;
                        } else {
                            slot_args[n_args] = w.parse().map_err(|e| {
                                format!("portable tape: slot {i}: bad operand: {e}")
                            })?;
                            n_args += 1;
                        }
                    }
                    if !is_var {
                        for &a in &slot_args[..n_args] {
                            if a as usize >= i {
                                return Err(format!(
                                    "portable tape: slot {i}: operand {a} does not precede it"
                                ));
                            }
                        }
                    }
                    let [a, b, c] = slot_args;
                    match op {
                        "var" => {
                            var_slots.push((i as u32, a));
                            Instr::Var(a)
                        }
                        "add" => Instr::Add(a, b),
                        "mul" => Instr::Mul(a, b),
                        "div" => Instr::Div(a, b),
                        "neg" => Instr::Neg(a),
                        "powi" => Instr::PowI(a, powi_exp),
                        "pow" => Instr::Pow(a, b),
                        "exp" => Instr::Exp(a),
                        "ln" => Instr::Ln(a),
                        "sqrt" => Instr::Sqrt(a),
                        "cbrt" => Instr::Cbrt(a),
                        "atan" => Instr::Atan(a),
                        "sin" => Instr::Sin(a),
                        "cos" => Instr::Cos(a),
                        "tanh" => Instr::Tanh(a),
                        "abs" => Instr::Abs(a),
                        "min" => Instr::Min(a, b),
                        "max" => Instr::Max(a, b),
                        "lambertw" => Instr::LambertW(a),
                        "ite" => Instr::Ite(a, b, c),
                        _ => unreachable!("op validated above"),
                    }
                }
            };
            if words.next().is_some() {
                return Err(format!("portable tape: slot {i}: trailing operands"));
            }
            code.push(instr);
        }
        let mut roots = Vec::new();
        for r in roots_part.split(',').filter(|s| !s.is_empty()) {
            let slot: u32 = r
                .parse()
                .map_err(|e| format!("portable tape: bad root slot: {e}"))?;
            if slot as usize >= code.len() {
                return Err(format!("portable tape: root {slot} out of range"));
            }
            roots.push(slot);
        }
        if roots.is_empty() {
            return Err("portable tape: no roots".to_string());
        }
        let deps = crate::eval::compute_deps(&code);
        Ok(IntervalTape {
            code,
            roots,
            var_slots,
            deps,
        })
    }

    /// Number of slots (= distinct DAG nodes across all roots).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Slot of the `i`-th compiled root.
    pub fn root_slot(&self, i: usize) -> u32 {
        self.roots[i]
    }

    /// Number of compiled roots.
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// `(slot, variable id)` of every variable node, in program order.
    pub fn var_slots(&self) -> &[(u32, u32)] {
        &self.var_slots
    }

    /// The per-slot variable-dependency bitsets, computed once at compile
    /// time: bit `v` of `deps()[i]` is set when slot `i`'s value depends
    /// (transitively) on variable `v`. Variables `>= 64` saturate to the
    /// all-ones mask — sound, since a saturated slot is only ever
    /// re-evaluated more than necessary.
    pub fn deps(&self) -> &[u64] {
        &self.deps
    }

    /// The union of every slot's dependency mask — the variables this
    /// program actually computes with (post constant folding).
    pub fn var_mask(&self) -> u64 {
        self.var_slots.iter().fold(0, |m, &(_, v)| m | var_bit(v))
    }

    /// A slot file sized for this tape. Reuse it across boxes and passes:
    /// every pass is write-before-read, so the previous box's values never
    /// leak and no reinitialization between boxes is needed (the fill value
    /// here only seeds never-written slots of *partial* passes, which read
    /// their stale value by design — see [`IntervalTape::forward_from`]).
    pub fn scratch(&self) -> Vec<Interval> {
        vec![Interval::ENTIRE; self.code.len()]
    }

    /// Forward pass: overwrite every slot with the natural interval extension
    /// given per-variable `domains` (indexed by variable id; missing
    /// variables read as ENTIRE).
    pub fn forward(&self, domains: &[Interval], vals: &mut [Interval]) {
        debug_assert_eq!(vals.len(), self.code.len());
        for (i, instr) in self.code.iter().enumerate() {
            vals[i] = match *instr {
                Instr::Const(c) => Interval::point(c),
                Instr::IConst(v) => v,
                Instr::Var(v) => var_value(domains, v),
                op => eval_op(op, vals),
            };
        }
    }

    /// Dirty-slot forward pass: recompute only the slots whose dependency
    /// cone contains `axis`, leaving every other slot untouched.
    ///
    /// Precondition: `vals` holds the forward image of a box that agrees
    /// with `domains` on every variable except (possibly) `axis` — i.e. the
    /// parent's slot file after bisecting `axis`. Under that precondition
    /// the result is bit-identical to a full [`IntervalTape::forward`] over
    /// `domains`: skipped slots have unchanged inputs, and recomputed slots
    /// read either recomputed or unchanged operands, in program order.
    pub fn forward_from(&self, axis: u32, domains: &[Interval], vals: &mut [Interval]) {
        self.forward_masked(var_bit(axis), domains, vals);
    }

    /// [`IntervalTape::forward_from`] generalized to a set of axes:
    /// recompute the slots whose dependency set intersects `mask`. The
    /// precondition generalizes accordingly — `vals` must be a valid
    /// forward image of a box agreeing with `domains` outside `mask`.
    /// (Constant slots are box-independent and are never recomputed, so
    /// this never substitutes for a first full [`IntervalTape::forward`].)
    pub fn forward_masked(&self, mask: u64, domains: &[Interval], vals: &mut [Interval]) {
        debug_assert_eq!(vals.len(), self.code.len());
        for (i, instr) in self.code.iter().enumerate() {
            if self.deps[i] & mask == 0 {
                continue;
            }
            vals[i] = match *instr {
                Instr::Const(c) => Interval::point(c),
                Instr::IConst(v) => v,
                Instr::Var(v) => var_value(domains, v),
                op => eval_op(op, vals),
            };
        }
    }

    /// Fill `vals` with the forward image of `domains`, seeded from
    /// `parent`, the forward image of some other box over this tape (in the
    /// solver's search, the parent node's). The changed axes are those
    /// whose variable slot in `parent` differs from `domains`, bound for
    /// bound by bits, so −0.0 against +0.0 counts as a change (arithmetic
    /// carries the sign of a zero bound into its results). Slots outside
    /// their dependency cones are copied from `parent`; the rest are
    /// recomputed. That is the precondition of
    /// [`IntervalTape::forward_masked`] with the mask derived rather than
    /// assumed, so the result is bit-identical to a full
    /// [`IntervalTape::forward`].
    pub fn forward_from_image(
        &self,
        parent: &[Interval],
        domains: &[Interval],
        vals: &mut [Interval],
    ) {
        let same = |a: Interval, b: Interval| {
            a.lo.to_bits() == b.lo.to_bits() && a.hi.to_bits() == b.hi.to_bits()
        };
        let mask = self
            .var_slots
            .iter()
            .filter(|&&(slot, v)| !same(parent[slot as usize], var_value(domains, v)))
            .fold(0, |m, &(_, v)| m | var_bit(v));
        vals.copy_from_slice(parent);
        self.forward_masked(mask, domains, vals);
    }

    /// Re-run the forward pass, *intersecting* each non-leaf slot with its
    /// recomputed value (between HC4 sweeps). Leaves keep their current —
    /// possibly contracted — enclosures. Each non-leaf slot's `dirty` flag
    /// is reset to whether the intersection left it narrower than the
    /// recomputed value (see [`IntervalTape::backward`]).
    pub fn forward_meet(&self, vals: &mut [Interval], dirty: &mut [bool]) {
        debug_assert_eq!(vals.len(), self.code.len());
        debug_assert_eq!(dirty.len(), self.code.len());
        for (i, instr) in self.code.iter().enumerate() {
            match *instr {
                Instr::Const(_) | Instr::IConst(_) | Instr::Var(_) => {}
                op => {
                    let fresh = eval_op(op, vals);
                    let met = vals[i].intersect(&fresh);
                    dirty[i] = met != fresh;
                    vals[i] = met;
                }
            }
        }
    }

    /// One reverse-topological HC4 backward sweep over the slot file,
    /// contracting children through the inverse of each operation. Returns
    /// `false` when some slot is proven empty (no solution in the box).
    ///
    /// `dirty` holds one flag per slot: `false` marks a clean slot, whose
    /// enclosure still equals the value the last [`IntervalTape::forward`]
    /// or [`IntervalTape::forward_meet`] computed for it. The sweep skips
    /// the inverse rule of a clean slot whose operation is total, testing
    /// only its emptiness, and sets the flag of every child a rule narrows.
    /// The skip is exact: the slot's enclosure contains the image of its
    /// children (which have only narrowed since it was computed), so a
    /// sound rule would intersect each child with a superset of itself.
    /// Partial operations clip their children to the operation's domain,
    /// and a few total ones round their rules loosely; those run whatever
    /// their flag says. With every flag set, every rule runs. See the
    /// module docs.
    ///
    /// Soundness: every rule computes a *superset* of the child values
    /// consistent with the parent's current enclosure; operations without a
    /// cheap inverse (`sin`, `cos`, parts of `pow`) do not contract.
    pub fn backward(&self, vals: &mut [Interval], dirty: &mut [bool]) -> bool {
        debug_assert_eq!(vals.len(), self.code.len());
        debug_assert_eq!(dirty.len(), self.code.len());
        for i in (0..self.code.len()).rev() {
            let instr = self.code[i];
            if dirty[i] || !total(instr) {
                if !backward_step(i as u32, instr, vals, dirty) {
                    return false;
                }
            } else if vals[i].is_empty() {
                return false;
            }
        }
        true
    }
}

/// Whether [`IntervalTape::backward`] may skip the inverse rule of `instr`
/// on a clean slot: true for the leaves (no rule) and for the total
/// operations whose rule leaves every child of an unnarrowed parent as it
/// is (the `clean_slot_inverse_rules_change_nothing` property). The partial
/// operations clip a child to their domain even from an unnarrowed parent.
/// `tanh` and `powi` with an exponent n > 0 that is not a power of two are
/// total, but they always run too. For n = 5, 6 and 7 the root is still
/// `powf` with a rounded `1/n`, which loses more than its slop and can
/// narrow a child below its own image. `tanh`'s rule (std's `atanh` taken
/// at |x|, its sign restored) and the cube root (libm's `cbrt`) round
/// within their slop and pass that property when listed, but listing them
/// changes which rules the sweep runs: a performance change, to be
/// measured on its own.
fn total(instr: Instr) -> bool {
    match instr {
        Instr::Const(_)
        | Instr::IConst(_)
        | Instr::Var(_)
        | Instr::Add(..)
        | Instr::Mul(..)
        | Instr::Neg(_)
        | Instr::Exp(_)
        | Instr::Cbrt(_)
        | Instr::Atan(_)
        | Instr::Sin(_)
        | Instr::Cos(_)
        | Instr::Abs(_)
        | Instr::Min(..)
        | Instr::Max(..) => true,
        Instr::PowI(_, n) => n > 0 && n.count_ones() == 1,
        Instr::Tanh(_)
        | Instr::Div(..)
        | Instr::Pow(..)
        | Instr::Ln(_)
        | Instr::Sqrt(_)
        | Instr::LambertW(_)
        | Instr::Ite(..) => false,
    }
}

/// The HC4 inverse rule for one instruction, on one box's slot values:
/// read the node's enclosure, contract the children through the operation's
/// inverse, flagging every child it narrows in `dirty`. `false` when
/// emptiness is proven.
#[allow(clippy::too_many_lines)]
fn backward_step(i: u32, instr: Instr, vals: &mut [Interval], dirty: &mut [bool]) -> bool {
    {
        let d = vals[i as usize];
        if d.is_empty() {
            return false;
        }
        match instr {
            Instr::Const(_) | Instr::IConst(_) | Instr::Var(_) => {}
            Instr::Add(a, b) => {
                let (ca, cb) = (vals[a as usize], vals[b as usize]);
                if !meet(vals, dirty, a, d.sub(&cb)) || !meet(vals, dirty, b, d.sub(&ca)) {
                    return false;
                }
            }
            Instr::Mul(a, b) => {
                let (ca, cb) = (vals[a as usize], vals[b as usize]);
                if !meet(vals, dirty, a, d.div(&cb)) || !meet(vals, dirty, b, d.div(&ca)) {
                    return false;
                }
            }
            Instr::Div(a, b) => {
                let (ca, cb) = (vals[a as usize], vals[b as usize]);
                if !meet(vals, dirty, a, d.mul(&cb)) || !meet(vals, dirty, b, ca.div(&d)) {
                    return false;
                }
            }
            Instr::Neg(a) => {
                if !meet(vals, dirty, a, d.neg()) {
                    return false;
                }
            }
            Instr::PowI(a, n) => {
                if !backward_powi(vals, dirty, a, n, d) {
                    return false;
                }
            }
            Instr::Pow(a, b) => {
                let (ca, cb) = (vals[a as usize], vals[b as usize]);
                // a^b with a > 0 implies node > 0.
                if ca.certainly_gt(0.0) {
                    let dpos = d.intersect(&Interval::new(0.0, f64::INFINITY));
                    if dpos.is_empty() {
                        return false;
                    }
                    let ld = dpos.ln();
                    if !ld.is_empty() {
                        let la = ca.ln();
                        if !meet(vals, dirty, a, ld.div(&cb).exp()) {
                            return false;
                        }
                        if !la.is_empty() && !meet(vals, dirty, b, ld.div(&la)) {
                            return false;
                        }
                    }
                }
            }
            Instr::Exp(a) => {
                // exp(a) = d  =>  a = ln(d); d.hi <= 0 is infeasible.
                let pre = d.ln();
                if pre.is_empty() || !meet(vals, dirty, a, pre) {
                    return false;
                }
            }
            Instr::Ln(a) => {
                if !meet(vals, dirty, a, d.exp()) {
                    return false;
                }
            }
            Instr::Sqrt(a) => {
                let dpos = d.intersect(&Interval::new(0.0, f64::INFINITY));
                if dpos.is_empty() {
                    return false;
                }
                if !meet(vals, dirty, a, dpos.powi(2)) {
                    return false;
                }
            }
            Instr::Cbrt(a) => {
                if !meet(vals, dirty, a, d.powi(3)) {
                    return false;
                }
            }
            Instr::Atan(a) => {
                let range =
                    Interval::new(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
                let dc = d.intersect(&range);
                if dc.is_empty() {
                    return false;
                }
                // tan blows up approaching ±π/2; treat anything within
                // 1e-4 of the pole as unbounded.
                let near_pole = std::f64::consts::FRAC_PI_2 - 1e-4;
                let lo = if dc.lo <= -near_pole {
                    f64::NEG_INFINITY
                } else {
                    round::libm_lo(dc.lo.tan())
                };
                let hi = if dc.hi >= near_pole {
                    f64::INFINITY
                } else {
                    round::libm_hi(dc.hi.tan())
                };
                if !meet(vals, dirty, a, Interval::checked(lo, hi)) {
                    return false;
                }
            }
            Instr::Sin(_) | Instr::Cos(_) => {
                // Periodic inverse: no contraction (sound no-op), but an
                // enclosure disjoint from [-1, 1] is infeasible.
                if d.intersect(&Interval::new(-1.0, 1.0)).is_empty() {
                    return false;
                }
            }
            Instr::Tanh(a) => {
                let dc = d.intersect(&Interval::new(-1.0, 1.0));
                if dc.is_empty() {
                    return false;
                }
                let atanh = |x: f64, up: bool| -> f64 {
                    if x <= -1.0 {
                        f64::NEG_INFINITY
                    } else if x >= 1.0 {
                        f64::INFINITY
                    } else {
                        // std's `atanh` is `ln_1p(2x/(1 − x))/2`, whose
                        // argument cancels against 1 near x = −1. At |x|
                        // the argument is ≥ 0, and the rule stays within
                        // the slop at both ends (`ln((1 + x)/(1 − x))`
                        // would cancel near 0).
                        let v = x.abs().atanh().copysign(x);
                        if up {
                            round::libm_hi(v)
                        } else {
                            round::libm_lo(v)
                        }
                    }
                };
                if !meet(
                    vals,
                    dirty,
                    a,
                    Interval::checked(atanh(dc.lo, false), atanh(dc.hi, true)),
                ) {
                    return false;
                }
            }
            Instr::Abs(a) => {
                let dpos = d.intersect(&Interval::new(0.0, f64::INFINITY));
                if dpos.is_empty() {
                    return false;
                }
                let ca = vals[a as usize];
                let pre = ca.intersect(&dpos).hull(&ca.intersect(&dpos.neg()));
                if pre.is_empty() {
                    return false;
                }
                set(vals, dirty, a, pre);
            }
            Instr::Min(a, b) => {
                let (ca, cb) = (vals[a as usize], vals[b as usize]);
                // Both operands are >= min's lower bound.
                let floor = Interval::new(d.lo, f64::INFINITY);
                let mut na = ca.intersect(&floor);
                let mut nb = cb.intersect(&floor);
                // If one operand is certainly above the node's range, the
                // other must equal the node.
                if cb.lo > d.hi {
                    na = na.intersect(&d);
                }
                if ca.lo > d.hi {
                    nb = nb.intersect(&d);
                }
                if na.is_empty() || nb.is_empty() {
                    return false;
                }
                set(vals, dirty, a, na);
                set(vals, dirty, b, nb);
            }
            Instr::Max(a, b) => {
                let (ca, cb) = (vals[a as usize], vals[b as usize]);
                let ceil = Interval::new(f64::NEG_INFINITY, d.hi);
                let mut na = ca.intersect(&ceil);
                let mut nb = cb.intersect(&ceil);
                if cb.hi < d.lo {
                    na = na.intersect(&d);
                }
                if ca.hi < d.lo {
                    nb = nb.intersect(&d);
                }
                if na.is_empty() || nb.is_empty() {
                    return false;
                }
                set(vals, dirty, a, na);
                set(vals, dirty, b, nb);
            }
            Instr::LambertW(a) => {
                // W(a) = d  =>  a = d e^d (monotone on our domain).
                if !meet(vals, dirty, a, d.mul(&d.exp())) {
                    return false;
                }
            }
            Instr::Ite(c, t, e) => {
                let cc = vals[c as usize];
                if cc.certainly_ge(0.0) {
                    if !meet(vals, dirty, t, d) {
                        return false;
                    }
                } else if cc.certainly_lt(0.0) {
                    if !meet(vals, dirty, e, d) {
                        return false;
                    }
                } else {
                    let ct = vals[t as usize];
                    let ce = vals[e as usize];
                    let then_possible = !ct.intersect(&d).is_empty();
                    let else_possible = !ce.intersect(&d).is_empty();
                    match (then_possible, else_possible) {
                        (false, false) => return false,
                        (false, true) => {
                            // cond must be negative; closed meet is sound.
                            if !meet(vals, dirty, c, Interval::new(f64::NEG_INFINITY, 0.0))
                                || !meet(vals, dirty, e, d)
                            {
                                return false;
                            }
                        }
                        (true, false) => {
                            if !meet(vals, dirty, c, Interval::new(0.0, f64::INFINITY))
                                || !meet(vals, dirty, t, d)
                            {
                                return false;
                            }
                        }
                        (true, true) => {}
                    }
                }
            }
        }
    }
    true
}

/// Forward interval value of one non-leaf instruction from its children
/// (shared with the compile-time constant folder in [`crate::eval`]).
#[inline]
pub(crate) fn eval_op(instr: Instr, vals: &[Interval]) -> Interval {
    let g = |j: u32| vals[j as usize];
    match instr {
        Instr::Const(_) | Instr::IConst(_) | Instr::Var(_) => {
            unreachable!("leaves handled by callers")
        }
        Instr::Add(a, b) => g(a).add(&g(b)),
        Instr::Mul(a, b) => g(a).mul(&g(b)),
        Instr::Div(a, b) => g(a).div(&g(b)),
        Instr::Neg(a) => g(a).neg(),
        Instr::PowI(a, n) => g(a).powi(n),
        Instr::Pow(a, b) => g(a).powf(&g(b)),
        Instr::Exp(a) => g(a).exp(),
        Instr::Ln(a) => g(a).ln(),
        Instr::Sqrt(a) => g(a).sqrt(),
        Instr::Cbrt(a) => g(a).cbrt(),
        Instr::Atan(a) => g(a).atan(),
        Instr::Sin(a) => g(a).sin(),
        Instr::Cos(a) => g(a).cos(),
        Instr::Tanh(a) => g(a).tanh(),
        Instr::Abs(a) => g(a).abs(),
        Instr::Min(a, b) => g(a).min_i(&g(b)),
        Instr::Max(a, b) => g(a).max_i(&g(b)),
        Instr::LambertW(a) => g(a).lambert_w0(),
        Instr::Ite(c, t, e) => {
            let cc = g(c);
            if cc.is_empty() {
                Interval::EMPTY
            } else if cc.certainly_ge(0.0) {
                g(t)
            } else if cc.certainly_lt(0.0) {
                g(e)
            } else {
                g(t).hull(&g(e))
            }
        }
    }
}

/// Store a child's contracted enclosure, flagging the slot dirty when the
/// store narrows it.
#[inline]
fn set(vals: &mut [Interval], dirty: &mut [bool], idx: u32, v: Interval) {
    let slot = idx as usize;
    dirty[slot] |= v != vals[slot];
    vals[slot] = v;
}

/// Meet the slot with `narrow`; false if proven empty.
#[inline]
fn meet(vals: &mut [Interval], dirty: &mut [bool], idx: u32, narrow: Interval) -> bool {
    let m = vals[idx as usize].intersect(&narrow);
    set(vals, dirty, idx, m);
    !m.is_empty()
}

fn backward_powi(vals: &mut [Interval], dirty: &mut [bool], a: u32, n: i32, d: Interval) -> bool {
    if n == 0 {
        return !d.intersect(&Interval::ONE).is_empty();
    }
    if n < 0 {
        // a^n = 1/a^{-n}: invert the target and recurse on the positive
        // exponent.
        return backward_powi(vals, dirty, a, -n, d.recip());
    }
    if n % 2 == 1 {
        meet(vals, dirty, a, d.nth_root(n))
    } else {
        let dpos = d.intersect(&Interval::new(0.0, f64::INFINITY));
        if dpos.is_empty() {
            return false;
        }
        let r = dpos.nth_root(n); // [p, q], p >= 0
        let ca = vals[a as usize];
        let pre = ca.intersect(&r).hull(&ca.intersect(&r.neg()));
        if pre.is_empty() {
            return false;
        }
        set(vals, dirty, a, pre);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{constant, var, IntervalEnv};
    use proptest::prelude::*;
    use xcv_interval::interval;

    #[test]
    fn forward_matches_interval_env() {
        let x = var(0);
        let y = var(1);
        let e = (x.clone() * y.clone() + x.exp()).sqrt() / (y + 2.0);
        let tape = IntervalTape::compile(std::slice::from_ref(&e));
        let mut vals = tape.scratch();
        let dom = [interval(0.1, 0.9), interval(0.5, 2.0)];
        tape.forward(&dom, &mut vals);
        let want = e.eval_interval(&dom);
        let got = vals[tape.root_slot(0) as usize];
        assert_eq!(got, want);
    }

    #[test]
    fn shared_nodes_lowered_once() {
        let x = var(0);
        let t = x.clone() * x.clone();
        let f = t.clone() + 1.0;
        let g = t.clone() + 2.0;
        let tape = IntervalTape::compile(&[f.clone(), g.clone()]);
        let env = IntervalEnv::new(&[f, g]);
        assert_eq!(tape.len(), env.len());
        assert_eq!(tape.var_slots().len(), 1);
    }

    #[test]
    fn backward_contracts_linear() {
        // root = x - 3; impose root <= 0 by meeting the root slot, then
        // backward: x must drop to <= 3.
        let e = var(0) - 3.0;
        let tape = IntervalTape::compile(std::slice::from_ref(&e));
        let mut vals = tape.scratch();
        tape.forward(&[interval(0.0, 10.0)], &mut vals);
        let root = tape.root_slot(0) as usize;
        vals[root] = vals[root].intersect(&Interval::new(f64::NEG_INFINITY, 0.0));
        assert!(tape.backward(&mut vals, &mut vec![true; tape.len()]));
        let (xslot, v) = tape.var_slots()[0];
        assert_eq!(v, 0);
        assert!(vals[xslot as usize].hi <= 3.0 + 1e-9);
    }

    #[test]
    fn backward_reports_emptiness() {
        // x^2 + 1 <= 0 is infeasible: meeting the root with (-inf, 0] and
        // running backward must prove emptiness.
        let e = var(0).powi(2) + 1.0;
        let tape = IntervalTape::compile(std::slice::from_ref(&e));
        let mut vals = tape.scratch();
        tape.forward(&[interval(-10.0, 10.0)], &mut vals);
        let root = tape.root_slot(0) as usize;
        vals[root] = vals[root].intersect(&Interval::new(f64::NEG_INFINITY, 0.0));
        assert!(vals[root].is_empty() || !tape.backward(&mut vals, &mut vec![true; tape.len()]));
    }

    #[test]
    fn forward_meet_tightens_parents() {
        let e = var(0) + constant(1.0);
        let tape = IntervalTape::compile(std::slice::from_ref(&e));
        let mut vals = tape.scratch();
        tape.forward(&[interval(0.0, 4.0)], &mut vals);
        // Narrow the variable slot by hand, then re-tighten the sum.
        let (xslot, _) = tape.var_slots()[0];
        vals[xslot as usize] = interval(0.0, 1.0);
        tape.forward_meet(&mut vals, &mut vec![false; tape.len()]);
        let root = vals[tape.root_slot(0) as usize];
        assert!(root.hi <= 2.0 + 1e-12, "{root:?}");
    }

    #[test]
    fn constant_folding_keeps_enclosures() {
        // exp(2)·x: folded to one interval leaf that still brackets the real
        // e² (an f64 point would not), with the forward value unchanged.
        let e = constant(2.0).exp() * var(0);
        let tape = IntervalTape::compile(std::slice::from_ref(&e));
        let env = IntervalEnv::new(std::slice::from_ref(&e));
        assert!(tape.len() < env.len());
        let mut vals = tape.scratch();
        let dom = [interval(1.0, 1.0)];
        tape.forward(&dom, &mut vals);
        let got = vals[tape.root_slot(0) as usize];
        assert_eq!(got, e.eval_interval(&dom));
        assert!(got.lo <= std::f64::consts::E.powi(2));
        assert!(got.hi >= std::f64::consts::E.powi(2));
        assert!(got.lo < got.hi, "rounding must survive the fold: {got:?}");
    }

    #[test]
    fn constant_folding_backward_still_contracts() {
        // x·sqrt(2) <= 1 over [0, 10]: impose the root bound and contract —
        // x must drop to ~1/√2 with the constant folded away.
        let e = var(0) * constant(2.0).sqrt();
        let tape = IntervalTape::compile(std::slice::from_ref(&e));
        let mut vals = tape.scratch();
        tape.forward(&[interval(0.0, 10.0)], &mut vals);
        let root = tape.root_slot(0) as usize;
        vals[root] = vals[root].intersect(&Interval::new(f64::NEG_INFINITY, 1.0));
        assert!(tape.backward(&mut vals, &mut vec![true; tape.len()]));
        let (xslot, v) = tape.var_slots()[0];
        assert_eq!(v, 0);
        assert!(vals[xslot as usize].hi <= 1.0 / 2f64.sqrt() + 1e-9);
    }

    #[test]
    fn deps_track_transitive_variable_cones() {
        // f = exp(x0) + x1 * 2: the exp slot depends only on x0, the mul
        // slot only on x1, the sum on both; the folded constant on neither.
        let e = var(0).exp() + var(1) * 2.0;
        let tape = IntervalTape::compile(std::slice::from_ref(&e));
        assert_eq!(tape.var_mask(), 0b11);
        let root = tape.root_slot(0) as usize;
        assert_eq!(tape.deps()[root], 0b11);
        let (x0_slot, _) = tape
            .var_slots()
            .iter()
            .find(|&&(_, v)| v == 0)
            .copied()
            .unwrap();
        let (x1_slot, _) = tape
            .var_slots()
            .iter()
            .find(|&&(_, v)| v == 1)
            .copied()
            .unwrap();
        assert_eq!(tape.deps()[x0_slot as usize], 0b01);
        assert_eq!(tape.deps()[x1_slot as usize], 0b10);
        // Some non-leaf slot depends on exactly x0 but not x1 (the exp).
        assert!(tape
            .deps()
            .iter()
            .enumerate()
            .any(|(i, &d)| d == 0b01 && i != x0_slot as usize));
    }

    #[test]
    fn forward_from_matches_full_forward_bitwise() {
        // A DAG mixing per-axis cones and shared nodes; rebisect each axis
        // in turn and check the dirty-slot passes reproduce the full pass
        // bit for bit (`PartialEq` on Interval is IEEE equality, which
        // takes −0.0 for +0.0, so the bounds are compared by `to_bits`).
        let x = var(0);
        let y = var(1);
        let z = var(2);
        let shared = (x.clone() * y.clone() + 1.0).sqrt();
        let e = shared.clone() * z.clone().exp() + shared.clone().ln() + y.clone().tanh();
        let tape = IntervalTape::compile(std::slice::from_ref(&e));
        let parent = [interval(0.5, 2.0), interval(0.1, 1.5), interval(-1.0, 1.0)];
        let mut vals = tape.scratch();
        tape.forward(&parent, &mut vals);
        for axis in 0..3u32 {
            let mut child = parent;
            let (lo, hi) = (parent[axis as usize].lo, parent[axis as usize].hi);
            child[axis as usize] = interval(lo, 0.5 * (lo + hi));
            // Dirty-slot passes from the parent image...
            let mut partial = vals.clone();
            tape.forward_from(axis, &child, &mut partial);
            let mut seeded = tape.scratch();
            tape.forward_from_image(&vals, &child, &mut seeded);
            // ...must equal a from-scratch forward pass over the child.
            let mut full = tape.scratch();
            tape.forward(&child, &mut full);
            assert!(bits(&partial) == bits(&full), "forward_from, axis {axis}");
            assert!(
                bits(&seeded) == bits(&full),
                "forward_from_image, axis {axis}"
            );
        }
    }

    #[test]
    fn portable_round_trip_is_bit_identical() {
        // A program touching every structural feature: shared nodes, folded
        // interval constants (irrational bounds), powi with a negative
        // exponent, min/abs, and two roots.
        let x = var(0);
        let y = var(1);
        let shared = (x.clone() * y.clone() + constant(2.0).sqrt()).sqrt();
        let r0 = shared.clone() * x.clone().powi(-2) + y.clone().tanh();
        let r1 = shared.min(&y.clone().abs()) + constant(1.0).exp();
        let tape = IntervalTape::compile(&[r0, r1]);
        let text = tape.to_portable();
        let back = IntervalTape::from_portable(&text).expect("round trip parses");
        assert_eq!(back.len(), tape.len());
        assert_eq!(back.var_slots(), tape.var_slots());
        assert_eq!(back.deps(), tape.deps());
        assert_eq!(back.root_slot(0), tape.root_slot(0));
        assert_eq!(back.root_slot(1), tape.root_slot(1));
        // Bit-identical forward/backward behaviour on a real box.
        let dom = [interval(0.3, 1.7), interval(-0.9, 2.1)];
        let mut a = tape.scratch();
        let mut b = back.scratch();
        tape.forward(&dom, &mut a);
        back.forward(&dom, &mut b);
        assert_eq!(a, b);
        let root = tape.root_slot(0) as usize;
        a[root] = a[root].intersect(&Interval::new(f64::NEG_INFINITY, 0.5));
        b[root] = b[root].intersect(&Interval::new(f64::NEG_INFINITY, 0.5));
        let mut all = vec![true; tape.len()];
        assert_eq!(
            tape.backward(&mut a, &mut all.clone()),
            back.backward(&mut b, &mut all)
        );
        assert_eq!(a, b);
        // And the text itself is stable under a second round trip.
        assert_eq!(back.to_portable(), text);
    }

    #[test]
    fn portable_rejects_malformed_programs() {
        for bad in [
            "",                    // no separator
            "var 0",               // no roots section
            "add 0 1|0",           // forward reference (operand >= own slot)
            "var 0;frob 0|1",      // unknown opcode
            "var 0|7",             // root out of range
            "var 0;neg 0|",        // empty roots
            "const nan|0",         // NaN constant
            "var 0;neg 0 3|1",     // trailing operand
            "var 0;powi 0 2.5|1",  // non-integer exponent
            "const 1;exp 0 |zero", // non-numeric root
        ] {
            assert!(
                IntervalTape::from_portable(bad).is_err(),
                "accepted malformed tape {bad:?}"
            );
        }
    }

    /// A random child enclosure as the parent's forward pass saw it, and
    /// the sub-interval it has narrowed to since (as other parents' rules
    /// narrow a shared child before the sweep reaches this parent). The
    /// first is zero-width, zero-containing, half-infinite, `ENTIRE`, a
    /// general finite interval or (rarely) empty; the second keeps it,
    /// collapses it to one of its bounds or takes a random sub-interval.
    struct Child;

    /// An exact 0 or ±1, or a signed magnitude: mostly within 1e±6, now and
    /// then anywhere from 1e-300 to 1e300 (overflow and underflow edges).
    fn value(rng: &mut TestRng) -> f64 {
        let sign = if rng.below(2) == 0 { -1.0 } else { 1.0 };
        match rng.below(8) {
            0 => 0.0,
            1 => sign,
            2 => sign * 10f64.powf(600.0 * rng.unit_f64() - 300.0),
            _ => sign * 10f64.powf(12.0 * rng.unit_f64() - 6.0),
        }
    }

    /// A point of the non-empty interval `iv`, finite where `iv` allows.
    fn inside(iv: Interval, rng: &mut TestRng) -> f64 {
        let u = rng.unit_f64();
        match (iv.lo.is_finite(), iv.hi.is_finite()) {
            (true, true) => (iv.lo + u * (iv.hi - iv.lo)).clamp(iv.lo, iv.hi),
            (true, false) => iv.lo + value(rng).abs(),
            (false, true) => iv.hi - value(rng).abs(),
            (false, false) => value(rng),
        }
    }

    impl Strategy for Child {
        type Value = (Interval, Interval);
        fn generate(&self, rng: &mut TestRng) -> (Interval, Interval) {
            let (a, b) = (value(rng), value(rng));
            let old = match rng.below(13) {
                0 => Interval::EMPTY,
                1 | 2 => Interval::point(a),
                3 | 4 => Interval::new(-a.abs(), b.abs()),
                5 => Interval::new(0.0, b.abs()),
                6 => Interval::new(-a.abs(), 0.0),
                7 => Interval::new(a, f64::INFINITY),
                8 => Interval::new(f64::NEG_INFINITY, a),
                9 => Interval::ENTIRE,
                _ => Interval::new(a.min(b), a.max(b)),
            };
            if old.is_empty() {
                return (old, old);
            }
            let now = match rng.below(5) {
                0 | 1 => old,
                2 if old.lo.is_finite() => Interval::point(old.lo),
                3 if old.hi.is_finite() => Interval::point(old.hi),
                _ => {
                    let (p, q) = (inside(old, rng), inside(old, rng));
                    Interval::new(p.min(q), p.max(q))
                }
            };
            (old, now)
        }
    }

    /// Every operation, on operand slots 0..=2 with its result in slot 3.
    fn every_op() -> Vec<Instr> {
        let mut ops = vec![
            Instr::Add(0, 1),
            Instr::Mul(0, 1),
            Instr::Div(0, 1),
            Instr::Neg(0),
            Instr::Pow(0, 1),
            Instr::Exp(0),
            Instr::Ln(0),
            Instr::Sqrt(0),
            Instr::Cbrt(0),
            Instr::Atan(0),
            Instr::Sin(0),
            Instr::Cos(0),
            Instr::Tanh(0),
            Instr::Abs(0),
            Instr::Min(0, 1),
            Instr::Max(0, 1),
            Instr::LambertW(0),
            Instr::Ite(0, 1, 2),
        ];
        ops.extend((-3..=8).chain([16]).map(|n| Instr::PowI(0, n)));
        ops
    }

    fn bits(vals: &[Interval]) -> Vec<(u64, u64)> {
        vals.iter()
            .map(|v| (v.lo.to_bits(), v.hi.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The clean-slot skip in `backward` is exact: for every operation
        /// `total` admits, the inverse rule run on the parent's unchanged
        /// forward image leaves every child bit-identical, flags none of
        /// them and reports no emptiness (an empty image — only from an
        /// empty child — is reported by the emptiness test the sweep still
        /// runs on skipped slots). Whitelisting a partial operation fails
        /// here: `sqrt` or `ln` over [−1, 4] clip the child to [0, 4], `div`
        /// empties its numerator once the divisor narrows to [0, 0], and
        /// `ite` narrows its condition when a branch is empty.
        #[test]
        fn clean_slot_inverse_rules_change_nothing(c0 in Child, c1 in Child, c2 in Child) {
            for op in every_op().into_iter().filter(|&op| total(op)) {
                let mut vals = vec![c0.0, c1.0, c2.0, Interval::ENTIRE];
                vals[3] = eval_op(op, &vals);
                let image = vals[3];
                vals[..3].copy_from_slice(&[c0.1, c1.1, c2.1]);
                let before = bits(&vals);
                let mut dirty = [false; 4];
                let ok = backward_step(3, op, &mut vals, &mut dirty);
                prop_assert_eq!(
                    ok,
                    !image.is_empty(),
                    "{:?} over {:?} -> {:?}: emptiness reported {}",
                    op, (c0, c1, c2), image, !ok
                );
                prop_assert!(
                    bits(&vals) == before,
                    "{:?} over {:?} -> {:?} narrowed a child to {:?}",
                    op, (c0, c1, c2), image, &vals[..3]
                );
                prop_assert_eq!(dirty, [false; 4]);
            }
        }
    }

    #[test]
    fn scratch_reuse_across_boxes() {
        let e = var(0).powi(2);
        let tape = IntervalTape::compile(std::slice::from_ref(&e));
        let mut vals = tape.scratch();
        tape.forward(&[interval(1.0, 2.0)], &mut vals);
        assert!(vals[tape.root_slot(0) as usize].contains(4.0));
        tape.forward(&[interval(3.0, 4.0)], &mut vals);
        let v = vals[tape.root_slot(0) as usize];
        assert!(v.contains(16.0) && !v.contains(4.0));
    }
}
