//! The seed solver architecture, vendored verbatim as a benchmark baseline.
//!
//! Before the compile-once rework, `DeltaSolver::solve` rebuilt its HC4
//! contractor — topological sort, `HashMap` slot maps, op lowering over the
//! expression DAG — on **every** box, ran forward interval passes through
//! `IntervalEnv`'s per-child hash lookups, and scored branches with the
//! allocating recursive `Expr::eval`. `solver_bench` measures the production
//! session path against this module so the reported speedups compare against
//! what the code actually did, not against a weakened strawman. Nothing
//! outside the benchmarks may use this.

use std::time::Instant;
use xcv_expr::{Expr, IntervalEnv, Kind};
use xcv_interval::{round, Interval};
use xcv_solver::{BoxDomain, DeltaSolver, Formula, Outcome, Rel, SolveStats};

/// Outcome of a contraction (private mirror of the seed's enum).
enum Contraction {
    Empty,
    Box(BoxDomain),
}

/// Node operation with pre-resolved child indices (the seed's lowering).
#[derive(Clone, Copy)]
enum Op {
    Leaf,
    Var,
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
    Sin,
    Cos,
    Tanh(u32),
    Abs(u32),
    Min(u32, u32),
    Max(u32, u32),
    LambertW(u32),
    Ite(u32, u32, u32),
}

/// The seed's HC4 contractor over `IntervalEnv` (hash-mapped slot storage).
struct SeedHc4 {
    env: IntervalEnv,
    ops: Vec<Op>,
    roots: Vec<(usize, Interval)>,
    var_slots: Vec<(usize, u32)>,
    max_rounds: usize,
}

impl SeedHc4 {
    fn new(formula: &Formula) -> SeedHc4 {
        let roots_exprs: Vec<Expr> = formula.atoms.iter().map(|a| a.expr.clone()).collect();
        let env = IntervalEnv::new(&roots_exprs);
        let idx = |e: &Expr| env.index_of(e).expect("node in env") as u32;
        let mut ops = Vec::with_capacity(env.len());
        let mut var_slots = Vec::new();
        for (i, e) in env.order().iter().enumerate() {
            let op = match e.kind() {
                Kind::Const(_) => Op::Leaf,
                Kind::Var(v) => {
                    var_slots.push((i, *v));
                    Op::Var
                }
                Kind::Add(a, b) => Op::Add(idx(a), idx(b)),
                Kind::Mul(a, b) => Op::Mul(idx(a), idx(b)),
                Kind::Div(a, b) => Op::Div(idx(a), idx(b)),
                Kind::Neg(a) => Op::Neg(idx(a)),
                Kind::PowI(a, n) => Op::PowI(idx(a), *n),
                Kind::Pow(a, b) => Op::Pow(idx(a), idx(b)),
                Kind::Exp(a) => Op::Exp(idx(a)),
                Kind::Ln(a) => Op::Ln(idx(a)),
                Kind::Sqrt(a) => Op::Sqrt(idx(a)),
                Kind::Cbrt(a) => Op::Cbrt(idx(a)),
                Kind::Atan(a) => Op::Atan(idx(a)),
                Kind::Sin(_) => Op::Sin,
                Kind::Cos(_) => Op::Cos,
                Kind::Tanh(a) => Op::Tanh(idx(a)),
                Kind::Abs(a) => Op::Abs(idx(a)),
                Kind::Min(a, b) => Op::Min(idx(a), idx(b)),
                Kind::Max(a, b) => Op::Max(idx(a), idx(b)),
                Kind::LambertW(a) => Op::LambertW(idx(a)),
                Kind::Ite {
                    cond,
                    then,
                    otherwise,
                } => Op::Ite(idx(cond), idx(then), idx(otherwise)),
            };
            ops.push(op);
        }
        let roots = formula
            .atoms
            .iter()
            .map(|a| (env.index_of(&a.expr).expect("root in env"), a.rel.allowed()))
            .collect();
        SeedHc4 {
            env,
            ops,
            roots,
            var_slots,
            max_rounds: 3,
        }
    }

    fn contract(&mut self, b: &BoxDomain) -> Contraction {
        self.env.forward(b.dims());
        let mut current = b.clone();
        for round in 0..self.max_rounds {
            if round > 0 {
                self.env.forward_meet();
            }
            for &(idx, allowed) in &self.roots {
                if self.env.meet_at(idx, allowed).is_empty() {
                    return Contraction::Empty;
                }
            }
            if !self.backward() {
                return Contraction::Empty;
            }
            let mut next = current.clone();
            for &(idx, v) in &self.var_slots {
                if (v as usize) >= current.ndim() {
                    continue;
                }
                let dom = self.env.value_at(idx);
                let met = dom.intersect(&current.dim(v as usize));
                if met.is_empty() {
                    return Contraction::Empty;
                }
                next.set_dim(v as usize, met);
            }
            let gain = improvement(&current, &next);
            current = next;
            if gain < 0.05 {
                break;
            }
        }
        Contraction::Box(current)
    }

    fn backward(&mut self) -> bool {
        for i in (0..self.ops.len()).rev() {
            let d = self.env.value_at(i);
            if d.is_empty() {
                return false;
            }
            let op = self.ops[i];
            match op {
                Op::Leaf | Op::Var => {}
                Op::Add(a, b) => {
                    let (ca, cb) = (self.val(a), self.val(b));
                    if !self.meet(a, d.sub(&cb)) || !self.meet(b, d.sub(&ca)) {
                        return false;
                    }
                }
                Op::Mul(a, b) => {
                    let (ca, cb) = (self.val(a), self.val(b));
                    if !self.meet(a, d.div(&cb)) || !self.meet(b, d.div(&ca)) {
                        return false;
                    }
                }
                Op::Div(a, b) => {
                    let (ca, cb) = (self.val(a), self.val(b));
                    if !self.meet(a, d.mul(&cb)) || !self.meet(b, ca.div(&d)) {
                        return false;
                    }
                }
                Op::Neg(a) => {
                    if !self.meet(a, d.neg()) {
                        return false;
                    }
                }
                Op::PowI(a, n) => {
                    if !self.backward_powi(a, n, d) {
                        return false;
                    }
                }
                Op::Pow(a, b) => {
                    let (ca, cb) = (self.val(a), self.val(b));
                    if ca.certainly_gt(0.0) {
                        let dpos = d.intersect(&Interval::new(0.0, f64::INFINITY));
                        if dpos.is_empty() {
                            return false;
                        }
                        let ld = dpos.ln();
                        if !ld.is_empty() {
                            let la = ca.ln();
                            if !self.meet(a, ld.div(&cb).exp()) {
                                return false;
                            }
                            if !la.is_empty() && !self.meet(b, ld.div(&la)) {
                                return false;
                            }
                        }
                    }
                }
                Op::Exp(a) => {
                    let pre = d.ln();
                    if pre.is_empty() || !self.meet(a, pre) {
                        return false;
                    }
                }
                Op::Ln(a) => {
                    if !self.meet(a, d.exp()) {
                        return false;
                    }
                }
                Op::Sqrt(a) => {
                    let dpos = d.intersect(&Interval::new(0.0, f64::INFINITY));
                    if dpos.is_empty() {
                        return false;
                    }
                    if !self.meet(a, dpos.powi(2)) {
                        return false;
                    }
                }
                Op::Cbrt(a) => {
                    if !self.meet(a, d.powi(3)) {
                        return false;
                    }
                }
                Op::Atan(a) => {
                    let range =
                        Interval::new(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
                    let dc = d.intersect(&range);
                    if dc.is_empty() {
                        return false;
                    }
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
                    if !self.meet(a, Interval::checked(lo, hi)) {
                        return false;
                    }
                }
                Op::Sin | Op::Cos => {
                    if d.intersect(&Interval::new(-1.0, 1.0)).is_empty() {
                        return false;
                    }
                }
                Op::Tanh(a) => {
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
                            // The tape rule's `atanh`, so the equivalence
                            // tests compare the architectures, not two
                            // roundings of one inverse.
                            let v = x.abs().atanh().copysign(x);
                            if up {
                                round::libm_hi(v)
                            } else {
                                round::libm_lo(v)
                            }
                        }
                    };
                    if !self.meet(
                        a,
                        Interval::checked(atanh(dc.lo, false), atanh(dc.hi, true)),
                    ) {
                        return false;
                    }
                }
                Op::Abs(a) => {
                    let dpos = d.intersect(&Interval::new(0.0, f64::INFINITY));
                    if dpos.is_empty() {
                        return false;
                    }
                    let ca = self.val(a);
                    let pre = ca.intersect(&dpos).hull(&ca.intersect(&dpos.neg()));
                    if pre.is_empty() {
                        return false;
                    }
                    self.env.set_value_at(a as usize, pre);
                }
                Op::Min(a, b) => {
                    let (ca, cb) = (self.val(a), self.val(b));
                    let floor = Interval::new(d.lo, f64::INFINITY);
                    let mut na = ca.intersect(&floor);
                    let mut nb = cb.intersect(&floor);
                    if cb.lo > d.hi {
                        na = na.intersect(&d);
                    }
                    if ca.lo > d.hi {
                        nb = nb.intersect(&d);
                    }
                    if na.is_empty() || nb.is_empty() {
                        return false;
                    }
                    self.env.set_value_at(a as usize, na);
                    self.env.set_value_at(b as usize, nb);
                }
                Op::Max(a, b) => {
                    let (ca, cb) = (self.val(a), self.val(b));
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
                    self.env.set_value_at(a as usize, na);
                    self.env.set_value_at(b as usize, nb);
                }
                Op::LambertW(a) => {
                    if !self.meet(a, d.mul(&d.exp())) {
                        return false;
                    }
                }
                Op::Ite(c, t, e) => {
                    let cc = self.val(c);
                    if cc.certainly_ge(0.0) {
                        if !self.meet(t, d) {
                            return false;
                        }
                    } else if cc.certainly_lt(0.0) {
                        if !self.meet(e, d) {
                            return false;
                        }
                    } else {
                        let ct = self.val(t);
                        let ce = self.val(e);
                        let then_possible = !ct.intersect(&d).is_empty();
                        let else_possible = !ce.intersect(&d).is_empty();
                        match (then_possible, else_possible) {
                            (false, false) => return false,
                            (false, true) => {
                                if !self.meet(c, Interval::new(f64::NEG_INFINITY, 0.0))
                                    || !self.meet(e, d)
                                {
                                    return false;
                                }
                            }
                            (true, false) => {
                                if !self.meet(c, Interval::new(0.0, f64::INFINITY))
                                    || !self.meet(t, d)
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

    #[inline]
    fn val(&self, idx: u32) -> Interval {
        self.env.value_at(idx as usize)
    }

    #[inline]
    fn meet(&mut self, idx: u32, narrow: Interval) -> bool {
        !self.env.meet_at(idx as usize, narrow).is_empty()
    }

    fn backward_powi(&mut self, a: u32, n: i32, d: Interval) -> bool {
        if n == 0 {
            return !d.intersect(&Interval::ONE).is_empty();
        }
        if n < 0 {
            let dinv = d.recip();
            return self.backward_powi(a, -n, dinv);
        }
        if n % 2 == 1 {
            self.meet(a, d.nth_root(n))
        } else {
            let dpos = d.intersect(&Interval::new(0.0, f64::INFINITY));
            if dpos.is_empty() {
                return false;
            }
            let r = dpos.nth_root(n);
            let ca = self.val(a);
            let pre = ca.intersect(&r).hull(&ca.intersect(&r.neg()));
            if pre.is_empty() {
                return false;
            }
            self.env.set_value_at(a as usize, pre);
            true
        }
    }
}

fn improvement(before: &BoxDomain, after: &BoxDomain) -> f64 {
    let mut best: f64 = 0.0;
    for i in 0..before.ndim() {
        let wb = before.dim(i).width();
        let wa = after.dim(i).width();
        if wb > 0.0 && wb.is_finite() {
            best = best.max((wb - wa) / wb);
        } else if wb.is_infinite() && wa.is_finite() {
            best = 1.0;
        }
    }
    best
}

/// The seed `DeltaSolver::solve_with_stats` (its mean-value path omitted —
/// the solver has no such option): contractor rebuilt per call, branch
/// scoring through the recursive memoizing evaluator.
pub fn seed_solve_with_stats(
    solver: &DeltaSolver,
    domain: &BoxDomain,
    formula: &Formula,
) -> (Outcome, SolveStats) {
    let mut stats = SolveStats::default();
    if domain.is_empty() {
        return (Outcome::Unsat, stats);
    }
    let start = Instant::now();
    let mut hc4 = SeedHc4::new(formula);
    let mut stack: Vec<(BoxDomain, u32)> = vec![(domain.clone(), 0)];
    let width_floor = solver.delta.max(1e-12);
    while let Some((b, depth)) = stack.pop() {
        stats.nodes += 1;
        stats.max_depth = stats.max_depth.max(depth);
        if stats.nodes > solver.budget.max_nodes
            || (stats.nodes % 64 == 0
                && start.elapsed().as_millis() as u64 > solver.budget.max_millis)
        {
            return (Outcome::Timeout, stats);
        }
        let contracted = match hc4.contract(&b) {
            Contraction::Empty => {
                stats.pruned += 1;
                continue;
            }
            Contraction::Box(nb) => nb,
        };
        if contracted.is_empty() {
            stats.pruned += 1;
            continue;
        }
        let mid = contracted.midpoint();
        if formula.holds_at(&mid) {
            return (Outcome::DeltaSat(mid), stats);
        }
        if contracted.max_width() <= width_floor {
            return (Outcome::DeltaSat(mid), stats);
        }
        let (l, r) = contracted.bisect_widest();
        stats.branched += 1;
        let score = |bx: &BoxDomain| -> f64 {
            let m = bx.midpoint();
            formula
                .atoms
                .iter()
                .map(|a| match a.expr.eval(&m) {
                    Ok(v) if !v.is_nan() => match a.rel {
                        Rel::Le | Rel::Lt => v.max(0.0),
                        Rel::Ge | Rel::Gt => (-v).max(0.0),
                    },
                    _ => f64::INFINITY,
                })
                .fold(0.0, f64::max)
        };
        let (sl, sr) = (score(&l), score(&r));
        if sl <= sr {
            if !r.is_empty() {
                stack.push((r, depth + 1));
            }
            if !l.is_empty() {
                stack.push((l, depth + 1));
            }
        } else {
            if !l.is_empty() {
                stack.push((l, depth + 1));
            }
            if !r.is_empty() {
                stack.push((r, depth + 1));
            }
        }
    }
    (Outcome::Unsat, stats)
}
