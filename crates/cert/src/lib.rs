//! Replayable proof certificates for XCVerifier verdicts.
//!
//! A Table I/II mark is only as trustworthy as the solver run that produced
//! it. This crate makes each verdict an *auditable artifact*: the solver
//! records, per verified pair, the box cover its branch-and-prune search
//! explored (every prune, every split, every δ-witness), and the campaign
//! serializes it — together with the compiled interval program
//! ([`xcv_expr::IntervalTape::to_portable`]) — into a [`Certificate`]. The
//! checker here then *replays* the certificate against the interval kernels
//! alone:
//!
//! * every `verified` region's trace is re-walked: each pruned leaf is
//!   re-contracted with this crate's own HC4 loop (forward / meet /
//!   backward over the deserialized tape) and must come back **empty**;
//!   each split must be sound (our contraction lands inside the recorded
//!   contracted box, which lies inside the box being split);
//! * every `counterexample` witness is re-evaluated in interval arithmetic
//!   at the witness point — the condition expression's enclosure must be
//!   disjoint from the relation's allowed set, so the violation is real,
//!   not a rounding artifact;
//! * the recorded region cover must tile the stated domain exactly (the
//!   verifier's recursive `split_all` tree, replayed by bisection).
//!
//! Trust base: `xcv-interval` (outward-rounded arithmetic) and the tape
//! re-evaluator in `xcv-expr`. **No dependency on `xcv-solver` or
//! `xcv-core`** — the checker shares no search code with the prover whose
//! output it audits. The `xcvcheck` binary wraps [`check`] for CI and
//! third parties.

//! Solver runs that use the escalation ladder record two further step
//! kinds, both replayed here: a `Shave` step (3B slab shaving) is
//! re-established *independently* — the checker forward-evaluates the main
//! tape over the recorded slab and requires some atom's enclosure to miss
//! its allowed set — while `Newton`/`NewtonPruned` steps are re-contracted
//! through the exact shared driver
//! ([`xcv_expr::newton::newton_contract`]) over the gradient tapes the
//! certificate carries in its `newton` section. Those gradient tapes extend
//! the trust base: the checker verifies the *contraction logic* from them,
//! but their claim — root 0 is atom `i`'s expression and root `j+1` its
//! partial along `axes[j]` — is the emitter's, bound at emission time (the
//! campaign derives them symbolically from the same expressions that
//! produced the main tape, then replays the certificate once before
//! attaching it).

pub mod json;
pub mod store;

use json::{escape, fmt_f64, Json};
use xcv_expr::newton::{newton_contract, NewtonAtom, NewtonScratch};
use xcv_expr::IntervalTape;
use xcv_interval::Interval;

/// Relation of an atom `expr REL 0` — mirrors the solver's `Rel`
/// (re-declared here so the checker stays independent of `xcv-solver`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    Le,
    Lt,
    Ge,
    Gt,
}

impl Rel {
    pub fn symbol(self) -> &'static str {
        match self {
            Rel::Le => "<=",
            Rel::Lt => "<",
            Rel::Ge => ">=",
            Rel::Gt => ">",
        }
    }

    pub fn parse(s: &str) -> Result<Rel, String> {
        match s {
            "<=" => Ok(Rel::Le),
            "<" => Ok(Rel::Lt),
            ">=" => Ok(Rel::Ge),
            ">" => Ok(Rel::Gt),
            other => Err(format!("unknown relation {other:?}")),
        }
    }

    /// The closed set of allowed values (the closure of the relation —
    /// identical to the solver's pruning set, so replayed contractions
    /// match bit for bit).
    pub fn allowed(self) -> Interval {
        match self {
            Rel::Le | Rel::Lt => Interval::new(f64::NEG_INFINITY, 0.0),
            Rel::Ge | Rel::Gt => Interval::new(0.0, f64::INFINITY),
        }
    }
}

/// One step of a recorded branch-and-prune search, in pop (DFS) order.
#[derive(Debug, Clone, PartialEq)]
pub enum CertEvent {
    /// The box on top of the replay stack contracts to empty.
    Pruned,
    /// The box stayed undecided: it contracted to `contracted` and was
    /// bisected along `axis`; `low_first` says which half was explored
    /// first (i.e. pushed last).
    Split {
        contracted: Vec<Interval>,
        axis: usize,
        low_first: bool,
    },
    /// Rung 1 of the escalation ladder tightened the current box to
    /// `contracted` (intermediate: the node's terminal step follows).
    /// Requires the certificate's `newton` section.
    Newton { contracted: Vec<Interval> },
    /// Rung 1 proved the current box has no solution (terminal, like
    /// `Pruned`). Requires the `newton` section.
    NewtonPruned,
    /// Rung 2 shaved a slab off one face of the current box: axis `axis`'s
    /// high bound (when `high_face`, else its low bound) moved to `bound`.
    /// Intermediate, possibly repeated; verified independently of the
    /// solver by a forward evaluation over the main tape.
    Shave {
        axis: usize,
        high_face: bool,
        bound: f64,
    },
}

/// One atom's gradient program in the certificate's `newton` section: a
/// portable tape whose root 0 is the atom's expression and root `j + 1`
/// its partial derivative along variable axis `axes[j]` (axes strictly
/// ascending — the sweep order is part of the replay contract).
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonAtomCert {
    pub tape: String,
    pub axes: Vec<u32>,
}

/// Gradient data for replaying `Newton`/`NewtonPruned` steps: the sweep
/// count the solver ran with and one entry per atom (`None` when the
/// atom's gradient overflowed the solver's lowering and rung 1 skipped it).
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonSection {
    pub sweeps: usize,
    pub atoms: Vec<Option<NewtonAtomCert>>,
}

/// The verdict a certificate claims for one region of the cover.
#[derive(Debug, Clone, PartialEq)]
pub enum CertVerdict {
    /// The negation of the condition is UNSAT on this region; `trace`
    /// replays the proof.
    Verified { trace: Vec<CertEvent> },
    /// The condition is violated at `witness` (a point inside the region).
    Counterexample { witness: Vec<f64> },
    /// No claim (solver undecided) — participates in the tiling only.
    Inconclusive,
    /// No claim (budget exhausted) — participates in the tiling only.
    Timeout,
}

impl CertVerdict {
    fn status_str(&self) -> &'static str {
        match self {
            CertVerdict::Verified { .. } => "verified",
            CertVerdict::Counterexample { .. } => "counterexample",
            CertVerdict::Inconclusive => "inconclusive",
            CertVerdict::Timeout => "timeout",
        }
    }
}

/// One region of the verifier's cover.
#[derive(Debug, Clone, PartialEq)]
pub struct CertRegion {
    pub bounds: Vec<Interval>,
    pub verdict: CertVerdict,
}

/// A replayable record of one (functional, condition) verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    pub functional: String,
    pub condition: String,
    /// The solver's δ (recorded for provenance; the replay itself is
    /// δ-free — prunes must be exactly empty and witnesses exactly
    /// violating in interval arithmetic).
    pub delta: f64,
    /// HC4 forward/backward rounds per contraction call during the
    /// original solve; the replay runs the same count.
    pub max_rounds: usize,
    /// The compiled interval program, serialized with
    /// [`IntervalTape::to_portable`]. Root `i` is atom `i`'s expression.
    pub tape: String,
    /// Relation of each atom of the *negation* formula the solver decided
    /// (atom `i` constrains tape root `i`).
    pub atom_rels: Vec<Rel>,
    /// The condition ψ itself, as a tape root index plus relation — what a
    /// witness must violate.
    pub psi_atom: usize,
    pub psi_rel: Rel,
    /// The domain the cover must tile.
    pub domain: Vec<Interval>,
    pub regions: Vec<CertRegion>,
    /// Present iff any verified trace contains `Newton`/`NewtonPruned`
    /// steps (escalation-ladder runs).
    pub newton: Option<NewtonSection>,
}

/// Current schema tag written by [`Certificate::to_json`].
pub const SCHEMA: &str = "xcv-cert/v2";
/// Previous schema (no `newton` section, no ladder step kinds) — still
/// accepted by [`Certificate::parse`].
pub const SCHEMA_V1: &str = "xcv-cert/v1";

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn write_box(out: &mut String, b: &[Interval]) {
    out.push('[');
    for (i, d) in b.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        out.push_str(&fmt_f64(d.lo));
        out.push_str(", ");
        out.push_str(&fmt_f64(d.hi));
        out.push(']');
    }
    out.push(']');
}

fn write_point(out: &mut String, p: &[f64]) {
    out.push('[');
    for (i, v) in p.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&fmt_f64(*v));
    }
    out.push(']');
}

impl Certificate {
    /// Serialize to the hand-rolled JSON this crate's [`Certificate::parse`]
    /// reads back exactly (shortest-round-trip `f64` rendering throughout).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!(
            "  \"functional\": \"{}\",\n",
            escape(&self.functional)
        ));
        out.push_str(&format!(
            "  \"condition\": \"{}\",\n",
            escape(&self.condition)
        ));
        out.push_str(&format!("  \"delta\": {},\n", fmt_f64(self.delta)));
        out.push_str(&format!("  \"max_rounds\": {},\n", self.max_rounds));
        out.push_str(&format!("  \"tape\": \"{}\",\n", escape(&self.tape)));
        out.push_str("  \"atom_rels\": [");
        for (i, r) in self.atom_rels.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", r.symbol()));
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"psi\": {{\"atom\": {}, \"rel\": \"{}\"}},\n",
            self.psi_atom,
            self.psi_rel.symbol()
        ));
        if let Some(n) = &self.newton {
            out.push_str(&format!(
                "  \"newton\": {{\"sweeps\": {}, \"atoms\": [",
                n.sweeps
            ));
            for (i, a) in n.atoms.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match a {
                    None => out.push_str("null"),
                    Some(a) => {
                        out.push_str(&format!("{{\"tape\": \"{}\", \"axes\": [", escape(&a.tape)));
                        for (k, ax) in a.axes.iter().enumerate() {
                            if k > 0 {
                                out.push_str(", ");
                            }
                            out.push_str(&ax.to_string());
                        }
                        out.push_str("]}");
                    }
                }
            }
            out.push_str("]},\n");
        }
        out.push_str("  \"domain\": ");
        write_box(&mut out, &self.domain);
        out.push_str(",\n  \"regions\": [\n");
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("    {\"box\": ");
            write_box(&mut out, &r.bounds);
            out.push_str(&format!(", \"status\": \"{}\"", r.verdict.status_str()));
            match &r.verdict {
                CertVerdict::Verified { trace } => {
                    out.push_str(", \"trace\": [");
                    for (k, ev) in trace.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        match ev {
                            CertEvent::Pruned => out.push_str("[\"p\"]"),
                            CertEvent::Split {
                                contracted,
                                axis,
                                low_first,
                            } => {
                                out.push_str(&format!(
                                    "[\"s\", {axis}, {}, ",
                                    u8::from(*low_first)
                                ));
                                write_box(&mut out, contracted);
                                out.push(']');
                            }
                            CertEvent::Newton { contracted } => {
                                out.push_str("[\"n\", ");
                                write_box(&mut out, contracted);
                                out.push(']');
                            }
                            CertEvent::NewtonPruned => out.push_str("[\"np\"]"),
                            CertEvent::Shave {
                                axis,
                                high_face,
                                bound,
                            } => {
                                out.push_str(&format!(
                                    "[\"3\", {axis}, {}, {}]",
                                    u8::from(*high_face),
                                    fmt_f64(*bound)
                                ));
                            }
                        }
                    }
                    out.push(']');
                }
                CertVerdict::Counterexample { witness } => {
                    out.push_str(", \"witness\": ");
                    write_point(&mut out, witness);
                }
                CertVerdict::Inconclusive | CertVerdict::Timeout => {}
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a certificate serialized by [`Certificate::to_json`].
    pub fn parse(text: &str) -> Result<Certificate, String> {
        let doc = Json::parse(text)?;
        let schema = doc.want("schema")?.as_str()?;
        if schema != SCHEMA && schema != SCHEMA_V1 {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?} or {SCHEMA_V1:?})"
            ));
        }
        let atom_rels = doc
            .want("atom_rels")?
            .as_arr()?
            .iter()
            .map(|r| Rel::parse(r.as_str()?))
            .collect::<Result<Vec<_>, _>>()?;
        let psi = doc.want("psi")?;
        let mut regions = Vec::new();
        for (i, r) in doc.want("regions")?.as_arr()?.iter().enumerate() {
            let bounds = parse_box(r.want("box")?).map_err(|e| format!("region {i}: {e}"))?;
            let verdict = match r.want("status")?.as_str()? {
                "verified" => {
                    let mut trace = Vec::new();
                    for (k, ev) in r.want("trace")?.as_arr()?.iter().enumerate() {
                        let parts = ev.as_arr()?;
                        let tag = parts
                            .first()
                            .ok_or_else(|| format!("region {i}: empty trace event {k}"))?
                            .as_str()?;
                        match tag {
                            "p" => trace.push(CertEvent::Pruned),
                            "s" => {
                                if parts.len() != 4 {
                                    return Err(format!(
                                        "region {i}: split event {k} needs 4 elements"
                                    ));
                                }
                                trace.push(CertEvent::Split {
                                    axis: parts[1].as_usize()?,
                                    low_first: parts[2].as_f64()? != 0.0,
                                    contracted: parse_box(&parts[3])
                                        .map_err(|e| format!("region {i}, event {k}: {e}"))?,
                                });
                            }
                            "n" => {
                                if parts.len() != 2 {
                                    return Err(format!(
                                        "region {i}: newton event {k} needs 2 elements"
                                    ));
                                }
                                trace.push(CertEvent::Newton {
                                    contracted: parse_box(&parts[1])
                                        .map_err(|e| format!("region {i}, event {k}: {e}"))?,
                                });
                            }
                            "np" => trace.push(CertEvent::NewtonPruned),
                            "3" => {
                                if parts.len() != 4 {
                                    return Err(format!(
                                        "region {i}: shave event {k} needs 4 elements"
                                    ));
                                }
                                trace.push(CertEvent::Shave {
                                    axis: parts[1].as_usize()?,
                                    high_face: parts[2].as_f64()? != 0.0,
                                    bound: parts[3].as_f64()?,
                                });
                            }
                            other => {
                                return Err(format!(
                                    "region {i}: unknown trace event tag {other:?}"
                                ))
                            }
                        }
                    }
                    CertVerdict::Verified { trace }
                }
                "counterexample" => CertVerdict::Counterexample {
                    witness: r
                        .want("witness")?
                        .as_arr()?
                        .iter()
                        .map(Json::as_f64)
                        .collect::<Result<Vec<_>, _>>()?,
                },
                "inconclusive" => CertVerdict::Inconclusive,
                "timeout" => CertVerdict::Timeout,
                other => return Err(format!("region {i}: unknown status {other:?}")),
            };
            regions.push(CertRegion { bounds, verdict });
        }
        let newton = match doc.get("newton") {
            None => None,
            Some(n) => {
                let mut atoms = Vec::new();
                for (i, a) in n.want("atoms")?.as_arr()?.iter().enumerate() {
                    atoms.push(match a {
                        Json::Null => None,
                        _ => Some(NewtonAtomCert {
                            tape: a.want("tape")?.as_str()?.to_string(),
                            axes: a
                                .want("axes")?
                                .as_arr()?
                                .iter()
                                .map(|x| x.as_usize().map(|v| v as u32))
                                .collect::<Result<Vec<_>, _>>()
                                .map_err(|e| format!("newton atom {i}: {e}"))?,
                        }),
                    });
                }
                Some(NewtonSection {
                    sweeps: n.want("sweeps")?.as_usize()?,
                    atoms,
                })
            }
        };
        Ok(Certificate {
            functional: doc.want("functional")?.as_str()?.to_string(),
            condition: doc.want("condition")?.as_str()?.to_string(),
            delta: doc.want("delta")?.as_f64()?,
            max_rounds: doc.want("max_rounds")?.as_usize()?,
            tape: doc.want("tape")?.as_str()?.to_string(),
            atom_rels,
            psi_atom: psi.want("atom")?.as_usize()?,
            psi_rel: Rel::parse(psi.want("rel")?.as_str()?)?,
            domain: parse_box(doc.want("domain")?)?,
            regions,
            newton,
        })
    }
}

fn parse_box(v: &Json) -> Result<Vec<Interval>, String> {
    v.as_arr()?
        .iter()
        .map(|d| {
            let pair = d.as_arr()?;
            if pair.len() != 2 {
                return Err("interval needs exactly [lo, hi]".to_string());
            }
            let (lo, hi) = (pair[0].as_f64()?, pair[1].as_f64()?);
            if lo.is_nan() || hi.is_nan() || lo > hi {
                return Err(format!("bad interval [{lo}, {hi}]"));
            }
            Ok(Interval::new(lo, hi))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The replay checker
// ---------------------------------------------------------------------------

/// What a successful [`check`] established.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Regions in the cover.
    pub regions: usize,
    /// Pruned leaves re-contracted (or re-Newton'd) to empty across all
    /// verified regions.
    pub replayed_leaves: usize,
    /// Witnesses re-evaluated as genuine interval violations.
    pub witnesses: usize,
    /// `Newton`/`NewtonPruned` steps replayed through the shared driver.
    pub newton_steps: usize,
    /// `Shave` slabs independently re-proven infeasible.
    pub shaved_slabs: usize,
}

/// The checker's own HC4 contraction — a from-scratch replica of the
/// solver's round loop (forward; per round: meet parents, impose atom
/// relations at the roots, backward sweep, extract variable domains, stop
/// when the largest relative width gain drops below 5%), built only on the
/// deserialized tape's public passes. Every slot is flagged dirty before
/// each backward sweep, so every inverse rule runs: this is the reference
/// the solver's clean-slot skip must reproduce bit for bit. `atoms` pairs
/// each atom's root slot with its relation's allowed set; `vals` is left
/// holding the slot file. Returns `None` when the box is proven empty.
pub fn contract(
    tape: &IntervalTape,
    atoms: &[(usize, Interval)],
    max_rounds: usize,
    b: &[Interval],
    vals: &mut Vec<Interval>,
) -> Option<Vec<Interval>> {
    vals.clear();
    vals.resize(tape.len(), Interval::ENTIRE);
    let mut dirty = vec![true; tape.len()];
    tape.forward(b, vals);
    let mut current = b.to_vec();
    for round in 0..max_rounds {
        if round > 0 {
            tape.forward_meet(vals, &mut dirty);
            dirty.fill(true);
        }
        for &(slot, allowed) in atoms {
            let met = vals[slot].intersect(&allowed);
            if met.is_empty() {
                return None;
            }
            vals[slot] = met;
        }
        if !tape.backward(vals, &mut dirty) {
            return None;
        }
        let mut next = current.clone();
        for &(slot, v) in tape.var_slots() {
            if (v as usize) >= current.len() {
                continue;
            }
            let met = vals[slot as usize].intersect(&current[v as usize]);
            if met.is_empty() {
                return None;
            }
            next[v as usize] = met;
        }
        let gain = improvement(&current, &next);
        current = next;
        if gain < 0.05 {
            break;
        }
    }
    Some(current)
}

/// Largest relative per-axis width reduction (the solver's round-stop
/// metric, replicated).
fn improvement(before: &[Interval], after: &[Interval]) -> f64 {
    let mut best = 0.0_f64;
    for (b, a) in before.iter().zip(after) {
        let wb = b.width();
        let wa = a.width();
        if wb > 0.0 && wb.is_finite() {
            best = best.max((wb - wa) / wb);
        } else if wb.is_infinite() && wa.is_finite() {
            best = 1.0;
        }
    }
    best
}

fn subset(inner: &[Interval], outer: &[Interval]) -> bool {
    inner
        .iter()
        .zip(outer)
        .all(|(i, o)| i.is_empty() || (o.lo <= i.lo && i.hi <= o.hi))
}

fn contains_point(b: &[Interval], p: &[f64]) -> bool {
    b.len() == p.len() && b.iter().zip(p).all(|(d, &x)| d.lo <= x && x <= d.hi)
}

/// Validated gradient programs for replaying ladder steps, built once per
/// certificate from its `newton` section.
/// One replayable rung-1 atom: gradient tape, per-axis gradient slot map,
/// and the allowed range of the mean-value enclosure.
type ReplayAtom = (IntervalTape, Vec<(u32, u32)>, Interval);

struct NewtonReplay {
    sweeps: usize,
    /// Non-`None` atoms only, in atom order — the same filtering the
    /// solver's rung 1 applies, so the shared driver sees the identical
    /// atom sequence.
    atoms: Vec<ReplayAtom>,
}

impl NewtonReplay {
    /// Run the shared Newton driver over a copy of `dims`. `None` when the
    /// driver proves the box has no solution.
    fn apply(&self, dims: &[Interval], scratch: &mut NewtonScratch) -> Option<Vec<Interval>> {
        let atoms: Vec<NewtonAtom<'_>> = self
            .atoms
            .iter()
            .map(|(tape, grads, allowed)| NewtonAtom {
                tape,
                grads,
                allowed: *allowed,
            })
            .collect();
        let mut out = dims.to_vec();
        newton_contract(&atoms, &mut out, self.sweeps, scratch).then_some(out)
    }
}

/// Replay one verified region's trace: maintain the recorded DFS stack,
/// re-contract every pruned leaf to emptiness, and validate every split's
/// soundness.
///
/// Per node the replay tracks two boxes: `cur`, the *recorded* box (what
/// the solver claims the node narrowed to so far), and `own`, the
/// checker's independent enclosure of every solution inside the node
/// (`None` once proven empty — later claims on the node are vacuously
/// sound but must still be structurally consumed). Intermediate ladder
/// steps transform the pair in place; terminal steps pop the node.
/// Soundness invariant maintained throughout: every solution of the
/// popped box lies in `own`, so a recorded narrowing to `R` is accepted
/// exactly when the checker's own (sound) machinery lands inside `R`.
#[allow(clippy::too_many_arguments)]
fn replay_verified(
    tape: &IntervalTape,
    atoms: &[(usize, Interval)],
    max_rounds: usize,
    region: &[Interval],
    trace: &[CertEvent],
    vals: &mut Vec<Interval>,
    newton: Option<&NewtonReplay>,
    nscratch: &mut NewtonScratch,
    report: &mut CheckReport,
) -> Result<(), String> {
    let mut stack: Vec<Vec<Interval>> = vec![region.to_vec()];
    // The node the intermediate events operate on; `None` between a
    // terminal event and the next pop.
    let mut active: Option<(Vec<Interval>, Option<Vec<Interval>>)> = None;
    let need_newton = |k: usize| -> Result<&NewtonReplay, String> {
        newton.ok_or_else(|| format!("event {k}: ladder step but no newton section"))
    };
    for (k, ev) in trace.iter().enumerate() {
        if active.is_none() {
            let b = stack
                .pop()
                .ok_or_else(|| format!("event {k}: trace continues past an exhausted cover"))?;
            let own = contract(tape, atoms, max_rounds, &b, vals);
            active = Some((b, own));
        }
        let (cur, own) = active.as_mut().expect("activated above");
        let done = match ev {
            CertEvent::Pruned => {
                if own.is_some() {
                    return Err(format!(
                        "event {k}: recorded prune does not contract to empty"
                    ));
                }
                report.replayed_leaves += 1;
                true
            }
            CertEvent::NewtonPruned => {
                let nr = need_newton(k)?;
                if let Some(h) = own {
                    if nr.apply(h, nscratch).is_some() {
                        return Err(format!(
                            "event {k}: recorded newton prune is not reproduced by the driver"
                        ));
                    }
                }
                report.replayed_leaves += 1;
                report.newton_steps += 1;
                true
            }
            CertEvent::Newton { contracted: r } => {
                let nr = need_newton(k)?;
                if r.len() != cur.len() {
                    return Err(format!("event {k}: malformed newton step"));
                }
                if !subset(r, cur) {
                    return Err(format!(
                        "event {k}: recorded newton result escapes the current box"
                    ));
                }
                if let Some(h) = own.take() {
                    match nr.apply(&h, nscratch) {
                        // Driver proved the node empty — stronger than the
                        // recorded narrowing; `own` stays `None`.
                        None => {}
                        Some(n) => {
                            if !subset(&n, r) {
                                return Err(format!(
                                    "event {k}: recorded newton step drops part of the \
                                     feasible set"
                                ));
                            }
                            *own = Some(n);
                        }
                    }
                }
                *cur = r.clone();
                report.newton_steps += 1;
                false
            }
            CertEvent::Shave {
                axis,
                high_face,
                bound,
            } => {
                if *axis >= cur.len() || !bound.is_finite() {
                    return Err(format!("event {k}: malformed shave step"));
                }
                let d = cur[*axis];
                if !(d.lo < *bound && *bound < d.hi) {
                    return Err(format!("event {k}: shave bound outside the axis"));
                }
                // Independent re-proof: the shaved slab, evaluated through
                // the main tape, must violate some atom outright.
                let mut slab = cur.clone();
                slab[*axis] = if *high_face {
                    Interval::new(*bound, d.hi)
                } else {
                    Interval::new(d.lo, *bound)
                };
                vals.clear();
                vals.resize(tape.len(), Interval::ENTIRE);
                tape.forward(&slab, vals);
                let infeasible = atoms
                    .iter()
                    .any(|&(slot, allowed)| vals[slot].intersect(&allowed).is_empty());
                if !infeasible {
                    return Err(format!(
                        "event {k}: recorded shave slab is not provably infeasible"
                    ));
                }
                cur[*axis] = if *high_face {
                    Interval::new(d.lo, *bound)
                } else {
                    Interval::new(*bound, d.hi)
                };
                let emptied = own.as_mut().is_some_and(|h| {
                    let met = h[*axis].intersect(&cur[*axis]);
                    h[*axis] = met;
                    met.is_empty()
                });
                if emptied {
                    *own = None;
                }
                report.shaved_slabs += 1;
                false
            }
            CertEvent::Split {
                contracted,
                axis,
                low_first,
            } => {
                if contracted.len() != cur.len() || *axis >= cur.len() {
                    return Err(format!("event {k}: malformed split"));
                }
                if !subset(contracted, cur) {
                    return Err(format!(
                        "event {k}: recorded contraction escapes the box being split"
                    ));
                }
                // Soundness of discarding box \ contracted: the checker's
                // own enclosure (sound for every solution in the box) must
                // land inside the recorded contracted box. An empty own
                // enclosure means the box holds no solutions — the
                // recorded split explores vacuously true children, which
                // is sound (they must still replay).
                if let Some(h) = own {
                    if !subset(h, contracted) {
                        return Err(format!(
                            "event {k}: recorded contraction drops part of the feasible set"
                        ));
                    }
                }
                let (lo_half, hi_half) = contracted[*axis].bisect();
                let mut lo_box = contracted.clone();
                lo_box[*axis] = lo_half;
                let mut hi_box = contracted.clone();
                hi_box[*axis] = hi_half;
                // The half explored first was pushed last.
                if *low_first {
                    stack.push(hi_box);
                    stack.push(lo_box);
                } else {
                    stack.push(lo_box);
                    stack.push(hi_box);
                }
                true
            }
        };
        if done {
            active = None;
        }
    }
    if active.is_some() {
        return Err("trace ended mid-node (ladder step without a terminal)".to_string());
    }
    if !stack.is_empty() {
        return Err(format!(
            "trace ended with {} unexplored boxes on the stack",
            stack.len()
        ));
    }
    Ok(())
}

/// Check that the region boxes `idx` tile `b` exactly, replaying the
/// verifier's recursive `2^n`-way bisection (`split_all`): a box either
/// equals one region or splits into children that each tile recursively.
fn check_tiling(
    b: &[Interval],
    idx: &[usize],
    regions: &[CertRegion],
    depth: usize,
) -> Result<(), String> {
    if idx.len() == 1 && regions[idx[0]].bounds == b {
        return Ok(());
    }
    if idx.is_empty() {
        return Err("a subdomain is not covered by any region".to_string());
    }
    if depth > 64 {
        return Err("cover nesting exceeds any plausible verifier depth".to_string());
    }
    let n = b.len();
    if n > 16 {
        return Err(format!("{n}-dimensional domain out of range"));
    }
    let halves: Vec<(Interval, Interval)> = b.iter().map(Interval::bisect).collect();
    let child = |mask: usize| -> Vec<Interval> {
        (0..n)
            .map(|i| {
                if mask & (1 << i) == 0 {
                    halves[i].0
                } else {
                    halves[i].1
                }
            })
            .collect()
    };
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); 1 << n];
    'regions: for &ri in idx {
        for (mask, bucket) in buckets.iter_mut().enumerate() {
            if subset(&regions[ri].bounds, &child(mask)) {
                bucket.push(ri);
                continue 'regions;
            }
        }
        return Err(format!(
            "region box {:?} straddles the bisection of {:?}",
            regions[ri].bounds, b
        ));
    }
    for (mask, bucket) in buckets.iter().enumerate() {
        check_tiling(&child(mask), bucket, regions, depth + 1)?;
    }
    Ok(())
}

/// Replay `cert` against the interval kernels alone. `Ok` means every
/// claim in the certificate was independently re-established:
///
/// 1. the cover tiles the stated domain;
/// 2. every `verified` region's trace replays — each pruned leaf really
///    contracts to empty, each split really keeps every solution;
/// 3. every `counterexample` witness lies in its region and genuinely
///    violates ψ in outward-rounded interval arithmetic.
pub fn check(cert: &Certificate) -> Result<CheckReport, String> {
    let tape = IntervalTape::from_portable(&cert.tape)?;
    if cert.atom_rels.is_empty() {
        return Err("certificate has no atoms".to_string());
    }
    if cert.atom_rels.len() > tape.num_roots() {
        return Err(format!(
            "{} atom relations but only {} tape roots",
            cert.atom_rels.len(),
            tape.num_roots()
        ));
    }
    if cert.psi_atom >= cert.atom_rels.len() {
        return Err(format!("psi atom {} out of range", cert.psi_atom));
    }
    if !(1..=16).contains(&cert.max_rounds) {
        return Err(format!("implausible max_rounds {}", cert.max_rounds));
    }
    let ndim = cert.domain.len();
    if ndim == 0 || cert.domain.iter().any(Interval::is_empty) {
        return Err("empty or zero-dimensional domain".to_string());
    }
    let atoms: Vec<(usize, Interval)> = cert
        .atom_rels
        .iter()
        .enumerate()
        .map(|(i, r)| (tape.root_slot(i) as usize, r.allowed()))
        .collect();
    let psi_slot = tape.root_slot(cert.psi_atom) as usize;
    let psi_allowed = cert.psi_rel.allowed();

    // Validate and compile the newton section (gradient programs for the
    // ladder's rung-1 steps) once, up front.
    let newton = match &cert.newton {
        None => None,
        Some(section) => {
            if !(1..=16).contains(&section.sweeps) {
                return Err(format!("implausible newton sweeps {}", section.sweeps));
            }
            if section.atoms.len() != cert.atom_rels.len() {
                return Err(format!(
                    "newton section has {} atoms but the formula has {}",
                    section.atoms.len(),
                    cert.atom_rels.len()
                ));
            }
            let mut compiled = Vec::new();
            for (i, spec) in section.atoms.iter().enumerate() {
                let Some(spec) = spec else { continue };
                let gtape = IntervalTape::from_portable(&spec.tape)
                    .map_err(|e| format!("newton atom {i}: {e}"))?;
                if gtape.num_roots() != 1 + spec.axes.len() {
                    return Err(format!(
                        "newton atom {i}: {} roots for {} gradient axes",
                        gtape.num_roots(),
                        spec.axes.len()
                    ));
                }
                if !spec.axes.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("newton atom {i}: gradient axes not ascending"));
                }
                let grads: Vec<(u32, u32)> = spec
                    .axes
                    .iter()
                    .enumerate()
                    .map(|(j, &axis)| (axis, (j + 1) as u32))
                    .collect();
                compiled.push((gtape, grads, cert.atom_rels[i].allowed()));
            }
            Some(NewtonReplay {
                sweeps: section.sweeps,
                atoms: compiled,
            })
        }
    };
    let mut nscratch = NewtonScratch::default();

    // 1. The cover tiles the domain.
    for (i, r) in cert.regions.iter().enumerate() {
        if r.bounds.len() != ndim {
            return Err(format!("region {i}: dimension mismatch"));
        }
        if r.bounds.iter().any(Interval::is_empty) {
            return Err(format!("region {i}: empty box in the cover"));
        }
    }
    let all: Vec<usize> = (0..cert.regions.len()).collect();
    check_tiling(&cert.domain, &all, &cert.regions, 0)?;

    // 2 & 3. Per-region claims.
    let mut report = CheckReport {
        regions: cert.regions.len(),
        ..CheckReport::default()
    };
    let mut vals = tape.scratch();
    for (i, r) in cert.regions.iter().enumerate() {
        match &r.verdict {
            CertVerdict::Verified { trace } => {
                replay_verified(
                    &tape,
                    &atoms,
                    cert.max_rounds,
                    &r.bounds,
                    trace,
                    &mut vals,
                    newton.as_ref(),
                    &mut nscratch,
                    &mut report,
                )
                .map_err(|e| format!("region {i}: {e}"))?;
            }
            CertVerdict::Counterexample { witness } => {
                if witness.len() != ndim || witness.iter().any(|v| v.is_nan()) {
                    return Err(format!("region {i}: malformed witness"));
                }
                if !contains_point(&r.bounds, witness) {
                    return Err(format!("region {i}: witness lies outside its region"));
                }
                let point: Vec<Interval> = witness.iter().map(|&v| Interval::point(v)).collect();
                vals.clear();
                vals.resize(tape.len(), Interval::ENTIRE);
                tape.forward(&point, &mut vals);
                let enclosure = vals[psi_slot];
                if !enclosure.intersect(&psi_allowed).is_empty() {
                    return Err(format!(
                        "region {i}: witness does not violate ψ (enclosure [{}, {}] meets {})",
                        enclosure.lo,
                        enclosure.hi,
                        cert.psi_rel.symbol()
                    ));
                }
                report.witnesses += 1;
            }
            CertVerdict::Inconclusive | CertVerdict::Timeout => {}
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcv_expr::var;

    /// Hand-build the certificate machinery around `x^2 + 1 <= 0` over
    /// [-2, 2] (the canonical unsatisfiable negation): one pruned leaf
    /// after one split proves the whole domain.
    fn tape_for(e: &xcv_expr::Expr) -> String {
        IntervalTape::compile(std::slice::from_ref(e)).to_portable()
    }

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    fn unsat_cert() -> Certificate {
        // x^2 + 1 <= 0 prunes immediately on any box.
        Certificate {
            functional: "toy".into(),
            condition: "toy-cond".into(),
            delta: 1e-3,
            max_rounds: 3,
            tape: tape_for(&(var(0).powi(2) + 1.0)),
            atom_rels: vec![Rel::Le],
            psi_atom: 0,
            psi_rel: Rel::Gt,
            domain: vec![iv(-2.0, 2.0)],
            regions: vec![CertRegion {
                bounds: vec![iv(-2.0, 2.0)],
                verdict: CertVerdict::Verified {
                    trace: vec![CertEvent::Pruned],
                },
            }],
            newton: None,
        }
    }

    #[test]
    fn honest_unsat_certificate_checks() {
        let report = check(&unsat_cert()).expect("honest certificate");
        assert_eq!(report.regions, 1);
        assert_eq!(report.replayed_leaves, 1);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let cert = unsat_cert();
        let text = cert.to_json();
        let back = Certificate::parse(&text).expect("parses");
        assert_eq!(back, cert);
        check(&back).expect("round-tripped certificate still checks");
    }

    #[test]
    fn witness_claims_are_replayed() {
        // ψ: -x >= 0 (i.e. x <= 0); witness x = 1 genuinely violates.
        let mut cert = unsat_cert();
        cert.tape = tape_for(&(-var(0)));
        cert.atom_rels = vec![Rel::Lt];
        cert.psi_rel = Rel::Ge;
        cert.regions = vec![CertRegion {
            bounds: vec![iv(-2.0, 2.0)],
            verdict: CertVerdict::Counterexample { witness: vec![1.0] },
        }];
        assert_eq!(check(&cert).unwrap().witnesses, 1);
        // A non-violating "witness" (x = -1 satisfies -x >= 0) is rejected.
        cert.regions = vec![CertRegion {
            bounds: vec![iv(-2.0, 2.0)],
            verdict: CertVerdict::Counterexample {
                witness: vec![-1.0],
            },
        }];
        assert!(check(&cert).is_err());
        // A witness outside its region is rejected.
        cert.regions = vec![CertRegion {
            bounds: vec![iv(-2.0, 2.0)],
            verdict: CertVerdict::Counterexample { witness: vec![3.0] },
        }];
        assert!(check(&cert).is_err());
    }

    #[test]
    fn cover_must_tile_the_domain() {
        // Two half-regions tile; a gap or an overlap must not.
        let half = |lo: f64, hi: f64| CertRegion {
            bounds: vec![iv(lo, hi)],
            verdict: CertVerdict::Inconclusive,
        };
        let mut cert = unsat_cert();
        cert.regions = vec![half(-2.0, 0.0), half(0.0, 2.0)];
        check(&cert).expect("exact halves tile");
        cert.regions = vec![half(-2.0, 0.0), half(1.0, 2.0)];
        assert!(check(&cert).is_err(), "gapped cover accepted");
        cert.regions = vec![half(-2.0, 0.0), half(-1.0, 2.0)];
        assert!(check(&cert).is_err(), "straddling cover accepted");
        cert.regions = vec![half(-2.0, 0.0)];
        assert!(check(&cert).is_err(), "missing half accepted");
    }

    #[test]
    fn fake_prunes_are_rejected() {
        // x - 10 <= 0 is satisfiable everywhere on [-2, 2]: claiming a
        // prune there must fail the replay.
        let mut cert = unsat_cert();
        cert.tape = tape_for(&(var(0) - 10.0));
        assert!(check(&cert).is_err());
    }

    #[test]
    fn split_replay_walks_both_halves() {
        // A two-level honest trace: split [-2, 2] at 0, prune both halves.
        let mut cert = unsat_cert();
        cert.regions = vec![CertRegion {
            bounds: vec![iv(-2.0, 2.0)],
            verdict: CertVerdict::Verified {
                trace: vec![
                    CertEvent::Split {
                        contracted: vec![iv(-2.0, 2.0)],
                        axis: 0,
                        low_first: true,
                    },
                    CertEvent::Pruned,
                    CertEvent::Pruned,
                ],
            },
        }];
        assert_eq!(check(&cert).unwrap().replayed_leaves, 2);
        // Truncating the trace (an unexplored half) must fail.
        cert.regions = vec![CertRegion {
            bounds: vec![iv(-2.0, 2.0)],
            verdict: CertVerdict::Verified {
                trace: vec![
                    CertEvent::Split {
                        contracted: vec![iv(-2.0, 2.0)],
                        axis: 0,
                        low_first: true,
                    },
                    CertEvent::Pruned,
                ],
            },
        }];
        assert!(check(&cert).is_err(), "half-explored cover accepted");
    }

    /// A newton section for a single-atom certificate: tape `[g, dg/dx…]`
    /// over the expression's free variables, built the way the solver's
    /// mean-value lowering builds it.
    fn newton_section_for(e: &xcv_expr::Expr, sweeps: usize) -> NewtonSection {
        let mut roots = vec![e.clone()];
        let mut axes = Vec::new();
        for v in e.free_vars() {
            axes.push(v);
            roots.push(e.diff(v));
        }
        NewtonSection {
            sweeps,
            atoms: vec![Some(NewtonAtomCert {
                tape: IntervalTape::compile(&roots).to_portable(),
                axes,
            })],
        }
    }

    /// x − x² − 0.26 ≥ 0 is infeasible (max 0.25), but HC4 cannot prune
    /// [0.45, 0.55] — the mean-value enclosure of the shared Newton driver
    /// can. The certificate records that as a `NewtonPruned` leaf.
    fn ladder_cert() -> Certificate {
        let e = var(0) - var(0).powi(2) - 0.26;
        let mut cert = unsat_cert();
        cert.tape = tape_for(&e);
        cert.atom_rels = vec![Rel::Ge];
        cert.psi_rel = Rel::Lt;
        cert.domain = vec![iv(0.45, 0.55)];
        cert.regions = vec![CertRegion {
            bounds: vec![iv(0.45, 0.55)],
            verdict: CertVerdict::Verified {
                trace: vec![CertEvent::NewtonPruned],
            },
        }];
        cert.newton = Some(newton_section_for(&e, 2));
        cert
    }

    #[test]
    fn newton_pruned_leaf_replays_through_the_driver() {
        let report = check(&ladder_cert()).expect("honest newton prune");
        assert_eq!(report.replayed_leaves, 1);
        assert_eq!(report.newton_steps, 1);
        // Plain `Pruned` on the same box must fail: HC4 alone cannot
        // contract it to empty — only the Newton driver proves it.
        let mut plain = ladder_cert();
        plain.regions[0].verdict = CertVerdict::Verified {
            trace: vec![CertEvent::Pruned],
        };
        assert!(
            check(&plain).is_err(),
            "HC4 prune accepted on a stalled box"
        );
    }

    #[test]
    fn ladder_steps_require_the_newton_section() {
        let mut cert = ladder_cert();
        cert.newton = None;
        assert!(check(&cert).is_err());
    }

    #[test]
    fn fake_newton_prunes_are_rejected() {
        // x − 0.2 ≥ 0 is satisfiable on [0.45, 0.55]; claiming a Newton
        // prune there must fail the driver replay.
        let e = var(0) - 0.2;
        let mut cert = ladder_cert();
        cert.tape = tape_for(&e);
        cert.newton = Some(newton_section_for(&e, 2));
        assert!(check(&cert).is_err());
    }

    #[test]
    fn newton_step_soundness_is_subset_checked() {
        // A no-op Newton step (recorded box = current box) is vacuously
        // sound; the driver then proves the node empty, so the plain
        // terminal Pruned is accepted.
        let mut cert = ladder_cert();
        cert.regions[0].verdict = CertVerdict::Verified {
            trace: vec![
                CertEvent::Newton {
                    contracted: vec![iv(0.45, 0.55)],
                },
                CertEvent::Pruned,
            ],
        };
        check(&cert).expect("no-op newton step then driver-proved prune");
        // A Newton step whose recorded box escapes the current box is
        // structurally unsound regardless of the driver.
        cert.regions[0].verdict = CertVerdict::Verified {
            trace: vec![
                CertEvent::Newton {
                    contracted: vec![iv(0.4, 0.6)],
                },
                CertEvent::Pruned,
            ],
        };
        assert!(check(&cert).is_err(), "escaping newton step accepted");
    }

    #[test]
    fn shave_slabs_are_independently_reproven() {
        // x + 10 ≤ 0 over [0, 1]: the [0.6, 1] slab is genuinely
        // infeasible (as is the whole box — the terminal prune replays).
        let mut cert = unsat_cert();
        cert.tape = tape_for(&(var(0) + 10.0));
        cert.domain = vec![iv(0.0, 1.0)];
        cert.regions = vec![CertRegion {
            bounds: vec![iv(0.0, 1.0)],
            verdict: CertVerdict::Verified {
                trace: vec![
                    CertEvent::Shave {
                        axis: 0,
                        high_face: true,
                        bound: 0.6,
                    },
                    CertEvent::Pruned,
                ],
            },
        }];
        let report = check(&cert).expect("honest shave");
        assert_eq!(report.shaved_slabs, 1);
        // x − 10 ≤ 0 holds everywhere: the same slab is feasible, so the
        // recorded shave must be rejected.
        let mut feasible = cert.clone();
        feasible.tape = tape_for(&(var(0) - 10.0));
        assert!(check(&feasible).is_err(), "feasible slab shaved");
        // A shave bound outside the current axis range is malformed.
        let mut outside = cert.clone();
        if let CertVerdict::Verified { trace } = &mut outside.regions[0].verdict {
            trace[0] = CertEvent::Shave {
                axis: 0,
                high_face: true,
                bound: 1.5,
            };
        }
        assert!(
            check(&outside).is_err(),
            "out-of-range shave bound accepted"
        );
    }

    #[test]
    fn ladder_certificates_round_trip_and_v1_still_parses() {
        let cert = ladder_cert();
        let text = cert.to_json();
        assert!(text.contains("xcv-cert/v2"));
        let back = Certificate::parse(&text).expect("v2 parses");
        assert_eq!(back, cert);
        check(&back).expect("round-tripped ladder certificate still checks");
        // A v1 document (no newton section, no ladder steps) stays valid.
        let v1 = unsat_cert().to_json().replace("xcv-cert/v2", "xcv-cert/v1");
        let old = Certificate::parse(&v1).expect("v1 parses");
        assert_eq!(old.newton, None);
        check(&old).expect("v1 certificate still checks");
    }

    #[test]
    fn overtight_recorded_contraction_is_rejected() {
        // x <= 0 over [-2, 2] contracts to [-2, 0]; recording a tighter
        // box (dropping feasible points) must fail the soundness check.
        let mut cert = unsat_cert();
        cert.tape = tape_for(&var(0));
        cert.regions = vec![CertRegion {
            bounds: vec![iv(-2.0, 2.0)],
            verdict: CertVerdict::Verified {
                trace: vec![
                    CertEvent::Split {
                        contracted: vec![iv(-0.5, 0.0)],
                        axis: 0,
                        low_first: true,
                    },
                    CertEvent::Pruned,
                    CertEvent::Pruned,
                ],
            },
        }];
        assert!(check(&cert).is_err());
    }
}
