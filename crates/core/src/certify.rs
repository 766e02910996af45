//! Certificate *emission*: turn a traced verifier run into an
//! [`xcv_cert::Certificate`] that the independent `xcvcheck` replayer can
//! audit without any of this crate's (or the solver's) search code.
//!
//! Every solver configuration is replayable: HC4 contraction re-runs over
//! the main tape, and the escalation ladder's Newton steps replay through
//! the shared driver over gradient programs the certificate carries (3B
//! shaves are re-proven from the main tape). Emission is still
//! conservative about the *run*: a certificate is attached only with
//! complete traces on every verified leaf and no cancelled regions, and
//! only after this module has *already replayed it once* through
//! [`xcv_cert::check`]. A pair that cannot be certified simply carries
//! `None`; it never blocks the campaign.

use crate::encoder::EncodedProblem;
use crate::region::RegionStatus;
use crate::verifier::{RunOutput, VerifierConfig};
use xcv_cert::{CertEvent, CertRegion, CertVerdict, Certificate};
use xcv_solver::{Rel, TraceEvent};

fn cert_rel(rel: Rel) -> xcv_cert::Rel {
    match rel {
        Rel::Le => xcv_cert::Rel::Le,
        Rel::Lt => xcv_cert::Rel::Lt,
        Rel::Ge => xcv_cert::Rel::Ge,
        Rel::Gt => xcv_cert::Rel::Gt,
    }
}

/// Build (and pre-validate) a certificate for one verified pair. `None`
/// when the run is not replayable; see the module docs.
pub fn build_certificate(
    problem: &EncodedProblem,
    config: &VerifierConfig,
    out: &RunOutput,
) -> Option<Certificate> {
    if out.map.regions.len() != out.details.len() {
        return None;
    }
    // Set when any trace contains escalation-ladder steps: the certificate
    // then carries the gradient programs the checker replays them with.
    let mut ladder = false;
    let mut regions = Vec::with_capacity(out.map.regions.len());
    for (region, detail) in out.map.regions.iter().zip(&out.details) {
        let verdict = match &region.status {
            RegionStatus::Verified => {
                let trace = detail.trace.as_ref()?;
                if !trace.complete {
                    return None;
                }
                let mut events = Vec::with_capacity(trace.events.len());
                for ev in &trace.events {
                    match ev {
                        TraceEvent::Pruned => events.push(CertEvent::Pruned),
                        TraceEvent::Split {
                            contracted,
                            axis,
                            low_first,
                        } => events.push(CertEvent::Split {
                            contracted: contracted.dims().to_vec(),
                            axis: *axis as usize,
                            low_first: *low_first,
                        }),
                        TraceEvent::Newton { contracted } => {
                            ladder = true;
                            events.push(CertEvent::Newton {
                                contracted: contracted.dims().to_vec(),
                            });
                        }
                        TraceEvent::NewtonPruned => {
                            ladder = true;
                            events.push(CertEvent::NewtonPruned);
                        }
                        TraceEvent::Shave {
                            axis,
                            high_face,
                            bound,
                        } => {
                            ladder = true;
                            events.push(CertEvent::Shave {
                                axis: *axis as usize,
                                high_face: *high_face,
                                bound: *bound,
                            });
                        }
                        // An Unsat run never records a Sat event; seeing one
                        // means the trace does not certify this region.
                        TraceEvent::Sat { .. } => return None,
                    }
                }
                CertVerdict::Verified { trace: events }
            }
            RegionStatus::Counterexample(witness) => CertVerdict::Counterexample {
                witness: witness.clone(),
            },
            RegionStatus::Inconclusive => CertVerdict::Inconclusive,
            RegionStatus::Timeout => CertVerdict::Timeout,
            // A partially-run (resumable) map makes no whole-domain claim.
            RegionStatus::Cancelled => return None,
        };
        regions.push(CertRegion {
            bounds: region.domain.dims().to_vec(),
            verdict,
        });
    }
    let compiled = problem.compiled();
    // Ladder traces carry the gradient programs (the very programs the
    // solver's rung 1 ran on) so the checker can replay Newton steps
    // through the shared driver.
    let newton = ladder.then(|| xcv_cert::NewtonSection {
        sweeps: config.solver.escalation.newton_sweeps,
        atoms: compiled
            .newton_portable()
            .into_iter()
            .map(|a| a.map(|(tape, axes)| xcv_cert::NewtonAtomCert { tape, axes }))
            .collect(),
    });
    let cert = Certificate {
        functional: problem.functional_name(),
        condition: format!("{:?}", problem.condition),
        delta: config.solver.delta,
        max_rounds: compiled.max_rounds(),
        tape: compiled.interval_tape().to_portable(),
        atom_rels: compiled.atom_rels().into_iter().map(cert_rel).collect(),
        // ψ and ¬ψ share atom 0's expression and differ only in relation
        // (`Atom::negate` flips `rel`, keeps `expr`), so ψ is tape root 0
        // under the original relation.
        psi_atom: 0,
        psi_rel: cert_rel(problem.psi().rel),
        domain: problem.domain.dims().to_vec(),
        regions,
        newton,
    };
    // Never attach a certificate this build cannot itself replay: marginal
    // cases (e.g. an f64-exact witness whose outward-rounded enclosure
    // still touches the allowed set) degrade to "no certificate", not to a
    // certificate that fails downstream.
    xcv_cert::check(&cert).ok()?;
    Some(cert)
}
