//! Distributed LLL below the sharp threshold (Corollaries 1.2 and 1.4).
//!
//! Both corollaries follow the same scheme: a coloring computed by a real
//! LOCAL algorithm (on the [`Simulator`]) schedules the order-oblivious
//! sequential fixers so that variables fixed in the same round never
//! share an event:
//!
//! * **Rank ≤ 2 (Corollary 1.2)**: variables sit on dependency-graph
//!   edges; a proper *edge coloring* guarantees that same-colored edges
//!   share no endpoint, so all their variables can be fixed
//!   simultaneously. `O(d + log* n)` rounds in the paper with
//!   Panconesi–Rizzi; our Linial-based substitute gives
//!   `O(d²) + log* n` (see `DESIGN.md`).
//! * **Rank ≤ 3 (Corollary 1.4)**: a *distance-2 coloring* of the
//!   dependency graph guarantees that same-colored event nodes are ≥ 3
//!   apart, so each can fix **all** of its incident variables without
//!   touching another fixer's events. `O(d² + log* n)` in the paper with
//!   FHK'16; `O(d⁴) + log* n` with our substitute.
//!
//! One entry point runs both: [`drive`] takes a precomputed [`Schedule`]
//! and a [`RunOpts`] (criterion check, sweep workers, optional `P*`
//! audit, optional resume cursor) and dispatches on the schedule's kind.
//! The ranks differ only in how a color class becomes cells; replay,
//! audit, timing and the round bill are shared. [`distributed_fixer2`]
//! and [`distributed_fixer3`] color and drive in one call.
//!
//! Round accounting: the coloring rounds are measured exactly on the
//! simulator; each color class then costs 2 rounds (one to exchange the
//! freshly fixed values and `φ` entries with the 1-hop neighborhood, one
//! to hand over to the next class), matching how the paper iterates
//! through color classes. The scheduling loop below executes the *same*
//! fixing steps a message-passing implementation would — the
//! order-obliviousness of Theorems 1.1/1.3 is exactly what makes the
//! schedule correct — and asserts the no-conflict property of every
//! class as an executable witness.

use std::fmt;

use lll_coloring::{distance2_coloring, edge_coloring};
use lll_local::{SimError, Simulator};
use lll_numeric::Num;
use lll_obs::timing::{span_nanos, span_start};
use lll_obs::{Event, NullRecorder, NullTiming, Recorder, TimingScope, TimingSink};

use crate::audit::{AuditDelta, IncrementalAuditor};
use crate::error::FixerError;
use crate::fg::FgFixer;
use crate::fixer2::{audit_event, fix_run_start_event};
use crate::instance::Instance;
use crate::sweep::{fix_class_sharded, ClassFixer};
use crate::{FixReport, Fixer2, Fixer3};

/// Whether to enforce the exponential criterion `p < 2^-d` before
/// running (threshold experiments run the greedy process unchecked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CriterionCheck {
    /// Fail with [`FixerError::CriterionViolated`] above the threshold.
    #[default]
    Enforce,
    /// Run the greedy process regardless.
    Skip,
}

/// Error produced by the distributed drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// The underlying LOCAL simulation failed.
    Sim(SimError),
    /// The fixer rejected the instance.
    Fixer(FixerError),
    /// A precomputed [`Schedule`] was supplied for a different graph (or
    /// the wrong schedule kind for the driver).
    ScheduleMismatch {
        /// Schedule slots the driver requires (edges for the rank-2
        /// driver, nodes for the rank-3 driver).
        expected: usize,
        /// Slots the supplied schedule actually carries.
        found: usize,
    },
    /// A resumed run's recorded step prefix contradicts the schedule it
    /// is replayed against — wrong schedule or instance, a prefix from a
    /// different driver, or corrupt audit accounting. The resumed
    /// drivers fail loudly rather than continue a stream they could not
    /// reproduce byte for byte.
    ResumeMismatch {
        /// Index into the recorded step prefix at which replay failed
        /// (`prefix.len()` for end-of-prefix accounting failures).
        at: usize,
        /// What the schedule expected at that point.
        expected: String,
        /// What the recorded prefix actually carried.
        found: String,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Sim(e) => write!(f, "simulation error: {e}"),
            DistError::Fixer(e) => write!(f, "fixer error: {e}"),
            DistError::ScheduleMismatch { expected, found } => write!(
                f,
                "schedule mismatch: driver needs {expected} schedule slots, schedule has {found}"
            ),
            DistError::ResumeMismatch {
                at,
                expected,
                found,
            } => write!(
                f,
                "resume mismatch at recorded step {at}: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<SimError> for DistError {
    fn from(e: SimError) -> Self {
        DistError::Sim(e)
    }
}

impl From<FixerError> for DistError {
    fn from(e: FixerError) -> Self {
        DistError::Fixer(e)
    }
}

/// Outcome of a distributed run: the fixing report plus the honest round
/// bill.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Total LOCAL rounds: coloring + 2 per color class (+1 for the
    /// rank-1 warm-up class in the rank-2 driver).
    pub rounds: usize,
    /// Rounds spent computing the schedule coloring.
    pub coloring_rounds: usize,
    /// Number of color classes iterated.
    pub num_classes: usize,
    /// The assignment outcome.
    pub fix: FixReport,
}

/// Budget for the coloring subroutines; generous, only a guard against
/// runaway simulations.
fn round_budget(n: usize) -> usize {
    10_000 + 4 * n
}

/// Which coloring a [`Schedule`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// A proper edge coloring (one color slot per edge) — drives the
    /// rank-2 sweep of Corollary 1.2.
    Edge,
    /// A distance-2 vertex coloring (one color slot per node) — drives
    /// the rank-3 sweep of Corollary 1.4.
    Distance2,
}

/// A reusable scheduling artifact: the coloring a distributed driver
/// computes before its fixing sweep, detached from any one instance.
///
/// The coloring depends only on the dependency *graph* (its labeled
/// structure and the schedule seed), never on probabilities, predicates,
/// or the fixing state — which is what makes it shareable across every
/// instance with the same graph shape. `lll-serve` exploits exactly
/// this: its topology cache keys schedules by
/// [`Graph::fingerprint`](lll_graphs::Graph::fingerprint) and replays
/// them through [`drive`], so only the fixing sweep runs per request.
/// Determinism contract: every driver computes a `Schedule` and hands it
/// to [`drive`], so a cached replay is byte-identical to a cold run —
/// assignment, bills, and recorded stream — at every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    kind: ScheduleKind,
    colors: Vec<usize>,
    palette: usize,
    coloring_rounds: usize,
}

impl Schedule {
    /// Computes the rank-2 schedule: a proper edge coloring of `g` via
    /// the real LOCAL simulation (`threads` simulator workers; the
    /// result is identical for every count).
    ///
    /// # Errors
    ///
    /// [`SimError`] if the coloring simulation fails.
    pub fn edge(g: &lll_graphs::Graph, seed: u64, threads: usize) -> Result<Schedule, SimError> {
        if g.num_edges() == 0 {
            return Ok(Schedule {
                kind: ScheduleKind::Edge,
                colors: Vec::new(),
                palette: 0,
                coloring_rounds: 0,
            });
        }
        let sim = Simulator::with_shuffled_ids(g, seed).threads(threads);
        let col = edge_coloring(&sim, round_budget(g.num_nodes()))?;
        Ok(Schedule {
            kind: ScheduleKind::Edge,
            colors: col.colors,
            palette: col.palette,
            coloring_rounds: col.rounds,
        })
    }

    /// Computes the rank-3 schedule: a distance-2 coloring of `g` via the
    /// real LOCAL simulation (`threads` simulator workers; the result is
    /// identical for every count).
    ///
    /// # Errors
    ///
    /// [`SimError`] if the coloring simulation fails.
    pub fn distance2(
        g: &lll_graphs::Graph,
        seed: u64,
        threads: usize,
    ) -> Result<Schedule, SimError> {
        if g.num_nodes() == 0 {
            return Ok(Schedule {
                kind: ScheduleKind::Distance2,
                colors: Vec::new(),
                palette: 0,
                coloring_rounds: 0,
            });
        }
        let sim = Simulator::with_shuffled_ids(g, seed).threads(threads);
        let col = distance2_coloring(&sim, round_budget(g.num_nodes()))?;
        Ok(Schedule {
            kind: ScheduleKind::Distance2,
            colors: col.colors,
            palette: col.palette,
            coloring_rounds: col.rounds,
        })
    }

    /// Which sweep this schedule drives.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// One color per edge ([`ScheduleKind::Edge`]) or node
    /// ([`ScheduleKind::Distance2`]).
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// Number of color classes.
    pub fn palette(&self) -> usize {
        self.palette
    }

    /// LOCAL rounds the coloring simulation took — billed once per
    /// *computation*; cached replays still report it so cold and warm
    /// responses agree byte for byte.
    pub fn coloring_rounds(&self) -> usize {
        self.coloring_rounds
    }

    /// Approximate heap footprint in bytes — the color vector plus the
    /// struct header. Feeds the serve daemon's topology-cache memory
    /// gauge; an estimate for accounting, not an allocator truth.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Schedule>() + self.colors.capacity() * std::mem::size_of::<usize>()
    }
}

/// Where to pick an interrupted fixing run back up: the recorded
/// `(variable, value)` step prefix up to a durable `#checkpoint `
/// sidecar, plus the stream accounting [`drive`] needs to continue the
/// event stream byte for byte (passed as [`RunOpts::resume`]).
///
/// The fixers are pure functions of their applied step sequence, so the
/// prefix alone determines the mid-run state exactly; the counters
/// determine which bracketing/audit events the prefix already contains
/// (and therefore must *not* be re-emitted). Build one from a folded
/// [`RunState`](lll_obs::replay::RunState) via
/// [`ResumeCursor::from_run_state`], or assemble the parts manually.
#[derive(Debug, Clone, Copy)]
pub struct ResumeCursor<'a> {
    steps: &'a [(u64, u64)],
    audits: u64,
    fix_run_started: bool,
}

impl<'a> ResumeCursor<'a> {
    /// A cursor from raw parts: the step prefix to replay, the number of
    /// audit events the prefix already contains, and whether the prefix
    /// contains the run's `fix_run_start` bracket (it does whenever the
    /// checkpoint landed inside the fixing run).
    pub fn new(steps: &'a [(u64, u64)], audits: u64, fix_run_started: bool) -> ResumeCursor<'a> {
        ResumeCursor {
            steps,
            audits,
            fix_run_started,
        }
    }

    /// The cursor at `state`'s last verified checkpoint, or `None` if
    /// the folded prefix contains no `#checkpoint ` sidecar (or the
    /// fold is short of the sidecar's step count, which means the
    /// caller folded the wrong stream).
    ///
    /// `state` should be the fold of the durable prefix being resumed —
    /// the bytes up to
    /// [`Checkpoint::resume_offset`](lll_obs::Checkpoint::resume_offset).
    /// Folding a *longer* stream also works: the cursor slices the step
    /// list back to the checkpoint.
    pub fn from_run_state(state: &'a lll_obs::replay::RunState) -> Option<ResumeCursor<'a>> {
        let rp = state.last_checkpoint()?;
        let n = usize::try_from(rp.checkpoint.step).ok()?;
        Some(ResumeCursor {
            steps: state.steps().get(..n)?,
            audits: rp.audits,
            fix_run_started: rp.fix_runs > 0,
        })
    }

    /// The recorded step prefix this cursor replays.
    pub fn steps(&self) -> &'a [(u64, u64)] {
        self.steps
    }
}

fn resume_mismatch(at: usize, expected: impl Into<String>, found: impl Into<String>) -> DistError {
    DistError::ResumeMismatch {
        at,
        expected: expected.into(),
        found: found.into(),
    }
}

/// The replay phase of a resumed sweep: walks the recorded step prefix
/// through the schedule's class order, verifying each recorded step
/// against the variable the schedule puts there, and hands the run over
/// to live execution at the exact step where the prefix ends.
struct ReplayPhase<'a> {
    steps: &'a [(u64, u64)],
    pos: usize,
    /// Audit events the prefix already contains.
    audits: u64,
    /// Non-empty classes fully replayed so far.
    classes_replayed: u64,
}

impl ReplayPhase<'_> {
    /// Replays one scheduled class from the prefix. Returns `false`
    /// while the prefix extends beyond the class (the class was fully
    /// replayed, nothing live happened) and `true` once the prefix is
    /// exhausted — at the class boundary or inside the class, in which
    /// case the in-class remainder has been fixed live (sequentially:
    /// identical event order to the shard-merged emission), the
    /// boundary audit emitted, and `auditor` rebuilt for the remaining
    /// classes.
    ///
    /// Rebuilding the auditor by a full scan is sound because the
    /// incremental cache is a pure function of `(partial, φ)` — see
    /// [`ClassFixer::fresh_auditor`]. The boundary class's audit
    /// verdict therefore equals the uninterrupted run's, whose cache
    /// described the same state.
    fn replay_class<T: Num, F: ClassFixer<T>, R: Recorder>(
        &mut self,
        inst: &Instance<T>,
        fixer: &mut F,
        class_vars: &[usize],
        audit: Option<(&T, &T)>,
        auditor: &mut Option<IncrementalAuditor<T>>,
        rec: &mut R,
    ) -> Result<bool, DistError> {
        let take = (self.steps.len() - self.pos).min(class_vars.len());
        for &x in &class_vars[..take] {
            let (rx, ry) = self.steps[self.pos];
            if rx != x as u64 {
                return Err(resume_mismatch(
                    self.pos,
                    format!("variable {x} (schedule order)"),
                    format!("variable {rx}"),
                ));
            }
            let k = inst.variable(x).num_values();
            if ry >= k as u64 {
                return Err(resume_mismatch(
                    self.pos,
                    format!("a value below {k} for variable {x}"),
                    format!("value {ry}"),
                ));
            }
            fixer.replay(x, ry as usize).map_err(DistError::Fixer)?;
            self.pos += 1;
        }
        let boundary_exact = take == class_vars.len();
        if boundary_exact {
            self.classes_replayed += 1;
            if self.pos < self.steps.len() {
                return Ok(false);
            }
        } else {
            // The prefix ends inside this class: the rest of the class
            // runs live. Sequential cell order equals the sharded
            // drivers' static merge order, so the continued stream
            // stays byte-identical at every thread count.
            fixer
                .fix_cell(&class_vars[take..], rec)
                .map_err(DistError::Fixer)?;
        }
        if let Some((p_bound, tol)) = audit {
            let rebuilt = fixer.fresh_auditor(p_bound, tol);
            // Checkpoints land only after event lines, and the class
            // audit event follows the class's last fix_step — so a
            // prefix ending exactly at a class boundary may still owe
            // that class's audit event.
            let pending = if boundary_exact {
                if self.audits == self.classes_replayed {
                    false
                } else if self.audits + 1 == self.classes_replayed {
                    true
                } else {
                    return Err(resume_mismatch(
                        self.pos,
                        format!(
                            "{} or {} audit events for {} replayed classes",
                            self.classes_replayed - 1,
                            self.classes_replayed,
                            self.classes_replayed
                        ),
                        format!("{} audit events", self.audits),
                    ));
                }
            } else {
                if self.audits != self.classes_replayed {
                    return Err(resume_mismatch(
                        self.pos,
                        format!(
                            "{} audit events for {} replayed classes",
                            self.classes_replayed, self.classes_replayed
                        ),
                        format!("{} audit events", self.audits),
                    ));
                }
                true
            };
            if pending {
                let report = rebuilt.report();
                let step = fixer.steps_done() - 1;
                let variable = *class_vars.last().expect("class is non-empty");
                if R::ENABLED {
                    rec.record(&audit_event(step, variable, &report));
                }
                if !report.holds() {
                    return Err(DistError::Fixer(FixerError::PStarViolated {
                        step,
                        variable,
                        pair_violations: report.pair_violations,
                        prob_violations: report.prob_violations,
                    }));
                }
            }
            *auditor = Some(rebuilt);
        }
        Ok(true)
    }
}

/// Sets up the replay phase for a driver: validates the cursor's audit
/// accounting against the driver's mode and decides whether the
/// `fix_run_start` bracket must still be emitted. Returns
/// `(replay, emit_fix_run_start)`.
fn begin_replay(
    resume: Option<ResumeCursor<'_>>,
    audited: bool,
) -> Result<(Option<ReplayPhase<'_>>, bool), DistError> {
    let Some(cursor) = resume else {
        return Ok((None, true));
    };
    if !audited && cursor.audits != 0 {
        return Err(resume_mismatch(
            cursor.steps.len(),
            "no audit events (unaudited driver)",
            format!("{} audit events", cursor.audits),
        ));
    }
    let replay = if cursor.steps.is_empty() {
        None
    } else {
        Some(ReplayPhase {
            steps: cursor.steps,
            pos: 0,
            audits: cursor.audits,
            classes_replayed: 0,
        })
    };
    Ok((replay, !cursor.fix_run_started))
}

/// What one scheduled sweep runs with, besides the instance, the
/// schedule, the recorder and the timing sink. `RunOpts::default()` is
/// an enforced, single-threaded, unaudited run from the start.
#[derive(Debug)]
pub struct RunOpts<'a, T> {
    /// Whether to enforce `p < 2^-d` before fixing.
    pub check: CriterionCheck,
    /// Sweep workers; the outcome, the report and the recorded stream
    /// are identical for every count (see `crate::sweep`).
    pub threads: usize,
    /// `Some((p_bound, tol))` re-verifies `P*` after every color class
    /// ([`IncrementalAuditor::reverify_class`] semantics, computed inside
    /// the sweep workers) and records one
    /// [`Event::AuditPass`]/[`Event::AuditViolation`] per class, tagged
    /// with the class's last step and variable. Verdicts equal auditing
    /// step by step, because a class's cells touch disjoint events.
    pub audit: Option<(&'a T, &'a T)>,
    /// `Some(cursor)` resumes a recorded run from a checkpoint: the
    /// cursor's step prefix is replayed through the schedule (every step
    /// verified against the variable the schedule puts there), then the
    /// run continues live where the prefix ends. The events written to
    /// the recorder are the uninterrupted stream minus the prefix, at
    /// every `threads` count, and the report bills the whole logical run
    /// (DESIGN.md §3.12). Audit events the prefix already holds are not
    /// re-emitted; the audit cache is rebuilt by a full scan at the live
    /// boundary, which equals the cache the uninterrupted run carried.
    pub resume: Option<ResumeCursor<'a>>,
}

impl<T> Default for RunOpts<'_, T> {
    fn default() -> Self {
        RunOpts {
            check: CriterionCheck::Enforce,
            threads: 1,
            audit: None,
            resume: None,
        }
    }
}

/// Runs the order-oblivious fixer scheduled by `schedule`, color class
/// by color class — Corollary 1.2 for an [`ScheduleKind::Edge`]
/// schedule ([`Fixer2`]), Corollary 1.4 for a
/// [`ScheduleKind::Distance2`] schedule ([`Fixer3`]).
///
/// The sweep is bracketed by [`Event::FixRunStart`]/[`Event::FixRunEnd`]
/// with one `fix_step` per variable; a class's cells are sharded across
/// `opts.threads` workers and their events merged in static shard
/// order, so the stream is byte-identical at every worker count. `sink`
/// gets one [`TimingScope::FixRun`] span for the sweep and one
/// [`TimingScope::FixClass`] span per live class; wall-clock flows only
/// into `sink`, never into `rec`. A schedule computed once (and cached,
/// as `lll-serve` does) replays byte for byte what a fresh coloring
/// would drive.
///
/// # Errors
///
/// [`DistError::Fixer`] if the instance's rank exceeds the fixer's or
/// (under [`CriterionCheck::Enforce`]) it violates `p < 2^-d`, and
/// [`FixerError::PStarViolated`] at the first audited class after which
/// the invariant fails; [`DistError::ScheduleMismatch`] if `schedule` is
/// not sized for this instance's dependency graph;
/// [`DistError::ResumeMismatch`] if a resume prefix contradicts the
/// schedule or its audit accounting.
pub fn drive<T: Num, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    schedule: &Schedule,
    opts: &RunOpts<'_, T>,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    drive_as(schedule.kind(), inst, schedule, opts, rec, sink)
}

/// Distributed rank-2 LLL (Corollary 1.2): edge-color the dependency
/// graph, then fix each color class of variables.
///
/// # Errors
///
/// [`DistError::Fixer`] if the instance has rank > 2 or (under
/// [`CriterionCheck::Enforce`]) violates `p < 2^-d`;
/// [`DistError::Sim`] if the coloring simulation fails.
pub fn distributed_fixer2<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
) -> Result<DistReport, DistError> {
    let opts = RunOpts {
        check,
        ..RunOpts::default()
    };
    drive_cold(ScheduleKind::Edge, inst, seed, &opts, &mut NullRecorder)
}

/// Distributed rank-3 LLL (Corollary 1.4): distance-2 color the
/// dependency graph; in each class, every node of that color fixes *all*
/// of its still-unfixed incident variables.
///
/// # Errors
///
/// [`DistError::Fixer`] if the instance has rank > 3 or (under
/// [`CriterionCheck::Enforce`]) violates `p < 2^-d`;
/// [`DistError::Sim`] if the coloring simulation fails.
pub fn distributed_fixer3<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
) -> Result<DistReport, DistError> {
    let opts = RunOpts {
        check,
        ..RunOpts::default()
    };
    drive_cold(
        ScheduleKind::Distance2,
        inst,
        seed,
        &opts,
        &mut NullRecorder,
    )
}

/// [`drive`] over a fresh edge coloring on `threads` simulator workers,
/// audited. Kept for existing callers.
///
/// # Errors
///
/// As [`drive`], plus [`DistError::Sim`] if the coloring fails.
pub fn distributed_fixer2_audited<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
) -> Result<DistReport, DistError> {
    distributed_fixer2_audited_recorded(inst, seed, check, threads, p_bound, tol, &mut NullRecorder)
}

/// [`distributed_fixer2_audited`] with a flight recorder. Kept for
/// existing callers.
///
/// # Errors
///
/// As [`distributed_fixer2_audited`].
pub fn distributed_fixer2_audited_recorded<T: Num, R: Recorder>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    let opts = RunOpts {
        check,
        threads,
        audit: Some((p_bound, tol)),
        resume: None,
    };
    drive_cold(ScheduleKind::Edge, inst, seed, &opts, rec)
}

/// [`drive`] restricted to edge schedules, unrecorded. Kept for existing
/// callers.
///
/// # Errors
///
/// As [`drive`]; a [`ScheduleKind::Distance2`] schedule is a
/// [`DistError::ScheduleMismatch`].
pub fn distributed_fixer2_scheduled<T: Num>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
) -> Result<DistReport, DistError> {
    distributed_fixer2_scheduled_traced(
        inst,
        schedule,
        check,
        threads,
        &mut NullRecorder,
        &mut NullTiming,
    )
}

/// [`drive`] restricted to edge schedules. Kept for existing callers.
///
/// # Errors
///
/// As [`distributed_fixer2_scheduled`].
pub fn distributed_fixer2_scheduled_traced<T: Num, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    let opts = RunOpts {
        check,
        threads,
        ..RunOpts::default()
    };
    drive_as(ScheduleKind::Edge, inst, schedule, &opts, rec, sink)
}

/// [`drive`] over a fresh distance-2 coloring on `threads` simulator
/// workers, audited. Kept for existing callers.
///
/// # Errors
///
/// As [`drive`], plus [`DistError::Sim`] if the coloring fails.
pub fn distributed_fixer3_audited<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
) -> Result<DistReport, DistError> {
    distributed_fixer3_audited_recorded(inst, seed, check, threads, p_bound, tol, &mut NullRecorder)
}

/// [`distributed_fixer3_audited`] with a flight recorder. Kept for
/// existing callers.
///
/// # Errors
///
/// As [`distributed_fixer3_audited`].
pub fn distributed_fixer3_audited_recorded<T: Num, R: Recorder>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    let opts = RunOpts {
        check,
        threads,
        audit: Some((p_bound, tol)),
        resume: None,
    };
    drive_cold(ScheduleKind::Distance2, inst, seed, &opts, rec)
}

/// [`drive`] restricted to distance-2 schedules, unrecorded. Kept for
/// existing callers.
///
/// # Errors
///
/// As [`drive`]; a [`ScheduleKind::Edge`] schedule is a
/// [`DistError::ScheduleMismatch`].
pub fn distributed_fixer3_scheduled<T: Num>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
) -> Result<DistReport, DistError> {
    distributed_fixer3_scheduled_traced(
        inst,
        schedule,
        check,
        threads,
        &mut NullRecorder,
        &mut NullTiming,
    )
}

/// [`drive`] restricted to distance-2 schedules. Kept for existing
/// callers.
///
/// # Errors
///
/// As [`distributed_fixer3_scheduled`].
pub fn distributed_fixer3_scheduled_traced<T: Num, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    let opts = RunOpts {
        check,
        threads,
        ..RunOpts::default()
    };
    drive_as(ScheduleKind::Distance2, inst, schedule, &opts, rec, sink)
}

/// Colors the dependency graph for `kind` on `opts.threads` simulator
/// workers (the coloring is identical for every count), then drives it.
fn drive_cold<T: Num, R: Recorder>(
    kind: ScheduleKind,
    inst: &Instance<T>,
    seed: u64,
    opts: &RunOpts<'_, T>,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    let g = inst.dependency_graph();
    let schedule = match kind {
        ScheduleKind::Edge => Schedule::edge(g, seed, opts.threads)?,
        ScheduleKind::Distance2 => Schedule::distance2(g, seed, opts.threads)?,
    };
    drive_as(kind, inst, &schedule, opts, rec, &mut NullTiming)
}

/// [`drive`] with the fixer chosen by `kind` rather than by the
/// schedule, so a rank-specific wrapper handed the other kind of
/// schedule reports [`DistError::ScheduleMismatch`]. The fixer is built
/// first: an instance the fixer refuses is refused before the schedule
/// is looked at.
fn drive_as<T: Num, R: Recorder, S: TimingSink>(
    kind: ScheduleKind,
    inst: &Instance<T>,
    schedule: &Schedule,
    opts: &RunOpts<'_, T>,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    let enforce = opts.check == CriterionCheck::Enforce;
    let plan = || ClassPlan::new(kind, inst, schedule);
    match kind {
        ScheduleKind::Edge => {
            let fixer = if enforce {
                Fixer2::new(inst)
            } else {
                Fixer2::new_unchecked(inst)
            }?;
            sweep(fixer, &plan()?, opts, rec, sink)
        }
        ScheduleKind::Distance2 => {
            let fixer = if enforce {
                Fixer3::new(inst)
            } else {
                Fixer3::new_unchecked(inst)
            }?;
            sweep(fixer, &plan()?, opts, rec, sink)
        }
    }
}

/// The schedule turned into color classes of *units* — the variable
/// lists one fixer node owns — which is the only step in which the two
/// ranks differ. A class's cells are its units' still-unfixed variables.
struct ClassPlan<'a, T> {
    inst: &'a Instance<T>,
    classes: Vec<Vec<Vec<usize>>>,
    /// Classes billed beyond the schedule's palette (the rank-2 warm-up).
    warmup: usize,
    coloring_rounds: usize,
    palette: usize,
}

impl<'a, T: Num> ClassPlan<'a, T> {
    /// * `Edge` (rank ≤ 2): the rank-1 warm-up class first (units = one
    ///   event's rank-1 variables — no two on different events interact,
    ///   and several on one event are fixed by that event's node
    ///   locally), then one class per edge color (units = one dependency
    ///   edge's variables, which one endpoint fixes locally and
    ///   sequentially). Every variable sits in one unit, so each unit is
    ///   entirely unfixed when its class runs.
    /// * `Distance2` (rank ≤ 3): one class per color, units = each class
    ///   node's incident variables. A variable shared by several nodes
    ///   is fixed by the first class that reaches it.
    fn new(
        kind: ScheduleKind,
        inst: &'a Instance<T>,
        schedule: &Schedule,
    ) -> Result<ClassPlan<'a, T>, DistError> {
        let g = inst.dependency_graph();
        let expected = match kind {
            ScheduleKind::Edge => g.num_edges(),
            ScheduleKind::Distance2 => g.num_nodes(),
        };
        let colors = schedule.colors();
        if schedule.kind() != kind || colors.len() != expected {
            return Err(DistError::ScheduleMismatch {
                expected,
                found: colors.len(),
            });
        }
        let palette = schedule.palette();
        let mut units: Vec<Vec<usize>> = vec![Vec::new(); expected];
        let (mut classes, warmup) = match kind {
            ScheduleKind::Edge => {
                let mut by_event: Vec<Vec<usize>> = vec![Vec::new(); inst.num_events()];
                for x in 0..inst.num_variables() {
                    match *inst.variable(x).affects() {
                        [u] => by_event[u].push(x),
                        [u, v] => {
                            let eid = g.edge_id(u, v).expect("co-affected events are adjacent");
                            units[eid].push(x);
                        }
                        _ => unreachable!("rank validated at construction"),
                    }
                }
                let mut classes = vec![by_event];
                classes.resize_with(palette + 1, Vec::new);
                (classes, 1)
            }
            ScheduleKind::Distance2 => {
                for x in 0..inst.num_variables() {
                    for &v in inst.variable(x).affects() {
                        units[v].push(x);
                    }
                }
                (vec![Vec::new(); palette], 0)
            }
        };
        for (slot, unit) in units.into_iter().enumerate() {
            classes[colors[slot] + warmup].push(unit);
        }
        Ok(ClassPlan {
            inst,
            classes,
            warmup,
            coloring_rounds: schedule.coloring_rounds(),
            palette,
        })
    }
}

/// The one driver body: replay, the per-class witness, the sharded
/// sweep, the per-class audit, the timing spans and the round bill.
fn sweep<T: Num, F: ClassFixer<T>, R: Recorder, S: TimingSink>(
    mut fixer: F,
    plan: &ClassPlan<'_, T>,
    opts: &RunOpts<'_, T>,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    let inst = plan.inst;
    let (mut replay, emit_start) = begin_replay(opts.resume, opts.audit.is_some())?;
    if R::ENABLED && emit_start {
        rec.record(&fix_run_start_event(inst));
    }
    let mut auditor = if replay.is_some() {
        // Rebuilt at the live boundary (see ReplayPhase::replay_class);
        // scanning here would describe pre-replay state.
        None
    } else {
        opts.audit
            .map(|(p_bound, tol)| fixer.fresh_auditor(p_bound, tol))
    };

    let run_started = span_start::<S>();
    for class in &plan.classes {
        let class_started = span_start::<S>();
        assert_units_disjoint(inst, class);
        // Membership is stable while the class runs — the witness above
        // guarantees no other unit of the class touches these events, so
        // the filter can be evaluated up front. During replay the same
        // expression holds: replayed steps update the partial
        // assignment exactly like live ones, so each class sees the
        // membership the uninterrupted run saw.
        let cells: Vec<Vec<usize>> = class
            .iter()
            .map(|unit| {
                unit.iter()
                    .copied()
                    .filter(|&x| fixer.partial().get(x).is_none())
                    .collect::<Vec<usize>>()
            })
            .filter(|cell| !cell.is_empty())
            .collect();
        if cells.is_empty() {
            continue;
        }
        let class_vars: Vec<usize> = cells.iter().flatten().copied().collect();
        if let Some(rp) = replay.as_mut() {
            if rp.replay_class(inst, &mut fixer, &class_vars, opts.audit, &mut auditor, rec)? {
                replay = None;
            }
            continue;
        }
        let deltas = fix_class_sharded(&mut fixer, &cells, opts.threads, opts.audit, rec)?;
        audit_class(&mut auditor, &deltas, &fixer, &class_vars, rec)?;
        if S::ENABLED {
            sink.record_span(TimingScope::FixClass, span_nanos(class_started));
        }
    }
    if S::ENABLED {
        sink.record_span(TimingScope::FixRun, span_nanos(run_started));
    }
    if let Some(rp) = replay {
        return Err(resume_mismatch(
            rp.pos,
            "end of the schedule",
            format!(
                "{} recorded steps beyond the schedule",
                rp.steps.len() - rp.pos
            ),
        ));
    }

    let fix = fixer.into_report();
    if R::ENABLED {
        rec.record(&Event::FixRunEnd {
            steps: fix.num_steps(),
            violated: fix.violated_events().len(),
        });
    }
    // Coloring rounds + 2 per color class (+1 for the warm-up class).
    Ok(DistReport {
        rounds: plan.coloring_rounds + 2 * plan.palette + plan.warmup,
        coloring_rounds: plan.coloring_rounds,
        num_classes: plan.palette + plan.warmup,
        fix,
    })
}

/// Applies a class's worker-computed audit deltas, emits the per-class
/// audit event, and converts a failed verdict into
/// [`FixerError::PStarViolated`] tagged with the class's last step and
/// variable. No-op when the run is not audited.
fn audit_class<T: Num, F: ClassFixer<T>, R: Recorder>(
    auditor: &mut Option<IncrementalAuditor<T>>,
    deltas: &[AuditDelta<T>],
    fixer: &F,
    class_vars: &[usize],
    rec: &mut R,
) -> Result<(), DistError> {
    let Some(auditor) = auditor.as_mut() else {
        return Ok(());
    };
    for delta in deltas {
        auditor.apply_delta(delta);
    }
    let report = auditor.report();
    let step = fixer.steps_done() - 1;
    let variable = *class_vars.last().expect("class is non-empty");
    if R::ENABLED {
        rec.record(&audit_event(step, variable, &report));
    }
    if report.holds() {
        Ok(())
    } else {
        Err(DistError::Fixer(FixerError::PStarViolated {
            step,
            variable,
            pair_violations: report.pair_violations,
            prob_violations: report.prob_violations,
        }))
    }
}

/// Distributed conditional-expectation fixer (the Remark after
/// Conjecture 1.5): distance-2 color the dependency graph and run the
/// Fischer–Ghaffari-style sweep over the classes. Requires the *strong*
/// criterion `p·(d+1)^C < 1` with `C` the palette actually computed —
/// exponentially more demanding than the sharp `p < 2^-d`, which is the
/// gap experiment E13 documents. Works for any variable rank.
///
/// # Errors
///
/// [`DistError::Fixer`] under [`CriterionCheck::Enforce`] when the
/// strong criterion fails; [`DistError::Sim`] on simulation failure.
pub fn distributed_fg<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
) -> Result<DistReport, DistError> {
    let schedule = Schedule::distance2(inst.dependency_graph(), seed, 1)?;
    let palette = schedule.palette();
    let fixer = match check {
        CriterionCheck::Enforce => FgFixer::new(inst, palette)?,
        CriterionCheck::Skip => FgFixer::new_unchecked(inst),
    };
    let fix = fixer.run(schedule.colors());
    Ok(DistReport {
        rounds: schedule.coloring_rounds() + 2 * palette,
        coloring_rounds: schedule.coloring_rounds(),
        num_classes: palette,
        fix,
    })
}

/// Witness that a color class is conflict-free: variables of the same
/// unit may share events (one node fixes them locally, sequentially),
/// but variables of different units must not.
fn assert_units_disjoint<T: Num>(inst: &Instance<T>, class: &[Vec<usize>]) {
    let mut owner: Vec<Option<usize>> = vec![None; inst.num_events()];
    for (i, unit) in class.iter().enumerate() {
        for &x in unit {
            for &ev in inst.variable(x).affects() {
                match owner[ev] {
                    Some(other) if other != i => {
                        panic!("class schedules units {other} and {i} touching event {ev}")
                    }
                    _ => owner[ev] = Some(i),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use lll_local::log_star;

    fn ring_instance(n: usize, k: usize) -> Instance<f64> {
        let mut b = InstanceBuilder::<f64>::new(n);
        let vars: Vec<usize> = (0..n)
            .map(|i| b.add_uniform_variable(&[i, (i + 1) % n], k))
            .collect();
        for i in 0..n {
            let (l, r) = (vars[(i + n - 1) % n], vars[i]);
            b.set_event_predicate(i, move |vals| vals[l] == 0 && vals[r] == 0);
        }
        b.build().unwrap()
    }

    fn hyper_ring_instance(n: usize, k: usize) -> Instance<f64> {
        let mut b = InstanceBuilder::<f64>::new(n);
        let vars: Vec<usize> = (0..n)
            .map(|i| b.add_uniform_variable(&[i, (i + 1) % n, (i + 2) % n], k))
            .collect();
        for j in 0..n {
            let (x1, x2, x3) = (vars[(j + n - 2) % n], vars[(j + n - 1) % n], vars[j]);
            b.set_event_predicate(j, move |vals| {
                vals[x1] == 0 && vals[x2] == 0 && vals[x3] == 0
            });
        }
        b.build().unwrap()
    }

    fn threads<'a>(threads: usize) -> RunOpts<'a, f64> {
        RunOpts {
            threads,
            ..RunOpts::default()
        }
    }

    #[test]
    fn distributed_rank2_solves_rings() {
        for n in [8, 32, 128] {
            let inst = ring_instance(n, 3);
            let rep = distributed_fixer2(&inst, 5, CriterionCheck::Enforce).unwrap();
            assert!(rep.fix.is_success(), "n = {n}");
            assert!(inst.no_event_occurs(rep.fix.assignment()).unwrap());
            assert!(rep.rounds > rep.coloring_rounds);
        }
    }

    #[test]
    fn distributed_rank3_solves_hyper_rings() {
        for n in [8, 32, 128] {
            let inst = hyper_ring_instance(n, 3);
            let rep = distributed_fixer3(&inst, 11, CriterionCheck::Enforce).unwrap();
            assert!(rep.fix.is_success(), "n = {n}");
        }
    }

    #[test]
    fn rounds_scale_like_log_star_not_n() {
        // d is constant on rings, so rounds must be ~constant + log*.
        // Start the comparison above Linial's fixed-point palette (tiny
        // id spaces skip Linial entirely and reduce straight from n,
        // which makes very small n artificially cheap).
        let r_small = distributed_fixer2(&ring_instance(512, 3), 1, CriterionCheck::Enforce)
            .unwrap()
            .rounds;
        let r_large = distributed_fixer2(&ring_instance(65536, 3), 1, CriterionCheck::Enforce)
            .unwrap()
            .rounds;
        let slack = 2 * (log_star(65536) - log_star(512)) as usize + 4;
        assert!(
            r_large <= r_small + slack,
            "rounds grew from {r_small} to {r_large}, more than log* allows"
        );
    }

    #[test]
    fn criterion_enforcement() {
        let at_threshold = ring_instance(8, 2); // p·2^d = 1
        assert!(matches!(
            distributed_fixer2(&at_threshold, 0, CriterionCheck::Enforce),
            Err(DistError::Fixer(FixerError::CriterionViolated { .. }))
        ));
        let rep = distributed_fixer2(&at_threshold, 0, CriterionCheck::Skip).unwrap();
        assert_eq!(rep.fix.assignment().len(), 8);
    }

    #[test]
    fn rank3_driver_accepts_rank2_instances() {
        let inst = ring_instance(16, 3);
        let rep = distributed_fixer3(&inst, 3, CriterionCheck::Enforce).unwrap();
        assert!(rep.fix.is_success());
    }

    #[test]
    fn seeds_change_schedule_not_correctness() {
        let inst = hyper_ring_instance(20, 3);
        for seed in 0..5 {
            let rep = distributed_fixer3(&inst, seed, CriterionCheck::Enforce).unwrap();
            assert!(rep.fix.is_success(), "seed {seed}");
        }
    }

    #[test]
    fn parallel_drivers_match_sequential_bit_for_bit() {
        let inst2 = ring_instance(64, 3);
        let base2 = distributed_fixer2(&inst2, 5, CriterionCheck::Enforce).unwrap();
        let inst3 = hyper_ring_instance(32, 3);
        let base3 = distributed_fixer3(&inst3, 7, CriterionCheck::Enforce).unwrap();
        for t in [2usize, 8] {
            let p2 = drive_cold(
                ScheduleKind::Edge,
                &inst2,
                5,
                &threads(t),
                &mut NullRecorder,
            )
            .unwrap();
            assert_eq!(p2.rounds, base2.rounds, "fixer2 threads {t}");
            assert_eq!(p2.coloring_rounds, base2.coloring_rounds);
            assert_eq!(p2.num_classes, base2.num_classes);
            assert_eq!(p2.fix.assignment(), base2.fix.assignment());
            let p3 = drive_cold(
                ScheduleKind::Distance2,
                &inst3,
                7,
                &threads(t),
                &mut NullRecorder,
            )
            .unwrap();
            assert_eq!(p3.rounds, base3.rounds, "fixer3 threads {t}");
            assert_eq!(p3.coloring_rounds, base3.coloring_rounds);
            assert_eq!(p3.fix.assignment(), base3.fix.assignment());
        }
    }

    fn recorded_fixer2_bytes(inst: &Instance<f64>, t: usize) -> (Vec<u8>, DistReport) {
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let rep = drive_cold(ScheduleKind::Edge, inst, 5, &threads(t), &mut rec).unwrap();
        (rec.finish().unwrap(), rep)
    }

    fn recorded_fixer3_bytes(inst: &Instance<f64>, t: usize) -> (Vec<u8>, DistReport) {
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let rep = drive_cold(ScheduleKind::Distance2, inst, 7, &threads(t), &mut rec).unwrap();
        (rec.finish().unwrap(), rep)
    }

    #[test]
    fn sweep_streams_are_byte_identical_at_every_thread_count() {
        let inst2 = ring_instance(96, 3);
        let (bytes2, base2) = recorded_fixer2_bytes(&inst2, 1);
        assert!(!bytes2.is_empty());
        let inst3 = hyper_ring_instance(48, 3);
        let (bytes3, base3) = recorded_fixer3_bytes(&inst3, 1);
        for t in [2usize, 3, 8] {
            let (b2, p2) = recorded_fixer2_bytes(&inst2, t);
            assert_eq!(b2, bytes2, "fixer2 stream diverged at threads {t}");
            assert_eq!(p2.fix.steps(), base2.fix.steps(), "fixer2 threads {t}");
            assert_eq!(p2.fix.assignment(), base2.fix.assignment());
            let (b3, p3) = recorded_fixer3_bytes(&inst3, t);
            assert_eq!(b3, bytes3, "fixer3 stream diverged at threads {t}");
            assert_eq!(p3.fix.steps(), base3.fix.steps(), "fixer3 threads {t}");
            assert_eq!(p3.fix.assignment(), base3.fix.assignment());
        }
    }

    #[test]
    fn audited_sweep_matches_sequential_verdicts() {
        // Below the threshold the audited drivers must succeed — with
        // identical outputs — at every thread count.
        let inst2 = ring_instance(64, 3);
        let p2 = inst2.max_event_probability();
        let inst3 = hyper_ring_instance(32, 3);
        let p3 = inst3.max_event_probability();
        let base2 =
            distributed_fixer2_audited(&inst2, 5, CriterionCheck::Enforce, 1, &p2, &1e-9).unwrap();
        let base3 =
            distributed_fixer3_audited(&inst3, 7, CriterionCheck::Enforce, 1, &p3, &1e-9).unwrap();
        for t in [2usize, 8] {
            let a2 = distributed_fixer2_audited(&inst2, 5, CriterionCheck::Enforce, t, &p2, &1e-9)
                .unwrap();
            assert_eq!(a2.fix.assignment(), base2.fix.assignment(), "threads {t}");
            let a3 = distributed_fixer3_audited(&inst3, 7, CriterionCheck::Enforce, t, &p3, &1e-9)
                .unwrap();
            assert_eq!(a3.fix.assignment(), base3.fix.assignment(), "threads {t}");
        }

        // With an artificially halved probability bound the audit must
        // fail, at the same class (step, variable) for every thread
        // count.
        let tight = p3 / 2.0;
        let base_err =
            distributed_fixer3_audited(&inst3, 7, CriterionCheck::Enforce, 1, &tight, &0.0)
                .expect_err("halved bound violates P*");
        for t in [2usize, 8] {
            let err =
                distributed_fixer3_audited(&inst3, 7, CriterionCheck::Enforce, t, &tight, &0.0)
                    .expect_err("halved bound violates P*");
            assert_eq!(err, base_err, "audit verdict diverged at threads {t}");
        }
    }

    #[test]
    fn audited_recorded_sweep_emits_one_audit_event_per_class() {
        let inst = ring_instance(32, 3);
        let p = inst.max_event_probability();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let rep = distributed_fixer2_audited_recorded(
            &inst,
            5,
            CriterionCheck::Enforce,
            4,
            &p,
            &1e-9,
            &mut rec,
        )
        .unwrap();
        let bytes = rec.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let audits = text
            .lines()
            .filter(|l| l.contains("\"audit_pass\""))
            .count();
        // One audit per *non-empty* scheduled class, ≤ the class bill.
        assert!(audits >= 1 && audits <= rep.num_classes, "{audits} audits");
        assert_eq!(
            text.lines().filter(|l| l.contains("\"fix_step\"")).count(),
            rep.fix.num_steps()
        );
    }

    #[test]
    fn scheduled_drivers_replay_cold_runs_byte_for_byte() {
        let inst2 = ring_instance(64, 3);
        let g2 = inst2.dependency_graph();
        let sched2 = Schedule::edge(g2, 5, 1).unwrap();
        let (cold_bytes2, cold2) = recorded_fixer2_bytes(&inst2, 1);
        let inst3 = hyper_ring_instance(32, 3);
        let sched3 = Schedule::distance2(inst3.dependency_graph(), 7, 1).unwrap();
        let (cold_bytes3, cold3) = recorded_fixer3_bytes(&inst3, 1);
        for t in [1usize, 2, 8] {
            let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
            let warm2 = drive(&inst2, &sched2, &threads(t), &mut rec, &mut NullTiming).unwrap();
            assert_eq!(rec.finish().unwrap(), cold_bytes2, "fixer2 threads {t}");
            assert_eq!(warm2.fix.assignment(), cold2.fix.assignment());
            assert_eq!(warm2.rounds, cold2.rounds);
            assert_eq!(warm2.coloring_rounds, cold2.coloring_rounds);
            assert_eq!(warm2.num_classes, cold2.num_classes);

            let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
            let warm3 = drive(&inst3, &sched3, &threads(t), &mut rec, &mut NullTiming).unwrap();
            assert_eq!(rec.finish().unwrap(), cold_bytes3, "fixer3 threads {t}");
            assert_eq!(warm3.fix.assignment(), cold3.fix.assignment());
            assert_eq!(warm3.rounds, cold3.rounds);
            assert_eq!(warm3.coloring_rounds, cold3.coloring_rounds);
        }
    }

    fn checkpoints_in(text: &str) -> Vec<lll_obs::Checkpoint> {
        text.lines()
            .filter(|l| l.starts_with(lll_obs::CHECKPOINT_PREFIX))
            .map(|l| lll_obs::Checkpoint::parse(l).unwrap())
            .collect()
    }

    fn cursor_for(prefix: &[u8]) -> (lll_obs::replay::RunState, ()) {
        let (state, torn) =
            lll_obs::replay::RunState::from_stream(std::str::from_utf8(prefix).unwrap()).unwrap();
        assert_eq!(torn, None, "a checkpoint prefix has no torn tail");
        (state, ())
    }

    #[test]
    fn resumed_runs_continue_checkpointed_streams_byte_for_byte() {
        let interval = 3;
        let inst2 = ring_instance(64, 3);
        let sched2 = Schedule::edge(inst2.dependency_graph(), 5, 1).unwrap();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(interval);
        let full2 = drive(&inst2, &sched2, &threads(1), &mut rec, &mut NullTiming).unwrap();
        let bytes2 = rec.finish().unwrap();

        let inst3 = hyper_ring_instance(32, 3);
        let sched3 = Schedule::distance2(inst3.dependency_graph(), 7, 1).unwrap();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(interval);
        let full3 = drive(&inst3, &sched3, &threads(1), &mut rec, &mut NullTiming).unwrap();
        let bytes3 = rec.finish().unwrap();

        for (bytes, rank2) in [(&bytes2, true), (&bytes3, false)] {
            let cks = checkpoints_in(std::str::from_utf8(bytes).unwrap());
            assert!(
                cks.len() >= 3,
                "want several checkpoints, got {}",
                cks.len()
            );
            for ck in &cks {
                let prefix = &bytes[..ck.resume_offset() as usize];
                let (state, ()) = cursor_for(prefix);
                let cursor = ResumeCursor::from_run_state(&state).unwrap();
                assert_eq!(cursor.steps().len() as u64, ck.step);
                for t in [1usize, 2, 8] {
                    let mut tail = lll_obs::JsonlRecorder::resumed(Vec::new(), interval, ck);
                    let (rep, full) = if rank2 {
                        (
                            drive(
                                &inst2,
                                &sched2,
                                &RunOpts {
                                    threads: t,
                                    resume: Some(cursor),
                                    ..RunOpts::default()
                                },
                                &mut tail,
                                &mut NullTiming,
                            )
                            .unwrap(),
                            &full2,
                        )
                    } else {
                        (
                            drive(
                                &inst3,
                                &sched3,
                                &RunOpts {
                                    threads: t,
                                    resume: Some(cursor),
                                    ..RunOpts::default()
                                },
                                &mut tail,
                                &mut NullTiming,
                            )
                            .unwrap(),
                            &full3,
                        )
                    };
                    let mut joined = prefix.to_vec();
                    joined.extend_from_slice(&tail.finish().unwrap());
                    assert_eq!(
                        &joined, bytes,
                        "stream diverged: threads {t}, checkpoint at step {}",
                        ck.step
                    );
                    assert_eq!(rep.fix.assignment(), full.fix.assignment());
                    assert_eq!(rep.rounds, full.rounds);
                    assert_eq!(rep.num_classes, full.num_classes);
                }
            }
        }
    }

    #[test]
    fn resumed_audited_runs_rebuild_audit_state_exactly() {
        // Interval 1 puts a checkpoint after *every* fixing step, which
        // covers the boundary case where the prefix ends exactly at a
        // class boundary with that class's audit event still owed.
        let inst2 = ring_instance(48, 3);
        let p2 = inst2.max_event_probability();
        let sched2 = Schedule::edge(inst2.dependency_graph(), 5, 1).unwrap();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(1);
        let full2 = distributed_fixer2_audited_recorded(
            &inst2,
            5,
            CriterionCheck::Enforce,
            1,
            &p2,
            &1e-9,
            &mut rec,
        )
        .unwrap();
        let bytes2 = rec.finish().unwrap();

        let inst3 = hyper_ring_instance(24, 3);
        let p3 = inst3.max_event_probability();
        let sched3 = Schedule::distance2(inst3.dependency_graph(), 7, 1).unwrap();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(1);
        let full3 = distributed_fixer3_audited_recorded(
            &inst3,
            7,
            CriterionCheck::Enforce,
            1,
            &p3,
            &1e-9,
            &mut rec,
        )
        .unwrap();
        let bytes3 = rec.finish().unwrap();

        for (bytes, rank2) in [(&bytes2, true), (&bytes3, false)] {
            let cks = checkpoints_in(std::str::from_utf8(bytes).unwrap());
            assert!(!cks.is_empty());
            for ck in &cks {
                let prefix = &bytes[..ck.resume_offset() as usize];
                let (state, ()) = cursor_for(prefix);
                let cursor = ResumeCursor::from_run_state(&state).unwrap();
                for t in [1usize, 2] {
                    let mut tail = lll_obs::JsonlRecorder::resumed(Vec::new(), 1, ck);
                    let (rep, full) = if rank2 {
                        (
                            drive(
                                &inst2,
                                &sched2,
                                &RunOpts {
                                    threads: t,
                                    audit: Some((&p2, &1e-9)),
                                    resume: Some(cursor),
                                    ..RunOpts::default()
                                },
                                &mut tail,
                                &mut NullTiming,
                            )
                            .unwrap(),
                            &full2,
                        )
                    } else {
                        (
                            drive(
                                &inst3,
                                &sched3,
                                &RunOpts {
                                    threads: t,
                                    audit: Some((&p3, &1e-9)),
                                    resume: Some(cursor),
                                    ..RunOpts::default()
                                },
                                &mut tail,
                                &mut NullTiming,
                            )
                            .unwrap(),
                            &full3,
                        )
                    };
                    let mut joined = prefix.to_vec();
                    joined.extend_from_slice(&tail.finish().unwrap());
                    assert_eq!(
                        &joined, bytes,
                        "audited stream diverged: threads {t}, step {}",
                        ck.step
                    );
                    assert_eq!(rep.fix.assignment(), full.fix.assignment());
                }
            }
        }
    }

    #[test]
    fn resume_mismatches_fail_loudly() {
        let inst = ring_instance(16, 3);
        let sched = Schedule::edge(inst.dependency_graph(), 5, 1).unwrap();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(4);
        drive(&inst, &sched, &threads(1), &mut rec, &mut NullTiming).unwrap();
        let bytes = rec.finish().unwrap();
        let (state, ()) = cursor_for(&bytes);
        let honest = state.steps().to_vec();
        assert_eq!(honest.len(), 16);

        // A prefix whose first step names a variable the schedule does
        // not put there.
        let mut steps = honest.clone();
        steps[0].0 += 1;
        let cur = ResumeCursor::new(&steps[..4], 0, true);
        let err = drive(
            &inst,
            &sched,
            &RunOpts {
                threads: 1,
                resume: Some(cur),
                ..RunOpts::default()
            },
            &mut NullRecorder,
            &mut NullTiming,
        )
        .unwrap_err();
        assert!(
            matches!(err, DistError::ResumeMismatch { at: 0, .. }),
            "{err}"
        );

        // A recorded value outside the variable's domain.
        let mut steps = honest.clone();
        steps[0].1 = 999;
        let cur = ResumeCursor::new(&steps[..4], 0, true);
        let err = drive(
            &inst,
            &sched,
            &RunOpts {
                threads: 1,
                resume: Some(cur),
                ..RunOpts::default()
            },
            &mut NullRecorder,
            &mut NullTiming,
        )
        .unwrap_err();
        assert!(
            matches!(err, DistError::ResumeMismatch { at: 0, .. }),
            "{err}"
        );

        // More recorded steps than the schedule has variables.
        let mut steps = honest.clone();
        steps.push((0, 0));
        let cur = ResumeCursor::new(&steps, 0, true);
        let err = drive(
            &inst,
            &sched,
            &RunOpts {
                threads: 1,
                resume: Some(cur),
                ..RunOpts::default()
            },
            &mut NullRecorder,
            &mut NullTiming,
        )
        .unwrap_err();
        match err {
            DistError::ResumeMismatch { at, .. } => assert_eq!(at, honest.len()),
            other => panic!("expected overrun mismatch, got {other}"),
        }

        // An audited prefix fed to the unaudited driver.
        let cur = ResumeCursor::new(&honest[..4], 2, true);
        let err = drive(
            &inst,
            &sched,
            &RunOpts {
                threads: 1,
                resume: Some(cur),
                ..RunOpts::default()
            },
            &mut NullRecorder,
            &mut NullTiming,
        )
        .unwrap_err();
        assert!(matches!(err, DistError::ResumeMismatch { .. }), "{err}");
    }

    #[test]
    fn mismatched_schedules_are_rejected_not_misapplied() {
        let inst2 = ring_instance(16, 3);
        let inst3 = hyper_ring_instance(32, 3);
        let edge16 = Schedule::edge(inst2.dependency_graph(), 5, 1).unwrap();
        let d2_32 = Schedule::distance2(inst3.dependency_graph(), 7, 1).unwrap();
        // Wrong kind for a rank-specific wrapper: the wrapper's own slot
        // count against the other kind's.
        assert_eq!(
            distributed_fixer2_scheduled(&inst2, &d2_32, CriterionCheck::Enforce, 1).unwrap_err(),
            DistError::ScheduleMismatch {
                expected: 16,
                found: 32
            }
        );
        assert_eq!(
            distributed_fixer3_scheduled(&inst3, &edge16, CriterionCheck::Enforce, 1).unwrap_err(),
            DistError::ScheduleMismatch {
                expected: 32,
                found: 16
            }
        );
        // Right kind, wrong graph — through the wrapper and through
        // `drive`, for both kinds.
        let edge64 = Schedule::edge(ring_instance(64, 3).dependency_graph(), 5, 1).unwrap();
        let d2_24 =
            Schedule::distance2(hyper_ring_instance(24, 3).dependency_graph(), 7, 1).unwrap();
        let mismatch = |expected, found| DistError::ScheduleMismatch { expected, found };
        assert_eq!(
            distributed_fixer2_scheduled(&inst2, &edge64, CriterionCheck::Enforce, 1).unwrap_err(),
            mismatch(16, 64)
        );
        let opts = RunOpts::default();
        assert_eq!(
            drive(&inst2, &edge64, &opts, &mut NullRecorder, &mut NullTiming).unwrap_err(),
            mismatch(16, 64)
        );
        assert_eq!(
            drive(&inst3, &d2_24, &opts, &mut NullRecorder, &mut NullTiming).unwrap_err(),
            mismatch(32, 24)
        );
    }
}
