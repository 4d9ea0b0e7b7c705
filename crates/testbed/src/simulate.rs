//! The slice-lifecycle simulation and the empirical characteristic
//! function.
//!
//! For a coalition `S` of authorities, the simulator instantiates the
//! nodes of `S`'s sites, replays a workload of slice requests (external
//! customers — the paper's commercial scenario, where demand does not
//! depend on the coalition), and measures the utility delivered:
//! a slice wanting `> l` distinct locations is admitted on the
//! least-loaded node (with `r` free sliver units) of every available
//! location (up to its `l̄`), holds `r` units per node for its holding
//! time, and contributes `u(x)` on admission.
//!
//! Running this for every coalition yields a **measured** coalitional game
//! ([`empirical_game_diagnosed`]) on which the Shapley machinery runs unchanged —
//! the paper's proposed off-line policy-design pipeline, with simulation
//! standing in for the closed-form model.
//!
//! On top of the background [`Churn`] process, a [`FaultPlan`] injects
//! *targeted* failures — node crashes, correlated site outages, permanent
//! authority departures, credential-service outages — through
//! [`run_coalition_faulted`]; [`empirical_game_diagnosed`] measures the
//! whole game under such a plan, substituting conservative fallback values
//! for runs that fail outright and recording what happened per coalition
//! in a [`GameDiagnostics`].

use crate::faults::{Fault, FaultPlan};
use crate::federation::Federation;
use crate::workload::{SliceRequest, Workload};
use fedval_coalition::{
    Coalition, CoalitionDiagnostics, GameDiagnostics, TableGame, ValueSource,
};
use fedval_core::{LocationId, Utility};
use fedval_desim::{ScheduleError, SimRng, Simulator, TimeWeighted};
use std::collections::BTreeMap;
use std::fmt;

/// Node churn parameters: nodes alternate exponentially-distributed up
/// and down periods — the paper's §2.1 *reliability* attribute ("how long
/// it remains available without interruption") made operational.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// Mean time between failures (mean up period).
    pub mtbf: f64,
    /// Mean time to repair (mean down period).
    pub mttr: f64,
}

impl Churn {
    /// Long-run node availability `MTBF / (MTBF + MTTR)` — the model's
    /// `Tᵢ` when all of a facility's nodes share the same churn.
    pub fn availability(&self) -> f64 {
        self.mtbf / (self.mtbf + self.mttr)
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Simulated time horizon.
    pub horizon: f64,
    /// Initial span excluded from statistics (transient warm-up).
    pub warmup: f64,
    /// RNG seed (workload and tie-breaking).
    pub seed: u64,
    /// Optional node up/down churn (None = perfectly reliable nodes).
    pub churn: Option<Churn>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: 1000.0,
            warmup: 100.0,
            seed: 42,
            churn: None,
        }
    }
}

/// Why a simulation run could not be carried out.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An event time was unschedulable (NaN, infinite, or in the past) —
    /// typically a malformed workload or fault plan.
    Schedule(ScheduleError),
    /// A fault targeted a node index outside the federation registry.
    UnknownNode {
        /// The offending federation-wide node index.
        node: usize,
        /// Nodes in the federation.
        n_nodes: usize,
    },
    /// A fault targeted an authority outside the federation.
    UnknownAuthority {
        /// The offending authority index.
        authority: usize,
        /// Authorities in the federation.
        n_authorities: usize,
    },
    /// A fault targeted a site index its authority does not have.
    UnknownSite {
        /// The authority the fault targeted.
        authority: usize,
        /// The offending site index.
        site: usize,
        /// Sites that authority actually has.
        n_sites: usize,
    },
    /// A credential outage window has a non-finite start or a non-finite
    /// or negative duration.
    BadCredentialWindow {
        /// Window start.
        at: f64,
        /// Window length.
        duration: f64,
    },
    /// The federation is too large to measure all `2^n` coalitions.
    TooManyAuthorities {
        /// Authorities in the federation.
        n: usize,
        /// Supported maximum.
        max: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Schedule(e) => write!(f, "cannot schedule event: {e}"),
            SimError::UnknownNode { node, n_nodes } => {
                write!(f, "fault targets node {node}, federation has {n_nodes}")
            }
            SimError::UnknownAuthority {
                authority,
                n_authorities,
            } => write!(
                f,
                "fault targets authority {authority}, federation has {n_authorities}"
            ),
            SimError::UnknownSite {
                authority,
                site,
                n_sites,
            } => write!(
                f,
                "fault targets site {site} of authority {authority}, which has {n_sites}"
            ),
            SimError::BadCredentialWindow { at, duration } => {
                write!(f, "credential outage window [{at}, {at}+{duration}) is malformed")
            }
            SimError::TooManyAuthorities { n, max } => {
                write!(f, "{n} authorities exceed the 2^n measurement limit of {max}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for SimError {
    fn from(e: ScheduleError) -> SimError {
        SimError::Schedule(e)
    }
}

/// Measured outcome of one coalition run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total utility delivered after warm-up.
    pub total_utility: f64,
    /// Utility per workload class.
    pub per_class_utility: Vec<f64>,
    /// Admitted slice count per class.
    pub admitted: Vec<u64>,
    /// Blocked slice count per class.
    pub blocked: Vec<u64>,
    /// Sliver-time consumed on each authority's nodes (player-indexed over
    /// the full federation; non-members are zero).
    pub consumption: Vec<f64>,
    /// Mean fraction of the coalition's sliver capacity in use.
    pub mean_utilization: f64,
    /// Sliver placements killed by node failures (after warm-up).
    pub disrupted_slivers: u64,
    /// Utility accrued to each authority's affiliated users (P2P
    /// scenario; classes with `owner: None` accrue to no one here).
    pub per_authority_utility: Vec<f64>,
}

impl SimReport {
    /// Blocking probability per class (`NaN`-free: 0 when no arrivals).
    pub fn blocking_probability(&self, class: usize) -> f64 {
        let total = self.admitted[class] + self.blocked[class];
        if total == 0 {
            0.0
        } else {
            self.blocked[class] as f64 / total as f64
        }
    }
}

/// Outcome of one fault-injected coalition run: the ordinary report plus
/// fault-layer counters.
#[derive(Debug, Clone)]
pub struct FaultedRun {
    /// The measured report.
    pub report: SimReport,
    /// Fault-plan events that applied to this coalition (events targeting
    /// non-members do not count).
    pub faults_injected: u32,
    /// Credential-exchange retries taken during admission control.
    pub credential_retries: u32,
}

struct NodeState {
    authority: usize,
    location: LocationId,
    capacity: u64,
    used: u64,
    up: bool,
    /// Incremented on every failure; stale departures are ignored.
    epoch: u64,
    /// The node's authority left the federation: permanently down.
    departed: bool,
}

enum Event {
    /// Index into the request list.
    Arrival(usize),
    /// Release `r` sliver units on each listed `(node, epoch)`; stale
    /// epochs (the node failed meanwhile) are skipped.
    Departure { nodes: Vec<(usize, u64)>, r: u64 },
    /// A node fails under background churn (killing its slivers) …
    NodeDown(usize),
    /// … and later recovers.
    NodeUp(usize),
    /// An injected fault downs a node (crash or site outage).
    FaultDown(usize),
    /// An injected repair restores a faulted node.
    FaultUp(usize),
    /// The node's authority departs the federation: down for good.
    Depart(usize),
}

/// Runs the slice simulation for the authorities in `coalition` under an
/// injected [`FaultPlan`] (empty for a clean run).
///
/// Fault events targeting authorities or nodes outside the coalition are
/// validated but otherwise ignored, so one plan can be replayed against
/// every coalition. Injected outages compose with background churn: a
/// node is usable only while no failure of either kind holds it down
/// (overlapping repairs may shorten a churn downtime — the windows
/// effectively union).
///
/// # Errors
/// [`SimError::Schedule`] for unschedulable event times, the
/// `Unknown*`/[`SimError::BadCredentialWindow`] variants for fault events
/// referencing nonexistent targets or malformed outage windows.
pub fn run_coalition_faulted(
    federation: &Federation,
    coalition: Coalition,
    workload: &Workload,
    config: &SimConfig,
    plan: &FaultPlan,
) -> Result<FaultedRun, SimError> {
    let _run_span = fedval_obs::span_with("testbed.simulate.run", || {
        format!(
            "mask={} horizon={} seed={}",
            coalition.0, config.horizon, config.seed
        )
    });
    let n_classes = workload.classes.len();
    let mut rng = SimRng::seed_from(config.seed);
    let requests: Vec<SliceRequest> = workload.generate(config.horizon, &mut rng);

    // Instantiate the coalition's nodes, tracking federation-wide node
    // indices (authority-major, site-major — registry order) so fault
    // targets resolve against any coalition.
    let mut nodes: Vec<NodeState> = Vec::new();
    let mut fed_to_local: Vec<Option<usize>> = Vec::new();
    for (ai, authority) in federation.authorities().iter().enumerate() {
        let member = coalition.contains(ai);
        for site in &authority.sites {
            for node in &site.nodes {
                if member {
                    fed_to_local.push(Some(nodes.len()));
                    nodes.push(NodeState {
                        authority: ai,
                        location: site.location,
                        capacity: node.sliver_capacity,
                        used: 0,
                        up: true,
                        epoch: 0,
                        departed: false,
                    });
                } else {
                    fed_to_local.push(None);
                }
            }
        }
    }
    let total_capacity: u64 = nodes.iter().map(|n| n.capacity).sum();

    // Location → node indices.
    let mut by_location: BTreeMap<LocationId, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_location.entry(n.location).or_default().push(i);
    }

    let mut sim: Simulator<Event> = Simulator::new();

    // Injected faults are scheduled first so that at equal timestamps they
    // take effect before arrivals (a departure at t applies to every
    // arrival from t on).
    let faults_injected =
        schedule_faults(&mut sim, federation, coalition, plan, &fed_to_local, &nodes)?;

    for (i, r) in requests.iter().enumerate() {
        sim.try_schedule_at(r.arrival, Event::Arrival(i))?;
    }
    let mut churn_rng = rng.fork();
    if let Some(churn) = config.churn {
        use fedval_desim::{Distribution, Exponential};
        let up = Exponential::with_mean(churn.mtbf);
        for i in 0..nodes.len() {
            sim.try_schedule(up.sample(&mut churn_rng), Event::NodeDown(i))?;
        }
    }

    let mut per_class_utility = vec![0.0; n_classes];
    let mut admitted = vec![0u64; n_classes];
    let mut blocked = vec![0u64; n_classes];
    let mut consumption = vec![0.0; federation.len()];
    let mut per_authority_utility = vec![0.0; federation.len()];
    let mut busy = TimeWeighted::new(0.0, 0.0);
    let mut disrupted = 0u64;
    let mut credential_retries = 0u32;

    while let Some((now, event)) = sim.next_event() {
        if now > config.horizon {
            break; // departures past the horizon cannot affect statistics
        }
        match event {
            Event::Arrival(idx) => {
                let req = requests[idx];
                let class = &workload.classes[req.class].class;
                let r = class.resources_per_location;
                // Credential exchange with each member authority: a
                // transient outage denies an authority's nodes unless a
                // backed-off retry lands after its window clears.
                let mut denied_mask = 0u64;
                if plan.has_credential_outages() {
                    for ai in coalition.players() {
                        if !plan.credential_blocked(ai, now) {
                            continue;
                        }
                        let mut cleared = false;
                        for attempt in 1..=plan.retry.max_retries {
                            credential_retries += 1;
                            let t = plan.retry.attempt_time(now, attempt);
                            if !plan.credential_blocked(ai, t) {
                                cleared = true;
                                break;
                            }
                        }
                        if !cleared {
                            denied_mask |= 1 << ai;
                        }
                    }
                }
                // One node with >= r free sliver units per available
                // location, least-loaded first.
                let mut chosen: Vec<usize> = Vec::new();
                for node_ids in by_location.values() {
                    let free = node_ids
                        .iter()
                        .copied()
                        .filter(|&i| {
                            nodes[i].up
                                && nodes[i].used + r <= nodes[i].capacity
                                && denied_mask & (1 << nodes[i].authority) == 0
                        })
                        .min_by_key(|&i| (nodes[i].used, i));
                    if let Some(i) = free {
                        chosen.push(i);
                    }
                }
                let want = class.max_size(chosen.len() as u64);
                if (want as f64) <= class.utility.threshold {
                    // Not enough distinct locations: blocked.
                    if now >= config.warmup {
                        blocked[req.class] += 1;
                    }
                    continue;
                }
                // Prefer the least-loaded locations when trimming to l̄.
                chosen.sort_by_key(|&i| (nodes[i].used * 1000) / nodes[i].capacity.max(1));
                chosen.truncate(usize::try_from(want).unwrap_or(usize::MAX));
                for &i in &chosen {
                    nodes[i].used += r;
                }
                busy.record(now, nodes.iter().map(|n| n.used).sum::<u64>() as f64);
                if now >= config.warmup {
                    admitted[req.class] += 1;
                    let u = class.utility.eval(want as f64);
                    per_class_utility[req.class] += u;
                    if let Some(owner) = workload.classes[req.class].owner {
                        if owner < per_authority_utility.len() {
                            per_authority_utility[owner] += u;
                        }
                    }
                    for &i in &chosen {
                        consumption[nodes[i].authority] += r as f64 * req.holding;
                    }
                }
                let held: Vec<(usize, u64)> = chosen.iter().map(|&i| (i, nodes[i].epoch)).collect();
                sim.try_schedule_at(now + req.holding, Event::Departure { nodes: held, r })?;
            }
            Event::Departure { nodes: held, r } => {
                for &(i, epoch) in &held {
                    if nodes[i].epoch == epoch {
                        debug_assert!(nodes[i].used >= r);
                        nodes[i].used -= r;
                    }
                }
                busy.record(now, nodes.iter().map(|n| n.used).sum::<u64>() as f64);
            }
            Event::NodeDown(i) => {
                if nodes[i].departed {
                    continue; // the churn chain dies with the authority
                }
                if now >= config.warmup {
                    disrupted += nodes[i].used;
                }
                nodes[i].up = false;
                nodes[i].used = 0;
                nodes[i].epoch += 1;
                busy.record(now, nodes.iter().map(|n| n.used).sum::<u64>() as f64);
                if let Some(churn) = config.churn {
                    use fedval_desim::{Distribution, Exponential};
                    let down = Exponential::with_mean(churn.mttr);
                    sim.try_schedule_at(now + down.sample(&mut churn_rng), Event::NodeUp(i))?;
                }
            }
            Event::NodeUp(i) => {
                if nodes[i].departed {
                    continue;
                }
                nodes[i].up = true;
                if let Some(churn) = config.churn {
                    use fedval_desim::{Distribution, Exponential};
                    let up = Exponential::with_mean(churn.mtbf);
                    sim.try_schedule_at(now + up.sample(&mut churn_rng), Event::NodeDown(i))?;
                }
            }
            Event::FaultDown(i) => {
                if nodes[i].departed {
                    continue;
                }
                if now >= config.warmup {
                    disrupted += nodes[i].used;
                }
                nodes[i].up = false;
                nodes[i].used = 0;
                nodes[i].epoch += 1;
                busy.record(now, nodes.iter().map(|n| n.used).sum::<u64>() as f64);
            }
            Event::FaultUp(i) => {
                if !nodes[i].departed {
                    nodes[i].up = true;
                }
            }
            Event::Depart(i) => {
                if now >= config.warmup {
                    disrupted += nodes[i].used;
                }
                nodes[i].departed = true;
                nodes[i].up = false;
                nodes[i].used = 0;
                nodes[i].epoch += 1;
                busy.record(now, nodes.iter().map(|n| n.used).sum::<u64>() as f64);
            }
        }
    }

    let mean_utilization = if total_capacity == 0 {
        0.0
    } else {
        busy.mean(config.horizon) / total_capacity as f64
    };

    // Counters are aggregated locally during the event loop and reported
    // once per run, so the loop itself emits no records.
    if fedval_obs::is_enabled() {
        fedval_obs::counter_add("testbed.simulate.runs", 1);
        fedval_obs::counter_add("testbed.simulate.requests", requests.len() as u64);
        fedval_obs::counter_add("testbed.simulate.admitted", admitted.iter().sum());
        fedval_obs::counter_add("testbed.simulate.blocked", blocked.iter().sum());
        fedval_obs::counter_add("testbed.simulate.disrupted_slivers", disrupted);
        fedval_obs::counter_add("testbed.simulate.faults_injected", u64::from(faults_injected));
        fedval_obs::counter_add(
            "testbed.simulate.credential_retries",
            u64::from(credential_retries),
        );
    }

    Ok(FaultedRun {
        report: SimReport {
            total_utility: per_class_utility.iter().sum(),
            per_class_utility,
            admitted,
            blocked,
            consumption,
            mean_utilization,
            disrupted_slivers: disrupted,
            per_authority_utility,
        },
        faults_injected,
        credential_retries,
    })
}

/// Validates the plan against the federation and schedules the events
/// that apply to this coalition. Returns how many plan entries applied.
fn schedule_faults(
    sim: &mut Simulator<Event>,
    federation: &Federation,
    coalition: Coalition,
    plan: &FaultPlan,
    fed_to_local: &[Option<usize>],
    nodes: &[NodeState],
) -> Result<u32, SimError> {
    let n_authorities = federation.len();
    let check_authority = |authority: usize| -> Result<(), SimError> {
        if authority >= n_authorities {
            return Err(SimError::UnknownAuthority {
                authority,
                n_authorities,
            });
        }
        Ok(())
    };
    let mut applied = 0u32;
    for fault in plan.events() {
        let applied_before = applied;
        match *fault {
            Fault::NodeCrash {
                node,
                at,
                repair_after,
            } => {
                if node >= fed_to_local.len() {
                    return Err(SimError::UnknownNode {
                        node,
                        n_nodes: fed_to_local.len(),
                    });
                }
                if let Some(li) = fed_to_local[node] {
                    sim.try_schedule_at(at, Event::FaultDown(li))?;
                    if let Some(after) = repair_after {
                        sim.try_schedule_at(at + after, Event::FaultUp(li))?;
                    }
                    applied += 1;
                }
            }
            Fault::SiteOutage {
                authority,
                site,
                at,
                duration,
            } => {
                check_authority(authority)?;
                let sites = &federation.authorities()[authority].sites;
                if site >= sites.len() {
                    return Err(SimError::UnknownSite {
                        authority,
                        site,
                        n_sites: sites.len(),
                    });
                }
                if coalition.contains(authority) {
                    let location = sites[site].location;
                    for (li, n) in nodes.iter().enumerate() {
                        if n.authority == authority && n.location == location {
                            sim.try_schedule_at(at, Event::FaultDown(li))?;
                            sim.try_schedule_at(at + duration, Event::FaultUp(li))?;
                        }
                    }
                    applied += 1;
                }
            }
            Fault::AuthorityDeparture { authority, at } => {
                check_authority(authority)?;
                if coalition.contains(authority) {
                    for (li, n) in nodes.iter().enumerate() {
                        if n.authority == authority {
                            sim.try_schedule_at(at, Event::Depart(li))?;
                        }
                    }
                    applied += 1;
                }
            }
            Fault::CredentialOutage {
                authority,
                at,
                duration,
            } => {
                check_authority(authority)?;
                if !at.is_finite() || !duration.is_finite() || duration < 0.0 {
                    return Err(SimError::BadCredentialWindow { at, duration });
                }
                if coalition.contains(authority) {
                    applied += 1;
                }
            }
        }
        if applied > applied_before {
            fedval_obs::event("testbed.faults.apply", || fault.obs_fields());
        }
    }
    Ok(applied)
}

/// An empirically measured game together with per-coalition provenance.
#[derive(Debug, Clone)]
pub struct MeasuredGame {
    /// The characteristic-function table (fallback values included).
    pub game: TableGame,
    /// What happened while measuring each coalition.
    pub diagnostics: GameDiagnostics,
}

/// Measures the full characteristic function by simulation — one run per
/// coalition, identical workload (same seed) across coalitions — under a
/// [`FaultPlan`] (empty for a clean measurement), degrading gracefully
/// instead of failing outright.
///
/// Coalitions are visited in ascending mask order. When a run fails — an
/// unschedulable fault time, a malformed workload, a non-finite measured
/// utility — the coalition is assigned a conservative fallback: the best
/// superadditive two-part cover `v(T) + v(S∖T)` over proper non-empty
/// subsets `T ⊂ S` (whose values, measured or themselves fallbacks, are
/// already known), or zero for singletons. Every substitution is recorded
/// in the returned [`GameDiagnostics`].
///
/// Only a federation too large to enumerate is a hard error.
///
/// # Errors
/// Only [`SimError::TooManyAuthorities`]: per-coalition failures degrade
/// to recorded fallbacks rather than erroring.
pub fn empirical_game_diagnosed(
    federation: &Federation,
    workload: &Workload,
    config: &SimConfig,
    plan: &FaultPlan,
) -> Result<MeasuredGame, SimError> {
    const MAX_PLAYERS: usize = 16;
    let n = federation.len();
    if n > MAX_PLAYERS {
        return Err(SimError::TooManyAuthorities { n, max: MAX_PLAYERS });
    }
    let size = 1usize << n;
    let _game_span = fedval_obs::span_with("testbed.empirical.game", || {
        format!("n={n} coalitions={size}")
    });
    let mut values = vec![0.0_f64; size];
    let mut per_coalition: Vec<CoalitionDiagnostics> = Vec::with_capacity(size);
    for mask in 0..size as u64 {
        let c = Coalition(mask);
        if c.is_empty() {
            per_coalition.push(CoalitionDiagnostics::clean(c));
            continue;
        }
        match run_coalition_faulted(federation, c, workload, config, plan) {
            Ok(run) if run.report.total_utility.is_finite() => {
                values[c.index()] = run.report.total_utility;
                let diag = CoalitionDiagnostics {
                    coalition: c,
                    source: ValueSource::Measured,
                    faults_injected: run.faults_injected,
                    credential_retries: run.credential_retries,
                    error: None,
                };
                // Only disturbed measurements are worth a trace event;
                // clean coalitions would flood the trace with 2^n lines
                // saying "nothing happened".
                if diag.faults_injected > 0 || diag.credential_retries > 0 {
                    fedval_obs::event("testbed.empirical.coalition", || diag.obs_fields());
                }
                per_coalition.push(diag);
            }
            outcome => {
                let why = match outcome {
                    Err(e) => e.to_string(),
                    Ok(_) => "non-finite measured utility".to_string(),
                };
                let (value, source) = conservative_fallback(c, &values);
                values[c.index()] = value;
                let diag = CoalitionDiagnostics {
                    coalition: c,
                    source,
                    faults_injected: 0,
                    credential_retries: 0,
                    error: Some(why),
                };
                fedval_obs::counter_add("testbed.empirical.fallbacks", 1);
                fedval_obs::event("testbed.empirical.coalition", || diag.obs_fields());
                per_coalition.push(diag);
            }
        }
    }
    let diagnostics = GameDiagnostics { per_coalition };
    fedval_obs::event("testbed.empirical.game", || {
        vec![
            ("coalitions".to_string(), size.to_string()),
            (
                "fallbacks".to_string(),
                diagnostics.fallbacks_used().to_string(),
            ),
            (
                "faults_injected".to_string(),
                diagnostics.total_faults_injected().to_string(),
            ),
            (
                "credential_retries".to_string(),
                diagnostics.total_credential_retries().to_string(),
            ),
        ]
    });
    Ok(MeasuredGame {
        game: TableGame::from_values(n, values),
        diagnostics,
    })
}

/// The best superadditive two-part cover of `c` from already-known values
/// (ascending-mask order guarantees every proper subset is filled in).
fn conservative_fallback(c: Coalition, values: &[f64]) -> (f64, ValueSource) {
    let mut best = 0.0;
    let mut source = ValueSource::ZeroFallback;
    for t in c.subsets() {
        if t.is_empty() || t == c {
            continue;
        }
        let v = values[t.index()] + values[c.difference(t).index()];
        if v > best {
            best = v;
            source = ValueSource::SubCoalitionFallback(t);
        }
    }
    (best, source)
}

/// [`run_coalition_faulted`] under an empty fault plan: the clean run the
/// tests compare fault-injected runs against.
#[cfg(test)]
fn run_clean(
    federation: &Federation,
    coalition: Coalition,
    workload: &Workload,
    config: &SimConfig,
) -> SimReport {
    run_coalition_faulted(federation, coalition, workload, config, &FaultPlan::new())
        .expect("a well-formed workload runs without faults")
        .report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::synthetic_authority;
    use fedval_coalition::WideGame;
    use fedval_core::ExperimentClass;

    fn small_federation() -> Federation {
        Federation::new(vec![
            synthetic_authority("PLC", 0, 6, 2, 2, 100),
            synthetic_authority("PLE", 6, 4, 2, 2, 80),
        ])
    }

    fn config() -> SimConfig {
        SimConfig {
            horizon: 300.0,
            warmup: 30.0,
            seed: 7,
            churn: None,
        }
    }

    #[test]
    fn diversity_threshold_blocks_small_coalitions() {
        // Class needs > 8 locations; PLC alone has 6, PLE alone 4 —
        // only the federation (10) can serve.
        let fed = small_federation();
        let wl = Workload::single(ExperimentClass::simple("big", 8.0, 1.0), 0.5, 1.0);
        let alone = run_clean(&fed, Coalition::singleton(0), &wl, &config());
        assert_eq!(alone.total_utility, 0.0);
        assert!(alone.blocked.iter().sum::<u64>() > 0);
        let together = run_clean(&fed, Coalition::grand(2), &wl, &config());
        assert!(together.total_utility > 0.0);
    }

    #[test]
    fn empirical_game_is_monotone_ish_and_zero_on_empty() {
        let fed = small_federation();
        let wl = Workload::single(ExperimentClass::simple("small", 2.0, 1.0), 1.0, 0.5);
        let game = empirical_game_diagnosed(&fed, &wl, &config(), &FaultPlan::new())
            .expect("2 authorities")
            .game;
        assert_eq!(game.value(Coalition::EMPTY), 0.0);
        let v1 = game.value(Coalition::singleton(0));
        let vn = game.value(Coalition::grand(2));
        assert!(vn >= v1, "federation at least as valuable: {vn} vs {v1}");
    }

    #[test]
    fn same_seed_same_results() {
        let fed = small_federation();
        let wl = Workload::planetlab_mix(1.0, 1.0);
        let cfg = config();
        let a = run_clean(&fed, Coalition::grand(2), &wl, &cfg);
        let b = run_clean(&fed, Coalition::grand(2), &wl, &cfg);
        assert_eq!(a.total_utility, b.total_utility);
        assert_eq!(a.admitted, b.admitted);
    }

    #[test]
    fn consumption_tracks_members_only() {
        let fed = small_federation();
        let wl = Workload::single(ExperimentClass::simple("c", 1.0, 1.0), 1.0, 0.5);
        let r = run_clean(&fed, Coalition::singleton(1), &wl, &config());
        assert_eq!(r.consumption[0], 0.0, "non-member consumed nothing");
        assert!(r.consumption[1] > 0.0);
    }

    #[test]
    fn utilization_and_blocking_bounds() {
        let fed = small_federation();
        // Overload: high arrival rate, long holding.
        let wl = Workload::single(ExperimentClass::simple("c", 1.0, 1.0), 20.0, 5.0);
        let r = run_clean(&fed, Coalition::grand(2), &wl, &config());
        assert!(r.mean_utilization > 0.3 && r.mean_utilization <= 1.0);
        assert!(r.blocking_probability(0) > 0.0);
        assert!(r.blocking_probability(0) <= 1.0);
    }
}

#[cfg(test)]
mod resource_tests {
    use super::*;
    use crate::authority::synthetic_authority;
    use crate::workload::ClassLoad;
    use fedval_core::ExperimentClass;

    #[test]
    fn resource_hungry_class_consumes_r_slivers_per_node() {
        // One authority, nodes of capacity 4; a class with r = 4 fills a
        // node with a single sliver, so at most one such slice fits per
        // node at a time.
        let fed = Federation::new(vec![synthetic_authority("A", 0, 3, 2, 4, 0)]);
        let wl = Workload::single(
            ExperimentClass::simple("cdn", 0.0, 1.0).with_resources(4),
            4.0,
            1.0,
        );
        let cfg = SimConfig {
            horizon: 400.0,
            warmup: 40.0,
            seed: 3,
            churn: None,
        };
        let r = run_clean(&fed, Coalition::grand(1), &wl, &cfg);
        // Capacity: 6 nodes × 4 units = 24 units; each slice takes up to
        // 3 locations × 4 units = 12 ⇒ heavy blocking at load 4 Erlang.
        assert!(r.blocking_probability(0) > 0.1);
        assert!(r.mean_utilization > 0.2);
    }

    #[test]
    fn heavy_class_is_blocked_before_light_class() {
        // Same arrival pattern, one light (r=1) and one heavy (r=3) class
        // competing on capacity-3 nodes: the heavy class needs a fully
        // free node per location and blocks more.
        let fed = Federation::new(vec![synthetic_authority("A", 0, 4, 2, 3, 0)]);
        let wl = Workload {
            classes: vec![
                ClassLoad::external(
                ExperimentClass::simple("light", 1.0, 1.0),
                3.0,
                1.0,
            ),
                ClassLoad::external(
                ExperimentClass::simple("heavy", 1.0, 1.0).with_resources(3),
                3.0,
                1.0,
            ),
            ],
        };
        let cfg = SimConfig {
            horizon: 600.0,
            warmup: 60.0,
            seed: 13,
            churn: None,
        };
        let r = run_clean(&fed, Coalition::grand(1), &wl, &cfg);
        assert!(
            r.blocking_probability(1) > r.blocking_probability(0),
            "heavy {} vs light {}",
            r.blocking_probability(1),
            r.blocking_probability(0)
        );
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;
    use crate::authority::synthetic_authority;
    use fedval_core::ExperimentClass;

    fn fed() -> Federation {
        Federation::new(vec![synthetic_authority("A", 0, 6, 2, 2, 0)])
    }

    fn config(churn: Option<Churn>) -> SimConfig {
        SimConfig {
            horizon: 2000.0,
            warmup: 200.0,
            seed: 9,
            churn,
        }
    }

    #[test]
    fn churn_availability_formula() {
        let c = Churn {
            mtbf: 9.0,
            mttr: 1.0,
        };
        assert!((c.availability() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn churn_reduces_delivered_utility() {
        let wl = Workload::single(ExperimentClass::simple("e", 2.0, 1.0), 2.0, 1.0);
        let reliable = run_clean(&fed(), Coalition::grand(1), &wl, &config(None));
        let flaky = run_clean(
            &fed(),
            Coalition::grand(1),
            &wl,
            &config(Some(Churn {
                mtbf: 5.0,
                mttr: 5.0, // 50% availability
            })),
        );
        assert!(flaky.total_utility < reliable.total_utility);
        assert!(flaky.disrupted_slivers > 0);
        assert_eq!(reliable.disrupted_slivers, 0);
    }

    #[test]
    fn mild_churn_is_mild() {
        let wl = Workload::single(ExperimentClass::simple("e", 2.0, 1.0), 1.0, 0.5);
        let reliable = run_clean(&fed(), Coalition::grand(1), &wl, &config(None));
        let mild = run_clean(
            &fed(),
            Coalition::grand(1),
            &wl,
            &config(Some(Churn {
                mtbf: 1000.0,
                mttr: 0.1,
            })),
        );
        // ~99.99% availability: utility within a few percent.
        let ratio = mild.total_utility / reliable.total_utility;
        assert!(ratio > 0.95, "ratio = {ratio}");
    }

    #[test]
    fn churn_runs_are_reproducible() {
        let wl = Workload::single(ExperimentClass::simple("e", 2.0, 1.0), 2.0, 1.0);
        let cfg = config(Some(Churn {
            mtbf: 10.0,
            mttr: 2.0,
        }));
        let a = run_clean(&fed(), Coalition::grand(1), &wl, &cfg);
        let b = run_clean(&fed(), Coalition::grand(1), &wl, &cfg);
        assert_eq!(a.total_utility, b.total_utility);
        assert_eq!(a.disrupted_slivers, b.disrupted_slivers);
    }
}

#[cfg(test)]
mod p2p_measured_tests {
    use super::*;
    use crate::authority::synthetic_authority;
    use crate::workload::ClassLoad;
    use fedval_core::ExperimentClass;

    #[test]
    fn owned_classes_attribute_utility_to_their_authority() {
        // Authority 0's users run wide experiments only the federation can
        // host: the measured P2P route shows federation unblocking them.
        let fed = Federation::new(vec![
            synthetic_authority("A", 0, 4, 2, 2, 50),
            synthetic_authority("B", 4, 4, 2, 2, 50),
        ]);
        let wl = Workload {
            classes: vec![
                ClassLoad::owned(0, ExperimentClass::simple("wide", 6.0, 1.0), 0.8, 0.5),
                ClassLoad::owned(1, ExperimentClass::simple("small", 2.0, 1.0), 0.8, 0.5),
            ],
        };
        let cfg = SimConfig {
            horizon: 400.0,
            warmup: 40.0,
            seed: 3,
            churn: None,
        };
        // A alone: 4 locations < 7 needed ⇒ its users get nothing.
        let alone = run_clean(&fed, Coalition::singleton(0), &wl, &cfg);
        assert_eq!(alone.per_authority_utility[0], 0.0);
        // Federated: A's users are served.
        let grand = run_clean(&fed, Coalition::grand(2), &wl, &cfg);
        assert!(grand.per_authority_utility[0] > 0.0);
        assert!(grand.per_authority_utility[1] > 0.0);
        // Per-authority utilities add up to total for fully-owned loads.
        let sum: f64 = grand.per_authority_utility.iter().sum();
        assert!((sum - grand.total_utility).abs() < 1e-9);
    }

    #[test]
    fn external_classes_accrue_to_no_authority() {
        let fed = Federation::new(vec![synthetic_authority("A", 0, 4, 2, 2, 0)]);
        let wl = Workload::single(ExperimentClass::simple("e", 1.0, 1.0), 1.0, 0.5);
        let cfg = SimConfig {
            horizon: 200.0,
            warmup: 20.0,
            seed: 5,
            churn: None,
        };
        let r = run_clean(&fed, Coalition::grand(1), &wl, &cfg);
        assert!(r.total_utility > 0.0);
        assert_eq!(r.per_authority_utility[0], 0.0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::authority::synthetic_authority;
    use fedval_core::ExperimentClass;

    fn fed() -> Federation {
        Federation::new(vec![
            synthetic_authority("A", 0, 4, 2, 2, 0),
            synthetic_authority("B", 4, 4, 2, 2, 0),
        ])
    }

    fn cfg() -> SimConfig {
        SimConfig {
            horizon: 400.0,
            warmup: 40.0,
            seed: 11,
            churn: None,
        }
    }

    fn wl() -> Workload {
        Workload::single(ExperimentClass::simple("e", 2.0, 1.0), 2.0, 1.0)
    }

    #[test]
    fn empty_plan_matches_plain_run() {
        let plain = run_clean(&fed(), Coalition::grand(2), &wl(), &cfg());
        let faulted =
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &FaultPlan::new())
                .unwrap();
        assert_eq!(plain.total_utility, faulted.report.total_utility);
        assert_eq!(faulted.faults_injected, 0);
        assert_eq!(faulted.credential_retries, 0);
    }

    #[test]
    fn crashing_every_node_forever_kills_all_utility() {
        let mut plan = FaultPlan::new();
        for node in 0..16 {
            plan = plan.node_crash(node, 0.0, None);
        }
        let run =
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &plan).unwrap();
        assert_eq!(run.report.total_utility, 0.0);
        assert_eq!(run.faults_injected, 16);
    }

    #[test]
    fn site_outage_costs_utility_and_is_reproducible() {
        let clean =
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &FaultPlan::new())
                .unwrap();
        // Down one site of each authority for most of the trace.
        let plan = FaultPlan::new()
            .site_outage(0, 0, 50.0, 300.0)
            .site_outage(1, 1, 50.0, 300.0);
        let a = run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &plan).unwrap();
        let b = run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &plan).unwrap();
        assert_eq!(a.report.total_utility, b.report.total_utility);
        assert!(a.report.total_utility < clean.report.total_utility);
        assert_eq!(a.faults_injected, 2);
        // Outage events targeting non-members do not apply.
        let solo =
            run_coalition_faulted(&fed(), Coalition::singleton(0), &wl(), &cfg(), &plan).unwrap();
        assert_eq!(solo.faults_injected, 1);
    }

    #[test]
    fn departure_at_time_zero_equals_absent_authority() {
        // An authority departing before the first arrival contributes
        // nothing: the run must measure exactly the value of the
        // coalition without it.
        let plan = FaultPlan::new().authority_departure(1, 0.0);
        let departed =
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &plan).unwrap();
        let without = run_clean(&fed(), Coalition::singleton(0), &wl(), &cfg());
        assert_eq!(departed.report.total_utility, without.total_utility);
        assert_eq!(departed.report.admitted, without.admitted);
    }

    #[test]
    fn mid_trace_departure_downs_nodes_for_good() {
        let plan = FaultPlan::new().authority_departure(1, 100.0);
        let cfg = SimConfig {
            churn: Some(Churn {
                mtbf: 50.0,
                mttr: 1.0,
            }),
            ..cfg()
        };
        let departed =
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg, &plan).unwrap();
        let clean =
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg, &FaultPlan::new())
                .unwrap();
        // Losing half the nodes (and their locations) costs utility even
        // with churn repairs racing the departure.
        assert!(departed.report.total_utility < clean.report.total_utility);
        // Consumption on the departed authority's nodes stops at 100 + max
        // holding, well below the clean run's.
        assert!(departed.report.consumption[1] < clean.report.consumption[1]);
    }

    #[test]
    fn credential_outage_denies_unless_retries_clear_it() {
        // Authority 1 unreachable for the whole trace, no retries: its
        // locations are unusable, so wide slices see only authority 0.
        let stubborn = FaultPlan::new()
            .credential_outage(1, 0.0, 1e9)
            .retry_policy(0, 1.0);
        let denied =
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &stubborn).unwrap();
        let without = run_clean(&fed(), Coalition::singleton(0), &wl(), &cfg());
        assert_eq!(denied.report.total_utility, without.total_utility);
        assert_eq!(denied.credential_retries, 0);

        // A short outage with backoff reaching past it: every admission
        // inside the window retries its way through, nothing is lost.
        let transient = FaultPlan::new()
            .credential_outage(1, 50.0, 3.0)
            .retry_policy(3, 2.0); // retries at +2, +4, +8 — past any point of the window
        let retried =
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &transient).unwrap();
        let clean = run_clean(&fed(), Coalition::grand(2), &wl(), &cfg());
        assert_eq!(retried.report.total_utility, clean.total_utility);
        assert!(retried.credential_retries > 0);
    }

    #[test]
    fn invalid_plans_are_reported_not_panicked() {
        let bad_node = FaultPlan::new().node_crash(999, 1.0, None);
        assert_eq!(
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &bad_node).err(),
            Some(SimError::UnknownNode {
                node: 999,
                n_nodes: 16
            })
        );
        let bad_site = FaultPlan::new().site_outage(0, 7, 1.0, 1.0);
        assert!(matches!(
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &bad_site),
            Err(SimError::UnknownSite { site: 7, .. })
        ));
        let bad_time = FaultPlan::new().node_crash(0, f64::NAN, None);
        assert!(matches!(
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &bad_time),
            Err(SimError::Schedule(_))
        ));
        let bad_window = FaultPlan::new().credential_outage(0, 0.0, -1.0);
        assert!(matches!(
            run_coalition_faulted(&fed(), Coalition::grand(2), &wl(), &cfg(), &bad_window),
            Err(SimError::BadCredentialWindow { .. })
        ));
    }

    #[test]
    fn diagnosed_game_with_clean_plan_is_clean() {
        let measured =
            empirical_game_diagnosed(&fed(), &wl(), &cfg(), &FaultPlan::new()).unwrap();
        assert!(measured.diagnostics.is_clean());
        for c in Coalition::all(2).filter(|c| !c.is_empty()) {
            use fedval_coalition::WideGame;
            let plain = run_clean(&fed(), c, &wl(), &cfg());
            assert_eq!(measured.game.value(c), plain.total_utility);
        }
    }

    #[test]
    fn degraded_game_falls_back_conservatively() {
        // A crash with an unschedulable (NaN) time targets a node of
        // authority 0: every coalition containing 0 fails to simulate and
        // must fall back; coalitions without 0 measure normally.
        use fedval_coalition::WideGame;
        let poison = FaultPlan::new().node_crash(0, f64::NAN, None);
        let measured = empirical_game_diagnosed(&fed(), &wl(), &cfg(), &poison).unwrap();
        let d = &measured.diagnostics;
        assert_eq!(d.fallbacks_used(), 2); // {0} and {0,1}
        let solo = d.get(Coalition::singleton(0)).unwrap();
        assert_eq!(solo.source, ValueSource::ZeroFallback);
        assert!(solo.error.is_some());
        // {0,1} falls back to the measured v({1}) via the 2-part cover.
        let grand = d.get(Coalition::grand(2)).unwrap();
        assert!(grand.source.is_fallback());
        let v1 = measured.game.value(Coalition::singleton(1));
        assert!(v1 > 0.0, "authority 1 measures normally");
        assert_eq!(measured.game.value(Coalition::grand(2)), v1);
        // All values remain finite.
        for c in Coalition::all(2) {
            assert!(measured.game.value(c).is_finite());
        }
    }

    #[test]
    fn oversize_federation_is_a_hard_error() {
        let authorities: Vec<_> = (0..17)
            .map(|i| synthetic_authority("X", i * 2, 2, 2, 1, 0))
            .collect();
        let fed = Federation::new(authorities);
        assert_eq!(
            empirical_game_diagnosed(&fed, &wl(), &cfg(), &FaultPlan::new()).err(),
            Some(SimError::TooManyAuthorities { n: 17, max: 16 })
        );
    }
}
