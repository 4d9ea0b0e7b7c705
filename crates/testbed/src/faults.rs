//! Deterministic fault injection for the testbed simulator.
//!
//! A [`FaultPlan`] is a fixed, seed-reproducible schedule of infrastructure
//! failures layered *on top of* the background [`Churn`](crate::Churn)
//! process: targeted node crashes (with optional repair), correlated
//! site-wide outages, whole-authority departures mid-trace, and transient
//! credential-service outages that admission control must ride out with a
//! bounded [retry/backoff policy](RetryPolicy).
//!
//! Node and authority indices refer to the *federation-wide* registry
//! order (authority-major, site-major — the order of
//! [`Federation::registry`](crate::Federation::registry)), so one plan can
//! be replayed against every coalition: events whose target is outside the
//! coalition simply do not apply to that run.

use fedval_desim::{Distribution, Exponential, SimRng};

/// One scheduled infrastructure fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// A single node (federation-wide registry index) crashes at `at`,
    /// killing its slivers; with `repair_after = Some(d)` it comes back
    /// `d` time units later, with `None` it stays down for the trace.
    NodeCrash {
        /// Federation-wide node index.
        node: usize,
        /// Absolute crash time.
        at: f64,
        /// Optional time-to-repair.
        repair_after: Option<f64>,
    },
    /// Every node of one site goes down together (a correlated failure:
    /// power loss, uplink cut) and recovers together.
    SiteOutage {
        /// Authority index in federation order.
        authority: usize,
        /// Site index within that authority.
        site: usize,
        /// Absolute outage start.
        at: f64,
        /// Outage length.
        duration: f64,
    },
    /// An authority leaves the federation mid-trace: all its nodes go
    /// down permanently and never return.
    AuthorityDeparture {
        /// Authority index in federation order.
        authority: usize,
        /// Absolute departure time.
        at: f64,
    },
    /// An authority's credential service is unreachable during a window:
    /// slice admissions needing its nodes must retry the credential
    /// exchange and lose those locations if every retry lands inside the
    /// window.
    CredentialOutage {
        /// Authority index in federation order.
        authority: usize,
        /// Absolute outage start.
        at: f64,
        /// Outage length.
        duration: f64,
    },
}

impl Fault {
    /// Short machine-readable kind label (`node_crash`, `site_outage`, …)
    /// used in observability events and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::NodeCrash { .. } => "node_crash",
            Fault::SiteOutage { .. } => "site_outage",
            Fault::AuthorityDeparture { .. } => "authority_departure",
            Fault::CredentialOutage { .. } => "credential_outage",
        }
    }

    /// Key → value pairs describing the fault for an observability event
    /// (kind, target, time, and recovery info where applicable).
    pub fn obs_fields(&self) -> Vec<(String, String)> {
        let mut fields = vec![("kind".to_string(), self.kind().to_string())];
        match *self {
            Fault::NodeCrash {
                node,
                at,
                repair_after,
            } => {
                fields.push(("node".to_string(), node.to_string()));
                fields.push(("at".to_string(), at.to_string()));
                if let Some(d) = repair_after {
                    fields.push(("repair_after".to_string(), d.to_string()));
                }
            }
            Fault::SiteOutage {
                authority,
                site,
                at,
                duration,
            } => {
                fields.push(("authority".to_string(), authority.to_string()));
                fields.push(("site".to_string(), site.to_string()));
                fields.push(("at".to_string(), at.to_string()));
                fields.push(("duration".to_string(), duration.to_string()));
            }
            Fault::AuthorityDeparture { authority, at } => {
                fields.push(("authority".to_string(), authority.to_string()));
                fields.push(("at".to_string(), at.to_string()));
            }
            Fault::CredentialOutage {
                authority,
                at,
                duration,
            } => {
                fields.push(("authority".to_string(), authority.to_string()));
                fields.push(("at".to_string(), at.to_string()));
                fields.push(("duration".to_string(), duration.to_string()));
            }
        }
        fields
    }
}

/// Retry/backoff policy for credential exchange during an outage.
///
/// Attempt 0 is the initial exchange at arrival time; retry `k ≥ 1` is
/// made `backoff · 2^(k-1)` after the arrival (exponential backoff), up
/// to `max_retries` retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the initial failed exchange.
    pub max_retries: u32,
    /// Base backoff delay (doubles each retry).
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: 0.5,
        }
    }
}

impl RetryPolicy {
    /// Absolute time of attempt `k` for an exchange started at `now`
    /// (attempt 0 = immediate; attempt `k` backs off exponentially).
    pub fn attempt_time(&self, now: f64, attempt: u32) -> f64 {
        if attempt == 0 {
            now
        } else {
            // Cap the shift so pathological max_retries cannot overflow.
            now + self.backoff * (1u64 << (attempt - 1).min(52)) as f64
        }
    }
}

/// A deterministic schedule of faults plus the credential retry policy.
///
/// Build one fluently:
///
/// ```
/// use fedval_testbed::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .node_crash(3, 50.0, Some(20.0))
///     .site_outage(0, 1, 120.0, 30.0)
///     .authority_departure(2, 400.0)
///     .credential_outage(1, 200.0, 5.0)
///     .retry_policy(3, 1.0);
/// assert_eq!(plan.events().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<Fault>,
    /// Credential-exchange retry policy applied at every admission that
    /// hits a [`Fault::CredentialOutage`] window.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// An empty plan: no faults, default retry policy.
    pub fn new() -> FaultPlan {
        FaultPlan {
            events: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// The scheduled fault events, in insertion order.
    pub fn events(&self) -> &[Fault] {
        &self.events
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a single-node crash (see [`Fault::NodeCrash`]).
    pub fn node_crash(mut self, node: usize, at: f64, repair_after: Option<f64>) -> FaultPlan {
        self.events.push(Fault::NodeCrash {
            node,
            at,
            repair_after,
        });
        self
    }

    /// Adds a correlated site-wide outage (see [`Fault::SiteOutage`]).
    pub fn site_outage(mut self, authority: usize, site: usize, at: f64, duration: f64) -> FaultPlan {
        self.events.push(Fault::SiteOutage {
            authority,
            site,
            at,
            duration,
        });
        self
    }

    /// Adds a permanent mid-trace authority departure.
    pub fn authority_departure(mut self, authority: usize, at: f64) -> FaultPlan {
        self.events.push(Fault::AuthorityDeparture { authority, at });
        self
    }

    /// Adds a transient credential-service outage.
    pub fn credential_outage(mut self, authority: usize, at: f64, duration: f64) -> FaultPlan {
        self.events.push(Fault::CredentialOutage {
            authority,
            at,
            duration,
        });
        self
    }

    /// Sets the credential retry policy.
    pub fn retry_policy(mut self, max_retries: u32, backoff: f64) -> FaultPlan {
        self.retry = RetryPolicy {
            max_retries,
            backoff,
        };
        self
    }

    /// Appends `count` seed-driven node crashes: uniformly random node and
    /// crash time over `[0, horizon)`, exponentially distributed repair
    /// with mean `mean_repair`. Same seed ⇒ same schedule.
    pub fn sampled_crashes(
        mut self,
        seed: u64,
        n_nodes: usize,
        horizon: f64,
        count: usize,
        mean_repair: f64,
    ) -> FaultPlan {
        if n_nodes == 0 {
            return self;
        }
        let mut rng = SimRng::seed_from(seed);
        let repair = Exponential::with_mean(mean_repair);
        for _ in 0..count {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "below(n) < n, and n came from a usize"
            )]
            let node = rng.below(n_nodes as u64) as usize;
            let at = rng.uniform01() * horizon;
            let after = repair.sample(&mut rng);
            self.events.push(Fault::NodeCrash {
                node,
                at,
                repair_after: Some(after),
            });
        }
        self
    }

    /// Appends `count` seed-driven authority departures: distinct
    /// authorities drawn uniformly from `0..n_authorities`, departure
    /// times uniform over the last 70% of `[0, horizon)` (so early rounds
    /// see the federation form before churn tears at it). Same seed ⇒
    /// same schedule. The formation engine consumes these through
    /// `fedval-form`'s churn schedule.
    pub fn sampled_departures(
        mut self,
        seed: u64,
        n_authorities: usize,
        horizon: f64,
        count: usize,
    ) -> FaultPlan {
        if n_authorities == 0 {
            return self;
        }
        let mut rng = SimRng::seed_from(seed);
        let mut remaining: Vec<usize> = (0..n_authorities).collect();
        for _ in 0..count.min(n_authorities) {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "below(n) < n, and n came from a usize"
            )]
            let pick = rng.below(remaining.len() as u64) as usize;
            let authority = remaining.swap_remove(pick);
            let at = horizon * (0.3 + 0.7 * rng.uniform01());
            self.events.push(Fault::AuthorityDeparture { authority, at });
        }
        self
    }

    /// Whether the plan contains any credential outage (fast pre-check for
    /// the admission hot path).
    pub fn has_credential_outages(&self) -> bool {
        self.events
            .iter()
            .any(|f| matches!(f, Fault::CredentialOutage { .. }))
    }

    /// Whether authority `a`'s credential service is inside an outage
    /// window at time `t`.
    pub fn credential_blocked(&self, a: usize, t: f64) -> bool {
        self.events.iter().any(|f| match *f {
            Fault::CredentialOutage {
                authority,
                at,
                duration,
            } => authority == a && t >= at && t < at + duration,
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_events_in_order() {
        let plan = FaultPlan::new()
            .node_crash(0, 1.0, None)
            .site_outage(1, 0, 2.0, 3.0)
            .authority_departure(2, 4.0)
            .credential_outage(0, 5.0, 1.0);
        assert_eq!(plan.events().len(), 4);
        assert!(matches!(plan.events()[0], Fault::NodeCrash { node: 0, .. }));
        assert!(matches!(
            plan.events()[3],
            Fault::CredentialOutage { authority: 0, .. }
        ));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn credential_windows_are_half_open() {
        let plan = FaultPlan::new().credential_outage(1, 10.0, 5.0);
        assert!(plan.has_credential_outages());
        assert!(!plan.credential_blocked(1, 9.9));
        assert!(plan.credential_blocked(1, 10.0));
        assert!(plan.credential_blocked(1, 14.9));
        assert!(!plan.credential_blocked(1, 15.0));
        // Other authorities unaffected.
        assert!(!plan.credential_blocked(0, 12.0));
    }

    #[test]
    fn backoff_is_exponential_and_overflow_safe() {
        let retry = RetryPolicy {
            max_retries: 100,
            backoff: 1.0,
        };
        assert_eq!(retry.attempt_time(10.0, 0), 10.0);
        assert_eq!(retry.attempt_time(10.0, 1), 11.0);
        assert_eq!(retry.attempt_time(10.0, 2), 12.0);
        assert_eq!(retry.attempt_time(10.0, 3), 14.0);
        // Attempt 100 must not overflow the shift.
        assert!(retry.attempt_time(10.0, 100).is_finite());
    }

    #[test]
    fn sampled_crashes_are_reproducible() {
        let a = FaultPlan::new().sampled_crashes(9, 12, 100.0, 5, 4.0);
        let b = FaultPlan::new().sampled_crashes(9, 12, 100.0, 5, 4.0);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 5);
        for f in a.events() {
            match *f {
                Fault::NodeCrash {
                    node,
                    at,
                    repair_after,
                } => {
                    assert!(node < 12);
                    assert!((0.0..100.0).contains(&at));
                    assert!(repair_after.is_some_and(|d| d > 0.0));
                }
                _ => panic!("sampled_crashes only emits NodeCrash"),
            }
        }
        // Different seed, different schedule.
        let c = FaultPlan::new().sampled_crashes(10, 12, 100.0, 5, 4.0);
        assert_ne!(a, c);
        // Zero nodes: nothing sampled, no panic.
        assert!(FaultPlan::new().sampled_crashes(9, 0, 100.0, 5, 4.0).is_empty());
    }
}
