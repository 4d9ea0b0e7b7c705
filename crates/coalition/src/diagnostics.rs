//! Provenance for empirically measured games.
//!
//! When a characteristic function is *measured* — by running a testbed
//! simulation per coalition, as `fedval-testbed::empirical_game_diagnosed`
//! does — any individual measurement can fail: injected faults can wedge a
//! run, an LP can stall, a credential exchange can be refused. A robust pipeline
//! substitutes a conservative fallback value and keeps going, but the
//! substitution must be *visible* downstream so a policy report can say how
//! much of the game it reasons about was actually observed.
//!
//! These types live in `fedval-coalition` because both the producer
//! (`fedval-testbed`) and the consumer (`fedval-policy`) depend on this
//! crate, while neither depends on the other.

use crate::coalition::Coalition;

/// How one coalition's characteristic value was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSource {
    /// Measured directly from a successful simulation or solve.
    Measured,
    /// The measurement failed; the value was copied from the best measured
    /// sub-coalition (a conservative superadditive lower bound).
    SubCoalitionFallback(Coalition),
    /// The measurement failed and no sub-coalition had a usable value;
    /// the value defaulted to zero.
    ZeroFallback,
}

impl ValueSource {
    /// Whether this value came from a fallback rather than a measurement.
    pub fn is_fallback(self) -> bool {
        !matches!(self, ValueSource::Measured)
    }

    /// Short machine-readable label for traces and observability events.
    pub fn label(self) -> &'static str {
        match self {
            ValueSource::Measured => "measured",
            ValueSource::SubCoalitionFallback(_) => "sub_coalition_fallback",
            ValueSource::ZeroFallback => "zero_fallback",
        }
    }
}

/// Per-coalition record of what happened while valuing it.
#[derive(Debug, Clone)]
pub struct CoalitionDiagnostics {
    /// The coalition this record describes.
    pub coalition: Coalition,
    /// Where the recorded value came from.
    pub source: ValueSource,
    /// Fault events (node crashes, site outages, authority departures)
    /// injected into this coalition's simulation run.
    pub faults_injected: u32,
    /// Credential-exchange retries taken during admission control.
    pub credential_retries: u32,
    /// Human-readable description of the failure, when `source` is a
    /// fallback.
    pub error: Option<String>,
}

impl CoalitionDiagnostics {
    /// A clean record: measured value, no faults, no retries.
    pub fn clean(coalition: Coalition) -> CoalitionDiagnostics {
        CoalitionDiagnostics {
            coalition,
            source: ValueSource::Measured,
            faults_injected: 0,
            credential_retries: 0,
            error: None,
        }
    }

    /// Key → value pairs describing this record for an observability
    /// event, so degraded-mode substitutions are visible in a JSONL trace
    /// and not only in the returned struct.
    pub fn obs_fields(&self) -> Vec<(String, String)> {
        let mut fields = vec![
            ("mask".to_string(), self.coalition.0.to_string()),
            ("source".to_string(), self.source.label().to_string()),
        ];
        if let ValueSource::SubCoalitionFallback(t) = self.source {
            fields.push(("fallback_mask".to_string(), t.0.to_string()));
        }
        if self.faults_injected > 0 {
            fields.push(("faults_injected".to_string(), self.faults_injected.to_string()));
        }
        if self.credential_retries > 0 {
            fields.push((
                "credential_retries".to_string(),
                self.credential_retries.to_string(),
            ));
        }
        if let Some(why) = &self.error {
            fields.push(("error".to_string(), why.clone()));
        }
        fields
    }
}

/// Diagnostics for a whole measured game: one record per coalition, indexed
/// by [`Coalition::index`].
#[derive(Debug, Clone, Default)]
pub struct GameDiagnostics {
    /// Per-coalition records, `2^n` entries in mask order.
    pub per_coalition: Vec<CoalitionDiagnostics>,
}

impl GameDiagnostics {
    /// Record for coalition `c`, if present.
    pub fn get(&self, c: Coalition) -> Option<&CoalitionDiagnostics> {
        self.per_coalition.get(c.index())
    }

    /// Number of coalitions whose value came from a fallback.
    pub fn fallbacks_used(&self) -> usize {
        self.per_coalition
            .iter()
            .filter(|d| d.source.is_fallback())
            .count()
    }

    /// Total fault events injected across all coalition runs.
    pub fn total_faults_injected(&self) -> u64 {
        self.per_coalition
            .iter()
            .map(|d| u64::from(d.faults_injected))
            .sum()
    }

    /// Total credential-exchange retries across all coalition runs.
    pub fn total_credential_retries(&self) -> u64 {
        self.per_coalition
            .iter()
            .map(|d| u64::from(d.credential_retries))
            .sum()
    }

    /// Whether every value was measured with no faults and no retries.
    pub fn is_clean(&self) -> bool {
        self.per_coalition.iter().all(|d| {
            !d.source.is_fallback() && d.faults_injected == 0 && d.credential_retries == 0
        })
    }

    /// One-line human-readable summary, e.g. for a policy report.
    pub fn summary(&self) -> String {
        format!(
            "{} coalitions: {} fallbacks, {} faults injected, {} credential retries",
            self.per_coalition.len(),
            self.fallbacks_used(),
            self.total_faults_injected(),
            self.total_credential_retries(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_record_is_clean() {
        let d = GameDiagnostics {
            per_coalition: (0..4u64).map(|m| CoalitionDiagnostics::clean(Coalition(m))).collect(),
        };
        assert!(d.is_clean());
        assert_eq!(d.fallbacks_used(), 0);
        assert_eq!(d.total_faults_injected(), 0);
    }

    #[test]
    fn fallbacks_and_counters_are_tallied() {
        let mut records: Vec<CoalitionDiagnostics> =
            (0..4u64).map(|m| CoalitionDiagnostics::clean(Coalition(m))).collect();
        records[3].source = ValueSource::SubCoalitionFallback(Coalition(1));
        records[3].error = Some("simulation wedged".into());
        records[2].faults_injected = 2;
        records[1].credential_retries = 5;
        let d = GameDiagnostics {
            per_coalition: records,
        };
        assert!(!d.is_clean());
        assert_eq!(d.fallbacks_used(), 1);
        assert_eq!(d.total_faults_injected(), 2);
        assert_eq!(d.total_credential_retries(), 5);
        assert!(d.get(Coalition(3)).unwrap().source.is_fallback());
        let s = d.summary();
        assert!(s.contains("1 fallbacks"), "{s}");
    }
}
