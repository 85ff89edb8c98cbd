//! Deterministic fault-injection plans for the cluster layer.
//!
//! A [`FaultPlan`] schedules host slowdowns, host crashes and migration
//! aborts at cluster epoch boundaries. Two properties make the plans
//! safe to mix into a reproducible simulation:
//!
//! * **Determinism** — a plan is a plain sorted list of events; the
//!   cluster driver consumes it with no further randomness, so a
//!   faulted run is exactly as replayable as a clean one.
//! * **Stream isolation** — randomly generated plans draw from their
//!   own forked RNG stream ([`FaultPlan::generate`]), never from the
//!   workload stream. Arming or disarming faults therefore cannot
//!   perturb a single workload draw: the clean portions of a faulted
//!   run stay bit-identical to the unfaulted baseline.
//!
//! Plans are written in a tiny comma-separated DSL, one token per
//! event:
//!
//! ```text
//! crash@4:h2          host 2 crashes at the epoch-4 boundary
//! slow@1:h1:50        host 1 loses 50% advertised capacity at epoch 1
//! abort@2             the migration attempted at epoch 2 aborts
//! rand:1234           seed-generated plan (whole spec, no commas)
//! ```

use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Stream index mixed into [`SimRng::fork`] for fault draws. Any fixed
/// constant works; it only has to differ from the workload streams.
const FAULT_STREAM: u64 = 0xFA01_7001;

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The host's advertised capacity drops by `derate_pct` percent:
    /// admission control treats it as smaller, and the balancer stops
    /// proposing moves *onto* it. Resident VMs keep running.
    Slow {
        /// Affected host index.
        host: usize,
        /// Capacity reduction in percent, `1..=99`.
        derate_pct: u32,
    },
    /// The host fails permanently: its resident VMs are evacuated and
    /// re-placed, and it accepts no further work.
    Crash {
        /// Affected host index.
        host: usize,
    },
    /// The live migration attempted at this epoch boundary (if any)
    /// aborts mid-copy and is rolled back to the source host.
    Abort,
}

/// One scheduled fault: `kind` fires at the boundary of `epoch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Cluster epoch (0-based) at whose boundary the fault fires.
    pub epoch: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, sorted by epoch.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Events in nondecreasing epoch order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (no faults — the clean baseline).
    pub fn empty() -> FaultPlan {
        FaultPlan { events: Vec::new() }
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parse the explicit DSL: comma-separated `crash@E:hH`,
    /// `slow@E:hH:P` and `abort@E` tokens. An empty token (`abort@1,,`,
    /// `,abort@1`, or an empty plan) is an error naming its 1-based
    /// position, not a token to skip.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        for (i, tok) in s.split(',').map(str::trim).enumerate() {
            if tok.is_empty() {
                let at = i + 1;
                return Err(format!("fault plan '{s}': empty token at position {at}"));
            }
            events.push(parse_token(tok)?);
        }
        let mut plan = FaultPlan { events };
        plan.normalize();
        Ok(plan)
    }

    /// Generate a plan from a seed, drawing only from a forked fault
    /// stream so the workload draws of the surrounding simulation are
    /// untouched. The shape scales with the run: scattered migration
    /// aborts, one mid-run slowdown (two or more hosts) and one
    /// late-run crash (three or more hosts, so two survive).
    pub fn generate(seed: u64, epochs: u64, hosts: usize) -> FaultPlan {
        let mut rng = SimRng::new(seed).fork(FAULT_STREAM);
        let mut events = Vec::new();
        for epoch in 0..epochs {
            if rng.chance(0.25) {
                events.push(FaultEvent {
                    epoch,
                    kind: FaultKind::Abort,
                });
            }
        }
        // Host faults spare host 0 so a consolidation scenario's
        // contended host stays observable under the fault load.
        if hosts >= 2 && epochs >= 2 {
            let host = 1 + rng.index(hosts - 1);
            let derate_pct = rng.range(25, 76) as u32;
            events.push(FaultEvent {
                epoch: epochs / 3,
                kind: FaultKind::Slow { host, derate_pct },
            });
        }
        if hosts >= 3 && epochs >= 3 {
            let host = 1 + rng.index(hosts - 1);
            events.push(FaultEvent {
                epoch: 2 * epochs / 3,
                kind: FaultKind::Crash { host },
            });
        }
        let mut plan = FaultPlan { events };
        plan.normalize();
        plan
    }

    /// Whether a migration attempted at this epoch boundary aborts.
    pub fn aborts_at(&self, epoch: u64) -> bool {
        self.events
            .iter()
            .any(|e| e.epoch == epoch && e.kind == FaultKind::Abort)
    }

    /// Host faults (slowdowns and crashes) firing at this boundary, in
    /// plan order.
    pub fn host_faults_at(&self, epoch: u64) -> impl Iterator<Item = FaultKind> + '_ {
        self.events
            .iter()
            .filter(move |e| e.epoch == epoch && e.kind != FaultKind::Abort)
            .map(|e| e.kind)
    }

    /// Largest host index any event touches (for CLI validation).
    pub fn max_host(&self) -> Option<usize> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Slow { host, .. } | FaultKind::Crash { host } => Some(host),
                FaultKind::Abort => None,
            })
            .max()
    }

    /// Hosts the plan ever crashes.
    pub fn crashed_hosts(&self) -> Vec<usize> {
        let mut hosts: Vec<usize> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash { host } => Some(host),
                _ => None,
            })
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }

    fn normalize(&mut self) {
        // Stable: same-epoch events keep their written order.
        self.events.sort_by_key(|e| e.epoch);
    }
}

/// A fault specification as given on the command line: either an
/// explicit plan or a seed to generate one from. Resolution is
/// deferred so the generated plan can scale with the run's epoch and
/// host counts.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum FaultSpec {
    /// A plan written out in the DSL.
    Explicit(FaultPlan),
    /// `rand:SEED` — generate with [`FaultPlan::generate`].
    Random {
        /// Seed for the (forked) fault stream.
        seed: u64,
    },
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::Explicit(FaultPlan::empty())
    }
}

impl FaultSpec {
    /// Parse a `--faults` argument.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        if let Some(seed) = s.strip_prefix("rand:") {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("bad fault seed '{seed}' (want rand:SEED)"))?;
            return Ok(FaultSpec::Random { seed });
        }
        FaultPlan::parse(s).map(FaultSpec::Explicit)
    }

    /// Resolve to a concrete plan for a run of the given shape.
    pub fn resolve(&self, epochs: u64, hosts: usize) -> FaultPlan {
        match self {
            FaultSpec::Explicit(plan) => plan.clone(),
            FaultSpec::Random { seed } => FaultPlan::generate(*seed, epochs, hosts),
        }
    }

    /// True when no fault can ever fire.
    pub fn is_empty(&self) -> bool {
        match self {
            FaultSpec::Explicit(plan) => plan.is_empty(),
            FaultSpec::Random { .. } => false,
        }
    }
}

fn parse_token(tok: &str) -> Result<FaultEvent, String> {
    let (kind, rest) = tok
        .split_once('@')
        .ok_or_else(|| format!("bad fault token '{tok}' (want kind@epoch[:args])"))?;
    let mut parts = rest.split(':');
    let epoch: u64 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("bad epoch in fault token '{tok}'"))?;
    let host_arg = |p: Option<&str>| -> Result<usize, String> {
        let p = p.ok_or_else(|| format!("fault token '{tok}' needs a :hN host argument"))?;
        p.strip_prefix('h')
            .and_then(|h| h.parse().ok())
            .ok_or_else(|| format!("bad host in fault token '{tok}' (want h0, h1, ...)"))
    };
    let ev = match kind {
        "abort" => {
            if parts.next().is_some() {
                return Err(format!("abort takes no arguments, got '{tok}'"));
            }
            FaultEvent {
                epoch,
                kind: FaultKind::Abort,
            }
        }
        "crash" => {
            let host = host_arg(parts.next())?;
            if parts.next().is_some() {
                return Err(format!("crash takes one host argument, got '{tok}'"));
            }
            FaultEvent {
                epoch,
                kind: FaultKind::Crash { host },
            }
        }
        "slow" => {
            let host = host_arg(parts.next())?;
            let pct: u32 = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("bad derate percent in fault token '{tok}'"))?;
            if !(1..=99).contains(&pct) {
                return Err(format!(
                    "derate percent must be 1..=99, got {pct} in '{tok}'"
                ));
            }
            if parts.next().is_some() {
                return Err(format!("slow takes host and percent, got '{tok}'"));
            }
            FaultEvent {
                epoch,
                kind: FaultKind::Slow {
                    host,
                    derate_pct: pct,
                },
            }
        }
        _ => {
            return Err(format!(
                "unknown fault kind '{kind}' (known: crash, slow, abort)"
            ))
        }
    };
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsl_round_trip() {
        let plan = FaultPlan::parse("crash@4:h2, slow@1:h1:50 ,abort@2").unwrap();
        assert_eq!(plan.events.len(), 3);
        // Sorted by epoch.
        assert_eq!(
            plan.events[0].kind,
            FaultKind::Slow {
                host: 1,
                derate_pct: 50
            }
        );
        assert!(plan.aborts_at(2));
        assert!(!plan.aborts_at(4));
        assert_eq!(plan.max_host(), Some(2));
        assert_eq!(plan.crashed_hosts(), vec![2]);
        assert_eq!(
            plan.host_faults_at(4).collect::<Vec<_>>(),
            vec![FaultKind::Crash { host: 2 }]
        );
    }

    #[test]
    fn dsl_rejects_malformed_tokens() {
        for bad in [
            "",
            "abort@1,,",
            ",abort@1",
            "abort@1, ,abort@2",
            "boom@1",
            "crash@x:h1",
            "crash@1",
            "crash@1:2",
            "crash@1:h1:9",
            "slow@1:h1",
            "slow@1:h1:0",
            "slow@1:h1:100",
            "abort@1:h2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn spec_parses_random_and_explicit() {
        assert_eq!(
            FaultSpec::parse("rand:77").unwrap(),
            FaultSpec::Random { seed: 77 }
        );
        assert!(FaultSpec::parse("rand:x").is_err());
        let spec = FaultSpec::parse("abort@0").unwrap();
        assert!(!spec.is_empty());
        assert!(FaultSpec::default().is_empty());
    }

    #[test]
    fn generated_plans_are_deterministic_and_isolated() {
        let a = FaultPlan::generate(9, 12, 4);
        let b = FaultPlan::generate(9, 12, 4);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::generate(10, 12, 4);
        assert_ne!(a, c, "different seed must perturb the plan");
        // Host faults spare host 0 and stay in range.
        for e in &a.events {
            match e.kind {
                FaultKind::Slow { host, derate_pct } => {
                    assert!((1..4).contains(&host));
                    assert!((25..=75).contains(&derate_pct));
                }
                FaultKind::Crash { host } => assert!((1..4).contains(&host)),
                FaultKind::Abort => {}
            }
            assert!(e.epoch < 12);
        }
        // Epoch ordering is normalized.
        assert!(a.events.windows(2).all(|w| w[0].epoch <= w[1].epoch));
    }

    #[test]
    fn generated_small_shapes_have_no_host_faults() {
        let plan = FaultPlan::generate(1, 1, 1);
        assert!(plan.max_host().is_none());
    }
}
