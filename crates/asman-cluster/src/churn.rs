//! Deterministic VM-churn plans for the cluster layer.
//!
//! A [`ChurnPlan`] schedules VM arrivals and departures at cluster
//! epoch boundaries, the workload counterpart of the fault layer's
//! `FaultPlan`. The same two properties make churn safe to mix into a
//! reproducible simulation:
//!
//! * **Determinism** — a plan is a plain sorted list of events; the
//!   cluster driver consumes it with no further randomness, so a
//!   churned run is exactly as replayable as a static-population one.
//! * **Stream isolation** — randomly generated plans draw from their
//!   own forked RNG stream ([`ChurnPlan::generate`]), never from the
//!   workload or fault streams. Arming churn therefore cannot perturb
//!   a single workload or fault draw.
//!
//! Plans are written in a tiny comma-separated DSL, one token per
//! event:
//!
//! ```text
//! arrive@3:gang3        a 3-VCPU gang VM arrives at the epoch-3 boundary
//! arrive@5:bg2:w384     a 2-VCPU background VM with weight 384 at epoch 5
//! depart@8:h0:v1        the second live VM on host 0 departs at epoch 8
//! rand:42:5             seed-generated plan, ~5% arrival + ~5% departure
//!                       chance per epoch (whole spec, no commas;
//!                       `churn:42:5` is an accepted alias)
//! ```
//!
//! A departure names its victim *positionally*: `v`V selects the V-th
//! live (non-departed) VM resident on the host at that boundary, in
//! cluster-id order, wrapping modulo the count. Positional selection is
//! what lets a generated plan stay valid no matter how earlier events
//! reshaped the population; a departure aimed at a host with no live
//! VMs is skipped (and counted) rather than failing the run.

use asman_sim::SimRng;
use serde::Serialize;

/// Stream index mixed into [`SimRng::fork`] for churn draws. Distinct
/// from the workload streams and the fault layer's `FAULT_STREAM`.
const CHURN_STREAM: u64 = 0xC4A2_7002;

/// Workload shape of an arriving VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ShapeKind {
    /// A concurrent (gang) VM: spinlock-coupled VCPUs that want
    /// coscheduling (the scenario layer's gang program).
    Gang,
    /// A quiet background service: compute bursts between long sleeps.
    Background,
}

impl ShapeKind {
    /// Stable name prefix for VMs created from this shape.
    pub fn prefix(self) -> &'static str {
        match self {
            ShapeKind::Gang => "gang",
            ShapeKind::Background => "bg",
        }
    }
}

/// Full shape of an arriving VM: what it runs and how big it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct VmShape {
    /// Workload kind.
    pub kind: ShapeKind,
    /// VCPU count (must fit the destination host's PCPUs to be
    /// admitted).
    pub vcpus: usize,
    /// Proportional-share weight.
    pub weight: u32,
}

/// One kind of churn event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ChurnKind {
    /// A VM of the given shape arrives and is admission-placed on the
    /// least-loaded healthy host that fits it.
    Arrive {
        /// What arrives.
        shape: VmShape,
    },
    /// The `slot`-th live VM on `host` (cluster-id order, wrapping
    /// modulo the live count) shuts down and leaves the cluster.
    Depart {
        /// Host the victim resides on.
        host: usize,
        /// Positional index into the host's live VMs.
        slot: usize,
    },
}

/// One scheduled churn event: `kind` fires at the boundary of `epoch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ChurnEvent {
    /// Cluster epoch (0-based) at whose boundary the event fires.
    pub epoch: u64,
    /// What happens.
    pub kind: ChurnKind,
}

/// A deterministic schedule of arrivals and departures, sorted by
/// epoch (stable: same-epoch events keep their written order).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ChurnPlan {
    /// Events in nondecreasing epoch order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// The empty plan (a static population).
    pub fn empty() -> ChurnPlan {
        ChurnPlan { events: Vec::new() }
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parse the explicit DSL: comma-separated `arrive@E:gangN[:wW]`,
    /// `arrive@E:bgN[:wW]` and `depart@E:hH:vV` tokens. An empty token
    /// is an error naming its 1-based position, not a token to skip.
    pub fn parse(s: &str) -> Result<ChurnPlan, String> {
        let mut events = Vec::new();
        for (i, tok) in s.split(',').map(str::trim).enumerate() {
            if tok.is_empty() {
                let at = i + 1;
                return Err(format!("churn plan '{s}': empty token at position {at}"));
            }
            events.push(parse_token(tok)?);
        }
        let mut plan = ChurnPlan { events };
        plan.normalize();
        Ok(plan)
    }

    /// Generate a plan from a seed, drawing only from a forked churn
    /// stream. Each epoch independently has a `rate_pct`% chance of one
    /// arrival (random shape: 2–3 VCPU gang or 1–2 VCPU background,
    /// random weight) and a `rate_pct`% chance of one departure
    /// (random host, positional victim). Expected population drift is
    /// zero, so a long soak neither empties nor floods the cluster.
    pub fn generate(seed: u64, rate_pct: u32, epochs: u64, hosts: usize) -> ChurnPlan {
        assert!((1..=100).contains(&rate_pct), "churn rate must be 1..=100");
        let mut rng = SimRng::new(seed).fork(CHURN_STREAM);
        let p = rate_pct as f64 / 100.0;
        let mut events = Vec::new();
        for epoch in 0..epochs {
            if rng.chance(p) {
                let kind = if rng.chance(0.5) {
                    ShapeKind::Gang
                } else {
                    ShapeKind::Background
                };
                let vcpus = match kind {
                    ShapeKind::Gang => 2 + rng.index(2),
                    ShapeKind::Background => 1 + rng.index(2),
                };
                let weight = rng.range(128, 513) as u32;
                events.push(ChurnEvent {
                    epoch,
                    kind: ChurnKind::Arrive {
                        shape: VmShape {
                            kind,
                            vcpus,
                            weight,
                        },
                    },
                });
            }
            if rng.chance(p) {
                events.push(ChurnEvent {
                    epoch,
                    kind: ChurnKind::Depart {
                        host: rng.index(hosts.max(1)),
                        slot: rng.index(8),
                    },
                });
            }
        }
        let mut plan = ChurnPlan { events };
        plan.normalize();
        plan
    }

    /// Churn events firing at this epoch boundary, in plan order.
    pub fn events_at(&self, epoch: u64) -> impl Iterator<Item = ChurnKind> + '_ {
        self.events
            .iter()
            .filter(move |e| e.epoch == epoch)
            .map(|e| e.kind)
    }

    /// Scheduled arrivals over the whole plan.
    pub fn arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ChurnKind::Arrive { .. }))
            .count()
    }

    /// Scheduled departures over the whole plan.
    pub fn departures(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ChurnKind::Depart { .. }))
            .count()
    }

    /// Largest host index any departure names (for CLI validation;
    /// arrivals are placed by admission control and name no host).
    pub fn max_host(&self) -> Option<usize> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                ChurnKind::Depart { host, .. } => Some(host),
                ChurnKind::Arrive { .. } => None,
            })
            .max()
    }

    fn normalize(&mut self) {
        // Stable: same-epoch events keep their written order.
        self.events.sort_by_key(|e| e.epoch);
    }
}

/// A churn specification as given on the command line: either an
/// explicit plan or a seed + rate to generate one from. Resolution is
/// deferred so the generated plan can scale with the run's epoch and
/// host counts.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum ChurnSpec {
    /// A plan written out in the DSL.
    Explicit(ChurnPlan),
    /// `rand:SEED:RATE` — generate with [`ChurnPlan::generate`].
    Random {
        /// Seed for the (forked) churn stream.
        seed: u64,
        /// Per-epoch arrival and departure chance in percent.
        rate_pct: u32,
    },
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec::Explicit(ChurnPlan::empty())
    }
}

impl ChurnSpec {
    /// Parse a `--churn` argument.
    pub fn parse(s: &str) -> Result<ChurnSpec, String> {
        let tail = s.strip_prefix("rand:").or_else(|| s.strip_prefix("churn:"));
        if let Some(tail) = tail {
            let (seed, rate) = tail
                .split_once(':')
                .ok_or_else(|| format!("bad churn spec '{s}' (want rand:SEED:RATE)"))?;
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("bad churn seed '{seed}' (want rand:SEED:RATE)"))?;
            let rate_pct: u32 = rate
                .parse()
                .map_err(|_| format!("bad churn rate '{rate}' (want rand:SEED:RATE)"))?;
            if !(1..=100).contains(&rate_pct) {
                return Err(format!("churn rate must be 1..=100, got {rate_pct}"));
            }
            return Ok(ChurnSpec::Random { seed, rate_pct });
        }
        ChurnPlan::parse(s).map(ChurnSpec::Explicit)
    }

    /// Resolve to a concrete plan for a run of the given shape.
    pub fn resolve(&self, epochs: u64, hosts: usize) -> ChurnPlan {
        match self {
            ChurnSpec::Explicit(plan) => plan.clone(),
            ChurnSpec::Random { seed, rate_pct } => {
                ChurnPlan::generate(*seed, *rate_pct, epochs, hosts)
            }
        }
    }

    /// True when no churn event can ever fire.
    pub fn is_empty(&self) -> bool {
        match self {
            ChurnSpec::Explicit(plan) => plan.is_empty(),
            ChurnSpec::Random { .. } => false,
        }
    }
}

fn parse_token(tok: &str) -> Result<ChurnEvent, String> {
    let (kind, rest) = tok
        .split_once('@')
        .ok_or_else(|| format!("bad churn token '{tok}' (want kind@epoch:args)"))?;
    let mut parts = rest.split(':');
    let epoch: u64 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("bad epoch in churn token '{tok}'"))?;
    let ev = match kind {
        "arrive" => {
            let shape = parts
                .next()
                .ok_or_else(|| format!("arrive token '{tok}' needs a shape (gangN or bgN)"))?;
            let (kind, vcpus) = if let Some(v) = shape.strip_prefix("gang") {
                (ShapeKind::Gang, v)
            } else if let Some(v) = shape.strip_prefix("bg") {
                (ShapeKind::Background, v)
            } else {
                return Err(format!(
                    "bad shape '{shape}' in churn token '{tok}' (want gangN or bgN)"
                ));
            };
            let vcpus: usize = vcpus
                .parse()
                .map_err(|_| format!("bad VCPU count in churn token '{tok}'"))?;
            if vcpus == 0 {
                return Err(format!("arriving VM needs at least 1 VCPU in '{tok}'"));
            }
            let weight = match parts.next() {
                Some(w) => w
                    .strip_prefix('w')
                    .and_then(|w| w.parse().ok())
                    .filter(|&w| w > 0)
                    .ok_or_else(|| {
                        format!("bad weight in churn token '{tok}' (want w1, w256, ...)")
                    })?,
                None => 256,
            };
            if parts.next().is_some() {
                return Err(format!(
                    "arrive takes shape and optional weight, got '{tok}'"
                ));
            }
            ChurnEvent {
                epoch,
                kind: ChurnKind::Arrive {
                    shape: VmShape {
                        kind,
                        vcpus,
                        weight,
                    },
                },
            }
        }
        "depart" => {
            let host = parts
                .next()
                .and_then(|p| p.strip_prefix('h'))
                .and_then(|h| h.parse().ok())
                .ok_or_else(|| format!("bad host in churn token '{tok}' (want h0, h1, ...)"))?;
            let slot = parts
                .next()
                .and_then(|p| p.strip_prefix('v'))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad victim in churn token '{tok}' (want v0, v1, ...)"))?;
            if parts.next().is_some() {
                return Err(format!("depart takes host and victim, got '{tok}'"));
            }
            ChurnEvent {
                epoch,
                kind: ChurnKind::Depart { host, slot },
            }
        }
        _ => {
            return Err(format!(
                "unknown churn kind '{kind}' (known: arrive, depart)"
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
        let plan = ChurnPlan::parse("depart@8:h0:v1, arrive@3:gang3 ,arrive@5:bg2:w384").unwrap();
        assert_eq!(plan.events.len(), 3);
        // Sorted by epoch.
        assert_eq!(
            plan.events[0].kind,
            ChurnKind::Arrive {
                shape: VmShape {
                    kind: ShapeKind::Gang,
                    vcpus: 3,
                    weight: 256
                }
            }
        );
        assert_eq!(
            plan.events[1].kind,
            ChurnKind::Arrive {
                shape: VmShape {
                    kind: ShapeKind::Background,
                    vcpus: 2,
                    weight: 384
                }
            }
        );
        assert_eq!(plan.events[2].kind, ChurnKind::Depart { host: 0, slot: 1 });
        assert_eq!(plan.max_host(), Some(0));
        assert_eq!((plan.arrivals(), plan.departures()), (2, 1));
        assert_eq!(plan.events_at(8).count(), 1);
        assert_eq!(plan.events_at(9).count(), 0);
    }

    #[test]
    fn dsl_rejects_malformed_tokens() {
        for bad in [
            "",
            "arrive@1:gang2,,",
            ",depart@2:h0:v0",
            "boom@1:gang2",
            "arrive@x:gang2",
            "arrive@1",
            "arrive@1:vm2",
            "arrive@1:gang0",
            "arrive@1:gangx",
            "arrive@1:gang2:384",
            "arrive@1:gang2:w0",
            "arrive@1:gang2:w256:extra",
            "depart@1",
            "depart@1:h0",
            "depart@1:0:v1",
            "depart@1:h0:1",
            "depart@1:h0:v1:extra",
        ] {
            assert!(ChurnPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn spec_parses_random_aliases_and_explicit() {
        assert_eq!(
            ChurnSpec::parse("rand:77:5").unwrap(),
            ChurnSpec::Random {
                seed: 77,
                rate_pct: 5
            }
        );
        assert_eq!(
            ChurnSpec::parse("churn:77:5").unwrap(),
            ChurnSpec::Random {
                seed: 77,
                rate_pct: 5
            }
        );
        assert!(ChurnSpec::parse("rand:77").is_err());
        assert!(ChurnSpec::parse("rand:x:5").is_err());
        assert!(ChurnSpec::parse("rand:77:0").is_err());
        assert!(ChurnSpec::parse("rand:77:101").is_err());
        let spec = ChurnSpec::parse("arrive@0:bg1").unwrap();
        assert!(!spec.is_empty());
        assert!(ChurnSpec::default().is_empty());
        assert_eq!(
            ChurnSpec::Random {
                seed: 9,
                rate_pct: 10
            }
            .resolve(50, 3),
            ChurnPlan::generate(9, 10, 50, 3)
        );
    }

    #[test]
    fn generated_plans_are_deterministic_and_in_range() {
        let a = ChurnPlan::generate(9, 10, 200, 4);
        let b = ChurnPlan::generate(9, 10, 200, 4);
        assert_eq!(a, b, "same seed, same plan");
        let c = ChurnPlan::generate(10, 10, 200, 4);
        assert_ne!(a, c, "different seed must perturb the plan");
        assert!(
            !a.is_empty(),
            "10% over 200 epochs fires essentially always"
        );
        for e in &a.events {
            assert!(e.epoch < 200);
            match e.kind {
                ChurnKind::Arrive { shape } => {
                    match shape.kind {
                        ShapeKind::Gang => assert!((2..=3).contains(&shape.vcpus)),
                        ShapeKind::Background => assert!((1..=2).contains(&shape.vcpus)),
                    }
                    assert!((128..=512).contains(&shape.weight));
                }
                ChurnKind::Depart { host, slot } => {
                    assert!(host < 4);
                    assert!(slot < 8);
                }
            }
        }
        assert!(a.events.windows(2).all(|w| w[0].epoch <= w[1].epoch));
        // Zero expected drift: arrivals and departures are drawn at the
        // same rate, so neither count dwarfs the other.
        let (arr, dep) = (a.arrivals() as f64, a.departures() as f64);
        assert!(arr > 0.0 && dep > 0.0);
        assert!((arr / dep) < 3.0 && (dep / arr) < 3.0);
    }
}
