//! Design-parameter ablations (`repro ablations`): each knob DESIGN.md
//! calls out, varied around the testbed default on the paper's most
//! scheduler-sensitive point — LU at a 22.2% online rate (§5.2, V1
//! weight 32) — reporting the simulated run time per setting.
//!
//! The sweeps: the over-threshold exponent δ (the paper fixes 20), the
//! Roth–Erev learning parameters, the IPI cost, the cache warm-up
//! penalty under Credit and under ASMan, the credit assignment interval
//! K, and the cross-socket warm-up penalty under flat and LLC-aware gang
//! placement (§7 future work). The scheduler panel is `repro
//! extensions`.

use asman_core::AsmanConfig;
use asman_sim::Clock;
use asman_workloads::{NasBenchmark, NasSpec};
use serde::Serialize;
use std::fmt::Write as _;

use crate::figures::{FigureParams, ShapeCheck};
use crate::scenario::{Sched, SingleVmScenario};

/// One setting of a swept parameter.
#[derive(Clone, Debug, Serialize)]
pub struct AblationPoint {
    /// The setting, as printed.
    pub setting: String,
    /// LU run time, simulated seconds.
    pub run_secs: f64,
}

/// One parameter swept under one scheduler.
#[derive(Clone, Debug, Serialize)]
pub struct Sweep {
    /// What is varied, with its unit.
    pub parameter: String,
    /// The scheduler (and gang placement) the sweep runs under.
    pub variant: String,
    /// One point per setting, in sweep order.
    pub points: Vec<AblationPoint>,
}

/// The ablation panel.
#[derive(Clone, Debug, Serialize)]
pub struct Ablations {
    /// Every sweep, in print order.
    pub sweeps: Vec<Sweep>,
}

/// A setting's label and the testbed tuned to it.
type Setting = (String, AsmanConfig);

fn setting(label: impl ToString, tune: impl FnOnce(&mut AsmanConfig)) -> Setting {
    let mut cfg = AsmanConfig::default();
    tune(&mut cfg);
    (label.to_string(), cfg)
}

/// One sweep before it runs: parameter, variant, scheduler, settings.
type Plan = (&'static str, &'static str, Sched, Vec<Setting>);

fn plan() -> Vec<Plan> {
    let asman = |parameter, settings| -> Plan { (parameter, "ASMan", Sched::Asman, settings) };
    let warmup = |sched: Sched| -> Plan {
        let settings = [0, 30, 60, 120, 300].map(|us| setting(us, |c| c.machine.warmup_us = us));
        (
            "cache warm-up penalty, µs",
            sched.label(),
            sched,
            settings.into(),
        )
    };
    let llc = |aware, variant| -> Plan {
        let settings = [60, 200, 400, 800].map(|us| {
            setting(us, |c| {
                c.machine.cross_socket_warmup_us = us;
                c.machine.llc_aware = aware;
            })
        });
        (
            "cross-socket warm-up, µs",
            variant,
            Sched::Asman,
            settings.into(),
        )
    };
    let deltas = [16, 18, 20, 22, 24].map(|d| setting(d, |c| c.monitor.delta = d));
    let ipis = [1, 4, 20, 100, 500].map(|us| setting(us, |c| c.machine.ipi_latency_us = us));
    let ks = [1, 3, 6, 12].map(|k| setting(k, |c| c.machine.assign_interval_slots = k));
    let short = (1..=8).map(|k| Clock::default().ms(5 * k)).collect();
    let learning = vec![
        setting("default", |_| {}),
        setting("verbatim", |c| c.learning.downward_share = false),
        setting("r=0.5", |c| c.learning.recency = 0.5),
        setting("e=0.01", |c| c.learning.experimentation = 0.01),
        setting("<=40ms", |c| c.learning.values = short),
    ];
    vec![
        asman("δ, over-threshold exponent", deltas.into()),
        asman("Roth–Erev learning", learning),
        asman("IPI latency, µs", ipis.into()),
        warmup(Sched::Credit),
        warmup(Sched::Asman),
        asman("credit assignment interval K, slots", ks.into()),
        llc(false, "ASMan, flat"),
        llc(true, "ASMan, LLC-aware"),
    ]
}

/// Run every sweep, one machine per setting, fanned over the sweep
/// runner.
pub fn run(params: &FigureParams) -> Ablations {
    let plan = plan();
    let cells: Vec<(Sched, AsmanConfig)> = plan
        .iter()
        .flat_map(|(_, _, sched, settings)| settings.iter().map(|(_, c)| (*sched, c.clone())))
        .collect();
    let mut secs = params
        .runner()
        .map(cells, |(sched, tune)| {
            let lu = NasSpec::new(NasBenchmark::LU, params.class, 4).build(params.seed ^ 7);
            SingleVmScenario::new(sched, 32, params.seed)
                .run_tuned(Box::new(lu), tune)
                .run_secs
        })
        .into_iter();
    let sweeps = plan
        .into_iter()
        .map(|(parameter, variant, _, settings)| Sweep {
            parameter: parameter.to_string(),
            variant: variant.to_string(),
            points: settings
                .into_iter()
                .map(|(setting, _)| AblationPoint {
                    setting,
                    run_secs: secs.next().expect("one run per setting"),
                })
                .collect(),
        })
        .collect();
    Ablations { sweeps }
}

impl Ablations {
    /// Text panel: per sweep, the settings over their run times.
    pub fn render(&self) -> String {
        let mut s = String::from("Ablations — LU @ 22.2% online rate, simulated run time (s)\n");
        for sw in &self.sweeps {
            let (mut settings, mut secs) = (String::new(), String::new());
            for p in &sw.points {
                let w = p.setting.chars().count().max(5) + 2;
                write!(settings, "{:>w$}", p.setting).unwrap();
                write!(secs, "{:>w$.1}", p.run_secs).unwrap();
            }
            writeln!(
                s,
                "{} [{}]\n  setting{settings}\n  run(s) {secs}",
                sw.parameter, sw.variant
            )
            .unwrap();
        }
        s
    }

    /// The run times of the sweep of `parameter` under `variant`.
    fn secs(&self, parameter: &str, variant: &str) -> Vec<f64> {
        let sw = self
            .sweeps
            .iter()
            .find(|s| s.parameter == parameter && s.variant == variant);
        sw.expect("sweep")
            .points
            .iter()
            .map(|p| p.run_secs)
            .collect()
    }

    /// Qualitative expectations across the sweeps.
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let list = |v: &[f64]| {
            v.iter()
                .map(|s| format!("{s:.1}"))
                .collect::<Vec<_>>()
                .join("/")
        };
        let credit = self.secs("cache warm-up penalty, µs", "Credit");
        let asman = self.secs("cache warm-up penalty, µs", "ASMan");
        let k = self.secs("credit assignment interval K, slots", "ASMan");
        let learning = self.secs("Roth–Erev learning", "ASMan");
        let worst = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
        vec![
            ShapeCheck::new(
                "ASMan beats Credit at every cache warm-up penalty",
                credit.iter().zip(&asman).all(|(c, a)| a < c),
                format!("Credit {} s, ASMan {} s", list(&credit), list(&asman)),
            ),
            ShapeCheck::new(
                "assigning credits every slot (K = 1) is the slowest interval",
                k[0] == worst(&k),
                format!("K 1/3/6/12: {} s", list(&k)),
            ),
            ShapeCheck::new(
                "capping the learning candidates at 40 ms is the costliest learning change",
                learning[4] == worst(&learning) && learning[4] > learning[0],
                format!("{} s", list(&learning)),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asman_workloads::ProblemClass;

    #[test]
    fn panel_covers_every_sweep_and_its_checks_hold_at_class_s() {
        let ab = run(&FigureParams {
            class: ProblemClass::S,
            ..FigureParams::default()
        });
        let points: usize = ab.sweeps.iter().map(|s| s.points.len()).sum();
        assert_eq!((ab.sweeps.len(), points), (8, 37));
        for check in ab.shape_checks() {
            assert!(check.holds, "{} — {}", check.claim, check.evidence);
        }
    }
}
