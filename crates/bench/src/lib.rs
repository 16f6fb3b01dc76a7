//! The reproduction harness: one experiment per table and figure of the
//! ROAR thesis/paper evaluation (chapters 5–7).
//!
//! Every experiment is a function from a [`Scale`] (full or quick) to a
//! [`roar_util::Report`]; the `repro` binary runs them by id and saves the
//! rendered tables under `results/`.
//!
//! The committed `BENCH_*.json` measurements share one result model: each
//! bench module's `run(scale, filters)` returns a [`roar_util::Json`]
//! document (latency columns from [`roar_util::Summary`]), its `gate`
//! judges that document, and the bench table in `bin/repro.rs` — indexed
//! in the README's *Benchmarks* section — is the only place that renders,
//! writes or dispatches them.

#![forbid(unsafe_code)]

pub mod capacity;
pub mod ch2;
pub mod ch4;
pub mod ch5;
pub mod ch6;
pub mod ch7;
pub mod churn;
pub mod congestion;
pub mod driver;
pub mod incast;
pub mod node_concurrency;
pub mod pps_bench;
pub mod scale;
pub mod schema;
pub mod tail;
pub mod trajectory;

use roar_crypto::sha1::Backend;
use roar_util::{Json, Report};

/// Experiment scale: `Full` reproduces the documented numbers; `Quick`
/// shrinks workloads ~4–10× for smoke runs and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    /// Pick a workload size by scale.
    pub fn pick(&self, full: usize, quick: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// The slice of a bench's matrix one `repro` invocation selects
/// (`--scenario`, `--transport`, `--backend`); the default selects
/// everything. A bench ignores the axes it does not have.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Filters {
    pub scenario: Option<String>,
    pub transport: Option<String>,
    pub backend: Option<Backend>,
}

impl Filters {
    /// Does `name` pass an axis' selection (`None` selects everything)?
    pub fn selects(axis: &Option<String>, name: &str) -> bool {
        axis.as_deref().is_none_or(|wanted| wanted == name)
    }

    /// The transports selected, in artifact order.
    pub fn transports(&self) -> impl Iterator<Item = &'static str> + '_ {
        let selected = |name: &&str| Filters::selects(&self.transport, name);
        driver::TRANSPORTS.into_iter().filter(selected)
    }
}

/// The number at `path` in a bench document — how gates read what they
/// judge. A missing member is an error naming the path, never a default.
pub fn number(doc: &Json, path: &[&str]) -> Result<f64, String> {
    doc.path(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no number at {:?}", path.join(".")))
}

/// A duration as whole milliseconds (how configs report their timers).
pub fn millis(d: std::time::Duration) -> Json {
    Json::Num(d.as_millis() as f64)
}

/// The gate of a bench that only measures.
pub fn ungated(_: &Json, _: Scale) -> Result<(), String> {
    Ok(())
}

/// One registered experiment.
pub struct Experiment {
    pub id: &'static str,
    pub paper_ref: &'static str,
    pub title: &'static str,
    pub run: fn(Scale) -> Report,
}

/// The full registry, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "sec2_1",
            paper_ref: "§2.1",
            title: "Yield under overload (admission)",
            run: ch2::sec2_1,
        },
        Experiment {
            id: "sec2_3_2",
            paper_ref: "§2.3.2",
            title: "Bandwidth vs r, the O(sqrt n) penalty",
            run: ch2::sec2_3_2,
        },
        Experiment {
            id: "sec2_3_3",
            paper_ref: "§2.3.3",
            title: "minP(load) under M/D/1",
            run: ch2::sec2_3_3,
        },
        Experiment {
            id: "sec4_7",
            paper_ref: "§4.7",
            title: "Multi-ring choice arithmetic",
            run: ch4::sec4_7,
        },
        Experiment {
            id: "sec4_9_1",
            paper_ref: "§4.9.1",
            title: "Diurnal adaptation by ring on/off",
            run: ch4::sec4_9_1,
        },
        Experiment {
            id: "sec4_9_2",
            paper_ref: "§4.9.2",
            title: "Cross-sectional bandwidth by placement",
            run: ch4::sec4_9_2,
        },
        Experiment {
            id: "fig5_1",
            paper_ref: "Fig 5.1",
            title: "Index-based vs PPS bandwidth",
            run: ch5::fig5_1,
        },
        Experiment {
            id: "fig5_4",
            paper_ref: "Fig 5.4",
            title: "Pipeline execution traces (disk vs memory)",
            run: ch5::fig5_4,
        },
        Experiment {
            id: "fig5_5",
            paper_ref: "Fig 5.5",
            title: "Query delay vs matching threads",
            run: ch5::fig5_5,
        },
        Experiment {
            id: "fig5_6",
            paper_ref: "Fig 5.6",
            title: "PPS scaling with collection size (fast host)",
            run: ch5::fig5_6,
        },
        Experiment {
            id: "fig5_7",
            paper_ref: "Fig 5.7",
            title: "PPS scaling, slow host, LM vs LC",
            run: ch5::fig5_7,
        },
        Experiment {
            id: "sec5_7_1",
            paper_ref: "§5.7.1",
            title: "Dynamic predicate ordering",
            run: ch5::sec5_7_1,
        },
        Experiment {
            id: "tab6_1",
            paper_ref: "Table 6.1",
            title: "Simulation parameters",
            run: ch6::tab6_1,
        },
        Experiment {
            id: "fig6_1",
            paper_ref: "Fig 6.1",
            title: "Basic delay comparison SW/ROAR/PTN/OPT",
            run: ch6::fig6_1,
        },
        Experiment {
            id: "fig6_2",
            paper_ref: "Fig 6.2",
            title: "Query delay vs N",
            run: ch6::fig6_2,
        },
        Experiment {
            id: "fig6_3",
            paper_ref: "Fig 6.3",
            title: "Query delay vs load",
            run: ch6::fig6_3,
        },
        Experiment {
            id: "fig6_4",
            paper_ref: "Fig 6.4",
            title: "Query delay vs heterogeneity",
            run: ch6::fig6_4,
        },
        Experiment {
            id: "fig6_5",
            paper_ref: "Fig 6.5",
            title: "Speed-estimation error sensitivity",
            run: ch6::fig6_5,
        },
        Experiment {
            id: "fig6_6",
            paper_ref: "Fig 6.6",
            title: "Increasing pQ",
            run: ch6::fig6_6,
        },
        Experiment {
            id: "fig6_7",
            paper_ref: "Fig 6.7",
            title: "ROAR mechanism ablation",
            run: ch6::fig6_7,
        },
        Experiment {
            id: "fig6_8",
            paper_ref: "Fig 6.8",
            title: "Strict-operation unavailability",
            run: ch6::fig6_8,
        },
        Experiment {
            id: "tab6_2",
            paper_ref: "Table 6.2",
            title: "Messages per operation",
            run: ch6::tab6_2,
        },
        Experiment {
            id: "tab7_1",
            paper_ref: "Table 7.1",
            title: "Server models",
            run: ch7::tab7_1,
        },
        Experiment {
            id: "fig7_1",
            paper_ref: "Fig 7.1",
            title: "Effect of p (PPS_LM)",
            run: ch7::fig7_1,
        },
        Experiment {
            id: "fig7_2",
            paper_ref: "Fig 7.2",
            title: "Effect of p (PPS_LC)",
            run: ch7::fig7_2,
        },
        Experiment {
            id: "fig7_3",
            paper_ref: "Fig 7.3",
            title: "CPU load per node vs p",
            run: ch7::fig7_3,
        },
        Experiment {
            id: "tab7_2",
            paper_ref: "Table 7.2",
            title: "Energy savings p=5 vs p=47",
            run: ch7::tab7_2,
        },
        Experiment {
            id: "fig7_4",
            paper_ref: "Fig 7.4",
            title: "Update load vs throughput",
            run: ch7::fig7_4,
        },
        Experiment {
            id: "fig7_5",
            paper_ref: "Fig 7.5",
            title: "Changing p dynamically",
            run: ch7::fig7_5,
        },
        Experiment {
            id: "fig7_6",
            paper_ref: "Fig 7.6",
            title: "20 node failures",
            run: ch7::fig7_6,
        },
        Experiment {
            id: "fig7_7",
            paper_ref: "Fig 7.7",
            title: "Fast load balancing with pq>p",
            run: ch7::fig7_7,
        },
        Experiment {
            id: "fig7_8",
            paper_ref: "Fig 7.8",
            title: "Delay distribution with pq>p",
            run: ch7::fig7_8,
        },
        Experiment {
            id: "fig7_9",
            paper_ref: "Fig 7.9",
            title: "Range load balancing convergence",
            run: ch7::fig7_9,
        },
        Experiment {
            id: "fig7_10",
            paper_ref: "Fig 7.10",
            title: "Effect of range balancing on delay",
            run: ch7::fig7_10,
        },
        Experiment {
            id: "fig7_11",
            paper_ref: "Fig 7.11",
            title: "Front-end delay breakdown",
            run: ch7::fig7_11,
        },
        Experiment {
            id: "tab7_3",
            paper_ref: "Table 7.3",
            title: "1000-server scale",
            run: ch7::tab7_3,
        },
        Experiment {
            id: "fig7_12",
            paper_ref: "Fig 7.12",
            title: "Scheduling delay PTN vs ROAR vs straw-man",
            run: ch7::fig7_12,
        },
        Experiment {
            id: "fig7_13",
            paper_ref: "Fig 7.13",
            title: "Observed server speeds (EWMA)",
            run: ch7::fig7_13,
        },
        Experiment {
            id: "fig7_14",
            paper_ref: "Fig 7.14",
            title: "Query delay ROAR vs PTN vs load",
            run: ch7::fig7_14,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(n >= 30, "every table and figure registered: {n}");
    }

    #[test]
    fn quick_scale_smoke_fig6_1() {
        let r = ch6::fig6_1(Scale::Quick);
        assert!(r.render().contains("ROAR"));
    }

    #[test]
    fn quick_scale_smoke_tab6_2() {
        let r = ch6::tab6_2(Scale::Quick);
        assert!(r.render().contains("PTN"));
    }
}
