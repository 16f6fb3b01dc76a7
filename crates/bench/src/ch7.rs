//! Chapter 7 reproductions: the experimental (deployed-system) evaluation,
//! run against the tokio cluster harness and the simulator (our stand-ins
//! for the thesis's testbeds).

use crate::Scale;
use rand::Rng;
use roar_cluster::SchedOpts;
use roar_cluster::{spawn_cluster, ClusterConfig, QueryBody, TransportSpec};
use roar_core::placement::RoarRing;
use roar_core::ringmap::RingMap;
use roar_core::sched::{schedule_exhaustive, schedule_sweep, RoarScheduler, Strategy};
use roar_dr::sched::{QueryScheduler, StaticEstimator};
use roar_dr::{DrConfig, Ptn};
use roar_sim::energy::{dynamic_energy_saving, fleet_energy, PowerModel};
use roar_sim::updates::UpdateModel;
use roar_sim::{run_sim, saturation_throughput, SimConfig, SimServers};
use roar_util::report::fnum;
use roar_util::{det_rng, Report, Summary, Table};
use roar_workload::{Fleet, ServerModel};

fn rt() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime")
}

pub fn tab7_1(_scale: Scale) -> Report {
    let mut rep = Report::new("Table 7.1 — Server models");
    rep.note(
        "The testbed mix (relative speeds preserved; absolute speeds \
         calibrated to §5.7's ~0.9M records/s for the Dell 1950).",
    );
    let mut t = Table::new(["model", "records_per_s", "cores"]);
    for m in ServerModel::all() {
        t.row([
            m.name().to_string(),
            fnum(m.records_per_sec()),
            m.cores().to_string(),
        ]);
    }
    rep.table("fleet models", t);
    rep
}

/// Shared implementation of fig7_1 / fig7_2: cluster delay + sim throughput
/// as p sweeps, under a fixed-cost profile.
fn effect_of_p(title: &str, overhead_s: f64, scale: Scale) -> Report {
    let mut rep = Report::new(title);
    let n = 24usize;
    let d = scale.pick(24_000, 8_000);
    let speed = 100_000.0; // records/s per node
    rep.note(format!(
        "{n} nodes × {speed} records/s, {d} objects, per-sub-query fixed \
         overhead {overhead_s}s.\nPaper shape: delay falls ~1/p; throughput \
         peaks at low p and falls as overheads multiply."
    ));
    let runtime = rt();
    let mut t = Table::new(["p", "delay_ms(cluster)", "throughput_qps(sim)"]);
    let ps = [2usize, 3, 4, 6, 8, 12];
    for &p in &ps {
        // cluster-measured delay
        let delay_ms = runtime.block_on(async {
            let mut cfg = ClusterConfig::uniform(n, speed, p);
            cfg.overhead_s = overhead_s;
            let h = spawn_cluster(cfg).await.expect("cluster");
            let mut rng = det_rng(71 + p as u64);
            let ids: Vec<u64> = (0..d).map(|_| rng.gen()).collect();
            h.admin.store_synthetic(&ids).await.expect("store");
            let mut delays = Vec::new();
            for _ in 0..scale.pick(8, 4) {
                let out = h
                    .client
                    .query(QueryBody::Synthetic)
                    .sched(SchedOpts::default())
                    .run()
                    .await;
                delays.push(out.wall_s * 1e3);
            }
            roar_util::mean(&delays)
        });
        // sim-measured saturation throughput
        let work_speeds = vec![speed / d as f64; n];
        let thr = saturation_throughput(
            SimServers::new(&work_speeds, overhead_s),
            &Ptn::new(DrConfig::new(n, p)).scheduler(),
            scale.pick(600, 200),
            71,
        );
        t.row([p.to_string(), fnum(delay_ms), fnum(thr)]);
    }
    rep.table("delay and throughput vs p", t);
    rep
}

pub fn fig7_1(scale: Scale) -> Report {
    // PPS_LM: heavier fixed cost per sub-query (forced GC share)
    effect_of_p("Fig 7.1 — Effect of p (PPS_LM profile)", 0.012, scale)
}

pub fn fig7_2(scale: Scale) -> Report {
    // PPS_LC: lighter fixed costs
    effect_of_p("Fig 7.2 — Effect of p (PPS_LC profile)", 0.004, scale)
}

/// Fig 7.3: average per-node CPU load at a fixed query rate, low vs high p.
pub fn fig7_3(scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.3 — CPU load per node vs p");
    let n = 40usize;
    let d = 1_000_000u64;
    let speeds = vec![900_000.0 / d as f64; n];
    rep.note(
        "Same query rate, two partitioning levels. Paper: higher p means \
         more fixed overhead per query — every node busier for the same \
         useful work.",
    );
    let mut t = Table::new(["p", "mean_util", "max_util", "total_busy_s"]);
    for p in [5usize, 20, 40] {
        let cfg = SimConfig {
            arrival_rate: 6.0,
            n_queries: scale.pick(2000, 600),
            warmup: 100,
            seed: 73,
            explosion_slope: 0.1,
        };
        let res = run_sim(
            &cfg,
            SimServers::new(&speeds, 0.01),
            &Ptn::new(DrConfig::new(n, p)).scheduler(),
        );
        let util = res.utilisation();
        let busy: f64 = res.busy_time.iter().sum();
        t.row([
            p.to_string(),
            fnum(roar_util::mean(&util)),
            fnum(util.iter().cloned().fold(0.0, f64::max)),
            fnum(busy),
        ]);
    }
    rep.table("per-node utilisation", t);
    rep
}

/// Table 7.2: energy saving running at p=5 instead of p=47.
pub fn tab7_2(scale: Scale) -> Report {
    let mut rep = Report::new("Table 7.2 — Energy savings at p=5 vs p=47");
    let n = 47usize;
    let d = 1_000_000u64;
    let speeds = vec![900_000.0 / d as f64; n];
    let cfg = SimConfig {
        arrival_rate: 4.0,
        n_queries: scale.pick(2000, 500),
        warmup: 100,
        seed: 72,
        explosion_slope: 0.1,
    };
    let run_at = |p: usize| {
        run_sim(
            &cfg,
            SimServers::new(&speeds, 0.01),
            &Ptn::new(DrConfig::new(n, p)).scheduler(),
        )
    };
    let lo = run_at(5);
    let hi = run_at(47);
    let model = PowerModel::dell1950();
    let duration = lo.duration.max(hi.duration);
    let e_lo = fleet_energy(&model, &lo.busy_time, duration);
    let e_hi = fleet_energy(&model, &hi.busy_time, duration);
    let mut t = Table::new(["metric", "p=5", "p=47"]);
    t.row([
        "mean delay (ms)",
        &fnum(lo.mean_delay * 1e3),
        &fnum(hi.mean_delay * 1e3),
    ]);
    t.row([
        "total busy (s)",
        &fnum(lo.busy_time.iter().sum::<f64>()),
        &fnum(hi.busy_time.iter().sum::<f64>()),
    ]);
    t.row(["fleet energy (kJ)", &fnum(e_lo / 1e3), &fnum(e_hi / 1e3)]);
    rep.table("low-p vs high-p under identical load", t);
    rep.note(format!(
        "Total energy saving: {:.1}% (dynamic-power-only saving: {:.1}%). \
         Paper reports the same direction: running at p=5 instead of p=47 \
         saves measurable power because fixed per-sub-query work shrinks.",
        (1.0 - e_lo / e_hi) * 100.0,
        dynamic_energy_saving(&lo.busy_time, &hi.busy_time) * 100.0
    ));
    rep
}

/// Fig 7.4: update load vs query throughput for two replication levels.
pub fn fig7_4(_scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.4 — Updates vs query throughput");
    rep.note(
        "Each update burns r × t_update of server time. Paper: throughput \
         falls linearly with update rate, steeper for larger r.",
    );
    let mut t = Table::new(["updates_per_s", "thr_r2_qps", "thr_r8_qps"]);
    let m2 = UpdateModel {
        n: 40,
        r: 2.0,
        t_update: 0.002,
        base_throughput: 100.0,
    };
    let m8 = UpdateModel {
        n: 40,
        r: 8.0,
        t_update: 0.002,
        base_throughput: 100.0,
    };
    for u in [0.0, 500.0, 1000.0, 2000.0, 4000.0] {
        t.row([
            fnum(u),
            fnum(m2.query_throughput(u)),
            fnum(m8.query_throughput(u)),
        ]);
    }
    rep.table("query throughput vs update rate", t);
    rep
}

/// Fig 7.5: the cluster re-tunes p as offered load steps up and back down.
pub fn fig7_5(scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.5 — Changing p dynamically");
    rep.note(
        "Load steps 1 → 6 → 1 concurrent query streams; controller raises p \
         when mean delay exceeds the 40 ms target and lowers it with slack. \
         Paper: p tracks load; no downtime; harvest stays 100%.",
    );
    let runtime = rt();
    let rows = runtime.block_on(async {
        let n = 12;
        let h = spawn_cluster(ClusterConfig::uniform(n, 300_000.0, 2))
            .await
            .expect("cluster");
        let mut rng = det_rng(75);
        let ids: Vec<u64> = (0..scale.pick(30_000, 10_000)).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.expect("store");
        let mut rows = Vec::new();
        for (phase, concurrency) in [("calm", 1usize), ("spike", 6), ("spike", 6), ("calm", 1)] {
            for _ in 0..3 {
                let mut handles = Vec::new();
                for _ in 0..concurrency {
                    let c = h.client.clone();
                    handles.push(tokio::spawn(async move {
                        c.query(QueryBody::Synthetic)
                            .sched(SchedOpts::default())
                            .run()
                            .await
                    }));
                }
                let mut delays = Vec::new();
                let mut harvest = 1.0f64;
                for hdl in handles {
                    let out = hdl.await.expect("query");
                    delays.push(out.wall_s * 1e3);
                    harvest = harvest.min(out.harvest);
                }
                let mean = roar_util::mean(&delays);
                let p = h.admin.p();
                let action = if mean > 40.0 && p < n {
                    let np = (p * 2).min(n);
                    h.admin.set_p(np).await.expect("repartition");
                    format!("p->{np}")
                } else if mean < 13.0 && p > 2 {
                    let np = (p / 2).max(2);
                    h.admin.set_p(np).await.expect("repartition");
                    format!("p->{np}")
                } else {
                    "hold".into()
                };
                rows.push((phase.to_string(), p, mean, harvest, action));
            }
        }
        rows
    });
    let mut t = Table::new(["phase", "p", "mean_delay_ms", "harvest", "action"]);
    for (phase, p, mean, harvest, action) in rows {
        t.row([phase, p.to_string(), fnum(mean), fnum(harvest), action]);
    }
    rep.table("controller trace", t);
    rep
}

/// Fig 7.6: a mass failure (20 of 45 nodes) mid-service.
pub fn fig7_6(scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.6 — 20 node failures");
    rep.note(
        "n = 45, p = 5 (r = 9); 20 nodes killed at once (no two-thirds of \
         any arc). Paper: queries keep 100% harvest via the §4.4 fall-back; \
         delay rises (fewer servers, extra sub-queries), then recovers as \
         the scheduler re-learns.",
    );
    let runtime = rt();
    let rows = runtime.block_on(async {
        let n = 45;
        let h = spawn_cluster(ClusterConfig::uniform(n, 400_000.0, 5))
            .await
            .expect("cluster");
        let mut rng = det_rng(76);
        let ids: Vec<u64> = (0..scale.pick(20_000, 8_000)).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.expect("store");
        let mut rows: Vec<(String, f64, f64, usize)> = Vec::new();
        let measure = |label: &str, h: &roar_cluster::ClusterHandle| {
            let label = label.to_string();
            let c = h.client.clone();
            async move {
                let out = c
                    .query(QueryBody::Synthetic)
                    .sched(SchedOpts::default())
                    .run()
                    .await;
                (label, out.wall_s * 1e3, out.harvest, out.subqueries)
            }
        };
        for _ in 0..3 {
            rows.push(measure("healthy", &h).await);
        }
        // kill every other node in index order — 20 victims, never a long run
        let victims: Vec<usize> = (0..n).filter(|i| i % 2 == 0).take(20).collect();
        for &v in &victims {
            h.admin.kill_node(v).await;
        }
        for _ in 0..4 {
            rows.push(measure("after-20-failures", &h).await);
        }
        rows
    });
    let mut t = Table::new(["phase", "delay_ms", "harvest", "subqueries"]);
    for (phase, d, hv, sq) in rows {
        t.row([phase, fnum(d), fnum(hv), sq.to_string()]);
    }
    rep.table("failure timeline", t);
    rep
}

/// Fig 7.7 / 7.8 share a heterogeneous cluster: pq = p vs pq > p.
fn pq_balancing(scale: Scale) -> (Vec<f64>, Vec<f64>) {
    let runtime = rt();
    runtime.block_on(async {
        let n = 12;
        // one third of the fleet 3x faster
        let speeds: Vec<f64> = (0..n)
            .map(|i| if i % 3 == 0 { 900_000.0 } else { 300_000.0 })
            .collect();
        let cfg = ClusterConfig {
            speeds,
            p: 3,
            overhead_s: 0.0,
            transport: TransportSpec::Tcp,
            fault_gates: false,
        };
        let h = spawn_cluster(cfg).await.expect("cluster");
        let mut rng = det_rng(77);
        let ids: Vec<u64> = (0..scale.pick(24_000, 9_000)).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.expect("store");
        // learn speeds first
        for _ in 0..6 {
            let _ = h
                .client
                .query(QueryBody::Synthetic)
                .sched(SchedOpts::default())
                .run()
                .await;
        }
        let mut base = Vec::new();
        let mut boosted = Vec::new();
        for _ in 0..scale.pick(12, 6) {
            base.push(
                h.client
                    .query(QueryBody::Synthetic)
                    .sched(SchedOpts::default())
                    .run()
                    .await
                    .wall_s
                    * 1e3,
            );
            boosted.push(
                h.client
                    .query(QueryBody::Synthetic)
                    .sched(SchedOpts::default())
                    .pq(6)
                    .run()
                    .await
                    .wall_s
                    * 1e3,
            );
        }
        (base, boosted)
    })
}

pub fn fig7_7(scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.7 — Fast load balancing with pq > p");
    rep.note(
        "Heterogeneous cluster (1/3 of nodes 3x faster), p = 3. Doubling pq \
         halves sub-query size and widens placement choice. Paper: pq > p \
         cuts both mean delay and its spread.",
    );
    let (base, boosted) = pq_balancing(scale);
    let (sb, sx) = (Summary::from(&base), Summary::from(&boosted));
    let mut t = Table::new(["pq", "mean_ms", "p90_ms", "max_ms"]);
    t.row(["p (=3)", &fnum(sb.mean), &fnum(sb.p90), &fnum(sb.max)]);
    t.row(["2p (=6)", &fnum(sx.mean), &fnum(sx.p90), &fnum(sx.max)]);
    rep.table("delay with and without over-partitioning", t);
    rep
}

pub fn fig7_8(scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.8 — Delay distribution with pq > p");
    let (base, boosted) = pq_balancing(scale);
    let mut t = Table::new(["percentile", "pq=p_ms", "pq=2p_ms"]);
    for q in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
        t.row([
            fnum(q),
            fnum(roar_util::percentile(&base, q)),
            fnum(roar_util::percentile(&boosted, q)),
        ]);
    }
    rep.table("delay CDF points (ms)", t);
    rep
}

/// Fig 7.9 / 7.10: proportional-range balancing on a heterogeneous ring.
pub fn fig7_9(_scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.9 — Range load balancing convergence");
    rep.note(
        "Heterogeneous speeds, uniform initial ranges; §4.6 neighbour \
         balancing. Paper: ranges converge to ∝ speed; imbalance → ~1.",
    );
    let speeds = [3.0f64, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 1.0];
    let nodes: Vec<usize> = (0..8).collect();
    let mut map = RingMap::uniform(&nodes);
    let cfg = roar_core::balance::BalanceConfig {
        threshold: 0.03,
        step: 0.3,
    };
    let mut t = Table::new(["round", "imbalance", "fast_node_frac", "slow_node_frac"]);
    for round in 0..=40 {
        if round % 5 == 0 {
            let imb = roar_core::balance::range_imbalance(&map, &|n| speeds[n]);
            let frac_of = |node: usize, m: &RingMap| {
                let i = m.entries().iter().position(|e| e.node == node).unwrap();
                m.fraction_at(i)
            };
            t.row([
                round.to_string(),
                fnum(imb),
                fnum(frac_of(0, &map)),
                fnum(frac_of(1, &map)),
            ]);
        }
        let snapshot = map.clone();
        let load = move |n: usize| {
            let i = snapshot.entries().iter().position(|e| e.node == n).unwrap();
            snapshot.fraction_at(i) / speeds[n]
        };
        roar_core::balance::balance_step(&mut map, &cfg, &load, &|_| false);
    }
    rep.table("convergence", t);
    rep
}

pub fn fig7_10(scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.10 — Effect of range balancing on delay");
    rep.note(
        "Same heterogeneous fleet; uniform ranges vs speed-proportional \
         ranges. Paper: balanced ranges cut mean delay and imbalance.",
    );
    let n = 16usize;
    let d = 1_000_000u64;
    let mut rng = det_rng(710);
    let fleet = Fleet::hen_testbed(&mut rng, n);
    let speeds = fleet.work_speeds(d);
    let p = 4usize;
    let nodes: Vec<usize> = (0..n).collect();
    let cfg = SimConfig {
        arrival_rate: 6.0,
        n_queries: scale.pick(2500, 700),
        warmup: 150,
        seed: 7100,
        explosion_slope: 0.1,
    };
    let mut t = Table::new(["ranges", "mean_ms", "p99_ms", "query_imbalance"]);
    for (name, map) in [
        ("uniform", RingMap::uniform(&nodes)),
        ("proportional", RingMap::proportional(&nodes, &speeds)),
    ] {
        let sched = RoarScheduler::new(RoarRing::new(map.clone(), p), p, Strategy::Sweep);
        let res = run_sim(&cfg, SimServers::new(&speeds, 0.002), &sched);
        let imb = roar_core::balance::range_imbalance(&map, &|nd| speeds[nd]);
        t.row([
            name.to_string(),
            fnum(res.mean_delay * 1e3),
            fnum(res.summary.p99 * 1e3),
            fnum(imb),
        ]);
    }
    rep.table("uniform vs proportional ranges", t);
    rep
}

/// Fig 7.11: delay breakdown at the front-end.
pub fn fig7_11(scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.11 — Front-end delay breakdown");
    rep.note(
        "Components of end-to-end delay. Paper: processing dominates; \
         scheduling is milliseconds even at scale.",
    );
    let runtime = rt();
    let (sched_ms, exec_ms, proc_ms, wall_ms) = runtime.block_on(async {
        let h = spawn_cluster(ClusterConfig::uniform(24, 200_000.0, 6))
            .await
            .expect("cluster");
        let mut rng = det_rng(711);
        let ids: Vec<u64> = (0..scale.pick(24_000, 8_000)).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.expect("store");
        let mut s = (0.0, 0.0, 0.0, 0.0);
        let k = scale.pick(10, 5);
        for _ in 0..k {
            let out = h
                .client
                .query(QueryBody::Synthetic)
                .sched(SchedOpts::default())
                .run()
                .await;
            s.0 += out.sched_s * 1e3;
            s.1 += out.exec_s * 1e3;
            s.2 += out.proc_max_s * 1e3;
            s.3 += out.wall_s * 1e3;
        }
        (
            s.0 / k as f64,
            s.1 / k as f64,
            s.2 / k as f64,
            s.3 / k as f64,
        )
    });
    let mut t = Table::new(["component", "mean_ms", "share"]);
    t.row(["scheduling", &fnum(sched_ms), &fnum(sched_ms / wall_ms)]);
    t.row([
        "network+queueing",
        &fnum(exec_ms - proc_ms),
        &fnum((exec_ms - proc_ms) / wall_ms),
    ]);
    t.row([
        "node processing (max)",
        &fnum(proc_ms),
        &fnum(proc_ms / wall_ms),
    ]);
    t.row(["total", &fnum(wall_ms), "1.0"]);
    rep.table("breakdown", t);
    rep
}

/// Table 7.3: ROAR at 1000 servers (simulated EC2 fleet).
pub fn tab7_3(scale: Scale) -> Report {
    let mut rep = Report::new("Table 7.3 — 1000 servers (EC2-scale, simulated)");
    let n = scale.pick(1000, 300);
    let p = 50usize.min(n / 4);
    let d = 5_000_000u64;
    let mut rng = det_rng(73);
    let fleet = Fleet::with_spread(&mut rng, n, 900_000.0, 1.5);
    let speeds = fleet.work_speeds(d);
    let nodes: Vec<usize> = (0..n).collect();
    let ring = RoarRing::new(RingMap::uniform(&nodes), p);

    // measured scheduling latency at this scale
    let est = StaticEstimator::with_speeds(speeds.clone());
    let t0 = std::time::Instant::now();
    let reps = 50;
    for i in 0..reps {
        let _ = schedule_sweep(&ring, p, &est, i as u64 * 6151);
    }
    let sched_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

    let cfg = SimConfig {
        arrival_rate: 40.0,
        n_queries: scale.pick(3000, 800),
        warmup: 200,
        seed: 731,
        explosion_slope: 0.1,
    };
    let sched = RoarScheduler::new(ring, p, Strategy::Sweep);
    let res = run_sim(&cfg, SimServers::new(&speeds, 0.002), &sched);
    let mut t = Table::new(["metric", "value"]);
    t.row(["servers", &n.to_string()]);
    t.row(["p", &p.to_string()]);
    t.row(["scheduling latency (ms/query)", &fnum(sched_ms)]);
    t.row(["mean query delay (ms)", &fnum(res.mean_delay * 1e3)]);
    t.row(["p99 query delay (ms)", &fnum(res.summary.p99 * 1e3)]);
    t.row([
        "messages per query",
        &fnum(res.messages as f64 / cfg.n_queries as f64),
    ]);
    rep.note(
        "Paper (Table 7.3): 1000-server EC2 deployment kept sub-second \
         delays with front-end scheduling in the low tens of ms.",
    );
    rep.table("scale metrics", t);
    rep
}

/// Fig 7.12: front-end scheduling cost, ROAR sweep vs straw-man vs PTN.
pub fn fig7_12(scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.12 — Scheduling delay: PTN vs ROAR vs straw-man");
    rep.note(
        "Paper: at n≈1000, ROAR's heap sweep ≈ 3x PTN's linear scan (20 ms \
         vs 8.5 ms there), both far below the straw-man O(np).",
    );
    let mut t = Table::new(["n", "PTN_us", "ROAR_sweep_us", "straw_man_us"]);
    let ns: Vec<usize> = match scale {
        Scale::Full => vec![100, 400, 1000, 2000],
        Scale::Quick => vec![100, 400],
    };
    for n in ns {
        let p = n / 10;
        let mut rng = det_rng(712);
        let speeds: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
        let est = StaticEstimator::with_speeds(speeds);
        let nodes: Vec<usize> = (0..n).collect();
        let ring = RoarRing::new(RingMap::uniform(&nodes), p);
        let ptn = Ptn::new(DrConfig::new(n, p));
        let reps = scale.pick(30, 10) as u64;
        let time_us = |f: &dyn Fn(u64)| {
            let t0 = std::time::Instant::now();
            for i in 0..reps {
                f(i * 7919);
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        };
        let ptn_us = time_us(&|s| {
            let _ = ptn.scheduler().schedule(&est, s);
        });
        let sweep_us = time_us(&|s| {
            let _ = schedule_sweep(&ring, p, &est, s);
        });
        let straw_us = time_us(&|s| {
            let _ = schedule_exhaustive(&ring, p, &est, s);
        });
        t.row([n.to_string(), fnum(ptn_us), fnum(sweep_us), fnum(straw_us)]);
    }
    rep.table("scheduling time per query (µs)", t);
    rep
}

/// Fig 7.13: EWMA-observed speeds vs true node speeds.
pub fn fig7_13(scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.13 — Observed server processing speeds");
    rep.note(
        "Front-end EWMA estimates after a learning phase vs the configured \
         true speeds. Paper: estimates cluster by hardware model.",
    );
    let runtime = rt();
    let rows = runtime.block_on(async {
        let n = 8;
        let true_speeds: Vec<f64> = (0..n)
            .map(|i| if i < 4 { 400_000.0 } else { 100_000.0 })
            .collect();
        let cfg = ClusterConfig {
            speeds: true_speeds.clone(),
            p: 2,
            overhead_s: 0.0,
            transport: TransportSpec::Tcp,
            fault_gates: false,
        };
        let h = spawn_cluster(cfg).await.expect("cluster");
        let mut rng = det_rng(713);
        let d = scale.pick(20_000, 8_000);
        let ids: Vec<u64> = (0..d).map(|_| rng.gen()).collect();
        h.admin.store_synthetic(&ids).await.expect("store");
        for _ in 0..scale.pick(16, 8) {
            let _ = h
                .client
                .query(QueryBody::Synthetic)
                .sched(SchedOpts::default())
                .pq(8)
                .run()
                .await;
        }
        let est = h.admin.speed_estimates();
        // estimates are in work-fraction/s; scale by d to records/s
        (0..n)
            .map(|i| (i, true_speeds[i], est[i] * d as f64))
            .collect::<Vec<_>>()
    });
    let mut t = Table::new(["node", "true_records_per_s", "observed_records_per_s"]);
    for (i, tr, ob) in rows {
        t.row([i.to_string(), fnum(tr), fnum(ob)]);
    }
    rep.table("true vs observed speeds", t);
    rep
}

/// Fig 7.14: ROAR vs PTN delay as load rises, heterogeneous fleet.
pub fn fig7_14(scale: Scale) -> Report {
    let mut rep = Report::new("Fig 7.14 — Query delay ROAR vs PTN");
    rep.note(
        "Hen-mix fleet with §4.6 proportional ranges (deployed ROAR balances \
         ranges to speeds); load sweep. Paper: PTN slightly ahead at low \
         load (r^p choices), ROAR converges to it as utilisation rises and \
         both saturate together.",
    );
    let n = 40usize;
    let d = 1_000_000u64;
    let p = 8usize;
    let mut rng = det_rng(714);
    let fleet = Fleet::hen_testbed(&mut rng, n);
    let speeds = fleet.work_speeds(d);
    let capacity: f64 = speeds.iter().sum();
    let nodes: Vec<usize> = (0..n).collect();
    let mut t = Table::new(["load_frac", "ROAR_ms", "PTN_ms", "ratio"]);
    for load in [0.2, 0.4, 0.6, 0.8] {
        let cfg = SimConfig {
            arrival_rate: capacity * load,
            n_queries: scale.pick(3000, 800),
            warmup: 200,
            seed: 7140,
            explosion_slope: 0.1,
        };
        let roar = RoarScheduler::new(
            RoarRing::new(RingMap::proportional(&nodes, &speeds), p),
            p,
            Strategy::Sweep,
        );
        let r1 = run_sim(&cfg, SimServers::new(&speeds, 0.002), &roar);
        let ptn = Ptn::balanced(DrConfig::new(n, p), &speeds);
        let r2 = run_sim(&cfg, SimServers::new(&speeds, 0.002), &ptn.scheduler());
        t.row([
            fnum(load),
            fnum(r1.mean_delay * 1e3),
            fnum(r2.mean_delay * 1e3),
            fnum(r1.mean_delay / r2.mean_delay),
        ]);
    }
    rep.table("mean delay (ms) by load", t);
    rep
}
