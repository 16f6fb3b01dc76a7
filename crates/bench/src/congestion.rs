//! The congestion-collapse comparison (`BENCH_congestion.json`):
//! fixed-RTO UDP vs `ccudp` as cross traffic ramps toward saturation.
//!
//! §4.8.4 prescribes UDP with a short app-level RTO and immediately
//! caveats it: a production deployment must "avoid congestion collapse in
//! pathological cases". This bench *builds* the pathological case. Every
//! node's replies (and acks) cross one shared bottleneck queue
//! ([`CrossTrafficSpec`]) in front of the front-end's fan-in port, and a
//! competing background flow is ramped from 0% to 95% of the bottleneck's
//! drain rate. What remains for the scatter-gather replies is the residual
//! capacity — and how a transport spends it is the whole story:
//!
//! * `udp_fixed_rto` re-offers every unanswered reply on a fixed 5 ms
//!   timer, regardless of how congested the queue is. Once the backlog's
//!   queueing delay exceeds its RTO — which one fan-in burst plus cross
//!   traffic achieves — every reply in flight is re-polled ~`delay / 5 ms`
//!   times before its first copy even arrives, each re-offer enqueueing a
//!   duplicate that burns drain capacity everyone needed (Floyd & Fall's
//!   collapse-from-duplicates). The backlog feeds on itself, the queue
//!   tail-drops, and goodput collapses while latency rides the full
//!   queue.
//! * `ccudp` samples delivered RTTs — queueing delay included — into its
//!   SRTT, so the adaptive RTO automatically rises above the backlog;
//!   timeout-detected losses back it off exponentially and halve the
//!   in-flight window, and pacing spreads what it does send. Its offered
//!   load *decays to fit the residual capacity*: almost no duplicates,
//!   the queue serves useful traffic, goodput holds.
//!
//! Goodput is measured as scanned records per wall second (failed windows
//! scan nothing — collapse shows up as goodput, not just latency, exactly
//! the degradation-under-overload lens of Badue et al.'s capacity
//! planning work). The committed headline: at the top of the ramp, ccudp
//! sustains goodput and beats the fixed-RTO p99. `repro bench_congestion
//! --quick` re-checks that inequality as a CI gate.

use crate::driver::{block_on, closed_loop, synthetic_ids};
use crate::{millis, number, Filters, Scale};
use roar_cluster::{
    spawn_cluster, AdaptiveConfig, ClusterConfig, CrossTrafficSpec, DatagramConfig, FixedRto,
    LossSpec, TransportSpec,
};
use roar_util::{Json, Summary};
use std::time::{Duration, Instant};

/// The fixed app-level RTO of the §4.8.4 UDP path.
pub const FIXED_RTO: Duration = Duration::from_millis(5);

/// Bottleneck drain rate (datagrams/s): small enough that a handful of
/// hammering windows saturates it, the loopback stand-in for the
/// front-end's oversubscribed fan-in port.
pub const DRAIN_DGRAMS_PER_S: f64 = 600.0;

/// Bottleneck queue capacity (datagrams): ~107 ms of backlog at the drain
/// rate — deep enough that a fixed 5 ms timer re-offers each reply ~20
/// times before the first copy delivers.
pub const QUEUE_CAP: f64 = 64.0;

fn fixed_spec(server_loss: LossSpec) -> TransportSpec {
    TransportSpec::Udp {
        cfg: DatagramConfig {
            policy: FixedRto { rto: FIXED_RTO },
            // the same liveness budget the incast bench grants: 64
            // fixed-cadence windows = 320 ms of consecutive silence
            max_attempts: 64,
            ..DatagramConfig::default()
        },
        client_loss: LossSpec::None,
        server_loss,
    }
}

fn cc_spec(server_loss: LossSpec) -> TransportSpec {
    TransportSpec::CcUdp {
        cfg: DatagramConfig {
            max_attempts: 16,
            policy: AdaptiveConfig {
                min_rto: FIXED_RTO, // same floor as the fixed path: a clean
                // network costs ccudp nothing extra
                init_rto: Duration::from_millis(10),
                max_rto: Duration::from_millis(200),
                ..AdaptiveConfig::default()
            },
            ..DatagramConfig::default()
        },
        client_loss: LossSpec::None,
        server_loss,
    }
}

/// One measurement at one offered cross-traffic level (`cross_frac` of the
/// drain rate).
async fn run_point(
    spec_for: fn(LossSpec) -> TransportSpec,
    cross_frac: f64,
    (n, p): (usize, usize),
    ids: &[u64],
    queries: usize,
) -> Json {
    // quiet while the cluster boots and stores (control traffic must not
    // skew the measurement), then ramp the background flow
    let bottleneck = CrossTrafficSpec::quiet(DRAIN_DGRAMS_PER_S, QUEUE_CAP).build();
    let spec = spec_for(LossSpec::Bottleneck(bottleneck.clone()));
    let h = spawn_cluster(ClusterConfig::uniform(n, 1e7, p).with_transport(spec))
        .await
        .expect("cluster");
    h.admin.store_synthetic(ids).await.expect("store");
    bottleneck.set_cross_rate(cross_frac * DRAIN_DGRAMS_PER_S);
    let admitted0 = bottleneck.admitted();
    let dropped0 = bottleneck.dropped();

    let t0 = Instant::now();
    let (delays_ms, outputs) = closed_loop(&h.client, queries, |q| q).await;
    let elapsed_s = t0.elapsed().as_secs_f64();

    let harvests: Vec<f64> = outputs.iter().map(|o| o.harvest).collect();
    let scanned: u64 = outputs.iter().map(|o| o.scanned).sum();
    Json::obj([
        ("cross_frac", cross_frac.into()),
        ("queries", queries.into()),
        // queries that achieved full harvest
        (
            "completed",
            harvests.iter().filter(|&&h| h >= 1.0).count().into(),
        ),
        ("mean_harvest", Json::rounded(roar_util::mean(&harvests), 3)),
        // scanned records per wall second across the whole point — the
        // goodput axis (lost windows scan nothing)
        (
            "goodput_records_per_s",
            Json::rounded(scanned as f64 / elapsed_s, 0),
        ),
    ])
    .merge(Summary::from(&delays_ms).to_json("ms"))
    // datagrams the shared bottleneck forwarded / tail-dropped during the
    // measurement (admission pressure, for the report)
    .merge(Json::obj([
        (
            "bottleneck_admitted",
            (bottleneck.admitted() - admitted0).into(),
        ),
        (
            "bottleneck_dropped",
            (bottleneck.dropped() - dropped0).into(),
        ),
    ]))
}

/// Run the comparison. `Quick` shrinks the cluster, the ramp and the query
/// count for CI smoke runs. Headline members, both at the top of the ramp
/// (> 1 means ccudp wins): `p99_speedup_ccudp_vs_fixed` = p99(udp_fixed_rto)
/// / p99(ccudp), `goodput_ratio_ccudp_vs_fixed` = goodput(ccudp) /
/// goodput(udp_fixed_rto).
pub fn run(scale: Scale, _: &Filters) -> Result<Json, String> {
    let n = scale.pick(8, 4);
    let p = n / 2;
    let queries = scale.pick(30, 10);
    let ids = synthetic_ids(585, scale.pick(800, 300));
    let cross_fracs: &[f64] = match scale {
        Scale::Full => &[0.0, 0.5, 0.8, 0.95],
        Scale::Quick => &[0.0, 0.8],
    };
    block_on(async {
        let mut modes = Vec::new();
        for (name, spec_for) in [
            ("udp_fixed_rto", fixed_spec as fn(LossSpec) -> TransportSpec),
            ("ccudp", cc_spec),
        ] {
            let mut points = Vec::new();
            for &frac in cross_fracs {
                points.push(run_point(spec_for, frac, (n, p), &ids, queries).await);
            }
            modes.push(Json::obj([
                ("name", name.into()),
                ("points", Json::Arr(points)),
            ]));
        }
        let modes = Json::Arr(modes);
        let (fixed, cc) = (
            top_point(&modes, "udp_fixed_rto")?,
            top_point(&modes, "ccudp")?,
        );
        let p99_speedup = number(fixed, &["p99_ms"])? / number(cc, &["p99_ms"])?;
        let goodput_ratio =
            number(cc, &["goodput_records_per_s"])? / number(fixed, &["goodput_records_per_s"])?;
        Ok(Json::obj([
            ("benchmark", "congestion_cross_traffic".into()),
            (
                "config",
                Json::obj([
                    ("nodes", n.into()),
                    ("p", p.into()),
                    ("ids", ids.len().into()),
                    ("queries_per_point", queries.into()),
                    ("drain_dgrams_per_s", DRAIN_DGRAMS_PER_S.into()),
                    ("queue_cap", QUEUE_CAP.into()),
                    ("fixed_rto_ms", millis(FIXED_RTO)),
                    (
                        "loss",
                        "all server datagrams share one bottleneck queue with ramped cross traffic"
                            .into(),
                    ),
                ]),
            ),
            ("modes", modes),
            ("p99_speedup_ccudp_vs_fixed", Json::rounded(p99_speedup, 2)),
            (
                "goodput_ratio_ccudp_vs_fixed",
                Json::rounded(goodput_ratio, 2),
            ),
        ]))
    })
}

/// `mode`'s measurement at the top of the ramp, from the `modes` array.
fn top_point<'a>(modes: &'a Json, mode: &str) -> Result<&'a Json, String> {
    let points = modes.find("name", mode).and_then(|m| m.get("points"));
    points
        .and_then(|p| p.as_array()?.last())
        .ok_or_else(|| format!("mode {mode} has no points"))
}

/// The CI gate: congestion control must win where it matters — under the
/// heaviest cross traffic, ccudp must beat the fixed-RTO path's p99 and
/// sustain at least its goodput.
pub fn gate(doc: &Json, _: Scale) -> Result<(), String> {
    let modes = doc.get("modes").ok_or("no modes")?;
    let (fixed, cc) = (
        top_point(modes, "udp_fixed_rto")?,
        top_point(modes, "ccudp")?,
    );
    let (cc_p99, fixed_p99) = (number(cc, &["p99_ms"])?, number(fixed, &["p99_ms"])?);
    let goodput = |point| number(point, &["goodput_records_per_s"]);
    let (cc_goodput, fixed_goodput) = (goodput(cc)?, goodput(fixed)?);
    if cc_p99 > fixed_p99 || cc_goodput < fixed_goodput {
        return Err(format!(
            "ccudp must beat fixed-RTO p99 and sustain goodput under cross traffic: \
             p99 {cc_p99:.1} vs {fixed_p99:.1} ms, goodput {cc_goodput:.0} vs {fixed_goodput:.0} rec/s"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_congestion_shows_the_484_direction() {
        let b = run(Scale::Quick, &Filters::default()).unwrap();
        // the acceptance criterion: under cross traffic the adaptive path
        // must not lose on the tail, and must sustain goodput
        gate(&b, Scale::Quick).expect("ccudp must beat fixed-RTO under cross traffic");
        // the quiet points must be healthy for both (no cross traffic, no
        // collapse): congestion control must cost ~nothing when idle
        for mode in b.get("modes").unwrap().as_array().unwrap() {
            let quiet = &mode.get("points").unwrap().as_array().unwrap()[0];
            assert_eq!(number(quiet, &["cross_frac"]), Ok(0.0));
            assert!(
                number(quiet, &["mean_harvest"]).unwrap() > 0.99,
                "{mode:?}: quiet network must not lose windows"
            );
        }
    }

    #[test]
    fn gate_needs_both_the_tail_and_the_goodput() {
        let mode = |name: &str, p99: f64, goodput: f64| {
            let top = Json::obj([
                ("p99_ms", p99.into()),
                ("goodput_records_per_s", goodput.into()),
            ]);
            Json::obj([
                ("name", name.into()),
                ("points", Json::Arr(vec![Json::Null, top])),
            ])
        };
        let doc = |cc_p99, cc_goodput| {
            let modes = vec![
                mode("udp_fixed_rto", 100.0, 500.0),
                mode("ccudp", cc_p99, cc_goodput),
            ];
            Json::obj([("modes", Json::Arr(modes))])
        };
        assert!(gate(&doc(30.0, 900.0), Scale::Quick).is_ok());
        assert!(
            gate(&doc(130.0, 900.0), Scale::Quick).is_err(),
            "lost on the tail"
        );
        assert!(
            gate(&doc(30.0, 400.0), Scale::Quick).is_err(),
            "lost on goodput"
        );
    }
}
