//! Chapter 5 reproductions: the PPS single-server evaluation.
//!
//! Calibration note: our encrypted records are ~900 B
//! (we index ~70 numeric reference points besides keywords; the paper's are
//! ~230 B), so collection sizes are chosen to keep *scanned bytes*
//! comparable — e.g. fig5_4 scans ~230 MB just like the paper's 1M-record
//! run.

use crate::Scale;
use roar_pps::bandwidth::BandwidthParams;
use roar_pps::engine::{Engine, EngineProfile};
use roar_pps::metadata::MetaEncryptor;
use roar_pps::query::{Combiner, Matcher, Predicate, QueryCompiler};
use roar_pps::simdisk::DiskProfile;
use roar_util::report::fnum;
use roar_util::{det_rng, Report, Table};
use roar_workload::{fast_random_metadata, QueryGenerator};

fn cheap_encryptor() -> MetaEncryptor {
    MetaEncryptor::with_points(b"bench-user", vec![1_000_000], vec![1_300_000_000])
}

/// Fig 5.1: bandwidth ratio (index-based at its optimal δmax / PPS) over
/// update and query frequencies, for 0/50/90% local updates.
pub fn fig5_1(_scale: Scale) -> Report {
    let mut rep = Report::new("Fig 5.1 — Bandwidth: index-based vs PPS");
    rep.note(
        "Model of §5.3.1: index 500 kB, delta 200 B, metadata 500 B, query 500 B.\n\
         Cells are bandwidth ratios (index-based / PPS); >1 means PPS wins.\n\
         Paper: ~8x when updates are remote, ~2x when mostly local.",
    );
    let params = BandwidthParams::default();
    for &local in &[0.0, 0.5, 0.9] {
        let mut t = Table::new(["fu\\fq", "1", "10", "100", "1000"]);
        for &fu in &[1.0, 10.0, 100.0, 1000.0] {
            let mut row = vec![format!("{fu}")];
            for &fq in &[1.0, 10.0, 100.0, 1000.0] {
                row.push(fnum(params.ratio(fu, fq, local)));
            }
            t.row(row);
        }
        rep.table(format!("{:.0}% local updates", local * 100.0), t);
    }
    rep
}

/// Fig 5.4: producer/consumer traces for one query — disk-paced vs
/// in-memory — identifying the bottleneck thread.
pub fn fig5_4(scale: Scale) -> Report {
    let n = scale.pick(256_000, 32_000);
    let mut rep = Report::new("Fig 5.4 — Execution traces (1 matching thread)");
    let mut rng = det_rng(54);
    let records = fast_random_metadata(&mut rng, n);
    let bytes: u64 = records.iter().map(|r| r.size_bytes() as u64).sum();
    rep.note(format!(
        "{n} records, {:.0} MB scanned (paper scans 230 MB); disk = 66 MB/s \
         sequential (Dell 1950), memory = warm cache.\n\
         Paper: disk-bound ≈ 3.9 s (I/O thread is the bottleneck), warm \
         cache ≈ 1.4 s (matcher is the bottleneck).",
        bytes as f64 / 1e6
    ));
    let enc = cheap_encryptor();
    let gen = QueryGenerator::new();
    let q = &gen.compile_zero_match(&mut rng, &enc, 1)[0];
    let engine = Engine {
        threads: 1,
        profile: EngineProfile::none(),
        batch: 512,
        trace_every: n / 8,
    };

    let mut t = Table::new([
        "source",
        "wall_s",
        "io_finish_s",
        "match_rate_rec_per_s",
        "bottleneck",
    ]);
    for (name, disk) in [
        ("disk66MB", Some(DiskProfile::dell1950_disk())),
        ("memory", None),
    ] {
        let out = engine.run_query(&records, disk, q);
        let io_finish = out.produce_trace.last().map(|&(t, _)| t).unwrap_or(0.0);
        let bottleneck = if io_finish > out.wall_s * 0.9 {
            "I/O thread"
        } else {
            "matcher"
        };
        t.row([
            name.to_string(),
            fnum(out.wall_s),
            fnum(io_finish),
            fnum(out.processing_speed()),
            bottleneck.to_string(),
        ]);
    }
    rep.table("trace summary", t);
    rep
}

/// Fig 5.5: in-memory query delay vs number of matching threads.
pub fn fig5_5(scale: Scale) -> Report {
    let n = scale.pick(1_000_000, 100_000);
    let mut rep = Report::new("Fig 5.5 — Delay vs matching threads (in-memory)");
    rep.note(format!(
        "{n} records in memory. Paper: near-linear speedup to 4 threads \
         (400 ms at 4), plateau beyond (I/O thread becomes the bottleneck)."
    ));
    let mut rng = det_rng(55);
    let records = fast_random_metadata(&mut rng, n);
    let enc = cheap_encryptor();
    let q = &QueryGenerator::new().compile_zero_match(&mut rng, &enc, 1)[0];
    let mut t = Table::new(["threads", "delay_s", "speedup"]);
    let mut base = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let engine = Engine {
            threads,
            profile: EngineProfile::none(),
            batch: 1024,
            trace_every: n,
        };
        let out = engine.run_query(&records, None, q);
        if threads == 1 {
            base = out.wall_s;
        }
        t.row([
            threads.to_string(),
            fnum(out.wall_s),
            fnum(base / out.wall_s),
        ]);
    }
    rep.table("delay by threads", t);
    rep
}

fn scaling_report(
    title: &str,
    profile: EngineProfile,
    cpu_slow_factor: usize,
    scale: Scale,
) -> Report {
    let mut rep = Report::new(title);
    rep.note(
        "Sweep of collection size: disk-bound (66 MB/s) vs in-memory (4 threads).\n\
         Paper: delay linear in collection size once fixed costs amortise \
         (~100k records); throughput levels off by ~250k records.",
    );
    let sizes_mem: Vec<usize> = match scale {
        Scale::Full => vec![8_000, 32_000, 128_000, 512_000, 1_024_000],
        Scale::Quick => vec![8_000, 32_000, 64_000],
    };
    let sizes_disk: Vec<usize> = match scale {
        Scale::Full => vec![8_000, 32_000, 128_000, 256_000],
        Scale::Quick => vec![8_000, 16_000],
    };
    let mut rng = det_rng(56);
    let enc = cheap_encryptor();
    let q = &QueryGenerator::new().compile_zero_match(&mut rng, &enc, 1)[0];

    let mut t = Table::new(["records", "mode", "delay_s", "records_per_s"]);
    let max_n = *sizes_mem.iter().chain(&sizes_disk).max().unwrap();
    let all_records = fast_random_metadata(&mut rng, max_n);
    for (sizes, mode, disk, threads) in [
        (
            &sizes_disk,
            "disk",
            Some(DiskProfile::dell1950_disk()),
            1usize,
        ),
        (&sizes_mem, "memory", None, 4),
    ] {
        for &n in sizes.iter() {
            let engine = Engine {
                threads,
                profile,
                batch: 1024,
                trace_every: usize::MAX,
            };
            // a slower host (fig 5.7) is emulated by scanning the data
            // `cpu_slow_factor` times
            let mut wall = 0.0;
            let mut scanned = 0usize;
            for _ in 0..cpu_slow_factor {
                let out = engine.run_query(&all_records[..n], disk, q);
                wall += out.wall_s;
                scanned += out.scanned;
            }
            t.row([
                n.to_string(),
                mode.to_string(),
                fnum(wall),
                fnum(scanned as f64 / wall),
            ]);
        }
    }
    rep.table("scaling", t);
    rep
}

/// Fig 5.6: scaling on the fast host (Dell 1950 class), PPS_LM profile.
pub fn fig5_6(scale: Scale) -> Report {
    scaling_report(
        "Fig 5.6 — PPS scaling with collection size (Dell 1950)",
        EngineProfile::lm(),
        1,
        scale,
    )
}

/// Fig 5.7: scaling on the slow host (Sun X4100 class, ~2x slower CPU),
/// comparing the LM and LC fixed-cost profiles.
pub fn fig5_7(scale: Scale) -> Report {
    let mut rep = scaling_report(
        "Fig 5.7 — PPS scaling on a slower host (Sun X4100 class)",
        EngineProfile::lm(),
        2,
        scale,
    );
    // LM vs LC fixed-cost contrast at small collections
    let mut rng = det_rng(57);
    let n = scale.pick(50_000, 10_000);
    let records = fast_random_metadata(&mut rng, n);
    let enc = cheap_encryptor();
    let q = &QueryGenerator::new().compile_zero_match(&mut rng, &enc, 1)[0];
    let mut t = Table::new(["profile", "delay_s", "records_per_s"]);
    for (name, profile) in [
        ("PPS_LM", EngineProfile::lm()),
        ("PPS_LC", EngineProfile::lc()),
    ] {
        let engine = Engine {
            threads: 2,
            profile,
            batch: 1024,
            trace_every: usize::MAX,
        };
        let out = engine.run_query(&records, None, q);
        t.row([
            name.to_string(),
            fnum(out.wall_s),
            fnum(out.processing_speed()),
        ]);
    }
    rep.note(
        "LM pays a forced-GC pause per query; at small collections its \
         throughput drop-off is steeper (the paper's right-hand graph).",
    );
    rep.table(format!("LM vs LC fixed costs at {n} records"), t);
    rep
}

/// §5.7.1: dynamic predicate ordering makes "the xyz" as cheap as "xyz".
pub fn sec5_7_1(scale: Scale) -> Report {
    let n = scale.pick(200_000, 30_000);
    let mut rep = Report::new("§5.7.1 — Dynamic predicate ordering");
    rep.note(format!(
        "{n} records; query = wildcard-keyword AND selective-keyword.\n\
         Paper: with ordering, delay equals the selective-only query (1.25 s);\n\
         without (wildcard first), 8x more SHA-1 applications (10 s)."
    ));
    let mut rng = det_rng(571);
    // corpus where every record contains the wildcard word
    let enc = cheap_encryptor();
    let gen = roar_workload::CorpusGenerator::new();
    let mut files = Vec::new();
    for i in 0..n {
        let mut f = gen.file(&mut rng, i);
        f.keywords.insert(0, "the".into());
        f.keywords.truncate(4);
        files.push(f);
    }
    let records: Vec<_> = files.iter().map(|f| enc.encrypt(&mut rng, f)).collect();
    let q = QueryCompiler::new(&enc).compile(
        &[
            Predicate::Keyword("the".into()),
            Predicate::Keyword("xyz".into()),
        ],
        Combiner::And,
    );
    let counter = roar_pps::bloom_kw::PrfCounter::new();
    let mut t = Table::new(["ordering", "prf_calls", "prf_per_record"]);
    for (name, dynamic) in [("dynamic", true), ("user-order (wildcard first)", false)] {
        counter.reset();
        let mut m = Matcher::new(2, dynamic);
        for r in &records {
            let _ = m.matches(&q, r, &counter);
        }
        t.row([
            name.to_string(),
            counter.get().to_string(),
            fnum(counter.get() as f64 / n as f64),
        ]);
    }
    rep.table("PRF cost with and without ordering", t);
    rep
}
