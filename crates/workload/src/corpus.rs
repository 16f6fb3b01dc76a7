//! Synthetic file corpora.
//!
//! Two generators, two purposes:
//!
//! * [`CorpusGenerator`] — full-fidelity: plaintext [`FileMeta`] records
//!   with Zipf-popular keywords, log-normal sizes and realistic paths,
//!   encrypted through the real [`MetaEncryptor`]. Used by examples and
//!   correctness tests (thousands of records).
//! * [`fast_random_metadata`] — statistically-equivalent records for the
//!   million-record scaling experiments: a random half-populated Bloom
//!   filter is indistinguishable (to a non-matching trapdoor probe) from a
//!   real padded record, and the per-probe PRF cost is identical. The
//!   paper's scaling queries deliberately match zero records (§5.7 "we ran
//!   our tests using queries that did not match any metadata"), so miss-path
//!   behaviour is exactly what the experiments measure.

use rand::Rng;
use roar_crypto::bloom::{BloomFilter, BloomParams};
use roar_pps::bloom_kw::BloomMetadata;
use roar_pps::metadata::{EncryptedMetadata, FileMeta, MetaEncryptor};
use roar_util::sample::Zipf;

/// Keyword vocabulary size of the synthetic corpus.
pub const VOCABULARY: usize = 20_000;

/// Full-fidelity corpus generator.
pub struct CorpusGenerator {
    zipf: Zipf,
    dirs: Vec<&'static str>,
    exts: Vec<&'static str>,
}

impl Default for CorpusGenerator {
    fn default() -> Self {
        Self::new()
    }
}

impl CorpusGenerator {
    pub fn new() -> Self {
        CorpusGenerator {
            // web-search keyword popularity is Zipfian with s ≈ 1
            zipf: Zipf::new(VOCABULARY, 1.0),
            dirs: vec![
                "home", "docs", "papers", "photos", "src", "mail", "music", "backup",
            ],
            exts: vec!["txt", "pdf", "jpg", "rs", "tex", "mbox", "flac", "tar"],
        }
    }

    /// Keyword for vocabulary rank `k`.
    pub fn keyword(rank: usize) -> String {
        format!("kw{rank:05}")
    }

    /// One plaintext file record.
    pub fn file<R: Rng>(&self, rng: &mut R, idx: usize) -> FileMeta {
        let n_kw = rng.gen_range(3..12);
        let mut keywords: Vec<String> = (0..n_kw)
            .map(|_| Self::keyword(self.zipf.sample(rng)))
            .collect();
        keywords.dedup();
        let d1 = self.dirs[rng.gen_range(0..self.dirs.len())];
        let d2 = self.dirs[rng.gen_range(0..self.dirs.len())];
        let ext = self.exts[rng.gen_range(0..self.exts.len())];
        // log-normal-ish sizes: most files small, some huge
        let size = (10f64.powf(rng.gen_range(2.0..8.0))) as u64;
        FileMeta {
            path: format!("/{d1}/{d2}/file{idx}.{ext}"),
            keywords,
            size,
            mtime: rng.gen_range(1_000_000_000..1_700_000_000),
        }
    }

    /// Generate and encrypt `n` records.
    pub fn encrypted<R: Rng>(
        &self,
        rng: &mut R,
        enc: &MetaEncryptor,
        n: usize,
    ) -> Vec<EncryptedMetadata> {
        (0..n)
            .map(|i| {
                let f = self.file(rng, i);
                enc.encrypt(rng, &f)
            })
            .collect()
    }
}

/// Fast statistically-equivalent records for scaling experiments: random id,
/// random nonce, Bloom filter with just under half the bits set (the
/// padded-filter density). A fresh trapdoor probes such a filter exactly like
/// a real non-matching record: each bit is set with probability ~1/2 and the
/// probe short-circuits on the first clear bit.
pub fn fast_random_metadata<R: Rng>(rng: &mut R, n: usize) -> Vec<EncryptedMetadata> {
    // the paper's keyword-filter sizing: 300-word budget at 1e-5
    fast_random_metadata_with(rng, n, BloomParams::for_fp_rate(300, 1e-5))
}

/// [`fast_random_metadata`] with an explicit filter parameterisation —
/// e.g. the paper's bare 50-keyword documents at fp = 1e-5 (r = 17), the
/// configuration the §5.7 throughput numbers quote.
pub fn fast_random_metadata_with<R: Rng>(
    rng: &mut R,
    n: usize,
    params: BloomParams,
) -> Vec<EncryptedMetadata> {
    let words = params.bits.div_ceil(64);
    // mask for the partial trailing word so popcount stays meaningful
    let tail_bits = params.bits % 64;
    let tail_mask = if tail_bits == 0 {
        u64::MAX
    } else {
        (1u64 << tail_bits) - 1
    };
    (0..n)
        .map(|_| {
            // fill word-at-a-time: (a&b)|(c&d) sets each bit independently
            // with probability 7/16 ≈ 0.44, the padded-filter density
            let mut bytes = Vec::with_capacity(words * 8);
            for w in 0..words {
                let mut word =
                    (rng.gen::<u64>() & rng.gen::<u64>()) | (rng.gen::<u64>() & rng.gen::<u64>());
                if w == words - 1 {
                    word &= tail_mask;
                }
                bytes.extend_from_slice(&word.to_le_bytes());
            }
            let filter = BloomFilter::from_bytes(&bytes, params.bits).expect("word-exact buffer");
            EncryptedMetadata {
                id: rng.gen(),
                body: BloomMetadata {
                    nonce: rng.gen(),
                    filter,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use roar_pps::bloom_kw::PrfCounter;
    use roar_pps::metadata::Attr;
    use roar_util::det_rng;

    #[test]
    fn corpus_is_deterministic() {
        let g = CorpusGenerator::new();
        let mut r1 = det_rng(42);
        let mut r2 = det_rng(42);
        let a = g.file(&mut r1, 0);
        let b = g.file(&mut r2, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn popular_keywords_recur() {
        let g = CorpusGenerator::new();
        let mut rng = det_rng(43);
        let mut count_rank1 = 0;
        for i in 0..300 {
            if g.file(&mut rng, i)
                .keywords
                .contains(&CorpusGenerator::keyword(1))
            {
                count_rank1 += 1;
            }
        }
        assert!(
            count_rank1 > 20,
            "rank-1 keyword should be common: {count_rank1}"
        );
    }

    #[test]
    fn encrypted_corpus_searchable() {
        let g = CorpusGenerator::new();
        let enc = MetaEncryptor::new(b"u");
        let mut rng = det_rng(44);
        let files: Vec<FileMeta> = (0..50).map(|i| g.file(&mut rng, i)).collect();
        let records: Vec<EncryptedMetadata> =
            files.iter().map(|f| enc.encrypt(&mut rng, f)).collect();
        let c = PrfCounter::new();
        // every record matches its own first keyword
        for (f, r) in files.iter().zip(&records) {
            let td = enc.query_word(Attr::Keyword, &f.keywords[0]);
            assert!(MetaEncryptor::matches(r, &td, &c), "file {:?}", f.path);
        }
    }

    #[test]
    fn fast_records_behave_like_misses() {
        let mut rng = det_rng(45);
        let recs = fast_random_metadata(&mut rng, 300);
        let enc = MetaEncryptor::new(b"u");
        let td = enc.query_word(Attr::Keyword, "anything");
        let c = PrfCounter::new();
        let hits = recs
            .iter()
            .filter(|r| MetaEncryptor::matches(r, &td, &c))
            .count();
        assert!(
            hits <= 1,
            "random filters should essentially never match: {hits}"
        );
        // miss cost ≈ 1/(1−density) ≈ 1.8 probes
        let avg = c.get() as f64 / recs.len() as f64;
        assert!((1.2..3.0).contains(&avg), "avg probe cost {avg}");
    }

    #[test]
    fn fast_records_have_distinct_ids() {
        let mut rng = det_rng(46);
        let recs = fast_random_metadata(&mut rng, 500);
        let mut ids: Vec<u64> = recs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 500);
    }

    #[test]
    fn record_sizes_consistent() {
        let mut rng = det_rng(47);
        let fast = fast_random_metadata(&mut rng, 5);
        let g = CorpusGenerator::new();
        let enc = MetaEncryptor::new(b"u");
        let f = g.file(&mut rng, 0);
        let real = enc.encrypt(&mut rng, &f);
        // both use the 300-word filter budget → same wire size
        assert_eq!(fast[0].size_bytes(), real.size_bytes());
    }
}
