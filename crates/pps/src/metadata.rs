//! File metadata encoding (§5.6.4).
//!
//! "The better solution is to embed all attributes into a single visible
//! metadata … We use the same keyword matching algorithm for all attributes,
//! and create a dictionary that is a superset of all the per-attribute
//! dictionaries" — keywords become `kw=…`, path components `path=…`, sizes
//! and dates become the inequality-scheme words with `size`/`date` labels.
//! The server sees one Bloom filter per file and cannot tell which attribute
//! a query touches.

use crate::bloom_kw::{BloomKeywordScheme, BloomMetadata, PrfCounter, Trapdoor};
use crate::numeric::{coarse_reference_points, exponential_reference_points, nearest_point, Cmp};
use rand::Rng;

/// Plaintext description of one file, as the user's indexer produces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// File name (searchable; each path component becomes a word).
    pub path: String,
    /// Most important content keywords, most important first (paper: ≤ 50).
    pub keywords: Vec<String>,
    /// File size in bytes.
    pub size: u64,
    /// Modification date (seconds since epoch).
    pub mtime: u64,
}

/// The encrypted, server-visible record: a random id (which doubles as the
/// object's ROAR ring position) plus the blinded keyword filter.
#[derive(Debug, PartialEq, Eq)]
pub struct EncryptedMetadata {
    /// "The user provides a random identifier for each metadata" (§5.6.1).
    pub id: u64,
    pub body: BloomMetadata,
}

/// Process-wide count of [`EncryptedMetadata`] deep clones — the copies
/// zero-copy query execution is supposed to eliminate. Tests snapshot it
/// around a sub-query to assert the hot path copied nothing.
static RECORD_CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total record deep clones since process start.
pub fn record_clone_count() -> u64 {
    // ORDERING: Relaxed — instrumentation counter read; tests snapshot it
    // around single-threaded sections, nothing is synchronised through it
    RECORD_CLONES.load(std::sync::atomic::Ordering::Relaxed)
}

impl Clone for EncryptedMetadata {
    fn clone(&self) -> Self {
        // ORDERING: Relaxed — instrumentation counter bump; count matters,
        // ordering does not
        RECORD_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        EncryptedMetadata {
            id: self.id,
            body: self.body.clone(),
        }
    }
}

impl EncryptedMetadata {
    /// Wire size in bytes (id + nonce + filter) — the paper budgets ~500 B
    /// per metadata.
    pub fn size_bytes(&self) -> usize {
        8 + self.body.size_bytes()
    }
}

/// Which attribute a query predicate addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attr {
    Keyword,
    Path,
    Size,
    Mtime,
}

impl Attr {
    fn prefix(&self) -> &'static str {
        match self {
            Attr::Keyword => "kw",
            Attr::Path => "path",
            Attr::Size => "size",
            Attr::Mtime => "date",
        }
    }
}

/// The user-side encryptor: stacks every attribute into one keyword space.
pub struct MetaEncryptor {
    kw: BloomKeywordScheme,
    size_points: Vec<u64>,
    date_points: Vec<u64>,
}

/// Maximum searchable words per file: 50 content keywords + path depth
/// (paper: ≤ 22) + 2 numeric attributes × ~100 reference points.
const MAX_WORDS: usize = 300;

impl MetaEncryptor {
    /// Default encryptor: 1-2-5 reference grids (fast encryption, precision
    /// proportional to magnitude).
    pub fn new(key: &[u8]) -> Self {
        Self::with_points(
            key,
            coarse_reference_points(1 << 40),       // sizes ≤ 1 TiB
            coarse_reference_points(4_000_000_000), // epoch seconds
        )
    }

    /// Paper-fidelity encryptor: the §5.5.3 nine-points-per-decade grids
    /// (~100 points per attribute). Encryption is ~3× slower.
    pub fn paper_grid(key: &[u8]) -> Self {
        Self::with_points(
            key,
            exponential_reference_points(1 << 40),
            exponential_reference_points(4_000_000_000),
        )
    }

    /// Custom reference grids.
    pub fn with_points(key: &[u8], size_points: Vec<u64>, date_points: Vec<u64>) -> Self {
        assert!(!size_points.is_empty() && !date_points.is_empty());
        MetaEncryptor {
            kw: BloomKeywordScheme::new(key, MAX_WORDS, 1e-5),
            size_points,
            date_points,
        }
    }

    /// All searchable words of a file (§5.6.4's stacked encoding).
    pub fn words_of(&self, meta: &FileMeta) -> Vec<String> {
        let mut words = Vec::new();
        for kw in meta.keywords.iter().take(50) {
            words.push(format!("kw={}", kw.to_lowercase()));
        }
        for comp in meta.path.split('/').filter(|c| !c.is_empty()) {
            words.push(format!("path={}", comp.to_lowercase()));
        }
        for &p in &self.size_points {
            let cmp = if meta.size > p { '>' } else { '<' };
            words.push(format!("size{cmp}{p}"));
        }
        for &p in &self.date_points {
            let cmp = if meta.mtime > p { '>' } else { '<' };
            words.push(format!("date{cmp}{p}"));
        }
        words
    }

    /// Encrypt one file's metadata under a fresh random id.
    pub fn encrypt<R: Rng>(&self, rng: &mut R, meta: &FileMeta) -> EncryptedMetadata {
        let words = self.words_of(meta);
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        EncryptedMetadata {
            id: rng.gen(),
            body: self.kw.encrypt_metadata(rng, &refs),
        }
    }

    /// Keyword / path-component trapdoor.
    pub fn query_word(&self, attr: Attr, word: &str) -> Trapdoor {
        debug_assert!(matches!(attr, Attr::Keyword | Attr::Path));
        self.kw
            .trapdoor(&format!("{}={}", attr.prefix(), word.to_lowercase()))
    }

    /// Numeric inequality trapdoor; value approximated to the nearest
    /// reference point (returned for error reporting).
    pub fn query_numeric(&self, attr: Attr, cmp: Cmp, value: u64) -> (Trapdoor, u64) {
        let points = match attr {
            Attr::Size => &self.size_points,
            Attr::Mtime => &self.date_points,
            _ => panic!("numeric query on non-numeric attribute"),
        };
        let p = nearest_point(points, value);
        let c = match cmp {
            Cmp::Greater => '>',
            Cmp::Less => '<',
        };
        (self.kw.trapdoor(&format!("{}{}{}", attr.prefix(), c, p)), p)
    }

    /// Server-side match of one trapdoor against one record.
    pub fn matches(meta: &EncryptedMetadata, td: &Trapdoor, counter: &PrfCounter) -> bool {
        BloomKeywordScheme::matches(&meta.body, td, counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roar_util::det_rng;

    fn file() -> FileMeta {
        FileMeta {
            path: "/home/costin/papers/roar-sigcomm.pdf".into(),
            keywords: vec!["rendezvous".into(), "ring".into(), "search".into()],
            size: 2_400_000,
            mtime: 1_234_567_890,
        }
    }

    #[test]
    fn keyword_query_matches() {
        let enc = MetaEncryptor::new(b"user-key");
        let mut rng = det_rng(151);
        let m = enc.encrypt(&mut rng, &file());
        let c = PrfCounter::new();
        assert!(MetaEncryptor::matches(
            &m,
            &enc.query_word(Attr::Keyword, "ring"),
            &c
        ));
        assert!(MetaEncryptor::matches(
            &m,
            &enc.query_word(Attr::Keyword, "RING"),
            &c
        ));
        assert!(!MetaEncryptor::matches(
            &m,
            &enc.query_word(Attr::Keyword, "database"),
            &c
        ));
    }

    #[test]
    fn path_components_searchable() {
        let enc = MetaEncryptor::new(b"user-key");
        let mut rng = det_rng(152);
        let m = enc.encrypt(&mut rng, &file());
        let c = PrfCounter::new();
        assert!(MetaEncryptor::matches(
            &m,
            &enc.query_word(Attr::Path, "papers"),
            &c
        ));
        assert!(MetaEncryptor::matches(
            &m,
            &enc.query_word(Attr::Path, "roar-sigcomm.pdf"),
            &c
        ));
        assert!(!MetaEncryptor::matches(
            &m,
            &enc.query_word(Attr::Path, "photos"),
            &c
        ));
    }

    #[test]
    fn size_inequality_works() {
        let enc = MetaEncryptor::new(b"user-key");
        let mut rng = det_rng(153);
        let m = enc.encrypt(&mut rng, &file()); // 2.4 MB
        let c = PrfCounter::new();
        let (gt1m, _) = enc.query_numeric(Attr::Size, Cmp::Greater, 1_000_000);
        let (gt1g, _) = enc.query_numeric(Attr::Size, Cmp::Greater, 1_000_000_000);
        let (lt1g, _) = enc.query_numeric(Attr::Size, Cmp::Less, 1_000_000_000);
        assert!(MetaEncryptor::matches(&m, &gt1m, &c));
        assert!(!MetaEncryptor::matches(&m, &gt1g, &c));
        assert!(MetaEncryptor::matches(&m, &lt1g, &c));
    }

    #[test]
    fn date_inequality_works() {
        let enc = MetaEncryptor::new(b"user-key");
        let mut rng = det_rng(154);
        let m = enc.encrypt(&mut rng, &file());
        let c = PrfCounter::new();
        let (newer, _) = enc.query_numeric(Attr::Mtime, Cmp::Greater, 1_000_000_000);
        assert!(MetaEncryptor::matches(&m, &newer, &c));
    }

    #[test]
    fn ids_are_random_and_distinct() {
        let enc = MetaEncryptor::new(b"user-key");
        let mut rng = det_rng(155);
        let ids: Vec<u64> = (0..100)
            .map(|_| enc.encrypt(&mut rng, &file()).id)
            .collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100);
    }

    #[test]
    fn record_size_in_paper_ballpark() {
        let enc = MetaEncryptor::new(b"user-key");
        let mut rng = det_rng(156);
        let m = enc.encrypt(&mut rng, &file());
        // paper budgets ~500 B/record; our 300-word filter at 1e-5 is ~900 B
        // (we index every reference point)
        assert!(
            m.size_bytes() > 300 && m.size_bytes() < 1500,
            "{} bytes",
            m.size_bytes()
        );
    }

    #[test]
    fn different_users_cannot_cross_query() {
        let enc1 = MetaEncryptor::new(b"alice");
        let enc2 = MetaEncryptor::new(b"bob");
        let mut rng = det_rng(157);
        let m = enc1.encrypt(&mut rng, &file());
        let c = PrfCounter::new();
        assert!(!MetaEncryptor::matches(
            &m,
            &enc2.query_word(Attr::Keyword, "ring"),
            &c
        ));
    }
}
