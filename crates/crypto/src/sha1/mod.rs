//! SHA-1 (FIPS 180-1), implemented from the specification — as a
//! lane-generic execution layer.
//!
//! The thesis uses SHA-1 "throughout our implementation as a pseudorandom
//! function" (§5.6) and its CPU cost model is calibrated in SHA-1
//! applications per metadata (§5.7: "typical SHA-1 implementations take 8
//! processor cycles per byte"). We therefore need a real SHA-1 whose per-byte
//! cost is what the PPS experiments measure, not a stub.
//!
//! # The `Sha1Lanes` boundary
//!
//! An engine advances `lanes()` independent message streams per call, all
//! lanes in a single instruction stream. The boundary the scan path
//! crosses is **a lane group of nonces in, `u64` MAC prefixes out**
//! ([`Sha1Lanes::mac_nonce_group`]): the only MAC shape PPS matching has is
//! HMAC of an 8-byte record nonce truncated to 64 bits, so each SIMD engine
//! owns one fused kernel for exactly that — key midstates arrive already
//! transposed ([`LaneStates`]), the nonces are loaded straight from the
//! caller's slice, both finishing blocks' padding is constant inside the
//! kernel, the inner digest is handed to the outer hash in registers, and
//! only the two chaining words of the prefix are stored.
//! [`Sha1Lanes::compress`] — one 64-byte block per lane folded into one
//! chaining value per lane — is the key-preparation path
//! ([`crate::hmac::HmacKey::prepare`]) and the reference: the provided
//! `mac_nonce_group` stages blocks through it, which is what the scalar
//! engine runs and what [`Staged`] pins any engine to for tests and
//! benches. Four engines implement the trait (mirroring the
//! transport-trait layering in `roar-cluster`):
//!
//! * [`scalar`] — 1 lane, the portable reference every other engine is
//!   pinned bit-identical to;
//! * [`sse2`] — 4 lanes in `__m128i` registers (x86-64 baseline, always
//!   available there);
//! * [`avx2`] — 8 lanes in `__m256i` registers (runtime-detected);
//! * [`avx512`] — 16 lanes in `__m512i` registers (runtime-detected,
//!   AVX-512F only — no BW/VL needed).
//!
//! The three SIMD engines share one round body (`rounds.rs`), generic over
//! the vector type; an engine file holds its register operations and how a
//! lane group is loaded and stored.
//!
//! Callers pick an engine through [`Backend`]: [`Backend::auto`] resolves
//! once per process to the widest CPU-supported engine, overridable with the
//! `ROAR_SHA1_BACKEND` environment variable (`scalar`, `sse2`, `avx2`,
//! `avx512`, `auto`) so CI can pin the portable path. The nonce sweep in
//! [`crate::hmac`] — and through it the PPS survivor sweep — is the
//! intended consumer: one trapdoor-component key (or, in the cross-query
//! batched path, a run of lanes per key), `lanes()` records' nonces per
//! call.
//!
//! Engines carry no state, so the trait objects are `'static` and free to
//! share across threads.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;
#[cfg(target_arch = "x86_64")]
mod rounds;
#[cfg(target_arch = "x86_64")]
pub mod sse2;

pub(crate) use scalar::compress_block;

/// Widest lane count any engine exposes ([`avx512`]'s 16). Stack scratch in
/// lane-generic callers is sized by this.
pub const MAX_LANES: usize = 16;

/// SHA-1's initial chaining value.
pub(crate) const IV: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// The chaining values of one lane group in the engines' own
/// structure-of-arrays layout: `rows[w][l]` is word `w` of lane `l`. An
/// engine reads the first `lanes()` entries of each row.
pub type LaneStates = [[u32; MAX_LANES]; 5];

/// A multi-lane SHA-1 engine.
///
/// Contract (pinned by the `sha1_lanes_props` test suite):
/// * `compress` requires `states.len() == blocks.len() == lanes()`;
/// * lane `l` of either entry's output depends only on lane `l` of its
///   input, and equals exactly what the scalar reference produces for that
///   lane.
pub trait Sha1Lanes: Send + Sync {
    /// How many independent message streams one call advances.
    fn lanes(&self) -> usize;
    /// Engine name, as accepted by [`Backend::from_name`].
    fn name(&self) -> &'static str;
    /// Fold `blocks[l]` into `states[l]` for every lane `l`.
    fn compress(&self, states: &mut [[u32; 5]], blocks: &[[u8; 64]]);

    /// One lane group of the nonce sweep: for every lane `l < lanes()`,
    /// `out[l]` becomes the `u64` prefix of HMAC-SHA1 of `nonces[l]` under
    /// the key whose inner and outer midstates are lane `l` of `inner` and
    /// `outer`. Nonces and outputs past `lanes()` are not touched.
    ///
    /// Callers hand over whole groups only (`nonces.len() >= lanes()`,
    /// `out.len() >= lanes()`): a ragged tail is the caller's to pad.
    ///
    /// The provided body stages the two finishing blocks per lane and runs
    /// them through [`compress`](Self::compress); the SIMD engines override
    /// it with a kernel that keeps all of that in registers.
    fn mac_nonce_group(
        &self,
        inner: &LaneStates,
        outer: &LaneStates,
        nonces: &[[u8; 8]],
        out: &mut [u64],
    ) {
        let lanes = self.lanes();
        debug_assert!(
            nonces.len() >= lanes && out.len() >= lanes,
            "a lane group is {lanes} nonces: got {} / {} outputs",
            nonces.len(),
            out.len()
        );
        let mut blocks = [[0u8; 64]; MAX_LANES];
        let mut states = [[0u32; 5]; MAX_LANES];
        // inner: nonce ‖ 0x80 ‖ zeros ‖ bitlen(64 + 8), after the ipad block
        for lane in 0..lanes {
            blocks[lane][..8].copy_from_slice(&nonces[lane]);
            blocks[lane][8] = 0x80;
            blocks[lane][56..].copy_from_slice(&(((64 + 8) * 8) as u64).to_be_bytes());
            states[lane] = inner.map(|row| row[lane]);
        }
        self.compress(&mut states[..lanes], &blocks[..lanes]);
        // outer: inner digest ‖ 0x80 ‖ zeros ‖ bitlen(64 + 20), after opad
        for lane in 0..lanes {
            for (w, word) in states[lane].iter().enumerate() {
                blocks[lane][w * 4..w * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            blocks[lane][20] = 0x80;
            blocks[lane][56..].copy_from_slice(&(((64 + 20) * 8) as u64).to_be_bytes());
            states[lane] = outer.map(|row| row[lane]);
        }
        self.compress(&mut states[..lanes], &blocks[..lanes]);
        for (slot, state) in out.iter_mut().zip(&states[..lanes]) {
            *slot = ((state[0] as u64) << 32) | state[1] as u64;
        }
    }
}

/// An engine held to the provided, [`compress`](Sha1Lanes::compress)-staged
/// [`mac_nonce_group`](Sha1Lanes::mac_nonce_group): what the fused kernels
/// are tested bit-identical to and benchmarked against.
pub struct Staged(pub &'static dyn Sha1Lanes);

impl Sha1Lanes for Staged {
    fn lanes(&self) -> usize {
        self.0.lanes()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn compress(&self, states: &mut [[u32; 5]], blocks: &[[u8; 64]]) {
        self.0.compress(states, blocks);
    }
}

/// Selector for a [`Sha1Lanes`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable 1-lane reference.
    Scalar,
    /// 4 lanes, SSE2 (`__m128i`).
    Sse2,
    /// 8 lanes, AVX2 (`__m256i`).
    Avx2,
    /// 16 lanes, AVX-512F (`__m512i`).
    Avx512,
}

impl Backend {
    /// All backends, narrowest first.
    pub const ALL: [Backend; 4] = [
        Backend::Scalar,
        Backend::Sse2,
        Backend::Avx2,
        Backend::Avx512,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Parse a backend name (`scalar` / `sse2` / `avx2` / `avx512`). `auto`
    /// and unknown names return `None` — callers decide whether that means
    /// auto-detection or an error.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "scalar" => Some(Backend::Scalar),
            "sse2" => Some(Backend::Sse2),
            "avx2" => Some(Backend::Avx2),
            "avx512" => Some(Backend::Avx512),
            _ => None,
        }
    }

    /// Is this backend runnable on the current CPU?
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true, // architectural baseline on x86-64
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest available backend on this CPU.
    pub fn detect() -> Backend {
        *Backend::ALL
            .iter()
            .rfind(|b| b.available())
            .expect("scalar is always available")
    }

    /// The process-wide default: the `ROAR_SHA1_BACKEND` environment
    /// variable if set to an available backend (so CI can force the scalar
    /// or SSE2 path), otherwise [`Backend::detect`]. Resolved once and
    /// cached; an unavailable or unknown forced name falls back to
    /// detection with a warning rather than crashing the host process.
    pub fn auto() -> Backend {
        static AUTO: std::sync::OnceLock<Backend> = std::sync::OnceLock::new();
        *AUTO.get_or_init(|| match std::env::var("ROAR_SHA1_BACKEND") {
            Ok(name) if name == "auto" || name.is_empty() => Backend::detect(),
            Ok(name) => match Backend::from_name(&name) {
                Some(b) if b.available() => b,
                Some(b) => {
                    eprintln!(
                        "ROAR_SHA1_BACKEND={} not available on this CPU; using {}",
                        b.name(),
                        Backend::detect().name()
                    );
                    Backend::detect()
                }
                None => {
                    eprintln!(
                        "ROAR_SHA1_BACKEND={name:?} not recognised \
                         (scalar|sse2|avx2|avx512|auto); using {}",
                        Backend::detect().name()
                    );
                    Backend::detect()
                }
            },
            Err(_) => Backend::detect(),
        })
    }

    /// The engine itself. Panics if the backend is not
    /// [`available`](Self::available) — select with [`Backend::auto`] or
    /// check availability first.
    pub fn engine(self) -> &'static dyn Sha1Lanes {
        assert!(
            self.available(),
            "SHA-1 backend {} is not available on this CPU",
            self.name()
        );
        match self {
            Backend::Scalar => &scalar::ScalarLanes,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => &sse2::Sse2Lanes,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => &avx2::Avx2Lanes,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => &avx512::Avx512Lanes,
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("non-scalar backends are x86-64 only"),
        }
    }
}

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    pub fn new() -> Self {
        Sha1 {
            state: IV,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Resume hashing from a saved midstate.
    ///
    /// `state` must be the chaining value captured by [`Sha1::midstate`]
    /// after an exact multiple of 64 absorbed bytes, and `len` that byte
    /// count. This is the primitive behind HMAC midstate caching
    /// ([`crate::hmac::HmacKey`]): the fixed 64-byte ipad/opad prefix blocks
    /// are compressed once per key instead of once per MAC.
    ///
    /// # Panics
    /// Panics when `len` is not a multiple of 64 — in release builds too: a
    /// misaligned resume would shift every subsequent block boundary and
    /// silently corrupt every MAC derived from it.
    pub fn from_midstate(state: [u32; 5], len: u64) -> Self {
        assert!(
            len.is_multiple_of(64),
            "SHA-1 midstate resume at byte {len}: midstates exist only on \
             64-byte block boundaries"
        );
        Sha1 {
            state,
            len,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// The current chaining value.
    ///
    /// # Panics
    /// Panics when bytes are buffered (`len() % 64 != 0`) — in release
    /// builds too: a mid-block chaining value is not a resumable midstate,
    /// and resuming from one would corrupt every MAC derived from it.
    pub fn midstate(&self) -> [u32; 5] {
        assert!(
            self.buf_len == 0,
            "SHA-1 midstate taken mid-block ({} buffered bytes): midstates \
             exist only on 64-byte block boundaries",
            self.buf_len
        );
        self.state
    }

    /// Total bytes absorbed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        // padding: 0x80 then zeros until 56 mod 64, then 8-byte big-endian
        // length — written straight into the block buffer instead of
        // dribbling padding bytes through `update` one at a time
        let n = self.buf_len; // < 64 by the update invariant
        self.buf[n] = 0x80;
        if n + 1 > 56 {
            // no room for the length in this block: flush it, pad a second
            self.buf[n + 1..].fill(0);
            let block = self.buf;
            self.compress(&block);
            self.buf[..56].fill(0);
        } else {
            self.buf[n + 1..56].fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_block(&mut self.state, block);
    }
}

/// One-shot convenience digest.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-1 / RFC 3174 test vectors
    #[test]
    fn vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn vector_empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn vector_448_bits() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn vector_quick_brown_fox() {
        assert_eq!(
            hex(&sha1(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha1(&data), "split at {split}");
        }
    }

    #[test]
    fn many_small_updates() {
        let data = b"hello world, this crosses block boundaries when repeated enough times!";
        let mut h = Sha1::new();
        let mut all = Vec::new();
        for _ in 0..10 {
            h.update(data);
            all.extend_from_slice(data);
        }
        assert_eq!(h.finalize(), sha1(&all));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha1(b"a"), sha1(b"b"));
        assert_ne!(sha1(b""), sha1(b"\0"));
    }

    #[test]
    fn midstate_resume_matches_oneshot() {
        // absorb k whole blocks, snapshot, resume in a fresh hasher
        let data: Vec<u8> = (0..=255u8).cycle().take(64 * 3 + 37).collect();
        for blocks in [1usize, 2, 3] {
            let split = blocks * 64;
            let mut h = Sha1::new();
            h.update(&data[..split]);
            let mid = h.midstate();
            let mut resumed = Sha1::from_midstate(mid, split as u64);
            resumed.update(&data[split..]);
            assert_eq!(
                resumed.finalize(),
                sha1(&data),
                "resume after {blocks} blocks"
            );
        }
    }

    #[test]
    fn padding_boundary_sweep_incremental_equals_oneshot() {
        // every length around both padding branches (one-block vs two-block
        // finalization), with the message split mid-stream: the direct
        // buffer-fill padding must be bit-identical to the spec for all of
        // them (the RFC vector tests above pin the absolute values)
        let data: Vec<u8> = (0..=255u8).cycle().take(200).collect();
        for len in (0..=72).chain(110..=132) {
            let msg = &data[..len];
            let one = sha1(msg);
            let mut h = Sha1::new();
            h.update(&msg[..len / 2]);
            h.update(&msg[len / 2..]);
            assert_eq!(h.finalize(), one, "len {len}");
        }
    }

    #[test]
    fn midstate_of_fresh_hasher_is_iv() {
        let h = Sha1::new();
        assert_eq!(
            h.midstate(),
            [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
        );
        assert_eq!(h.len(), 0);
        assert!(h.is_empty());
    }

    // ---- midstate alignment guards (release builds included) ---------------

    #[test]
    fn misaligned_resume_panics() {
        let err = std::panic::catch_unwind(|| {
            let _ = Sha1::from_midstate([0u32; 5], 63);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("block boundaries"), "{msg}");
    }

    #[test]
    fn mid_block_midstate_panics() {
        let mut h = Sha1::new();
        h.update(b"seven b");
        assert!(std::panic::catch_unwind(move || h.midstate()).is_err());
    }

    // ---- backend selection --------------------------------------------------

    #[test]
    fn backend_names_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("auto"), None);
        assert_eq!(Backend::from_name("neon"), None);
    }

    #[test]
    fn detect_returns_available_engine_with_declared_lanes() {
        let b = Backend::detect();
        assert!(b.available());
        let engine = b.engine();
        assert!(engine.lanes() >= 1 && engine.lanes() <= MAX_LANES);
        assert_eq!(engine.name(), b.name());
    }

    #[test]
    fn scalar_engine_matches_compress_block() {
        let engine = Backend::Scalar.engine();
        assert_eq!(engine.lanes(), 1);
        let block = [0x5au8; 64];
        let mut want = [
            0x12345678u32,
            0x9abcdef0,
            0x0fedcba9,
            0x87654321,
            0x13579bdf,
        ];
        let mut got = [want];
        compress_block(&mut want, &block);
        engine.compress(&mut got, &[block]);
        assert_eq!(got[0], want);
    }

    /// Every available engine must agree with the scalar reference on every
    /// lane — the core bit-identity contract (the dedicated property suite
    /// widens this across lengths and batches).
    #[test]
    fn all_available_engines_match_scalar_per_lane() {
        for b in Backend::ALL.into_iter().filter(|b| b.available()) {
            let engine = b.engine();
            let l = engine.lanes();
            let mut states: Vec<[u32; 5]> = (0..l)
                .map(|i| {
                    core::array::from_fn(|w| {
                        (0x9e3779b9u32)
                            .wrapping_mul(i as u32 + 1)
                            .wrapping_add(w as u32)
                    })
                })
                .collect();
            let blocks: Vec<[u8; 64]> = (0..l)
                .map(|i| core::array::from_fn(|j| (i * 64 + j) as u8))
                .collect();
            let mut want = states.clone();
            for (s, blk) in want.iter_mut().zip(&blocks) {
                compress_block(s, blk);
            }
            engine.compress(&mut states, &blocks);
            assert_eq!(states, want, "backend {}", b.name());
        }
    }
}
