//! Wire protocol: the tagged binary codec, and its TCP framing.
//!
//! [`Msg`] is a hand-rolled tagged binary encoding (see the `wire`
//! helpers) rather
//! than JSON: the metadata-bearing messages (`Store`, `StoreForward`) move
//! hundreds of ~1 kB encrypted records per call, and a byte-exact codec
//! keeps that path allocation-light and several times cheaper to
//! encode/decode than text. The same encoding is the payload of **both**
//! transports behind [`crate::transport`]:
//!
//! * over TCP, each message travels as `[u32 BE length][payload]`
//!   ([`put_frame`] into a connection's buffer, [`FrameReader`] out of
//!   one; [`write_frame`]/[`read_frame`] are the unbuffered forms); the
//!   payload starts with a correlation id ([`Frame`]) so requests and
//!   responses multiplex freely over one persistent connection per node
//!   (the front-end keeps a pending-response map, §4.8's
//!   outstanding-query table);
//! * over UDP, the encoded bytes are split into numbered datagram
//!   fragments and reassembled by [`crate::transport::datagram`] (correlation
//!   and retransmission live in that module's datagram header instead).

use tokio::io::{AsyncReadExt, AsyncWriteExt};

/// Maximum accepted frame size (64 MiB) — guards against corrupt length
/// prefixes taking the process down.
pub const MAX_FRAME: usize = 64 << 20;

/// Minimal byte-level codec helpers shared by every message type.
mod wire {
    /// Sequential reader over a received payload.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        pub fn done(&self) -> bool {
            self.pos == self.buf.len()
        }

        fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            let end = self.pos.checked_add(n)?;
            if end > self.buf.len() {
                return None;
            }
            let s = &self.buf[self.pos..end];
            self.pos = end;
            Some(s)
        }

        pub fn u8(&mut self) -> Option<u8> {
            Some(self.take(1)?[0])
        }

        pub fn u32(&mut self) -> Option<u32> {
            Some(u32::from_be_bytes(
                self.take(4)?.try_into().expect("4 bytes"),
            ))
        }

        pub fn u64(&mut self) -> Option<u64> {
            Some(u64::from_be_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            ))
        }

        pub fn f64(&mut self) -> Option<f64> {
            Some(f64::from_bits(self.u64()?))
        }

        pub fn bool(&mut self) -> Option<bool> {
            match self.u8()? {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            }
        }

        /// Length-prefixed byte string of exactly `N` bytes, decoded in
        /// place: a length other than `N` is malformed.
        pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
            if self.u32()? as usize != N {
                return None;
            }
            Some(self.take(N)?.try_into().expect("N bytes"))
        }

        /// Length-prefixed byte string.
        pub fn bytes(&mut self) -> Option<Vec<u8>> {
            let n = self.u32()? as usize;
            Some(self.take(n)?.to_vec())
        }

        pub fn string(&mut self) -> Option<String> {
            String::from_utf8(self.bytes()?).ok()
        }

        pub fn u64_vec(&mut self) -> Option<Vec<u64>> {
            let n = self.u32()? as usize;
            // cap pre-allocation by what the buffer can actually hold
            let mut out = Vec::with_capacity(n.min(self.buf.len() / 8 + 1));
            for _ in 0..n {
                out.push(self.u64()?);
            }
            Some(out)
        }
    }

    pub fn put_u8(out: &mut Vec<u8>, v: u8) {
        out.push(v);
    }

    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_f64(out: &mut Vec<u8>, v: f64) {
        put_u64(out, v.to_bits());
    }

    pub fn put_bool(out: &mut Vec<u8>, v: bool) {
        out.push(v as u8);
    }

    pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
        put_u32(out, v.len() as u32);
        out.extend_from_slice(v);
    }

    pub fn put_str(out: &mut Vec<u8>, v: &str) {
        put_bytes(out, v.as_bytes());
    }

    pub fn put_u64_vec(out: &mut Vec<u8>, v: &[u64]) {
        put_u32(out, v.len() as u32);
        for &x in v {
            put_u64(out, x);
        }
    }
}

use roar_crypto::sha1::Backend;
use wire::Reader;

/// Wire tag of the reserved `SubQuery::backend` field (0 = none).
fn put_backend(out: &mut Vec<u8>, b: &Option<Backend>) {
    wire::put_u8(
        out,
        match b {
            None => 0,
            Some(Backend::Scalar) => 1,
            Some(Backend::Sse2) => 2,
            Some(Backend::Avx2) => 3,
            Some(Backend::Avx512) => 4,
        },
    );
}

fn get_backend(r: &mut Reader<'_>) -> Option<Option<Backend>> {
    match r.u8()? {
        0 => Some(None),
        1 => Some(Some(Backend::Scalar)),
        2 => Some(Some(Backend::Sse2)),
        3 => Some(Some(Backend::Avx2)),
        4 => Some(Some(Backend::Avx512)),
        _ => None,
    }
}

/// One keyword trapdoor on the wire (the r PRF images). Each part travels
/// as a length-prefixed byte string whose length must be 20: any other
/// length fails [`Msg::decode`], like any other malformed field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTrapdoor {
    pub parts: Vec<[u8; 20]>,
}

impl WireTrapdoor {
    pub fn from_trapdoor(td: &roar_pps::bloom_kw::Trapdoor) -> Self {
        WireTrapdoor {
            parts: td.parts.clone(),
        }
    }

    /// The matcher's trapdoor: the decoded parts move over, uncopied.
    pub fn into_trapdoor(self) -> roar_pps::bloom_kw::Trapdoor {
        roar_pps::bloom_kw::Trapdoor { parts: self.parts }
    }

    fn put(&self, out: &mut Vec<u8>) {
        wire::put_u32(out, self.parts.len() as u32);
        for p in &self.parts {
            wire::put_bytes(out, p);
        }
    }

    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.u32()? as usize;
        let mut parts = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            parts.push(r.array()?);
        }
        Some(WireTrapdoor { parts })
    }
}

/// What a sub-query asks the node to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    /// Real PPS matching: AND/OR over trapdoors.
    Pps {
        trapdoors: Vec<WireTrapdoor>,
        conjunctive: bool,
    },
    /// Synthetic work: scan the window at the node's configured speed
    /// (Definition 8's computation model).
    Synthetic,
}

impl QueryBody {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            QueryBody::Pps {
                trapdoors,
                conjunctive,
            } => {
                wire::put_u8(out, 0);
                wire::put_u32(out, trapdoors.len() as u32);
                for td in trapdoors {
                    td.put(out);
                }
                wire::put_bool(out, *conjunctive);
            }
            QueryBody::Synthetic => wire::put_u8(out, 1),
        }
    }

    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => {
                let n = r.u32()? as usize;
                let mut trapdoors = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    trapdoors.push(WireTrapdoor::get(r)?);
                }
                let conjunctive = r.bool()?;
                Some(QueryBody::Pps {
                    trapdoors,
                    conjunctive,
                })
            }
            1 => Some(QueryBody::Synthetic),
            _ => None,
        }
    }
}

/// One encrypted record on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRecord {
    pub id: u64,
    pub nonce: u64,
    pub filter: Vec<u8>,
    pub filter_bits: u32,
}

impl WireRecord {
    pub fn from_record(r: &roar_pps::EncryptedMetadata) -> Self {
        WireRecord {
            id: r.id,
            nonce: r.body.nonce,
            filter: r.body.filter.to_bytes(),
            filter_bits: r.body.filter.n_bits() as u32,
        }
    }

    /// Decode a `Store` batch straight into a columnar run — what a node
    /// keeps; no row or boxed filter is built on the way. `None` when any
    /// record's filter is malformed (zero bits, or a byte length that does
    /// not match its bit count). The last of equal ids wins.
    pub fn to_run(records: &[WireRecord]) -> Option<roar_pps::store::Run> {
        // ascending pushes let the builder use the slab as it lies (the
        // sort is stable, so "last wins" survives it)
        let mut order: Vec<&WireRecord> = records.iter().collect();
        order.sort_by_key(|r| r.id);
        let filter_bytes = records.iter().map(|r| r.filter.len()).sum();
        let mut run = roar_pps::store::RunBuilder::with_capacity(records.len(), filter_bytes);
        for r in order {
            if !run.push_bytes(r.id, r.nonce, &r.filter, r.filter_bits) {
                return None;
            }
        }
        Some(run.finish())
    }

    fn put(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.id);
        wire::put_u64(out, self.nonce);
        wire::put_bytes(out, &self.filter);
        wire::put_u32(out, self.filter_bits);
    }

    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(WireRecord {
            id: r.u64()?,
            nonce: r.u64()?,
            filter: r.bytes()?,
            filter_bits: r.u32()?,
        })
    }
}

fn put_records(out: &mut Vec<u8>, records: &[WireRecord]) {
    wire::put_u32(out, records.len() as u32);
    for rec in records {
        rec.put(out);
    }
}

fn get_records(r: &mut Reader<'_>) -> Option<Vec<WireRecord>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(WireRecord::get(r)?);
    }
    Some(out)
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Front-end → node: execute a sub-query over `(window_start,
    /// window_end]` (equal values = full ring). `backend` is reserved:
    /// still encoded and validated (an unknown tag fails decode) because
    /// the frozen benchmark builds it, but a node ignores its value and
    /// sweeps with `Backend::auto()`; benchmark revision 2 removes it.
    SubQuery {
        query_id: u64,
        window_start: u64,
        window_end: u64,
        body: QueryBody,
        backend: Option<roar_crypto::sha1::Backend>,
    },
    /// Node → front-end: results. `proc_s` is node-local processing time —
    /// the speed observation the EWMA estimator feeds on.
    SubQueryResult {
        query_id: u64,
        matches: Vec<u64>,
        scanned: u64,
        proc_s: f64,
    },
    /// Store replicas (update stream / join download).
    Store {
        records: Vec<WireRecord>,
        synthetic_ids: Vec<u64>,
    },
    /// §4.1 option 1: store at the first replica and forward along the ring
    /// ("push the data item to the first server, and then forward it from
    /// server to server"). `hops` counts remaining forwards; the §4.9.2
    /// point is that with rack-contiguous ring order these hops stay
    /// intra-rack.
    StoreForward {
        records: Vec<WireRecord>,
        synthetic_ids: Vec<u64>,
        hops: u32,
    },
    /// Control: the node's ring successor, enabling peer-to-peer forwarding.
    SetSuccessor {
        addr: String,
    },
    /// Control: node's assigned coverage window `(start − L, end − 1]`;
    /// the node drops records outside it (§4.3/§4.5).
    SetCoverage {
        start: u64,
        end: u64,
    },
    /// Control: how many records the node currently holds.
    CountRequest,
    Count {
        records: u64,
    },
    /// Control: what coverage window does the node hold? (§4.8.3 — a backup
    /// front-end that does not know p learns it from these.)
    CoverageRequest,
    /// `has` says whether the node covers something: `false` means no
    /// coverage was ever assigned, so the node refuses every window.
    Coverage {
        start: u64,
        end: u64,
        has: bool,
    },
    /// Liveness probe.
    Ping,
    Pong,
    /// Graceful shutdown.
    Shutdown,
    /// Generic acknowledgement.
    Ok,
    /// The node could not serve the request (malformed or unsupported —
    /// retrying it anywhere is pointless).
    Error {
        what: String,
    },
    /// §4.8.3 coverage refusal: the node is healthy and the request
    /// well-formed, but the window exceeds the node's coverage — the
    /// front-end's guess of p is too small and it should re-partition the
    /// query, not fail it.
    Refused {
        what: String,
    },
    /// Fault-injection control: scale the node's synthetic processing time
    /// by `factor` (1.0 = nominal, 4.0 = four times slower). Models a
    /// degraded "slow node" without restarting it.
    SetSpeedFactor {
        factor: f64,
    },
    /// Service-model control for synthetic sub-queries: `serial = true`
    /// makes the node a single serial scanner (Definition 8's model —
    /// concurrent sub-queries queue and their sleeps serialize), so
    /// open-loop overload builds a real backlog instead of co-sleeping.
    /// `false` (the default) keeps the historical co-sleeping behaviour
    /// closed-loop suites rely on.
    SetServiceModel {
        serial: bool,
    },
}

impl Msg {
    /// Append the encoding of a `Msg::SubQuery` over a borrowed body: the
    /// front end sends one body to every sub-query of a query without
    /// building (or cloning into) a `Msg` per sub-query. The bytes are
    /// `Msg::SubQuery`'s.
    pub fn put_subquery(
        out: &mut Vec<u8>,
        query_id: u64,
        (window_start, window_end): (u64, u64),
        body: &QueryBody,
        backend: &Option<Backend>,
    ) {
        wire::put_u8(out, 0);
        wire::put_u64(out, query_id);
        wire::put_u64(out, window_start);
        wire::put_u64(out, window_end);
        body.put(out);
        put_backend(out, backend);
    }

    /// Append the tagged binary encoding of this message to `out`.
    pub fn put(&self, out: &mut Vec<u8>) {
        match self {
            Msg::SubQuery {
                query_id,
                window_start,
                window_end,
                body,
                backend,
            } => Msg::put_subquery(out, *query_id, (*window_start, *window_end), body, backend),
            Msg::SubQueryResult {
                query_id,
                matches,
                scanned,
                proc_s,
            } => {
                wire::put_u8(out, 1);
                wire::put_u64(out, *query_id);
                wire::put_u64_vec(out, matches);
                wire::put_u64(out, *scanned);
                wire::put_f64(out, *proc_s);
            }
            Msg::Store {
                records,
                synthetic_ids,
            } => {
                wire::put_u8(out, 2);
                put_records(out, records);
                wire::put_u64_vec(out, synthetic_ids);
            }
            Msg::StoreForward {
                records,
                synthetic_ids,
                hops,
            } => {
                wire::put_u8(out, 3);
                put_records(out, records);
                wire::put_u64_vec(out, synthetic_ids);
                wire::put_u32(out, *hops);
            }
            Msg::SetSuccessor { addr } => {
                wire::put_u8(out, 4);
                wire::put_str(out, addr);
            }
            Msg::SetCoverage { start, end } => {
                wire::put_u8(out, 5);
                wire::put_u64(out, *start);
                wire::put_u64(out, *end);
            }
            Msg::CountRequest => wire::put_u8(out, 6),
            Msg::Count { records } => {
                wire::put_u8(out, 7);
                wire::put_u64(out, *records);
            }
            Msg::CoverageRequest => wire::put_u8(out, 8),
            Msg::Coverage { start, end, has } => {
                wire::put_u8(out, 9);
                wire::put_u64(out, *start);
                wire::put_u64(out, *end);
                wire::put_bool(out, *has);
            }
            Msg::Ping => wire::put_u8(out, 10),
            Msg::Pong => wire::put_u8(out, 11),
            Msg::Shutdown => wire::put_u8(out, 12),
            Msg::Ok => wire::put_u8(out, 13),
            Msg::Error { what } => {
                wire::put_u8(out, 14);
                wire::put_str(out, what);
            }
            Msg::Refused { what } => {
                wire::put_u8(out, 15);
                wire::put_str(out, what);
            }
            Msg::SetSpeedFactor { factor } => {
                wire::put_u8(out, 16);
                wire::put_f64(out, *factor);
            }
            Msg::SetServiceModel { serial } => {
                wire::put_u8(out, 17);
                wire::put_bool(out, *serial);
            }
        }
    }

    /// Decode one message from a reader. `None` on malformed input.
    pub fn get(r: &mut Reader<'_>) -> Option<Msg> {
        Some(match r.u8()? {
            0 => Msg::SubQuery {
                query_id: r.u64()?,
                window_start: r.u64()?,
                window_end: r.u64()?,
                body: QueryBody::get(r)?,
                backend: get_backend(r)?,
            },
            1 => Msg::SubQueryResult {
                query_id: r.u64()?,
                matches: r.u64_vec()?,
                scanned: r.u64()?,
                proc_s: r.f64()?,
            },
            2 => Msg::Store {
                records: get_records(r)?,
                synthetic_ids: r.u64_vec()?,
            },
            3 => Msg::StoreForward {
                records: get_records(r)?,
                synthetic_ids: r.u64_vec()?,
                hops: r.u32()?,
            },
            4 => Msg::SetSuccessor { addr: r.string()? },
            5 => Msg::SetCoverage {
                start: r.u64()?,
                end: r.u64()?,
            },
            6 => Msg::CountRequest,
            7 => Msg::Count { records: r.u64()? },
            8 => Msg::CoverageRequest,
            9 => Msg::Coverage {
                start: r.u64()?,
                end: r.u64()?,
                has: r.bool()?,
            },
            10 => Msg::Ping,
            11 => Msg::Pong,
            12 => Msg::Shutdown,
            13 => Msg::Ok,
            14 => Msg::Error { what: r.string()? },
            15 => Msg::Refused { what: r.string()? },
            16 => Msg::SetSpeedFactor { factor: r.f64()? },
            17 => Msg::SetServiceModel { serial: r.bool()? },
            _ => return None,
        })
    }

    /// Encode into a fresh buffer (the UDP transport's payload form).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.put(&mut out);
        out
    }

    /// Decode a whole buffer; trailing garbage is rejected.
    pub fn decode(buf: &[u8]) -> Option<Msg> {
        let mut r = Reader::new(buf);
        let msg = Msg::get(&mut r)?;
        r.done().then_some(msg)
    }
}

/// Envelope with correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub id: u64,
    pub body: Msg,
}

impl Frame {
    pub fn decode(buf: &[u8]) -> Option<Frame> {
        let mut r = Reader::new(buf);
        let id = r.u64()?;
        let body = Msg::get(&mut r)?;
        r.done().then_some(Frame { id, body })
    }
}

/// Append one frame to `out`: the length prefix, written in place once
/// `encode` has appended the body after the id. A frame over
/// [`MAX_FRAME`] is taken back out of `out` and refused.
pub fn put_frame(
    out: &mut Vec<u8>,
    id: u64,
    encode: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    let at = out.len();
    wire::put_u32(out, 0);
    wire::put_u64(out, id);
    encode(out);
    let len = out.len() - at - 4;
    if len > MAX_FRAME {
        out.truncate(at);
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame too large: {len} bytes"),
        ));
    }
    out[at..at + 4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Write one frame.
pub async fn write_frame<W: AsyncWriteExt + Unpin>(
    w: &mut W,
    frame: &Frame,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    put_frame(&mut buf, frame.id, |out| frame.body.put(out))?;
    w.write_all(&buf).await?;
    w.flush().await
}

fn invalid(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

fn frame_len(prefix: [u8; 4]) -> std::io::Result<usize> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(invalid(format!("frame length {len} exceeds limit")));
    }
    Ok(len)
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
pub async fn read_frame<R: AsyncReadExt + Unpin>(r: &mut R) -> std::io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf).await {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut payload = vec![0u8; frame_len(len_buf)?];
    r.read_exact(&mut payload).await?;
    let frame = Frame::decode(&payload).ok_or_else(|| invalid("malformed frame payload".into()))?;
    Ok(Some(frame))
}

/// Bytes a [`FrameReader`] buffers: one read takes in a burst of frames up
/// to this size; a longer frame is read into its own allocation.
pub const FRAME_READ_BUF: usize = 4096;

/// One frame off a [`FrameReader`]: its correlation id, and its body —
/// `None` when the bytes after the id do not decode.
pub type InboundFrame = (u64, Option<Msg>);

/// The read side of a TCP connection, buffered: one `read` takes in
/// whatever the socket holds (up to [`FRAME_READ_BUF`] bytes) and frames
/// are decoded straight out of the buffer, so a frame costs one `recv`, not
/// one for its length and one for its payload, and no zero-filled payload
/// buffer. The buffer is allocated at the first read and never grows; a
/// frame longer than it is read into an exact-size `Vec` of its own.
///
/// Every byte read lives in the reader between calls, so a
/// [`next`](Self::next) dropped mid-frame loses nothing.
pub struct FrameReader<R> {
    r: R,
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    /// A frame longer than `buf`, being read: its payload and how much of
    /// it has arrived.
    long: Vec<u8>,
    long_filled: usize,
}

impl<R: AsyncReadExt + Unpin> FrameReader<R> {
    pub fn new(r: R) -> Self {
        FrameReader {
            r,
            buf: Vec::new(),
            start: 0,
            end: 0,
            long: Vec::new(),
            long_filled: 0,
        }
    }

    /// Are bytes of a further frame already buffered? A caller deciding
    /// whether it may serve this frame before reading on asks this.
    pub fn buffered(&self) -> bool {
        self.end > self.start
    }

    /// The next frame; `Ok(None)` on clean EOF at a frame boundary. A
    /// length over [`MAX_FRAME`], a frame too short to hold its id, EOF
    /// inside a frame and I/O errors are `Err`: the stream is unusable.
    pub async fn next(&mut self) -> std::io::Result<Option<InboundFrame>> {
        std::future::poll_fn(|cx| self.poll_next(cx)).await
    }

    /// [`next`](Self::next) as a poll, for a caller that waits on the
    /// reader beside something else.
    pub fn poll_next(
        &mut self,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<std::io::Result<Option<InboundFrame>>> {
        use std::task::Poll;
        loop {
            if !self.long.is_empty() {
                while self.long_filled < self.long.len() {
                    let filled = self.long_filled;
                    match self.r.poll_read(cx, &mut self.long[filled..]) {
                        Poll::Ready(Ok(0)) => return Poll::Ready(Err(eof_in_frame())),
                        Poll::Ready(Ok(n)) => self.long_filled += n,
                        Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                        Poll::Pending => return Poll::Pending,
                    }
                }
                let long = std::mem::take(&mut self.long);
                self.long_filled = 0;
                return Poll::Ready(split_frame(&long).map(Some));
            }
            let avail = &self.buf[self.start..self.end];
            if avail.len() >= 4 {
                let len = frame_len(avail[..4].try_into().expect("4 bytes"))?;
                if avail.len() >= 4 + len {
                    let frame = split_frame(&avail[4..4 + len]);
                    self.start += 4 + len;
                    if self.start == self.end {
                        (self.start, self.end) = (0, 0);
                    }
                    return Poll::Ready(frame.map(Some));
                }
                if 4 + len > FRAME_READ_BUF {
                    let mut long = vec![0u8; len];
                    long[..avail.len() - 4].copy_from_slice(&avail[4..]);
                    self.long_filled = avail.len() - 4;
                    self.long = long;
                    (self.start, self.end) = (0, 0);
                    continue;
                }
            }
            if self.buf.is_empty() {
                self.buf = vec![0u8; FRAME_READ_BUF];
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            let end = self.end;
            match self.r.poll_read(cx, &mut self.buf[end..]) {
                Poll::Ready(Ok(0)) if end == 0 => return Poll::Ready(Ok(None)),
                Poll::Ready(Ok(0)) => return Poll::Ready(Err(eof_in_frame())),
                Poll::Ready(Ok(n)) => self.end += n,
                Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                Poll::Pending => return Poll::Pending,
            }
        }
    }
}

fn eof_in_frame() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof inside a frame")
}

/// A frame's payload as its id and, if it decodes, its body.
fn split_frame(payload: &[u8]) -> std::io::Result<InboundFrame> {
    let Some((id, body)) = payload.split_first_chunk::<8>() else {
        return Err(invalid(format!("{}-byte frame holds no id", payload.len())));
    };
    Ok((u64::from_be_bytes(*id), Msg::decode(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test]
    async fn frame_roundtrip_over_duplex() {
        let (mut a, mut b) = tokio::io::duplex(1024);
        let frame = Frame {
            id: 7,
            body: Msg::SubQuery {
                query_id: 42,
                window_start: 100,
                window_end: 200,
                body: QueryBody::Synthetic,
                backend: None,
            },
        };
        write_frame(&mut a, &frame).await.unwrap();
        let got = read_frame(&mut b).await.unwrap().unwrap();
        assert_eq!(got, frame);
    }

    #[tokio::test]
    async fn multiple_frames_in_order() {
        let (mut a, mut b) = tokio::io::duplex(4096);
        for i in 0..5u64 {
            write_frame(
                &mut a,
                &Frame {
                    id: i,
                    body: Msg::Ping,
                },
            )
            .await
            .unwrap();
        }
        for i in 0..5u64 {
            let f = read_frame(&mut b).await.unwrap().unwrap();
            assert_eq!(f.id, i);
        }
    }

    #[tokio::test]
    async fn clean_eof_returns_none() {
        let (a, mut b) = tokio::io::duplex(64);
        drop(a);
        assert!(read_frame(&mut b).await.unwrap().is_none());
    }

    #[tokio::test]
    async fn oversized_frame_rejected() {
        let (mut a, mut b) = tokio::io::duplex(64);
        tokio::spawn(async move {
            use tokio::io::AsyncWriteExt;
            let _ = a.write_all(&u32::MAX.to_be_bytes()).await;
        });
        let err = read_frame(&mut b).await;
        assert!(err.is_err());
    }

    #[test]
    fn trapdoor_wire_roundtrip() {
        let td = roar_pps::bloom_kw::Trapdoor {
            parts: vec![[7u8; 20], [9u8; 20]],
        };
        let wire = WireTrapdoor::from_trapdoor(&td);
        assert_eq!(wire.into_trapdoor(), td);
    }

    #[test]
    fn record_wire_roundtrip() {
        use roar_crypto::bloom::BloomFilter;
        let mut f = BloomFilter::new(128);
        f.set(3);
        f.set(77);
        let rec = roar_pps::EncryptedMetadata {
            id: 555,
            body: roar_pps::bloom_kw::BloomMetadata {
                nonce: 9,
                filter: f,
            },
        };
        let other = roar_pps::EncryptedMetadata {
            id: 7,
            ..rec.clone()
        };
        let wire = [&rec, &other].map(WireRecord::from_record);
        let run = WireRecord::to_run(&wire).unwrap();
        assert_eq!(run.ids(), &[7, 555], "a run is sorted by id");
        let mut store = roar_pps::MetadataStore::new();
        store.append(std::sync::Arc::new(run));
        let rows = store.window_records(&roar_core::ring::Window::full(0));
        assert_eq!(rows, vec![other, rec]);
        // a filter that contradicts its bit count refuses the whole batch
        let mut bad = wire.to_vec();
        bad[1].filter_bits = 129;
        assert!(WireRecord::to_run(&bad).is_none());
    }

    fn every_variant() -> Vec<Msg> {
        vec![
            Msg::SubQuery {
                query_id: 1,
                window_start: 2,
                window_end: u64::MAX,
                body: QueryBody::Pps {
                    trapdoors: vec![WireTrapdoor {
                        parts: vec![[1u8; 20], [2u8; 20]],
                    }],
                    conjunctive: true,
                },
                backend: None,
            },
            Msg::SubQuery {
                query_id: 3,
                window_start: 9,
                window_end: 9,
                body: QueryBody::Synthetic,
                backend: Some(Backend::Avx2),
            },
            Msg::SubQueryResult {
                query_id: 5,
                matches: vec![1, 2, 3],
                scanned: 99,
                proc_s: 0.125,
            },
            Msg::Store {
                records: vec![WireRecord {
                    id: 1,
                    nonce: 2,
                    filter: vec![0u8; 8],
                    filter_bits: 64,
                }],
                synthetic_ids: vec![7, 8],
            },
            Msg::StoreForward {
                records: vec![],
                synthetic_ids: vec![9],
                hops: 3,
            },
            Msg::SetSuccessor {
                addr: "127.0.0.1:4444".into(),
            },
            Msg::SetCoverage { start: 10, end: 20 },
            Msg::CountRequest,
            Msg::Count { records: 12 },
            Msg::CoverageRequest,
            Msg::Coverage {
                start: 1,
                end: 2,
                has: false,
            },
            Msg::Ping,
            Msg::Pong,
            Msg::Shutdown,
            Msg::Ok,
            Msg::Error {
                what: "nope".into(),
            },
            Msg::Refused {
                what: "insufficient coverage".into(),
            },
            Msg::SetSpeedFactor { factor: 4.0 },
            Msg::SetServiceModel { serial: true },
        ]
    }

    /// A trapdoor part travels as a length-prefixed string whose length
    /// must be 20: a 3-byte part fails decode, the same bytes with a
    /// 20-byte part decode.
    #[test]
    fn corrupt_trapdoor_rejected() {
        let subquery = |part: &[u8]| {
            let mut out = Vec::new();
            wire::put_u8(&mut out, 0);
            for v in [1, 2, 3] {
                wire::put_u64(&mut out, v);
            }
            wire::put_u8(&mut out, 0); // Pps
            wire::put_u32(&mut out, 1); // one trapdoor
            wire::put_u32(&mut out, 1); // of one part
            wire::put_bytes(&mut out, part);
            wire::put_bool(&mut out, true);
            put_backend(&mut out, &None);
            out
        };
        assert!(Msg::decode(&subquery(&[1, 2, 3])).is_none());
        assert!(Msg::decode(&subquery(&[0; 21])).is_none());
        match Msg::decode(&subquery(&[7; 20])) {
            Some(Msg::SubQuery {
                body: QueryBody::Pps { trapdoors, .. },
                ..
            }) => assert_eq!(trapdoors[0].parts, vec![[7u8; 20]]),
            other => panic!("a 20-byte part did not decode: {other:?}"),
        }
    }

    #[test]
    fn every_message_variant_roundtrips() {
        for msg in every_variant() {
            let bytes = msg.encode();
            assert_eq!(
                Msg::decode(&bytes),
                Some(msg.clone()),
                "roundtrip of {msg:?}"
            );
        }
    }

    /// The borrowed-body encoder writes `Msg::SubQuery`'s bytes, bare and
    /// framed, for every body shape.
    #[test]
    fn borrowed_subquery_bytes_are_the_owned_messages() {
        let mut seen = 0;
        for msg in every_variant() {
            let Msg::SubQuery {
                query_id,
                window_start,
                window_end,
                body,
                backend,
            } = &msg
            else {
                continue;
            };
            let borrowed = |out: &mut Vec<u8>| {
                Msg::put_subquery(out, *query_id, (*window_start, *window_end), body, backend)
            };
            let mut bare = Vec::new();
            borrowed(&mut bare);
            assert_eq!(bare, msg.encode(), "{msg:?}");
            let mut framed = Vec::new();
            put_frame(&mut framed, 77, borrowed).unwrap();
            let mut owned = Vec::new();
            put_frame(&mut owned, 77, |out| msg.put(out)).unwrap();
            assert_eq!(framed, owned, "{msg:?}");
            assert_eq!(framed[..4], ((framed.len() - 4) as u32).to_be_bytes());
            seen += 1;
        }
        assert_eq!(seen, 2, "a Pps and a Synthetic body");
    }

    /// A byte stream served in scripted pieces: each read returns at most
    /// up to the next cut, and `Pending` (a `recv` that finds the socket
    /// empty) where nothing has arrived yet. Counts reads.
    struct Script {
        data: Vec<u8>,
        pos: usize,
        /// Bytes that have arrived.
        arrived: usize,
        cuts: std::collections::VecDeque<usize>,
        reads: usize,
    }

    impl Script {
        fn new(data: Vec<u8>, cuts: &[usize]) -> Self {
            Script {
                arrived: data.len(),
                data,
                pos: 0,
                cuts: cuts.iter().copied().collect(),
                reads: 0,
            }
        }
    }

    impl tokio::io::AsyncRead for Script {
        fn poll_read(
            &mut self,
            _cx: &mut std::task::Context<'_>,
            buf: &mut [u8],
        ) -> std::task::Poll<std::io::Result<usize>> {
            self.reads += 1;
            if self.pos == self.arrived && self.arrived < self.data.len() {
                return std::task::Poll::Pending;
            }
            while self.cuts.front().is_some_and(|&c| c <= self.pos) {
                self.cuts.pop_front();
            }
            let end = self.cuts.front().copied().unwrap_or(self.arrived);
            let n = buf.len().min(end.min(self.arrived) - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            std::task::Poll::Ready(Ok(n))
        }
    }

    /// Frames of every size class: tiny, typical, longer than the reader's
    /// buffer.
    fn sample_frames() -> Vec<Frame> {
        let long = Msg::Store {
            records: (0..40)
                .map(|id| WireRecord {
                    id,
                    nonce: !id,
                    filter: vec![id as u8; 120],
                    filter_bits: 960,
                })
                .collect(),
            synthetic_ids: vec![5, 6],
        };
        assert!(long.encode().len() > FRAME_READ_BUF);
        let mut frames: Vec<Frame> = every_variant()
            .into_iter()
            .enumerate()
            .map(|(i, body)| Frame { id: i as u64, body })
            .collect();
        frames.insert(3, Frame { id: 99, body: long });
        frames
    }

    fn stream_of(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            put_frame(&mut out, f.id, |o| f.body.put(o)).unwrap();
        }
        out
    }

    async fn drain_reader(script: Script) -> (Vec<Frame>, usize) {
        let mut reader = FrameReader::new(script);
        let mut got = Vec::new();
        while let Some((id, body)) = reader.next().await.unwrap() {
            got.push(Frame {
                id,
                body: body.expect("decodes"),
            });
        }
        (got, reader.r.reads)
    }

    #[tokio::test]
    async fn frame_reader_reads_what_read_frame_reads() {
        let frames = sample_frames();
        let bytes = stream_of(&frames);
        let mut plain = Script::new(bytes.clone(), &[]);
        let mut expected = Vec::new();
        while let Some(f) = read_frame(&mut plain).await.unwrap() {
            expected.push(f);
        }
        assert_eq!(expected, frames);
        // several frames per read: a burst of small frames is one read
        let (got, reads) = drain_reader(Script::new(bytes.clone(), &[])).await;
        assert_eq!(got, expected);
        assert!(
            reads < frames.len(),
            "{reads} reads for {} frames",
            frames.len()
        );
        // every split point, the long frame's included
        for cut in 1..bytes.len() {
            let (got, _) = drain_reader(Script::new(bytes.clone(), &[cut])).await;
            assert_eq!(got, expected, "split at byte {cut}");
        }
        // one byte per read
        let every: Vec<usize> = (1..bytes.len()).collect();
        let (got, _) = drain_reader(Script::new(bytes, &every)).await;
        assert_eq!(got, expected);
    }

    /// Frames arriving one at a time, each read finding the socket empty
    /// once before its frame lands: `read_frame` spends three reads a frame
    /// (the empty one, the length, the payload), a [`FrameReader`] two.
    #[test]
    fn frame_reader_spends_two_reads_a_frame() {
        use std::future::Future;
        let frames: Vec<Frame> = (0..8)
            .map(|id| Frame {
                id,
                body: Msg::Ping,
            })
            .collect();
        let bytes = stream_of(&frames);
        let per_frame = bytes.len() / frames.len();
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        let mut script = Script::new(bytes.clone(), &[]);
        script.arrived = 0;
        for f in &frames {
            // nothing buffered is consumed, so a fresh call picks up after
            // the pending one
            assert!(std::pin::pin!(read_frame(&mut script))
                .poll(&mut cx)
                .is_pending());
            script.arrived += per_frame;
            let got = std::pin::pin!(read_frame(&mut script)).poll(&mut cx);
            assert!(matches!(got, std::task::Poll::Ready(Ok(Some(ref g))) if g == f));
        }
        assert_eq!(script.reads, 3 * frames.len());
        let mut script = Script::new(bytes, &[]);
        script.arrived = 0;
        let mut reader = FrameReader::new(script);
        for f in &frames {
            assert!(std::pin::pin!(reader.next()).poll(&mut cx).is_pending());
            reader.r.arrived += per_frame;
            let got = std::pin::pin!(reader.next()).poll(&mut cx);
            assert!(
                matches!(got, std::task::Poll::Ready(Ok(Some((id, Some(Msg::Ping))))) if id == f.id)
            );
        }
        assert_eq!(reader.r.reads, 2 * frames.len());
    }

    #[tokio::test]
    async fn frame_reader_flags_a_bad_body_and_refuses_a_bad_stream() {
        // a body that does not decode still yields its id
        let mut bytes = Vec::new();
        put_frame(&mut bytes, 5, |o| o.extend_from_slice(&[200, 1, 2])).unwrap();
        put_frame(&mut bytes, 6, |o| Msg::Ping.put(o)).unwrap();
        let mut reader = FrameReader::new(Script::new(bytes, &[]));
        assert_eq!(reader.next().await.unwrap(), Some((5, None)));
        assert_eq!(reader.next().await.unwrap(), Some((6, Some(Msg::Ping))));
        assert_eq!(reader.next().await.unwrap(), None);
        // too short to hold an id
        let short = [0u8, 0, 0, 3, 1, 2, 3].to_vec();
        assert!(FrameReader::new(Script::new(short, &[]))
            .next()
            .await
            .is_err());
        // a length over MAX_FRAME
        let huge = u32::MAX.to_be_bytes().to_vec();
        assert!(FrameReader::new(Script::new(huge, &[]))
            .next()
            .await
            .is_err());
        // EOF inside a frame
        let mut cut = Vec::new();
        put_frame(&mut cut, 1, |o| Msg::Ping.put(o)).unwrap();
        cut.pop();
        assert!(FrameReader::new(Script::new(cut, &[]))
            .next()
            .await
            .is_err());
    }

    #[test]
    fn truncated_and_trailing_bytes_rejected() {
        let bytes = Msg::SubQueryResult {
            query_id: 5,
            matches: vec![1, 2, 3],
            scanned: 99,
            proc_s: 0.125,
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(
                Msg::decode(&bytes[..cut]).is_none(),
                "truncation at {cut} accepted"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Msg::decode(&extended).is_none(), "trailing byte accepted");
    }
}
