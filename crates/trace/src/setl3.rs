//! SETL v3 — the compact binary trace codec behind the persistent run
//! store.
//!
//! The v1/v2 format ([`crate::etl`]) spends 8 bytes on every timestamp and
//! 16 on every thread key; a 60 s trace is dominated by `CSwitch` records
//! whose fields are tiny deltas. v3 shrinks the stream 3–6× while staying
//! dependency-free and bit-exact:
//!
//! * **varints everywhere** — LEB128 unsigned integers for counts, ids and
//!   keys;
//! * **delta-encoded timestamps, per CPU** — `CSwitch` records store the
//!   gap since the previous switch *on the same CPU*; every other record
//!   stores the gap since the previous record in the stream. Both deltas
//!   are non-negative because the trace log is time-ordered;
//! * **interned strings** — process/thread names and marker labels are
//!   collected into a front-loaded string table (first-appearance order)
//!   and referenced by index;
//! * **per-record checksums** — every record carries one FNV-1a check
//!   byte, and the whole file ends in a 64-bit FNV-1a checksum, so a
//!   flipped byte or truncation is always an `InvalidData` error, never a
//!   silently wrong trace. (A single-byte change is guaranteed to change
//!   FNV-1a — XOR-then-multiply-by-an-odd-prime is injective — so the
//!   trailer alone catches every one-byte corruption; the record bytes
//!   localize it.)
//! * **blocked record area (revision 2)** — records are grouped into
//!   fixed-size blocks ([`BLOCK_RECORDS`] each) and a trailing block index
//!   records, per block: record count, byte length, a 64-bit FNV-1a block
//!   hash, and the delta-decoder clock snapshot at the block boundary.
//!   A reader holding the whole byte buffer ([`crate::shard::ShardedTrace`])
//!   can therefore decode any block independently — no seek-from-start, no
//!   event materialization — and verify it without touching the rest of
//!   the file. Sequential readers are unaffected: the record encoding is
//!   identical, blocks are contiguous, and the index parses forward.
//!
//! Every reader decodes from bytes in memory. The sequential reader
//! (`V3Stream`, behind [`read_setl3`], [`decode`], `etl::trace_info` and
//! `timeline::read_timeline`) checks each record's check byte against the
//! FNV-1a of that record's bytes and the trailer against the FNV-1a of
//! everything before it; the block reader ([`crate::shard::ShardedTrace`])
//! checks block hashes instead. Both parse the header with one function.
//!
//! The stream starts with the 5-byte magic `SETL3`. [`crate::etl::read_etl`]
//! sniffs it and dispatches here, so every reader in the workspace accepts
//! both generations transparently; `tracetool pack`/`unpack` convert
//! between them. Revision 1 streams (no block index) remain readable.

use crate::event::{EtlTrace, ThreadKey, TraceBuilder, TraceEvent, WaitReason};
use simcore::SimTime;
use std::io::{self, Read, Write};

/// The 5-byte stream magic.
pub const MAGIC: &[u8; 5] = b"SETL3";
/// Codec revision within the v3 family (bump for incompatible changes).
/// Revision 2 adds the trailing block index; revision 1 is still readable.
pub const VERSION: u8 = 2;
/// The first v3 revision: same record encoding, no block index.
pub const REV1: u8 = 1;
/// Records per block in a revision-2 stream (the last block may be short).
pub const BLOCK_RECORDS: u64 = 4096;

/// Upper bound on string-table entries and string length, to keep malformed
/// input from asking for absurd allocations.
pub(crate) const MAX_STRINGS: u64 = 1 << 22;
pub(crate) const MAX_STRING_LEN: u64 = 1 << 20;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Encodes `trace` as a SETL v3 stream.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_setl3<W: Write>(trace: &EtlTrace, mut w: W) -> io::Result<()> {
    let buf = encode(trace);
    w.write_all(&buf)
}

/// Encodes `trace` into an in-memory SETL v3 stream (checksummed and
/// self-delimiting — safe to embed inside a larger container file).
pub fn encode(trace: &EtlTrace) -> Vec<u8> {
    let mut sp = simobs::span::span("codec", "encode_setl3");
    sp.add_events(trace.events().len() as u64);

    // String table, first-appearance order (deterministic).
    let mut strings: Vec<&str> = Vec::new();
    for ev in trace.events() {
        if let Some(s) = event_string(ev) {
            if !strings.contains(&s) {
                strings.push(s);
            }
        }
    }

    let out = Vec::with_capacity(trace.events().len() * 10 + 64);
    let mut w = V3Writer::new(
        out,
        trace.n_logical_cpus(),
        trace.start(),
        trace.end(),
        &strings,
        trace.events().len() as u64,
    )
    // lint:allow(analyzer-panic): writing into a Vec cannot fail
    .expect("Vec write cannot fail");
    for ev in trace.events() {
        // lint:allow(analyzer-panic): writing into a Vec cannot fail
        w.push(ev).expect("Vec write cannot fail");
    }
    // lint:allow(analyzer-panic): the declared count matches the loop above
    let out = w.finish().expect("Vec write cannot fail");
    sp.add_bytes(out.len() as u64);
    out
}

/// Interned-string lookup table shared by the in-memory encoder and the
/// streaming [`V3Writer`]: index by first-appearance order, O(log n) lookup.
struct StringIds {
    ordered: Vec<String>,
    ids: std::collections::BTreeMap<String, u64>,
}

impl StringIds {
    fn new(strings: &[&str]) -> StringIds {
        StringIds {
            ordered: strings.iter().map(|s| (*s).to_string()).collect(),
            ids: strings
                .iter()
                .enumerate()
                .map(|(i, s)| ((*s).to_string(), i as u64))
                .collect(),
        }
    }

    /// Looks up `s` in the interned table (the caller interns every string
    /// before encoding events).
    fn index(&self, s: &str) -> u64 {
        self.ids
            .get(s)
            .copied()
            // lint:allow(analyzer-panic): the encoder interns every string before encoding events
            .expect("encoder interns every event string")
    }
}

/// Per-block bookkeeping the writer accumulates for the trailing index.
struct BlockMetaOut {
    records: u64,
    bytes: u64,
    hash: u64,
    /// Delta-decoder clock state at the block boundary (before its first
    /// record), as offsets from the window start.
    global: u64,
    per_cpu: Vec<u64>,
}

/// A streaming revision-2 encoder: declare the dimensions, string table and
/// record count up front, push events one at a time, and `finish` to emit
/// the block index and checksums. Nothing proportional to the trace is ever
/// buffered — only the current block — so multi-million-event traces stream
/// straight to disk.
pub struct V3Writer<W: Write> {
    w: W,
    file_hash: u64,
    strings: StringIds,
    clocks: Clocks,
    start: SimTime,
    count: u64,
    pushed: u64,
    /// File hash state covering magic..record-area-start (the header), the
    /// seed for the index `meta_hash`.
    header_hash: u64,
    /// Encoded records (with check bytes) of the block being filled.
    block: Vec<u8>,
    block_records: u64,
    /// Clock snapshot taken when the current block opened.
    block_clocks: Clocks,
    metas: Vec<BlockMetaOut>,
    record: Vec<u8>,
}

impl<W: Write> V3Writer<W> {
    /// Starts a revision-2 stream: writes the magic, header and string
    /// table. `strings` must contain every name/label the pushed events
    /// will carry (first-appearance order is conventional but not
    /// required); `count` must equal the number of `push` calls.
    ///
    /// # Errors
    /// Propagates I/O errors from the writer.
    pub fn new(
        w: W,
        n_logical: usize,
        start: SimTime,
        end: SimTime,
        strings: &[&str],
        count: u64,
    ) -> io::Result<Self> {
        let clocks = Clocks::new(n_logical, start);
        let mut this = V3Writer {
            w,
            file_hash: FNV_OFFSET,
            strings: StringIds::new(strings),
            block_clocks: clocks.clone(),
            clocks,
            start,
            count,
            pushed: 0,
            header_hash: 0,
            block: Vec::new(),
            block_records: 0,
            metas: Vec::new(),
            record: Vec::with_capacity(32),
        };
        let mut header = Vec::with_capacity(64);
        header.extend_from_slice(MAGIC);
        header.push(VERSION);
        put_uv(&mut header, n_logical as u64);
        put_uv(&mut header, start.as_nanos());
        put_uv(&mut header, end.as_nanos().saturating_sub(start.as_nanos()));
        put_uv(&mut header, this.strings.ordered.len() as u64);
        for s in &this.strings.ordered {
            put_uv(&mut header, s.len() as u64);
            header.extend_from_slice(s.as_bytes());
        }
        put_uv(&mut header, count);
        this.emit(&header)?;
        this.header_hash = this.file_hash;
        Ok(this)
    }

    fn emit(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.w.write_all(bytes)?;
        self.file_hash = fnv1a(self.file_hash, bytes);
        Ok(())
    }

    /// Encodes one event. Events must arrive in trace (time) order, exactly
    /// `count` of them.
    ///
    /// # Errors
    /// `InvalidData` on a push past the declared count; I/O errors from the
    /// writer when a full block flushes.
    pub fn push(&mut self, ev: &TraceEvent) -> io::Result<()> {
        if self.pushed == self.count {
            return Err(bad("more events pushed than declared"));
        }
        if self.block_records == 0 {
            self.block_clocks = self.clocks.clone();
        }
        self.record.clear();
        let mut record = std::mem::take(&mut self.record);
        encode_event(&mut record, ev, &self.strings, &mut self.clocks);
        self.block.extend_from_slice(&record);
        self.block.push(fnv1a(FNV_OFFSET, &record) as u8);
        self.record = record;
        self.block_records += 1;
        self.pushed += 1;
        if self.block_records == BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block_records == 0 {
            return Ok(());
        }
        let start = self.start.as_nanos();
        self.metas.push(BlockMetaOut {
            records: self.block_records,
            bytes: self.block.len() as u64,
            hash: fnv1a(FNV_OFFSET, &self.block),
            global: self.block_clocks.global - start,
            per_cpu: self
                .block_clocks
                .per_cpu
                .iter()
                .map(|c| c - start)
                .collect(),
        });
        let block = std::mem::take(&mut self.block);
        self.emit(&block)?;
        self.block = block;
        self.block.clear();
        self.block_records = 0;
        Ok(())
    }

    /// Flushes the last block and writes the block index, `meta_hash`,
    /// index length and file trailer.
    ///
    /// # Errors
    /// `InvalidData` if fewer events than declared were pushed; I/O errors
    /// from the writer.
    pub fn finish(mut self) -> io::Result<W> {
        if self.pushed != self.count {
            return Err(bad("fewer events pushed than declared"));
        }
        self.flush_block()?;
        let mut index = Vec::with_capacity(self.metas.len() * 24 + 16);
        put_uv(&mut index, self.metas.len() as u64);
        for m in &self.metas {
            put_uv(&mut index, m.records);
            put_uv(&mut index, m.bytes);
            index.extend_from_slice(&m.hash.to_le_bytes());
            put_uv(&mut index, m.global);
            for c in &m.per_cpu {
                put_uv(&mut index, *c);
            }
        }
        // meta_hash covers the header bytes plus the index bytes so far —
        // everything a sharded reader needs to trust without a full-file
        // sequential hash.
        let meta_hash = fnv1a(self.header_hash, &index);
        index.extend_from_slice(&meta_hash.to_le_bytes());
        let index_len = index.len() as u64;
        self.emit(&index)?;
        self.emit(&index_len.to_le_bytes())?;
        let trailer = self.file_hash;
        self.w.write_all(&trailer.to_le_bytes())?;
        Ok(self.w)
    }
}

/// Decodes a SETL v3 stream, including the 5-byte magic. The reader is
/// read to its end first; bytes after the stream's trailer are ignored
/// (use [`decode`] to see them).
///
/// # Errors
/// Returns `InvalidData` for a bad magic/version, malformed records or any
/// checksum mismatch, and propagates I/O errors from the reader.
pub fn read_setl3<R: Read>(mut r: R) -> io::Result<EtlTrace> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode(&mut bytes.as_slice())
}

/// Decodes the SETL v3 stream at the front of `r`, including the 5-byte
/// magic, and advances `r` past the stream's trailer, so a container that
/// embeds a stream can check what follows it.
///
/// # Errors
/// Same conditions as [`read_setl3`].
pub fn decode(r: &mut &[u8]) -> io::Result<EtlTrace> {
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a SETL3 trace stream"));
    }
    decode_after_magic(r)
}

/// Decodes the remainder of a v3 stream once the 5-byte magic has already
/// been consumed (the dispatch path in [`crate::etl::read_etl`]), advancing
/// `r` past the trailer.
///
/// # Errors
/// Same conditions as [`read_setl3`].
pub(crate) fn decode_after_magic(r: &mut &[u8]) -> io::Result<EtlTrace> {
    let mut sp = simobs::span::span("codec", "read_setl3");
    let mut stream = V3Stream::open(r)?;
    let mut builder = TraceBuilder::new(stream.header.n_logical);
    while let Some(ev) = stream.next_event()? {
        builder.push(ev);
    }
    sp.add_events(stream.header.count);
    sp.add_bytes(stream.bytes_read());
    *r = stream.rest;
    Ok(builder.finish(stream.header.start, stream.header.end))
}

/// Parsed v3 stream preamble: dimensions, window, string table and record
/// count. Available before any record has been decoded.
#[derive(Clone, Copy, Debug)]
pub(crate) struct V3Header {
    pub n_logical: usize,
    pub start: SimTime,
    pub end: SimTime,
    /// String-table entries.
    pub n_strings: u64,
    /// Total payload bytes of the string table (excluding length prefixes).
    pub string_bytes: u64,
    /// Number of records in the stream.
    pub count: u64,
}

/// Parses the header fields after the revision byte — dimensions, window,
/// string table and record count — leaving `r` at the first record. The
/// one header parser behind [`V3Stream`] and [`crate::shard::ShardedTrace`].
pub(crate) fn parse_header(r: &mut &[u8]) -> io::Result<(V3Header, Vec<String>)> {
    let n_logical = get_uv(r)? as usize;
    if n_logical as u64 > 1 << 20 {
        return Err(bad("implausible logical CPU count"));
    }
    let start = SimTime::from_nanos(get_uv(r)?);
    let window = get_uv(r)?;
    let end = SimTime::from_nanos(start.as_nanos().checked_add(window).ok_or_else(overflow)?);

    let n_strings = get_uv(r)?;
    if n_strings > MAX_STRINGS {
        return Err(bad("string table too large"));
    }
    let mut strings: Vec<String> = Vec::with_capacity(n_strings as usize);
    let mut string_bytes = 0u64;
    for _ in 0..n_strings {
        let len = get_uv(r)?;
        if len > MAX_STRING_LEN {
            return Err(bad("string too long"));
        }
        string_bytes += len;
        let mut buf = vec![0u8; len as usize];
        r.read_exact(&mut buf)?;
        strings.push(String::from_utf8(buf).map_err(|_| bad("invalid utf-8 string"))?);
    }

    let header = V3Header {
        n_logical,
        start,
        end,
        n_strings,
        string_bytes,
        count: get_uv(r)?,
    };
    Ok((header, strings))
}

/// The sequential v3 decoder: parses the header up front, then yields one
/// event at a time from a byte slice without materializing the whole
/// trace. Shared by [`decode`] (which feeds a [`TraceBuilder`]), the
/// `tracetool info` census and the streaming timeline, which only fold.
///
/// Checksums are still enforced in full: each record's check byte against
/// the FNV-1a of that record's bytes as records are pulled, and the 64-bit
/// file trailer against the FNV-1a of everything before it once the last
/// record has been consumed.
pub(crate) struct V3Stream<'a> {
    /// The stream from just past the magic.
    buf: &'a [u8],
    /// The part of `buf` not consumed yet.
    rest: &'a [u8],
    pub header: V3Header,
    /// Stream revision: [`REV1`] (flat record area) or [`VERSION`] (blocked).
    pub revision: u8,
    strings: Vec<String>,
    clocks: Clocks,
    yielded: u64,
    finished: bool,
}

impl<'a> V3Stream<'a> {
    /// Parses the revision byte, dimensions and string table. `buf` starts
    /// just past the 5-byte magic.
    pub fn open(buf: &'a [u8]) -> io::Result<Self> {
        let mut r = buf;
        let mut version = [0u8; 1];
        r.read_exact(&mut version)?;
        // lint:allow(analyzer-panic): `version` is a fixed 1-byte array just
        // filled by read_exact, so index 0 always exists.
        if version[0] != VERSION && version[0] != REV1 {
            return Err(bad("unsupported SETL3 revision"));
        }
        let (header, strings) = parse_header(&mut r)?;
        Ok(V3Stream {
            buf,
            rest: r,
            header,
            // lint:allow(analyzer-panic): same fixed 1-byte array as above.
            revision: version[0],
            strings,
            clocks: Clocks::new(header.n_logical, header.start),
            yielded: 0,
            finished: false,
        })
    }

    /// Consumes the revision-2 trailing block index so the file trailer can
    /// verify. A sequential reader needs none of its contents — blocks are
    /// contiguous — so the entries are parsed for structure only; every
    /// byte is still covered by the trailer check.
    fn skip_block_index(&mut self) -> io::Result<()> {
        let r = &mut self.rest;
        let n_blocks = get_uv(r)?;
        if n_blocks > self.header.count {
            return Err(bad("block index larger than record count"));
        }
        let snapshot_clocks = self.header.n_logical.max(1) as u64;
        for _ in 0..n_blocks {
            let _records = get_uv(r)?;
            let _bytes = get_uv(r)?;
            let mut hash = [0u8; 8];
            r.read_exact(&mut hash)?;
            for _ in 0..=snapshot_clocks {
                // global clock offset + one offset per CPU
                let _clock = get_uv(r)?;
            }
        }
        let mut meta = [0u8; 8];
        r.read_exact(&mut meta)?;
        let mut index_len = [0u8; 8];
        r.read_exact(&mut index_len)?;
        Ok(())
    }

    /// The next event, or `None` once every record has been yielded and the
    /// file trailer has verified.
    pub fn next_event(&mut self) -> io::Result<Option<TraceEvent>> {
        if self.yielded == self.header.count {
            if !self.finished {
                self.finished = true;
                if self.revision >= 2 {
                    self.skip_block_index()?;
                }
                let file_hash = fnv1a(fnv1a(FNV_OFFSET, MAGIC), consumed(self.buf, self.rest));
                let mut trailer = [0u8; 8];
                self.rest.read_exact(&mut trailer)?;
                if u64::from_le_bytes(trailer) != file_hash {
                    return Err(bad("file checksum mismatch"));
                }
            }
            return Ok(None);
        }
        let record_start = self.rest;
        let ev = decode_event(&mut self.rest, &self.strings, &mut self.clocks)?;
        let expect = fnv1a(FNV_OFFSET, consumed(record_start, self.rest)) as u8;
        let mut check = [0u8; 1];
        self.rest.read_exact(&mut check)?;
        if check != [expect] {
            return Err(bad("record checksum mismatch"));
        }
        self.yielded += 1;
        Ok(Some(ev))
    }

    /// Bytes consumed so far, including the already-sniffed magic (and the
    /// trailer once the stream is drained).
    pub fn bytes_read(&self) -> u64 {
        (MAGIC.len() + consumed(self.buf, self.rest).len()) as u64
    }
}

/// The prefix of `whole` that precedes its suffix `rest`.
fn consumed<'a>(whole: &'a [u8], rest: &[u8]) -> &'a [u8] {
    whole.split_at(whole.len() - rest.len()).0
}

/// The interned string carried by an event, if any.
fn event_string(ev: &TraceEvent) -> Option<&str> {
    match ev {
        TraceEvent::ProcessStart { name, .. } | TraceEvent::ThreadStart { name, .. } => Some(name),
        TraceEvent::Marker { label, .. } => Some(label),
        _ => None,
    }
}

/// Timestamp reference clocks: one per CPU for `CSwitch`, one global for
/// everything else. Encoder and decoder advance them identically, so the
/// deltas round-trip bit-exactly. A revision-2 block-index snapshot is
/// exactly this struct at a block boundary, which is what lets
/// [`crate::shard::ShardedTrace`] decode blocks independently.
#[derive(Clone, Debug)]
pub(crate) struct Clocks {
    pub(crate) per_cpu: Vec<u64>,
    pub(crate) global: u64,
}

impl Clocks {
    pub(crate) fn new(n_logical: usize, start: SimTime) -> Clocks {
        Clocks {
            per_cpu: vec![start.as_nanos(); n_logical.max(1)],
            global: start.as_nanos(),
        }
    }

    /// The reference clock an event's delta is taken against.
    fn reference(&mut self, cpu: Option<usize>) -> &mut u64 {
        match cpu {
            Some(c) if c < self.per_cpu.len() => &mut self.per_cpu[c],
            _ => &mut self.global,
        }
    }
}

fn encode_at(out: &mut Vec<u8>, at: SimTime, cpu: Option<usize>, clocks: &mut Clocks) {
    let clock = clocks.reference(cpu);
    // The builder guarantees global time order, so per-CPU references (which
    // only ever lag the global clock) can't produce a negative delta either.
    let delta = at.as_nanos().saturating_sub(*clock);
    *clock = at.as_nanos();
    put_uv(out, delta);
}

fn decode_at(r: &mut &[u8], cpu: Option<usize>, clocks: &mut Clocks) -> io::Result<SimTime> {
    let delta = get_uv(r)?;
    let clock = clocks.reference(cpu);
    let at = clock.checked_add(delta).ok_or_else(overflow)?;
    *clock = at;
    Ok(SimTime::from_nanos(at))
}

fn encode_event(out: &mut Vec<u8>, ev: &TraceEvent, strings: &StringIds, clocks: &mut Clocks) {
    match ev {
        TraceEvent::ProcessStart { at, pid, name } => {
            out.push(0);
            encode_at(out, *at, None, clocks);
            put_uv(out, *pid);
            put_uv(out, strings.index(name));
        }
        TraceEvent::ThreadStart { at, key, name } => {
            out.push(1);
            encode_at(out, *at, None, clocks);
            put_key(out, *key);
            put_uv(out, strings.index(name));
        }
        TraceEvent::ThreadEnd { at, key } => {
            out.push(2);
            encode_at(out, *at, None, clocks);
            put_key(out, *key);
        }
        TraceEvent::CSwitch {
            at,
            cpu,
            old,
            new,
            ready_since,
        } => {
            out.push(3);
            put_uv(out, *cpu as u64);
            encode_at(out, *at, Some(*cpu), clocks);
            put_opt_key(out, *old);
            put_opt_key(out, *new);
            // `ready_since` precedes the switch-in, so it's a backwards
            // delta from `at`; 0 marks `None`, `d+1` marks `at - d`.
            match ready_since {
                None => put_uv(out, 0),
                Some(t) => put_uv(out, at.as_nanos().saturating_sub(t.as_nanos()) + 1),
            }
        }
        TraceEvent::GpuStart {
            at,
            gpu,
            engine,
            packet,
            pid,
        } => {
            out.push(4);
            encode_at(out, *at, None, clocks);
            put_uv(out, *gpu as u64);
            put_uv(out, *engine as u64);
            put_uv(out, *packet);
            put_uv(out, *pid);
        }
        TraceEvent::GpuEnd {
            at,
            gpu,
            engine,
            packet,
            pid,
        } => {
            out.push(5);
            encode_at(out, *at, None, clocks);
            put_uv(out, *gpu as u64);
            put_uv(out, *engine as u64);
            put_uv(out, *packet);
            put_uv(out, *pid);
        }
        TraceEvent::Frame { at, pid } => {
            out.push(6);
            encode_at(out, *at, None, clocks);
            put_uv(out, *pid);
        }
        TraceEvent::Marker { at, label } => {
            out.push(7);
            encode_at(out, *at, None, clocks);
            put_uv(out, strings.index(label));
        }
        TraceEvent::WaitBegin { at, key, reason } => {
            out.push(8);
            encode_at(out, *at, None, clocks);
            put_key(out, *key);
            put_reason(out, *reason);
        }
        TraceEvent::WaitEnd {
            at,
            key,
            reason,
            waker,
        } => {
            out.push(9);
            encode_at(out, *at, None, clocks);
            put_key(out, *key);
            put_reason(out, *reason);
            put_opt_key(out, *waker);
        }
        TraceEvent::GpuSubmit {
            at,
            key,
            gpu,
            packet,
        } => {
            out.push(10);
            encode_at(out, *at, None, clocks);
            put_key(out, *key);
            put_uv(out, *gpu as u64);
            put_uv(out, *packet);
        }
    }
}

pub(crate) fn decode_event(
    r: &mut &[u8],
    strings: &[String],
    clocks: &mut Clocks,
) -> io::Result<TraceEvent> {
    Ok(match get_u8(r)? {
        0 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::ProcessStart {
                at,
                pid: get_uv(r)?,
                name: get_interned(r, strings)?,
            }
        }
        1 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::ThreadStart {
                at,
                key: get_key(r)?,
                name: get_interned(r, strings)?,
            }
        }
        2 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::ThreadEnd {
                at,
                key: get_key(r)?,
            }
        }
        3 => {
            let cpu = get_uv(r)? as usize;
            let at = decode_at(r, Some(cpu), clocks)?;
            let old = get_opt_key(r)?;
            let new = get_opt_key(r)?;
            let ready = get_uv(r)?;
            let ready_since = if ready == 0 {
                None
            } else {
                Some(SimTime::from_nanos(
                    at.as_nanos()
                        .checked_sub(ready - 1)
                        .ok_or_else(|| bad("ready_since before time zero"))?,
                ))
            };
            TraceEvent::CSwitch {
                at,
                cpu,
                old,
                new,
                ready_since,
            }
        }
        4 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::GpuStart {
                at,
                gpu: get_uv(r)? as usize,
                engine: get_u32v(r)?,
                packet: get_uv(r)?,
                pid: get_uv(r)?,
            }
        }
        5 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::GpuEnd {
                at,
                gpu: get_uv(r)? as usize,
                engine: get_u32v(r)?,
                packet: get_uv(r)?,
                pid: get_uv(r)?,
            }
        }
        6 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::Frame {
                at,
                pid: get_uv(r)?,
            }
        }
        7 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::Marker {
                at,
                label: get_interned(r, strings)?,
            }
        }
        8 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::WaitBegin {
                at,
                key: get_key(r)?,
                reason: get_reason(r)?,
            }
        }
        9 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::WaitEnd {
                at,
                key: get_key(r)?,
                reason: get_reason(r)?,
                waker: get_opt_key(r)?,
            }
        }
        10 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::GpuSubmit {
                at,
                key: get_key(r)?,
                gpu: get_uv(r)? as usize,
                packet: get_uv(r)?,
            }
        }
        _ => return Err(bad("unknown event tag")),
    })
}

fn put_reason(out: &mut Vec<u8>, reason: WaitReason) {
    match reason {
        WaitReason::Preempted => out.push(0),
        WaitReason::Yield => out.push(1),
        WaitReason::Sleep => out.push(2),
        WaitReason::Event { id } => {
            out.push(3);
            put_uv(out, id);
        }
        WaitReason::Gpu { gpu, packet } => {
            out.push(4);
            put_uv(out, gpu as u64);
            put_uv(out, packet);
        }
    }
}

fn get_reason(r: &mut &[u8]) -> io::Result<WaitReason> {
    Ok(match get_u8(r)? {
        0 => WaitReason::Preempted,
        1 => WaitReason::Yield,
        2 => WaitReason::Sleep,
        3 => WaitReason::Event { id: get_uv(r)? },
        4 => WaitReason::Gpu {
            gpu: get_u32v(r)?,
            packet: get_uv(r)?,
        },
        _ => return Err(bad("unknown wait reason tag")),
    })
}

fn get_interned(r: &mut &[u8], strings: &[String]) -> io::Result<String> {
    let idx = get_uv(r)? as usize;
    strings
        .get(idx)
        .cloned()
        .ok_or_else(|| bad("string index out of range"))
}

fn put_key(out: &mut Vec<u8>, key: ThreadKey) {
    put_uv(out, key.pid);
    put_uv(out, key.tid);
}

fn get_key(r: &mut &[u8]) -> io::Result<ThreadKey> {
    Ok(ThreadKey {
        pid: get_uv(r)?,
        tid: get_uv(r)?,
    })
}

/// `None` → `0`; `Some(key)` → `pid + 1`, then `tid`.
fn put_opt_key(out: &mut Vec<u8>, key: Option<ThreadKey>) {
    match key {
        None => put_uv(out, 0),
        Some(k) => {
            // lint:allow(analyzer-panic): simulator thread keys never reach pid u64::MAX
            put_uv(out, k.pid.checked_add(1).expect("pid < u64::MAX"));
            put_uv(out, k.tid);
        }
    }
}

fn get_opt_key(r: &mut &[u8]) -> io::Result<Option<ThreadKey>> {
    let tag = get_uv(r)?;
    if tag == 0 {
        return Ok(None);
    }
    Ok(Some(ThreadKey {
        pid: tag - 1,
        tid: get_uv(r)?,
    }))
}

/// LEB128 unsigned varint encode.
fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// LEB128 unsigned varint decode (at most 10 bytes).
pub(crate) fn get_uv(r: &mut &[u8]) -> io::Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = get_u8(r)?;
        if shift >= 63 && b > 1 {
            return Err(bad("varint overflows u64"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(bad("varint too long"));
        }
    }
}

/// The next byte; the end of the input is the `UnexpectedEof` error
/// `read_exact` reports.
#[inline]
fn get_u8(r: &mut &[u8]) -> io::Result<u8> {
    let (&b, rest) = r.split_first().ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "failed to fill whole buffer")
    })?;
    *r = rest;
    Ok(b)
}

fn get_u32v(r: &mut &[u8]) -> io::Result<u32> {
    u32::try_from(get_uv(r)?).map_err(|_| bad("value exceeds u32"))
}

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn overflow() -> io::Error {
    bad("timestamp overflows u64 nanoseconds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn demo_trace() -> EtlTrace {
        let key = ThreadKey { pid: 1, tid: 10 };
        let mut b = TraceBuilder::new(4);
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 1,
            name: "app.exe".into(),
        });
        b.push(TraceEvent::ThreadStart {
            at: SimTime::ZERO,
            key,
            name: "main".into(),
        });
        b.push(TraceEvent::CSwitch {
            at: SimTime::ZERO + SimDuration::from_millis(1),
            cpu: 2,
            old: None,
            new: Some(key),
            ready_since: Some(SimTime::ZERO),
        });
        b.push(TraceEvent::GpuSubmit {
            at: SimTime::ZERO + SimDuration::from_millis(2),
            key,
            gpu: 0,
            packet: 9,
        });
        b.push(TraceEvent::GpuStart {
            at: SimTime::ZERO + SimDuration::from_millis(2),
            gpu: 0,
            engine: u32::MAX,
            packet: 9,
            pid: 1,
        });
        b.push(TraceEvent::WaitBegin {
            at: SimTime::ZERO + SimDuration::from_millis(2),
            key,
            reason: WaitReason::Gpu { gpu: 0, packet: 9 },
        });
        b.push(TraceEvent::GpuEnd {
            at: SimTime::ZERO + SimDuration::from_millis(3),
            gpu: 0,
            engine: u32::MAX,
            packet: 9,
            pid: 1,
        });
        b.push(TraceEvent::WaitEnd {
            at: SimTime::ZERO + SimDuration::from_millis(3),
            key,
            reason: WaitReason::Gpu { gpu: 0, packet: 9 },
            waker: None,
        });
        b.push(TraceEvent::Frame {
            at: SimTime::ZERO + SimDuration::from_millis(4),
            pid: 1,
        });
        b.push(TraceEvent::WaitBegin {
            at: SimTime::ZERO + SimDuration::from_millis(4),
            key,
            reason: WaitReason::Event { id: 5 },
        });
        b.push(TraceEvent::WaitEnd {
            at: SimTime::ZERO + SimDuration::from_millis(5),
            key,
            reason: WaitReason::Event { id: 5 },
            waker: Some(ThreadKey { pid: 1, tid: 11 }),
        });
        b.push(TraceEvent::Marker {
            at: SimTime::ZERO + SimDuration::from_millis(5),
            label: "phase: export 🚀".into(),
        });
        b.push(TraceEvent::CSwitch {
            at: SimTime::ZERO + SimDuration::from_millis(6),
            cpu: 2,
            old: Some(key),
            new: None,
            ready_since: None,
        });
        b.push(TraceEvent::ThreadEnd {
            at: SimTime::ZERO + SimDuration::from_millis(6),
            key,
        });
        b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10))
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let trace = demo_trace();
        let buf = encode(&trace);
        let back = read_setl3(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn v3_is_smaller_than_v2() {
        let trace = demo_trace();
        let v3 = encode(&trace);
        let mut v2 = Vec::new();
        crate::etl::write_etl(&trace, &mut v2).unwrap();
        assert!(
            v3.len() < v2.len(),
            "v3 {} bytes, v2 {} bytes",
            v3.len(),
            v2.len()
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let trace = demo_trace();
        let buf = encode(&trace);
        for i in 0..buf.len() {
            let mut mutated = buf.clone();
            mutated[i] ^= 0x40;
            let result = read_setl3(mutated.as_slice());
            // Either the decode errors (checksum / structure) — never a
            // silently different trace. Byte flips that happen to decode to
            // the same trace are impossible: FNV-1a is injective per byte.
            assert!(result.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let trace = demo_trace();
        let buf = encode(&trace);
        for len in 0..buf.len() {
            assert!(
                read_setl3(&buf[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn unknown_revision_is_rejected() {
        let trace = demo_trace();
        let mut buf = encode(&trace);
        buf[5] = 99; // revision byte after the 5-byte magic
        assert!(read_setl3(buf.as_slice()).is_err());
    }

    /// Encodes `trace` in the revision-1 flat layout (no block index), as
    /// written by older builds: header, records with check bytes, trailer.
    fn encode_rev1(trace: &EtlTrace) -> Vec<u8> {
        let mut strings: Vec<&str> = Vec::new();
        for ev in trace.events() {
            if let Some(s) = event_string(ev) {
                if !strings.contains(&s) {
                    strings.push(s);
                }
            }
        }
        let ids = StringIds::new(&strings);
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(REV1);
        put_uv(&mut out, trace.n_logical_cpus() as u64);
        put_uv(&mut out, trace.start().as_nanos());
        put_uv(
            &mut out,
            trace
                .end()
                .as_nanos()
                .saturating_sub(trace.start().as_nanos()),
        );
        put_uv(&mut out, strings.len() as u64);
        for s in &strings {
            put_uv(&mut out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        put_uv(&mut out, trace.events().len() as u64);
        let mut clocks = Clocks::new(trace.n_logical_cpus(), trace.start());
        let mut record = Vec::new();
        for ev in trace.events() {
            record.clear();
            encode_event(&mut record, ev, &ids, &mut clocks);
            out.extend_from_slice(&record);
            out.push(fnv1a(FNV_OFFSET, &record) as u8);
        }
        let trailer = fnv1a(FNV_OFFSET, &out);
        out.extend_from_slice(&trailer.to_le_bytes());
        out
    }

    #[test]
    fn revision_1_streams_remain_readable() {
        let trace = demo_trace();
        let rev1 = encode_rev1(&trace);
        let back = read_setl3(rev1.as_slice()).unwrap();
        assert_eq!(trace, back);
        // And rev1 corruption is still caught end to end.
        for i in 0..rev1.len() {
            let mut mutated = rev1.clone();
            mutated[i] ^= 0x40;
            assert!(
                read_setl3(mutated.as_slice()).is_err(),
                "rev1 flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn writer_rejects_count_mismatch() {
        let trace = demo_trace();
        let events = trace.events();
        // Fewer pushes than declared: finish() must fail.
        let strings = vec!["app.exe", "main", "phase: export 🚀"];
        let w = V3Writer::new(
            Vec::new(),
            trace.n_logical_cpus(),
            trace.start(),
            trace.end(),
            &strings,
            events.len() as u64 + 1,
        )
        .unwrap();
        assert!(w.finish().is_err(), "short stream must not finish");
        // More pushes than declared: push() must fail.
        let mut w = V3Writer::new(
            Vec::new(),
            trace.n_logical_cpus(),
            trace.start(),
            trace.end(),
            &strings,
            1,
        )
        .unwrap();
        w.push(&events[0]).unwrap();
        assert!(w.push(&events[1]).is_err(), "overlong stream must not push");
    }

    #[test]
    fn multi_block_stream_roundtrips() {
        // More than two full blocks plus a short tail.
        let n = (BLOCK_RECORDS * 2 + 37) as usize;
        let mut b = TraceBuilder::new(2);
        let key = ThreadKey { pid: 7, tid: 70 };
        for i in 0..n {
            b.push(TraceEvent::CSwitch {
                at: SimTime::from_nanos(i as u64 * 1000),
                cpu: i % 2,
                old: if i % 2 == 0 { None } else { Some(key) },
                new: if i % 2 == 0 { Some(key) } else { None },
                ready_since: None,
            });
        }
        let trace = b.finish(SimTime::ZERO, SimTime::from_nanos(n as u64 * 1000));
        let buf = encode(&trace);
        let back = read_setl3(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn varints_roundtrip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_uv(&mut buf, v);
            assert_eq!(get_uv(&mut buf.as_slice()).unwrap(), v, "value {v}");
        }
        // A 10-byte varint with excess high bits must not wrap silently.
        let too_big = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert!(get_uv(&mut too_big.as_slice()).is_err());
    }
}
