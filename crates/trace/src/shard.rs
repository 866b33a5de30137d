//! Sharded zero-copy access to revision-2 SETL v3 streams.
//!
//! [`crate::setl3::V3Stream`] decodes a trace front to back, so an analyzer
//! on it either folds serially or materializes a full `Vec<TraceEvent>`
//! first. This module is the other half of the revision-2 container:
//! [`ShardedTrace`] holds the raw bytes, parses the trailing block index,
//! and hands out independent [`BlockCursor`]s — one per 4096-record block —
//! that decode records **in place** from the shared byte buffer. No
//! seek-from-start, no whole-trace materialization, and every block is
//! integrity-checked on its own (the index carries a 64-bit FNV-1a hash per
//! block, and the index itself is covered by `meta_hash`, seeded from the
//! header hash).
//!
//! Parallelism is injected, not owned: analyzers drive shards through the
//! [`ShardRunner`] trait so this crate never spawns a thread. `parastat`'s
//! `ThreadPoolRunner` implements it over scoped workers; [`SerialShards`]
//! is the width-1 fallback and the determinism reference.
//!
//! Determinism rules (see DESIGN.md §14): block decode order is free, but
//! every fold over events happens **in block order on one thread**
//! ([`ShardedTrace::fold_events`], a pipeline in which one worker folds
//! while the others decode ahead), or as per-shard partials merged in
//! shard order by the analyzer. Either way the bytes an analyzer report
//! renders to are identical at any shard count.
//!
//! Integrity on the sharded path: `meta_hash` covers the header plus the
//! block index, and each block hash covers its record bytes, so any
//! corruption of the header, index or record area is detected. The only
//! bytes not covered are the file trailer's own 8 bytes (the sequential
//! whole-file hash, which a sharded reader never folds) — a flip there is
//! caught by any sequential reader and changes nothing a shard decodes.

use crate::event::{PidSet, TraceEvent};
use crate::setl3::{self, Clocks, MAGIC, REV1, VERSION};
use simcore::SimTime;
use std::io::{self, Read};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Executes `f(0..shards)` on some set of workers. Implemented by
/// `parastat::runner::ThreadPoolRunner` (scoped threads) and by
/// [`SerialShards`] (the calling thread). `f` must be safe to call
/// concurrently from multiple threads.
pub trait ShardRunner: Sync {
    /// Calls `f(i)` exactly once for every `i in 0..shards`, possibly
    /// concurrently, returning after all calls complete. `f(0)` runs on the
    /// calling thread, before any other call that runs there: the ordered
    /// fold puts its folder on shard 0, so the fold state lives with the
    /// caller's and no other shard can block the calling thread first.
    fn run_shards(&self, shards: usize, f: &(dyn Fn(usize) + Sync));

    /// Worker parallelism (1 for serial runners) — the default shard count.
    fn width(&self) -> usize;
}

/// Runs every shard on the calling thread, in index order.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialShards;

impl ShardRunner for SerialShards {
    fn run_shards(&self, shards: usize, f: &(dyn Fn(usize) + Sync)) {
        for i in 0..shards {
            f(i);
        }
    }

    fn width(&self) -> usize {
        1
    }
}

/// One entry of the trailing block index: where the block's bytes live and
/// the delta-decoder state at its boundary.
#[derive(Debug)]
struct BlockMeta {
    /// Absolute byte offset of the block in the stream.
    offset: usize,
    /// Encoded length in bytes (records plus check bytes).
    len: usize,
    /// Records in the block.
    records: u64,
    /// 64-bit FNV-1a over the block's bytes.
    hash: u64,
    /// Clock snapshot before the block's first record (absolute ns).
    clocks: Clocks,
}

/// A revision-2 SETL v3 stream held fully in memory, indexed for
/// independent per-block decoding.
///
/// `from_bytes` parses the header forward and the block index from the
/// fixed-size tail, verifies `meta_hash`, and cross-checks the block
/// extents against the record area — all without touching a single record
/// byte. Records are only decoded when a [`BlockCursor`] walks them, and
/// each cursor verifies its block's 64-bit hash first.
#[derive(Debug)]
pub struct ShardedTrace {
    bytes: Vec<u8>,
    n_logical: usize,
    start: SimTime,
    end: SimTime,
    strings: Vec<String>,
    count: u64,
    blocks: Vec<BlockMeta>,
}

impl ShardedTrace {
    /// Indexes a revision-2 stream.
    ///
    /// # Errors
    /// `InvalidData` with a distinct message for flat v1/v2 traces and for
    /// revision-1 v3 streams (neither carries a block index — `tracetool
    /// pack` with a current build produces revision 2), for any structural
    /// inconsistency, and for a `meta_hash` mismatch.
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<ShardedTrace> {
        if bytes.len() < MAGIC.len() + 1 {
            return Err(setl3::bad("truncated SETL3 stream"));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            if &bytes[..4] == b"SETL" {
                return Err(setl3::bad(
                    "flat SETL v1/v2 trace has no block index; run `tracetool pack` to convert it to v3 first",
                ));
            }
            return Err(setl3::bad("not a SETL trace stream"));
        }
        match bytes[MAGIC.len()] {
            VERSION => {}
            REV1 => {
                return Err(setl3::bad(
                    "SETL3 revision 1 stream has no block index; re-pack it with a current build for sharded analysis",
                ))
            }
            _ => return Err(setl3::bad("unsupported SETL3 revision")),
        }

        let mut r: &[u8] = &bytes[MAGIC.len() + 1..];
        let (header, strings) = setl3::parse_header(&mut r)?;
        let (n_logical, start, end, count) =
            (header.n_logical, header.start, header.end, header.count);
        let record_start = bytes.len() - r.len();

        // Tail: [index entries | meta_hash 8B] [index_len 8B] [trailer 8B].
        if bytes.len() < record_start + 24 {
            return Err(setl3::bad("truncated SETL3 stream"));
        }
        let tail = bytes.len();
        let index_len = u64::from_le_bytes(
            bytes[tail - 16..tail - 8]
                .try_into()
                // lint:allow(analyzer-panic): an 8-byte slice always converts
                .expect("8-byte slice"),
        ) as usize;
        if index_len < 8 || index_len > tail - 16 - record_start {
            return Err(setl3::bad("block index length out of range"));
        }
        let index_start = tail - 16 - index_len;
        let meta_hash = u64::from_le_bytes(
            bytes[tail - 24..tail - 16]
                .try_into()
                // lint:allow(analyzer-panic): an 8-byte slice always converts
                .expect("8-byte slice"),
        );
        let header_hash = setl3::fnv1a(setl3::FNV_OFFSET, &bytes[..record_start]);
        if setl3::fnv1a(header_hash, &bytes[index_start..tail - 24]) != meta_hash {
            return Err(setl3::bad("block index checksum mismatch"));
        }

        // Index entries, now trusted byte-for-byte.
        let mut ir: &[u8] = &bytes[index_start..tail - 24];
        let n_blocks = setl3::get_uv(&mut ir)?;
        if n_blocks > count {
            return Err(setl3::bad("block index larger than record count"));
        }
        let mut blocks = Vec::with_capacity(n_blocks as usize);
        let mut offset = record_start;
        let mut total_records = 0u64;
        for _ in 0..n_blocks {
            let records = setl3::get_uv(&mut ir)?;
            let len = setl3::get_uv(&mut ir)? as usize;
            let mut hash = [0u8; 8];
            ir.read_exact(&mut hash)?;
            let abs = |off: u64| {
                start
                    .as_nanos()
                    .checked_add(off)
                    .ok_or_else(|| setl3::bad("clock snapshot overflows u64 nanoseconds"))
            };
            let global = abs(setl3::get_uv(&mut ir)?)?;
            let mut per_cpu = Vec::with_capacity(n_logical.max(1));
            for _ in 0..n_logical.max(1) {
                per_cpu.push(abs(setl3::get_uv(&mut ir)?)?);
            }
            blocks.push(BlockMeta {
                offset,
                len,
                records,
                hash: u64::from_le_bytes(hash),
                clocks: Clocks { per_cpu, global },
            });
            offset = offset
                .checked_add(len)
                .filter(|&o| o <= index_start)
                .ok_or_else(|| setl3::bad("block extent past the record area"))?;
            total_records += records;
        }
        if !ir.is_empty() {
            return Err(setl3::bad("trailing bytes in block index"));
        }
        if offset != index_start {
            return Err(setl3::bad("block extents do not cover the record area"));
        }
        if total_records != count {
            return Err(setl3::bad(
                "block record counts do not sum to the stream count",
            ));
        }

        Ok(ShardedTrace {
            bytes,
            n_logical,
            start,
            end,
            strings,
            count,
            blocks,
        })
    }

    /// Number of logical CPUs the trace was recorded on.
    pub fn n_logical_cpus(&self) -> usize {
        self.n_logical
    }

    /// Start of the observation window.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// End of the observation window.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Wall-clock length of the observation window.
    pub fn window(&self) -> simcore::SimDuration {
        self.end - self.start
    }

    /// Total records in the stream.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of record blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Records in block `i`.
    pub fn block_records(&self, i: usize) -> u64 {
        self.blocks[i].records
    }

    /// Size of the underlying byte buffer.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// A cursor over block `block`, after verifying the block's 64-bit
    /// FNV-1a hash against the index.
    ///
    /// # Errors
    /// `InvalidData` for an out-of-range block or a hash mismatch.
    pub fn cursor(&self, block: usize) -> io::Result<BlockCursor<'_>> {
        let m = self
            .blocks
            .get(block)
            .ok_or_else(|| setl3::bad("block index out of range"))?;
        let buf = &self.bytes[m.offset..m.offset + m.len];
        if setl3::fnv1a(setl3::FNV_OFFSET, buf) != m.hash {
            return Err(setl3::bad("block checksum mismatch"));
        }
        Ok(BlockCursor {
            buf,
            strings: &self.strings,
            clocks: m.clocks.clone(),
            remaining: m.records,
        })
    }

    /// Decodes block `block` into a `Vec` (hash-verified).
    ///
    /// # Errors
    /// Same conditions as [`ShardedTrace::cursor`].
    pub fn decode_block(&self, block: usize) -> io::Result<Vec<TraceEvent>> {
        let mut c = self.cursor(block)?;
        let mut out = Vec::with_capacity(self.blocks[block].records as usize);
        while let Some(ev) = c.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    /// The contiguous range of blocks whose events can overlap the closed
    /// time window `[lo, hi]` — the seek step the blocked container buys.
    ///
    /// Each index entry carries the delta clocks snapshotted at its block
    /// boundary, and the builder emits events in global time order, so a
    /// snapshot's largest clock is a tight lower bound on its block's first
    /// event and the *next* snapshot's largest clock bounds its last. Both
    /// bounds are nondecreasing in block order, so the overlap test binary
    /// searches the index and never touches a record byte: a windowed
    /// analyzer decodes only the returned blocks, while a flat reader has
    /// to decode the whole stream to reach the same window.
    pub fn blocks_in_window(&self, lo: SimTime, hi: SimTime) -> Range<usize> {
        let n = self.blocks.len();
        let first_at = |i: usize| -> u64 {
            let c = &self.blocks[i].clocks;
            c.per_cpu.iter().copied().fold(c.global, u64::max)
        };
        let last_at = |i: usize| -> u64 {
            if i + 1 < n {
                first_at(i + 1)
            } else {
                self.end.as_nanos()
            }
        };
        // Index of the first i in 0..n with !pred(i); pred is monotone.
        let lower_bound = |pred: &dyn Fn(usize) -> bool| -> usize {
            let (mut a, mut b) = (0, n);
            while a < b {
                let mid = (a + b) / 2;
                if pred(mid) {
                    a = mid + 1;
                } else {
                    b = mid;
                }
            }
            a
        };
        let start = lower_bound(&|i| last_at(i) < lo.as_nanos());
        let stop = lower_bound(&|i| first_at(i) <= hi.as_nanos());
        start..stop.max(start)
    }

    /// Splits the blocks into at most `shards` contiguous, near-equal
    /// ranges (empty ranges are dropped) — the map step's work division.
    pub fn shard_ranges(&self, shards: usize) -> Vec<Range<usize>> {
        let n = self.blocks.len();
        let shards = shards.max(1).min(n.max(1));
        let mut out = Vec::with_capacity(shards);
        let mut lo = 0;
        for i in 0..shards {
            let hi = n * (i + 1) / shards;
            if hi > lo {
                out.push(lo..hi);
                lo = hi;
            }
        }
        out
    }

    /// Maps `f` over contiguous block ranges on `runner`, one call per
    /// shard, and returns the results **in shard order**. This is the map
    /// step for analyzers with a true merge (`analysis::concurrency`):
    /// each call folds its range into a partial, the caller merges partials
    /// deterministically.
    ///
    /// # Errors
    /// The first shard error in shard order.
    pub fn map_block_ranges<T, F>(
        &self,
        runner: &dyn ShardRunner,
        shards: usize,
        f: F,
    ) -> io::Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> io::Result<T> + Sync,
    {
        let ranges = self.shard_ranges(shards);
        type Slot<T> = Mutex<Option<io::Result<T>>>;
        let slots: Vec<Slot<T>> = ranges.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        runner.run_shards(ranges.len().max(1), &|_shard| {
            let mut worker = simobs::span::span("shard", "worker");
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(range) = ranges.get(i) else { break };
                worker.add_events(1);
                let res = {
                    let mut sp = simobs::span::span("shard", "decode");
                    let mut events = 0u64;
                    let mut bytes = 0u64;
                    for b in range.clone() {
                        events += self.blocks[b].records;
                        bytes += self.blocks[b].len as u64;
                    }
                    sp.add_events(events);
                    sp.add_bytes(bytes);
                    f(i, range.clone())
                };
                // lint:allow(analyzer-panic): a poisoned slot means a worker
                // already panicked; propagating is the only sound option
                *slots[i].lock().expect("shard slot poisoned") = Some(res);
            }
        });
        let mut out = Vec::with_capacity(ranges.len());
        for slot in slots {
            let res = slot
                .into_inner()
                // lint:allow(analyzer-panic): same poisoning argument as above
                .expect("shard slot poisoned")
                // lint:allow(analyzer-panic): run_shards covers 0..shards, so every slot is claimed
                .expect("every shard slot claimed");
            out.push(res?);
        }
        Ok(out)
    }

    /// Streams every event through `f` **in trace order** while blocks
    /// decode in parallel on `runner`, as one pipelined pass.
    ///
    /// Shard 0, on the calling thread, is the folder: it consumes blocks
    /// strictly in block order and, whenever its next block is not ready
    /// yet, decodes the next unclaimed block itself instead of idling. The
    /// other shards decode ahead, at most `2 × shards` blocks past the fold
    /// position, so memory stays bounded by that window (≈ `2 × shards ×
    /// 4096` events) however large the trace is. The fold sees the exact
    /// event sequence a sequential reader would, so any analyzer fold
    /// driven through here is byte-identical to its materialized twin by
    /// construction.
    ///
    /// No wait can deadlock (DESIGN.md §14.2): the folder only waits for a
    /// block another worker has claimed, a worker never waits while it
    /// holds a claim, and decode-ahead workers wait only for the window,
    /// which the folder — first on the calling thread — opens as it folds.
    ///
    /// # Errors
    /// The first decode error in block order; the workers stop claiming
    /// blocks past it.
    pub fn fold_events<F>(&self, runner: &dyn ShardRunner, shards: usize, f: F) -> io::Result<()>
    where
        F: FnMut(&TraceEvent) + Send,
    {
        let n = self.blocks.len();
        if n == 0 {
            return Ok(());
        }
        let shards = shards.max(1);
        let pipe = Pipeline {
            state: Mutex::new(PipeState {
                next: 0,
                limit: n,
                fold_pos: 0,
                ready: (0..2 * shards).map(|_| None).collect(),
                stop: false,
            }),
            changed: Condvar::new(),
        };
        let fold = Mutex::new(f);
        let outcome: Mutex<Option<io::Result<()>>> = Mutex::new(None);
        runner.run_shards(shards.min(n), &|shard| {
            let mut worker = simobs::span::span("shard", "worker");
            if shard == 0 {
                let mut f = lock(&fold);
                let res = self.fold_in_order(&pipe, &mut *f, &mut worker);
                *lock(&outcome) = Some(res);
            } else {
                self.decode_ahead(&pipe, &mut worker);
            }
        });
        outcome
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .unwrap_or_else(|| Err(setl3::bad("the shard runner never ran shard 0")))
    }

    /// The folder's loop in [`ShardedTrace::fold_events`].
    fn fold_in_order<F: FnMut(&TraceEvent)>(
        &self,
        pipe: &Pipeline,
        f: &mut F,
        worker: &mut simobs::span::Span,
    ) -> io::Result<()> {
        // However the fold ends, release the decoders.
        let _stop = StopGuard { pipe, always: true };
        let n = self.blocks.len();
        let mut st = pipe.lock();
        while st.fold_pos < n {
            let slot = st.fold_pos % st.ready.len();
            if let Some(decoded) = st.ready[slot].take() {
                st.fold_pos += 1;
                drop(st);
                pipe.changed.notify_all();
                for ev in &decoded? {
                    f(ev);
                }
                st = pipe.lock();
            } else if let Some(b) = st.claim() {
                drop(st);
                let decoded = self.decode_claimed(b, worker);
                st = pipe.lock();
                st.deposit(b, decoded);
            } else if st.stop {
                return Err(setl3::bad("a block decode worker panicked"));
            } else {
                st = pipe.wait(st);
            }
        }
        Ok(())
    }

    /// A decode-ahead worker's loop in [`ShardedTrace::fold_events`].
    fn decode_ahead(&self, pipe: &Pipeline, worker: &mut simobs::span::Span) {
        // A panicking decode must not leave the folder waiting for its block.
        let _stop = StopGuard {
            pipe,
            always: false,
        };
        let mut st = pipe.lock();
        loop {
            if let Some(b) = st.claim() {
                drop(st);
                let decoded = self.decode_claimed(b, worker);
                st = pipe.lock();
                st.deposit(b, decoded);
                pipe.changed.notify_all();
            } else if st.stop || st.next >= st.limit {
                return;
            } else {
                st = pipe.wait(st);
            }
        }
    }

    /// Decodes one claimed block under a `shard/decode` span.
    fn decode_claimed(
        &self,
        b: usize,
        worker: &mut simobs::span::Span,
    ) -> io::Result<Vec<TraceEvent>> {
        worker.add_events(1);
        let mut sp = simobs::span::span("shard", "decode");
        sp.add_events(self.blocks[b].records);
        sp.add_bytes(self.blocks[b].len as u64);
        self.decode_block(b)
    }

    /// The pids whose image name starts with `prefix` (case-insensitive) —
    /// the streaming twin of `EtlTrace::pids_by_name`, computed by a
    /// parallel sweep for `ProcessStart` records.
    ///
    /// # Errors
    /// Any block decode error.
    pub fn pids_by_name(
        &self,
        runner: &dyn ShardRunner,
        shards: usize,
        prefix: &str,
    ) -> io::Result<PidSet> {
        let prefix = prefix.to_ascii_lowercase();
        let per_shard = self.map_block_ranges(runner, shards, |_, range| {
            let mut pids: Vec<u64> = Vec::new();
            for b in range {
                let mut c = self.cursor(b)?;
                while let Some(ev) = c.next_event()? {
                    if let TraceEvent::ProcessStart { pid, name, .. } = &ev {
                        if name.to_ascii_lowercase().starts_with(&prefix) {
                            pids.push(*pid);
                        }
                    }
                }
            }
            Ok(pids)
        })?;
        Ok(per_shard.into_iter().flatten().collect())
    }
}

/// Shared state of one [`ShardedTrace::fold_events`] pass.
struct Pipeline {
    state: Mutex<PipeState>,
    /// Signalled when a decoded block lands or the fold position moves.
    changed: Condvar,
}

struct PipeState {
    /// The next block no worker has claimed.
    next: usize,
    /// Claims stop here: the block count, or one past the first block
    /// whose decode failed.
    limit: usize,
    /// The block the folder consumes next.
    fold_pos: usize,
    /// Decoded blocks waiting for the fold, at `block % ready.len()`; the
    /// length is the decode-ahead window.
    ready: Vec<Option<io::Result<Vec<TraceEvent>>>>,
    /// Set when the fold ends (done, failed or unwinding) or a decoder
    /// unwinds: no further claims.
    stop: bool,
}

impl PipeState {
    /// Claims the next block if it is inside the window and before the
    /// limit.
    fn claim(&mut self) -> Option<usize> {
        let b = self.next;
        let open = !self.stop && b < self.limit && b < self.fold_pos + self.ready.len();
        open.then(|| {
            self.next += 1;
            b
        })
    }

    /// Parks a decoded block for the folder; a failed decode caps the
    /// claims at that block.
    fn deposit(&mut self, b: usize, decoded: io::Result<Vec<TraceEvent>>) {
        if decoded.is_err() {
            self.limit = self.limit.min(b + 1);
        }
        let slot = b % self.ready.len();
        self.ready[slot] = Some(decoded);
    }
}

impl Pipeline {
    fn lock(&self) -> MutexGuard<'_, PipeState> {
        lock(&self.state)
    }

    fn wait<'a>(&self, st: MutexGuard<'a, PipeState>) -> MutexGuard<'a, PipeState> {
        self.changed
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Stops the pipeline when dropped: always for the folder, and only while
/// unwinding for a decoder.
struct StopGuard<'a> {
    pipe: &'a Pipeline,
    always: bool,
}

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        if self.always || std::thread::panicking() {
            self.pipe.lock().stop = true;
            self.pipe.changed.notify_all();
        }
    }
}

/// Locks `m`, ignoring poisoning: a worker that panicked while holding a
/// lock re-raises its panic to the caller through the runner anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// In-place decoder over one block's bytes: borrows the shared buffer and
/// carries a private clock state seeded from the index snapshot. Created by
/// [`ShardedTrace::cursor`], which verifies the block's 64-bit FNV-1a hash
/// up front — that hash covers every record byte *and* every per-record
/// check byte, so the cursor consumes check bytes without recomputing them
/// (the flat [`crate::setl3::V3Stream`] reader, which has no index to lean
/// on, still validates each one).
pub struct BlockCursor<'a> {
    buf: &'a [u8],
    strings: &'a [String],
    clocks: Clocks,
    remaining: u64,
}

impl BlockCursor<'_> {
    /// The next event in the block, or `None` after the last record.
    ///
    /// # Errors
    /// `InvalidData` for malformed records or trailing bytes after the
    /// declared record count. Corruption never reaches this point: the
    /// block hash check at cursor creation rejects it wholesale.
    pub fn next_event(&mut self) -> io::Result<Option<TraceEvent>> {
        if self.remaining == 0 {
            if !self.buf.is_empty() {
                return Err(setl3::bad("trailing bytes after block records"));
            }
            return Ok(None);
        }
        let ev = setl3::decode_event(&mut self.buf, self.strings, &mut self.clocks)?;
        let mut check = [0u8; 1];
        self.buf.read_exact(&mut check)?;
        self.remaining -= 1;
        Ok(Some(ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ThreadKey, TraceBuilder};
    use crate::setl3::{encode, BLOCK_RECORDS};

    fn big_trace(n: usize) -> crate::event::EtlTrace {
        let mut b = TraceBuilder::new(4);
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 1,
            name: "app.exe".into(),
        });
        let key = ThreadKey { pid: 1, tid: 10 };
        for i in 0..n {
            b.push(TraceEvent::CSwitch {
                at: SimTime::from_nanos(i as u64 * 500 + 1),
                cpu: i % 4,
                old: if i % 2 == 0 { None } else { Some(key) },
                new: if i % 2 == 0 { Some(key) } else { None },
                ready_since: None,
            });
        }
        b.finish(SimTime::ZERO, SimTime::from_nanos(n as u64 * 500 + 1000))
    }

    #[test]
    fn sharded_blocks_reassemble_the_exact_event_sequence() {
        let n = (BLOCK_RECORDS * 2 + 100) as usize;
        let trace = big_trace(n);
        let buf = encode(&trace);
        let sharded = ShardedTrace::from_bytes(buf).unwrap();
        assert_eq!(sharded.count(), trace.events().len() as u64);
        assert_eq!(sharded.n_blocks(), 3);
        let mut rebuilt = Vec::new();
        for b in 0..sharded.n_blocks() {
            rebuilt.extend(sharded.decode_block(b).unwrap());
        }
        assert_eq!(&rebuilt, trace.events());
        // And the streaming fold sees the same order.
        let mut folded = Vec::new();
        sharded
            .fold_events(&SerialShards, 4, |ev| folded.push(ev.clone()))
            .unwrap();
        assert_eq!(&folded, trace.events());
    }

    #[test]
    fn rev1_and_flat_streams_are_rejected_with_distinct_errors() {
        let mut rev1 = encode(&big_trace(8));
        rev1[5] = REV1;
        let err = ShardedTrace::from_bytes(rev1).unwrap_err();
        assert!(err.to_string().contains("revision 1"), "{err}");

        let mut flat = Vec::new();
        crate::etl::write_etl(&big_trace(8), &mut flat).unwrap();
        let err = ShardedTrace::from_bytes(flat).unwrap_err();
        assert!(err.to_string().contains("v1/v2"), "{err}");
    }

    #[test]
    fn every_flip_outside_the_trailer_is_detected_by_some_shard() {
        let trace = big_trace((BLOCK_RECORDS + 50) as usize);
        let buf = encode(&trace);
        // The sharded path never folds the file trailer's own 8 bytes; any
        // flip in header, records or index must fail indexing or decoding.
        for i in 0..buf.len() - 8 {
            let mut mutated = buf.clone();
            mutated[i] ^= 0x40;
            let failed = match ShardedTrace::from_bytes(mutated) {
                Err(_) => true,
                Ok(s) => (0..s.n_blocks()).any(|b| s.decode_block(b).is_err()),
            };
            assert!(
                failed,
                "flip at byte {i} went undetected on the sharded path"
            );
        }
    }

    #[test]
    fn window_seek_finds_exactly_the_overlapping_blocks() {
        let n = (BLOCK_RECORDS * 4 + 200) as usize;
        let trace = big_trace(n);
        let sharded = ShardedTrace::from_bytes(encode(&trace)).unwrap();
        assert_eq!(
            sharded.blocks_in_window(sharded.start(), sharded.end()),
            0..sharded.n_blocks()
        );
        let beyond = SimTime::from_nanos(sharded.end().as_nanos() + 1);
        assert!(sharded.blocks_in_window(beyond, beyond).is_empty());
        // A window over the middle of the trace: every in-window event must
        // live in a returned block, and no other block may contain one.
        let lo = SimTime::from_nanos(n as u64 * 500 / 2);
        let hi = SimTime::from_nanos(n as u64 * 500 * 3 / 4);
        let range = sharded.blocks_in_window(lo, hi);
        assert!(!range.is_empty() && range.len() < sharded.n_blocks());
        let mut in_window = 0usize;
        for b in 0..sharded.n_blocks() {
            let hits = sharded
                .decode_block(b)
                .unwrap()
                .iter()
                .filter(|ev| (lo..=hi).contains(&ev.at()))
                .count();
            if range.contains(&b) {
                in_window += hits;
            } else {
                assert_eq!(
                    hits, 0,
                    "block {b} outside {range:?} holds in-window events"
                );
            }
        }
        let expected = trace
            .events()
            .iter()
            .filter(|ev| (lo..=hi).contains(&ev.at()))
            .count();
        assert_eq!(in_window, expected);
    }

    #[test]
    fn shard_ranges_cover_all_blocks_contiguously() {
        let trace = big_trace((BLOCK_RECORDS * 5) as usize);
        let sharded = ShardedTrace::from_bytes(encode(&trace)).unwrap();
        for shards in 1..=8 {
            let ranges = sharded.shard_ranges(shards);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, sharded.n_blocks());
        }
    }

    #[test]
    fn pids_by_name_matches_the_materialized_filter() {
        let trace = big_trace(100);
        let sharded = ShardedTrace::from_bytes(encode(&trace)).unwrap();
        assert_eq!(
            sharded.pids_by_name(&SerialShards, 2, "APP").unwrap(),
            trace.pids_by_name("APP")
        );
        assert_eq!(
            sharded.pids_by_name(&SerialShards, 2, "other").unwrap(),
            trace.pids_by_name("other")
        );
    }

    /// A multi-block trace exercising every analyzer at once: context
    /// switches, blocking waits of all reasons, GPU packet lifecycles,
    /// frames, and thread churn across two processes.
    fn rich_trace() -> crate::event::EtlTrace {
        use crate::event::WaitReason;
        let mut b = TraceBuilder::new(4);
        for (pid, name) in [(1u64, "app.exe"), (2, "other.exe")] {
            b.push(TraceEvent::ProcessStart {
                at: SimTime::ZERO,
                pid,
                name: name.into(),
            });
        }
        let key = |i: usize| ThreadKey {
            pid: 1 + (i % 2) as u64,
            tid: 10 + (i % 6) as u64,
        };
        for i in 0..6 {
            b.push(TraceEvent::ThreadStart {
                at: SimTime::ZERO,
                key: key(i),
                name: format!("t{i}"),
            });
        }
        let n = (BLOCK_RECORDS * 2 + 333) as usize;
        for i in 0..n {
            let at = SimTime::from_nanos(i as u64 * 700 + 1);
            let ev = match i % 11 {
                0 => TraceEvent::CSwitch {
                    at,
                    cpu: i % 4,
                    old: None,
                    new: Some(key(i)),
                    ready_since: Some(SimTime::from_nanos(i as u64 * 700)),
                },
                1 => TraceEvent::WaitBegin {
                    at,
                    key: key(i + 1),
                    reason: WaitReason::Event { id: (i % 5) as u64 },
                },
                2 => TraceEvent::WaitEnd {
                    at,
                    key: key(i + 1),
                    reason: WaitReason::Event { id: (i % 5) as u64 },
                    waker: Some(key(i)),
                },
                3 => TraceEvent::GpuSubmit {
                    at,
                    key: key(i),
                    gpu: 0,
                    packet: i as u64,
                },
                4 => TraceEvent::GpuStart {
                    at,
                    gpu: 0,
                    engine: (i % 3) as u32,
                    packet: (i - 1) as u64,
                    pid: 1,
                },
                5 => TraceEvent::GpuEnd {
                    at,
                    gpu: 0,
                    engine: (i % 3) as u32,
                    packet: (i - 1) as u64,
                    pid: 1,
                },
                6 => TraceEvent::CSwitch {
                    at,
                    cpu: i % 4,
                    old: Some(key(i)),
                    new: None,
                    ready_since: None,
                },
                7 => TraceEvent::WaitBegin {
                    at,
                    key: key(i + 2),
                    reason: WaitReason::Sleep,
                },
                8 => TraceEvent::WaitBegin {
                    at,
                    key: key(i + 3),
                    reason: WaitReason::Gpu {
                        gpu: 0,
                        packet: (i / 11 * 11 + 3) as u64,
                    },
                },
                9 => TraceEvent::WaitEnd {
                    at,
                    key: key(i + 3),
                    reason: WaitReason::Gpu {
                        gpu: 0,
                        packet: (i / 11 * 11 + 3) as u64,
                    },
                    waker: None,
                },
                _ => TraceEvent::Frame { at, pid: 1 },
            };
            b.push(ev);
        }
        b.finish(SimTime::ZERO, SimTime::from_nanos(n as u64 * 700 + 1000))
    }

    #[test]
    fn every_sharded_analyzer_matches_its_materialized_twin() {
        let trace = rich_trace();
        let sharded = ShardedTrace::from_bytes(encode(&trace)).unwrap();
        assert!(sharded.n_blocks() >= 3);
        let filter = trace.pids_by_name("app");
        let opts = crate::hb::HbOptions::default();
        for shards in [1usize, 2, 4, 7] {
            assert_eq!(
                crate::verify::verify_sharded(&sharded, &SerialShards, shards).unwrap(),
                crate::verify::verify_trace(&trace),
                "verify diverged at {shards} shards"
            );
            assert_eq!(
                crate::hb::analyze_sharded(&sharded, &opts, &SerialShards, shards).unwrap(),
                crate::hb::analyze(&trace, &opts),
                "hb diverged at {shards} shards"
            );
            assert_eq!(
                crate::blame::blame_sharded(&sharded, &filter, &SerialShards, shards).unwrap(),
                crate::blame::blame(&trace, &filter),
                "blame diverged at {shards} shards"
            );
            let cp_sharded =
                crate::critical::critical_path_sharded(&sharded, &filter, &SerialShards, shards)
                    .unwrap();
            let cp = crate::critical::critical_path(&trace, &filter);
            assert_eq!(cp_sharded, cp, "critical path diverged at {shards} shards");
            assert_eq!(
                cp_sharded.measured_tlp.to_bits(),
                cp.measured_tlp.to_bits(),
                "measured TLP diverged at {shards} shards"
            );
            assert_eq!(
                crate::timeline::timeline_sharded(&sharded, 48, &SerialShards, shards).unwrap(),
                crate::timeline::fold_trace(&trace, 48),
                "timeline diverged at {shards} shards"
            );
        }
    }
}
