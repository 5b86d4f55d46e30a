//! Node-range sharding of the CSR substrate, in RAM and out of core.
//!
//! A [`ShardPlan`] cuts the node range `0..n` into contiguous shards.
//! A [`ShardStore`] holds adjacency along a plan, in one of two places:
//!
//! * [`RamShards`] — one owned CSR array pair in RAM, handed out shard
//!   by shard as zero-copy [`ShardView`] windows (offsets kept absolute,
//!   `base = offsets[start]`). A one-shard plan is the monolithic case.
//! * [`SpillSink`] / [`DiskShards`] — the out-of-core path. Generators
//!   stream `(u64, u64)` edge runs into per-shard spill files under a
//!   scratch directory (each undirected edge written once per endpoint
//!   shard, so cross-shard edges appear in both buckets); `finalize`
//!   counting-sorts each bucket into a rebased CSR segment file, shard
//!   by shard in ascending index order, and [`DiskShards::load`] reads
//!   one segment at a time into a reusable [`ShardScratch`] (`base = 0`)
//!   so peak RSS stays near one shard.
//!
//! Both serve the same [`ShardView`] type, so the engine frontier passes
//! are written once against [`ShardStore`] and its [`PassLoader`].
//!
//! Sharding never changes outcomes: the engines' coin tapes address
//! coins by `(site, lane)` — pure functions of the trial seed — so the
//! order in which shards replay a round's frontier cannot change any
//! draw. See DESIGN.md for the full argument.

use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::mem;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Once};
use std::thread;

use crate::csr::{CsrError, MAX_INDEX};
use crate::Graph;

/// A failure while building or reading sharded adjacency: either the
/// edge stream was invalid (typed [`CsrError`]) or the spill/segment IO
/// failed.
#[derive(Debug)]
pub enum ShardError {
    /// The edge stream violated the CSR invariants.
    Graph(CsrError),
    /// IO failed outside any particular segment (e.g. creating the
    /// scratch directory). Per-segment failures carry their shard index
    /// and path via [`ShardError::SegmentIo`].
    Io(io::Error),
    /// Reading or writing one shard's spill bucket or segment file
    /// failed, with the shard index and file path attached.
    SegmentIo {
        /// Shard whose file failed.
        shard: usize,
        /// The spill bucket or segment file involved.
        path: PathBuf,
        /// The underlying IO error.
        source: io::Error,
    },
    /// A segment file's header disagreed with the plan or with the
    /// metadata recorded at finalize time — the file is truncated,
    /// overwritten, or from another run.
    SegmentCorrupt {
        /// Shard whose segment failed validation.
        shard: usize,
        /// The segment file involved.
        path: PathBuf,
        /// Which header field disagreed.
        what: &'static str,
        /// The value the plan/metadata requires.
        expected: u64,
        /// The value found in the file.
        found: u64,
    },
    /// A segment file ended before its header-declared payload.
    SegmentTruncated {
        /// Shard whose segment ended early.
        shard: usize,
        /// The segment file involved.
        path: PathBuf,
    },
    /// A spill bucket's byte length was not a whole number of 8-byte
    /// edge records — the spill was torn mid-write.
    TornSpill {
        /// Shard whose bucket was torn.
        shard: usize,
        /// The spill bucket involved.
        path: PathBuf,
        /// Residual bytes past the last whole record.
        trailing: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Graph(e) => write!(f, "{e}"),
            ShardError::Io(e) => write!(f, "shard spill IO: {e}"),
            ShardError::SegmentIo {
                shard,
                path,
                source,
            } => write!(f, "segment {shard} ({}): {source}", path.display()),
            ShardError::SegmentCorrupt {
                shard,
                path,
                what,
                expected,
                found,
            } => write!(
                f,
                "segment {shard} ({}): {what} mismatch (expected {expected}, found {found})",
                path.display()
            ),
            ShardError::SegmentTruncated { shard, path } => {
                write!(
                    f,
                    "segment {shard} ({}): file ended before declared payload",
                    path.display()
                )
            }
            ShardError::TornSpill {
                shard,
                path,
                trailing,
            } => {
                write!(
                    f,
                    "spill bucket {shard} ({}) torn: {trailing} trailing bytes",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<CsrError> for ShardError {
    fn from(e: CsrError) -> Self {
        ShardError::Graph(e)
    }
}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// A contiguous partition of the node range `0..n` into shards.
///
/// Shard `s` owns nodes `bounds[s]..bounds[s + 1]`; ranges are balanced
/// to within one node. The plan is tiny (one `u32` per shard) and is
/// shared by every sharded structure and pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardPlan {
    bounds: Vec<u32>,
}

impl ShardPlan {
    /// Cuts `0..n` into `shards` balanced contiguous ranges. `shards`
    /// is clamped to `1..=n`, so every shard is non-empty.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the usable `u32` range.
    #[must_use]
    pub fn uniform(n: usize, shards: usize) -> Self {
        assert!(n > 0, "graph must have at least one node");
        assert!(n as u64 <= MAX_INDEX, "node count exceeds u32");
        let k = shards.clamp(1, n);
        let mut bounds = Vec::with_capacity(k + 1);
        for s in 0..=k {
            bounds.push((s as u64 * n as u64 / k as u64) as u32);
        }
        ShardPlan { bounds }
    }

    /// The smallest uniform plan whose largest shard fits
    /// `budget_bytes` of resident CSR data (`4` bytes per adjacency
    /// entry plus `4` per row offset), given an estimate of the total
    /// directed adjacency volume. Capped at 1024 shards.
    #[must_use]
    pub fn for_budget(n: usize, adjacency_entries: u64, budget_bytes: u64) -> Self {
        let mut k = 1usize;
        while k < 1024 {
            let rows = (n as u64).div_ceil(k as u64);
            let entries = adjacency_entries.div_ceil(k as u64);
            if entries * 4 + (rows + 1) * 4 <= budget_bytes {
                break;
            }
            k *= 2;
        }
        ShardPlan::uniform(n, k)
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of nodes `n` covered by the plan.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.bounds[self.bounds.len() - 1] as usize
    }

    /// The `[start, end)` node range of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= shard_count()`.
    #[inline]
    #[must_use]
    pub fn range(&self, s: usize) -> (u32, u32) {
        (self.bounds[s], self.bounds[s + 1])
    }

    /// The shard owning node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, v: u32) -> usize {
        assert!((v as usize) < self.node_count(), "node out of range");
        if self.bounds.len() == 2 {
            return 0;
        }
        self.bounds.partition_point(|&b| b <= v) - 1
    }

    /// The shard boundaries (`shard_count() + 1` entries, first `0`,
    /// last `n`).
    #[must_use]
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }
}

/// A borrowed window over one shard's CSR rows.
///
/// `offsets` has one entry per row plus one; entry values are absolute
/// positions minus `base`, so the same accessor body serves a slice of
/// a monolithic graph (`base = offsets[start]`, targets sliced to the
/// shard) and a rebased disk segment (`base = 0`). Target ids remain
/// **global**: a row may name nodes in other shards (the cut edges).
#[derive(Clone, Copy, Debug)]
pub struct ShardView<'a> {
    start: u32,
    end: u32,
    offsets: &'a [u32],
    base: u32,
    targets: &'a [u32],
}

impl<'a> ShardView<'a> {
    /// A view of rows `start..end` from explicit parts. `offsets` must
    /// hold `end - start + 1` entries; `targets` must span exactly the
    /// shard's adjacency (`offsets[last] - base` entries).
    ///
    /// # Panics
    ///
    /// Panics if the parts are inconsistent.
    #[inline]
    #[must_use]
    pub fn from_parts(
        start: u32,
        end: u32,
        offsets: &'a [u32],
        base: u32,
        targets: &'a [u32],
    ) -> Self {
        assert_eq!(offsets.len(), (end - start) as usize + 1, "offsets length");
        assert_eq!(offsets[0], base, "first offset must equal the base");
        assert_eq!(
            (offsets[offsets.len() - 1] - base) as usize,
            targets.len(),
            "targets length"
        );
        ShardView {
            start,
            end,
            offsets,
            base,
            targets,
        }
    }

    /// A view of rows `start..end` of a monolithic CSR array pair — the
    /// in-RAM sharding path, no copies.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    #[must_use]
    pub fn over(offsets: &'a [u32], targets: &'a [u32], start: u32, end: u32) -> Self {
        let base = offsets[start as usize];
        ShardView::from_parts(
            start,
            end,
            &offsets[start as usize..=end as usize],
            base,
            &targets[base as usize..offsets[end as usize] as usize],
        )
    }

    /// First node id in the shard (inclusive).
    #[must_use]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One past the last node id in the shard.
    #[must_use]
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Number of rows in the shard.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the shard holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether node `v` belongs to this shard.
    #[inline]
    #[must_use]
    pub fn contains(&self, v: u32) -> bool {
        self.start <= v && v < self.end
    }

    /// The sorted neighbor list of node `v` (global ids — may leave the
    /// shard).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the shard.
    #[inline]
    #[must_use]
    pub fn targets_of(&self, v: u32) -> &'a [u32] {
        let local = (v - self.start) as usize;
        let lo = (self.offsets[local] - self.base) as usize;
        let hi = (self.offsets[local + 1] - self.base) as usize;
        &self.targets[lo..hi]
    }

    /// The degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the shard.
    #[must_use]
    pub fn degree(&self, v: u32) -> usize {
        self.targets_of(v).len()
    }

    /// Total adjacency entries in the shard.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.targets.len()
    }
}

/// The in-RAM store: one owned CSR array pair, viewed shard by shard
/// through zero-copy [`ShardView::over`] windows. The arrays may be
/// undirected adjacency or directed child lists (a BFS tree's), and a
/// one-shard plan is the monolithic case — re-planning only swaps the
/// plan, never the arrays.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RamShards {
    plan: ShardPlan,
    /// `n + 1` row boundaries into `targets`.
    offsets: Vec<u32>,
    /// Concatenated sorted target lists (global ids).
    targets: Vec<u32>,
}

impl RamShards {
    /// Wraps the CSR arrays `(offsets, targets)` under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different node count or `targets`
    /// does not end at the last offset.
    #[must_use]
    pub fn new(offsets: Vec<u32>, targets: Vec<u32>, plan: ShardPlan) -> Self {
        assert_eq!(
            offsets.len(),
            plan.node_count() + 1,
            "plan/graph node count mismatch"
        );
        assert_eq!(
            offsets[offsets.len() - 1] as usize,
            targets.len(),
            "targets length"
        );
        RamShards {
            plan,
            offsets,
            targets,
        }
    }

    /// Takes a graph's CSR arrays, without copying, under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different node count.
    #[must_use]
    pub fn from_graph(graph: Graph, plan: ShardPlan) -> Self {
        let (offsets, targets) = graph.into_raw_parts();
        RamShards::new(offsets, targets, plan)
    }

    /// The same arrays under another plan over the same nodes.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different node count.
    #[must_use]
    pub fn with_plan(self, plan: ShardPlan) -> Self {
        RamShards::new(self.offsets, self.targets, plan)
    }

    /// The shard plan the views follow.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// A zero-copy view of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= shard_count()`.
    #[inline]
    #[must_use]
    pub fn view(&self, s: usize) -> ShardView<'_> {
        let (start, end) = self.plan.range(s);
        ShardView::over(&self.offsets, &self.targets, start, end)
    }

    /// The target list of node `v`, read from the whole arrays.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    #[must_use]
    pub fn targets_of(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The row-boundary array (`n + 1` entries).
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The concatenated target lists.
    #[must_use]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }
}

/// Reusable buffers for streaming one disk segment at a time: one
/// shard's rebased offsets and targets plus a bounded byte buffer for
/// IO decoding. Reusing the scratch across shard loads keeps peak RSS
/// at roughly the largest shard.
#[derive(Default)]
pub struct ShardScratch {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    buf: Vec<u8>,
}

impl ShardScratch {
    /// An empty scratch; buffers grow to the largest shard loaded.
    #[must_use]
    pub fn new() -> Self {
        ShardScratch::default()
    }
}

/// Bounded decode buffer: stream `words` little-endian `u32`s from
/// `reader` into `out` without buffering the whole payload.
///
/// Both `out` and `buf` keep their allocations across calls: `buf` is
/// pinned at the chunk size once, and `out` is only re-zeroed where it
/// grows past its previous length, so back-to-back loads of same-sized
/// segments never touch memory they are not about to overwrite.
fn read_words(
    reader: &mut impl Read,
    out: &mut Vec<u32>,
    words: usize,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    const CHUNK: usize = 1 << 20;
    if buf.len() < CHUNK {
        buf.resize(CHUNK, 0);
    }
    if out.len() > words {
        out.truncate(words);
    } else {
        out.resize(words, 0);
    }
    let mut done = 0usize;
    while done < words {
        let take = (words - done).min(CHUNK / 4);
        let bytes = &mut buf[..take * 4];
        reader.read_exact(bytes)?;
        for (o, c) in out[done..done + take].iter_mut().zip(bytes.chunks_exact(4)) {
            *o = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        done += take;
    }
    Ok(())
}

fn read_u64(reader: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    reader.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// A consumer of streamed undirected edges — the seam between the
/// random-graph generators and whatever holds the edges: an in-RAM
/// `(u32, u32)` list for [`Graph::from_edges`], or a [`SpillSink`]
/// for the out-of-core path. Generators emit each unordered pair
/// exactly once (duplicates from overlaying families are allowed and
/// merge downstream).
pub trait EdgeSink {
    /// Consumes one undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the edge is invalid for the sink or
    /// spilling it fails; in-RAM sinks are infallible.
    fn edge(&mut self, u: u64, v: u64) -> Result<(), ShardError>;
}

impl EdgeSink for SpillSink {
    fn edge(&mut self, u: u64, v: u64) -> Result<(), ShardError> {
        self.push(u, v)
    }
}

/// The in-RAM sink: an endpoint past the `u32` word is the typed
/// [`CsrError::EndpointOverflow`], never a truncation.
impl EdgeSink for Vec<(u32, u32)> {
    fn edge(&mut self, u: u64, v: u64) -> Result<(), ShardError> {
        if let Some(endpoint) = [u, v].into_iter().find(|&e| e > MAX_INDEX) {
            return Err(ShardError::Graph(CsrError::EndpointOverflow {
                endpoint,
                max: MAX_INDEX,
            }));
        }
        // Both endpoints fit the word, so the narrowing is exact.
        self.push((u as u32, v as u32));
        Ok(())
    }
}

/// Monotonic suffix so concurrent sinks in one process never share a
/// scratch directory.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// The parent of every [`default_scratch_dir`].
const SCRATCH_ROOT: &str = "out/shard-scratch";

/// Guards the once-per-process [`sweep_dead_scratch`] of
/// [`SCRATCH_ROOT`].
static SCRATCH_SWEEP: Once = Once::new();

/// A process-unique scratch directory under `out/` for spill and
/// segment files (not created yet). Spill artifacts are transient: the
/// whole `out/` tree is gitignored. `Drop` removes a store's directory
/// on unwind, but a killed process leaves its directories behind, so
/// the first call in a process also removes the `pid<P>-<k>` siblings
/// of processes that no longer exist (see `sweep_dead_scratch`).
#[must_use]
pub fn default_scratch_dir() -> PathBuf {
    SCRATCH_SWEEP.call_once(|| sweep_dead_scratch(Path::new(SCRATCH_ROOT)));
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    Path::new(SCRATCH_ROOT).join(format!("pid{}-{}", std::process::id(), seq))
}

/// Removes every `pid<P>-<k>` directory directly under `root` whose
/// process `P` is gone, judged by `/proc/<P>`. Entries of live
/// processes and entries of any other name are left alone, and nothing
/// is removed where `/proc/self` is absent (no procfs to ask). A
/// process in another pid namespace looks dead from here, so scratch
/// roots must not be shared across containers. Errors are ignored: an
/// entry that cannot be read or removed is left for the next sweep.
fn sweep_dead_scratch(root: &Path) {
    let proc = Path::new("/proc");
    if !proc.join("self").exists() {
        return;
    }
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(scratch_dir_pid) else {
            continue;
        };
        if !proc.join(pid.to_string()).exists() {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
}

/// The pid `P` of a `pid<P>-<k>` scratch directory name.
fn scratch_dir_pid(name: &str) -> Option<u32> {
    let (pid, seq) = name.strip_prefix("pid")?.split_once('-')?;
    seq.parse::<u64>().ok()?;
    pid.parse().ok()
}

/// The streaming edge collector of the out-of-core path.
///
/// `push(u, v)` validates each endpoint against the `u32` word (typed
/// [`CsrError`]s — never a silent truncation) and appends the directed
/// half-edge to the spill bucket of each endpoint's shard, so a
/// cross-shard edge lands in both buckets: the buckets *are* the
/// cut-edge lists of the on-disk format. `finalize` then counting-sorts
/// each bucket into a rebased CSR segment file, in ascending shard
/// order, holding only one shard's adjacency in RAM at a time.
pub struct SpillSink {
    plan: ShardPlan,
    dir: PathBuf,
    writers: Vec<BufWriter<File>>,
    half_edges: Vec<u64>,
    /// Directed sinks record each `(u, v)` push once, in `u`'s bucket
    /// only — the tree-segment layout, where row `u` lists `u`'s
    /// children.
    directed: bool,
}

impl SpillSink {
    /// Opens one spill bucket per shard under `dir` (created if
    /// missing).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Io`] if the directory or bucket files
    /// cannot be created.
    pub fn create(dir: impl AsRef<Path>, plan: ShardPlan) -> Result<Self, ShardError> {
        Self::create_inner(dir, plan, false)
    }

    /// Opens a *directed* sink: each pushed `(u, v)` lands only in
    /// `u`'s shard bucket, so the finalized segments form a directed
    /// CSR (row `u` = the targets pushed from `u`, sorted, deduped) —
    /// the on-disk layout of a BFS tree's child lists.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Io`] if the directory or bucket files
    /// cannot be created.
    pub fn create_directed(dir: impl AsRef<Path>, plan: ShardPlan) -> Result<Self, ShardError> {
        Self::create_inner(dir, plan, true)
    }

    fn create_inner(
        dir: impl AsRef<Path>,
        plan: ShardPlan,
        directed: bool,
    ) -> Result<Self, ShardError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let k = plan.shard_count();
        let mut writers = Vec::with_capacity(k);
        for s in 0..k {
            let file = File::create(dir.join(format!("spill_{s}.bin")))?;
            writers.push(BufWriter::new(file));
        }
        Ok(SpillSink {
            plan,
            dir,
            writers,
            half_edges: vec![0; k],
            directed,
        })
    }

    /// The shard plan the sink spills along.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Streams one undirected edge into the spill buckets.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CsrError`] for endpoints past the `u32` word,
    /// out-of-range endpoints, or self-loops; [`ShardError::SegmentIo`]
    /// (with the bucket's shard index and path) if a bucket write
    /// fails.
    pub fn push(&mut self, u: u64, v: u64) -> Result<(), ShardError> {
        let n = self.plan.node_count() as u64;
        for e in [u, v] {
            if e > MAX_INDEX {
                return Err(CsrError::EndpointOverflow {
                    endpoint: e,
                    max: MAX_INDEX,
                }
                .into());
            }
            if e >= n {
                return Err(CsrError::OutOfRange { endpoint: e, n }.into());
            }
        }
        if u == v {
            return Err(CsrError::SelfLoop { node: u }.into());
        }
        let (u, v) = (u as u32, v as u32);
        let orientations: &[(u32, u32)] = if self.directed {
            &[(u, v)]
        } else {
            &[(u, v), (v, u)]
        };
        for &(src, dst) in orientations {
            let s = self.plan.shard_of(src);
            let mut rec = [0u8; 8];
            rec[..4].copy_from_slice(&src.to_le_bytes());
            rec[4..].copy_from_slice(&dst.to_le_bytes());
            self.writers[s]
                .write_all(&rec)
                .map_err(|source| ShardError::SegmentIo {
                    shard: s,
                    path: self.dir.join(format!("spill_{s}.bin")),
                    source,
                })?;
            self.half_edges[s] += 1;
        }
        Ok(())
    }

    /// Counting-sorts every spill bucket into its rebased CSR segment
    /// file (ascending shard order — the fixed merge order the readers
    /// rely on), deleting each bucket once consumed. Duplicate pushed
    /// edges merge, exactly like [`Graph::from_edges`].
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] on IO failure or if a shard's adjacency
    /// overflows the `u32` offset range.
    pub fn finalize(self) -> Result<DiskShards, ShardError> {
        let SpillSink {
            plan,
            dir,
            writers,
            half_edges,
            directed: _,
        } = self;
        for w in writers {
            w.into_inner()
                .map_err(|e| io::Error::other(e.to_string()))?
                .sync_all()?;
        }
        let k = plan.shard_count();
        let mut metas = Vec::with_capacity(k);
        let mut scratch = ShardScratch::new();
        let mut total_entries = 0u64;
        for (s, &shard_half_edges) in half_edges.iter().enumerate().take(k) {
            let (start, end) = plan.range(s);
            let rows = (end - start) as usize;
            let spill = dir.join(format!("spill_{s}.bin"));
            if shard_half_edges > MAX_INDEX {
                return Err(CsrError::AdjacencyOverflow { max: MAX_INDEX }.into());
            }
            // Pass 1: per-row degree from the bucket stream.
            let mut degree = vec![0u32; rows];
            stream_records(&spill, s, &mut scratch.buf, |src, _| {
                degree[(src - start) as usize] += 1;
            })?;
            let mut offsets = Vec::with_capacity(rows + 1);
            let mut acc = 0u32;
            offsets.push(0u32);
            for &d in &degree {
                acc += d;
                offsets.push(acc);
            }
            drop(degree);
            // Pass 2: scatter targets, then sort + dedup per row.
            let mut targets = vec![0u32; acc as usize];
            let mut cursor = offsets.clone();
            stream_records(&spill, s, &mut scratch.buf, |src, dst| {
                let c = &mut cursor[(src - start) as usize];
                targets[*c as usize] = dst;
                *c += 1;
            })?;
            drop(cursor);
            let mut write = 0usize;
            let mut compact = Vec::with_capacity(rows + 1);
            compact.push(0u32);
            for r in 0..rows {
                let (lo, hi) = (offsets[r] as usize, offsets[r + 1] as usize);
                targets[lo..hi].sort_unstable();
                let mut prev = None;
                for i in lo..hi {
                    let t = targets[i];
                    if prev != Some(t) {
                        targets[write] = t;
                        write += 1;
                        prev = Some(t);
                    }
                }
                compact.push(write as u32);
            }
            targets.truncate(write);
            total_entries += write as u64;
            // Segment file: [rows u64][entries u64][offsets][targets].
            let seg_path = dir.join(format!("segment_{s}.bin"));
            let seg_io = |source: io::Error| ShardError::SegmentIo {
                shard: s,
                path: seg_path.clone(),
                source,
            };
            let mut out = BufWriter::new(File::create(&seg_path).map_err(seg_io)?);
            out.write_all(&(rows as u64).to_le_bytes())
                .map_err(seg_io)?;
            out.write_all(&(write as u64).to_le_bytes())
                .map_err(seg_io)?;
            for &o in &compact {
                out.write_all(&o.to_le_bytes()).map_err(seg_io)?;
            }
            for &t in &targets {
                out.write_all(&t.to_le_bytes()).map_err(seg_io)?;
            }
            out.into_inner()
                .map_err(|e| io::Error::other(e.to_string()))
                .map_err(seg_io)?
                .sync_all()
                .map_err(seg_io)?;
            metas.push(SegmentMeta {
                rows: rows as u64,
                entries: write as u64,
            });
            fs::remove_file(&spill).map_err(|source| ShardError::SegmentIo {
                shard: s,
                path: spill.clone(),
                source,
            })?;
        }
        Ok(DiskShards {
            catalog: SegmentCatalog { plan, dir, metas },
            entry_count: total_entries,
        })
    }
}

/// Streams the 8-byte `(src, dst)` records of shard `shard`'s spill
/// bucket through `f`, using `buf` as the bounded decode buffer. IO
/// failures carry the bucket's shard index and path.
fn stream_records(
    path: &Path,
    shard: usize,
    buf: &mut Vec<u8>,
    mut f: impl FnMut(u32, u32),
) -> Result<(), ShardError> {
    const CHUNK: usize = 1 << 20;
    let seg_io = |source: io::Error| ShardError::SegmentIo {
        shard,
        path: path.to_path_buf(),
        source,
    };
    let mut file = File::open(path).map_err(seg_io)?;
    buf.resize(CHUNK, 0);
    loop {
        let mut filled = 0usize;
        while filled < CHUNK {
            let got = file.read(&mut buf[filled..]).map_err(seg_io)?;
            if got == 0 {
                break;
            }
            filled += got;
        }
        if filled == 0 {
            return Ok(());
        }
        if !filled.is_multiple_of(8) {
            return Err(ShardError::TornSpill {
                shard,
                path: path.to_path_buf(),
                trailing: filled % 8,
            });
        }
        for rec in buf[..filled].chunks_exact(8) {
            let src = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
            let dst = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
            f(src, dst);
        }
        if filled < CHUNK {
            return Ok(());
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct SegmentMeta {
    rows: u64,
    entries: u64,
}

/// Everything a reader needs to locate and validate segments: the plan,
/// the scratch directory, and the finalize-time metadata. A clone of
/// the catalog is what the prefetch worker thread owns, so background
/// reads never borrow the [`DiskShards`] that will outlive them.
#[derive(Clone)]
struct SegmentCatalog {
    plan: ShardPlan,
    dir: PathBuf,
    metas: Vec<SegmentMeta>,
}

impl SegmentCatalog {
    fn seg_path(&self, s: usize) -> PathBuf {
        self.dir.join(format!("segment_{s}.bin"))
    }

    /// Opens segment `s`, validates its header, and returns the open
    /// file positioned at the offsets payload plus the validated
    /// `(rows, entries)` pair.
    fn open_segment(&self, s: usize) -> Result<(File, u64, u64), ShardError> {
        let (start, end) = self.plan.range(s);
        let path = self.seg_path(s);
        let mut file = File::open(&path).map_err(|source| ShardError::SegmentIo {
            shard: s,
            path: path.clone(),
            source,
        })?;
        let header = |e: io::Error| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                ShardError::SegmentTruncated {
                    shard: s,
                    path: path.clone(),
                }
            } else {
                ShardError::SegmentIo {
                    shard: s,
                    path: path.clone(),
                    source: e,
                }
            }
        };
        let rows = read_u64(&mut file).map_err(header)?;
        let entries = read_u64(&mut file).map_err(header)?;
        for (what, expected, found) in [
            ("plan rows", (end - start) as u64, rows),
            ("meta rows", self.metas[s].rows, rows),
            ("meta entries", self.metas[s].entries, entries),
        ] {
            if found != expected {
                return Err(ShardError::SegmentCorrupt {
                    shard: s,
                    path: path.clone(),
                    what,
                    expected,
                    found,
                });
            }
        }
        Ok((file, rows, entries))
    }

    /// Reads segment `s` into `scratch` and returns its view — the body
    /// behind [`DiskShards::load`], shared with the prefetch worker.
    fn load<'a>(
        &self,
        s: usize,
        scratch: &'a mut ShardScratch,
    ) -> Result<ShardView<'a>, ShardError> {
        let (start, end) = self.plan.range(s);
        let (mut file, rows, entries) = self.open_segment(s)?;
        let payload = |e: io::Error| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                ShardError::SegmentTruncated {
                    shard: s,
                    path: self.seg_path(s),
                }
            } else {
                ShardError::SegmentIo {
                    shard: s,
                    path: self.seg_path(s),
                    source: e,
                }
            }
        };
        read_words(
            &mut file,
            &mut scratch.offsets,
            rows as usize + 1,
            &mut scratch.buf,
        )
        .map_err(payload)?;
        read_words(
            &mut file,
            &mut scratch.targets,
            entries as usize,
            &mut scratch.buf,
        )
        .map_err(payload)?;
        Ok(ShardView::from_parts(
            start,
            end,
            &scratch.offsets,
            0,
            &scratch.targets,
        ))
    }
}

/// The finalized out-of-core CSR: one rebased segment file per shard
/// under the scratch directory. Segments are loaded one at a time into
/// a caller-owned [`ShardScratch`]; the whole directory is removed on
/// drop.
pub struct DiskShards {
    catalog: SegmentCatalog,
    entry_count: u64,
}

impl DiskShards {
    /// The shard plan the segments follow.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.catalog.plan
    }

    /// Number of nodes across all shards.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.catalog.plan.node_count()
    }

    /// Number of undirected edges after dedup. Meaningful only for
    /// stores finalized from an undirected sink ([`SpillSink::create`]);
    /// directed tree stores count each child edge once — use
    /// [`entry_count`](Self::entry_count).
    #[must_use]
    pub fn edge_count(&self) -> u64 {
        self.entry_count / 2
    }

    /// Total adjacency entries across all segments after dedup.
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Adjacency entries of the largest shard — the resident-set
    /// high-water contribution of shard streaming.
    #[must_use]
    pub fn max_shard_entries(&self) -> u64 {
        self.catalog
            .metas
            .iter()
            .map(|m| m.entries)
            .max()
            .unwrap_or(0)
    }

    /// Reads segment `s` into `scratch` and returns its view.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] if the segment cannot be
    /// opened or read (e.g. the scratch directory vanished mid-trial),
    /// [`ShardError::SegmentCorrupt`] if the header disagrees with the
    /// plan or the finalize-time metadata, and
    /// [`ShardError::SegmentTruncated`] if the file ends before its
    /// declared payload.
    ///
    /// # Panics
    ///
    /// Panics if `s >= shard_count()`.
    pub fn load<'a>(
        &self,
        s: usize,
        scratch: &'a mut ShardScratch,
    ) -> Result<ShardView<'a>, ShardError> {
        self.catalog.load(s, scratch)
    }
}

impl Drop for DiskShards {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.catalog.dir);
    }
}

/// Where sharded adjacency lives: one CSR in RAM, or segments streamed
/// from disk. One accessor serves both, so each engine pass is written
/// once against the store.
pub enum ShardStore {
    /// One owned CSR viewed by node range (monolithic = one shard).
    Ram(RamShards),
    /// Segments streamed one at a time (the 10⁸ tier).
    Disk(DiskShards),
}

impl ShardStore {
    /// The shard plan of the underlying store.
    #[inline]
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        match self {
            ShardStore::Ram(r) => r.plan(),
            ShardStore::Disk(d) => d.plan(),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.plan().node_count()
    }

    /// A view of shard `s`, loading through `scratch` when the store is
    /// on disk (the RAM store ignores the scratch).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] if a disk segment cannot be
    /// read.
    pub fn view<'a>(
        &'a self,
        s: usize,
        scratch: &'a mut ShardScratch,
    ) -> Result<ShardView<'a>, ShardError> {
        match self {
            ShardStore::Ram(r) => Ok(r.view(s)),
            ShardStore::Disk(d) => d.load(s, scratch),
        }
    }
}

/// Positioned exact read: `pread` on unix (one syscall per coalesced
/// run, no shared cursor), seek + read elsewhere.
fn read_exact_at(file: &mut File, pos: u64, buf: &mut [u8]) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, pos)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom};
        file.seek(SeekFrom::Start(pos))?;
        file.read_exact(buf)
    }
}

/// What the prefetch reader sends back: the segment it read, the
/// buffer it read into, and whether the read succeeded. A failed read
/// still returns its buffer, so the pipe never loses one.
type FetchResult = (usize, ShardScratch, Result<(), ShardError>);

/// The background half of the prefetch pipeline: one reader thread that
/// owns a clone of the segment catalog, a command channel carrying
/// `(segment, buffer)` requests, and a result channel carrying the
/// filled buffer back.
struct Reader {
    cmd: Option<mpsc::Sender<(usize, ShardScratch)>>,
    res: mpsc::Receiver<FetchResult>,
    worker: Option<thread::JoinHandle<()>>,
}

impl Reader {
    fn spawn(catalog: SegmentCatalog) -> Self {
        let (cmd_tx, cmd_rx) = mpsc::channel::<(usize, ShardScratch)>();
        let (res_tx, res_rx) = mpsc::channel();
        let worker = thread::Builder::new()
            .name("segment-prefetch".into())
            .spawn(move || {
                while let Ok((s, mut buf)) = cmd_rx.recv() {
                    let loaded = catalog.load(s, &mut buf).map(|_| ());
                    if res_tx.send((s, buf, loaded)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn segment-prefetch worker");
        Reader {
            cmd: Some(cmd_tx),
            res: res_rx,
            worker: Some(worker),
        }
    }
}

impl Drop for Reader {
    fn drop(&mut self) {
        // Closing the command channel ends the worker's recv loop; the
        // join waits out any read still in flight.
        drop(self.cmd.take());
        while self.res.try_recv().is_ok() {}
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The segment buffers of a disk-backed [`PrefetchingStore`]: `cur`,
/// the buffer served last (what live views point into between `view`
/// calls), and with prefetch on a second buffer that the background
/// [`Reader`] fills while the caller computes over `cur`. At most two
/// [`ShardScratch`] buffers exist, so the pipe's RSS contribution is two
/// segments (one with prefetch off) — the double-buffering the
/// out-of-core budget story is built on.
///
/// Each buffer is tagged with the segment it holds, or for a buffer out
/// with the reader, the segment being read into it. A request for a
/// tagged segment is served without a read. A failed read leaves its
/// buffer untagged, so the next request for that segment reads it again
/// and raises the same typed error.
struct Pipe {
    catalog: SegmentCatalog,
    /// The background reader; `None` with prefetch off (or after the
    /// reader died), when every read is synchronous.
    reader: Option<Reader>,
    cur: ShardScratch,
    cur_seg: Option<usize>,
    /// The second buffer while idle: `None` while the reader fills it,
    /// and always with prefetch off.
    spare: Option<ShardScratch>,
    spare_seg: Option<usize>,
    /// Whether the reader holds the second buffer.
    reading: bool,
    /// Segments the current pass will still ask for, in order.
    queue: VecDeque<usize>,
    /// Full segment reads issued, synchronous or prefetched.
    reads: u64,
}

impl Pipe {
    fn new(catalog: SegmentCatalog, prefetch: bool) -> Self {
        Pipe {
            reader: prefetch.then(|| Reader::spawn(catalog.clone())),
            catalog,
            cur: ShardScratch::new(),
            cur_seg: None,
            spare: prefetch.then(ShardScratch::new),
            spare_seg: None,
            reading: false,
            queue: VecDeque::new(),
            reads: 0,
        }
    }

    /// Whether a buffer holds segment `s`, or the reader is reading it.
    fn holds(&self, s: usize) -> bool {
        self.cur_seg == Some(s) || self.spare_seg == Some(s)
    }

    /// Takes the second buffer back from the reader, if it has it. The
    /// read's error is returned only when `s` is the segment that
    /// failed: a speculative read's error is dropped with its tag, and
    /// the on-demand read of that segment raises it again.
    fn collect(&mut self, s: usize) -> Result<(), ShardError> {
        let Some(reader) = self.reader.as_ref().filter(|_| self.reading) else {
            return Ok(());
        };
        self.reading = false;
        let Ok((seg, buf, loaded)) = reader.res.recv() else {
            self.spare_seg = None;
            return Err(ShardError::Io(io::Error::other(
                "segment prefetch worker exited",
            )));
        };
        self.spare = Some(buf);
        if let Err(e) = loaded {
            self.spare_seg = None;
            if seg == s {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Hands the idle second buffer to the reader for the first queued
    /// segment neither buffer holds — unless the pass asks for the
    /// buffer's own segment before that one.
    fn pump(&mut self) {
        if self.reader.is_none() || self.spare.is_none() {
            return;
        }
        let Some(i) = self.queue.iter().position(|&q| !self.holds(q)) else {
            return;
        };
        if self.queue.range(..i).any(|&q| Some(q) == self.spare_seg) {
            return;
        }
        let next = self.queue[i];
        let buf = self.spare.take().expect("checked above");
        let cmd = self.reader.as_ref().and_then(|r| r.cmd.as_ref());
        match cmd.map(|cmd| cmd.send((next, buf))) {
            Some(Ok(())) => {
                self.reading = true;
                self.spare_seg = Some(next);
                self.reads += 1;
            }
            // A dead reader degrades to synchronous loads in `view`.
            Some(Err(mpsc::SendError((_, buf)))) => {
                self.spare = Some(buf);
                self.reader = None;
            }
            None => unreachable!("a live reader has a command channel"),
        }
    }

    fn view(&mut self, s: usize) -> Result<ShardView<'_>, ShardError> {
        if self.queue.front() == Some(&s) {
            self.queue.pop_front();
        }
        if self.cur_seg != Some(s) {
            self.collect(s)?;
            if let Some(spare) = self.spare.as_mut().filter(|_| self.spare_seg == Some(s)) {
                mem::swap(&mut self.cur, spare);
                mem::swap(&mut self.cur_seg, &mut self.spare_seg);
            } else {
                self.cur_seg = None;
                self.reads += 1;
                self.catalog.load(s, &mut self.cur)?;
                self.cur_seg = Some(s);
            }
        }
        self.pump();
        let (start, end) = self.catalog.plan.range(s);
        Ok(ShardView::from_parts(
            start,
            end,
            &self.cur.offsets,
            0,
            &self.cur.targets,
        ))
    }
}

/// A pipelined reader over a [`ShardStore`]: segment reads for disk
/// stores overlap the caller's compute pass on the previous segment, and
/// a segment one of the two buffers still holds is served without a
/// read.
///
/// The caller announces each pass's segment sequence up front with
/// [`begin_pass`](Self::begin_pass); [`view`](Self::view) then serves
/// held segments from their buffer, announced ones from the background
/// reader (blocking only for the part of the read that has not finished
/// yet), and anything else by a synchronous load. Prefetching is pure
/// plumbing: the views returned are byte-identical to
/// [`ShardStore::view`]'s for every request sequence, announced or not,
/// so the `--prefetch` knob cannot change outcomes. With
/// `enabled = false` there is no reader thread and one buffer; RAM
/// stores read nothing.
///
/// Typed [`ShardError`]s cross the thread boundary intact: a truncated
/// or corrupt segment read in the background surfaces from the `view`
/// call that asks for that segment.
pub struct PrefetchingStore<'s> {
    store: &'s ShardStore,
    /// The segment buffers of a disk store (`None` over RAM).
    pipe: Option<Pipe>,
}

impl<'s> PrefetchingStore<'s> {
    /// Wraps `store`, spawning the background reader only when
    /// `enabled` holds and the store is on disk.
    #[must_use]
    pub fn new(store: &'s ShardStore, enabled: bool) -> Self {
        let pipe = match store {
            ShardStore::Disk(d) => Some(Pipe::new(d.catalog.clone(), enabled)),
            ShardStore::Ram(_) => None,
        };
        PrefetchingStore { store, pipe }
    }

    /// The wrapped store.
    #[must_use]
    pub fn store(&self) -> &'s ShardStore {
        self.store
    }

    /// The shard plan of the wrapped store.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        self.store.plan()
    }

    /// Whether a background reader is running (disk store with
    /// prefetch enabled).
    #[must_use]
    pub fn is_pipelined(&self) -> bool {
        self.pipe.as_ref().is_some_and(|p| p.reader.is_some())
    }

    /// Announces the segments the upcoming pass will `view`, in order.
    /// Replaces any previous announcement; a no-op over RAM.
    pub fn begin_pass(&mut self, upcoming: &[usize]) {
        if let Some(pipe) = &mut self.pipe {
            pipe.queue.clear();
            pipe.queue.extend(upcoming.iter().copied());
            pipe.pump();
        }
    }

    /// A view of shard `s` — from a buffer that holds it, from the
    /// background reader when `s` was announced, by synchronous load
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Exactly [`ShardStore::view`]'s errors, including those raised on
    /// the reader thread.
    pub fn view(&mut self, s: usize) -> Result<ShardView<'_>, ShardError> {
        match (&mut self.pipe, self.store) {
            (Some(pipe), _) => pipe.view(s),
            (None, ShardStore::Ram(ram)) => Ok(ram.view(s)),
            (None, ShardStore::Disk(_)) => unreachable!("disk stores have a pipe"),
        }
    }

    /// Whether a buffer holds segment `s` (or the reader is reading
    /// it), so that a request for it costs no read.
    fn holds(&self, s: usize) -> bool {
        self.pipe.as_ref().is_some_and(|p| p.holds(s))
    }

    /// Full segment reads issued so far, synchronous or prefetched.
    fn segment_reads(&self) -> u64 {
        self.pipe.as_ref().map_or(0, |p| p.reads)
    }

    /// The shards the buffers hold, the one served last first.
    fn held(&self) -> [Option<usize>; 2] {
        self.pipe
            .as_ref()
            .map_or([None, None], |p| [p.cur_seg, p.spare_seg])
    }
}

/// A borrowed window over an explicitly requested row subset of one
/// shard, produced by [`SparseLoader::load_rows`]. Target lists are
/// packed in ascending row order; lookup is by binary search over the
/// requested row list, so callers may iterate rows in any order.
#[derive(Clone, Copy, Debug)]
pub struct RowSetView<'a> {
    rows: &'a [u32],
    offsets: &'a [u32],
    targets: &'a [u32],
}

impl RowSetView<'_> {
    /// The adjacency of requested row `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not in the requested row set.
    #[inline]
    #[must_use]
    pub fn targets_of(&self, v: u32) -> &[u32] {
        match self.rows.binary_search(&v) {
            Ok(i) => &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => panic!("row {v} was not requested from the sparse loader"),
        }
    }

    /// Total packed adjacency entries.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.targets.len()
    }
}

/// Byte gap (in `u32` words) below which adjacent row reads are merged
/// into one positioned read. 4096 words = 16 KiB — around the point
/// where skipping ahead beats decoding through.
const COALESCE_GAP_WORDS: u32 = 4096;

/// Sparse row reads from disk segments: when a pass touches a small
/// fraction of a shard, reading exactly the touched rows' target
/// ranges (coalesced into few positioned reads) beats decoding the
/// whole multi-hundred-megabyte segment.
///
/// The loader caches each shard's row-offset index on first touch —
/// `4 · (rows + 1)` bytes per touched shard, one sequential read each,
/// kept for the loader's lifetime. That cache is the price of skipping
/// full-segment loads and is counted in the RSS budget (DESIGN.md).
pub struct SparseLoader<'s> {
    store: &'s ShardStore,
    index: Vec<Option<Vec<u32>>>,
    files: Vec<Option<File>>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    buf: Vec<u8>,
}

impl<'s> SparseLoader<'s> {
    /// A loader over `store` with no indexes resident yet.
    #[must_use]
    pub fn new(store: &'s ShardStore) -> Self {
        let k = store.plan().shard_count();
        SparseLoader {
            store,
            index: (0..k).map(|_| None).collect(),
            files: (0..k).map(|_| None).collect(),
            offsets: Vec::new(),
            targets: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Loads the adjacency of `rows` (sorted ascending, unique, all in
    /// shard `s`) and returns a view over exactly those rows.
    ///
    /// # Errors
    ///
    /// The same typed [`ShardError`]s as a full segment load.
    ///
    /// # Panics
    ///
    /// Panics on a RAM store (callers gate on
    /// [`PassLoader::use_sparse`]), or if `rows` is unsorted or out of
    /// the shard's range.
    pub fn load_rows<'a>(
        &'a mut self,
        s: usize,
        rows: &'a [u32],
    ) -> Result<RowSetView<'a>, ShardError> {
        let ShardStore::Disk(d) = self.store else {
            panic!("sparse row loads are a disk-store path");
        };
        let (start, end) = d.plan().range(s);
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be sorted");
        if let (Some(&first), Some(&last)) = (rows.first(), rows.last()) {
            assert!(first >= start && last < end, "rows outside shard range");
        }
        if self.index[s].is_none() {
            let (mut file, seg_rows, _entries) = d.catalog.open_segment(s)?;
            let mut idx = Vec::new();
            read_words(&mut file, &mut idx, seg_rows as usize + 1, &mut self.buf)
                .map_err(|e| segment_read_err(&d.catalog, s, e))?;
            self.index[s] = Some(idx);
            self.files[s] = Some(file);
        }
        let idx = self.index[s].as_ref().expect("index resident");
        let file = self.files[s].as_mut().expect("file open");
        // Payload layout: 16-byte header, (rows + 1) offset words, then
        // the target words the offsets index into.
        let target_base = 16 + (idx.len() as u64) * 4;
        self.offsets.clear();
        self.targets.clear();
        self.offsets.push(0);
        let local = |v: u32| (v - start) as usize;
        let mut i = 0;
        while i < rows.len() {
            let lo = idx[local(rows[i])];
            let mut hi = idx[local(rows[i]) + 1];
            let mut j = i + 1;
            while j < rows.len() {
                let next_lo = idx[local(rows[j])];
                if next_lo - hi <= COALESCE_GAP_WORDS {
                    hi = idx[local(rows[j]) + 1];
                    j += 1;
                } else {
                    break;
                }
            }
            let bytes = ((hi - lo) as usize) * 4;
            if self.buf.len() < bytes {
                self.buf.resize(bytes, 0);
            }
            read_exact_at(
                file,
                target_base + u64::from(lo) * 4,
                &mut self.buf[..bytes],
            )
            .map_err(|e| segment_read_err(&d.catalog, s, e))?;
            for r in i..j {
                let (rlo, rhi) = (idx[local(rows[r])], idx[local(rows[r]) + 1]);
                let span = &self.buf[((rlo - lo) as usize) * 4..((rhi - lo) as usize) * 4];
                self.targets.extend(
                    span.chunks_exact(4)
                        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
                );
                self.offsets.push(self.targets.len() as u32);
            }
            i = j;
        }
        Ok(RowSetView {
            rows,
            offsets: &self.offsets,
            targets: &self.targets,
        })
    }
}

/// Maps a payload-read IO failure on segment `s` to the typed error a
/// full load would raise.
fn segment_read_err(catalog: &SegmentCatalog, s: usize, e: io::Error) -> ShardError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ShardError::SegmentTruncated {
            shard: s,
            path: catalog.seg_path(s),
        }
    } else {
        ShardError::SegmentIo {
            shard: s,
            path: catalog.seg_path(s),
            source: e,
        }
    }
}

/// A pass touching fewer than `rows / SPARSE_RATIO` rows of a disk
/// shard is served by coalesced row reads instead of a full segment
/// load. A full load costs ~32 bytes of sequential decode per shard
/// row (average degree 8); a sparse row costs roughly one positioned
/// read, ~2 orders of magnitude more per row — hence the ratio.
const SPARSE_RATIO: usize = 256;

/// The engines' per-pass segment reader: a [`PrefetchingStore`] for
/// full-segment passes plus a [`SparseLoader`] for passes that touch a
/// small fraction of a shard, behind one adaptive threshold.
///
/// Both paths return exactly the bytes [`ShardStore::view`] would, so
/// the full/sparse choice — like prefetching, the shard order of a pass
/// and the shard count — is invisible in outcomes.
pub struct PassLoader<'s> {
    store: &'s ShardStore,
    prefetch: PrefetchingStore<'s>,
    sparse: SparseLoader<'s>,
    /// The sorted row list of the current sparse view.
    sorted: Vec<u32>,
    /// The list length of each shard in the announced pass.
    lens: Vec<usize>,
    /// The full-view shards of the announced pass, in pass order.
    full: Vec<usize>,
}

impl<'s> PassLoader<'s> {
    /// A loader over `store`; `prefetch` spawns the background segment
    /// reader (disk stores only).
    #[must_use]
    pub fn new(store: &'s ShardStore, prefetch: bool) -> Self {
        PassLoader {
            store,
            prefetch: PrefetchingStore::new(store, prefetch),
            sparse: SparseLoader::new(store),
            sorted: Vec::new(),
            lens: Vec::new(),
            full: Vec::new(),
        }
    }

    /// The underlying store's plan.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        self.store.plan()
    }

    /// Full segment reads issued so far, synchronous or prefetched
    /// (sparse row reads are not counted; always 0 over RAM).
    #[must_use]
    pub fn segment_reads(&self) -> u64 {
        self.prefetch.segment_reads()
    }

    /// Whether a pass touching `requested` rows of shard `s` should use
    /// sparse row loads when the segment is not already held. Always
    /// false for RAM stores (everything is already resident) and for
    /// empty requests (the caller skips the shard outright).
    #[must_use]
    pub fn use_sparse(&self, s: usize, requested: usize) -> bool {
        if !matches!(self.store, ShardStore::Disk(_)) || requested == 0 {
            return false;
        }
        let (start, end) = self.store.plan().range(s);
        requested.saturating_mul(SPARSE_RATIO) < (end - start) as usize
    }

    /// Announces an explicit full-view shard sequence (prefetch hint).
    pub fn begin_pass(&mut self, full: &[usize]) {
        self.prefetch.begin_pass(full);
    }

    /// Announces a pass over per-shard row lists (`lists[s]` for shard
    /// `s`, one per shard of the plan) and returns the order to walk the
    /// shards in: the shards
    /// whose segments the loader holds first, then the rest ascending.
    /// Every shard with a non-empty list that is held or too large for
    /// sparse reads is queued for prefetch in that order; sparse shards
    /// are not announced — they never cost a segment read.
    pub fn begin_lists<'l>(&mut self, lists: impl IntoIterator<Item = &'l [u32]>) -> PassOrder {
        self.lens.clear();
        self.lens.extend(lists.into_iter().map(<[u32]>::len));
        let order = PassOrder {
            held: self.prefetch.held(),
            next: 0,
            shards: self.lens.len(),
        };
        let mut full = mem::take(&mut self.full);
        full.clear();
        full.extend(order.filter(|&s| {
            let len = self.lens[s];
            len > 0 && (self.prefetch.holds(s) || !self.use_sparse(s, len))
        }));
        self.prefetch.begin_pass(&full);
        self.full = full;
        order
    }

    /// A view of all of shard `s`: a disk segment through the prefetch
    /// pipeline, or a RAM store's whole arrays (rows are read straight
    /// from the one CSR, so a RAM pass costs what a monolithic one does).
    ///
    /// # Errors
    ///
    /// Exactly [`ShardStore::view`]'s errors.
    #[inline]
    pub fn view_full(&mut self, s: usize) -> Result<PassView<'_>, ShardError> {
        match self.store {
            ShardStore::Ram(ram) => Ok(PassView::Ram(ram)),
            ShardStore::Disk(_) => Ok(PassView::Full(self.prefetch.view(s)?)),
        }
    }

    /// A view of shard `s` covering the rows in `list` (any order, all
    /// in the shard): the held segment when a buffer has it, coalesced
    /// sparse row reads when the list is a small fraction of a disk
    /// shard, the full prefetched segment otherwise.
    ///
    /// # Errors
    ///
    /// Exactly [`ShardStore::view`]'s errors.
    #[inline]
    pub fn view_list(&mut self, s: usize, list: &[u32]) -> Result<PassView<'_>, ShardError> {
        if !self.prefetch.holds(s) && self.use_sparse(s, list.len()) {
            self.sorted.clear();
            self.sorted.extend_from_slice(list);
            self.sorted.sort_unstable();
            Ok(PassView::Rows(self.sparse.load_rows(s, &self.sorted)?))
        } else {
            self.view_full(s)
        }
    }
}

/// The shard order of one pass, from [`PassLoader::begin_lists`]: the
/// shards whose segments the loader holds (the one served last, then
/// the other), then every other shard ascending. Over a RAM store it is
/// plain ascending order.
#[derive(Clone, Copy, Debug)]
pub struct PassOrder {
    /// The held shards (distinct: two buffers never hold one segment).
    held: [Option<usize>; 2],
    /// Position in `held`, then `2 + s` for shard `s`.
    next: usize,
    shards: usize,
}

impl Iterator for PassOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.next < 2 + self.shards {
            let i = self.next;
            self.next += 1;
            let s = if i < 2 { self.held[i] } else { Some(i - 2) };
            if s.is_some_and(|s| i < 2 || !self.held.contains(&Some(s))) {
                return s;
            }
        }
        None
    }
}

/// Any kind of per-pass shard view — a RAM store's arrays, a full disk
/// segment, or an explicit row subset — behind the one accessor the
/// engine passes use. Every kind serves exactly the rows the plain
/// [`ShardStore::view`] would, so which one a pass got is invisible in
/// outcomes.
pub enum PassView<'a> {
    /// A RAM store's whole arrays (every shard is resident).
    Ram(&'a RamShards),
    /// A full segment view (prefetched or synchronously loaded).
    Full(ShardView<'a>),
    /// A sparse row-subset view.
    Rows(RowSetView<'a>),
}

impl PassView<'_> {
    /// The target list of row `v` (global ids).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the store (for a disk segment: outside
    /// the shard; for a sparse view: not in the requested row set).
    #[inline]
    #[must_use]
    pub fn targets_of(&self, v: u32) -> &[u32] {
        match self {
            PassView::Ram(ram) => ram.targets_of(v),
            PassView::Full(view) => view.targets_of(v),
            PassView::Rows(view) => view.targets_of(v),
        }
    }
}

/// The BFS spanning structure of one source component, built
/// out-of-core from a sharded adjacency store: the level-order
/// enumeration (in RAM, `4` bytes per reachable node) plus the child
/// lists as directed [`DiskShards`] segments — the inputs the fast
/// Simple kernel needs, at `n = 10⁸` scale.
///
/// The builder reproduces [`Graph::bfs_tree`] **exactly**:
///
/// * In FIFO BFS every discoverer of a level-`L + 1` node is a level-`L`
///   node, and the recorded parent is the *first* FIFO discoverer —
///   equivalently, the level-`L` neighbor of minimum FIFO rank. The
///   level-synchronous sharded sweep keeps per-node FIFO ranks and
///   resolves each discovered node's parent to the minimum-rank
///   discoverer across all shard passes, which is order-independent.
/// * The FIFO order of level `L + 1` is "nodes grouped by their
///   parent's FIFO rank, ascending id within a group" (CSR rows are
///   sorted), so ranks for the next level are assigned by sorting the
///   discovered set by `(rank(parent), id)`.
/// * The final enumeration sorts each level by id, and the per-parent
///   child lists come out ascending — exactly what
///   [`SpillSink::finalize`]'s per-row sort produces from the directed
///   `(parent, child)` spill.
///
/// `crates/graph` pins the equivalence against [`Graph::bfs_tree`]
/// on random graphs for both store backends.
pub struct ShardedBfsTree {
    order: Vec<u32>,
    children: DiskShards,
    reachable: usize,
}

impl ShardedBfsTree {
    /// Runs the sharded BFS over `store`'s adjacency from `source` and
    /// finalizes the child lists into directed segments under `dir`.
    ///
    /// Peak RSS during the build is two `u32` words per node (parent
    /// and FIFO rank, dropped on return) plus the order, one shard's
    /// adjacency, and the current level's frontier.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if an adjacency segment cannot be read or
    /// the child spill fails.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn build(
        store: &ShardStore,
        source: u32,
        dir: impl AsRef<Path>,
    ) -> Result<Self, ShardError> {
        let plan = store.plan().clone();
        let n = plan.node_count();
        assert!((source as usize) < n, "source out of range");
        let k = plan.shard_count();
        const UNSET: u32 = u32::MAX;

        let mut sink = SpillSink::create_directed(dir, plan.clone())?;
        let mut scratch = ShardScratch::new();
        let mut parent = vec![UNSET; n];
        let mut rank = vec![UNSET; n];
        parent[source as usize] = source;
        rank[source as usize] = 0;
        let mut next_rank = 1u32;
        let mut order: Vec<u32> = vec![source];

        let mut frontier: Vec<Vec<u32>> = vec![Vec::new(); k];
        frontier[plan.shard_of(source)].push(source);
        let mut discovered: Vec<u32> = Vec::new();

        while frontier.iter().any(|l| !l.is_empty()) {
            discovered.clear();
            for (s, list) in frontier.iter().enumerate() {
                if list.is_empty() {
                    continue;
                }
                let view = store.view(s, &mut scratch)?;
                for &u in list {
                    for &v in view.targets_of(u) {
                        let vi = v as usize;
                        if rank[vi] != UNSET {
                            continue; // settled at this level or above
                        }
                        if parent[vi] == UNSET {
                            parent[vi] = u;
                            discovered.push(v);
                        } else if rank[parent[vi] as usize] > rank[u as usize] {
                            parent[vi] = u;
                        }
                    }
                }
            }
            for list in &mut frontier {
                list.clear();
            }
            if discovered.is_empty() {
                break;
            }
            // FIFO order of the next level: discoverers ascend by rank,
            // ids ascend within one discoverer's sorted adjacency row.
            discovered.sort_unstable_by_key(|&v| (rank[parent[v as usize] as usize], v));
            for &v in &discovered {
                rank[v as usize] = next_rank;
                next_rank += 1;
                sink.push(u64::from(parent[v as usize]), u64::from(v))?;
                frontier[plan.shard_of(v)].push(v);
            }
            let level_start = order.len();
            order.extend_from_slice(&discovered);
            order[level_start..].sort_unstable();
        }

        drop(parent);
        drop(rank);
        let children = sink.finalize()?;
        let reachable = order.len();
        Ok(ShardedBfsTree {
            order,
            children,
            reachable,
        })
    }

    /// The source component in nondecreasing-level order (ties by node
    /// id) — equal to [`CsrTree::order`](crate::CsrTree::order) of the
    /// in-RAM tree.
    #[must_use]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Number of nodes reachable from the source.
    #[must_use]
    pub fn reachable(&self) -> usize {
        self.reachable
    }

    /// The directed child-list segments.
    #[must_use]
    pub fn children(&self) -> &DiskShards {
        &self.children
    }

    /// Consumes the tree into its order and child segments.
    #[must_use]
    pub fn into_parts(self) -> (Vec<u32>, DiskShards) {
        (self.order, self.children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_edges(n: u32) -> Vec<(u32, u32)> {
        (0..n).map(|v| (v, (v + 1) % n)).collect()
    }

    #[test]
    fn uniform_plan_covers_and_balances() {
        for (n, k) in [(10, 3), (7, 7), (1, 4), (100, 1), (31, 8)] {
            let plan = ShardPlan::uniform(n, k);
            assert_eq!(plan.node_count(), n);
            assert_eq!(plan.shard_count(), k.min(n));
            let mut seen = 0usize;
            for s in 0..plan.shard_count() {
                let (start, end) = plan.range(s);
                assert!(start < end, "empty shard {s} for n={n} k={k}");
                for v in start..end {
                    assert_eq!(plan.shard_of(v), s);
                    seen += 1;
                }
            }
            assert_eq!(seen, n);
        }
    }

    #[test]
    fn budget_plan_shrinks_the_largest_shard() {
        let plan = ShardPlan::for_budget(1000, 8000, 4 * 1200);
        assert!(plan.shard_count() > 1);
        let one = ShardPlan::for_budget(1000, 8000, u64::MAX);
        assert_eq!(one.shard_count(), 1);
    }

    #[test]
    fn split_views_reproduce_the_monolith() {
        let n = 100u32;
        let csr = Graph::from_edges(n as usize, &ring_edges(n));
        for k in [1, 2, 3, 7] {
            let ram = RamShards::from_graph(csr.clone(), ShardPlan::uniform(n as usize, k));
            let mut entries = 0;
            for s in 0..ram.plan().shard_count() {
                let view = ram.view(s);
                entries += view.entry_count();
                for v in view.start()..view.end() {
                    assert!(view.contains(v));
                    assert_eq!(view.targets_of(v), csr.targets_of(v));
                    assert_eq!(view.degree(v), csr.targets_of(v).len());
                    assert_eq!(ram.targets_of(v), csr.targets_of(v));
                }
            }
            assert_eq!(entries, 2 * csr.edge_count());
        }
    }

    #[test]
    fn over_and_split_views_agree() {
        let n = 64u32;
        let csr = Graph::from_edges(n as usize, &ring_edges(n));
        let plan = ShardPlan::uniform(n as usize, 5);
        // Re-planning keeps the arrays: a one-shard store re-cut into
        // five serves the same rows as direct windows over the CSR.
        let ram = RamShards::from_graph(csr.clone(), ShardPlan::uniform(n as usize, 1))
            .with_plan(plan.clone());
        for s in 0..plan.shard_count() {
            let (start, end) = plan.range(s);
            let direct = ShardView::over(csr.offsets(), csr.targets(), start, end);
            let owned = ram.view(s);
            assert_eq!(direct.entry_count(), owned.entry_count());
            for v in start..end {
                assert_eq!(direct.targets_of(v), owned.targets_of(v));
            }
        }
    }

    #[test]
    fn spill_pipeline_matches_from_edges() {
        let n = 120usize;
        // Ring plus chords, with duplicates and both orientations.
        let mut edges: Vec<(u32, u32)> = ring_edges(n as u32);
        for v in 0..(n as u32) / 2 {
            edges.push((v, v + (n as u32) / 2));
            edges.push((v + (n as u32) / 2, v));
        }
        let reference = Graph::from_edges(n, &edges);
        let dir = default_scratch_dir();
        let plan = ShardPlan::uniform(n, 3);
        let mut sink = SpillSink::create(&dir, plan).expect("create sink");
        for &(u, v) in &edges {
            sink.push(u as u64, v as u64).expect("push");
        }
        let disk = sink.finalize().expect("finalize");
        assert_eq!(disk.node_count(), n);
        assert_eq!(disk.edge_count() as usize, reference.edge_count());
        assert!(disk.max_shard_entries() > 0);
        let mut scratch = ShardScratch::new();
        for s in 0..disk.plan().shard_count() {
            let view = disk.load(s, &mut scratch).expect("load");
            for v in view.start()..view.end() {
                assert_eq!(view.targets_of(v), reference.targets_of(v));
            }
        }
        let kept = disk.catalog.dir.clone();
        drop(disk);
        assert!(!kept.exists(), "scratch dir must be removed on drop");
    }

    #[test]
    fn spill_sink_rejects_bad_edges_with_typed_errors() {
        let dir = default_scratch_dir();
        let mut sink = SpillSink::create(&dir, ShardPlan::uniform(10, 2)).expect("create sink");
        match sink.push(0, 1u64 << 40) {
            Err(ShardError::Graph(CsrError::EndpointOverflow { endpoint, .. })) => {
                assert_eq!(endpoint, 1u64 << 40);
            }
            other => panic!("expected overflow, got {other:?}"),
        }
        assert!(matches!(
            sink.push(0, 10),
            Err(ShardError::Graph(CsrError::OutOfRange { .. }))
        ));
        assert!(matches!(
            sink.push(3, 3),
            Err(ShardError::Graph(CsrError::SelfLoop { node: 3 }))
        ));
        sink.push(0, 1).expect("valid edge");
        let disk = sink.finalize().expect("finalize");
        let mut scratch = ShardScratch::new();
        let store = ShardStore::Disk(disk);
        let view = store.view(0, &mut scratch).expect("view");
        assert_eq!(view.targets_of(0), &[1]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A deterministic irregular graph: ring plus long-range chords,
    /// giving multi-parent discovery races at every level.
    fn chord_edges(n: u32) -> Vec<(u32, u32)> {
        let mut edges = ring_edges(n);
        for v in 0..n {
            let w = (v * v + 3 * v + 7) % n;
            if w != v {
                edges.push((v, w));
            }
        }
        edges
    }

    #[test]
    fn sharded_bfs_tree_matches_in_ram_bfs_tree() {
        let n = 150usize;
        let edges = chord_edges(n as u32);
        let csr = Graph::from_edges(n, &edges);
        let reference = csr.bfs_tree(0);
        let (ref_offsets, ref_children) = reference.clone().into_children_csr();
        for k in [1usize, 2, 3, 7] {
            let plan = ShardPlan::uniform(n, k);
            let ram = ShardStore::Ram(RamShards::from_graph(csr.clone(), plan.clone()));
            let tree = ShardedBfsTree::build(&ram, 0, default_scratch_dir()).expect("build");
            assert_eq!(tree.order(), reference.order(), "order diverged at k={k}");
            assert_eq!(tree.reachable(), reference.order().len());
            let mut scratch = ShardScratch::new();
            for s in 0..plan.shard_count() {
                let view = tree.children().load(s, &mut scratch).expect("load");
                for v in view.start()..view.end() {
                    let lo = ref_offsets[v as usize] as usize;
                    let hi = ref_offsets[v as usize + 1] as usize;
                    assert_eq!(
                        view.targets_of(v),
                        &ref_children[lo..hi],
                        "children of {v} diverged at k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_bfs_tree_from_disk_adjacency_and_disconnected_source() {
        // Two components: the chord graph on 0..100 plus an isolated
        // ring on 100..120 — the tree must cover only the source's.
        let n = 120usize;
        let mut edges: Vec<(u32, u32)> = chord_edges(100)
            .into_iter()
            .filter(|&(u, v)| u < 100 && v < 100)
            .collect();
        for v in 100..(n as u32) {
            edges.push((v, if v + 1 < n as u32 { v + 1 } else { 100 }));
        }
        let csr = Graph::from_edges(n, &edges);
        let reference = csr.bfs_tree(0);
        let plan = ShardPlan::uniform(n, 5);
        let mut sink = SpillSink::create(default_scratch_dir(), plan).expect("sink");
        for &(u, v) in &edges {
            sink.push(u as u64, v as u64).expect("push");
        }
        let disk = ShardStore::Disk(sink.finalize().expect("finalize"));
        let tree = ShardedBfsTree::build(&disk, 0, default_scratch_dir()).expect("build");
        assert_eq!(tree.order(), reference.order());
        assert_eq!(tree.reachable(), 100);
    }

    #[test]
    fn directed_sink_keeps_one_orientation() {
        let dir = default_scratch_dir();
        let mut sink =
            SpillSink::create_directed(&dir, ShardPlan::uniform(6, 2)).expect("create sink");
        sink.push(0, 4).expect("push");
        sink.push(4, 2).expect("push");
        let disk = sink.finalize().expect("finalize");
        assert_eq!(disk.entry_count(), 2);
        let mut scratch = ShardScratch::new();
        let v0 = disk.load(0, &mut scratch).expect("load");
        assert_eq!(v0.targets_of(0), &[4]);
        assert_eq!(v0.targets_of(2), &[] as &[u32]);
        let v1 = disk.load(1, &mut scratch).expect("load");
        assert_eq!(v1.targets_of(4), &[2]);
    }

    #[test]
    fn truncated_segment_surfaces_a_typed_error() {
        let dir = default_scratch_dir();
        let mut sink = SpillSink::create(&dir, ShardPlan::uniform(40, 2)).expect("create sink");
        for &(u, v) in &ring_edges(40) {
            sink.push(u as u64, v as u64).expect("push");
        }
        let disk = sink.finalize().expect("finalize");
        // Cut the payload short (keep the 16-byte header intact).
        let seg = disk.catalog.seg_path(0);
        let len = fs::metadata(&seg).expect("metadata").len();
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("open")
            .set_len(len - 8)
            .expect("truncate");
        let mut scratch = ShardScratch::new();
        match disk.load(0, &mut scratch) {
            Err(ShardError::SegmentTruncated { shard: 0, path }) => {
                assert_eq!(path, seg);
            }
            other => panic!("expected SegmentTruncated, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_segment_header_surfaces_a_typed_error() {
        let dir = default_scratch_dir();
        let mut sink = SpillSink::create(&dir, ShardPlan::uniform(40, 2)).expect("create sink");
        for &(u, v) in &ring_edges(40) {
            sink.push(u as u64, v as u64).expect("push");
        }
        let disk = sink.finalize().expect("finalize");
        // Overwrite the row count in the header.
        let seg = disk.catalog.seg_path(1);
        let mut bytes = fs::read(&seg).expect("read");
        bytes[..8].copy_from_slice(&999u64.to_le_bytes());
        fs::write(&seg, &bytes).expect("write");
        let mut scratch = ShardScratch::new();
        match disk.load(1, &mut scratch) {
            Err(ShardError::SegmentCorrupt {
                shard: 1,
                found: 999,
                ..
            }) => {}
            other => panic!("expected SegmentCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn vanished_scratch_dir_surfaces_a_typed_error() {
        let dir = default_scratch_dir();
        let mut sink = SpillSink::create(&dir, ShardPlan::uniform(20, 2)).expect("create sink");
        sink.push(0, 1).expect("push");
        let disk = sink.finalize().expect("finalize");
        fs::remove_dir_all(&dir).expect("remove scratch dir");
        let mut scratch = ShardScratch::new();
        match disk.load(0, &mut scratch) {
            Err(ShardError::SegmentIo {
                shard: 0,
                path,
                source,
            }) => {
                assert_eq!(source.kind(), io::ErrorKind::NotFound);
                assert!(path.ends_with("segment_0.bin"));
            }
            other => panic!("expected SegmentIo(NotFound), got {other:?}"),
        }
    }

    #[test]
    fn torn_spill_surfaces_a_typed_error() {
        let dir = default_scratch_dir();
        let mut sink = SpillSink::create(&dir, ShardPlan::uniform(10, 1)).expect("create sink");
        sink.push(0, 1).expect("push");
        // Tear the bucket: append half a record.
        sink.writers[0].write_all(&[0u8; 4]).expect("tear");
        match sink.finalize().map(|_| ()) {
            Err(ShardError::TornSpill {
                shard: 0,
                path,
                trailing: 4,
            }) => {
                assert!(path.ends_with("spill_0.bin"));
            }
            other => panic!("expected TornSpill, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bucket_overflow_in_finalize_is_a_typed_error() {
        let dir = default_scratch_dir();
        let mut sink = SpillSink::create(&dir, ShardPlan::uniform(10, 2)).expect("create sink");
        sink.push(0, 1).expect("push");
        // Fake an overflowing bucket count: writing 2^32 real edges in
        // a unit test is not an option.
        sink.half_edges[0] = MAX_INDEX + 1;
        match sink.finalize().map(|_| ()) {
            Err(ShardError::Graph(CsrError::AdjacencyOverflow { .. })) => {}
            other => panic!("expected AdjacencyOverflow, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    fn disk_store(n: u32, shards: usize) -> ShardStore {
        let dir = default_scratch_dir();
        let mut sink =
            SpillSink::create(&dir, ShardPlan::uniform(n as usize, shards)).expect("create sink");
        for &(u, v) in &chord_edges(n) {
            sink.push(u as u64, v as u64).expect("push");
        }
        ShardStore::Disk(sink.finalize().expect("finalize"))
    }

    #[test]
    fn prefetching_store_matches_direct_views() {
        let store = disk_store(120, 4);
        let mut direct = ShardScratch::new();
        // Announced in-order pass, an unannounced (mispredicted)
        // request, a re-announced pass, and a request after the
        // announcement ran dry — every path must serve the same bytes.
        let sequences: &[(&[usize], &[usize])] = &[
            (&[0, 1, 2, 3], &[0, 1, 2, 3]),
            (&[0, 1, 2, 3], &[0, 3, 1]),
            (&[2, 0], &[2, 0, 1, 3]),
            (&[], &[3, 0]),
        ];
        for enabled in [true, false] {
            let mut pf = PrefetchingStore::new(&store, enabled);
            assert_eq!(pf.is_pipelined(), enabled);
            for &(announce, requests) in sequences {
                pf.begin_pass(announce);
                for &s in requests {
                    let got = pf.view(s).expect("prefetch view");
                    let want = store.view(s, &mut direct).expect("direct view");
                    assert_eq!(got.start(), want.start());
                    assert_eq!(got.end(), want.end());
                    for v in want.start()..want.end() {
                        assert_eq!(got.targets_of(v), want.targets_of(v));
                    }
                }
            }
        }
    }

    #[test]
    fn prefetch_thread_surfaces_typed_error_without_hanging() {
        let store = disk_store(120, 3);
        let ShardStore::Disk(d) = &store else {
            unreachable!()
        };
        // Truncate segment 1 before announcing it, so the *background*
        // read is the one that fails.
        let seg = d.catalog.seg_path(1);
        let len = fs::metadata(&seg).expect("metadata").len();
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("open")
            .set_len(len - 4)
            .expect("truncate");
        let mut pf = PrefetchingStore::new(&store, true);
        pf.begin_pass(&[0, 1, 2]);
        pf.view(0).expect("segment 0 intact");
        match pf.view(1) {
            Err(ShardError::SegmentTruncated { shard: 1, path }) => {
                assert_eq!(path, seg);
            }
            other => panic!("expected SegmentTruncated from worker, got {other:?}"),
        }
        // The pipeline stays usable and shuts down cleanly.
        pf.view(2).expect("segment 2 intact");
        drop(pf);
    }

    #[test]
    fn sparse_rows_match_full_views() {
        let n = 200u32;
        let store = disk_store(n, 4);
        let mut scratch = ShardScratch::new();
        let mut loader = SparseLoader::new(&store);
        for s in 0..4 {
            let full = store.view(s, &mut scratch).expect("full view");
            let (start, end) = store.plan().range(s);
            // Subsets with gaps both below and above the coalescing
            // threshold, plus singletons and the full row range.
            let all: Vec<u32> = (start..end).collect();
            let sparse_rows: Vec<u32> = (start..end).step_by(7).collect();
            let single = vec![start];
            for rows in [&all, &sparse_rows, &single] {
                let view = loader.load_rows(s, rows).expect("sparse load");
                for &v in rows {
                    assert_eq!(view.targets_of(v), full.targets_of(v), "row {v}");
                }
            }
            assert!(loader.load_rows(s, &[]).expect("empty").entry_count() == 0);
        }
    }

    #[test]
    fn pass_loader_picks_sparse_only_for_small_disk_requests() {
        let n = 10_000u32;
        let store = disk_store(n, 2);
        let mut loader = PassLoader::new(&store, true);
        assert!(loader.use_sparse(0, 3));
        assert!(!loader.use_sparse(0, 3_000));
        assert!(!loader.use_sparse(0, 0));
        loader.begin_lists([&[0u32; 3000][..], &[]]);
        let full = loader.view_full(0).expect("full");
        assert!(matches!(full, PassView::Full(ref v) if v.entry_count() > 0));
        // Shard 1's segment is not held: a small request reads rows.
        let rows = [5290u32, 5000, 5017];
        let sparse = loader.view_list(1, &rows).expect("sparse");
        assert!(matches!(sparse, PassView::Rows(_)));
        for v in rows {
            assert!(!sparse.targets_of(v).is_empty());
        }
        // Shard 0's segment is held: the same small request reads nothing.
        let reads = loader.segment_reads();
        let held = loader.view_list(0, &[290, 0, 17]).expect("held");
        assert!(matches!(held, PassView::Full(_)));
        assert_eq!(loader.segment_reads(), reads);

        let edges = chord_edges(64);
        let csr = Graph::from_edges(64, &edges);
        let ram = ShardStore::Ram(RamShards::from_graph(
            csr.clone(),
            ShardPlan::uniform(64, 2),
        ));
        let mut ram_loader = PassLoader::new(&ram, true);
        assert!(!ram_loader.use_sparse(0, 1));
        let view = ram_loader.view_list(1, &[40]).expect("ram view");
        assert!(matches!(view, PassView::Ram(_)));
        assert_eq!(view.targets_of(40), csr.targets_of(40));
    }

    /// Every row of every shard, as per-shard row lists.
    fn whole_shards(store: &ShardStore) -> Vec<Vec<u32>> {
        let plan = store.plan();
        (0..plan.shard_count())
            .map(|s| {
                let (start, end) = plan.range(s);
                (start..end).collect()
            })
            .collect()
    }

    /// Walks one pass over `lists` the way the engines do — announce,
    /// then request the shards in the returned order — checks every view
    /// against [`ShardStore::view`], and returns the pass's shard order
    /// and the segment reads it issued.
    fn walk_pass(
        loader: &mut PassLoader<'_>,
        store: &ShardStore,
        lists: &[Vec<u32>],
    ) -> (Vec<usize>, u64) {
        let before = loader.segment_reads();
        let order: Vec<usize> = loader
            .begin_lists(lists.iter().map(Vec::as_slice))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..lists.len()).collect::<Vec<_>>(),
            "a permutation"
        );
        let mut direct = ShardScratch::new();
        for &s in &order {
            if lists[s].is_empty() {
                continue;
            }
            let got = loader.view_list(s, &lists[s]).expect("pass view");
            let want = store.view(s, &mut direct).expect("direct view");
            for &v in &lists[s] {
                assert_eq!(got.targets_of(v), want.targets_of(v), "shard {s} row {v}");
            }
        }
        (order, loader.segment_reads() - before)
    }

    #[test]
    fn resident_segments_lead_the_pass_and_are_not_read_again() {
        let n = 4000u32;
        let four = disk_store(n, 4);
        let lists = whole_shards(&four);
        let mut loader = PassLoader::new(&four, true);
        assert_eq!(walk_pass(&mut loader, &four, &lists), (vec![0, 1, 2, 3], 4));
        // The buffers hold 3 (served last) and 2: they lead, the other
        // two are read.
        assert_eq!(walk_pass(&mut loader, &four, &lists), (vec![3, 2, 0, 1], 2));
        for _ in 0..4 {
            assert_eq!(walk_pass(&mut loader, &four, &lists).1, 2);
        }
        // Prefetch off keeps one buffer, so one segment stays held.
        let mut sync = PassLoader::new(&four, false);
        assert_eq!(walk_pass(&mut sync, &four, &lists).1, 4);
        for _ in 0..3 {
            assert_eq!(walk_pass(&mut sync, &four, &lists).1, 3);
        }

        // Two shards fit the two buffers: nothing is read after pass one.
        let two = disk_store(n, 2);
        let lists = whole_shards(&two);
        let mut loader = PassLoader::new(&two, true);
        assert_eq!(walk_pass(&mut loader, &two, &lists).1, 2);
        for _ in 0..3 {
            assert_eq!(walk_pass(&mut loader, &two, &lists).1, 0);
        }

        // A RAM store never reads and keeps ascending order.
        let csr = Graph::from_edges(n as usize, &chord_edges(n));
        let ram = ShardStore::Ram(RamShards::from_graph(
            csr,
            ShardPlan::uniform(n as usize, 4),
        ));
        let lists = whole_shards(&ram);
        let mut loader = PassLoader::new(&ram, true);
        for _ in 0..3 {
            assert_eq!(walk_pass(&mut loader, &ram, &lists), (vec![0, 1, 2, 3], 0));
        }
    }

    #[test]
    fn held_segments_serve_identical_bytes_through_mispredictions_and_sparse_shards() {
        let n = 4000u32;
        let store = disk_store(n, 4);
        let whole = whole_shards(&store);
        // Three rows of a 1000-row shard: a sparse request unless held.
        let few: Vec<Vec<u32>> = whole.iter().map(|l| vec![l[5], l[1], l[300]]).collect();
        let mixed = vec![
            few[0].clone(),
            whole[1].clone(),
            few[2].clone(),
            whole[3].clone(),
        ];
        let mut direct = ShardScratch::new();
        for prefetch in [true, false] {
            let mut loader = PassLoader::new(&store, prefetch);
            walk_pass(&mut loader, &store, &mixed);
            walk_pass(&mut loader, &store, &few);
            walk_pass(&mut loader, &store, &whole);
            walk_pass(&mut loader, &store, &mixed);
            // Mispredicted: announce one order, request the reverse, then
            // a shard twice and one outside the announcement.
            let order: Vec<usize> = loader
                .begin_lists(whole.iter().map(Vec::as_slice))
                .collect();
            for s in order.into_iter().rev().chain([1, 1]) {
                let got = loader.view_list(s, &whole[s]).expect("mispredicted view");
                let want = store.view(s, &mut direct).expect("direct view");
                for &v in &whole[s] {
                    assert_eq!(got.targets_of(v), want.targets_of(v));
                }
            }
            loader.begin_lists([&whole[0][..], &[], &[], &[]]);
            let got = loader.view_full(2).expect("unannounced view");
            let want = store.view(2, &mut direct).expect("direct view");
            for &v in &whole[2] {
                assert_eq!(got.targets_of(v), want.targets_of(v));
            }
            walk_pass(&mut loader, &store, &few);
        }
    }

    #[test]
    fn a_truncated_segment_fails_the_pass_that_needs_it() {
        for prefetch in [true, false] {
            let store = disk_store(4000, 4);
            let ShardStore::Disk(d) = &store else {
                unreachable!()
            };
            let lists = whole_shards(&store);
            let mut loader = PassLoader::new(&store, prefetch);
            walk_pass(&mut loader, &store, &lists);
            // Shard 0 is not held after an ascending pass.
            let seg = d.catalog.seg_path(0);
            let len = fs::metadata(&seg).expect("metadata").len();
            fs::OpenOptions::new()
                .write(true)
                .open(&seg)
                .expect("open")
                .set_len(len - 4)
                .expect("truncate");
            let order: Vec<usize> = loader
                .begin_lists(lists.iter().map(Vec::as_slice))
                .collect();
            for s in order {
                let got = loader.view_list(s, &lists[s]).map(|_| ());
                match (s, got) {
                    (0, Err(ShardError::SegmentTruncated { shard: 0, path })) => {
                        assert_eq!(path, seg);
                    }
                    (0, other) => panic!("expected SegmentTruncated, got {other:?}"),
                    (_, got) => got.expect("intact segment"),
                }
            }
            // The failed buffer holds nothing: asking again reads again
            // and fails the same way.
            let reads = loader.segment_reads();
            assert!(matches!(
                loader.view_list(0, &lists[0]).map(|_| ()),
                Err(ShardError::SegmentTruncated { shard: 0, .. })
            ));
            assert_eq!(loader.segment_reads(), reads + 1);
        }
    }

    #[test]
    fn ram_store_views_match_disk_store_views() {
        let n = 80usize;
        let edges = ring_edges(n as u32);
        let csr = Graph::from_edges(n, &edges);
        let plan = ShardPlan::uniform(n, 4);
        let ram = ShardStore::Ram(RamShards::from_graph(csr.clone(), plan.clone()));
        let dir = default_scratch_dir();
        let mut sink = SpillSink::create(&dir, plan).expect("create sink");
        for &(u, v) in &edges {
            sink.push(u as u64, v as u64).expect("push");
        }
        let disk = ShardStore::Disk(sink.finalize().expect("finalize"));
        let mut s1 = ShardScratch::new();
        let mut s2 = ShardScratch::new();
        for s in 0..4 {
            let a = ram.view(s, &mut s1).expect("ram view");
            let b = disk.view(s, &mut s2).expect("disk view");
            assert_eq!(a.start(), b.start());
            assert_eq!(a.end(), b.end());
            for v in a.start()..a.end() {
                assert_eq!(a.targets_of(v), b.targets_of(v));
            }
        }
    }

    #[test]
    fn scratch_sweep_removes_only_dead_pid_directories() {
        // A private root: the sweep must never be pointed at the shared
        // `out/` tree from a test.
        let root = std::env::temp_dir().join(format!("randcast-sweep-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        // No pid reaches `pid_max`, so one above it is always dead.
        let pid_max: u32 = fs::read_to_string("/proc/sys/kernel/pid_max")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(1 << 22);
        let live = root.join(format!("pid{}-0", std::process::id()));
        let dead = root.join(format!("pid{}-3", pid_max + 1));
        let other = root.join("pidless-notes");
        for dir in [&live, &dead, &other] {
            fs::create_dir_all(dir).expect("create dir");
            fs::write(dir.join("seg-0.bin"), b"segment").expect("write file");
        }

        sweep_dead_scratch(&root);

        let procfs = Path::new("/proc/self").exists();
        assert!(live.exists(), "a live process keeps its scratch");
        assert_eq!(
            dead.exists(),
            !procfs,
            "a dead pid's scratch goes iff procfs can tell"
        );
        assert!(
            other.exists(),
            "names not of the form pid<P>-<k> are left alone"
        );
        fs::remove_dir_all(&root).expect("clean up");

        assert_eq!(scratch_dir_pid("pid42-7"), Some(42));
        assert_eq!(scratch_dir_pid("pid42"), None);
        assert_eq!(scratch_dir_pid("pid-7"), None);
        assert_eq!(scratch_dir_pid("pidless-notes"), None);
    }
}
