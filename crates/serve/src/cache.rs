//! Sharded, byte-budgeted, segmented-LRU cache of computed tiles and
//! band sweep checkpoints.
//!
//! The cache key is the full provenance of a tile's bits — dataset,
//! kernel, bandwidth, weight and pyramid coordinate — so a hit is
//! guaranteed bitwise-equal to a fresh computation (the tile compute
//! layer is deterministic and viewport-independent; see
//! `kdv_core::tile`). Float parameters are keyed by their **bit
//! patterns**: two bandwidths that differ by one ULP are different
//! computations and must not alias.
//!
//! Concurrency: the key space is split across `shards` independent
//! `Mutex`-protected maps (shard = key hash high bits), so writers on
//! different shards never contend and a multi-tile insert holds one lock
//! at a time. A tile larger than a whole shard budget is rejected outright (it
//! would evict everything and then be evicted itself the moment anything
//! else arrived). A shard whose lock was poisoned by a panicking thread
//! is cleared and keeps serving, its lost entries counted as evictions.
//!
//! Policy: each shard is a **segmented LRU** enforcing its share of
//! `budget / shards` bytes. A new tile enters the *probation* segment; a
//! hit moves it to *protected*, which may hold at most 4/5 of the shard's
//! tile budget (its overflow is demoted back to the head of probation).
//! Eviction takes the probation tail: protected entries leave only by
//! demotion, so an over-budget shard never has an empty probation segment.
//! Scan resistance guards the panned working set against one-off
//! traffic: a deep-zoom excursion inserts a viewport's worth of tiles at
//! once that are seldom read again. Under plain LRU that burst pushed out
//! the panned working set and forced its tiles to be computed again;
//! under SLRU it churns only probation, and a tile requested twice (the
//! miss that cached it, then a hit) survives it. The server inserts only
//! tiles a request asked for (there is no band prefetch), so the burst is
//! no larger than the excursion itself.
//!
//! Checkpoints ([`BandCheckpoint`], the sweep state of a band at a tile
//! boundary, under a [`CheckpointKey`]) live beside each shard's tiles in
//! a second SLRU of the same code, with a byte budget of its own: the
//! checkpoint's share `c / (t + c)` of the shard budget, where `c` and
//! `t` are a checkpoint's and a tile's bytes per row
//! ([`TileCache::with_checkpoint_share`]; [`TileCache::new`] gives
//! checkpoints no room). A tile insert never displaces a checkpoint and a
//! checkpoint insert never displaces a tile, and tiles plus checkpoints
//! stay within the budget. A checkpoint enters its probation segment when
//! a cold sweep records it and is promoted to protected when a later cold
//! run resumes from it ([`TileCache::nearest_checkpoint`]), so one-off
//! checkpoints — a zoom excursion records one per tile it caches — churn
//! only the checkpoint probation segment. Keeping the sweep state is the
//! cheap half of the trade: a unit Epanechnikov checkpoint is about 1/24
//! of a 256-px tile's bytes, so the checkpoints of tiles the excursion
//! pushed out outlive them, and a re-missed tile sweeps only its own
//! columns. A tile and a checkpoint never alias, and checkpoint lookups
//! and displacements never count as tile hits, misses or evictions: they
//! have their own counters, so the tile counters keep saying how often a
//! tile was recomputed or pushed out.
//!
//! Hit/miss/eviction/rejection counters are **saturating** (they stick
//! at `u64::MAX` rather than wrapping), keeping reported statistics
//! monotone over the cache's lifetime however long it serves; the
//! regression test `serve_regressions::rollover` pins this via
//! [`CacheStats::force`].

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use kdv_core::tile::{BandCheckpoint, Tile};
use kdv_core::KernelType;

use crate::pyramid::TileCoord;

/// Which point set a tile's bits were computed from: the full dataset
/// (exact) or its ε-coreset (approximate overview tier). Part of the
/// cache key so an approximate tile can never be returned for an
/// exact-tier lookup, even if every other parameter matches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TileTier {
    /// Computed from the full point set — bitwise-equal to the
    /// monolithic raster.
    #[default]
    Exact,
    /// Computed from the dataset's ε-coreset — within the advertised
    /// sup-error bound of exact.
    Coreset,
}

impl TileTier {
    /// Stable lowercase name for metadata and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            TileTier::Exact => "exact",
            TileTier::Coreset => "coreset",
        }
    }
}

/// Full provenance of a tile's bits — the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileKey {
    /// Identifier of the (immutable) point set the tile was computed from.
    pub dataset: u64,
    /// Spatial kernel.
    pub kernel: KernelType,
    /// Bandwidth as a bit pattern (ULP-exact keying).
    pub bandwidth_bits: u64,
    /// Normalisation weight as a bit pattern.
    pub weight_bits: u64,
    /// Pyramid address of the tile.
    pub coord: TileCoord,
    /// Exact or coreset provenance (see [`TileTier`]).
    pub tier: TileTier,
    /// Generation of the point set the tile was computed from (0 for a
    /// set that never sealed a batch). A streaming set bumps the
    /// generation on every sealed mutation batch and every compaction, so
    /// a tile of an older state of the data can never alias a fresh one
    /// — a lookup for generation `g` finds it only as a stale tile
    /// ([`Lookup::Stale`]) to patch forward.
    pub generation: u64,
}

impl TileKey {
    /// Builds an exact-tier key from float parameters (stored as bit
    /// patterns); use [`TileKey::with_tier`] for coreset-tier keys.
    pub fn new(
        dataset: u64,
        kernel: KernelType,
        bandwidth: f64,
        weight: f64,
        coord: TileCoord,
        generation: u64,
    ) -> Self {
        Self {
            dataset,
            kernel,
            bandwidth_bits: bandwidth.to_bits(),
            weight_bits: weight.to_bits(),
            coord,
            tier: TileTier::Exact,
            generation,
        }
    }

    /// The same key re-tiered (builder style).
    pub fn with_tier(mut self, tier: TileTier) -> Self {
        self.tier = tier;
        self
    }
}

/// Key of a band sweep checkpoint ([`BandCheckpoint`]): the state of the
/// sweep of band `coord.ty` at the left edge of tile column `coord.tx`,
/// over the epoch base whose generation is `generation` (a checkpoint is
/// of the base sweep only, so every generation of an epoch shares it).
/// Every other field keys the computation as for a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CheckpointKey(pub TileKey);

/// A cache entry's key: tiles and checkpoints never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum EntryKey {
    Tile(TileKey),
    Checkpoint(CheckpointKey),
}

/// A cached value.
#[derive(Debug, Clone)]
enum Entry {
    Tile(Arc<Tile>),
    Checkpoint(Arc<BandCheckpoint>),
}

impl Entry {
    fn bytes(&self) -> usize {
        match self {
            Entry::Tile(tile) => tile.bytes(),
            Entry::Checkpoint(checkpoint) => checkpoint.bytes(),
        }
    }

    fn tile(&self) -> Option<&Arc<Tile>> {
        match self {
            Entry::Tile(tile) => Some(tile),
            Entry::Checkpoint(_) => None,
        }
    }
}

/// What a [`TileCache::lookup`] found.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// The tile at the requested generation.
    Hit(Arc<Tile>),
    /// No tile at the requested generation, but the same tile at the
    /// older generation `.0` — the newest one cached in the searched
    /// range. Its bits can be patched forward.
    Stale(u64, Arc<Tile>),
    /// Neither.
    Miss,
}

/// Saturating cache counters, shared by all shards. Built on the
/// saturating [`kdv_obs::Counter`] — once a counter reaches `u64::MAX`
/// it stays there; wrapping would make long-lived statistics
/// non-monotone.
///
/// `evictions` means **displacement**: an entry that was cached and then
/// pushed out to keep the shard inside its budget. An oversized tile that
/// was never admitted counts under `rejected` instead — conflating the
/// two would make a cache that admits nothing look like one that churns.
///
/// Every [`TileCache::lookup`] counts exactly one of `hits`, `misses`
/// and `patched`: `patched` is a lookup that found the tile only at an
/// older generation ([`Lookup::Stale`]), whose bits the server advances
/// with a delta fold ([`TileCache::patch`]) instead of sweeping them from
/// scratch. A patch reuses bits the cache already paid for, so it is
/// **neither** a miss nor a hit — counting it as a miss would make the
/// hit rate lie about how much sweep work streaming actually saved.
/// Counting at lookup time makes `hits + misses + patched` equal the
/// lookups, for one request and in total.
///
/// Checkpoint lookups ([`TileCache::nearest_checkpoint`]) count only
/// under `checkpoint_hits` / `checkpoint_misses`, and displaced
/// checkpoints only under `checkpoint_evictions`, so the tile counters
/// keep counting tiles. `rejected` counts tiles only: a checkpoint too
/// large for its segment is dropped, and the sweep it came from still
/// served its tiles.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: kdv_obs::Counter,
    misses: kdv_obs::Counter,
    evictions: kdv_obs::Counter,
    rejected: kdv_obs::Counter,
    patched: kdv_obs::Counter,
    checkpoint_hits: kdv_obs::Counter,
    checkpoint_misses: kdv_obs::Counter,
    checkpoint_evictions: kdv_obs::Counter,
}

impl CacheStats {
    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Tiles displaced from the cache to stay inside the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Inserts refused outright (tile larger than one shard's tile
    /// budget) — the tile was computed, never cached, and dropped.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// Lookups that found the tile only at an older generation, to be
    /// patched forward — reused bits, neither hits nor misses.
    pub fn patched(&self) -> u64 {
        self.patched.get()
    }

    /// Checkpoint lookups that found a checkpoint to resume from.
    pub fn checkpoint_hits(&self) -> u64 {
        self.checkpoint_hits.get()
    }

    /// Checkpoint lookups that found none.
    pub fn checkpoint_misses(&self) -> u64 {
        self.checkpoint_misses.get()
    }

    /// Checkpoints displaced from the cache to stay inside their share of
    /// the byte budget.
    pub fn checkpoint_evictions(&self) -> u64 {
        self.checkpoint_evictions.get()
    }

    /// Test hook: forces the raw counter values (e.g. to the `u64`
    /// boundary) so rollover behaviour can be exercised without serving
    /// 2⁶⁴ requests. Not for production use.
    pub fn force(&self, hits: u64, misses: u64, evictions: u64) {
        self.hits.force(hits);
        self.misses.force(misses);
        self.evictions.force(evictions);
    }
}

/// What one [`TileCache::insert`] did, from the inserting caller's point
/// of view — the per-request attribution the global [`CacheStats`]
/// cannot provide under concurrency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Tiles this insert displaced to fit the shard's tile budget.
    pub evicted: u64,
    /// Checkpoints this insert displaced to fit the shard's checkpoint
    /// budget.
    pub evicted_checkpoints: u64,
    /// Whether the entry was refused outright (oversized, never cached).
    pub rejected: bool,
}

impl InsertOutcome {
    /// Counts one displaced entry under its kind.
    fn displaced(&mut self, key: &EntryKey) {
        match key {
            EntryKey::Tile(_) => self.evicted += 1,
            EntryKey::Checkpoint(_) => self.evicted_checkpoints += 1,
        }
    }
}

const NIL: usize = usize::MAX;

/// Share of an SLRU's budget the protected segment may hold, as a
/// fraction `PROTECTED_SHARE.0 / PROTECTED_SHARE.1`. The rest is the
/// floor of probation: room where a burst of new entries churns without
/// touching the entries hit since they were cached.
const PROTECTED_SHARE: (u128, u128) = (4, 5);

/// Which recency list of its shard a node is threaded on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Segment {
    /// Inserted and not read since: the first to be evicted.
    Probation = 0,
    /// Read at least once while cached.
    Protected = 1,
}

/// One intrusive recency list (`head` = hottest, `tail` = coldest) and
/// the bytes of the nodes on it.
#[derive(Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
    bytes: usize,
}

const EMPTY: List = List { head: NIL, tail: NIL, bytes: 0 };

/// One cache node: the entry plus its segment and position in that
/// segment's recency list.
struct Node {
    key: EntryKey,
    entry: Entry,
    bytes: usize,
    seg: Segment,
    prev: usize,
    next: usize,
}

/// One SLRU of a shard (its tiles, or its checkpoints): a hash map into a
/// slab of nodes, each threaded on one of two intrusive doubly-linked
/// recency lists — a segmented LRU. New keys
/// enter probation; a hit moves its entry to protected, whose overflow
/// past [`PROTECTED_SHARE`] of the budget is demoted back to the head of
/// probation. Eviction takes the probation tail; protected entries leave
/// only through demotion. All operations are O(1) amortised.
struct Shard {
    map: HashMap<EntryKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    lists: [List; 2],
    budget: usize,
    protected_cap: usize,
}

impl Shard {
    fn new(budget: usize) -> Self {
        let (num, den) = PROTECTED_SHARE;
        Self {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            lists: [EMPTY; 2],
            budget,
            protected_cap: (budget as u128 * num / den) as usize,
        }
    }

    fn bytes(&self) -> usize {
        self.lists[0].bytes + self.lists[1].bytes
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, bytes, seg, .. } = self.nodes[idx];
        let list = &mut self.lists[seg as usize];
        list.bytes -= bytes;
        match prev {
            NIL => list.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => list.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize, seg: Segment) {
        let list = &mut self.lists[seg as usize];
        list.bytes += self.nodes[idx].bytes;
        let head = std::mem::replace(&mut list.head, idx);
        match head {
            NIL => list.tail = idx,
            h => self.nodes[h].prev = idx,
        }
        let node = &mut self.nodes[idx];
        node.seg = seg;
        node.prev = NIL;
        node.next = head;
    }

    /// Unlinks and frees a node, releasing its buffer.
    fn release(&mut self, idx: usize) -> Segment {
        self.unlink(idx);
        self.map.remove(&self.nodes[idx].key);
        self.nodes[idx].entry = Entry::Tile(Arc::new(Tile::new(0, 0, 0, 0, Vec::new())));
        self.free.push(idx);
        self.nodes[idx].seg
    }

    /// Demotes protected tails to the probation head until protected
    /// fits its share of the budget.
    fn demote_overflow(&mut self) {
        while self.lists[Segment::Protected as usize].bytes > self.protected_cap {
            let idx = self.lists[Segment::Protected as usize].tail;
            self.unlink(idx);
            self.push_front(idx, Segment::Probation);
        }
    }

    fn get(&mut self, key: &EntryKey) -> Option<Entry> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx, Segment::Protected);
        self.demote_overflow();
        Some(self.nodes[idx].entry.clone())
    }

    /// The entry under `key`, without touching recency.
    fn peek(&self, key: &EntryKey) -> Option<&Entry> {
        self.map.get(key).map(|&idx| &self.nodes[idx].entry)
    }

    /// Removes an entry if present, returning the segment it was in.
    fn remove(&mut self, key: &EntryKey) -> Option<Segment> {
        let idx = *self.map.get(key)?;
        Some(self.release(idx))
    }

    /// Inserts an entry into `seg`, or refreshes it in the hotter of its
    /// own segment and `seg`, then evicts until the shard fits its
    /// budget. Returns the evictions, by kind.
    fn insert(&mut self, key: EntryKey, entry: Entry, seg: Segment) -> InsertOutcome {
        let bytes = entry.bytes();
        if let Some(&idx) = self.map.get(&key) {
            // refresh: same key recomputed (identical bits by construction)
            self.unlink(idx);
            let seg = seg.max(self.nodes[idx].seg);
            self.nodes[idx].entry = entry;
            self.nodes[idx].bytes = bytes;
            self.push_front(idx, seg);
        } else {
            let node = Node { key, entry, bytes, seg, prev: NIL, next: NIL };
            let idx = match self.free.pop() {
                Some(i) => {
                    self.nodes[i] = node;
                    i
                }
                None => {
                    self.nodes.push(node);
                    self.nodes.len() - 1
                }
            };
            self.map.insert(key, idx);
            self.push_front(idx, seg);
        }
        self.demote_overflow();
        let mut outcome = InsertOutcome::default();
        while self.bytes() > self.budget {
            // protected now fits its cap, which is within the budget, so
            // an over-budget shard always has a probation tail to evict
            let tail = self.lists[Segment::Probation as usize].tail;
            outcome.displaced(&self.nodes[tail].key);
            self.release(tail);
        }
        outcome
    }

    /// Drops every entry, returning how many of each kind there were.
    fn clear(&mut self) -> InsertOutcome {
        let mut dropped = InsertOutcome::default();
        self.map.keys().for_each(|key| dropped.displaced(key));
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.lists = [EMPTY; 2];
        dropped
    }
}

/// The sharded, byte-budgeted, segmented-LRU tile cache.
pub struct TileCache {
    /// Each shard's tiles.
    shards: Vec<Mutex<Shard>>,
    /// Each shard's checkpoints, in an SLRU of their own.
    checkpoint_shards: Vec<Mutex<Shard>>,
    /// Bytes of tiles one shard may hold.
    tile_budget: usize,
    /// Bytes of checkpoints one shard may hold.
    checkpoint_budget: usize,
    shard_mask: u64,
    stats: CacheStats,
}

impl TileCache {
    /// A cache holding at most `byte_budget` bytes of tile buffers across
    /// `shards` shards (rounded up to a power of two; the budget is split
    /// evenly, so the whole cache never exceeds `byte_budget`).
    ///
    /// Degenerate arguments are clamped rather than rejected: `shards`
    /// is forced into `[1, 4096]` (zero shards would divide by zero),
    /// and each shard keeps a budget of at least one byte so a tiny
    /// `byte_budget` (smaller than the shard count) degrades to a cache
    /// that can still admit nothing larger than a byte — not one whose
    /// zero budget silently misclassifies every insert.
    ///
    /// The whole budget holds tiles: a checkpoint is never admitted. A
    /// server that resumes band sweeps builds its cache with
    /// [`TileCache::with_checkpoint_share`].
    pub fn new(byte_budget: usize, shards: usize) -> Self {
        Self::with_checkpoint_share(byte_budget, shards, 0, 1)
    }

    /// [`TileCache::new`], with each shard's budget split between its
    /// tiles and its checkpoints in the proportion of a checkpoint's
    /// `checkpoint_row_bytes` to a tile's `tile_row_bytes` per row: the
    /// checkpoints get `c / (t + c)` of it, the budget of a checkpoint
    /// beside each tile. Each shard keeps at least one byte for tiles.
    pub fn with_checkpoint_share(
        byte_budget: usize,
        shards: usize,
        checkpoint_row_bytes: usize,
        tile_row_bytes: usize,
    ) -> Self {
        let shards = shards.clamp(1, 1 << 12).next_power_of_two();
        let shard_budget = (byte_budget / shards).max(1);
        let pair = checkpoint_row_bytes as u128 + tile_row_bytes as u128;
        let share = (shard_budget as u128 * checkpoint_row_bytes as u128).checked_div(pair);
        let checkpoint_budget = (share.unwrap_or(0) as usize).min(shard_budget - 1);
        let tile_budget = shard_budget - checkpoint_budget;
        let slrus = |budget| (0..shards).map(|_| Mutex::new(Shard::new(budget))).collect();
        Self {
            shards: slrus(tile_budget),
            checkpoint_shards: slrus(checkpoint_budget),
            tile_budget,
            checkpoint_budget,
            shard_mask: shards as u64 - 1,
            stats: CacheStats::default(),
        }
    }

    /// The SLRU of an entry: its shard's tiles or its shard's
    /// checkpoints. A tile's generation is left out of the hash, so every
    /// generation of a tile shares one shard and a lookup finds a stale
    /// generation under the same lock; a checkpoint's column is left out
    /// too, so every boundary of a band's sweep shares one shard and
    /// [`TileCache::nearest_checkpoint`] searches them under one lock.
    fn shard_of(&self, key: &EntryKey) -> MutexGuard<'_, Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let slrus = match key {
            EntryKey::Tile(k) => {
                (k.dataset, k.kernel, k.bandwidth_bits, k.weight_bits, k.coord, k.tier)
                    .hash(&mut h);
                &self.shards
            }
            EntryKey::Checkpoint(CheckpointKey(k)) => {
                let band = (k.coord.zoom, k.coord.ty, k.generation);
                (k.dataset, k.kernel, k.bandwidth_bits, k.weight_bits, band, k.tier).hash(&mut h);
                &self.checkpoint_shards
            }
        };
        // high bits pick the shard so shard choice stays independent of
        // the map's own bucket choice (which uses the low bits)
        self.lock(&slrus[((h.finish() >> 32) & self.shard_mask) as usize])
    }

    /// Locks a shard. A shard whose lock was poisoned (a thread panicked
    /// holding it, possibly mid-relink) is cleared — map, lists and
    /// bytes — with its entries counted as evictions, and serving goes
    /// on: a cache that forgets is still correct, a half-linked list is
    /// not.
    fn lock<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        shard.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            self.count_evictions(&guard.clear());
            shard.clear_poison();
            guard
        })
    }

    /// Looks a tile up, moving a hit to the head of its shard's protected
    /// segment. Counts a hit or a miss.
    pub fn get(&self, key: &TileKey) -> Option<Arc<Tile>> {
        match self.lookup(key, key.generation) {
            Lookup::Hit(tile) => Some(tile),
            _ => None,
        }
    }

    /// Looks a tile up at `key.generation`; failing that, finds the same
    /// tile at the newest generation in `oldest..key.generation` (the
    /// generations it may be patched forward from), under the same shard
    /// lock. A hit moves to the head of the protected segment; a stale
    /// tile is not an access and keeps its place. Counts exactly one of
    /// a hit, a patch or a miss (see [`CacheStats`]).
    pub fn lookup(&self, key: &TileKey, oldest: u64) -> Lookup {
        let mut span = kdv_obs::span("cache.lookup");
        let found = {
            let mut shard = self.shard_of(&EntryKey::Tile(*key));
            match shard.get(&EntryKey::Tile(*key)) {
                Some(Entry::Tile(tile)) => Lookup::Hit(tile),
                _ => (oldest..key.generation)
                    .rev()
                    .find_map(|generation| {
                        let stale = EntryKey::Tile(TileKey { generation, ..*key });
                        let tile = shard.peek(&stale)?.tile()?;
                        Some(Lookup::Stale(generation, Arc::clone(tile)))
                    })
                    .unwrap_or(Lookup::Miss),
            }
        };
        span.arg("hit", matches!(found, Lookup::Hit(_)) as u64);
        match found {
            Lookup::Hit(_) => self.stats.hits.bump(),
            Lookup::Stale(..) => self.stats.patched.bump(),
            Lookup::Miss => self.stats.misses.bump(),
        }
        found
    }

    /// Peeks without touching recency or counters (used by assertions).
    pub fn peek(&self, key: &TileKey) -> Option<Arc<Tile>> {
        let key = EntryKey::Tile(*key);
        self.shard_of(&key).peek(&key).and_then(Entry::tile).cloned()
    }

    /// Inserts a computed tile at the head of probation (a refreshed key
    /// keeps its segment), evicting cold entries to stay inside the byte
    /// budget. Oversized tiles (larger than one shard's budget) are
    /// not cached at all — counted under `rejected` (never admitted),
    /// distinct from `evictions` (admitted and later displaced).
    ///
    /// Returns this insert's own effect so callers serving one request
    /// can attribute displacement to themselves instead of diffing the
    /// global counters (which misattributes under concurrency).
    pub fn insert(&self, key: TileKey, tile: Arc<Tile>) -> InsertOutcome {
        self.admit(EntryKey::Tile(key), Entry::Tile(tile))
    }

    /// Inserts a band sweep checkpoint like a tile ([`TileCache::insert`]),
    /// but into its shard's checkpoint SLRU: it displaces only
    /// checkpoints, counted under `checkpoint_evictions`, and one larger
    /// than the shard's checkpoint budget is refused without counting as
    /// a tile rejection.
    pub fn insert_checkpoint(
        &self,
        key: CheckpointKey,
        checkpoint: Arc<BandCheckpoint>,
    ) -> InsertOutcome {
        self.admit(EntryKey::Checkpoint(key), Entry::Checkpoint(checkpoint))
    }

    /// The checkpoint nearest left of `key`'s column: the one at column
    /// `key.0.coord.tx`, else `tx − 1`, down to column `floor`, searched
    /// under one shard lock. A checkpoint found is one a cold run resumes
    /// from: it moves to the head of the checkpoint SLRU's protected
    /// segment, like a tile hit. Counts one checkpoint hit or miss, never
    /// a tile lookup.
    pub fn nearest_checkpoint(
        &self,
        key: &CheckpointKey,
        floor: u32,
    ) -> Option<Arc<BandCheckpoint>> {
        let CheckpointKey(k) = *key;
        let found = {
            let mut shard = self.shard_of(&EntryKey::Checkpoint(*key));
            (floor..=k.coord.tx).rev().find_map(|tx| {
                let coord = TileCoord { tx, ..k.coord };
                match shard.get(&EntryKey::Checkpoint(CheckpointKey(TileKey { coord, ..k }))) {
                    Some(Entry::Checkpoint(checkpoint)) => Some(checkpoint),
                    _ => None,
                }
            })
        };
        let (counter, name) = match found {
            Some(_) => (&self.stats.checkpoint_hits, "serve.checkpoint.hits"),
            None => (&self.stats.checkpoint_misses, "serve.checkpoint.misses"),
        };
        counter.bump();
        kdv_obs::metrics::global().counter(name).bump();
        found
    }

    /// Admits one entry at the head of probation: the body of
    /// [`TileCache::insert`] and [`TileCache::insert_checkpoint`].
    fn admit(&self, key: EntryKey, entry: Entry) -> InsertOutcome {
        let mut span = kdv_obs::span1("cache.insert", "bytes", entry.bytes() as u64);
        let budget = match key {
            EntryKey::Tile(_) => self.tile_budget,
            EntryKey::Checkpoint(_) => self.checkpoint_budget,
        };
        if entry.bytes() > budget {
            span.arg("rejected", 1);
            if let EntryKey::Tile(_) = key {
                self.stats.rejected.bump();
            }
            return InsertOutcome { rejected: true, ..InsertOutcome::default() };
        }
        let outcome = self.shard_of(&key).insert(key, entry, Segment::Probation);
        self.count_evictions(&outcome);
        span.arg("evicted", outcome.evicted);
        span.arg("evicted_checkpoints", outcome.evicted_checkpoints);
        outcome
    }

    /// Adds displaced entries to the tile or checkpoint eviction counters.
    fn count_evictions(&self, outcome: &InsertOutcome) {
        if outcome.evicted > 0 {
            self.stats.evictions.add(outcome.evicted);
        }
        if outcome.evicted_checkpoints > 0 {
            self.stats.checkpoint_evictions.add(outcome.evicted_checkpoints);
            kdv_obs::metrics::global()
                .counter("serve.checkpoint.evictions")
                .add(outcome.evicted_checkpoints);
        }
    }

    /// Advances a cached tile to a newer generation **in place**: removes
    /// the entry under `old_key` (the stale generation) and stores the
    /// patched `tile` under `new_key`. The lookup that found the stale
    /// tile already counted it under `patched`, so the patch itself is
    /// counted as neither a miss nor a fresh insert (see [`CacheStats`]);
    /// evictions the re-keyed entry causes are still real displacement
    /// and are reported in the outcome.
    ///
    /// The patched entry keeps the replaced entry's segment: a hot tile
    /// advanced to generation g+1 stays protected. A patch is not an
    /// access, so it never promotes; with no entry under `old_key` the
    /// tile enters probation like any insert. The shard lock is taken
    /// twice in sequence (remove, then insert), never nested.
    pub fn patch(&self, old_key: &TileKey, new_key: TileKey, tile: Arc<Tile>) -> InsertOutcome {
        let mut span = kdv_obs::span1("cache.patch", "bytes", tile.bytes() as u64);
        let old_key = EntryKey::Tile(*old_key);
        let seg = self.shard_of(&old_key).remove(&old_key).unwrap_or(Segment::Probation);
        if tile.bytes() > self.tile_budget {
            span.arg("rejected", 1);
            self.stats.rejected.bump();
            return InsertOutcome { rejected: true, ..InsertOutcome::default() };
        }
        let new_key = EntryKey::Tile(new_key);
        let outcome = self.shard_of(&new_key).insert(new_key, Entry::Tile(tile), seg);
        self.count_evictions(&outcome);
        span.arg("evicted", outcome.evicted);
        span.arg("evicted_checkpoints", outcome.evicted_checkpoints);
        outcome
    }

    /// Total bytes of tile and checkpoint buffers currently held.
    pub fn bytes(&self) -> usize {
        self.bytes_of(&self.shards) + self.bytes_of(&self.checkpoint_shards)
    }

    /// Number of cached tiles.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).map.len()).sum()
    }

    /// Number of cached band sweep checkpoints.
    pub fn checkpoints(&self) -> usize {
        self.checkpoint_shards.iter().map(|s| self.lock(s).map.len()).sum()
    }

    /// Bytes of the cached band sweep checkpoints.
    pub fn checkpoint_bytes(&self) -> usize {
        self.bytes_of(&self.checkpoint_shards)
    }

    /// Bytes held by one SLRU of every shard.
    fn bytes_of(&self, slrus: &[Mutex<Shard>]) -> usize {
        slrus.iter().map(|s| self.lock(s).bytes()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte budget the cache enforces (sum of shard budgets, tiles
    /// and checkpoints together).
    pub fn budget(&self) -> usize {
        (self.tile_budget + self.checkpoint_budget) * self.shards.len()
    }

    /// The part of [`TileCache::budget`] that holds checkpoints.
    pub fn checkpoint_budget(&self) -> usize {
        self.checkpoint_budget * self.shards.len()
    }

    /// The shared saturating counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tx: u32, ty: u32) -> TileKey {
        TileKey::new(1, KernelType::Epanechnikov, 10.0, 1.0, TileCoord { zoom: 0, tx, ty }, 0)
    }

    /// `k` at another generation.
    fn at(k: TileKey, generation: u64) -> TileKey {
        TileKey { generation, ..k }
    }

    fn tile(tx: usize, px: usize) -> Arc<Tile> {
        Arc::new(Tile::new(tx, 0, px, px, vec![tx as f64; px * px]))
    }

    #[test]
    fn get_insert_and_lru_order() {
        let cache = TileCache::new(1 << 20, 1);
        assert!(cache.get(&key(0, 0)).is_none());
        cache.insert(key(0, 0), tile(0, 4));
        cache.insert(key(1, 0), tile(1, 4));
        let got = cache.get(&key(0, 0)).unwrap();
        assert_eq!(got.values()[0], 0.0);
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.stats().misses(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_respects_budget_and_recency() {
        let unit = tile(0, 8).bytes();
        let cache = TileCache::new(unit * 3, 1);
        for tx in 0..3 {
            cache.insert(key(tx, 0), tile(tx as usize, 8));
        }
        assert_eq!(cache.len(), 3);
        cache.get(&key(0, 0)); // heat the oldest entry
        cache.insert(key(3, 0), tile(3, 8)); // must evict key(1,0), not key(0,0)
        assert!(cache.bytes() <= cache.budget());
        assert!(cache.peek(&key(0, 0)).is_some(), "recently used entry survived");
        assert!(cache.peek(&key(1, 0)).is_none(), "cold entry evicted");
        assert_eq!(cache.stats().evictions(), 1);
    }

    #[test]
    fn oversized_tile_is_rejected_not_evicted() {
        let cache = TileCache::new(64, 1);
        let outcome = cache.insert(key(0, 0), tile(0, 64));
        assert!(cache.is_empty());
        assert_eq!(outcome, InsertOutcome { rejected: true, ..InsertOutcome::default() });
        assert_eq!(cache.stats().rejected(), 1, "refused insert counts as rejected");
        assert_eq!(cache.stats().evictions(), 0, "nothing was cached, nothing displaced");
    }

    #[test]
    fn zero_shards_does_not_panic() {
        // regression: `new(budget, 0)` must clamp the shard count, not
        // divide the budget by zero
        let cache = TileCache::new(1 << 20, 0);
        let outcome = cache.insert(key(0, 0), tile(0, 4));
        assert_eq!(outcome, InsertOutcome::default());
        assert!(cache.get(&key(0, 0)).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn tiny_budget_clamps_shard_budget_to_one_byte() {
        // a budget smaller than the shard count must not truncate the
        // per-shard budget to zero (every insert would be "oversized")
        let cache = TileCache::new(3, 8);
        assert!(cache.budget() >= cache.shards.len());
        let outcome = cache.insert(key(0, 0), tile(0, 4));
        assert!(outcome.rejected, "a real tile still exceeds a 1-byte shard");
        assert!(TileCache::new(0, 0).budget() >= 1);
    }

    #[test]
    fn insert_outcome_reports_own_displacement() {
        let unit = tile(0, 8).bytes();
        let cache = TileCache::new(unit * 2, 1);
        assert_eq!(cache.insert(key(0, 0), tile(0, 8)), InsertOutcome::default());
        assert_eq!(cache.insert(key(1, 0), tile(1, 8)), InsertOutcome::default());
        let third = cache.insert(key(2, 0), tile(2, 8));
        assert_eq!(third, InsertOutcome { evicted: 1, ..InsertOutcome::default() });
        assert_eq!(cache.stats().evictions(), 1);
        assert_eq!(cache.stats().rejected(), 0);
    }

    #[test]
    fn refresh_same_key_does_not_leak_bytes() {
        let cache = TileCache::new(1 << 20, 2);
        for _ in 0..10 {
            cache.insert(key(0, 0), tile(0, 8));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), tile(0, 8).bytes());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let cache = TileCache::new(1 << 20, 1);
        cache.stats().force(u64::MAX - 1, u64::MAX, 0);
        cache.insert(key(0, 0), tile(0, 4));
        cache.get(&key(0, 0)); // hit: MAX-1 -> MAX
        cache.get(&key(0, 0)); // hit at MAX stays MAX (no wrap to 0)
        cache.get(&key(9, 9)); // miss at MAX stays MAX
        assert_eq!(cache.stats().hits(), u64::MAX);
        assert_eq!(cache.stats().misses(), u64::MAX);
    }

    #[test]
    fn distinct_bandwidth_bits_do_not_alias() {
        let cache = TileCache::new(1 << 20, 4);
        let a =
            TileKey::new(1, KernelType::Quartic, 10.0, 1.0, TileCoord { zoom: 1, tx: 0, ty: 0 }, 0);
        let b = TileKey::new(
            1,
            KernelType::Quartic,
            f64::from_bits(10.0_f64.to_bits() + 1),
            1.0,
            TileCoord { zoom: 1, tx: 0, ty: 0 },
            0,
        );
        cache.insert(a, tile(7, 2));
        assert!(cache.peek(&b).is_none());
    }

    #[test]
    fn generations_do_not_alias() {
        // a tile of an older state of a streaming set must never answer
        // a lookup for the current generation
        let cache = TileCache::new(1 << 20, 4);
        let g0 = key(0, 0);
        let g1 = at(key(0, 0), 1);
        assert_ne!(g0, g1);
        cache.insert(g0, tile(5, 2));
        assert!(cache.peek(&g1).is_none(), "generation-1 lookup found a generation-0 tile");
    }

    #[test]
    fn patch_is_not_a_miss_and_not_an_insert() {
        // regression (PR 9 satellite): advancing a cached tile to a new
        // generation must count under `patched` alone — miscounting it as
        // miss+insert would make streaming hit rates meaningless
        let cache = TileCache::new(1 << 20, 4);
        let g0 = key(2, 3);
        let g1 = at(key(2, 3), 1);
        cache.insert(g0, tile(1, 4));
        let (h0, m0) = (cache.stats().hits(), cache.stats().misses());
        match cache.lookup(&g1, 0) {
            Lookup::Stale(0, stale) => assert_eq!(stale.values()[0], 1.0),
            other => panic!("expected the generation-0 tile, got {other:?}"),
        }
        let outcome = cache.patch(&g0, g1, tile(9, 4));
        assert_eq!(outcome, InsertOutcome::default());
        assert_eq!(cache.stats().patched(), 1, "the stale lookup counts the patch, once");
        assert_eq!(cache.stats().hits(), h0, "a patch is not a hit");
        assert_eq!(cache.stats().misses(), m0, "a patch is not a miss");
        assert_eq!(cache.stats().evictions(), 0);
        assert_eq!(cache.len(), 1, "patch replaces, never duplicates");
        assert!(cache.peek(&g0).is_none(), "the stale generation is gone");
        assert_eq!(cache.peek(&g1).unwrap().values()[0], 9.0);
    }

    #[test]
    fn lookup_finds_the_newest_stale_generation_in_range() {
        let cache = TileCache::new(1 << 20, 4);
        cache.insert(at(key(0, 0), 1), tile(1, 4));
        cache.insert(at(key(0, 0), 3), tile(3, 4));
        cache.insert(at(key(1, 0), 4), tile(7, 4));
        match cache.lookup(&at(key(0, 0), 5), 0) {
            Lookup::Stale(3, stale) => assert_eq!(stale.values()[0], 3.0),
            other => panic!("expected generation 3, got {other:?}"),
        }
        assert!(matches!(cache.lookup(&at(key(0, 0), 5), 4), Lookup::Miss), "3 is out of range");
        assert!(matches!(cache.lookup(&at(key(0, 0), 3), 0), Lookup::Hit(_)));
        assert!(
            matches!(cache.lookup(&at(key(0, 0), 0), 0), Lookup::Miss),
            "no newer tile is stale"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits(), stats.misses(), stats.patched()), (1, 2, 1));
    }

    #[test]
    fn patch_keeps_the_replaced_entrys_segment() {
        // a hot live tile advanced to generation g+1 stays protected; a
        // cold one stays on probation, because a patch is not an access
        let cache = TileCache::new(1 << 20, 1);
        let (hot, cold) = (key(0, 0), key(1, 0));
        cache.insert(hot, tile(0, 4));
        cache.insert(cold, tile(1, 4));
        cache.get(&hot);
        cache.patch(&hot, at(hot, 1), tile(2, 4));
        cache.patch(&cold, at(cold, 1), tile(3, 4));
        assert_eq!(segment_of(&cache, &at(hot, 1)), Some(Segment::Protected));
        assert_eq!(segment_of(&cache, &at(cold, 1)), Some(Segment::Probation));
        assert_eq!(cache.stats().hits(), 1, "a patch is not a hit");
        // with nothing under the old key the patched tile is a plain insert
        cache.patch(&key(9, 9), at(key(9, 9), 1), tile(4, 4));
        assert_eq!(segment_of(&cache, &at(key(9, 9), 1)), Some(Segment::Probation));
        check_invariants(&cache);
    }

    #[test]
    fn oversized_patch_still_retires_the_stale_entry() {
        let unit = tile(0, 4).bytes();
        let cache = TileCache::new(unit, 1);
        let g0 = key(0, 0);
        cache.insert(g0, tile(0, 4));
        let outcome = cache.patch(&g0, at(g0, 1), tile(0, 64));
        assert!(outcome.rejected);
        assert_eq!(cache.stats().rejected(), 1, "the oversized tile was never admitted");
        assert!(cache.is_empty(), "the stale generation must not linger");
    }

    #[test]
    fn scan_resistance_keeps_a_working_set_read_twice() {
        let unit = tile(0, 8).bytes();
        let cache = TileCache::new(unit * 10, 1);
        for tx in 0..4 {
            cache.insert(key(tx, 0), tile(tx as usize, 8));
            cache.get(&key(tx, 0));
        }
        for tx in 0..2 {
            cache.insert(key(tx, 1), tile(tx as usize, 8)); // inserted, never read
        }
        // a burst twice the whole budget, read once each (by the insert)
        for tx in 0..20 {
            cache.insert(key(tx, 2), tile(tx as usize, 8));
        }
        for tx in 0..4 {
            assert!(cache.peek(&key(tx, 0)).is_some(), "hot tile {tx} was scanned out");
        }
        for tx in 0..2 {
            assert!(cache.peek(&key(tx, 1)).is_none(), "cold tile {tx} outlived the scan");
        }
        assert!(cache.bytes() <= cache.budget());
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.stats().evictions(), 16);
        check_invariants(&cache);
    }

    #[test]
    fn refresh_keeps_the_entrys_segment() {
        let cache = TileCache::new(1 << 20, 1);
        cache.insert(key(0, 0), tile(0, 4));
        cache.get(&key(0, 0));
        cache.insert(key(0, 0), tile(0, 4)); // same key recomputed
        assert_eq!(segment_of(&cache, &key(0, 0)), Some(Segment::Protected));
        cache.insert(key(1, 0), tile(1, 4));
        cache.insert(key(1, 0), tile(1, 4));
        assert_eq!(segment_of(&cache, &key(1, 0)), Some(Segment::Probation));
        check_invariants(&cache);
    }

    #[test]
    fn eviction_takes_probation_before_protected() {
        let unit = tile(0, 8).bytes();
        let cache = TileCache::new(unit * 4, 1);
        cache.insert(key(0, 0), tile(0, 8));
        cache.insert(key(1, 0), tile(1, 8));
        cache.get(&key(0, 0));
        cache.get(&key(1, 0));
        cache.insert(key(2, 0), tile(2, 8));
        cache.insert(key(3, 0), tile(3, 8));
        // key(0,0) is the least recently used entry overall, but it is
        // protected: the probation tail key(2,0) goes first
        let outcome = cache.insert(key(4, 0), tile(4, 8));
        assert_eq!(outcome.evicted, 1);
        assert!(cache.peek(&key(2, 0)).is_none(), "probation tail evicted");
        for tx in [0, 1, 3, 4] {
            assert!(cache.peek(&key(tx, 0)).is_some(), "key({tx},0) survived");
        }
        check_invariants(&cache);
    }

    #[test]
    fn protected_segment_is_capped_at_four_fifths_of_the_budget() {
        let unit = tile(0, 8).bytes();
        let cache = TileCache::new(unit * 10, 1);
        for tx in 0..10 {
            cache.insert(key(tx, 0), tile(tx as usize, 8));
        }
        for tx in 0..10 {
            cache.get(&key(tx, 0));
        }
        // only 8 units fit protected: the two oldest hits were demoted to
        // the probation head, key(1,0) ahead of key(0,0)
        let shard = cache.shard_of(&EntryKey::Tile(key(0, 0)));
        assert_eq!(shard.lists[Segment::Protected as usize].bytes, unit * 8);
        assert_eq!(shard.lists[Segment::Probation as usize].bytes, unit * 2);
        drop(shard);
        assert_eq!(segment_of(&cache, &key(0, 0)), Some(Segment::Probation));
        assert_eq!(segment_of(&cache, &key(1, 0)), Some(Segment::Probation));
        assert_eq!(segment_of(&cache, &key(2, 0)), Some(Segment::Protected));
        cache.insert(key(10, 0), tile(10, 8));
        assert!(cache.peek(&key(0, 0)).is_none(), "the coldest demoted entry goes first");
        assert!(cache.peek(&key(1, 0)).is_some());
        check_invariants(&cache);
    }

    #[test]
    fn seeded_operation_sequences_keep_every_invariant() {
        for (seed, shards) in [(1u64, 1usize), (2, 1), (3, 4), (4, 4)] {
            let unit = tile(0, 4).bytes();
            let cache = TileCache::new(unit * 24, shards);
            let shard_budget = cache.budget() / cache.shards.len();
            let mut model: HashMap<TileKey, f64> = HashMap::new();
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
            let mut next = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            for step in 0..4000 {
                let k = at(key(next(12) as u32, 0), next(3));
                let value = step as f64;
                match next(4) {
                    0 => {
                        let got = cache.get(&k);
                        if let Some(t) = &got {
                            assert_eq!(Some(&t.values()[0]), model.get(&k), "step {step}");
                        }
                        for shard in &cache.shards {
                            let shard = cache.lock(shard);
                            let protected = shard.lists[Segment::Protected as usize].bytes;
                            assert!(protected * 5 <= shard_budget * 4, "step {step}: cap");
                        }
                    }
                    1 => {
                        let px = 2 + next(5) as usize;
                        cache.insert(k, Arc::new(Tile::new(0, 0, px, px, vec![value; px * px])));
                        model.insert(k, value);
                        for shard in &cache.shards {
                            assert!(cache.lock(shard).bytes() <= shard_budget, "step {step}");
                        }
                    }
                    2 => {
                        let to = at(k, k.generation + 1);
                        cache.patch(&k, to, tile(0, 3 + next(3) as usize));
                        model.remove(&k);
                        model.insert(to, 0.0);
                    }
                    _ => {
                        let entry = EntryKey::Tile(k);
                        cache.shard_of(&entry).remove(&entry);
                        model.remove(&k);
                    }
                }
                check_invariants(&cache);
                for (k, v) in cache.shards.iter().flat_map(|s| {
                    let s = cache.lock(s);
                    s.map
                        .iter()
                        .map(|(k, &i)| match k {
                            EntryKey::Tile(k) => (*k, s.nodes[i].entry.tile().unwrap().values()[0]),
                            EntryKey::Checkpoint(_) => panic!("no checkpoint was inserted"),
                        })
                        .collect::<Vec<_>>()
                }) {
                    assert_eq!(model.get(&k), Some(&v), "step {step}: cached bits drifted");
                }
            }
        }
    }

    #[test]
    fn poisoned_shard_is_cleared_and_keeps_serving() {
        let cache = Arc::new(TileCache::with_checkpoint_share(1 << 20, 1, 88, 2048));
        cache.insert(key(0, 0), tile(0, 4));
        cache.insert(key(1, 0), tile(1, 4));
        cache.insert_checkpoint(CheckpointKey(key(0, 0)), checkpoint(16, 3));
        for checkpoints in [false, true] {
            let poisoner = Arc::clone(&cache);
            let result = std::thread::spawn(move || {
                let slrus =
                    if checkpoints { &poisoner.checkpoint_shards } else { &poisoner.shards };
                let mut shard = slrus[0].lock().unwrap();
                // die mid-relink: a dangling head the next user must not follow
                shard.lists[Segment::Probation as usize].head = 12_345;
                panic!("injected panic while holding the shard lock");
            })
            .join();
            assert!(result.is_err());
        }
        assert!(cache.shards[0].is_poisoned() && cache.checkpoint_shards[0].is_poisoned());

        assert_eq!(cache.len(), 0, "the poisoned shard is cleared, not trusted");
        assert_eq!(cache.checkpoints(), 0);
        assert!(!cache.shards[0].is_poisoned() && !cache.checkpoint_shards[0].is_poisoned());
        assert_eq!(cache.stats().evictions(), 2, "dropped entries count as evictions");
        assert_eq!(cache.stats().checkpoint_evictions(), 1, "by kind");
        assert_eq!(cache.bytes(), 0);
        assert!(cache.get(&key(0, 0)).is_none());
        assert_eq!(cache.insert(key(0, 0), tile(0, 4)), InsertOutcome::default());
        assert_eq!(cache.get(&key(0, 0)).unwrap().values()[0], 0.0);
        let outcome = cache.patch(&key(0, 0), at(key(0, 0), 1), tile(5, 4));
        assert_eq!(outcome, InsertOutcome::default());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), tile(5, 4).bytes());
        assert_eq!(cache.stats().evictions(), 2, "a recovered shard is not cleared again");
        check_invariants(&cache);
    }

    fn segment_of(cache: &TileCache, k: &TileKey) -> Option<Segment> {
        let k = EntryKey::Tile(*k);
        let shard = cache.shard_of(&k);
        shard.map.get(&k).map(|&i| shard.nodes[i].seg)
    }

    /// Walks both lists of every SLRU: links agree in both directions,
    /// every node sits on the list its segment names, per-segment bytes
    /// equal the sum over its nodes, and the map indexes exactly the
    /// linked nodes.
    fn check_invariants(cache: &TileCache) {
        assert!(cache.bytes() <= cache.budget());
        for shard in cache.shards.iter().chain(&cache.checkpoint_shards) {
            let shard = cache.lock(shard);
            let mut linked = 0;
            for seg in [Segment::Probation, Segment::Protected] {
                let list = shard.lists[seg as usize];
                let (mut idx, mut prev, mut bytes) = (list.head, NIL, 0);
                while idx != NIL {
                    let node = &shard.nodes[idx];
                    assert_eq!(node.seg, seg);
                    assert_eq!(node.prev, prev);
                    assert_eq!(shard.map.get(&node.key), Some(&idx), "map and list disagree");
                    assert_eq!(node.bytes, node.entry.bytes());
                    bytes += node.bytes;
                    linked += 1;
                    (prev, idx) = (idx, node.next);
                }
                assert_eq!(list.tail, prev);
                assert_eq!(list.bytes, bytes, "{seg:?} bytes");
            }
            assert_eq!(shard.map.len(), linked, "map holds an unlinked node");
            assert!(shard.lists[Segment::Protected as usize].bytes <= shard.protected_cap);
            let node_bytes: usize = shard.map.values().map(|&i| shard.nodes[i].bytes).sum();
            assert_eq!(shard.bytes(), node_bytes);
        }
    }

    fn checkpoint(boundary: usize, words: usize) -> Arc<BandCheckpoint> {
        let tiling = kdv_core::tile::Tiling::new(64, 4, 16).unwrap();
        let grid =
            kdv_core::GridSpec::new(kdv_core::Rect::new(0.0, 0.0, 64.0, 4.0), 64, 4).unwrap();
        let params = kdv_core::KdvParams::new(grid, KernelType::Epanechnikov, 3.0);
        let pts: Vec<_> = (0..words).map(|i| kdv_core::Point::new(i as f64, 2.0)).collect();
        let ctx = kdv_core::driver::SweepContext::new(&params, &pts).unwrap();
        let mut engine = kdv_core::sweep_bucket::BucketSweep::new(params.kernel, 3.0, 1.0);
        let mut out = vec![0.0; 4 * boundary];
        let rows = tiling.tile_rows(0);
        let mut envelope = kdv_core::envelope::EnvelopeBuffer::new();
        let at = kdv_core::tile::sweep_band(
            &ctx,
            3.0,
            rows,
            0..boundary,
            None,
            &[boundary],
            &mut engine,
            &mut envelope,
            &mut out,
        );
        Arc::new(at.into_iter().next().unwrap())
    }

    #[test]
    fn checkpoints_share_the_budget_but_not_the_tile_counters() {
        let cache = TileCache::with_checkpoint_share(1 << 20, 4, 88, 2048);
        assert_eq!(cache.checkpoint_budget(), 4 * ((1 << 18) * 88 / (2048 + 88)));
        assert_eq!(cache.budget(), 1 << 20, "the split keeps the budget whole");
        let ck = |tx: u32| CheckpointKey(key(tx, 0));
        // a checkpoint and a tile under the same coordinate never alias
        cache.insert(key(2, 0), tile(2, 4));
        assert_eq!(cache.insert_checkpoint(ck(2), checkpoint(32, 20)), InsertOutcome::default());
        assert_eq!(cache.get(&key(2, 0)).unwrap().values()[0], 2.0);
        assert_eq!((cache.len(), cache.checkpoints()), (1, 1));
        assert_eq!(cache.bytes(), tile(2, 4).bytes() + checkpoint(32, 20).bytes());
        assert_eq!(cache.checkpoint_bytes(), checkpoint(32, 20).bytes());
        // the nearest checkpoint at or left of a column, down to the floor
        assert_eq!(cache.nearest_checkpoint(&ck(5), 1).unwrap().boundary, 32);
        assert!(cache.nearest_checkpoint(&ck(5), 3).is_none(), "2 is below the floor");
        assert!(cache.nearest_checkpoint(&ck(1), 1).is_none());
        assert!(
            cache.nearest_checkpoint(&CheckpointKey(at(key(2, 0), 1)), 1).is_none(),
            "other epoch"
        );
        let stats = cache.stats();
        assert_eq!((stats.checkpoint_hits(), stats.checkpoint_misses()), (1, 3));
        assert_eq!((stats.hits(), stats.misses()), (1, 0), "tile counters count tiles only");
        check_invariants(&cache);
    }

    #[test]
    fn checkpoints_are_evicted_and_promoted_like_tiles() {
        // room for three tiles beside three checkpoints
        let (unit, ck_bytes) = (tile(0, 8).bytes(), checkpoint(16, 30).bytes());
        let cache = TileCache::with_checkpoint_share(3 * (unit + ck_bytes), 1, ck_bytes, unit);
        assert_eq!(cache.checkpoint_budget(), 3 * ck_bytes);
        let ck = |tx: u32| CheckpointKey(key(tx, 9));
        let mut outcomes = Vec::new();
        for tx in 1..=3 {
            outcomes.push(cache.insert_checkpoint(ck(tx), checkpoint(16, 30)));
        }
        // a checkpoint a cold run resumes from is promoted
        assert!(cache.nearest_checkpoint(&ck(1), 1).is_some());
        // a tile burst larger than the whole budget displaces no checkpoint
        for tx in 0..10 {
            outcomes.push(cache.insert(key(tx, 0), tile(tx as usize, 8)));
            assert!(cache.bytes() <= cache.budget(), "tile {tx}");
        }
        assert_eq!((cache.len(), cache.checkpoints()), (3, 3));
        // a burst of one-off checkpoints churns only checkpoint probation
        for tx in 10..20 {
            outcomes.push(cache.insert_checkpoint(ck(tx), checkpoint(16, 30)));
            assert!(cache.bytes() <= cache.budget(), "checkpoint {tx}");
        }
        assert_eq!((cache.len(), cache.checkpoints()), (3, 3));
        assert!(cache.nearest_checkpoint(&ck(1), 1).is_some(), "the promoted one survived");
        assert!(cache.nearest_checkpoint(&ck(3), 2).is_none(), "the one-off ones were evicted");
        // each displaced entry counts under its own kind only
        let (tiles, checkpoints) =
            outcomes.iter().fold((0, 0), |(t, c), o| (t + o.evicted, c + o.evicted_checkpoints));
        assert_eq!((tiles, checkpoints), (7, 10));
        assert_eq!(cache.stats().evictions(), tiles);
        assert_eq!(cache.stats().checkpoint_evictions(), checkpoints);
        check_invariants(&cache);
        // a checkpoint too big for its segment is no tile rejection
        for cache in
            [TileCache::new(1 << 20, 1), TileCache::with_checkpoint_share(2 * unit, 1, 1, 99)]
        {
            assert!(cache.insert_checkpoint(ck(1), checkpoint(16, 30)).rejected);
            assert_eq!(cache.stats().rejected(), 0);
            assert_eq!(cache.insert(key(0, 0), tile(0, 8)), InsertOutcome::default());
            assert_eq!((cache.len(), cache.checkpoints()), (1, 0));
        }
    }

    #[test]
    fn tiers_do_not_alias() {
        // a coreset tile must never answer an exact-tier lookup (and vice
        // versa), even with every other parameter identical
        let cache = TileCache::new(1 << 20, 4);
        let exact = key(0, 0);
        let coreset = key(0, 0).with_tier(TileTier::Coreset);
        assert_ne!(exact, coreset);
        cache.insert(coreset, tile(3, 2));
        assert!(cache.peek(&exact).is_none(), "exact lookup found a coreset tile");
        cache.insert(exact, tile(4, 2));
        assert_eq!(cache.get(&coreset).unwrap().values()[0], 3.0);
        assert_eq!(cache.get(&exact).unwrap().values()[0], 4.0);
    }
}
