//! # kdv-serve — exact cached tile serving over the SLAM sweep engines
//!
//! The serving layer the paper's interactive motivation (pan/zoom KDV
//! exploration) calls for, built so that caching never costs exactness:
//!
//! * [`pyramid`] — zoom levels over a fixed region, each an exact raster
//!   of the same point set (coarse levels are never downsampled).
//! * [`cache`] — sharded, byte-budgeted segmented LRU of computed tiles,
//!   keyed by the full provenance of a tile's bits. New tiles go on
//!   probation and a hit protects them, so the tile bursts of a
//!   deep-zoom excursion evict each other rather than the panned working
//!   set.
//! * [`server`] — viewport serving through one [`TileServer`] over a
//!   `kdv_stream::StreamingPointSet`; a frozen point set is a stream that
//!   never seals a batch. The tile is the unit of a miss: a request looks
//!   each tile up at its snapshot's generation and finds it cached, stale
//!   (cached at an older generation of the epoch, patched forward by
//!   folding the batches sealed since over the columns of the band's
//!   stale tiles) or missing (computed cold up to the band's rightmost
//!   missing tile, from pixel 0 or resumed from a cached sweep
//!   checkpoint, with every batch folded on top), under per-tile
//!   single-flight. It collects the
//!   tiles in a dense table over its tile window and assembles the
//!   response with `kdv_core::tile::assemble`, which writes each pixel
//!   once into an unzeroed buffer: a request whose tiles are all cached
//!   costs one copy of its pixels.
//! * [`live`] — the streaming API of the same server: appends,
//!   expirations, signed batches and compaction, [`LiveConfig`] and the
//!   band counters in [`LiveStats`].
//! * [`trace`] — recorded viewport sequences (v1 single-stream, v2
//!   multi-session with think times, timestamped live feeds) for
//!   `kdv serve` replay and the tile benchmarks.
//! * [`frontend`] — concurrent serving front end: a worker pool over a
//!   bounded admission queue with per-request deadlines, explicit load
//!   shedding and per-class SLO accounting (`exact`, `coreset`, or
//!   `live` once the stream has moved past generation 0).
//! * [`replay`] — sequential and concurrent trace replayers that
//!   checksum every served grid so the two modes can be proven
//!   bitwise-identical.
//! * [`flight`] — the generic single-flight table, keyed by tile and
//!   generation.
//!
//! The invariant tying it together: a served viewport is bitwise-equal to
//! cropping the canonical rebuild of its generation's level
//! (`kdv_stream::rebuild_grid`; at generation 0 the monolithic
//! `sweep_bucket` raster), for any cache state, patch history, tile size
//! and thread count. `crates/conformance` holds the tile path to that
//! contract under the exact (ULP-zero) policy.

pub mod cache;
pub mod flight;
pub mod frontend;
pub mod live;
pub mod pyramid;
pub mod replay;
pub mod server;
pub mod trace;

pub use cache::{CacheStats, InsertOutcome, Lookup, TileCache, TileKey, TileTier};
pub use flight::{Flight, FlightStats, FlightTable};
pub use frontend::{
    Frontend, FrontendConfig, FrontendStats, ServeError, ServeResult, ShedReason, Ticket,
};
pub use live::{LiveConfig, LiveStats, LiveTileServer};
pub use pyramid::{PyramidSpec, TileCoord, Viewport, ZOOM_LIMIT};
pub use replay::{replay_concurrent, replay_sequential, ReplayOutcome, ReplayRecord};
pub use server::{OverviewConfig, RequestOutcome, ServeConfig, TierInfo, TileServer};
pub use trace::{Session, SessionRequest, TraceFile};
