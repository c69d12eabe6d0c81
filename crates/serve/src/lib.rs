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
//! * [`server`] — viewport serving; the tile is the unit of a miss. A
//!   request computes and caches exactly the tiles it missed, one sweep
//!   per band over the row prefixes that end at its rightmost missing
//!   tile (`kdv_core::tile::compute_band_tiles`), under per-tile
//!   single-flight. Both servers collect a request's
//!   tiles in a dense table over its tile window and assemble the
//!   response with `kdv_core::tile::assemble`, which writes each pixel
//!   once into an unzeroed buffer: a request whose tiles are all cached
//!   costs one copy of its pixels.
//! * [`trace`] — recorded viewport sequences (v1 single-stream, v2
//!   multi-session with think times) for `kdv serve --batch` replay and
//!   the tile benchmarks.
//! * [`frontend`] — concurrent serving front end: a worker pool over a
//!   bounded admission queue with per-request deadlines and explicit
//!   load shedding.
//! * [`replay`] — sequential and concurrent trace replayers that
//!   checksum every served grid so the two modes can be proven
//!   bitwise-identical.
//! * [`flight`] — the generic single-flight table, keyed by tile in the
//!   frozen-set server and by band and generation in the streaming one.
//! * [`live`] — streaming ingestion: a [`live::LiveTileServer`] over a
//!   `kdv_stream::StreamingPointSet` that **patches** cached tiles with
//!   delta sweeps instead of invalidating them, every response
//!   bitwise-equal to a rebuild from scratch.
//!
//! The invariant tying it together: a served viewport is bitwise-equal to
//! cropping the monolithic `sweep_bucket` raster of its level, for any
//! cache state, tile size and thread count. `crates/conformance` holds
//! the tile path to that contract under the exact (ULP-zero) policy.

pub mod cache;
pub mod flight;
pub mod frontend;
pub mod live;
pub mod pyramid;
pub mod replay;
pub mod server;
pub mod trace;

pub use cache::{CacheStats, InsertOutcome, TileCache, TileKey, TileTier};
pub use flight::{Flight, FlightStats, FlightTable};
pub use frontend::{
    Frontend, FrontendConfig, FrontendStats, ServeError, ServeResult, ShedReason, Ticket,
};
pub use live::{LiveConfig, LiveStats, LiveTileServer};
pub use pyramid::{PyramidSpec, TileCoord, Viewport};
pub use replay::{checksum, replay_concurrent, replay_sequential, ReplayOutcome, ReplayRecord};
pub use server::{OverviewConfig, ServeConfig, TierInfo, TileServer};
pub use trace::{Session, SessionRequest, TraceFile};
