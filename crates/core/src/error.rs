//! Error type shared by the KDV engines.

use std::fmt;

/// Errors produced while configuring or running a KDV computation.
#[derive(Debug, Clone, PartialEq)]
pub enum KdvError {
    /// The raster must have at least one pixel in each dimension.
    EmptyResolution { x: usize, y: usize },
    /// The raster's `f64` buffer (`x · y · 8` bytes) is larger than any
    /// allocation can be.
    ResolutionTooLarge { x: usize, y: usize },
    /// The bandwidth must be finite and strictly positive.
    InvalidBandwidth(f64),
    /// The query region is degenerate (zero or negative extent).
    DegenerateRegion { width: f64, height: f64 },
    /// A data point has a non-finite coordinate.
    NonFinitePoint { index: usize },
    /// The requested weight is non-finite.
    InvalidWeight(f64),
    /// A tile decomposition needs a tile side of at least one pixel.
    InvalidTileSize { tile_size: usize },
    /// A viewport request names no pixel of its pyramid level: its origin
    /// is outside the level, or the pyramid has no such zoom. Boxed, so
    /// the error stays three words.
    ViewportOutsideLevel(Box<ViewportOutside>),
    /// A cooperative deadline expired before the computation finished
    /// (used by the experiment harness to emulate the paper's 4-hour cap).
    DeadlineExceeded,
    /// An internal coordination failure (e.g. a worker that was computing
    /// a shared result panicked, leaving its waiters nothing to reuse).
    Internal(&'static str),
}

impl fmt::Display for KdvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KdvError::EmptyResolution { x, y } => {
                write!(f, "resolution {x}x{y} must be at least 1x1")
            }
            KdvError::ResolutionTooLarge { x, y } => {
                write!(f, "resolution {x}x{y} is too large to allocate")
            }
            KdvError::InvalidBandwidth(b) => {
                write!(f, "bandwidth {b} must be finite and > 0")
            }
            KdvError::DegenerateRegion { width, height } => {
                write!(f, "query region {width}x{height} must have positive extent")
            }
            KdvError::NonFinitePoint { index } => {
                write!(f, "data point #{index} has a non-finite coordinate")
            }
            KdvError::InvalidWeight(w) => write!(f, "weight {w} must be finite"),
            KdvError::InvalidTileSize { tile_size } => {
                write!(f, "tile size {tile_size} must be at least 1 pixel")
            }
            KdvError::ViewportOutsideLevel(v) => {
                let ViewportOutside { zoom, px, py, level } = **v;
                write!(f, "viewport origin ({px}, {py}) ")?;
                match level {
                    Some((x, y)) => write!(f, "is outside zoom {zoom}, whose level is {x}x{y} px"),
                    None => write!(f, "asks for zoom {zoom}: no such zoom"),
                }
            }
            KdvError::DeadlineExceeded => write!(f, "computation exceeded its deadline"),
            KdvError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for KdvError {}

/// What [`KdvError::ViewportOutsideLevel`] reports: the request's zoom and
/// origin, and the level's `(width, height)` in pixels (`None`: the
/// pyramid has no such zoom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewportOutside {
    pub zoom: u8,
    pub px: usize,
    pub py: usize,
    pub level: Option<(usize, usize)>,
}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, KdvError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(KdvError::EmptyResolution { x: 0, y: 5 }.to_string().contains("0x5"));
        assert!(KdvError::InvalidBandwidth(-1.0).to_string().contains("-1"));
        assert!(KdvError::NonFinitePoint { index: 7 }.to_string().contains("#7"));
        let outside = |level| {
            KdvError::ViewportOutsideLevel(Box::new(ViewportOutside {
                zoom: 3,
                px: 9,
                py: 4,
                level,
            }))
            .to_string()
        };
        assert!(outside(Some((8, 8))).contains("(9, 4) is outside zoom 3, whose level is 8x8"));
        assert!(outside(None).contains("zoom 3: no such zoom"));
        // the viewport report is boxed, so every `Result<_, KdvError>`
        // stays as small as before it was added
        assert_eq!(std::mem::size_of::<KdvError>(), 3 * std::mem::size_of::<usize>());
    }
}
