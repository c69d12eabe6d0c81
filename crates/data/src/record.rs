//! Event records and datasets.
//!
//! The paper's four datasets are city open-data feeds where every row is a
//! located *event* (a crime, a collision, a 311 call) with a timestamp and
//! a category. [`EventRecord`] models that row; [`Dataset`] is a named
//! collection with convenience accessors used by the exploratory operations
//! (time and attribute filtering) and the experiment harness.

use kdv_core::geom::{Point, Rect};

/// Seconds in a (non-leap) year, used by the time helpers.
const SECS_PER_YEAR: i64 = 365 * 24 * 3600;
/// Unix timestamp of 2008-01-01T00:00:00Z — the earliest feed year.
pub const EPOCH_2008: i64 = 1_199_145_600;

/// One located event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Projected location (metres).
    pub point: Point,
    /// Event time as a unix timestamp (seconds).
    pub timestamp: i64,
    /// Category code; dataset-specific (e.g. crime type, call type).
    pub category: u16,
}

/// A named event dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name (e.g. `"Seattle"`).
    pub name: String,
    /// All event records.
    pub records: Vec<EventRecord>,
}

impl Dataset {
    /// Creates a dataset from records.
    pub fn new(name: impl Into<String>, records: Vec<EventRecord>) -> Self {
        Self { name: name.into(), records }
    }

    /// Number of events `n`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset has no events.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The bare location points, in record order.
    pub fn points(&self) -> Vec<Point> {
        self.records.iter().map(|r| r.point).collect()
    }

    /// Minimum bounding rectangle of all event locations.
    pub fn mbr(&self) -> Rect {
        let mut r = Rect::EMPTY;
        for rec in &self.records {
            r.expand(&rec.point);
        }
        r
    }

    /// Records with `from ≤ timestamp < to` (time-based filtering).
    pub fn filter_time(&self, from: i64, to: i64) -> Vec<EventRecord> {
        self.records.iter().filter(|r| r.timestamp >= from && r.timestamp < to).copied().collect()
    }

    /// Heap bytes held by the record buffer.
    pub fn space_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<EventRecord>()
    }
}

/// Unix timestamp of 00:00:00 on 1 January of `year` (2008-based,
/// leap-day-free approximation adequate for synthetic feeds).
pub fn year_start(year: i32) -> i64 {
    EPOCH_2008 + (year as i64 - 2008) * SECS_PER_YEAR
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::new(
            "t",
            vec![
                EventRecord {
                    point: Point::new(0.0, 0.0),
                    timestamp: year_start(2018),
                    category: 1,
                },
                EventRecord {
                    point: Point::new(5.0, 2.0),
                    timestamp: year_start(2019),
                    category: 2,
                },
                EventRecord {
                    point: Point::new(1.0, 8.0),
                    timestamp: year_start(2019) + 100,
                    category: 1,
                },
                EventRecord {
                    point: Point::new(3.0, 3.0),
                    timestamp: year_start(2021),
                    category: 3,
                },
            ],
        )
    }

    #[test]
    fn mbr_and_points() {
        let d = sample();
        assert_eq!(d.len(), 4);
        let r = d.mbr();
        assert_eq!((r.min_x, r.min_y, r.max_x, r.max_y), (0.0, 0.0, 5.0, 8.0));
        assert_eq!(d.points().len(), 4);
    }

    #[test]
    fn time_filter_half_open() {
        let d = sample();
        let y2019 = d.filter_time(year_start(2019), year_start(2020));
        assert_eq!(y2019.len(), 2);
        // boundary: event exactly at year_start(2020) would be excluded
        let none = d.filter_time(year_start(2020), year_start(2021));
        assert!(none.is_empty());
    }

    #[test]
    fn year_start_is_monotonic() {
        assert!(year_start(2019) > year_start(2018));
        assert_eq!(year_start(2008), EPOCH_2008);
    }
}
