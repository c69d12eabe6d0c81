//! # kdv-bench — experiment harness for the SLAM paper
//!
//! One binary per table/figure of the paper's evaluation (Section 4),
//! sharing the machinery here: a scaled dataset cache, a timing runner
//! with the paper's response-time cap, and paper-shaped table printers
//! that also persist TSV rows under the output directory
//! ([`DEFAULT_OUT_DIR`] unless `--out` names another).
//!
//! The harness runs *scaled-down* workloads by default so the whole grid
//! finishes on a laptop: dataset sizes are `--scale` × the paper's row
//! counts (default 0.01) and the default raster is 320×240 (the smallest
//! size in the paper's Figure-13 sweep). Relative method ordering — the
//! quantity the paper's claims are about — is preserved; absolute seconds
//! are not comparable to the paper's i7/C++ numbers. Pass `--scale 1.0
//! --res 1280x960 --cap-secs 14400` to reproduce the full-size protocol.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kdv_baselines::{AnyMethod, MethodOutput};
use kdv_core::driver::KdvParams;
use kdv_core::geom::Point;
use kdv_core::grid::GridSpec;
use kdv_core::{KdvError, KernelType, Rect};
use kdv_data::catalog::City;
use kdv_data::record::Dataset;

/// Harness configuration parsed from command-line arguments.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset scale factor relative to the paper's sizes.
    pub scale: f64,
    /// Per-run response-time cap (the paper used 14,400 s).
    pub cap: Duration,
    /// Default raster resolution `(X, Y)`.
    pub resolution: (usize, usize),
    /// Output directory for TSV result rows and `BENCH_*.json` entries.
    pub out_dir: PathBuf,
}

/// Where the harness writes by default: under the build directory, so a
/// CI gate run leaves the committed `results/BENCH_*.json` history as it
/// is. `--out results` appends to that history on purpose.
pub const DEFAULT_OUT_DIR: &str = "target/bench-results";

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: 0.01,
            cap: Duration::from_secs(60),
            resolution: (320, 240),
            out_dir: PathBuf::from(DEFAULT_OUT_DIR),
        }
    }
}

impl HarnessConfig {
    /// Parses `--scale F`, `--cap-secs S`, `--res WxH`, `--out DIR` from
    /// `std::env::args`, falling back to defaults.
    pub fn from_args() -> Self {
        let mut cfg = Self::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        cfg.scale = v;
                    }
                    i += 2;
                }
                "--cap-secs" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                        cfg.cap = Duration::from_secs_f64(v);
                    }
                    i += 2;
                }
                "--res" => {
                    if let Some(r) = args.get(i + 1).and_then(|s| parse_resolution(s)) {
                        cfg.resolution = r;
                    }
                    i += 2;
                }
                "--out" => {
                    if let Some(d) = args.get(i + 1) {
                        cfg.out_dir = PathBuf::from(d);
                    }
                    i += 2;
                }
                _ => i += 1,
            }
        }
        cfg
    }

    /// The cap in seconds, for report headers.
    pub fn cap_secs(&self) -> f64 {
        self.cap.as_secs_f64()
    }
}

/// Parses `"320x240"`-style resolution strings.
pub fn parse_resolution(s: &str) -> Option<(usize, usize)> {
    let (x, y) = s.split_once(['x', 'X'])?;
    Some((x.trim().parse().ok()?, y.trim().parse().ok()?))
}

/// A generated city dataset with its derived experiment defaults.
pub struct CityData {
    /// Which city this synthesises.
    pub city: City,
    /// The generated events.
    pub dataset: Dataset,
    /// Bare location points (cached).
    pub points: Vec<Point>,
    /// MBR of the points.
    pub mbr: Rect,
    /// Scott's-rule bandwidth over the full point set.
    pub bandwidth: f64,
}

impl CityData {
    /// Generates the dataset for `city` at `scale` and derives defaults.
    pub fn load(city: City, scale: f64) -> Self {
        let dataset = city.dataset(scale);
        let points = dataset.points();
        let mbr = dataset.mbr();
        let bandwidth = kdv_data::scott_bandwidth(&points);
        Self { city, dataset, points, mbr, bandwidth }
    }

    /// Loads all four cities of Table 5.
    pub fn load_all(scale: f64) -> Vec<CityData> {
        City::ALL.iter().map(|&c| Self::load(c, scale)).collect()
    }

    /// Default experiment parameters over this city's MBR.
    pub fn params(&self, resolution: (usize, usize), kernel: KernelType) -> KdvParams {
        let grid = GridSpec::new(self.mbr, resolution.0, resolution.1)
            .expect("city MBR is non-degenerate");
        KdvParams::new(grid, kernel, self.bandwidth)
            .with_weight(1.0 / self.points.len().max(1) as f64)
    }
}

/// Outcome of timing one method run.
#[derive(Debug)]
pub enum Timing {
    /// Completed within the cap.
    Done {
        /// Wall-clock seconds.
        secs: f64,
        /// The raster + space statistics.
        output: MethodOutput,
    },
    /// Hit the response-time cap (reported like the paper's `> 14400`).
    TimedOut,
    /// Failed for another reason.
    Failed(KdvError),
}

impl Timing {
    /// Paper-style cell text: seconds, `> cap`, or `ERR`.
    pub fn cell(&self, cap_secs: f64) -> String {
        match self {
            Timing::Done { secs, .. } => format_secs(*secs),
            Timing::TimedOut => format!("> {}", format_secs(cap_secs)),
            Timing::Failed(e) => format!("ERR({e})"),
        }
    }

    /// Seconds when completed.
    pub fn secs(&self) -> Option<f64> {
        match self {
            Timing::Done { secs, .. } => Some(*secs),
            _ => None,
        }
    }
}

/// Runs `method` once under the cap and reports the timing.
pub fn time_method(
    method: &AnyMethod,
    params: &KdvParams,
    points: &[Point],
    cap: Duration,
) -> Timing {
    let start = Instant::now();
    let deadline = Some(start + cap);
    match method.compute_with_deadline(params, points, deadline) {
        Ok(output) => Timing::Done { secs: start.elapsed().as_secs_f64(), output },
        Err(KdvError::DeadlineExceeded) => Timing::TimedOut,
        Err(e) => Timing::Failed(e),
    }
}

/// Formats seconds with sensible precision (ms below 1 s).
pub fn format_secs(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.0}")
    } else if secs >= 1.0 {
        format!("{secs:.2}")
    } else {
        format!("{:.2}ms", secs * 1e3)
    }
}

/// A printable experiment table that also persists as TSV.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "| {c:w$} ", w = w);
            }
            s.push('|');
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::new();
        for w in &widths {
            let _ = write!(sep, "|{}", "-".repeat(w + 2));
        }
        sep.push('|');
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints to stdout and appends a TSV copy under `out_dir`.
    pub fn emit(&self, out_dir: &Path, file_stem: &str) {
        println!("{}", self.render());
        if let Err(e) = self.save_tsv(out_dir, file_stem) {
            eprintln!("warning: could not persist {file_stem}.tsv: {e}");
        }
    }

    /// Writes `out_dir/<file_stem>.tsv`.
    pub fn save_tsv(&self, out_dir: &Path, file_stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let mut text = String::new();
        let _ = writeln!(text, "{}", self.headers.join("\t"));
        for row in &self.rows {
            let _ = writeln!(text, "{}", row.join("\t"));
        }
        std::fs::write(out_dir.join(format!("{file_stem}.tsv")), text)
    }
}

/// Days-to-civil conversion (Howard Hinnant's algorithm) for dated JSON
/// entries — no chrono in the dependency budget.
pub fn utc_date(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let secs = unix_secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        y,
        m,
        d,
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// Appends `entry` to the `"runs"` array of `path`, creating the file on
/// first use. The writers control the exact shape, so the append is a
/// suffix splice rather than a JSON parse; `tests/bench_results.rs`
/// re-validates the whole file after every bench run.
pub fn append_run(path: &Path, entry: &str) {
    const SUFFIX: &str = "\n  ]\n}\n";
    let fresh = format!("{{\n  \"runs\": [\n{entry}{SUFFIX}");
    match std::fs::read_to_string(path) {
        Ok(existing) if existing.ends_with(SUFFIX) => {
            let mut text = existing;
            text.truncate(text.len() - SUFFIX.len());
            text.push_str(",\n");
            text.push_str(entry);
            text.push_str(SUFFIX);
            std::fs::write(path, text).unwrap_or_else(|e| panic!("append {}: {e}", path.display()));
        }
        _ => {
            std::fs::write(path, fresh).unwrap_or_else(|e| panic!("write {}: {e}", path.display()))
        }
    }
}

/// Prints the standard experiment banner (settings provenance).
pub fn banner(name: &str, cfg: &HarnessConfig) {
    println!(
        "== {name} ==\n\
         scale={} (paper sizes x scale), default res={}x{}, cap={}s\n\
         (synthetic stand-in datasets; see DESIGN.md for the substitution rationale)\n",
        cfg.scale,
        cfg.resolution.0,
        cfg.resolution.1,
        cfg.cap_secs()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_resolution_formats() {
        assert_eq!(parse_resolution("320x240"), Some((320, 240)));
        assert_eq!(parse_resolution("1280X960"), Some((1280, 960)));
        assert_eq!(parse_resolution("junk"), None);
        assert_eq!(parse_resolution("12x"), None);
    }

    #[test]
    fn format_secs_ranges() {
        assert_eq!(format_secs(0.0123), "12.30ms");
        assert_eq!(format_secs(2.5), "2.50");
        assert_eq!(format_secs(123.4), "123");
    }

    #[test]
    fn table_render_alignment_and_tsv() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("# demo"));
        assert!(text.contains("| a "));
        let dir = std::env::temp_dir().join("kdv_bench_test");
        t.save_tsv(&dir, "demo").unwrap();
        let tsv = std::fs::read_to_string(dir.join("demo.tsv")).unwrap();
        assert_eq!(tsv, "a\tbbbb\n1\t2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timing_cells() {
        assert_eq!(Timing::TimedOut.cell(60.0), "> 60.00");
        assert!(Timing::Failed(KdvError::InvalidBandwidth(0.0)).cell(60.0).starts_with("ERR"));
    }

    #[test]
    fn city_data_defaults_are_consistent() {
        let cd = CityData::load(City::Seattle, 0.001);
        assert_eq!(cd.points.len(), cd.dataset.len());
        assert!(cd.bandwidth > 0.0);
        let p = cd.params((32, 24), KernelType::Epanechnikov);
        assert_eq!(p.grid.res_x, 32);
        assert!((p.weight * cd.points.len() as f64 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_method_completes_small_run() {
        let cd = CityData::load(City::Seattle, 0.0005);
        let params = cd.params((16, 12), KernelType::Epanechnikov);
        let t = time_method(
            &AnyMethod::Slam(kdv_core::Method::SlamBucketRao),
            &params,
            &cd.points,
            Duration::from_secs(30),
        );
        assert!(t.secs().is_some());
    }
}
