//! Host and run facts, the human-readable report, the trace file and the
//! final one-line JSON result.

use std::path::{Path, PathBuf};

use svr_engine::SvrEngine;

use crate::exec::Depth;
use crate::inputs::{Workload, INDEX};
use crate::run::Replay;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

pub struct Report {
    workload: Workload,
    seed: u64,
    data: PathBuf,
    facts: Vec<String>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
    errors: Vec<String>,
    /// `MERGE TEXT INDEX` statements completed in the window.
    pub merges: u64,
}

/// Filesystem type and device of the mount holding `path`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (dev, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at)
                .then(|| (at.len(), format!("{fs} on {dev}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

impl Report {
    pub fn new(workload: Workload, seed: u64, data: &Path) -> Report {
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        Report {
            workload,
            seed,
            data: data.to_path_buf(),
            facts: vec![format!(
                "host: nproc {nproc}; data directory filesystem {}; built by {}; seed {seed}",
                filesystem_of(data),
                env!("PERFBENCH_RUSTC"),
            )],
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
            errors: Vec::new(),
            merges: 0,
        }
    }

    /// Record the index's list and cache sizes.
    pub fn note_index(&mut self, w: Workload, engine: &SvrEngine) {
        let (Ok(shards), Ok(config)) =
            (engine.index_shard_stats(INDEX), engine.index_config(INDEX))
        else {
            return;
        };
        let long: u64 = shards.iter().map(|s| s.long_list_bytes).sum();
        let cache = (config.long_cache_pages * config.page_size) as u64;
        self.facts.push(format!(
            "index: method {:?}, codec {:?}, long lists {long} bytes, long-list cache {} pages = \
             {cache} bytes ({:.1}x)",
            w.method_kind(),
            config.codec,
            config.long_cache_pages,
            long as f64 / cache as f64
        ));
    }

    pub fn finish(
        &mut self,
        metrics: Vec<Metric>,
        attempted: u64,
        failed: u64,
        wrong: Vec<String>,
        errors: Vec<String>,
    ) {
        if self.workload == Workload::IngestRestart {
            self.facts
                .push(format!("merge cycles completed: {}", self.merges));
        }
        self.metrics = metrics;
        self.attempted = attempted;
        self.failed = failed;
        self.wrong = wrong;
        self.errors = errors;
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// Write every span of the traced run as one JSON object per line
    /// next to the data directory.
    pub fn write_trace(&mut self, depths: &[(Depth, Replay)]) -> Result<(), String> {
        let path = self.data.parent().unwrap_or(Path::new(".")).join(format!(
            "trace-{}-seed{}.jsonl",
            self.workload.name(),
            self.seed
        ));
        let mut out = String::new();
        for (depth, run) in depths {
            for s in run.spans() {
                out.push_str(&format!(
                    "{{\"depth\":\"{}\",\"conn\":{},\"op\":{},\"kind\":\"{}\",\"start_ns\":{},\
                     \"dur_ns\":{},\"counters\":{:?}}}\n",
                    depth.name(),
                    s.conn,
                    s.op,
                    s.kind.name(),
                    s.start_ns,
                    s.dur_ns,
                    s.counters
                ));
            }
        }
        std::fs::write(&path, out).map_err(|e| format!("write {path:?}: {e}"))?;
        self.facts
            .push(format!("trace written to {}", path.display()));
        Ok(())
    }

    /// Print the report; the last line is the JSON result.
    pub fn print(&self, traced: bool) {
        println!(
            "# perfbench {} seed {} ({})",
            self.workload.name(),
            self.seed,
            if traced { "traced replay" } else { "untraced" }
        );
        for fact in &self.facts {
            println!("# {fact}");
        }
        for m in &self.metrics {
            println!(
                "  {:<32} {:>14.4} {:<7} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "# error_rate {:.6} ({} failed / {} attempted operations)",
            if self.attempted == 0 {
                0.0
            } else {
                self.failed as f64 / self.attempted as f64
            },
            self.failed,
            self.attempted
        );
        for e in self.errors.iter().take(5) {
            println!("# program error: {e}");
        }
        if self.correct() {
            println!("# correctness gate: every reply and probe matched the reference model");
        }
        for e in self.wrong.iter().take(10) {
            println!("# WRONG ANSWER: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
