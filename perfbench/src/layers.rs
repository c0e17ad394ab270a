//! Per-layer metrics from the traced run's spans and counter snapshots.
//!
//! A layer's self time is its per-op-kind median at its depth minus the
//! median of the same op kind one depth below. Counter ratios are summed
//! over the spans they were snapshotted around and reported with their
//! base.

use svr_core::ShardStats;
use svr_storage::{LockClass, LockStats};

use crate::exec::{median, Depth, Kind};
use crate::inputs::Workload;
use crate::report::Metric;
use crate::run::Replay;

/// Lock classes reported per layer, with their metric names.
const LOCK_CLASSES: [(LockClass, &str); 4] = [
    (LockClass::Table, "table"),
    (LockClass::Shard, "shard"),
    (LockClass::Checkpoint, "ckpt"),
    (LockClass::Wal, "wal"),
];

/// Whole-window facts the spans do not carry.
pub struct Windows {
    /// Requests acknowledged by the untraced wire replay run alone.
    pub requests: u64,
    /// `ServerHandle::stats().shed` over that replay.
    pub shed: u64,
    /// `lock_stats()` delta over that replay.
    pub locks: LockStats,
    /// Traced / untraced median wire read latency, minus one.
    pub overhead: f64,
    /// Short-list postings parked in the twin index before each merge.
    pub short_at_merge: Vec<u64>,
    /// The twin index's shard statistics after its replay.
    pub shard_stats: Vec<ShardStats>,
}

struct Spans<'a> {
    depths: &'a [(Depth, Replay<'a>)],
}

impl Spans<'_> {
    fn at(&self, depth: Depth, kinds: &[Kind]) -> Vec<&crate::exec::Span> {
        self.depths
            .iter()
            .filter(|(d, _)| *d == depth)
            .flat_map(|(_, run)| run.spans())
            .filter(|s| kinds.contains(&s.kind))
            .collect()
    }

    /// Median span duration in µs and the sample count.
    fn med_us(&self, depth: Depth, kind: Kind) -> (f64, usize) {
        let mut us: Vec<f64> = self
            .at(depth, &[kind])
            .iter()
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect();
        (median(&mut us), us.len())
    }

    fn sum(&self, depth: Depth, kinds: &[Kind], slot: usize) -> u64 {
        self.at(depth, kinds).iter().map(|s| s.counters[slot]).sum()
    }

    /// Self time of `depth` for `kind`: its median minus the median of
    /// the next depth down.
    fn self_us(&self, name: &str, upper: Depth, lower: Depth, kind: Kind) -> Metric {
        let (hi, n_hi) = self.med_us(upper, kind);
        let (lo, n_lo) = self.med_us(lower, kind);
        if n_hi == 0 || n_lo == 0 {
            return na(name, "us", kind);
        }
        Metric::new(name, hi - lo, "us").note(format!(
            "median {} {hi:.1} us (n={n_hi}) - median {} {lo:.1} us (n={n_lo}), op kind {}",
            upper.name(),
            lower.name(),
            kind.name()
        ))
    }

    fn med_metric(&self, name: &str, depth: Depth, kind: Kind) -> Metric {
        let (us, n) = self.med_us(depth, kind);
        if n == 0 {
            return na(name, "us", kind);
        }
        Metric::new(name, us, "us").note(format!(
            "median of {n} {} spans at the {} depth",
            kind.name(),
            depth.name()
        ))
    }
}

fn na(name: &str, unit: &'static str, kind: Kind) -> Metric {
    Metric::new(name, 0.0, unit).note(format!("n/a: no {} ops in this workload", kind.name()))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn per_layer(w: Workload, depths: &[(Depth, Replay)], win: &Windows) -> Vec<Metric> {
    let spans = Spans { depths };
    let exact = if w.clients() == 1 {
        "count repeats exactly: 1 client"
    } else {
        "count varies run to run: 2 clients interleave"
    };
    let write = match w {
        Workload::ServeMixed => Kind::Update,
        _ => Kind::Commit,
    };
    // Page write-backs follow the engine's hash-ordered page layout and
    // differ by a few pages between identical runs.
    let layout = "count varies slightly: page layout follows hash order";
    let reads = [Kind::Read, Kind::Open, Kind::Fetch];
    let queries = spans.at(Depth::Core, &[Kind::Read, Kind::Open]).len() as u64;
    let (skipped, decoded) = (
        spans.sum(Depth::Core, &reads, 0),
        spans.sum(Depth::Core, &reads, 1),
    );
    let wire_requests = win.requests;

    let mut out = vec![
        spans.self_us(
            "server.self_us.read",
            Depth::Wire,
            Depth::Session,
            Kind::Read,
        ),
        spans.self_us("server.self_us.write", Depth::Wire, Depth::Session, write),
        Metric::new("server.shed", win.shed as f64, "count")
            .note(format!("Busy replies over {wire_requests} wire requests")),
        spans.med_metric("sql.parse_us", Depth::Session, Kind::Parse),
        spans.self_us(
            "sql.self_us.read",
            Depth::Session,
            Depth::Engine,
            Kind::Read,
        ),
        spans.self_us("sql.self_us.write", Depth::Session, Depth::Engine, write),
        spans.med_metric("text.resolve_us", Depth::Engine, Kind::Resolve),
        spans.self_us(
            "engine.self_us.read",
            Depth::Engine,
            Depth::Core,
            Kind::Read,
        ),
        spans.self_us("engine.self_us.write", Depth::Engine, Depth::Core, write),
    ];
    for (class, name) in LOCK_CLASSES {
        let c = win.locks.class(class);
        out.push(
            Metric::new(
                format!("lock.{name}.wait_us"),
                ratio(c.wait_nanos, wire_requests) / 1e3,
                "us/req",
            )
            .note(format!(
                "{:.0} us waited over {wire_requests} wire requests",
                c.wait_nanos as f64 / 1e3
            )),
        );
    }
    for (class, name) in LOCK_CLASSES {
        let c = win.locks.class(class);
        out.push(
            Metric::new(
                format!("lock.{name}.contended_frac"),
                ratio(c.contended, c.acquisitions),
                "frac",
            )
            .note(format!(
                "{} contended / {} acquisitions",
                c.contended, c.acquisitions
            )),
        );
    }
    out.extend([
        spans.med_metric("core.query_us", Depth::Core, Kind::Read),
        spans.med_metric("core.update_us", Depth::Core, Kind::Update),
        spans.med_metric("core.insert_us", Depth::Core, Kind::Insert),
        spans.med_metric("core.delete_us", Depth::Core, Kind::Delete),
        Metric::new(
            "core.blocks_skipped_per_query",
            ratio(skipped, queries),
            "blocks",
        )
        .note(format!("{skipped} blocks over {queries} queries [{exact}]")),
        Metric::new(
            "core.blocks_decoded_per_query",
            ratio(decoded, queries),
            "blocks",
        )
        .note(format!("{decoded} blocks over {queries} queries [{exact}]")),
        Metric::new("core.skip_ratio", ratio(skipped, skipped + decoded), "frac").note(format!(
            "{skipped} skipped / ({skipped} skipped + {decoded} decoded) blocks [{exact}]"
        )),
    ]);

    let merges = spans.at(Depth::Core, &[Kind::Merge]);
    let (merge_s, _) = spans.med_us(Depth::Core, Kind::Merge);
    // The twin's in-memory stores write nothing back during a merge; the
    // file-backed engine's pages written across `run_maintenance` do.
    let merge_pages = spans.sum(Depth::Engine, &[Kind::Merge], 3);
    let short: u64 = win.short_at_merge.iter().sum();
    let m = merges.len() as u64;
    if m == 0 {
        out.push(na("core.merge_s", "s", Kind::Merge));
        out.push(na("core.merge_pages_written", "pages", Kind::Merge));
        out.push(na("core.short_postings_at_merge", "postings", Kind::Merge));
    } else {
        out.push(
            Metric::new("core.merge_s", merge_s / 1e6, "s").note(format!("median of {m} merges")),
        );
        out.push(
            Metric::new("core.merge_pages_written", ratio(merge_pages, m), "pages").note(format!(
                "{merge_pages} pages written over {m} engine-depth merges [{layout}]"
            )),
        );
        out.push(
            Metric::new("core.short_postings_at_merge", ratio(short, m), "postings")
                .note(format!("{short} postings parked over {m} merges [{exact}]")),
        );
    }
    let long_bytes: u64 = win.shard_stats.iter().map(|s| s.long_list_bytes).sum();
    let long_postings: u64 = win.shard_stats.iter().map(|s| s.long_postings).sum();
    out.push(
        Metric::new(
            "core.long_bytes_per_posting",
            ratio(long_bytes, long_postings),
            "bytes",
        )
        .note(format!(
            "{long_bytes} long-list bytes / {long_postings} long postings"
        )),
    );

    let pages_read = spans.sum(Depth::Core, &reads, 2);
    let (hits, misses) = (
        spans.sum(Depth::Core, &reads, 3),
        spans.sum(Depth::Core, &reads, 4),
    );
    let writes = spans.at(Depth::Engine, &[write]);
    let n_writes = writes.len() as u64;
    let pages_written: u64 = writes.iter().map(|s| s.counters[3]).sum();
    let syncs: u64 = writes.iter().map(|s| s.counters[4]).sum();
    let records: u64 = writes.iter().map(|s| s.counters[5]).sum();
    out.extend([
        Metric::new(
            "storage.pages_read_per_query",
            ratio(pages_read, queries),
            "pages",
        )
        .note(format!(
            "{pages_read} long+fancy pages over {queries} queries [{exact}]"
        )),
        Metric::new(
            "storage.long_cache_hit_ratio",
            ratio(hits, hits + misses),
            "frac",
        )
        .note(format!(
            "{hits} hits / ({hits} hits + {misses} misses) on the long-list store [{exact}]"
        )),
        Metric::new(
            "storage.pages_written_per_write",
            ratio(pages_written, n_writes),
            "pages",
        )
        .note(format!(
            "{pages_written} pages over {n_writes} engine-depth writes [{layout}]"
        )),
        Metric::new("wal.syncs_per_txn", ratio(syncs, n_writes), "syncs").note(format!(
            "{syncs} fsyncs over {n_writes} write transactions \
             [count follows timing: each log syncs at most once per 10 ms]"
        )),
        Metric::new("wal.records_per_txn", ratio(records, n_writes), "records").note(format!(
            "{records} records over {n_writes} write transactions [{exact}]"
        )),
        Metric::new("trace.overhead_frac", win.overhead, "frac").note(
            "traced / untraced median wire read latency of the same replay, minus one".into(),
        ),
    ]);
    out
}
