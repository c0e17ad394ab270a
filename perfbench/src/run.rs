//! The two kinds of run: the untraced measurement (end-to-end metrics,
//! wire depth only) and the traced replay (per-layer metrics, every
//! depth).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use svr_core::types::DocId;
use svr_core::{build_index_at, IndexLocation, Oracle, SearchIndex};
use svr_engine::SvrEngine;
use svr_server::{Client, Server, ServerConfig, ServerHandle};
use svr_sql::SqlSession;
use svr_storage::{StorageEnv, Store};

use crate::exec::{
    check_probes, drive, median, Core, Counters, Depth, Engine, Hook, Kind, Lane, Model, Outcome,
    Probe, Recorder, Session, Span, Sql, Stop, Target, Wire,
};
use crate::inputs::{engine_config, probes, Corpus, Op, OpGen, Workload};
use crate::report::{Metric, Report};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Reopens of the crashed image per run; `reopen_s` is their median.
const REOPEN_REPS: usize = 5;

/// A file-backed engine served over TCP in this process.
struct Served {
    engine: SvrEngine,
    handle: ServerHandle,
}

impl Served {
    fn start(dir: &Path) -> Result<Served, String> {
        let engine = SvrEngine::open_path_with(dir, engine_config())
            .map_err(|e| format!("open {dir:?}: {e}"))?;
        let handle = Server::start(engine.clone(), ServerConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        Ok(Served { engine, handle })
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(self.handle.addr()).map_err(|e| format!("connect: {e}"))
    }

    fn env(&self) -> Result<&Arc<StorageEnv>, String> {
        self.engine
            .env()
            .ok_or_else(|| "engine is not durable".to_string())
    }
}

/// Schema, load and index build over the wire on a fresh engine. Returns
/// the served engine, the set-up seconds, the load statements' latencies
/// (ms) and the bytes of row data loaded.
fn setup_wire(
    w: Workload,
    corpus: &Corpus,
    dir: &Path,
) -> Result<(Served, f64, Vec<f64>, u64), String> {
    let t0 = Instant::now();
    let served = Served::start(dir)?;
    let mut client = served.client()?;
    let (mut latencies, mut bytes) = (Vec::new(), 0);
    for (sql, row_bytes) in corpus.setup_sql(w) {
        let t = Instant::now();
        client
            .exec(&sql)
            .map_err(|e| format!("set-up statement {:.60}: {e}", sql))?;
        if row_bytes > 0 {
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            bytes += row_bytes;
        }
    }
    client.close().map_err(|e| format!("close: {e}"))?;
    Ok((served, t0.elapsed().as_secs_f64(), latencies, bytes))
}

/// The same set-up statements through a `SqlSession`, for the session and
/// engine depths of the traced run.
fn setup_session(w: Workload, corpus: &Corpus, dir: &Path) -> Result<SvrEngine, String> {
    let engine = SvrEngine::open_path_with(dir, engine_config())
        .map_err(|e| format!("open {dir:?}: {e}"))?;
    let session = SqlSession::with_engine(engine.clone());
    for (sql, _) in corpus.setup_sql(w) {
        session
            .execute(&sql)
            .map_err(|e| format!("set-up statement {:.60}: {e}", sql))?;
    }
    Ok(engine)
}

/// Per-connection results of one replay.
pub struct Replay<'c> {
    pub outcomes: Vec<Outcome>,
    pub recorders: Vec<Recorder>,
    targets: Vec<Box<dyn Target + Send + 'c>>,
    /// The reference model after every acknowledged write.
    model: Oracle,
    pub elapsed: Duration,
}

impl Replay<'_> {
    pub fn spans(&self) -> impl Iterator<Item = &crate::exec::Span> {
        self.recorders.iter().flat_map(|r| r.spans.iter())
    }

    /// Requests the program acknowledged (wire lanes: one span each).
    pub fn acked(&self) -> u64 {
        self.spans().filter(|s| s.ok).count() as u64
    }

    fn durations_ms(&self, kinds: &[Kind]) -> Vec<f64> {
        self.spans()
            .filter(|s| kinds.contains(&s.kind))
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    fn attempted(&self) -> u64 {
        self.outcomes.iter().map(|o| o.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.outcomes.iter().map(|o| o.failed).sum()
    }

    /// Gate violations and program errors, for the report.
    fn problems(&self) -> (Vec<String>, Vec<String>) {
        let wrong = self.outcomes.iter().flat_map(|o| o.wrong.clone()).collect();
        let errors = self
            .outcomes
            .iter()
            .flat_map(|o| o.errors.clone())
            .collect();
        (wrong, errors)
    }
}

/// One depth's targets, one per connection, each with its counter probe.
type LaneTargets<'c> = Vec<(Box<dyn Target + Send + 'c>, Option<Probe>)>;

/// Run every connection's op stream concurrently, one thread per
/// connection; each op runs on every lane in turn. Returns one `Replay`
/// per lane.
fn replay<'c>(
    w: Workload,
    corpus: &'c Corpus,
    seed: u64,
    stop: Stop,
    lanes: Vec<LaneTargets<'c>>,
    base: &'c Oracle,
    hook: Hook,
) -> Vec<Replay<'c>> {
    let clients = w.clients();
    let epoch = Instant::now();
    // Regroup lane-major targets into one bundle per connection.
    let mut per_conn: Vec<Vec<Lane<'c>>> = (0..clients).map(|_| Vec::new()).collect();
    for lane in lanes {
        for (conn, (target, probe)) in lane.into_iter().enumerate() {
            per_conn[conn].push(Lane {
                target,
                rec: Recorder::new(epoch, conn, probe),
                model: if clients > 1 {
                    Model::Shared(base)
                } else {
                    Model::Owned(corpus.oracle(w))
                },
                out: Outcome::default(),
            });
        }
    }
    let per_conn: Vec<Vec<Lane<'c>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .into_iter()
            .enumerate()
            .map(|(conn, mut lanes)| {
                scope.spawn(move || {
                    let gen = OpGen::new(w, corpus, seed, conn);
                    drive(&mut lanes, gen, stop, hook.filter(|_| conn == 0), corpus);
                    lanes
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked")) // svr-lint: allow(no-unwrap): a panicking client is a benchmark bug
            .collect()
    });
    let elapsed = epoch.elapsed();
    let lanes = per_conn.first().map_or(0, Vec::len);
    let mut replays: Vec<Replay<'c>> = (0..lanes)
        .map(|_| Replay {
            outcomes: Vec::new(),
            recorders: Vec::new(),
            targets: Vec::new(),
            model: corpus.oracle(w),
            elapsed,
        })
        .collect();
    for conn_lanes in per_conn {
        for (replay, lane) in replays.iter_mut().zip(conn_lanes) {
            match lane.model {
                Model::Owned(model) => replay.model = model,
                // Connections update disjoint keys: the last acknowledged
                // value of each key is its final score.
                Model::Shared(_) => {
                    for &(pk, nvisit) in &lane.out.updates {
                        let _ = replay.model.update_score(DocId(pk), nvisit as f64);
                    }
                }
            }
            replay.outcomes.push(lane.out);
            replay.recorders.push(lane.rec);
            replay.targets.push(lane.target);
        }
    }
    replays
}

fn untraced_lane<'c>(targets: Vec<Box<dyn Target + Send + 'c>>) -> LaneTargets<'c> {
    targets.into_iter().map(|t| (t, None)).collect()
}

fn wire_targets<'c>(
    served: &Served,
    corpus: &'c Corpus,
    n: usize,
) -> Result<Vec<Box<dyn Target + Send + 'c>>, String> {
    (0..n)
        .map(|_| {
            let client = served.client()?;
            Ok(Box::new(Sql {
                port: Wire(client),
                corpus,
            }) as Box<dyn Target + Send + 'c>)
        })
        .collect()
}

/// Copy a directory of plain files, syncing each copy: a crashed image is
/// on disk when a restarted process opens it, so the timed open must not
/// pay for writing back the copy.
fn copy_flat_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {to:?}: {e}"))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {from:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        std::fs::copy(entry.path(), &target)
            .and_then(|_| std::fs::File::open(&target)?.sync_all())
            .map_err(|e| format!("copy {:?}: {e}", entry.path()))?;
    }
    Ok(())
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Crash the served engine through `StorageEnv::crash`, then reopen the
/// crashed image `REOPEN_REPS` times (each from a fresh copy), timing
/// `SvrEngine::open_path`. The last reopen is served again and the probe
/// set re-checked. Returns the open times (s) and gate violations.
fn crash_and_reopen(
    served: Served,
    dir: &Path,
    corpus: &Corpus,
    probe_set: &[Op],
    model: &Oracle,
) -> Result<(Vec<f64>, Vec<String>), String> {
    let Served { engine, mut handle } = served;
    handle.shutdown();
    let env = engine.env().cloned().ok_or("engine is not durable")?;
    env.crash();
    let image = dir.with_extension("crashed");
    copy_flat_dir(dir, &image)?;
    drop((engine, env));
    let mut times = Vec::new();
    let mut wrong = Vec::new();
    for rep in 0..REOPEN_REPS {
        remove_dir(dir);
        copy_flat_dir(&image, dir)?;
        let t = Instant::now();
        let engine =
            SvrEngine::open_path_with(dir, engine_config()).map_err(|e| format!("reopen: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 == REOPEN_REPS {
            let mut handle = Server::start(engine, ServerConfig::default())
                .map_err(|e| format!("restart server: {e}"))?;
            let client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
            let mut target = Sql {
                port: Wire(client),
                corpus,
            };
            wrong.extend(
                check_probes(&mut target, probe_set, model, false)
                    .into_iter()
                    .map(|e| format!("after reopen: {e}")),
            );
            drop(target);
            handle.shutdown();
        }
    }
    remove_dir(&image);
    Ok((times, wrong))
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The tail of a latency sample: p99, or the highest percentile with at
/// least 10 samples beyond it. Returns `(value, percentile)`.
fn tail(ms: &mut [f64]) -> (f64, f64) {
    if ms.is_empty() {
        return (0.0, 0.0);
    }
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    let pct = (100.0 * (1.0 - 10.0 / n as f64)).clamp(50.0, 99.0);
    (
        ms[((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1],
        pct,
    )
}

/// Median over `slices` equal time slices of the window of `f` applied to
/// the spans ending in each slice — a burst of host noise moves one slice,
/// not the figure.
fn per_slice(spans: &[&Span], window_ns: u64, slices: usize, f: impl Fn(&[&Span]) -> f64) -> f64 {
    let mut by_slice: Vec<Vec<&Span>> = vec![Vec::new(); slices];
    for &s in spans {
        let at = u128::from(s.start_ns + s.dur_ns) * slices as u128 / u128::from(window_ns.max(1));
        by_slice[(at as usize).min(slices - 1)].push(s);
    }
    median(&mut by_slice.iter().map(|v| f(v)).collect::<Vec<_>>())
}

fn ms_of(spans: &[&Span]) -> Vec<f64> {
    spans.iter().map(|s| s.dur_ns as f64 / 1e6).collect()
}

/// Untraced run: set up `SETUP_REPS` times over the wire, drive the
/// closed-loop connections for `seconds`, check the probe set, crash,
/// reopen and check again.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: u64,
    data: &Path,
    plant: bool,
) -> Result<Report, String> {
    let corpus = Corpus::generate(w, seed);
    let base = corpus.oracle(w);
    let probe_set = probes(w, &corpus, seed);
    let mut report = Report::new(w, seed, data);

    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    let mut load_tails = Vec::new();
    let mut kept: Option<(Served, PathBuf)> = None;
    let mut user_bytes = 0;
    for rep in 0..SETUP_REPS {
        let dir = data.join(format!("setup-{rep}"));
        let (served, secs, lat, bytes) = setup_wire(w, &corpus, &dir)?;
        setup_s.push(secs);
        load_tails.push(tail(&mut lat.clone()));
        load_ms.extend(lat);
        user_bytes = bytes;
        if let Some((mut old, old_dir)) = kept.replace((served, dir)) {
            old.handle.shutdown();
            drop(old);
            remove_dir(&old_dir);
        }
    }
    let (served, dir) = kept.ok_or("no set-up ran")?;
    report.note_index(w, &served.engine);

    let lane = untraced_lane(wire_targets(&served, &corpus, w.clients())?);
    let stop = match w.fixed_ops(seconds) {
        Some(ops) => Stop::After(ops),
        None => Stop::At(Instant::now() + Duration::from_secs(seconds)),
    };
    // ingest-restart checkpoints before its final merge cycle, so the
    // crash image's log tail is one cycle's writes on every seed.
    let checkpoint = || {
        if let Err(e) = served.engine.checkpoint() {
            eprintln!("perfbench: checkpoint before the final cycle: {e}");
        }
    };
    let hook: Hook = w
        .final_cycle_start(seconds)
        .map(|at| (at, &checkpoint as &(dyn Fn() + Sync)));
    let mut run = replay(w, &corpus, seed, stop, vec![lane], &base, hook).remove(0);
    run.targets.clear();
    let acked = run.acked();
    let (mut wrong, errors) = run.problems();
    user_bytes += run.outcomes.iter().map(|o| o.inserted_bytes).sum::<u64>();
    report.merges = run.outcomes.iter().map(|o| o.merges).sum();

    let mut probe_target = Sql {
        port: Wire(served.client()?),
        corpus: &corpus,
    };
    wrong.extend(check_probes(
        &mut probe_target,
        &probe_set,
        &run.model,
        plant,
    ));
    drop(probe_target);
    let disk_bytes = served.env()?.total_disk_bytes();
    let (reopen, after) = crash_and_reopen(served, &dir, &corpus, &probe_set, &run.model)?;
    wrong.extend(after);
    remove_dir(&dir);

    // Throughput and tails are medians over time slices of the window;
    // ingest-restart's window is a whole number of merge cycles and is
    // not sliced (a slice could fall inside a merge).
    let slices = w.slices();
    let window_ns = run.elapsed.as_nanos() as u64;
    let slice_s = run.elapsed.as_secs_f64() / slices as f64;
    let all: Vec<&Span> = run.spans().collect();
    let of = |kinds: &[Kind]| -> Vec<&Span> {
        all.iter()
            .copied()
            .filter(|s| s.ok && kinds.contains(&s.kind))
            .collect()
    };
    let (reads, writes) = (
        of(&[Kind::Read, Kind::Fetch]),
        of(&[Kind::Update, Kind::Commit]),
    );
    let ops = per_slice(&all, window_ns, slices, |v| {
        v.iter().filter(|s| s.ok).count() as f64 / slice_s
    });
    let slice_tail = |v: &[&Span]| per_slice(v, window_ns, slices, |v| tail(&mut ms_of(v)).0);
    let slice_pct = |v: &[&Span]| tail(&mut vec![0.0; v.len() / slices]).1;
    let (read_tail, read_pct) = (slice_tail(&reads), slice_pct(&reads));
    // With no writes in the window, the write figures are the set-up's
    // load statements; each set-up is a slice.
    let (write_p50, write_tail, write_pct, writes_from) = if writes.is_empty() {
        (
            median(&mut load_ms),
            median(&mut load_tails.iter().map(|t| t.0).collect::<Vec<_>>()),
            load_tails.first().map_or(0.0, |t| t.1),
            "set-up load INSERTs (the window has no writes)",
        )
    } else {
        let (t, pct) = (slice_tail(&writes), slice_pct(&writes));
        (
            median(&mut ms_of(&writes)),
            t,
            pct,
            "UPDATE / COMMIT in the window",
        )
    };
    let n_writes = if writes.is_empty() {
        load_ms.len()
    } else {
        writes.len()
    };
    let secs = run.elapsed.as_secs_f64();
    let sliced = format!("median over {slices} time slices of");
    let e2e = vec![
        Metric::new("setup_s", median(&mut setup_s), "s")
            .note(format!("median of {SETUP_REPS} set-ups: {setup_s:.3?}")),
        Metric::new("ops_per_s", ops, "1/s").note(format!(
            "{sliced} acknowledged requests per second; {acked} in {secs:.2} s"
        )),
        Metric::new("read_p50_ms", median(&mut ms_of(&reads)), "ms")
            .note(format!("{} ranked reads/FETCHes", reads.len())),
        Metric::new("read_p99_ms", read_tail, "ms").note(format!(
            "{sliced} p{read_pct:.2} ({} reads in all)",
            reads.len()
        )),
        Metric::new("write_p50_ms", write_p50, "ms")
            .note(format!("{n_writes} writes: {writes_from}")),
        Metric::new("write_p99_ms", write_tail, "ms").note(format!(
            "{} p{write_pct:.2} ({n_writes} writes in all)",
            if writes.is_empty() {
                format!("median over {SETUP_REPS} set-ups of")
            } else {
                sliced.clone()
            }
        )),
        Metric::new("reopen_s", median(&mut reopen.clone()), "s").note(format!(
            "median of {REOPEN_REPS} opens of the crashed image: {reopen:.3?}"
        )),
        Metric::new(
            "bytes_per_user_byte",
            disk_bytes as f64 / user_bytes as f64,
            "ratio",
        )
        .note(format!("{disk_bytes} disk bytes / {user_bytes} row bytes")),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB").note("VmHWM of this process".into()),
    ];
    report.finish(e2e, run.attempted(), run.failed(), wrong, errors);
    Ok(report)
}

/// Counter probe at the engine depth: blocks skipped, blocks decoded,
/// pages read, pages written, WAL fsyncs, WAL records appended. A
/// checkpoint truncates a log's record count, so records are accumulated
/// per store across snapshots.
fn engine_probe(engine: SvrEngine) -> Probe {
    let appended: Mutex<(HashMap<String, u64>, u64)> = Mutex::default();
    Box::new(move || {
        let seek = engine.seek_stats();
        let mut c: Counters = [seek.blocks_skipped, seek.blocks_decoded, 0, 0, 0, 0];
        let (Some(env), Ok(mut appended)) = (engine.env(), appended.lock()) else {
            return c;
        };
        let io = env.total_io();
        (c[2], c[3]) = (io.pages_read, io.pages_written);
        let (last, total) = &mut *appended;
        for name in env.store_names() {
            let Some(wal) = env.store(&name).and_then(|s| s.wal().cloned()) else {
                continue;
            };
            let stats = wal.stats();
            c[4] += stats.syncs;
            let before = last.insert(name, stats.records).unwrap_or(0);
            *total += stats.records.checked_sub(before).unwrap_or(stats.records);
        }
        c[5] = *total;
        c
    })
}

/// Counter probe at the core depth: blocks skipped, blocks decoded,
/// long+fancy pages read, long-store cache hits and misses, pages written
/// by every store of the twin.
fn core_probe(index: Arc<dyn SearchIndex>, env: Arc<StorageEnv>) -> Probe {
    let stores: Vec<(String, Arc<Store>)> = env
        .store_names()
        .into_iter()
        .filter_map(|n| env.store(&n).map(|s| (n, s)))
        .collect();
    Box::new(move || {
        let seek = index.seek_stats();
        let mut c: Counters = [seek.blocks_skipped, seek.blocks_decoded, 0, 0, 0, 0];
        for (name, store) in &stores {
            let io = store.io_stats();
            if name.ends_with("long") || name.ends_with("fancy") {
                c[2] += io.pages_read;
            }
            if name.ends_with("long") {
                let cache = store.cache_stats();
                c[3] += cache.hits;
                c[4] += cache.misses;
            }
            c[5] += io.pages_written;
        }
        c
    })
}

/// Check a lane's probe set through its first target, then release the
/// targets (closing their connections).
fn probe_lane(run: &mut Replay, probe_set: &[Op], wrong: &mut Vec<String>) {
    if let Some(target) = run.targets.first_mut() {
        wrong.extend(check_probes(target.as_mut(), probe_set, &run.model, false));
    }
    run.targets.clear();
}

fn stop_served(served: Served, dir: &Path) {
    let Served { engine, mut handle } = served;
    handle.shutdown();
    drop(engine);
    remove_dir(dir);
}

/// Traced run. First an untraced wire replay alone, for the shed and lock
/// counters (process-wide, so nothing else may run beside it). Then the
/// same ops interleaved op by op across five lanes, each on its own fresh
/// engine: the wire untraced, the wire traced, `SqlSession`, `SvrEngine`,
/// and `SearchIndex` on a twin index. The two wire lanes give the tracing
/// overhead; the other four give each layer's self time.
pub fn traced(w: Workload, seed: u64, data: &Path) -> Result<Report, String> {
    let corpus = Corpus::generate(w, seed);
    let base = corpus.oracle(w);
    let probe_set = probes(w, &corpus, seed);
    let mut report = Report::new(w, seed, data);
    let clients = w.clients();
    let stop = Stop::After(w.trace_ops());
    let mut wrong = Vec::new();

    let dir = data.join("alone");
    let (served, _, _, _) = setup_wire(w, &corpus, &dir)?;
    report.note_index(w, &served.engine);
    let lane = untraced_lane(wire_targets(&served, &corpus, clients)?);
    let (shed0, locks0) = (served.handle.stats().shed, svr_storage::lock_stats());
    let mut alone = replay(w, &corpus, seed, stop, vec![lane], &base, None).remove(0);
    let locks = svr_storage::lock_stats().delta_since(&locks0);
    let shed = served.handle.stats().shed - shed0;
    probe_lane(&mut alone, &probe_set, &mut wrong);
    stop_served(served, &dir);

    let dirs: Vec<PathBuf> = ["wire0", "wire1", "session", "engine"]
        .iter()
        .map(|d| data.join(d))
        .collect();
    let (wire0, _, _, _) = setup_wire(w, &corpus, &dirs[0])?;
    let (wire1, _, _, _) = setup_wire(w, &corpus, &dirs[1])?;
    let session_engine = setup_session(w, &corpus, &dirs[2])?;
    let engine = setup_session(w, &corpus, &dirs[3])?;
    let env = Arc::new(StorageEnv::new(svr_storage::DEFAULT_PAGE_SIZE));
    let scores = (0..corpus.initial)
        .map(|i| (DocId(i as u32), corpus.nvisit[i] as f64))
        .collect();
    let index: Arc<dyn SearchIndex> = Arc::from(
        build_index_at(
            &IndexLocation::new(env.clone(), "twin/"),
            w.method_kind(),
            &corpus.docs[..corpus.initial],
            &scores,
            &w.index_config(),
        )
        .map_err(|e| format!("build twin index: {e}"))?,
    );
    let short_at_merge = Arc::new(Mutex::new(Vec::new()));

    let mut lanes = vec![
        untraced_lane(wire_targets(&wire0, &corpus, clients)?),
        wire_targets(&wire1, &corpus, clients)?
            .into_iter()
            .map(|t| (t, Some(engine_probe(wire1.engine.clone()))))
            .collect(),
    ];
    lanes.push(
        (0..clients)
            .map(|_| {
                let target: Box<dyn Target + Send> = Box::new(Sql {
                    port: Session(SqlSession::with_engine(session_engine.clone())),
                    corpus: &corpus,
                });
                (target, None)
            })
            .collect(),
    );
    lanes.push(
        (0..clients)
            .map(|_| {
                let target: Box<dyn Target + Send> = Box::new(Engine {
                    engine: engine.clone(),
                    corpus: &corpus,
                });
                (target, Some(engine_probe(engine.clone())))
            })
            .collect(),
    );
    lanes.push(
        (0..clients)
            .map(|_| {
                let target: Box<dyn Target + Send> = Box::new(Core {
                    index: index.clone(),
                    corpus: &corpus,
                    short_at_merge: short_at_merge.clone(),
                });
                (target, Some(core_probe(index.clone(), env.clone())))
            })
            .collect(),
    );
    let mut runs = replay(w, &corpus, seed, stop, lanes, &base, None);
    for run in &mut runs {
        probe_lane(run, &probe_set, &mut wrong);
    }
    stop_served(wire0, &dirs[0]);
    stop_served(wire1, &dirs[1]);
    drop((session_engine, engine));
    remove_dir(&dirs[2]);
    remove_dir(&dirs[3]);

    report.merges = runs[0].outcomes.iter().map(|o| o.merges).sum();
    let read_median = |run: &Replay| median(&mut run.durations_ms(&[Kind::Read]));
    let overhead = read_median(&runs[1]) / read_median(&runs[0]) - 1.0;
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for run in std::iter::once(&alone).chain(&runs) {
        let (wr, er) = run.problems();
        wrong.extend(wr);
        errors.extend(er);
        attempted += run.attempted();
        failed += run.failed();
    }
    let depths: Vec<(Depth, Replay)> = [Depth::Wire, Depth::Session, Depth::Engine, Depth::Core]
        .into_iter()
        .zip(runs.into_iter().skip(1))
        .collect();
    let short_at_merge = short_at_merge.lock().map(|v| v.clone()).unwrap_or_default();
    let layers = crate::layers::per_layer(
        w,
        &depths,
        &crate::layers::Windows {
            requests: alone.acked(),
            shed,
            locks,
            overhead,
            short_at_merge,
            shard_stats: index.shard_stats(),
        },
    );
    report.write_trace(&depths)?;
    report.finish(layers, attempted, failed, wrong, errors);
    Ok(report)
}
