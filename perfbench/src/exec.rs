//! Running an op stream against the program at one entry depth, wrapping
//! every call into the program in a span, and checking every reply.
//!
//! The four depths, outermost first, are the wire (`svr_server::Client`
//! over TCP), `SqlSession::execute`, `SvrEngine` calls and `SearchIndex`
//! calls on a twin index. The untraced run uses the wire depth with no
//! counter probe; the traced run replays the same stream at every depth.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use svr_core::types::{DocId, Query, SearchHit};
use svr_core::{Oracle, SearchIndex};
use svr_engine::{QueryRequest, SvrEngine, WriteBatch};
use svr_relation::Value;
use svr_server::{Client, ResultSet};
use svr_sql::{parse_statement, SqlResult, SqlSession};

use crate::gate::check_reply;
use crate::inputs::{body_text, row_bytes, update_sql, Corpus, Op, OpGen, Read, Write, INDEX, K};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    Wire,
    Session,
    Engine,
    Core,
}

impl Depth {
    pub fn name(self) -> &'static str {
        match self {
            Depth::Wire => "wire",
            Depth::Session => "session",
            Depth::Engine => "engine",
            Depth::Core => "core",
        }
    }
}

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One-shot ranked query.
    Read,
    /// Cursor declare / open.
    Open,
    /// Cursor page.
    Fetch,
    /// Cursor close.
    Close,
    /// Single score update (at the core depth also one inside a batch).
    Update,
    Begin,
    /// A statement queued inside a transaction.
    Stmt,
    /// `COMMIT`, `SvrEngine::apply`, or the group of a batch's core calls.
    Commit,
    Merge,
    /// `parse_statement` (session depth).
    Parse,
    /// `SvrEngine::resolve_keywords` (engine depth).
    Resolve,
    /// `insert_document` inside a batch (core depth).
    Insert,
    /// `delete_document` inside a batch (core depth).
    Delete,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Open => "open",
            Kind::Fetch => "fetch",
            Kind::Close => "close",
            Kind::Update => "update",
            Kind::Begin => "begin",
            Kind::Stmt => "stmt",
            Kind::Commit => "commit",
            Kind::Merge => "merge",
            Kind::Parse => "parse",
            Kind::Resolve => "resolve",
            Kind::Insert => "insert",
            Kind::Delete => "delete",
        }
    }
}

/// Counter deltas across one span. Slots 0 and 1 are long-list blocks
/// skipped and decoded; the other slots depend on the depth (see
/// [`engine_probe`] and [`core_probe`]).
pub type Counters = [u64; 6];

#[derive(Debug, Clone)]
pub struct Span {
    pub conn: u16,
    pub op: u32,
    pub kind: Kind,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// False when the program answered with an error or `Busy`.
    pub ok: bool,
    pub counters: Counters,
}

/// A counter snapshot taken around every span.
pub type Probe = Box<dyn Fn() -> Counters + Send>;

/// Per-connection span sink. Spans are kept in memory; the caller writes
/// them out when the run ends.
pub struct Recorder {
    epoch: Instant,
    conn: u16,
    op: u32,
    probe: Option<Probe>,
    pub spans: Vec<Span>,
}

pub struct Mark {
    start: Instant,
    before: Option<Counters>,
}

impl Recorder {
    pub fn new(epoch: Instant, conn: usize, probe: Option<Probe>) -> Recorder {
        Recorder {
            epoch,
            conn: conn as u16,
            op: 0,
            probe,
            spans: Vec::new(),
        }
    }

    pub fn begin(&self) -> Mark {
        let before = self.probe.as_ref().map(|p| p());
        Mark {
            before,
            start: Instant::now(),
        }
    }

    pub fn end(&mut self, kind: Kind, mark: Mark) {
        let end = Instant::now();
        let mut counters = Counters::default();
        if let (Some(probe), Some(before)) = (&self.probe, mark.before) {
            let after = probe();
            for (slot, (a, b)) in counters.iter_mut().zip(after.iter().zip(before)) {
                *slot = a.saturating_sub(b);
            }
        }
        self.spans.push(Span {
            conn: self.conn,
            op: self.op,
            kind,
            start_ns: mark.start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(mark.start).as_nanos() as u64,
            ok: true,
            counters,
        });
    }

    /// Mark the last span as answered with an error.
    pub fn fail_last(&mut self) {
        if let Some(span) = self.spans.last_mut() {
            span.ok = false;
        }
    }

    pub fn time<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let mark = self.begin();
        let out = f();
        self.end(kind, mark);
        out
    }
}

/// One entry depth of the program.
pub trait Target {
    fn read(&mut self, rec: &mut Recorder, read: &Read) -> Result<Vec<SearchHit>, String>;
    /// Opens a cursor, fetches `pages` pages of `K`, closes it; returns the
    /// concatenated pages.
    fn paged(
        &mut self,
        rec: &mut Recorder,
        read: &Read,
        pages: usize,
    ) -> Result<Vec<SearchHit>, String>;
    fn update(&mut self, rec: &mut Recorder, pk: u32, nvisit: i64) -> Result<(), String>;
    fn txn(&mut self, rec: &mut Recorder, writes: &[Write]) -> Result<(), String>;
    fn merge(&mut self, rec: &mut Recorder) -> Result<(), String>;
}

/// A statement for a SQL-speaking depth.
enum Stmt<'a> {
    Sql(&'a str),
    Fetch(&'a str, usize),
    Begin,
    Commit,
    Rollback,
}

/// The two SQL-speaking depths differ only in how a statement travels.
trait SqlPort {
    fn run(&mut self, rec: &mut Recorder, kind: Kind, stmt: Stmt)
        -> Result<Vec<SearchHit>, String>;
}

pub struct Wire(pub Client);

fn wire_hits(rs: ResultSet) -> Result<Vec<SearchHit>, String> {
    if rs.rows.len() != rs.scores.len() {
        return Err(format!(
            "{} rows but {} scores in a reply",
            rs.rows.len(),
            rs.scores.len()
        ));
    }
    rs.rows
        .iter()
        .zip(&rs.scores)
        .map(|(row, &score)| {
            let id = row
                .first()
                .and_then(|v| v.as_f64())
                .ok_or("row without id")?;
            Ok(SearchHit {
                doc: DocId(id as u32),
                score,
            })
        })
        .collect()
}

impl SqlPort for Wire {
    fn run(
        &mut self,
        rec: &mut Recorder,
        kind: Kind,
        stmt: Stmt,
    ) -> Result<Vec<SearchHit>, String> {
        let client = &mut self.0;
        let reply = rec.time(kind, || match stmt {
            Stmt::Sql(sql) => client.query(sql),
            Stmt::Fetch(cursor, n) => client.fetch(cursor, n as u64),
            Stmt::Begin => client.begin().map(|_| ResultSet::default()),
            Stmt::Commit => client.commit().map(|_| ResultSet::default()),
            Stmt::Rollback => client.rollback().map(|_| ResultSet::default()),
        });
        let rs = reply.map_err(|e| {
            rec.fail_last();
            e.to_string()
        })?;
        wire_hits(rs)
    }
}

pub struct Session(pub SqlSession);

impl SqlPort for Session {
    fn run(
        &mut self,
        rec: &mut Recorder,
        kind: Kind,
        stmt: Stmt,
    ) -> Result<Vec<SearchHit>, String> {
        let sql = match stmt {
            Stmt::Sql(sql) => sql.to_string(),
            Stmt::Fetch(cursor, n) => format!("FETCH {n} FROM {cursor}"),
            Stmt::Begin => "BEGIN".into(),
            Stmt::Commit => "COMMIT".into(),
            Stmt::Rollback => "ROLLBACK".into(),
        };
        rec.time(Kind::Parse, || parse_statement(&sql))
            .map_err(|e| e.to_string())?;
        let session = &self.0;
        match rec.time(kind, || session.execute(&sql)) {
            Ok(SqlResult::Ranked { rows, .. }) => Ok(rows
                .iter()
                .map(|r| SearchHit {
                    doc: DocId(r.row.first().and_then(Value::as_i64).unwrap_or(-1) as u32),
                    score: r.score,
                })
                .collect()),
            Ok(_) => Ok(Vec::new()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A SQL-speaking depth: the wire or a session.
pub struct Sql<'c, P> {
    pub port: P,
    pub corpus: &'c Corpus,
}

const CURSOR: &str = "page";

impl<P: SqlPort> Target for Sql<'_, P> {
    fn read(&mut self, rec: &mut Recorder, read: &Read) -> Result<Vec<SearchHit>, String> {
        self.port.run(rec, Kind::Read, Stmt::Sql(&read.sql()))
    }

    fn paged(
        &mut self,
        rec: &mut Recorder,
        read: &Read,
        pages: usize,
    ) -> Result<Vec<SearchHit>, String> {
        self.port
            .run(rec, Kind::Open, Stmt::Sql(&read.declare_sql(CURSOR)))?;
        let mut out = Vec::new();
        for _ in 0..pages {
            out.extend(self.port.run(rec, Kind::Fetch, Stmt::Fetch(CURSOR, K))?);
        }
        self.port
            .run(rec, Kind::Close, Stmt::Sql(&format!("CLOSE {CURSOR}")))?;
        Ok(out)
    }

    fn update(&mut self, rec: &mut Recorder, pk: u32, nvisit: i64) -> Result<(), String> {
        self.port
            .run(rec, Kind::Update, Stmt::Sql(&update_sql(pk, nvisit)))
            .map(drop)
    }

    fn txn(&mut self, rec: &mut Recorder, writes: &[Write]) -> Result<(), String> {
        self.port.run(rec, Kind::Begin, Stmt::Begin)?;
        let queued = writes
            .iter()
            .flat_map(|w| w.sql(self.corpus))
            .try_for_each(|sql| self.port.run(rec, Kind::Stmt, Stmt::Sql(&sql)).map(drop));
        if let Err(e) = queued {
            let _ = self.port.run(rec, Kind::Stmt, Stmt::Rollback);
            return Err(e);
        }
        self.port.run(rec, Kind::Commit, Stmt::Commit).map(drop)
    }

    fn merge(&mut self, rec: &mut Recorder) -> Result<(), String> {
        self.port
            .run(
                rec,
                Kind::Merge,
                Stmt::Sql(&format!("MERGE TEXT INDEX {INDEX}")),
            )
            .map(drop)
    }
}

/// `SvrEngine` calls.
pub struct Engine<'c> {
    pub engine: SvrEngine,
    pub corpus: &'c Corpus,
}

fn engine_hits(rows: Vec<svr_engine::RankedRow>) -> Vec<SearchHit> {
    rows.iter()
        .map(|r| SearchHit {
            doc: DocId(r.row.first().and_then(Value::as_i64).unwrap_or(-1) as u32),
            score: r.score,
        })
        .collect()
}

impl Target for Engine<'_> {
    fn read(&mut self, rec: &mut Recorder, read: &Read) -> Result<Vec<SearchHit>, String> {
        let (engine, kw, q) = (&self.engine, read.keywords(), &read.query);
        rec.time(Kind::Resolve, || engine.resolve_keywords(&kw));
        rec.time(Kind::Read, || engine.search(INDEX, &kw, q.k, q.mode))
            .map(engine_hits)
            .map_err(|e| e.to_string())
    }

    fn paged(
        &mut self,
        rec: &mut Recorder,
        read: &Read,
        pages: usize,
    ) -> Result<Vec<SearchHit>, String> {
        let engine = &self.engine;
        let request = QueryRequest::new(INDEX, read.keywords()).mode(read.query.mode);
        let mut cursor = rec
            .time(Kind::Open, || engine.open_query(&request))
            .map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        for _ in 0..pages {
            let rows = rec
                .time(Kind::Fetch, || cursor.next_batch(K))
                .map_err(|e| e.to_string())?;
            out.extend(engine_hits(rows));
        }
        rec.time(Kind::Close, || drop(cursor));
        Ok(out)
    }

    fn update(&mut self, rec: &mut Recorder, pk: u32, nvisit: i64) -> Result<(), String> {
        let engine = &self.engine;
        let sets = [("nvisit".to_string(), Value::Int(nvisit))];
        rec.time(Kind::Update, || {
            engine.update_row("statistics", Value::Int(pk as i64), &sets)
        })
        .map_err(|e| e.to_string())
    }

    fn txn(&mut self, rec: &mut Recorder, writes: &[Write]) -> Result<(), String> {
        let mut batch = WriteBatch::new();
        for w in writes {
            match *w {
                Write::Insert { doc, nvisit } => {
                    let body = body_text(&self.corpus.docs[doc as usize]);
                    let pk = Value::Int(doc as i64);
                    batch.insert("statistics", vec![pk.clone(), Value::Int(nvisit)]);
                    batch.insert("docs", vec![pk, Value::Text(body)]);
                }
                Write::Delete { pk } => {
                    batch.delete("docs", Value::Int(pk as i64));
                    batch.delete("statistics", Value::Int(pk as i64));
                }
                Write::Update { pk, nvisit } => {
                    batch.update(
                        "statistics",
                        Value::Int(pk as i64),
                        vec![("nvisit".into(), Value::Int(nvisit))],
                    );
                }
            }
        }
        let engine = &self.engine;
        rec.time(Kind::Commit, || engine.apply(batch))
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn merge(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let engine = &self.engine;
        rec.time(Kind::Merge, || engine.run_maintenance(INDEX))
            .map_err(|e| e.to_string())
    }
}

/// `SearchIndex` calls on the twin index.
pub struct Core<'c> {
    pub index: Arc<dyn SearchIndex>,
    pub corpus: &'c Corpus,
    /// Short-list postings parked in the index before each merge.
    pub short_at_merge: Arc<Mutex<Vec<u64>>>,
}

impl Target for Core<'_> {
    fn read(&mut self, rec: &mut Recorder, read: &Read) -> Result<Vec<SearchHit>, String> {
        let index = &self.index;
        rec.time(Kind::Read, || index.query(&read.query))
            .map_err(|e| e.to_string())
    }

    fn paged(
        &mut self,
        rec: &mut Recorder,
        read: &Read,
        pages: usize,
    ) -> Result<Vec<SearchHit>, String> {
        let index = &self.index;
        let mut cursor = rec
            .time(Kind::Open, || index.open_cursor(&read.query))
            .map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        for _ in 0..pages {
            out.extend(
                rec.time(Kind::Fetch, || index.next_batch(&mut cursor, K))
                    .map_err(|e| e.to_string())?,
            );
        }
        rec.time(Kind::Close, || drop(cursor));
        Ok(out)
    }

    fn update(&mut self, rec: &mut Recorder, pk: u32, nvisit: i64) -> Result<(), String> {
        let index = &self.index;
        rec.time(Kind::Update, || {
            index.update_score(DocId(pk), nvisit as f64)
        })
        .map_err(|e| e.to_string())
    }

    fn txn(&mut self, rec: &mut Recorder, writes: &[Write]) -> Result<(), String> {
        let index = &self.index;
        let group = rec.begin();
        for w in writes {
            let done = match *w {
                Write::Insert { doc, nvisit } => rec.time(Kind::Insert, || {
                    index.insert_document(&self.corpus.docs[doc as usize], nvisit as f64)
                }),
                Write::Delete { pk } => rec.time(Kind::Delete, || index.delete_document(DocId(pk))),
                Write::Update { pk, nvisit } => rec.time(Kind::Update, || {
                    index.update_score(DocId(pk), nvisit as f64)
                }),
            };
            done.map_err(|e| e.to_string())?;
        }
        rec.end(Kind::Commit, group);
        Ok(())
    }

    fn merge(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let index = &self.index;
        let short = index.shard_stats().iter().map(|s| s.short_postings).sum();
        if let Ok(mut log) = self.short_at_merge.lock() {
            log.push(short);
        }
        rec.time(Kind::Merge, || index.merge_short_lists())
            .map_err(|e| e.to_string())
    }
}

/// The reference model a connection checks its replies against.
pub enum Model<'o> {
    /// Read-only base model shared by concurrent connections: replies are
    /// checked for structure only (scores are in flight), and acknowledged
    /// score updates are collected for the end-of-run model.
    Shared(&'o Oracle),
    /// The only connection: acknowledged writes are applied as they are
    /// acknowledged, and every reply's scores must match the model.
    Owned(Oracle),
}

impl Model<'_> {
    fn oracle(&self) -> &Oracle {
        match self {
            Model::Shared(o) => o,
            Model::Owned(o) => o,
        }
    }
}

/// When a connection stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At the first op boundary after this instant.
    At(Instant),
    /// After this many ops.
    After(usize),
}

/// A harness action run once, before op number `.0` of a connection.
pub type Hook<'h> = Option<(usize, &'h (dyn Fn() + Sync))>;

/// What one connection did.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Gate violations (empty when every reply checked out).
    pub wrong: Vec<String>,
    /// Operation errors the program reported.
    pub errors: Vec<String>,
    /// Acknowledged single-statement score updates, in order.
    pub updates: Vec<(u32, i64)>,
    /// Row bytes of acknowledged inserts.
    pub inserted_bytes: u64,
    pub merges: u64,
}

fn query_pages(read: &Read, pages: usize) -> Query {
    Query {
        k: K * pages,
        ..read.query.clone()
    }
}

/// One connection's view of one depth: the target, its span recorder,
/// its reference model and what happened.
pub struct Lane<'c> {
    pub target: Box<dyn Target + Send + 'c>,
    pub rec: Recorder,
    pub model: Model<'c>,
    pub out: Outcome,
}

impl Lane<'_> {
    /// Run one op and check its reply.
    fn step(&mut self, n: usize, op: &Op, corpus: &Corpus) {
        let Lane {
            target,
            rec,
            model,
            out,
        } = self;
        rec.op = n as u32;
        out.attempted += 1;
        let exact = matches!(model, Model::Owned(_));
        let result = match op {
            Op::Read(read) => target.read(rec, read).map(|hits| {
                if let Err(e) = check_reply(model.oracle(), &read.query, &hits, exact) {
                    out.wrong.push(e);
                }
            }),
            Op::Paged { read, pages } => target.paged(rec, read, *pages).map(|hits| {
                let q = query_pages(read, *pages);
                if let Err(e) = check_reply(model.oracle(), &q, &hits, exact) {
                    out.wrong.push(e);
                }
            }),
            Op::Update { pk, nvisit } => target.update(rec, *pk, *nvisit).map(|()| {
                out.updates.push((*pk, *nvisit));
                if let Model::Owned(oracle) = model {
                    let _ = oracle.update_score(DocId(*pk), *nvisit as f64);
                }
            }),
            Op::Txn(writes) => target.txn(rec, writes).map(|()| {
                for w in writes {
                    if let Write::Insert { doc, .. } = w {
                        out.inserted_bytes +=
                            row_bytes(&body_text(&corpus.docs[*doc as usize])) + row_bytes("");
                    }
                    if let Model::Owned(oracle) = model {
                        if let Err(e) = w.apply(corpus, oracle) {
                            out.wrong.push(e);
                        }
                    }
                }
            }),
            Op::Merge => target.merge(rec).map(|()| out.merges += 1),
        };
        if let Err(e) = result {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(format!("{op:?}: {e}"));
            }
        }
    }
}

/// Run a connection's op stream until `stop`, each op on every lane in
/// turn — so the depths of a traced run see the same moment of machine
/// noise, op by op. The lane that goes first rotates from op to op.
pub fn drive(lanes: &mut [Lane], mut gen: OpGen, stop: Stop, hook: Hook, corpus: &Corpus) {
    for n in 0.. {
        match stop {
            Stop::At(t) if Instant::now() >= t => break,
            Stop::After(count) if n >= count => break,
            _ => {}
        }
        if let Some((at, action)) = hook {
            if n == at {
                action();
            }
        }
        let op = gen.next_op();
        let first = n % lanes.len().max(1);
        for i in 0..lanes.len() {
            lanes[(first + i) % lanes.len()].step(n, &op, corpus);
        }
    }
}

/// Run the probe set through `target` and compare every answer with the
/// model. `plant` drops the best row of the first non-empty answer — a
/// deliberately wrong answer the gate must catch.
pub fn check_probes(
    target: &mut dyn Target,
    probes: &[Op],
    oracle: &Oracle,
    mut plant: bool,
) -> Vec<String> {
    let mut rec = Recorder::new(Instant::now(), 0, None);
    let mut wrong = Vec::new();
    for op in probes {
        let (query, result) = match op {
            Op::Read(read) => (read.query.clone(), target.read(&mut rec, read)),
            Op::Paged { read, pages } => (
                query_pages(read, *pages),
                target.paged(&mut rec, read, *pages),
            ),
            _ => continue,
        };
        match result {
            Ok(mut hits) => {
                if plant && !hits.is_empty() {
                    hits.remove(0);
                    plant = false;
                }
                if let Err(e) = crate::gate::check_topk(oracle, &query, &hits) {
                    wrong.push(format!("probe: {e}"));
                }
            }
            Err(e) => wrong.push(format!("probe {op:?} failed: {e}")),
        }
    }
    wrong
}

/// Median of a sample (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
