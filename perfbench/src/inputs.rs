//! Seeded inputs: the workloads' corpora, schemas, op streams and probe
//! sets. Everything here is a pure function of the workload and the seed;
//! the program under test only ever sees the SQL text rendered from it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svr_core::types::{DocId, Document, Query, QueryMode, TermId};
use svr_core::{CodecKind, IndexConfig, MethodKind, Oracle};
use svr_engine::EngineConfig;
use svr_workload::{QueryClass, QueryWorkload, SynthConfig, UpdateConfig, UpdateWorkload};

/// Name of the text index every workload creates.
pub const INDEX: &str = "search";
/// Schema statements, run before the load.
const SCHEMA: [&str; 2] = [
    "CREATE TABLE docs (id INT PRIMARY KEY, body TEXT)",
    "CREATE TABLE statistics (id INT PRIMARY KEY, nvisit INT)",
];
/// Rows per multi-row `INSERT` during set-up.
const LOAD_BATCH: usize = 50;
/// Results per ranked query and per cursor page.
pub const K: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeMixed,
    QueryCold,
    IngestRestart,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeMixed,
        Workload::QueryCold,
        Workload::IngestRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMixed => "serve-mixed",
            Workload::QueryCold => "query-cold",
            Workload::IngestRestart => "ingest-restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeMixed => 2,
            _ => 1,
        }
    }

    /// Ops per connection in an untraced run of `seconds`, or `None` for a
    /// window of that many seconds. ingest-restart runs whole merge cycles,
    /// one per second (each takes about one on the reference host), so
    /// that every run does the same work.
    pub fn fixed_ops(self, seconds: u64) -> Option<usize> {
        (self == Workload::IngestRestart).then(|| (seconds as usize).max(2) * CYCLE_OPS)
    }

    /// The op at which ingest-restart's final merge cycle starts.
    pub fn final_cycle_start(self, seconds: u64) -> Option<usize> {
        self.fixed_ops(seconds).map(|ops| ops - CYCLE_OPS)
    }

    /// Time slices the window's throughput and tails are medians over.
    pub fn slices(self) -> usize {
        match self {
            Workload::IngestRestart => 1,
            _ => 5,
        }
    }

    /// Ops per connection replayed at each depth of the traced run
    /// (ingest-restart: three whole merge cycles).
    pub fn trace_ops(self) -> usize {
        match self {
            Workload::IngestRestart => 3 * CYCLE_OPS,
            _ => 2_000,
        }
    }

    fn corpus_shape(self) -> SynthConfig {
        let (num_docs, vocab_size, tokens_per_doc) = match self {
            Workload::ServeMixed => (3_000, 5_000, 60),
            Workload::QueryCold => (3_000, 10_000, 80),
            Workload::IngestRestart => (500, 5_000, 60),
        };
        SynthConfig {
            num_docs,
            vocab_size,
            tokens_per_doc,
            term_zipf: 1.0,
            ..SynthConfig::default()
        }
    }

    /// Documents that a run may insert beyond the initial corpus.
    fn insert_pool(self) -> usize {
        match self {
            Workload::IngestRestart => 10_000,
            _ => 0,
        }
    }

    /// Weight of `TFIDF()` in the ranking function (0 = pure SVR).
    pub fn term_weight(self) -> f64 {
        match self {
            Workload::QueryCold => 20_000.0,
            _ => 0.0,
        }
    }

    pub fn method_kind(self) -> MethodKind {
        match self {
            Workload::QueryCold => MethodKind::IdTermScore,
            _ => MethodKind::Chunk,
        }
    }

    /// The build configuration the SQL DDL below produces, for the
    /// `SearchIndex` twin of the traced run.
    pub fn index_config(self) -> IndexConfig {
        let mut config = IndexConfig {
            term_weight: self.term_weight(),
            ..IndexConfig::default()
        };
        if self == Workload::QueryCold {
            config.codec = CodecKind::Varint;
            // A long-list cache several times smaller than the long lists.
            config.long_cache_pages = 32;
        }
        config
    }

    /// Scoring functions and the text index, run after the load (so the
    /// index is bulk-built from the loaded rows).
    pub fn index_sql(self) -> Vec<String> {
        let mut out = vec!["CREATE FUNCTION S2 (d INT) RETURNS FLOAT \
             RETURN SELECT s.nvisit FROM statistics s WHERE s.id = d"
            .to_string()];
        match self {
            Workload::QueryCold => {
                let config = self.index_config();
                out.push(format!(
                    "CREATE FUNCTION mix (s1 FLOAT, s2 FLOAT) RETURNS FLOAT RETURN s1 + s2 * {}",
                    config.term_weight
                ));
                out.push(format!(
                    "CREATE TEXT INDEX {INDEX} ON docs(body) SCORE WITH (S2, TFIDF()) \
                     AGGREGATE WITH mix USING METHOD ID_TERMSCORE \
                     OPTIONS (codec = {}, long_cache_pages = {})",
                    config.codec.name(),
                    config.long_cache_pages
                ));
            }
            _ => out.push(format!(
                "CREATE TEXT INDEX {INDEX} ON docs(body) SCORE WITH (S2) USING METHOD CHUNK"
            )),
        }
        out
    }
}

/// Engine tunables, the same for every workload: the serving
/// configuration's WAL group sync, each log syncing at most once per
/// 10 ms. With the default per-commit sync each acknowledged write pays
/// one fsync per touched store (about 8 per score update, about 290 per
/// content transaction), and run-to-run spreads on a shared disk reached
/// 0.3-0.5, more than any bound the benchmark may set.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        wal_sync_interval_ms: 10,
        ..EngineConfig::default()
    }
}

/// The generated documents and their initial `nvisit` scores. Document
/// `i` has primary key `i`; the first `initial` are loaded at set-up, the
/// rest are the pool `ingest-restart` inserts from.
pub struct Corpus {
    pub docs: Vec<Document>,
    pub nvisit: Vec<i64>,
    pub initial: usize,
    /// Terms by descending document frequency (query term pools).
    pub ranked_terms: Vec<TermId>,
    /// Initial documents by descending score (update targets).
    pub docs_by_score: Vec<DocId>,
}

impl Corpus {
    /// The paper's §5.1 synthetic data set, shaped per workload.
    pub fn generate(workload: Workload, seed: u64) -> Corpus {
        let shape = workload.corpus_shape();
        let initial = shape.num_docs;
        let data = SynthConfig {
            num_docs: initial + workload.insert_pool(),
            seed: seed ^ 0x5EED,
            ..shape
        }
        .generate();
        let nvisit = (0..data.docs.len() as u32)
            .map(|i| data.scores[&DocId(i)].round() as i64)
            .collect();
        Corpus {
            ranked_terms: data.terms_by_frequency(),
            docs_by_score: data.docs_by_score(),
            docs: data.docs,
            nvisit,
            initial,
        }
    }

    /// Reference model of the loaded corpus.
    pub fn oracle(&self, workload: Workload) -> Oracle {
        let scores = (0..self.initial)
            .map(|i| (DocId(i as u32), self.nvisit[i] as f64))
            .collect();
        Oracle::build(&self.docs[..self.initial], &scores, workload.term_weight())
    }

    /// Load statements: multi-row `INSERT`s of the initial corpus, each
    /// paired with the bytes of row data it carries.
    pub fn load_sql(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for start in (0..self.initial).step_by(LOAD_BATCH) {
            let ids = start..(start + LOAD_BATCH).min(self.initial);
            let mut docs = String::from("INSERT INTO docs VALUES ");
            let mut stats = String::from("INSERT INTO statistics VALUES ");
            let (mut doc_bytes, mut stat_bytes) = (0, 0);
            for (n, i) in ids.enumerate() {
                let sep = if n == 0 { "" } else { ", " };
                let body = body_text(&self.docs[i]);
                doc_bytes += row_bytes(&body);
                stat_bytes += row_bytes("");
                docs.push_str(&format!("{sep}({i}, '{body}')"));
                stats.push_str(&format!("{sep}({i}, {})", self.nvisit[i]));
            }
            out.push((docs, doc_bytes));
            out.push((stats, stat_bytes));
        }
        out
    }

    /// Everything a fresh engine needs, in order: schema, load, index.
    pub fn setup_sql(&self, workload: Workload) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = SCHEMA.iter().map(|s| (s.to_string(), 0)).collect();
        out.extend(self.load_sql());
        out.extend(workload.index_sql().into_iter().map(|s| (s, 0)));
        out
    }
}

/// Bytes of user data in one row: an 8-byte key, the text, and for score
/// rows (empty text) an 8-byte `nvisit`.
pub fn row_bytes(text: &str) -> u64 {
    if text.is_empty() {
        16
    } else {
        8 + text.len() as u64
    }
}

/// The word a term id is rendered as.
pub fn word(term: TermId) -> String {
    format!("w{}", term.0)
}

/// A document's text: each term's word repeated term-frequency times, so
/// the engine's tokenizer reproduces exactly the generated term counts.
pub fn body_text(doc: &Document) -> String {
    let mut out = String::new();
    for &(term, tf) in &doc.terms {
        for _ in 0..tf {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&word(term));
        }
    }
    out
}

/// How a ranked read is spelled in SQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// `ORDER BY SCORE(col, 'a b')` — conjunctive.
    OrderBy,
    /// `WHERE col CONTAINS ALL (...) RANK BY col (...)` — conjunctive.
    ContainsAll,
    /// `RANK BY col (...)` — disjunctive.
    RankBy,
}

impl Form {
    fn mode(self) -> QueryMode {
        match self {
            Form::RankBy => QueryMode::Disjunctive,
            _ => QueryMode::Conjunctive,
        }
    }
}

/// A ranked read: the reference-model query plus its SQL spelling.
#[derive(Debug, Clone)]
pub struct Read {
    pub query: Query,
    pub form: Form,
}

impl Read {
    fn new(terms: Vec<TermId>, form: Form) -> Read {
        Read {
            query: Query::new(terms, K, form.mode()),
            form,
        }
    }

    /// Space-separated keywords (the engine-API spelling).
    pub fn keywords(&self) -> String {
        let words: Vec<String> = self.query.terms.iter().map(|&t| word(t)).collect();
        words.join(" ")
    }

    fn list(&self) -> String {
        let words: Vec<String> = self
            .query
            .terms
            .iter()
            .map(|&t| format!("'{}'", word(t)))
            .collect();
        words.join(", ")
    }

    fn select_body(&self) -> String {
        let list = self.list();
        match self.form {
            Form::OrderBy => format!(
                "SELECT id FROM docs d ORDER BY SCORE(d.body, '{}')",
                self.keywords()
            ),
            Form::ContainsAll => {
                format!(
                    "SELECT id FROM docs WHERE body CONTAINS ALL ({list}) RANK BY body ({list})"
                )
            }
            Form::RankBy => format!("SELECT id FROM docs RANK BY body ({list})"),
        }
    }

    /// One-shot top-k statement.
    pub fn sql(&self) -> String {
        format!(
            "{} FETCH TOP {} RESULTS ONLY",
            self.select_body(),
            self.query.k
        )
    }

    /// Named-cursor declaration over the same ranking.
    pub fn declare_sql(&self, cursor: &str) -> String {
        format!("DECLARE {cursor} CURSOR FOR {}", self.select_body())
    }
}

/// One write inside a `BEGIN … COMMIT` transaction.
#[derive(Debug, Clone)]
pub enum Write {
    /// Insert corpus document `doc` (its key is its index) with a score.
    Insert {
        doc: u32,
        nvisit: i64,
    },
    Delete {
        pk: u32,
    },
    Update {
        pk: u32,
        nvisit: i64,
    },
}

impl Write {
    /// The SQL statements of this write, in order.
    pub fn sql(&self, corpus: &Corpus) -> Vec<String> {
        match *self {
            Write::Insert { doc, nvisit } => vec![
                format!("INSERT INTO statistics VALUES ({doc}, {nvisit})"),
                format!(
                    "INSERT INTO docs VALUES ({doc}, '{}')",
                    body_text(&corpus.docs[doc as usize])
                ),
            ],
            Write::Delete { pk } => vec![
                format!("DELETE FROM docs WHERE id = {pk}"),
                format!("DELETE FROM statistics WHERE id = {pk}"),
            ],
            Write::Update { pk, nvisit } => vec![update_sql(pk, nvisit)],
        }
    }

    /// Apply an acknowledged write to the reference model.
    pub fn apply(&self, corpus: &Corpus, oracle: &mut Oracle) -> Result<(), String> {
        let result = match *self {
            Write::Insert { doc, nvisit } => {
                oracle.insert_document(&corpus.docs[doc as usize], nvisit as f64)
            }
            Write::Delete { pk } => oracle.delete_document(DocId(pk)),
            Write::Update { pk, nvisit } => oracle.update_score(DocId(pk), nvisit as f64),
        };
        result.map_err(|e| format!("reference model rejected {self:?}: {e}"))
    }
}

pub fn update_sql(pk: u32, nvisit: i64) -> String {
    format!("UPDATE statistics SET nvisit = {nvisit} WHERE id = {pk}")
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// A one-shot ranked top-k query.
    Read(Read),
    /// `DECLARE` a cursor, `FETCH` `pages` pages of `K`, `CLOSE`.
    Paged { read: Read, pages: usize },
    /// A single-statement score update (autocommit).
    Update { pk: u32, nvisit: i64 },
    /// A multi-statement transaction.
    Txn(Vec<Write>),
    /// `MERGE TEXT INDEX`.
    Merge,
}

/// Seeded op stream of one connection. The same `(workload, seed, conn)`
/// always yields the same ops, which is what lets the traced run replay
/// the measured stream at every depth.
pub struct OpGen<'a> {
    workload: Workload,
    corpus: &'a Corpus,
    rng: StdRng,
    n: u64,
    updates: Option<UpdateWorkload>,
    medium2: QueryWorkload,
    medium3: QueryWorkload,
    frequent1: QueryWorkload,
    rare1: QueryWorkload,
    frequent4: QueryWorkload,
    frequent8: QueryWorkload,
    /// ingest-restart: live keys (as the generator expects them after
    /// every generated transaction commits) and the next pool document.
    live: Vec<u32>,
    next_insert: u32,
}

/// Rank past which query-cold draws its rare terms.
const RARE_FROM: usize = 3_000;
/// Transactions between two `MERGE TEXT INDEX` statements.
const MERGE_EVERY: u64 = 20;
/// ingest-restart ops per merge cycle: each transaction is followed by a
/// ranked read, and the cycle ends with the merge.
const CYCLE_OPS: usize = 2 * MERGE_EVERY as usize + 1;

impl<'a> OpGen<'a> {
    pub fn new(workload: Workload, corpus: &'a Corpus, seed: u64, conn: usize) -> OpGen<'a> {
        let s = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(conn as u64 + 1);
        let terms = || corpus.ranked_terms.clone();
        let qw = |class, n, salt: u64| {
            QueryWorkload::new(terms(), class, n, QueryMode::Conjunctive, s ^ salt)
        };
        let updates = (workload == Workload::ServeMixed).then(|| {
            // Each connection owns the keys congruent to its number mod the
            // connection count, so every row's final score is well defined.
            let clients = workload.clients() as u32;
            let mine: Vec<DocId> = corpus
                .docs_by_score
                .iter()
                .copied()
                .filter(|d| d.0 % clients == conn as u32)
                .collect();
            let scores = mine
                .iter()
                .map(|&d| (d, corpus.nvisit[d.0 as usize] as f64))
                .collect();
            UpdateWorkload::new(
                mine,
                scores,
                UpdateConfig {
                    seed: s ^ 0xD0C,
                    ..UpdateConfig::default()
                },
            )
        });
        OpGen {
            workload,
            corpus,
            rng: StdRng::seed_from_u64(s),
            n: 0,
            updates,
            medium2: qw(QueryClass::Medium, 2, 1),
            medium3: qw(QueryClass::Medium, 3, 2),
            frequent1: qw(QueryClass::Frequent, 1, 5),
            // Rare terms: the Rare class drawn past the RARE_FROM most
            // frequent terms, so a frequent AND rare query can skip blocks.
            rare1: QueryWorkload::new(
                corpus
                    .ranked_terms
                    .get(RARE_FROM..)
                    .filter(|t| !t.is_empty())
                    .unwrap_or(&corpus.ranked_terms)
                    .to_vec(),
                QueryClass::Rare,
                1,
                QueryMode::Conjunctive,
                s ^ 6,
            ),
            frequent4: qw(QueryClass::Frequent, 4, 3),
            frequent8: qw(QueryClass::Frequent, 8, 4),
            live: (0..corpus.initial as u32).collect(),
            next_insert: corpus.initial as u32,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let n = self.n;
        self.n += 1;
        match self.workload {
            // 4 score updates per ranked query.
            Workload::ServeMixed => {
                if n % 5 == 4 {
                    Op::Read(Read::new(self.medium2.next_query(K).terms, Form::OrderBy))
                } else {
                    let (doc, score) = self
                        .updates
                        .as_mut()
                        .map_or((DocId(0), 0.0), |u| u.next_update());
                    Op::Update {
                        pk: doc.0,
                        nvisit: score.round() as i64,
                    }
                }
            }
            // 2/4/8-keyword CONTAINS ALL (the 2-keyword form pairs a
            // frequent and a rare term), 3/4-keyword RANK BY; every sixth
            // read is paged through a cursor.
            Workload::QueryCold => match n % 6 {
                0 => {
                    let mut terms = self.frequent1.next_query(K).terms;
                    terms.extend(self.rare1.next_query(K).terms);
                    Op::Read(Read::new(terms, Form::ContainsAll))
                }
                1 => Op::Read(Read::new(
                    self.frequent4.next_query(K).terms,
                    Form::ContainsAll,
                )),
                2 => Op::Read(Read::new(
                    self.frequent8.next_query(K).terms,
                    Form::ContainsAll,
                )),
                3 => Op::Paged {
                    read: Read::new(self.medium3.next_query(K).terms, Form::RankBy),
                    pages: 3,
                },
                4 => Op::Read(Read::new(self.medium3.next_query(K).terms, Form::RankBy)),
                _ => Op::Read(Read::new(self.frequent4.next_query(K).terms, Form::RankBy)),
            },
            // Transaction, ranked read, transaction, ...; a merge after
            // every MERGE_EVERY transactions.
            Workload::IngestRestart => match n % CYCLE_OPS as u64 {
                i if i + 1 == CYCLE_OPS as u64 => Op::Merge,
                i if i % 2 == 1 => {
                    Op::Read(Read::new(self.medium2.next_query(K).terms, Form::OrderBy))
                }
                _ => Op::Txn(self.next_txn()),
            },
        }
    }

    /// 4 inserts, 1 delete (two rows), 2 score updates; targets are
    /// distinct keys live before the transaction.
    fn next_txn(&mut self) -> Vec<Write> {
        let mut writes = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        for kind in 0..3 {
            let count = if kind == 0 { 1 } else { 2 };
            for _ in 0..count {
                if self.live.len() <= touched.len() + 1 {
                    break;
                }
                let mut pick = self.rng.gen_range(0..self.live.len());
                while touched.contains(&self.live[pick]) {
                    pick = self.rng.gen_range(0..self.live.len());
                }
                let pk = self.live[pick];
                touched.push(pk);
                if kind == 0 {
                    writes.push(Write::Delete { pk });
                } else {
                    writes.push(Write::Update {
                        pk,
                        nvisit: self.rng.gen_range(0..100_000),
                    });
                }
            }
        }
        for w in &writes {
            if let Write::Delete { pk } = w {
                if let Some(pos) = self.live.iter().position(|p| p == pk) {
                    self.live.swap_remove(pos);
                }
            }
        }
        for _ in 0..4 {
            if (self.next_insert as usize) < self.corpus.docs.len() {
                let doc = self.next_insert;
                self.next_insert += 1;
                self.live.push(doc);
                writes.push(Write::Insert {
                    doc,
                    nvisit: self.corpus.nvisit[doc as usize],
                });
            }
        }
        writes
    }
}

/// The fixed probe set compared against the reference model when a
/// workload stops (and again after the reopen): reads of the workload's
/// own shapes, drawn from a stream no connection uses.
pub fn probes(workload: Workload, corpus: &Corpus, seed: u64) -> Vec<Op> {
    let mut gen = OpGen::new(workload, corpus, seed ^ 0xBEEF_F00D, 0);
    let mut out = Vec::new();
    while out.len() < 24 {
        if let op @ (Op::Read(_) | Op::Paged { .. }) = gen.next_op() {
            out.push(op);
        }
    }
    out
}
