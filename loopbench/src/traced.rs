//! The traced run: a benchmark-side session loop that answers the same
//! loopback client as `mera_server::serve`, composing exactly the public
//! calls `ConcurrentDb::run_sql`/`run_script` and the server's request
//! handler make, with a span around each one. Nothing inside the crates
//! is instrumented. A request span starts once its frame has been read
//! (so the wait for the client's next request is not counted) and ends
//! when the reply is flushed.
//!
//! Spans are kept in memory (a thread-local list on the session thread)
//! and handed back when the session ends. After each reply is flushed,
//! the loop re-runs the stages of `MvccManager::prepare` one by one as
//! *side calls* — snapshot copy, analysis, optimization, evaluation —
//! to split its time; their spans share the request id but are not
//! children of the request span, since the reply did not wait for them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use mera_core::prelude::*;
use mera_eval::physical::planner::{plan_instrumented_indexed_with, IndexAccess};
use mera_eval::physical::stats::ExecStats;
use mera_eval::{Engine, IndexJoinHints};
use mera_lang::{lower_script, parse_script, RunResult};
use mera_opt::{choose_access_paths, Optimizer};
use mera_server::protocol::{read_frame, write_frame, BATCH_ROWS};
use mera_server::{Request, Response, Row};
use mera_store::{ConcurrentDb, Storage, StoreError, StoreResult, WAL_FILE};
use mera_txn::exec::WorkingSchemas;
use mera_txn::{
    analyze_program_with_views, AbortReason, Outcome, Program, Statement, Version, WorkingState,
};

use crate::stats::{self_times, Span, Summary};
use crate::sys::thread_allocations;

// ------------------------------------------------------------- tracer

struct Tracer {
    epoch: Instant,
    req: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn enter(name: &'static str, child: bool) -> Option<usize> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let id = t.spans.len();
        let start_ns = now_ns(t.epoch);
        let parent = if child { t.open.last().copied() } else { None };
        t.spans.push(Span {
            name,
            req: t.req,
            parent,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        t.open.push(id);
        Some(id)
    })
}

fn exit(id: Option<usize>, count: u64) {
    let Some(id) = id else { return };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("a span was entered on this thread");
        let end = now_ns(t.epoch);
        let span = &mut t.spans[id];
        span.end_ns = end;
        span.count = count;
        t.open.pop();
    });
}

/// Runs `f` in a span, recording the count it returns. A child span nests
/// under the innermost open span; a side-call span has no parent.
fn record<T>(name: &'static str, child: bool, f: impl FnOnce() -> (T, u64)) -> T {
    let id = enter(name, child);
    let (out, count) = f();
    exit(id, count);
    out
}

/// Runs `f` inside a span nested under the innermost open span.
fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    record(name, true, || (f(), 0))
}

/// [`span`], recording the count `f` returns alongside its result.
fn counted<T>(name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
    record(name, true, f)
}

/// A span that counts the allocations `f` makes on this thread.
fn allocating<T>(name: &'static str, child: bool, f: impl FnOnce() -> T) -> T {
    record(name, child, || {
        let before = thread_allocations();
        let out = f();
        (out, thread_allocations() - before)
    })
}

// ------------------------------------------------------------ storage

/// A [`Storage`] that times WAL appends and syncs as `store.append`
/// (counting bytes) and `store.sync` spans, and otherwise forwards every
/// call unchanged.
pub struct TimedStorage<S>(pub S);

impl<S: Storage> Storage for TimedStorage<S> {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        self.0.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> StoreResult<()> {
        if name != WAL_FILE {
            return self.0.append(name, bytes);
        }
        counted("store.append", || {
            (self.0.append(name, bytes), bytes.len() as u64)
        })
    }

    fn sync(&mut self, name: &str) -> StoreResult<()> {
        if name != WAL_FILE {
            return self.0.sync(name);
        }
        counted("store.sync", || (self.0.sync(name), 1))
    }

    fn replace_atomic(&mut self, name: &str, bytes: &[u8]) -> StoreResult<()> {
        self.0.replace_atomic(name, bytes)
    }

    fn truncate(&mut self, name: &str, len: u64) -> StoreResult<()> {
        self.0.truncate(name, len)
    }
}

// ------------------------------------------------------------ session

/// What a traced session hands back when the client hangs up.
pub struct Trace {
    pub spans: Vec<Span>,
    /// Aborted transactions by [`AbortReason`] kind.
    pub aborts: BTreeMap<&'static str, u64>,
}

/// A traced session loop serving one connection on a loopback port.
pub struct TracedServer {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<Trace>>,
}

impl TracedServer {
    pub fn start<S: Storage + Send + 'static>(db: Arc<ConcurrentDb<S>>) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = thread::Builder::new()
            .name("traced-session".into())
            .spawn(move || {
                let (conn, _) = listener.accept()?;
                conn.set_nodelay(true)?;
                serve(&db, conn)
            })?;
        Ok(TracedServer { addr, thread })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the session to end (the client must have hung up).
    pub fn finish(self) -> io::Result<Trace> {
        self.thread
            .join()
            .expect("the traced session does not panic")
    }
}

/// The program and pinned version a request ran, kept for the side
/// calls after its reply.
struct Ran {
    version: Arc<Version>,
    program: Program,
}

struct Session<'a, S: Storage> {
    db: &'a ConcurrentDb<S>,
    ran: Vec<Ran>,
    aborts: BTreeMap<&'static str, u64>,
}

fn serve<S: Storage>(db: &ConcurrentDb<S>, conn: TcpStream) -> io::Result<Trace> {
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            req: 0,
            spans: Vec::with_capacity(1 << 18),
            open: Vec::new(),
        })
    });
    let mut session = Session {
        db,
        ran: Vec::new(),
        aborts: BTreeMap::new(),
    };
    while let Some(payload) = read_frame(&mut reader)? {
        let root = enter("request", false);
        let responses = match span("server.decode", || Request::decode(&payload)) {
            Ok(request) => session.execute(&request),
            Err(e) => vec![Response::Error(e.to_string())],
        };
        counted("server.encode", || {
            let mut bytes = 0;
            let mut result = Ok(());
            for r in &responses {
                let frame = r.encode();
                bytes += 4 + frame.len() as u64;
                result = result.and_then(|()| write_frame(&mut writer, &frame));
            }
            (result.and_then(|()| writer.flush()), bytes)
        })?;
        exit(root, 0);
        for ran in std::mem::take(&mut session.ran) {
            side_calls(db, &ran);
        }
        TRACER.with(|t| t.borrow_mut().as_mut().expect("tracer is set").req += 1);
    }
    let tracer = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("tracer is set");
    Ok(Trace {
        spans: tracer.spans,
        aborts: session.aborts,
    })
}

impl<S: Storage> Session<'_, S> {
    /// `mera_server`'s request handler, span by span.
    fn execute(&mut self, request: &Request) -> Vec<Response> {
        match request {
            Request::Ping => vec![Response::Pong],
            Request::Sql(sql) => match self.run_sql(sql) {
                Ok(Some(relation)) => {
                    let mut out = span("server.render", || render(&relation));
                    out.push(Response::Done {
                        committed: 1,
                        aborted: 0,
                    });
                    out
                }
                Ok(None) => vec![Response::Done {
                    committed: 1,
                    aborted: 0,
                }],
                Err(StoreError::TransactionAborted(reason)) => vec![
                    Response::Notice(format!("transaction aborted: {reason}")),
                    Response::Done {
                        committed: 0,
                        aborted: 1,
                    },
                ],
                Err(e) => vec![Response::Error(e.to_string())],
            },
            Request::Xra(src) => match self.run_script(src) {
                Ok(results) => {
                    let mut out = Vec::new();
                    let (mut committed, mut aborted) = (0u32, 0u32);
                    for result in results {
                        match result {
                            RunResult::Committed(queries) => {
                                committed += 1;
                                for q in queries {
                                    out.extend(span("server.render", || render(&q)));
                                }
                            }
                            RunResult::Aborted(reason) => {
                                aborted += 1;
                                out.push(Response::Notice(format!(
                                    "transaction aborted: {reason}"
                                )));
                            }
                        }
                    }
                    out.push(Response::Done { committed, aborted });
                    out
                }
                Err(e) => vec![Response::Error(e.to_string())],
            },
        }
    }

    /// `ConcurrentDb::run_sql`, span by span.
    fn run_sql(&mut self, sql: &str) -> StoreResult<Option<Relation>> {
        let db = self.db;
        let stmt = span("sql.parse", || mera_sql::parse_sql(sql)).map_err(StoreError::from)?;
        let translated = span("sql.translate", || {
            let catalog = db.pin().catalog_schema();
            mera_sql::translate(&stmt, &catalog)
        })
        .map_err(StoreError::from)?;
        match translated {
            mera_sql::Translated::CreateView { name, expr } => {
                span("txn.ddl", || db.create_view(&name, expr))?;
                Ok(None)
            }
            mera_sql::Translated::CreateTable { schema, keys } => {
                span("txn.ddl", || {
                    let name = schema.name.clone();
                    db.add_relation(schema)?;
                    keys.iter()
                        .try_for_each(|attrs| db.declare_key(&name, attrs))
                })?;
                Ok(None)
            }
            other => {
                let is_query = matches!(other, mera_sql::Translated::Query(_));
                let program = Program::single(other.into_statement());
                let outcome = if is_query {
                    self.read(program)?
                } else {
                    self.commit(program)?
                };
                let mut outputs = match outcome {
                    Outcome::Committed(outputs) => outputs,
                    Outcome::Aborted(reason) => {
                        return Err(StoreError::TransactionAborted(reason.to_string()))
                    }
                };
                Ok(is_query.then(|| outputs.queries.remove(0)))
            }
        }
    }

    /// `ConcurrentDb::run_script`, span by span.
    fn run_script(&mut self, src: &str) -> StoreResult<Vec<RunResult>> {
        let db = self.db;
        let lowered = span("lang.parse_lower", || {
            let script = parse_script(src)?;
            lower_script(&script, &db.pin().catalog_schema())
        })
        .map_err(StoreError::from)?;
        span("txn.ddl", || -> StoreResult<()> {
            for decl in lowered.declarations {
                db.add_relation(decl)?;
            }
            for view in lowered.views {
                db.create_view(&view.name, view.expr)?;
            }
            for key in lowered.keys {
                db.declare_key(&key.relation, &key.attrs)?;
            }
            Ok(())
        })?;
        let mut results = Vec::with_capacity(lowered.transactions.len());
        for program in lowered.transactions {
            results.push(match self.commit(program)? {
                Outcome::Committed(outputs) => RunResult::Committed(outputs.queries),
                Outcome::Aborted(reason) => RunResult::Aborted(reason.to_string()),
            });
        }
        Ok(results)
    }

    /// The read-only branch of `ConcurrentDb::try_execute`: prepare
    /// against the pinned version, then the commit call that publishes
    /// nothing.
    fn read(&mut self, program: Program) -> StoreResult<Outcome> {
        let mvcc = self.db.mvcc();
        let start = mvcc.pin();
        let prepared = allocating("txn.prepare", true, || {
            mvcc.prepare(Arc::clone(&start), &program)
        });
        self.ran.push(Ran {
            version: start,
            program,
        });
        let prepared = match prepared {
            Ok(p) => p,
            Err(reason) => return Ok(self.aborted(reason)),
        };
        assert!(prepared.is_read_only(), "a query program wrote");
        let (outcome, _) = span("txn.commit", || {
            mvcc.try_commit::<StoreError>(prepared, |_| Ok(()))
        })?;
        Ok(outcome)
    }

    /// `ConcurrentDb::try_execute` as one span; its WAL appends and syncs
    /// are child spans from [`TimedStorage`]. The span counts 1 for a
    /// committed write.
    fn commit(&mut self, program: Program) -> StoreResult<Outcome> {
        let db = self.db;
        self.ran.push(Ran {
            version: db.pin(),
            program,
        });
        let program = &self.ran.last().expect("just pushed").program;
        let outcome = counted("txn.commit", || {
            let out = db.try_execute(program);
            let wrote = matches!(out, Ok(Outcome::Committed(_)));
            (out, u64::from(wrote))
        })?;
        Ok(match outcome {
            Outcome::Aborted(reason) => self.aborted(reason),
            committed => committed,
        })
    }

    fn aborted(&mut self, reason: AbortReason) -> Outcome {
        *self.aborts.entry(abort_kind(&reason)).or_default() += 1;
        Outcome::Aborted(reason)
    }
}

/// The name `txn.aborts` breaks aborts down by.
pub fn abort_kind(reason: &AbortReason) -> &'static str {
    match reason {
        AbortReason::Error(_) => "error",
        AbortReason::StaticallyRejected(_) => "static",
        AbortReason::InjectedFault(_) => "fault",
        AbortReason::ConstraintViolation(_) => "constraint",
        AbortReason::KeyViolation(_) => "key",
        AbortReason::Conflict { .. } => "conflict",
    }
}

/// `mera_server`'s rendering of a result relation as `RowBatch` frames.
fn render(relation: &Relation) -> Vec<Response> {
    let rows: Vec<Row> = relation
        .iter()
        .map(|(tuple, multiplicity)| Row {
            multiplicity,
            values: tuple.values().iter().map(|v| v.to_string()).collect(),
        })
        .collect();
    if rows.is_empty() {
        return vec![Response::RowBatch {
            last: true,
            rows: Vec::new(),
        }];
    }
    let nbatches = rows.len().div_ceil(BATCH_ROWS);
    let mut out = Vec::with_capacity(nbatches);
    let mut it = rows.into_iter();
    for i in 0..nbatches {
        let chunk: Vec<Row> = it.by_ref().take(BATCH_ROWS).collect();
        out.push(Response::RowBatch {
            last: i + 1 == nbatches,
            rows: chunk,
        });
    }
    out
}

// --------------------------------------------------------- side calls

/// Re-runs the stages of `MvccManager::prepare` for one request, each in
/// its own side-call span: `Database::clone` of the pinned version,
/// `analyze_program_with_views`, and per statement expression
/// `Optimizer::optimize` (with the version's statistics and keys) plus
/// access-path choice, `Engine::run`, and the instrumented plan EXPLAIN
/// uses, whose `ExecStats::total_intermediate` counts rows touched.
/// Statements are evaluated against the snapshot, not against each
/// other's writes.
fn side_calls<S: Storage>(db: &ConcurrentDb<S>, ran: &Ran) {
    let config = db.mvcc().config();
    let v = &ran.version;
    let copy = allocating("txn.snapshot_copy", false, || v.database().clone());
    if config.analyze {
        record("analyze", false, || {
            let diags = analyze_program_with_views(v.database(), v.views(), &ran.program);
            (diags, 0)
        });
    }
    let state = WorkingState::with_catalog(
        copy,
        v.views(),
        Some(Arc::clone(v.stats())),
        Some(Arc::clone(v.indexes())),
        Some(Arc::clone(v.keys())),
    );
    let provider = WorkingSchemas(&state);
    let index_defs = v.indexes().definitions();
    for stmt in &ran.program.statements {
        let expr = match stmt {
            Statement::Insert { expr, .. }
            | Statement::Delete { expr, .. }
            | Statement::Update { expr, .. }
            | Statement::Assign { expr, .. }
            | Statement::Query { expr } => expr,
        };
        let planned = record("optimizer", false, || {
            let mut optimizer = Optimizer::standard().with_stats(Arc::clone(v.stats()));
            let mut keys = mera_analyze::KeyEnv::new();
            for (relation, attrs) in v.keys().definitions() {
                keys.declare(relation, attrs);
            }
            if !keys.is_empty() {
                optimizer = optimizer.with_keys(keys);
            }
            let planned = optimizer.optimize(expr, &provider).and_then(|o| {
                let hints = if index_defs.is_empty() {
                    IndexJoinHints::default()
                } else {
                    choose_access_paths(&o.expr, v.stats(), &index_defs, &provider)?
                };
                Ok((o.expr, hints))
            });
            (planned, 0)
        });
        let Ok((expr, hints)) = planned else { continue };
        record("eval", false, || {
            let mut engine = Engine::new(config.engine).with_options(config.options);
            if !index_defs.is_empty() {
                engine = engine
                    .with_shared_indexes(Arc::clone(v.indexes()))
                    .with_index_hints(hints.clone());
            }
            let rows = engine.run(&expr, &state).map_or(0, |r| r.len());
            ((), rows)
        });
        record("eval.instrumented", false, || {
            let mut stats = ExecStats::new();
            let access = (!index_defs.is_empty()).then(|| IndexAccess {
                indexes: v.indexes(),
                hints: &hints,
            });
            let touched =
                plan_instrumented_indexed_with(&expr, &state, config.options, access, &mut stats)
                    .and_then(mera_eval::collect)
                    .map_or(0, |_| stats.total_intermediate());
            ((), touched)
        });
    }
}

// ------------------------------------------------------------ report

/// Critical-path spans (children of a request span) and the metric
/// reporting each one's self time per op.
const PATH_LAYERS: [(&str, &str); 10] = [
    ("server.decode", "server.decode_us"),
    ("sql.parse", "sql.parse_us"),
    ("sql.translate", "sql.translate_us"),
    ("lang.parse_lower", "lang.parse_lower_us"),
    ("txn.prepare", "txn.prepare_us"),
    ("txn.commit", "txn.commit_us"),
    ("store.append", "store.append_us"),
    ("store.sync", "store.sync_us"),
    ("server.render", "server.render_us"),
    ("server.encode", "server.encode_us"),
];

/// Side-call spans and their metrics.
const SIDE_LAYERS: [(&str, &str); 4] = [
    ("txn.snapshot_copy", "txn.snapshot_copy_us"),
    ("analyze", "analyze.us"),
    ("optimizer", "optimizer.us"),
    ("eval", "eval.us"),
];

/// Per-layer metrics over the requests numbered `lo..hi` (the timed
/// loop): self time and counts per op, plus the request span's own
/// unattributed time, so the critical-path layers and
/// `trace.unattributed_us` add up to the mean request.
pub fn layer_report(trace: &Trace, lo: u64, hi: u64, r: &mut crate::Report) {
    let ops = (hi - lo).max(1) as f64;
    let mut time: BTreeMap<&str, u64> = BTreeMap::new();
    let mut count: BTreeMap<&str, u64> = BTreeMap::new();
    let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
    let mut requests = Vec::new();
    for (s, self_ns) in trace.spans.iter().zip(self_times(&trace.spans)) {
        if !(lo..hi).contains(&s.req) {
            continue;
        }
        *time.entry(s.name).or_default() += self_ns;
        *count.entry(s.name).or_default() += s.count;
        *calls.entry(s.name).or_default() += 1;
        if s.name == "request" {
            requests.push((s.end_ns - s.start_ns) as f64 / 1e3);
        }
    }
    let get = |m: &BTreeMap<&str, u64>, name: &str| m.get(name).copied().unwrap_or(0) as f64;
    let per_op_us = |name: &str| get(&time, name) / 1e3 / ops;

    let mut path_sum = 0.0;
    for (span, metric) in PATH_LAYERS {
        let us = per_op_us(span);
        path_sum += us;
        r.metric(
            metric,
            us,
            "us",
            format!("self time per op, {} calls", get(&calls, span)),
        );
    }
    // DDL never runs in a timed loop, but keep the sum exact if it did
    path_sum += per_op_us("txn.ddl");
    let unattributed = per_op_us("request");
    r.metric(
        "trace.unattributed_us",
        unattributed,
        "us",
        "request span minus its children, per op".into(),
    );
    let request = Summary::of(&requests);
    let mean = requests.iter().sum::<f64>() / requests.len().max(1) as f64;
    r.metric(
        "trace.request_us",
        mean,
        "us",
        request.map_or(String::new(), |s| {
            format!("mean; {}", crate::fmt_summary(&s))
        }),
    );
    r.lines.push(format!(
        "trace.accounting layers={path_sum:.3} unattributed={unattributed:.3} \
         sum={:.3} request_mean={mean:.3} request_median={:.3} (us per op)",
        path_sum + unattributed,
        request.map_or(0.0, |s| s.median),
    ));
    for (span, metric) in SIDE_LAYERS {
        r.metric(
            metric,
            per_op_us(span),
            "us",
            format!("side call per op, {} calls", get(&calls, span)),
        );
    }
    let per_op = |name: &str| get(&count, name) / ops;
    r.metric(
        "server.bytes_out_per_op",
        per_op("server.encode"),
        "B",
        "reply frames incl. length prefixes".into(),
    );
    r.metric(
        "txn.prepare_allocs",
        per_op("txn.prepare"),
        "count",
        "allocations in MvccManager::prepare per op".into(),
    );
    r.metric(
        "txn.snapshot_copy_allocs",
        per_op("txn.snapshot_copy"),
        "count",
        "allocations in Database::clone per op".into(),
    );
    r.metric(
        "eval.rows_touched_per_op",
        per_op("eval.instrumented"),
        "count",
        "ExecStats::total_intermediate per op".into(),
    );
    r.metric(
        "eval.rows_out_per_op",
        per_op("eval"),
        "count",
        "result rows per op".into(),
    );
    let commits = get(&count, "txn.commit");
    let per_commit = |x: f64| if commits > 0.0 { x / commits } else { 0.0 };
    r.metric(
        "store.syncs_per_commit",
        per_commit(get(&calls, "store.sync")),
        "count",
        format!("{commits} committed writes"),
    );
    r.metric(
        "store.bytes_per_commit",
        per_commit(get(&count, "store.append")),
        "B",
        "WAL bytes appended per committed write".into(),
    );
    let aborts: u64 = trace.aborts.values().sum();
    let by_reason: Vec<String> = trace
        .aborts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    r.metric(
        "txn.aborts",
        aborts as f64,
        "count",
        format!("whole session; by reason: {}", by_reason.join(" ")),
    );
}

/// Writes every span, one per line, once the session is over.
pub fn write_spans(trace: &Trace, seed: u64, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# seed {seed}")?;
    writeln!(out, "req\tname\tparent\tstart_ns\tend_ns\tcount")?;
    for s in &trace.spans {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{}\t{}",
            s.req, s.name, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_store::{DirStorage, FsyncPolicy, StoreOptions};

    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("run")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open<S: Storage>(storage: S) -> ConcurrentDb<S> {
        let options = StoreOptions {
            fsync: FsyncPolicy::EveryN(8),
            ..StoreOptions::default()
        };
        ConcurrentDb::open(storage, DatabaseSchema::new(), options).expect("opens")
    }

    /// DDL, bulk and single-row DML, a view and a two-statement script.
    fn workload<S: Storage>(db: &ConcurrentDb<S>) {
        for sql in [
            "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)",
            "CREATE TABLE orders (id INT, cust INT, amt INT)",
            "INSERT INTO accounts VALUES (1, 100), (2, 100), (3, 100)",
            "INSERT INTO orders VALUES (1, 7, 10), (2, 8, 20), (3, 7, 5)",
            "CREATE MATERIALIZED VIEW totals AS SELECT cust, SUM(amt) FROM orders GROUP BY cust",
            "UPDATE accounts SET balance = balance + 1 WHERE id = 2",
            "DELETE FROM orders WHERE id = 1",
            "SELECT balance FROM accounts WHERE id = 2",
        ] {
            db.run_sql(sql).expect(sql);
        }
        let results = db
            .run_script(
                "begin update(accounts, select[%1 = 1](accounts), (%1, %2 - 5)); \
                 update(accounts, select[%1 = 3](accounts), (%1, %2 + 5)); end",
            )
            .expect("script runs");
        assert!(matches!(results[..], [RunResult::Committed(_)]));
    }

    fn state<S: Storage>(db: &ConcurrentDb<S>) -> (Database, Relation) {
        let v = db.pin();
        let view = v
            .views()
            .get("totals")
            .expect("view")
            .data()
            .as_ref()
            .clone();
        (v.database().clone(), view)
    }

    #[test]
    fn timed_storage_writes_the_same_wal_and_recovers_the_same_state() {
        let (plain_dir, timed_dir) = (test_dir("plain"), test_dir("timed"));
        let plain = open(DirStorage::open(&plain_dir).expect("dir"));
        workload(&plain);
        let expected = state(&plain);
        drop(plain);

        // trace the timed run, so the span-recording path runs too
        TRACER.with(|t| {
            *t.borrow_mut() = Some(Tracer {
                epoch: Instant::now(),
                req: 0,
                spans: Vec::new(),
                open: Vec::new(),
            })
        });
        let timed = open(TimedStorage(DirStorage::open(&timed_dir).expect("dir")));
        workload(&timed);
        assert_eq!(state(&timed), expected);
        drop(timed);
        let spans = TRACER
            .with(|t| t.borrow_mut().take())
            .expect("tracer")
            .spans;

        let wal = |dir: &Path| std::fs::read(dir.join(WAL_FILE)).expect("WAL exists");
        let (plain_wal, timed_wal) = (wal(&plain_dir), wal(&timed_dir));
        assert_eq!(plain_wal, timed_wal, "the wrapper changed the WAL bytes");
        let appended: u64 = spans
            .iter()
            .filter(|s| s.name == "store.append")
            .map(|s| s.count)
            .sum();
        assert_eq!(
            appended,
            timed_wal.len() as u64 - mera_store::wal::empty_wal().len() as u64
        );
        assert!(spans.iter().any(|s| s.name == "store.sync"));

        // each WAL recovers to the state it was written from, through
        // either storage
        let recovered = open(DirStorage::open(&timed_dir).expect("dir"));
        assert_eq!(state(&recovered), expected);
        drop(recovered);
        let recovered = open(TimedStorage(DirStorage::open(&plain_dir).expect("dir")));
        assert_eq!(state(&recovered), expected);
        drop(recovered);
        for dir in [plain_dir, timed_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
