//! The multi-client TCP server over a [`ConcurrentDb`].
//!
//! One acceptor thread hands connections to a fixed pool of session
//! workers (same idiom as `mera-eval`'s worker pool: a shared
//! `Mutex<VecDeque<…>>` job queue drained under a `Condvar`). Each
//! worker owns one connection at a time and runs its request loop to
//! completion; every request executes against the shared
//! [`ConcurrentDb`], so concurrent sessions get MVCC snapshot reads and
//! group-committed writes for free — the server adds transport, not
//! another concurrency layer.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] raises a flag,
//! the non-blocking acceptor notices within one poll interval, the
//! workers finish (or abandon, for idle keep-alive sessions) their
//! current connection and exit, and `shutdown` joins them all.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mera_core::prelude::Relation;
use mera_lang::RunResult;
use mera_store::{ConcurrentDb, Storage, StoreError};

use crate::protocol::{write_frame, FrameReader, Request, Response, Row, BATCH_ROWS};

/// How often the acceptor and idle workers re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Session worker threads — the maximum number of connections served
    /// concurrently; further connections queue until a worker frees up.
    pub workers: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { workers: 8 }
    }
}

/// Connections waiting for a session worker.
struct ConnQueue {
    ready: Mutex<VecDeque<TcpStream>>,
    wake: Condvar,
}

/// A running server: the acceptor plus its session workers.
///
/// Dropping the handle without calling [`shutdown`](Self::shutdown)
/// leaves the threads running for the life of the process (they hold
/// their own `Arc`s); tests and well-behaved embedders should shut down
/// explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets every worker finish its current
    /// connection, and joins all server threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.wake.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves the database until
/// [`ServerHandle::shutdown`]. Bind `"127.0.0.1:0"` to get an ephemeral
/// port back via [`ServerHandle::local_addr`].
pub fn serve<S>(
    db: Arc<ConcurrentDb<S>>,
    addr: impl ToSocketAddrs,
    options: ServerOptions,
) -> io::Result<ServerHandle>
where
    S: Storage + Send + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let stop = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(ConnQueue {
        ready: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
    });

    let mut threads = Vec::with_capacity(options.workers.max(1) + 1);
    for id in 0..options.workers.max(1) {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let queue = Arc::clone(&queue);
        threads.push(
            thread::Builder::new()
                .name(format!("mera-session-{id}"))
                .spawn(move || session_worker(&db, &stop, &queue))?,
        );
    }
    {
        let stop = Arc::clone(&stop);
        let queue = Arc::clone(&queue);
        threads.push(
            thread::Builder::new()
                .name("mera-acceptor".into())
                .spawn(move || acceptor(&listener, &stop, &queue))?,
        );
    }
    Ok(ServerHandle {
        addr,
        stop,
        queue,
        threads,
    })
}

/// Accepts connections until the stop flag is raised, pushing each onto
/// the worker queue.
fn acceptor(listener: &TcpListener, stop: &AtomicBool, queue: &ConnQueue) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((conn, _peer)) => {
                // Session sockets block: the worker request loop reads
                // whole frames.
                if conn.set_nonblocking(false).is_err() {
                    continue;
                }
                let _ = conn.set_nodelay(true);
                let mut ready = lock(&queue.ready);
                ready.push_back(conn);
                drop(ready);
                queue.wake.notify_one();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
            // Transient accept errors (peer reset mid-handshake): retry.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Serves connections from the queue until the stop flag is raised.
fn session_worker<S: Storage>(db: &ConcurrentDb<S>, stop: &AtomicBool, queue: &ConnQueue) {
    loop {
        let conn = {
            let mut ready = lock(&queue.ready);
            loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(conn) = ready.pop_front() {
                    break conn;
                }
                let (next, _timeout) = queue
                    .wake
                    .wait_timeout(ready, POLL_INTERVAL)
                    .unwrap_or_else(|e| e.into_inner());
                ready = next;
            }
        };
        // A failing session drops its connection; the worker survives to
        // serve the next one.
        let _ = serve_connection(db, conn, stop);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs one connection's request loop until the client hangs up or the
/// server stops.
fn serve_connection<S: Storage>(
    db: &ConcurrentDb<S>,
    conn: TcpStream,
    stop: &AtomicBool,
) -> io::Result<()> {
    // Bounded read patience so an idle keep-alive connection re-checks
    // the stop flag instead of pinning its worker forever. The frame
    // reader keeps a partly read frame across these timeouts, so a
    // client that pauses mid-frame stays in sync.
    conn.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    let mut frames = FrameReader::default();
    loop {
        let payload = match frames.read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // client closed cleanly
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let responses = match Request::decode(&payload) {
            Ok(request) => execute(db, &request),
            Err(e) => vec![Response::Error(e.to_string())],
        };
        for r in &responses {
            write_frame(&mut writer, &r.encode())?;
        }
        writer.flush()?;
    }
}

/// Executes one request, producing its full response sequence.
fn execute<S: Storage>(db: &ConcurrentDb<S>, request: &Request) -> Vec<Response> {
    match request {
        Request::Ping => vec![Response::Pong],
        Request::Sql(sql) => match db.run_sql(sql) {
            Ok(Some(relation)) => {
                let mut out = render(&relation);
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
        Request::Xra(src) => match db.run_script(src) {
            Ok(results) => {
                let mut out = Vec::new();
                let (mut committed, mut aborted) = (0u32, 0u32);
                for result in results {
                    match result {
                        RunResult::Committed(queries) => {
                            committed += 1;
                            for q in queries {
                                out.extend(render(&q));
                            }
                        }
                        RunResult::Aborted(reason) => {
                            aborted += 1;
                            out.push(Response::Notice(format!("transaction aborted: {reason}")));
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

/// Renders one result relation as a run of `RowBatch` frames, the final
/// one flagged `last`.
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
