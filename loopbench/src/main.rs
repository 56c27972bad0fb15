//! `loopbench`: the end-to-end benchmark of `mera-server` on loopback.
//!
//! ```text
//! loopbench --workload <oltp_point|olap_agg|write_view> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every measurement runs in a fresh child process of this binary, so
//! peak memory belongs to one workload alone. A child opens a
//! `ConcurrentDb` over `DirStorage` (group commit, acks after fsync),
//! serves it on a loopback port with one session worker, and drives it
//! from one client session in a closed loop: the next request is sent
//! when the previous reply has been read. Set-up (server start, bulk load
//! over the wire, warm-up) is repeated in several children and reported
//! as a median. After the timed loop the child checks the final state
//! over the wire against the workload's model.
//!
//! With `--trace 1` the same seed runs twice: once against the real
//! server, once against the traced session loop of [`traced`], which
//! splits each request across the layers. The replies of the two runs
//! must be byte-identical, and the throughput difference between them is
//! the tracing overhead.
//!
//! Human-readable lines come first (`workload/metric value unit ...`);
//! the last line of standard output is one JSON object with the metrics
//! `BENCHMARK.json` names for the mode.

mod client;
mod stats;
mod sys;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use mera_core::prelude::DatabaseSchema;
use mera_store::{ConcurrentDb, DirStorage, FsyncPolicy, StoreOptions, WAL_FILE};

use client::Client;
use stats::Summary;
use traced::{TimedStorage, TracedServer};
use workload::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Group commit with acknowledgement after fsync; with one session each
/// commit leads its own flush.
const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(8);

/// Set-ups per untraced run; their median is `setup_s`.
const SETUP_RUNS: usize = 5;

/// Width of the windows whose op rates give `throughput_rps`.
const WINDOW_S: f64 = 0.5;

/// End-to-end metrics in the JSON line of an untraced run. Throughput,
/// latencies and CPU time are printed with their quartiles but kept out
/// of it: on a shared 2-vCPU VM the host's speed drifts by up to 2x over
/// tens of seconds (a single-thread CPU loop took 0.22 to 0.49 s per
/// iteration within 40 s), and 10 s runs of the same code spread by about
/// 11%, at times 23%, in throughput and latency, more than any bound a
/// gate may use. Allocations and peak memory are exact for one session.
/// Write latencies and WAL bytes per write do not exist on a read-only
/// workload, and the error rate of a correct run is zero, so they are
/// printed only too.
const END_TO_END: [&str; 3] = ["setup_s", "allocs_per_op", "peak_rss_mb"];

/// Per-layer metrics in the JSON line of a traced run: the ones no
/// workload leaves at zero by construction. The WAL and XRA layers and
/// the abort counts are printed only.
const PER_LAYER: [&str; 19] = [
    "server.decode_us",
    "server.render_us",
    "server.encode_us",
    "server.bytes_out_per_op",
    "sql.parse_us",
    "sql.translate_us",
    "txn.prepare_us",
    "txn.prepare_allocs",
    "txn.snapshot_copy_us",
    "txn.snapshot_copy_allocs",
    "analyze.us",
    "optimizer.us",
    "eval.us",
    "eval.rows_touched_per_op",
    "eval.rows_out_per_op",
    "txn.commit_us",
    "trace.request_us",
    "trace.unattributed_us",
    "trace.overhead_pct",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Set up, report the set-up time, stop.
    Setup,
    /// Set up and run the timed loop against `mera_server::serve`.
    Measure,
    /// Set up and run the timed loop against the traced session loop.
    Traced,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Setup => "setup",
            Role::Measure => "measure",
            Role::Traced => "traced",
        }
    }

    fn parse(s: &str) -> Option<Role> {
        [Role::Setup, Role::Measure, Role::Traced]
            .into_iter()
            .find(|r| r.name() == s)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<Role>,
}

fn parse_args() -> Result<Args, String> {
    let mut named: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        named.insert(key.to_owned(), value);
    }
    let get = |k: &str| named.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match named.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        child: match named.get("child") {
            None => None,
            Some(r) => Some(Role::parse(r).ok_or_else(|| format!("unknown role `{r}`"))?),
        },
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.child {
        Some(role) => child(role, &args),
        None => parent(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

// -------------------------------------------------------------- child

/// One measured figure with its unit and a human-readable detail
/// (quartiles, sample count).
struct Metric {
    name: String,
    value: f64,
    unit: String,
    detail: String,
}

/// What a child reports to the parent: metrics, human-readable lines and
/// named values (correctness, counts, reply digests).
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    lines: Vec<String>,
    values: BTreeMap<String, String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &str, detail: String) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            detail,
        });
    }

    fn value(&mut self, key: &str, value: impl ToString) {
        self.values.insert(key.to_owned(), value.to_string());
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn flag(&self, key: &str) -> bool {
        self.values.get(key).is_some_and(|v| v == "true")
    }

    fn count(&self, key: &str) -> u64 {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// Tab-separated lines on standard output, read back by [`Report::parse`].
    fn print(&self) {
        for m in &self.metrics {
            println!("metric\t{}\t{}\t{}\t{}", m.name, m.value, m.unit, m.detail);
        }
        for line in &self.lines {
            println!("line\t{line}");
        }
        for (k, v) in &self.values {
            println!("value\t{k}\t{v}");
        }
    }

    fn parse(stdout: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in stdout.lines() {
            match line.split('\t').collect::<Vec<_>>().as_slice() {
                ["metric", name, value, unit, detail] => r.metric(
                    name,
                    value.parse().map_err(|e| format!("metric {name}: {e}"))?,
                    unit,
                    (*detail).to_owned(),
                ),
                ["line", text] => r.lines.push((*text).to_owned()),
                ["value", k, v] => r.value(k, v),
                _ => return Err(format!("unreadable child output line `{line}`")),
            }
        }
        Ok(r)
    }
}

fn child(role: Role, args: &Args) -> Result<bool, String> {
    let dir = bench_dir().join("run").join(format!(
        "{}-{}-{}-{}",
        args.workload.name(),
        args.seed,
        role.name(),
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let result = run_role(role, args, &dir);
    let _ = fs::remove_dir_all(&dir);
    result?.print();
    Ok(true)
}

fn run_role(role: Role, args: &Args, dir: &Path) -> Result<Report, String> {
    let started = Instant::now();
    let storage = DirStorage::open(dir).map_err(|e| e.to_string())?;
    let options = StoreOptions {
        fsync: FSYNC,
        ..StoreOptions::default()
    };
    let mut report = Report::default();
    report.value("wal_fs", sys::filesystem_of(dir));
    if role == Role::Traced {
        let db = ConcurrentDb::open(TimedStorage(storage), DatabaseSchema::new(), options)
            .map_err(|e| e.to_string())?;
        let server = TracedServer::start(Arc::new(db)).map_err(|e| e.to_string())?;
        let drive = drive(server.local_addr(), role, args, dir, started)?;
        let trace = server
            .finish()
            .map_err(|e| format!("traced session: {e}"))?;
        let first = drive.loop_first_req;
        traced::layer_report(&trace, first, first + drive.loop_requests, &mut report);
        // one file per workload, replaced by its next traced run
        let spans = bench_dir()
            .join("run")
            .join(format!("spans-{}.tsv", args.workload.name()));
        traced::write_spans(&trace, args.seed, &spans)
            .map_err(|e| format!("writing spans: {e}"))?;
        drive.values(&mut report);
    } else {
        let db = ConcurrentDb::open(storage, DatabaseSchema::new(), options)
            .map_err(|e| e.to_string())?;
        let server = mera_server::serve(
            Arc::new(db),
            "127.0.0.1:0",
            mera_server::ServerOptions { workers: 1 },
        )
        .map_err(|e| e.to_string())?;
        let drive = drive(server.local_addr(), role, args, dir, started);
        server.shutdown();
        let drive = drive?;
        if role == Role::Measure {
            drive.values(&mut report);
        }
        drive.metrics(role, &mut report);
    }
    Ok(report)
}

/// Per op class: attempted ops and the ways they failed.
#[derive(Default)]
struct ClassCount {
    attempted: u64,
    transport: u64,
    error: u64,
    abort: u64,
}

impl ClassCount {
    fn failed(&self) -> u64 {
        self.transport + self.error + self.abort
    }
}

/// One session's run: set-up, the timed loop and the final check.
struct Drive {
    tables: String,
    setup_s: f64,
    /// Per successful timed op: completion offset (s), latency (ms), class.
    samples: Vec<(f64, f64, usize)>,
    elapsed_s: f64,
    /// Per class: name, whether it writes, and its counts.
    classes: Vec<(&'static str, bool, ClassCount)>,
    /// Request number of the first timed op, and timed requests sent.
    loop_first_req: u64,
    loop_requests: u64,
    /// Digest of every reply, load and warm-up included.
    digests: Vec<u64>,
    allocs: u64,
    cpu_s: f64,
    wal_bytes: u64,
    write_commits: u64,
    /// The first correctness failure, if any.
    mismatch: Option<String>,
}

fn wal_len(dir: &Path) -> u64 {
    fs::metadata(dir.join(WAL_FILE)).map_or(0, |m| m.len())
}

/// Connects one client session, loads the workload, warms up and, unless
/// only setting up, runs the timed closed loop and the final check.
fn drive(
    addr: SocketAddr,
    role: Role,
    args: &Args,
    dir: &Path,
    started: Instant,
) -> Result<Drive, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut mix = args.workload.mix(args.seed);
    let mut digests = Vec::with_capacity(1 << 17);
    for request in mix.load() {
        let reply = client.call(&request).map_err(|e| format!("load: {e}"))?;
        if !reply.ok() {
            return Err(format!(
                "load failed: {:?} {:?}",
                reply.error, reply.notices
            ));
        }
        digests.push(reply.digest);
    }
    for _ in 0..args.workload.warmup_ops() {
        let op = mix.next_op();
        let reply = client
            .call(&op.request)
            .map_err(|e| format!("warm-up: {e}"))?;
        if !reply.ok() {
            return Err(format!(
                "warm-up failed: {:?} {:?}",
                reply.error, reply.notices
            ));
        }
        mix.observe(&op, &reply)
            .map_err(|e| format!("warm-up: {e}"))?;
        digests.push(reply.digest);
    }
    let mut drive = Drive {
        tables: mix.tables(),
        setup_s: started.elapsed().as_secs_f64(),
        samples: Vec::with_capacity(1 << 17),
        elapsed_s: 0.0,
        classes: mix
            .classes()
            .iter()
            .map(|&(name, write)| (name, write, ClassCount::default()))
            .collect(),
        loop_first_req: digests.len() as u64,
        loop_requests: 0,
        digests,
        allocs: 0,
        cpu_s: 0.0,
        wal_bytes: 0,
        write_commits: 0,
        mismatch: None,
    };
    if role == Role::Setup {
        return Ok(drive);
    }

    let (wal0, allocs0, cpu0) = (wal_len(dir), sys::allocations(), sys::cpu_seconds());
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        let op = mix.next_op();
        let (_, write, count) = &mut drive.classes[op.class];
        count.attempted += 1;
        drive.loop_requests += 1;
        let sent = Instant::now();
        let reply = match client.call(&op.request) {
            Ok(r) => r,
            Err(e) => {
                count.transport += 1;
                drive.mismatch = Some(format!("transport error: {e}"));
                break;
            }
        };
        let done = Instant::now();
        drive.digests.push(reply.digest);
        // a failed op is no latency sample; it counts in `error_rate`
        if reply.error.is_some() {
            count.error += 1;
            continue;
        }
        if reply.aborted > 0 {
            count.abort += 1;
            continue;
        }
        drive.samples.push((
            (done - t0).as_secs_f64(),
            (done - sent).as_secs_f64() * 1e3,
            op.class,
        ));
        if *write {
            drive.write_commits += u64::from(reply.committed);
        }
        if let Err(e) = mix.observe(&op, &reply) {
            drive.mismatch = Some(e);
            break;
        }
    }
    drive.elapsed_s = t0.elapsed().as_secs_f64();
    drive.allocs = sys::allocations() - allocs0;
    drive.cpu_s = sys::cpu_seconds() - cpu0;
    drive.wal_bytes = wal_len(dir) - wal0;
    if drive.mismatch.is_none() {
        drive.mismatch = mix.verify(&mut client).err();
    }
    Ok(drive)
}

fn fmt_summary(s: &Summary) -> String {
    format!(
        "median={:.4} q1={:.4} q3={:.4} n={}",
        s.median, s.q1, s.q3, s.n
    )
}

impl Drive {
    fn attempted(&self) -> u64 {
        self.classes.iter().map(|c| c.2.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.classes.iter().map(|c| c.2.failed()).sum()
    }

    /// Latencies of the successful timed ops matching `keep`.
    fn latencies(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s.2))
            .map(|s| s.1)
            .collect()
    }

    /// Correctness, op counts and reply digests.
    fn values(&self, r: &mut Report) {
        r.value("tables", &self.tables);
        r.value("correct", self.mismatch.is_none());
        if let Some(m) = &self.mismatch {
            r.value("mismatch", m.replace(['\t', '\n'], " "));
        }
        r.value("attempted", self.attempted());
        r.value("failed", self.failed());
        let digests: Vec<String> = self.digests.iter().map(|d| format!("{d:x}")).collect();
        r.value("digests", digests.join(","));
        r.value("overall_rps", self.loop_requests as f64 / self.elapsed_s);
    }

    /// The end-to-end metrics of an untraced run.
    fn metrics(&self, role: Role, r: &mut Report) {
        r.metric(
            "setup_s",
            self.setup_s,
            "s",
            "server start, bulk load over the wire, warm-up".into(),
        );
        if role == Role::Setup {
            return;
        }
        let ops = self.loop_requests.max(1) as f64;
        for (class, (name, _, c)) in self.classes.iter().enumerate() {
            let lat = Summary::of(&self.latencies(|k| k == class));
            r.lines.push(format!(
                "ops.{name} attempted={} failed={} transport={} error={} abort={} latency_ms: {}",
                c.attempted,
                c.failed(),
                c.transport,
                c.error,
                c.abort,
                lat.map_or("-".into(), |s| fmt_summary(&s)),
            ));
        }

        let mut per_window = vec![0.0; (self.elapsed_s / WINDOW_S).floor() as usize];
        for (end, _, _) in &self.samples {
            if let Some(w) = per_window.get_mut((end / WINDOW_S) as usize) {
                *w += 1.0 / WINDOW_S;
            }
        }
        let windows = Summary::of(&per_window).map_or("-".into(), |s| fmt_summary(&s));
        r.metric(
            "throughput_rps",
            self.loop_requests as f64 / self.elapsed_s,
            "1/s",
            format!("ops over the loop; per {WINDOW_S} s window {windows}"),
        );
        for (kind, write) in [("read", false), ("write", true)] {
            let lat = self.latencies(|k| self.classes[k].1 == write);
            let Some(s) = Summary::of(&lat) else { continue };
            r.metric(&format!("{kind}_p50_ms"), s.median, "ms", fmt_summary(&s));
            if let Some((p, v)) = s.tail {
                let beyond = (s.n as f64 * f64::from(100 - p) / 100.0).floor();
                r.metric(
                    &format!("{kind}_p99_ms"),
                    v,
                    "ms",
                    format!("p{p} n={} beyond={beyond}", s.n),
                );
            }
        }
        r.metric(
            "cpu_ms_per_op",
            self.cpu_s * 1e3 / ops,
            "ms",
            format!(
                "process user+sys {:.3} s over the loop; n={}",
                self.cpu_s, self.loop_requests
            ),
        );
        r.metric(
            "allocs_per_op",
            self.allocs as f64 / ops,
            "count",
            format!(
                "process-wide {} allocations over the loop; n={}",
                self.allocs, self.loop_requests
            ),
        );
        if self.write_commits > 0 {
            r.metric(
                "wal_bytes_per_write",
                self.wal_bytes as f64 / self.write_commits as f64,
                "B",
                format!(
                    "{} WAL bytes over the loop; n={} committed writes",
                    self.wal_bytes, self.write_commits
                ),
            );
        }
        r.metric(
            "error_rate",
            self.failed() as f64 / self.attempted().max(1) as f64,
            "ratio",
            format!("{} failed; n={} attempted", self.failed(), self.attempted()),
        );
        r.metric(
            "peak_rss_mb",
            sys::peak_rss_mb(),
            "MiB",
            "VmHWM of the measuring process; n=1".into(),
        );
    }
}

// ------------------------------------------------------------- parent

/// Runs this binary as a child in `role` and reads its report.
fn run_child(role: Role, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--child", role.name(), "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", role.name()))?;
    if !out.status.success() {
        return Err(format!("the {} child failed: {}", role.name(), out.status));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Runs the children for the mode, prints every metric and the JSON line;
/// `Ok(false)` when a correctness check failed.
fn parent(args: &Args) -> Result<bool, String> {
    let w = args.workload.name();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (report, correct) = if args.trace {
        traced_parent(args)?
    } else {
        untraced_parent(args)?
    };
    let root = bench_dir()
        .parent()
        .expect("the benchmark sits in the repository");
    println!(
        "# loopbench workload={w} seed={} seconds={} trace={} rev={} nproc={nproc} \
         clients=1 server_workers=1 loop=closed",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::source_revision(root),
    );
    let value = |k: &str| report.values.get(k).map_or("?", String::as_str);
    println!(
        "# tables {} wal_fs={} fsync={FSYNC:?}",
        value("tables"),
        value("wal_fs")
    );
    for line in &report.lines {
        println!("{w}/{line}");
    }
    for m in &report.metrics {
        println!(
            "{w}/{:<26} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, m.detail
        );
    }
    if !correct {
        eprintln!("loopbench: correctness check failed: {}", value("mismatch"));
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for name in names {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.count("attempted"),
        report.count("failed"),
        json.join(", ")
    );
    Ok(correct)
}

/// Set-up children, then one measuring child; `setup_s` is the median of
/// every child's set-up.
fn untraced_parent(args: &Args) -> Result<(Report, bool), String> {
    let mut setups = Vec::new();
    for _ in 1..SETUP_RUNS {
        let r = run_child(Role::Setup, args)?;
        setups.push(r.get("setup_s").ok_or("setup child reported no setup_s")?);
    }
    let mut report = run_child(Role::Measure, args)?;
    setups.push(
        report
            .get("setup_s")
            .ok_or("measure child reported no setup_s")?,
    );
    let s = Summary::of(&setups).expect("at least one set-up");
    let setup = report
        .metrics
        .iter_mut()
        .find(|m| m.name == "setup_s")
        .expect("just read");
    setup.value = s.median;
    setup.detail = format!("{} (fresh process each)", fmt_summary(&s));
    let correct = report.flag("correct");
    Ok((report, correct))
}

/// The real server and the traced loop on the same seed; their replies
/// must agree on every request both sent.
fn traced_parent(args: &Args) -> Result<(Report, bool), String> {
    let plain = run_child(Role::Measure, args)?;
    let mut traced = run_child(Role::Traced, args)?;
    let digests = |r: &Report| -> Vec<String> {
        r.values
            .get("digests")
            .map_or(Vec::new(), |d| d.split(',').map(str::to_owned).collect())
    };
    let (a, b) = (digests(&plain), digests(&traced));
    let compared = a.len().min(b.len());
    let differ = (0..compared).find(|&i| a[i] != b[i]);
    if let Some(i) = differ {
        traced.value(
            "mismatch",
            format!("request {i}: the traced loop's reply differs from the server's"),
        );
    }
    let correct = plain.flag("correct") && traced.flag("correct") && differ.is_none();
    traced.lines.push(format!(
        "trace.replies identical={} compared={compared}",
        differ.is_none()
    ));
    let rps = |r: &Report| {
        r.values
            .get("overall_rps")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    let (untraced_rps, traced_rps) = (rps(&plain), rps(&traced));
    traced.metric(
        "trace.overhead_pct",
        (untraced_rps - traced_rps) / untraced_rps * 100.0,
        "%",
        format!(
            "untraced {untraced_rps:.2} ops/s, traced {traced_rps:.2} ops/s \
             (side calls included)"
        ),
    );
    let attempted = plain.count("attempted") + traced.count("attempted");
    let failed = plain.count("failed") + traced.count("failed");
    traced.value("attempted", attempted);
    traced.value("failed", failed);
    Ok((traced, correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSON line must carry exactly the metrics `BENCHMARK.json` lists.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = fs::read_to_string(bench_dir().join("../BENCHMARK.json")).expect("readable");
        let listed = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..json[start..].find(']').expect("list closes") + start];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("quoted")].to_owned())
                .collect()
        };
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
    }
}
