//! The serving phase: an in-process `Server::run` with a 2-worker pool,
//! driven over TCP by an open-loop generator, then verified against the
//! library and, in the traced run, replayed through `handle_body`.
//!
//! The generator runs on one thread with at most two connections open.
//! One persistent connection carries the read mix and the update
//! batches.  One worker answers a connection's frames in order, so the
//! generator sends each request when it is due or when the previous
//! answer arrives, whichever is later, and every latency counts from the
//! due time.  In slices of their own, reads go on a fresh connection at
//! a fixed interval, each closed after its answer.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nd_server::{read_frame, write_frame, Client, Json, ReadOutcome};
use nd_server::{Server, ServerConfig, ServerCore, StatsSnapshot};
use nucleus::local::nuclei::extract_k_nuclei;
use nucleus::{DecompHandle, Decomposition, EdgeUpdate, RankSupport, ScoreMethod};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ugraph::UncertainGraph;

use crate::batch::{ap, par};
use crate::report::{median, percentile, Report};
use crate::trace::Tracer;
use crate::workload::{
    ServeSpec, Workload, FRESH_INTERVAL_MS, GRID, LATE_LIMIT_MS, MIX_BLOCK, RATE_RPS,
};

/// LRU capacity of the server: holds every point the read mix asks for.
const CACHE_CAPACITY: usize = 64;
/// Requests in flight on the persistent connection in the saturation
/// slice.
const WINDOW: usize = 8;
/// A request unanswered after this long counts as failed.
const TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Read {
    Max {
        session: usize,
        theta: usize,
    },
    KNuclei {
        session: usize,
        theta: usize,
        k: u32,
    },
    Community {
        session: usize,
        theta: usize,
        vertex: u32,
    },
}

pub struct Stream {
    pub reads: Vec<Read>,
    pub batches: Vec<Vec<EdgeUpdate>>,
}

pub fn load_stream(dir: &Path) -> Stream {
    let text = std::fs::read_to_string(dir.join("ops.txt")).expect("request stream readable");
    let mut reads = Vec::new();
    let mut batches = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> u32 { f[i].parse().expect("stream number") };
        match f[0] {
            "R" => {
                let (session, theta) = (num(2) as usize, num(3) as usize);
                reads.push(match f[1] {
                    "m" => Read::Max { session, theta },
                    "k" => Read::KNuclei {
                        session,
                        theta,
                        k: num(4),
                    },
                    _ => Read::Community {
                        session,
                        theta,
                        vertex: num(4),
                    },
                });
            }
            _ => {
                let items = line[2..].split(';').map(|item| {
                    let f: Vec<&str> = item.split_whitespace().collect();
                    let (u, v) = (
                        f[1].parse().expect("stream vertex"),
                        f[2].parse().expect("stream vertex"),
                    );
                    let p = || f[3].parse().expect("stream probability");
                    match f[0] {
                        "i" => EdgeUpdate::Insert { u, v, p: p() },
                        "w" => EdgeUpdate::Reweight { u, v, p: p() },
                        _ => EdgeUpdate::Delete { u, v },
                    }
                });
                batches.push(items.collect());
            }
        }
    }
    Stream { reads, batches }
}

/// A server running on its own thread, with one exact and one
/// approximate nucleus session open over the workload's grid.
pub struct Running {
    pub core: Arc<ServerCore>,
    pub addr: SocketAddr,
    pub sessions: [u64; 2],
    handle: Option<JoinHandle<StatsSnapshot>>,
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        cache_capacity: CACHE_CAPACITY,
        parallelism: par(),
        ..ServerConfig::default()
    }
}

fn open_params(method: &str) -> Json {
    Json::Obj(vec![
        ("rank".to_string(), Json::str("nucleus")),
        ("method".to_string(), Json::str(method)),
        (
            "thetas".to_string(),
            Json::Arr(GRID.iter().map(|&t| Json::num(t)).collect()),
        ),
    ])
}

/// `ServerCore::new`, bind, and open both sessions (which builds the
/// nucleus support).
pub fn start(g: UncertainGraph) -> Running {
    let core = ServerCore::new(g, server_config());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&core)).expect("bind a local port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect to the local server");
    let mut sessions = [0u64; 2];
    for (i, method) in ["exact", "approx"].iter().enumerate() {
        let opened = client
            .call("open", open_params(method))
            .expect("session opens");
        sessions[i] = opened
            .get("session")
            .and_then(Json::as_f64)
            .expect("open returns a session id") as u64;
    }
    Running {
        core,
        addr,
        sessions,
        handle: Some(handle),
    }
}

impl Running {
    pub fn stop(&mut self) -> StatsSnapshot {
        self.core.request_shutdown();
        self.handle
            .take()
            .expect("server still running")
            .join()
            .expect("server thread does not panic")
    }
}

fn read_body(id: u64, r: &Read, sessions: &[u64; 2]) -> String {
    match *r {
        Read::Max { session, theta } => format!(
            "{{\"id\":{id},\"method\":\"max_score_at\",\"params\":{{\"session\":{},\"theta\":{}}}}}",
            sessions[session], GRID[theta]
        ),
        Read::KNuclei { session, theta, k } => format!(
            "{{\"id\":{id},\"method\":\"k_nuclei_at\",\"params\":{{\"session\":{},\"theta\":{},\"k\":{k}}}}}",
            sessions[session], GRID[theta]
        ),
        Read::Community {
            session,
            theta,
            vertex,
        } => format!(
            "{{\"id\":{id},\"method\":\"community\",\"params\":{{\"session\":{},\"theta\":{},\"vertex\":{vertex}}}}}",
            sessions[session], GRID[theta]
        ),
    }
}

fn update_body(id: u64, batch: &[EdgeUpdate]) -> String {
    let items: Vec<String> = batch
        .iter()
        .map(|u| match *u {
            EdgeUpdate::Insert { u, v, p } => {
                format!("{{\"op\":\"insert\",\"u\":{u},\"v\":{v},\"p\":{p}}}")
            }
            EdgeUpdate::Reweight { u, v, p } => {
                format!("{{\"op\":\"reweight\",\"u\":{u},\"v\":{v},\"p\":{p}}}")
            }
            EdgeUpdate::Delete { u, v } => format!("{{\"op\":\"delete\",\"u\":{u},\"v\":{v}}}"),
        })
        .collect();
    format!(
        "{{\"id\":{id},\"method\":\"apply_updates\",\"params\":{{\"updates\":[{}]}}}}",
        items.join(",")
    )
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The stream's read at this index.
    Read(usize),
    /// The stream's update batch at this index.
    Update(usize),
    /// The read sent on each fresh connection.
    Fresh,
    /// An untimed read that fills the cache before the saturation slice.
    Warm(Read),
}

/// The slice of a round a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    Fixed,
    Burst,
    Saturated,
}

/// One request as the generator saw it.  Times are seconds since the
/// phase began.
#[derive(Debug, Clone)]
pub struct Record {
    pub kind: Kind,
    pub phase: Phase,
    pub body: String,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// How late the generator itself sent: the send time minus the later
    /// of the due time and the previous answer on the connection.
    pub late: f64,
    /// Updates answered before this request was sent, and updates sent
    /// before its answer arrived: the world versions it may observe.
    pub version: (u32, u32),
    /// The answer frame as it arrived, `None` for a broken connection.
    /// The generator keeps the bytes and parses them only after the
    /// timing, so its own parsing neither delays the next request nor
    /// shows in a latency.
    pub answer: Option<Vec<u8>>,
}

impl Record {
    /// The answer's `result`, or `None` for an error answer or a broken
    /// connection.
    pub fn result(&self) -> Option<Json> {
        let bytes = self.answer.as_deref()?;
        let response = Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return None;
        }
        response.get("result").cloned()
    }
}

fn exchange(stream: &mut TcpStream, body: &str) -> Option<Vec<u8>> {
    write_frame(stream, body.as_bytes()).ok()?;
    answer(stream)
}

/// The next answer frame on `stream`, `None` for a broken connection.
fn answer(stream: &mut TcpStream) -> Option<Vec<u8>> {
    match read_frame(stream).ok()? {
        ReadOutcome::Frame(bytes) => Some(bytes),
        _ => None,
    }
}

/// Sleeps until shortly before `at`, then spins, so the send time does
/// not carry the scheduler's wake-up delay.
fn sleep_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if at > now + SPIN {
        std::thread::sleep(at - now - SPIN);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// Shared cursors of one serving session: the next read and batch of the
/// stream, and the update counters that bound the versions a fresh read
/// may see.
struct Cursor {
    read: usize,
    batch: usize,
    next_id: u64,
    /// Set when a slice wanted an update batch past the stream's end.
    batches_missing: bool,
}

struct Versions {
    sent: AtomicU32,
    done: AtomicU32,
}

/// The schedule of one slice on the persistent connection, in the
/// phase's own clock: the slice covers `[from_s, to_s)` of it, and the
/// read and update counters carry over between the phase's slices.
struct Load {
    /// Offered reads per second; `0` sends none.
    reads_per_s: f64,
    /// Seconds between update batches, which fall mid-interval; `0`
    /// sends each batch as soon as the previous answer arrives.
    update_every_s: f64,
    phase: Phase,
    from_s: f64,
    to_s: f64,
}

/// The persistent connection over one slice.  Record times count from
/// the slice's start.
#[allow(clippy::too_many_arguments)]
fn drive_persistent(
    stream: &mut TcpStream,
    s: &Stream,
    sessions: &[u64; 2],
    load: Load,
    counts: &mut (u64, u64),
    cursor: &mut Cursor,
    versions: &Versions,
) -> Vec<Record> {
    let t0 = Instant::now();
    let at = |t: f64| t0 + Duration::from_secs_f64(t);
    let (i, j) = counts;
    let mut prev_done = 0.0f64;
    let mut out = Vec::new();
    loop {
        let read_due = if load.reads_per_s == 0.0 {
            f64::INFINITY
        } else {
            *i as f64 / load.reads_per_s
        };
        // A run longer than the stream provides for sends no further
        // batches; `Serving::finish` fails a check for it.
        let wanted = if load.update_every_s == 0.0 {
            load.from_s + prev_done
        } else {
            (*j as f64 + 0.5) * load.update_every_s
        };
        let update_due = if cursor.batch < s.batches.len() {
            wanted
        } else {
            cursor.batches_missing |= wanted < load.to_s;
            f64::INFINITY
        };
        let is_update = update_due <= read_due;
        let due_v = if is_update { update_due } else { read_due };
        if due_v >= load.to_s {
            break;
        }
        let due = due_v - load.from_s;
        sleep_until(at(due));
        let id = cursor.next_id;
        cursor.next_id += 1;
        let (kind, body) = if is_update {
            *j += 1;
            let b = cursor.batch;
            cursor.batch += 1;
            versions.sent.fetch_add(1, Ordering::SeqCst);
            (Kind::Update(b), update_body(id, &s.batches[b]))
        } else {
            *i += 1;
            let r = cursor.read % s.reads.len();
            cursor.read += 1;
            (Kind::Read(r), read_body(id, &s.reads[r], sessions))
        };
        let lo = versions.done.load(Ordering::SeqCst);
        let sent = t0.elapsed().as_secs_f64();
        let answer = exchange(stream, &body);
        let done = t0.elapsed().as_secs_f64();
        if is_update {
            versions.done.fetch_add(1, Ordering::SeqCst);
        }
        let hi = versions.sent.load(Ordering::SeqCst);
        out.push(Record {
            kind,
            phase: load.phase,
            body,
            due,
            sent,
            done,
            late: (sent - due.max(prev_done)).max(0.0),
            version: (lo, if is_update { lo } else { hi }),
            answer,
        });
        prev_done = done;
    }
    out
}

/// The persistent connection in the saturation slice: the read mix with
/// `WINDOW` requests
/// in flight, the next one sent as each answer arrives.  The worker always
/// finds a frame waiting, so the rate is the server's own, not the round
/// trip's.  The slice first reads every cached point once, untimed, so it
/// does not start with the recomputations the last update left, and then
/// sends `blocks` whole blocks of the stream (each holds the mix exactly).
/// Record times count from the end of the warm-up; `due` is the send
/// time.
fn drive_saturated(
    stream: &mut TcpStream,
    s: &Stream,
    sessions: &[u64; 2],
    blocks: usize,
    cursor: &mut Cursor,
    versions: &Versions,
) -> Vec<Record> {
    let version = versions.done.load(Ordering::SeqCst);
    let mut out = Vec::new();
    for session in 0..sessions.len() {
        for theta in 0..GRID.len() {
            let read = Read::Max { session, theta };
            let body = read_body(cursor.next_id, &read, sessions);
            cursor.next_id += 1;
            let answer = exchange(stream, &body);
            out.push(Record {
                kind: Kind::Warm(read),
                phase: Phase::Saturated,
                body,
                due: 0.0,
                sent: 0.0,
                done: 0.0,
                late: 0.0,
                version: (version, version),
                answer,
            });
        }
    }
    let block = MIX_BLOCK as usize;
    cursor.read = cursor.read.div_ceil(block) * block;
    let end = cursor.read + blocks * block;
    let t0 = Instant::now();
    let mut in_flight = VecDeque::with_capacity(WINDOW);
    let mut writable = true;
    loop {
        while writable && in_flight.len() < WINDOW && cursor.read < end {
            let r = cursor.read % s.reads.len();
            cursor.read += 1;
            let body = read_body(cursor.next_id, &s.reads[r], sessions);
            cursor.next_id += 1;
            let sent = t0.elapsed().as_secs_f64();
            writable = write_frame(stream, body.as_bytes()).is_ok();
            in_flight.push_back(Record {
                kind: Kind::Read(r),
                phase: Phase::Saturated,
                body,
                due: sent,
                sent,
                done: sent,
                late: 0.0,
                version: (version, version),
                answer: None,
            });
        }
        let Some(mut record) = in_flight.pop_front() else {
            break;
        };
        record.answer = if writable { answer(stream) } else { None };
        record.done = t0.elapsed().as_secs_f64();
        out.push(record);
    }
    out
}

/// A `max_score_at` read on a fresh connection, one in every
/// `FRESH_INTERVAL_MS` at a seeded uniform offset within it, so the
/// connects sample every phase of the server's accept loop.
fn drive_fresh(
    addr: SocketAddr,
    sessions: &[u64; 2],
    seconds: f64,
    seed: u64,
    versions: &Versions,
) -> Vec<Record> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let t0 = Instant::now();
    let every = FRESH_INTERVAL_MS as f64 / 1e3;
    let mut out = Vec::new();
    let mut prev_done = 0.0f64;
    let read = Read::Max {
        session: 0,
        theta: 0,
    };
    let mut n = 0u64;
    loop {
        let due = (n as f64 + rng.gen_range(0.0..1.0)) * every;
        if due >= seconds {
            break;
        }
        n += 1;
        sleep_until(t0 + Duration::from_secs_f64(due));
        let body = read_body(n, &read, sessions);
        let lo = versions.done.load(Ordering::SeqCst);
        let sent = t0.elapsed().as_secs_f64();
        let answer = TcpStream::connect(addr).ok().and_then(|mut stream| {
            stream.set_nodelay(true).ok()?;
            stream.set_read_timeout(Some(TIMEOUT)).ok()?;
            exchange(&mut stream, &body)
        });
        let done = t0.elapsed().as_secs_f64();
        let hi = versions.sent.load(Ordering::SeqCst);
        out.push(Record {
            kind: Kind::Fresh,
            phase: Phase::Fixed,
            body,
            due,
            sent,
            done,
            late: (sent - due.max(prev_done)).max(0.0),
            version: (lo, hi),
            answer,
        });
        prev_done = done;
    }
    out
}

fn read_latencies_ms<'r>(records: impl Iterator<Item = &'r Record>) -> Vec<f64> {
    records
        .filter(|r| matches!(r.kind, Kind::Read(_)))
        .map(|r| (r.done - r.due) * 1e3)
        .collect()
}

/// What the serving phase leaves for verification and the replay.
pub struct ServeOut {
    /// The persistent connection's requests, in the order sent.
    pub persistent: Vec<Record>,
    pub fresh: Vec<Record>,
    pub stats: StatsSnapshot,
}

/// The serving phase, run as one slice of each kind per round against
/// one server that stays up for the whole run.
pub struct Serving<'a> {
    spec: &'a ServeSpec,
    running: Running,
    stream: TcpStream,
    cursor: Cursor,
    versions: Versions,
    /// Read and update counters of the fixed-rate phase.
    fixed_counts: (u64, u64),
    fixed_clock: f64,
    /// Wall time the fixed-rate slices took (longer than `fixed_clock`
    /// when the last answers came late).
    fixed_elapsed_s: f64,
    persistent: Vec<Record>,
    fresh: Vec<Record>,
    /// Answered reads per second of every block of the saturation
    /// slices.
    block_rps: Vec<f64>,
}

impl<'a> Serving<'a> {
    pub fn start(w: &'a Workload, g: &UncertainGraph) -> Self {
        let running = start(g.clone());
        let stream = TcpStream::connect(running.addr).expect("connect to the local server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(TIMEOUT))
            .expect("set read timeout");
        Serving {
            spec: &w.serve,
            running,
            stream,
            cursor: Cursor {
                read: 0,
                batch: 0,
                next_id: 1,
                batches_missing: false,
            },
            versions: Versions {
                sent: AtomicU32::new(0),
                done: AtomicU32::new(0),
            },
            fixed_counts: (0, 0),
            fixed_clock: 0.0,
            fixed_elapsed_s: 0.0,
            persistent: Vec::new(),
            fresh: Vec::new(),
            block_rps: Vec::new(),
        }
    }

    /// One slice of each phase: the read mix pipelined at saturation,
    /// while the cached points are warm; the read mix open loop at the
    /// fixed rate with an update batch every `update_interval_ms`; reads on
    /// fresh connections alone, against an idle server; update batches
    /// alone, back to back; and a saturation slice before each of the
    /// three.  Whole saturation slices ran ~40% faster or slower than
    /// others on a shared host, so many short ones weigh any one less.
    pub fn round(&mut self, s: &Stream, seed: u64, fixed_s: f64, fresh_s: f64, burst_s: f64) {
        self.saturate(s);

        let spec = self.spec;
        let sessions = self.running.sessions;
        let load = Load {
            reads_per_s: RATE_RPS,
            update_every_s: spec.update_interval_ms as f64 / 1e3,
            phase: Phase::Fixed,
            from_s: self.fixed_clock,
            to_s: self.fixed_clock + fixed_s,
        };
        let fresh_seed = seed ^ self.fixed_clock.to_bits();
        let (stream, cursor, versions) = (&mut self.stream, &mut self.cursor, &self.versions);
        let counts = &mut self.fixed_counts;
        let fixed = drive_persistent(stream, s, &sessions, load, counts, cursor, versions);
        self.fixed_clock += fixed_s;
        self.fixed_elapsed_s += fixed.last().map_or(fixed_s, |r| r.done.max(fixed_s));
        self.persistent.extend(fixed);

        self.saturate(s);

        let addr = self.running.addr;
        let fresh = drive_fresh(addr, &sessions, fresh_s, fresh_seed, &self.versions);
        self.fresh.extend(fresh);

        self.saturate(s);

        let load = Load {
            reads_per_s: 0.0,
            update_every_s: 0.0,
            phase: Phase::Burst,
            from_s: 0.0,
            to_s: burst_s,
        };
        let (stream, cursor, versions) = (&mut self.stream, &mut self.cursor, &self.versions);
        let burst = drive_persistent(stream, s, &sessions, load, &mut (0, 0), cursor, versions);
        self.persistent.extend(burst);
    }

    /// One saturation slice of `saturate_blocks` blocks.
    fn saturate(&mut self, s: &Stream) {
        let sessions = self.running.sessions;
        let blocks = self.spec.saturate_blocks;
        let (stream, cursor) = (&mut self.stream, &mut self.cursor);
        let saturated = drive_saturated(stream, s, &sessions, blocks, cursor, &self.versions);
        // A block ends when its last answer arrives; the next one's
        // requests are already in flight by then, so the pipeline stays
        // full across the boundary.
        let mut start = 0.0;
        let timed = saturated.iter().filter(|r| matches!(r.kind, Kind::Read(_)));
        for block in timed.collect::<Vec<_>>().chunks(MIX_BLOCK as usize) {
            let end = block.last().map_or(start, |r| r.done);
            let answered = block.iter().filter(|r| r.answer.is_some()).count();
            self.block_rps.push(answered as f64 / (end - start));
            start = end;
        }
        self.persistent.extend(saturated);
    }

    pub fn finish(mut self, report: &mut Report) -> ServeOut {
        drop(self.stream);
        let stats = self.running.stop();
        let in_phase = |p: Phase| self.persistent.iter().filter(move |r| r.phase == p);
        let fresh = &self.fresh;

        let mut q = read_latencies_ms(in_phase(Phase::Fixed));
        report.info("query_p50_ms", percentile(&mut q, 0.5));
        report.metric("query_p99_ms", percentile(&mut q, 0.99));
        report.info("loadgen.query_samples", q.len() as f64);
        let mut u: Vec<f64> = in_phase(Phase::Fixed)
            .chain(in_phase(Phase::Burst))
            .filter(|r| matches!(r.kind, Kind::Update(_)))
            .map(|r| (r.done - r.due) * 1e3)
            .collect();
        report.metric("update_p50_ms", percentile(&mut u, 0.5));
        report.metric("update_p90_ms", percentile(&mut u, 0.9));
        report.info("loadgen.update_samples", u.len() as f64);
        let mut c: Vec<f64> = fresh.iter().map(|r| (r.done - r.due) * 1e3).collect();
        report.metric("connect_p50_ms", percentile(&mut c, 0.5));
        // The backlog stays bounded at every offered rate below what the
        // connection sustains with requests always waiting, so that rate
        // is the highest one served; the median block's rate leaves out
        // blocks a stall of the host hit.
        report.metric("serve_max_rps", median(&mut self.block_rps));
        let mut sat = read_latencies_ms(in_phase(Phase::Saturated));
        report.info("loadgen.saturated_p99_ms", percentile(&mut sat, 0.99));

        let mut late: Vec<f64> = in_phase(Phase::Fixed)
            .chain(in_phase(Phase::Burst))
            .chain(fresh)
            .map(|r| r.late * 1e3)
            .collect();
        let late_p99 = percentile(&mut late, 0.99);
        report.info("loadgen.late_p99_ms", late_p99);
        report.info("loadgen.offered_rps", RATE_RPS);
        report.info(
            "loadgen.achieved_rps",
            q.len() as f64 / self.fixed_elapsed_s,
        );
        report.check(
            &format!(
                "serve: generator late p99 {late_p99:.3} ms within {} ms",
                LATE_LIMIT_MS
            ),
            late_p99 <= LATE_LIMIT_MS,
        );

        report.check(
            "serve: the request stream held every update batch the run sent",
            !self.cursor.batches_missing,
        );

        report.info("server.support_builds", stats.support_builds as f64);
        report.info("server.supports_repaired", stats.supports_repaired as f64);
        report.info(
            "server.cache_invalidations",
            stats.cache_invalidations as f64,
        );
        report.info("server.request_errors", stats.request_errors as f64);
        report.info(
            "server.cache_hit_ratio",
            stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        );
        ServeOut {
            persistent: self.persistent,
            fresh: self.fresh,
            stats,
        }
    }
}

/// The library's answers, one world version at a time.  Versions are
/// built by applying the stream's batches in order through
/// `DecompHandle::apply_updates`, exactly as the server receives them.
struct Truth<'a> {
    methods: [ScoreMethod; 2],
    /// The versions still needed, by version; the newest is always kept
    /// so later ones can be built from it.
    worlds: BTreeMap<u32, (UncertainGraph, DecompHandle)>,
    batches: &'a [Vec<EdgeUpdate>],
    points: HashMap<(u32, usize, usize), Decomposition>,
    nuclei: HashMap<(u32, usize, usize, u32), Vec<Json>>,
}

impl<'a> Truth<'a> {
    fn world(&mut self, v: u32) -> &(UncertainGraph, DecompHandle) {
        loop {
            let (&last, (g, h)) = self.worlds.last_key_value().expect("a version is kept");
            if last >= v {
                break;
            }
            let batch = &self.batches[last as usize];
            let up = h
                .apply_updates(g, batch, par())
                .expect("stream batch applies");
            self.worlds.insert(last + 1, (up.graph, up.handle));
        }
        &self.worlds[&v]
    }

    /// Drops every version below `v` (except the newest) and the answers
    /// computed on them.
    fn forget_below(&mut self, v: u32) {
        let newest = *self.worlds.keys().next_back().expect("a version is kept");
        let keep = v.min(newest);
        self.worlds.retain(|&k, _| k >= keep);
        self.points.retain(|k, _| k.0 >= keep);
        self.nuclei.retain(|k, _| k.0 >= keep);
    }

    fn point(&mut self, v: u32, session: usize, theta: usize) -> &Decomposition {
        let key = (v, session, theta);
        if !self.points.contains_key(&key) {
            let method = self.methods[session];
            let t = GRID[theta];
            let (_, h) = self.world(v);
            let d = h
                .compute_at(
                    &nucleus::DecompConfig::nucleus(t)
                        .with_method(method)
                        .with_parallelism(par()),
                )
                .expect("valid point");
            self.points.insert(key, d);
        }
        &self.points[&key]
    }

    /// Summaries of the maximal k-nuclei, in the server's own shape.
    fn k_nuclei(&mut self, v: u32, session: usize, theta: usize, k: u32) -> &Vec<Json> {
        let key = (v, session, theta, k);
        if !self.nuclei.contains_key(&key) {
            let scores = self.point(v, session, theta).scores().to_vec();
            let (g, h) = self.world(v);
            let support = match h.support().as_ref() {
                RankSupport::Nucleus(s) => s,
                _ => unreachable!("sessions are nucleus rank"),
            };
            let list = extract_k_nuclei(g, support, &scores, k)
                .iter()
                .map(|n| {
                    let mut vertices = n.subgraph.original_vertices().to_vec();
                    vertices.sort_unstable();
                    Json::Obj(vec![
                        ("k".to_string(), Json::num(n.k as f64)),
                        (
                            "num_vertices".to_string(),
                            Json::num(n.num_vertices() as f64),
                        ),
                        ("num_edges".to_string(), Json::num(n.num_edges() as f64)),
                        (
                            "vertices".to_string(),
                            Json::Arr(vertices.into_iter().map(|x| Json::num(x as f64)).collect()),
                        ),
                    ])
                })
                .collect();
            self.nuclei.insert(key, list);
        }
        &self.nuclei[&key]
    }

    fn matches(&mut self, read: &Read, v: u32, result: &Json) -> bool {
        match *read {
            Read::Max { session, theta } => {
                let expected = self.point(v, session, theta).max_score() as f64;
                result.get("max_score").and_then(Json::as_f64) == Some(expected)
            }
            Read::KNuclei { session, theta, k } => {
                let expected = self.k_nuclei(v, session, theta, k);
                result.get("count").and_then(Json::as_f64) == Some(expected.len() as f64)
                    && result.get("nuclei").and_then(Json::as_array) == Some(&expected[..])
            }
            Read::Community {
                session,
                theta,
                vertex,
            } => {
                let max = self.point(v, session, theta).max_score();
                let mut home = None;
                for k in (1..=max).rev() {
                    let list = self.k_nuclei(v, session, theta, k);
                    if let Some(n) = list.iter().find(|n| {
                        n.get("vertices")
                            .and_then(Json::as_array)
                            .is_some_and(|vs| vs.contains(&Json::num(vertex as f64)))
                    }) {
                        home = Some(n.clone());
                        break;
                    }
                }
                match home {
                    Some(n) => {
                        result.get("found").and_then(Json::as_bool) == Some(true)
                            && result.get("community") == Some(&n)
                    }
                    None => result.get("found").and_then(Json::as_bool) == Some(false),
                }
            }
        }
    }
}

/// Every wire answer must equal the library call on the world version it
/// was served from (any version in the request's window for reads that
/// raced an update on the other connection).  Each mismatched or
/// failed request counts as a failed operation.
pub fn verify(
    g: &UncertainGraph,
    nucleus_support: &Arc<RankSupport>,
    s: &Stream,
    out: &ServeOut,
    report: &mut Report,
) {
    let mut truth = Truth {
        methods: [ScoreMethod::DynamicProgramming, ap()],
        worlds: BTreeMap::from([(
            0,
            (
                g.clone(),
                DecompHandle::from_support(Arc::clone(nucleus_support)),
            ),
        )]),
        batches: &s.batches,
        points: HashMap::new(),
        nuclei: HashMap::new(),
    };
    let fresh_read = Read::Max {
        session: 0,
        theta: 0,
    };
    // In version order, so each world version is built once and dropped
    // once no later request can have seen it.
    let mut records: Vec<&Record> = out.persistent.iter().chain(&out.fresh).collect();
    records.sort_by_key(|r| r.version.0);
    // Answers already found equal to the library call, by read and world
    // version, without their request id: the same read on the same
    // version must answer byte for byte the same, so a repeat is checked
    // by comparison instead of parsing it again.
    let mut verified: HashMap<(Read, u32), &[u8]> = HashMap::new();
    let mut bad = 0u64;
    for r in records {
        truth.forget_below(r.version.0);
        let seen = match r.kind {
            Kind::Read(i) => Some((s.reads[i], r.version.0)),
            _ => None,
        };
        let tail = r.answer.as_deref().map(without_id);
        if let (Some(key), Some(tail)) = (seen, tail) {
            if verified.get(&key) == Some(&tail) {
                continue;
            }
        }
        let ok = match (r.result(), r.kind) {
            (None, _) => false,
            (Some(res), Kind::Update(b)) => {
                let edges = truth.world(b as u32 + 1).0.num_edges() as f64;
                res.get("applied").and_then(Json::as_bool) == Some(true)
                    && res.get("edges").and_then(Json::as_f64) == Some(edges)
            }
            (Some(res), Kind::Read(i)) => truth.matches(&s.reads[i], r.version.0, &res),
            (Some(res), Kind::Fresh) => {
                (r.version.0..=r.version.1).any(|v| truth.matches(&fresh_read, v, &res))
            }
            (Some(res), Kind::Warm(read)) => truth.matches(&read, r.version.0, &res),
        };
        match (ok, seen, tail) {
            (true, Some(key), Some(tail)) => {
                verified.insert(key, tail);
            }
            (true, _, _) => {}
            (false, _, _) => bad += 1,
        }
    }
    let total = (out.persistent.len() + out.fresh.len()) as u64;
    report.attempt(total, bad);
    report.check("serve: every answer equals the library call", bad == 0);
    report.check(
        "serve: no request errors",
        out.stats.request_errors == 0 && out.stats.protocol_errors == 0,
    );
}

/// An answer frame from its first field separator on: everything but the
/// request id, which leads every answer (`{"id":N,...`).
fn without_id(frame: &[u8]) -> &[u8] {
    let cut = frame.iter().position(|&b| b == b',').unwrap_or(frame.len());
    &frame[cut..]
}

/// Replays the persistent connection's requests, in the order sent,
/// through an in-process `ServerCore::handle_body`, timing each call;
/// reports per-method service times and the transport share of a cached
/// read in the fixed-rate slices.
pub fn replay(g: &UncertainGraph, out: &ServeOut, tracer: &Tracer, report: &mut Report) {
    let core = ServerCore::new(g.clone(), server_config());
    for method in ["exact", "approx"] {
        let body = Json::Obj(vec![
            ("id".to_string(), Json::num(1.0)),
            ("method".to_string(), Json::str("open")),
            ("params".to_string(), open_params(method)),
        ]);
        core.handle_body(body.to_json_string().as_bytes());
    }
    let mut service: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut hit_rtt = Vec::new();
    for r in &out.persistent {
        let method = if r.body.contains("\"max_score_at\"") {
            "max_score_at"
        } else if r.body.contains("\"k_nuclei_at\"") {
            "k_nuclei_at"
        } else if r.body.contains("\"community\"") {
            "community"
        } else {
            "apply_updates"
        };
        let hits = core.stats().cache_hits;
        let t0 = Instant::now();
        tracer.op("op.serve", || {
            tracer.span(span_name(method), || core.handle_body(r.body.as_bytes()))
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let name = match method {
            "max_score_at" if core.stats().cache_hits > hits => {
                if r.phase == Phase::Fixed {
                    hit_rtt.push((r.done - r.sent) * 1e3);
                }
                "max_score_at_hit"
            }
            "max_score_at" => "max_score_at_miss",
            other => other,
        };
        service.entry(name).or_default().push(ms);
    }
    for name in [
        "max_score_at_hit",
        "max_score_at_miss",
        "k_nuclei_at",
        "community",
        "apply_updates",
    ] {
        let mut v = service.remove(name).unwrap_or_default();
        report.info(&format!("server.service_ms.{name}"), median(&mut v));
    }
    // Derived: wire round trip of a cached read minus its service time.
    let hit_ms = report.info_value("server.service_ms.max_score_at_hit");
    report.info("server.transport_ms", median(&mut hit_rtt) - hit_ms);
}

fn span_name(method: &str) -> &'static str {
    match method {
        "max_score_at" => "server.max_score_at",
        "k_nuclei_at" => "server.k_nuclei_at",
        "community" => "server.community",
        _ => "server.apply_updates",
    }
}
