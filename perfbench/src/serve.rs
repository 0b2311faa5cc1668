//! The debugger-service phase: an in-process `edb_serve::Server` driven
//! from this process by closed-loop `Client` connections, each looping
//! seeded session scripts modelled on the `ci/serve-transcript.txt`
//! walkthrough, each followed by a small fleet session.
//!
//! A request is timed from its send to its final reply line. Every
//! reply must be a result, except the scripted error probe, which must
//! return its typed error. Exported tapes are checked after the timed
//! window: the same script must export the same bytes every time, every
//! session tape must pass `edb_core::replay::verify` and every fleet
//! tape `verify_fleet`.

use crate::gauge::Span;
use crate::trace::Tracer;
use edb_core::replay::{verify, verify_fleet, Recording};
use edb_core::{DebugRequest, DebugSession, SessionSpec};
use edb_energy::SimTime;
use edb_serve::hub::ConnState;
use edb_serve::{Client, SessionHub};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Request classes the latency metrics are reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `create`: firmware assembly, bench build, boot to the assert.
    Create,
    /// status, get_pc, read, write, set_breakpoint, arm_energy_guard,
    /// disasm, symbol.
    Inspect,
    /// resume, run_until.
    Run,
    /// step_back, goto_time, reverse_continue.
    Travel,
    /// record_export.
    Export,
    /// fleet_run.
    FleetRun,
    /// destroy, the error probe and the other fleet methods.
    Other,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 7] = [
        Class::Create,
        Class::Inspect,
        Class::Run,
        Class::Travel,
        Class::Export,
        Class::FleetRun,
        Class::Other,
    ];

    /// Metric-name form.
    pub fn name(self) -> &'static str {
        match self {
            Class::Create => "create",
            Class::Inspect => "inspect",
            Class::Run => "run",
            Class::Travel => "travel",
            Class::Export => "export",
            Class::FleetRun => "fleet_run",
            Class::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What a reply must be.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// Any result.
    Result,
    /// A result whose field equals this integer.
    Field(&'static str, u64),
    /// A result whose field is `true`.
    True(&'static str),
    /// The typed error with this code.
    Error(i64),
}

/// One scripted request. `{fleet}` in `params` is replaced with the id
/// the preceding `fleet_create` returned.
#[derive(Debug, Clone)]
struct Step {
    class: Class,
    method: &'static str,
    params: String,
    expect: Expect,
}

/// Address of the `assert` preset's FRAM counter, which the script
/// patches and reads back (as the golden walkthrough does).
const PATCH_ADDR: u16 = 0x6000;
/// Entry point of every firmware preset.
const MAIN: u16 = 0x4400;
/// How long `create` may run the target until its boot-time assert
/// opens a session.
const WAIT_SESSION_MS: u64 = 2000;

/// SplitMix64 stream for script parameters.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        (edb_device::fleet::splitmix64(&mut self.0) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        Rng::at(self.unit(), lo, hi)
    }

    /// The value at `u` (in [0, 1)) of the whole numbers `lo..=hi`.
    fn at(u: f64, lo: u64, hi: u64) -> u64 {
        lo + (u * (hi - lo + 1) as f64) as u64
    }

    /// A point in [0, 1) drawn from stratum `stratum` of `count` equal
    /// strata.
    fn within(&mut self, stratum: usize, count: usize) -> f64 {
        (stratum as f64 + self.unit()) / count as f64
    }
}

/// The stratum script `index` of `count` draws parameter `param` from:
/// a seeded permutation of the strata per parameter (a Latin
/// hypercube), so every seed's script set covers each parameter's range
/// evenly and the per-class medians over scripts do not follow the
/// seed's luck.
fn stratum(seed: u64, param: u64, index: usize, count: usize) -> usize {
    let mut rng = Rng(edb_bench::runner::seed_for(
        seed,
        "perfbench/serve/strata",
        param,
    ));
    let mut perm: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        perm.swap(i, rng.pick(0, i as u64) as usize);
    }
    perm[index % count]
}

/// One seeded session script. Every parameter is drawn from the
/// benchmark seed; the ranges stay near the golden walkthrough so every
/// request succeeds.
#[derive(Debug, Clone)]
pub struct Script {
    /// Index within the run's script set.
    pub index: usize,
    seed: u64,
    voc: f64,
    r_src: f64,
    peek_addr: u16,
    patch: u16,
    bp_id: u8,
    bp_energy: f64,
    guard: f64,
    disasm: u64,
    run_ms: u64,
    back_n: u64,
    goto_ms: u64,
    fleet_tags: u64,
    fleet_seed: u64,
    fleet_ms: u64,
}

impl Script {
    /// The `index`-th script of the set of `count` derived from `seed`.
    /// The parameters that set a request's cost are stratified over the
    /// set (see [`stratum`]); identifiers and seeds are drawn freely.
    pub fn generate(seed: u64, index: usize, count: usize) -> Script {
        let mut rng = Rng(edb_bench::runner::seed_for(
            seed,
            "perfbench/serve",
            index as u64,
        ));
        let mut u = [0.0; 8];
        for (param, u) in u.iter_mut().enumerate() {
            *u = rng.within(stratum(seed, param as u64, index, count), count);
        }
        Script {
            index,
            seed: rng.pick(1, 1_000_000),
            voc: 3.1 + 0.2 * u[0],
            r_src: 200.0 + 40.0 * u[1],
            peek_addr: 0x6000 + 2 * rng.pick(0, 127) as u16,
            patch: rng.pick(1, 0xFFFF) as u16,
            bp_id: rng.pick(1, 8) as u8,
            bp_energy: 1.9 + 0.2 * rng.unit(),
            guard: 1.85 + 0.1 * rng.unit(),
            disasm: Rng::at(u[2], 4, 16),
            run_ms: Rng::at(u[3], 40, 60),
            back_n: Rng::at(u[4], 200, 2000),
            goto_ms: Rng::at(u[5], 20, 35),
            fleet_tags: Rng::at(u[6], 150, 250),
            fleet_seed: rng.pick(1, 1_000_000),
            fleet_ms: Rng::at(u[7], 40, 80),
        }
    }

    fn steps(&self, session_tape: &Path, fleet_tape: &Path) -> Vec<Step> {
        let s = |class, method, params: String, expect| Step {
            class,
            method,
            params,
            expect,
        };
        use Class::*;
        vec![
            s(
                Create,
                "create",
                format!(
                    r#"{{"firmware":"assert","seed":{},"harvester":{{"voc":{},"r":{}}},"wait_session_ms":{WAIT_SESSION_MS}}}"#,
                    self.seed, self.voc, self.r_src
                ),
                Expect::True("session_active"),
            ),
            s(Inspect, "status", "{}".into(), Expect::Result),
            s(Inspect, "get_pc", "{}".into(), Expect::Result),
            s(
                Inspect,
                "read",
                format!(r#"{{"addr":{}}}"#, self.peek_addr),
                Expect::Result,
            ),
            s(
                Inspect,
                "write",
                format!(r#"{{"addr":{PATCH_ADDR},"value":{}}}"#, self.patch),
                Expect::True("ack"),
            ),
            s(
                Inspect,
                "read",
                format!(r#"{{"addr":{PATCH_ADDR}}}"#),
                Expect::Field("value", u64::from(self.patch)),
            ),
            s(
                Inspect,
                "set_breakpoint",
                format!(r#"{{"id":{},"energy":{}}}"#, self.bp_id, self.bp_energy),
                Expect::Result,
            ),
            s(
                Inspect,
                "arm_energy_guard",
                format!(r#"{{"threshold":{}}}"#, self.guard),
                Expect::Result,
            ),
            s(
                Inspect,
                "symbol",
                r#"{"name":"main"}"#.into(),
                Expect::Field("addr", u64::from(MAIN)),
            ),
            s(
                Inspect,
                "disasm",
                format!(r#"{{"addr":{MAIN},"count":{}}}"#, self.disasm),
                Expect::Result,
            ),
            // The scripted error probe: an address outside 16 bits.
            s(
                Other,
                "read",
                r#"{"addr":99999}"#.into(),
                Expect::Error(edb_serve::rpc::INVALID_PARAMS),
            ),
            s(Run, "resume", "{}".into(), Expect::Result),
            s(
                Run,
                "run_until",
                format!(r#"{{"ms":{}}}"#, self.run_ms),
                Expect::Result,
            ),
            s(
                Travel,
                "step_back",
                format!(r#"{{"n":{}}}"#, self.back_n),
                Expect::Result,
            ),
            s(
                Travel,
                "goto_time",
                format!(r#"{{"ms":{}}}"#, self.goto_ms),
                Expect::Result,
            ),
            s(Travel, "reverse_continue", "{}".into(), Expect::Result),
            s(
                Export,
                "record_export",
                format!(r#"{{"path":"{}"}}"#, session_tape.display()),
                Expect::Result,
            ),
            s(Other, "destroy", "{}".into(), Expect::True("destroyed")),
            s(
                Other,
                "fleet_create",
                format!(
                    r#"{{"tags":{},"seed":{}}}"#,
                    self.fleet_tags, self.fleet_seed
                ),
                Expect::Field("tags", self.fleet_tags),
            ),
            s(
                FleetRun,
                "fleet_run",
                format!(r#"{{"fleet":{{fleet}},"ms":{}}}"#, self.fleet_ms),
                Expect::Result,
            ),
            s(
                Other,
                "fleet_export",
                format!(r#"{{"fleet":{{fleet}},"path":"{}"}}"#, fleet_tape.display()),
                Expect::Result,
            ),
            s(
                Other,
                "fleet_destroy",
                r#"{"fleet":{fleet}}"#.into(),
                Expect::Result,
            ),
        ]
    }

    /// Builds, directly on the engine, the session this script's RPC
    /// requests build, stopped where the script starts to travel in
    /// time. `tape` is one of the script's exported session tapes; its
    /// embedded spec rebuilds the bench.
    pub fn session_before_travel(&self, tape: &Recording) -> Result<DebugSession, String> {
        let spec_value = tape.spec.as_ref().ok_or("tape carries no spec")?;
        let spec = <SessionSpec as serde::Deserialize>::from_value(spec_value)
            .map_err(|e| format!("spec does not decode: {e}"))?;
        let mut session = spec.record(tape.stride).map_err(|e| e.to_string())?;
        let err = |e: edb_core::EdbError| e.to_string();
        session.run_until_session(SimTime::from_ms(WAIT_SESSION_MS));
        session.perform(DebugRequest::GetPc).map_err(err)?;
        session
            .perform(DebugRequest::ReadWord {
                addr: self.peek_addr,
            })
            .map_err(err)?;
        session
            .perform(DebugRequest::WriteWord {
                addr: PATCH_ADDR,
                value: self.patch,
            })
            .map_err(err)?;
        session
            .perform(DebugRequest::ReadWord { addr: PATCH_ADDR })
            .map_err(err)?;
        session
            .set_breakpoint(self.bp_id, Some(self.bp_energy))
            .map_err(err)?;
        session.arm_energy_guard(self.guard).map_err(err)?;
        session.resume().map_err(err)?;
        session.run_until_session(SimTime::from_ms(self.run_ms));
        Ok(session)
    }

    /// `step_back` then `goto_time` with this script's arguments.
    pub fn travel(&self, session: &mut DebugSession) -> Result<(f64, f64), String> {
        let t = Instant::now();
        session.step_back(self.back_n).map_err(|e| e.to_string())?;
        let back = t.elapsed().as_secs_f64();
        let t = Instant::now();
        session
            .goto_time(SimTime::from_ms(self.goto_ms))
            .map_err(|e| e.to_string())?;
        Ok((back, t.elapsed().as_secs_f64()))
    }
}

/// A way to exchange one request line for its reply lines.
trait Transport {
    fn exchange(&mut self, line: &str) -> Result<Vec<String>, String>;
}

impl Transport for Client {
    fn exchange(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.exchange_line(line).map_err(|e| e.to_string())
    }
}

/// The hub called in-process, without the TCP transport.
struct InProcess<'a> {
    hub: &'a SessionHub,
    conn: ConnState,
}

impl Transport for InProcess<'_> {
    fn exchange(&mut self, line: &str) -> Result<Vec<String>, String> {
        Ok(self.hub.dispatch(&mut self.conn, line).lines)
    }
}

/// Checks one reply against its expectation; returns the parsed result.
fn check(lines: &[String], expect: Expect) -> Result<Value, String> {
    let last = lines.last().ok_or("no reply line")?;
    let reply: Value = serde_json::from_str(last).map_err(|e| format!("bad reply: {e}"))?;
    let code = |err: &Value| match err.get_field("code") {
        Some(Value::I64(c)) => Some(*c),
        Some(Value::U64(c)) => Some(*c as i64),
        _ => None,
    };
    match (reply.get_field("result"), reply.get_field("error"), expect) {
        (_, Some(err), Expect::Error(want)) if code(err) == Some(want) => Ok(Value::Null),
        (_, _, Expect::Error(want)) => Err(format!("expected error {want}, got {last}")),
        (_, Some(_), _) => Err(format!("unexpected error: {last}")),
        (Some(result), None, Expect::Result) => Ok(result.clone()),
        (Some(result), None, Expect::Field(name, want)) => match result.get_field(name) {
            Some(Value::U64(v)) if *v == want => Ok(result.clone()),
            _ => Err(format!("expected {name}={want}: {last}")),
        },
        (Some(result), None, Expect::True(name)) => match result.get_field(name) {
            Some(Value::Bool(true)) => Ok(result.clone()),
            _ => Err(format!("expected {name}=true: {last}")),
        },
        (None, None, _) => Err(format!("reply has neither result nor error: {last}")),
    }
}

/// Where the tapes a script exports are stored and what they hashed to.
#[derive(Debug, Default)]
struct Tapes {
    /// First bytes seen per script index, with their FNV-1a hash.
    session: BTreeMap<usize, (u64, Vec<u8>)>,
    fleet: BTreeMap<usize, (u64, Vec<u8>)>,
}

impl Tapes {
    /// Records a freshly exported tape; a script must export the same
    /// bytes every time it runs.
    fn note(
        map: &mut BTreeMap<usize, (u64, Vec<u8>)>,
        index: usize,
        path: &Path,
    ) -> Result<(), String> {
        let bytes = std::fs::read(path).map_err(|e| format!("tape {}: {e}", path.display()))?;
        let hash = edb_replay::fnv1a(&bytes);
        match map.get(&index) {
            Some((seen, _)) if *seen != hash => {
                Err(format!("script {index} exported a different tape"))
            }
            Some(_) => Ok(()),
            None => {
                map.insert(index, (hash, bytes));
                Ok(())
            }
        }
    }

    fn merge(&mut self, other: Tapes) -> Vec<String> {
        let mut bad = Vec::new();
        for (mine, theirs) in [
            (&mut self.session, other.session),
            (&mut self.fleet, other.fleet),
        ] {
            for (index, (hash, bytes)) in theirs {
                match mine.get(&index) {
                    Some((seen, _)) if *seen != hash => bad.push(format!(
                        "script {index} exported different tapes on two connections"
                    )),
                    Some(_) => {}
                    None => {
                        mine.insert(index, (hash, bytes));
                    }
                }
            }
        }
        bad
    }
}

/// Latency recorded for a failed request: the run's time limit, so a
/// failure misses every latency percentile.
pub const FAILED_LATENCY_S: f64 = 170.0;

/// Per-class request latencies and per-script class totals (seconds,
/// each with the stretch of time it was measured over; a failed request
/// counts as [`FAILED_LATENCY_S`]), and failure messages.
#[derive(Debug, Default)]
struct Log {
    latency: [Vec<(Span, f64)>; 7],
    per_script: [Vec<(Span, f64)>; 7],
    ok: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Log {
    fn fail(&mut self, class: Class, why: String) {
        let now = Instant::now();
        self.latency[class.index()].push(((now, now), FAILED_LATENCY_S));
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// Runs one script through `transport`. Each request is timed from its
/// send to its final reply and, when traced, wrapped in a span named
/// `<prefix>.<class>`. Returns `false` when the transport broke.
#[allow(clippy::too_many_arguments)]
fn run_script(
    transport: &mut dyn Transport,
    script: &Script,
    tape_dir: &Path,
    tag: &str,
    next_id: &mut u64,
    log: &mut Log,
    tapes: &mut Tapes,
    trace: Option<(&Tracer, &str, usize)>,
) -> bool {
    let session_tape = tape_dir.join(format!("session-{tag}.edbr"));
    let fleet_tape = tape_dir.join(format!("fleet-{tag}.edbr"));
    let mut fleet_id = 0u64;
    let script_start = Instant::now();
    // Each class's latency summed over this script's requests.
    let mut totals: [Option<f64>; 7] = [None; 7];
    let mut add = |class: Class, dt: f64| {
        *totals[class.index()].get_or_insert(0.0) += dt;
    };
    let mut broken = false;
    for step in script.steps(&session_tape, &fleet_tape) {
        let id = *next_id;
        *next_id += 1;
        let params = step.params.replace("{fleet}", &fleet_id.to_string());
        let line = format!(
            r#"{{"jsonrpc":"2.0","id":{id},"method":"{}","params":{params}}}"#,
            step.method
        );
        let span = trace.map(|(tracer, prefix, parent)| {
            (
                tracer,
                tracer.open(&format!("{prefix}.{}", step.class.name()), Some(parent), id),
            )
        });
        let t = Instant::now();
        let reply = transport.exchange(&line);
        let dt = t.elapsed().as_secs_f64();
        if let Some((tracer, idx)) = span {
            tracer.close(idx);
        }
        let lines = match reply {
            Ok(lines) => lines,
            Err(e) => {
                add(step.class, FAILED_LATENCY_S);
                log.fail(
                    step.class,
                    format!("{}: transport failed: {e}", step.method),
                );
                broken = true;
                break;
            }
        };
        match check(&lines, step.expect) {
            Ok(result) => {
                add(step.class, dt);
                let done = t + Duration::from_secs_f64(dt);
                log.latency[step.class.index()].push(((t, done), dt));
                log.ok += 1;
                let noted = match step.method {
                    "fleet_create" => {
                        fleet_id = match result.get_field("fleet") {
                            Some(Value::U64(f)) => *f,
                            _ => 0,
                        };
                        Ok(())
                    }
                    "record_export" => Tapes::note(&mut tapes.session, script.index, &session_tape),
                    "fleet_export" => Tapes::note(&mut tapes.fleet, script.index, &fleet_tape),
                    _ => Ok(()),
                };
                if let Err(e) = noted {
                    log.failed += 1;
                    log.errors.push(e);
                }
            }
            Err(e) => {
                add(step.class, FAILED_LATENCY_S);
                log.fail(step.class, format!("{}: {e}", step.method));
            }
        }
    }
    for (class, total) in Class::ALL.into_iter().zip(totals) {
        if let Some(total) = total {
            log.per_script[class.index()].push(((script_start, Instant::now()), total));
        }
    }
    !broken
}

/// What the serve phase measured and checked.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Closed-loop connections driven (also the pool width).
    pub connections: usize,
    /// Wall time the closed loop ran, all slices, seconds.
    pub wall_s: f64,
    /// Latencies per class, seconds (failed requests count as
    /// [`FAILED_LATENCY_S`]), each with its request's stretch of time.
    pub latency: BTreeMap<Class, Vec<(Span, f64)>>,
    /// Per class, each script's requests of that class summed, seconds,
    /// each with its script's stretch of time.
    pub per_script: BTreeMap<Class, Vec<(Span, f64)>>,
    /// Requests that got their expected reply.
    pub ok: u64,
    /// Checked operations: requests plus tape checks.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// First failure messages.
    pub errors: Vec<String>,
    /// One exported session tape per script, by script index.
    pub session_tapes: BTreeMap<usize, Vec<u8>>,
    /// One exported fleet tape per script, by script index.
    pub fleet_tapes: BTreeMap<usize, Vec<u8>>,
}

impl ServeOutcome {
    /// Every latency sample, all classes, seconds.
    pub fn all_latencies(&self) -> Vec<f64> {
        self.latency.values().flatten().map(|(_, dt)| *dt).collect()
    }
}

/// One closed-loop connection, kept across slices.
#[derive(Debug)]
struct Conn {
    client: Client,
    log: Log,
    tapes: Tapes,
    next_id: u64,
    scripts_run: usize,
    broken: bool,
}

/// The serve phase: a server and its closed-loop connections. Built by
/// [`setup`] before the first timed request, driven in slices, checked
/// by [`ServeLoop::finish`].
#[derive(Debug)]
pub struct ServeLoop {
    // Connections drop before the server, so they end at once.
    conns: Vec<Conn>,
    server: edb_serve::Server,
    wall_s: f64,
}

/// Starts a server with pool width `width`, connects `width` clients
/// and completes one `server_info` exchange on each.
pub fn setup(width: usize) -> Result<ServeLoop, String> {
    let server = edb_serve::Server::start(edb_serve::ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: width,
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut conns = Vec::with_capacity(width);
    for _ in 0..width {
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let hello = client
            .exchange_line(r#"{"jsonrpc":"2.0","id":0,"method":"server_info","params":{}}"#)
            .map_err(|e| format!("server_info: {e}"))?;
        check(&hello, Expect::Result)?;
        conns.push(Conn {
            client,
            log: Log::default(),
            tapes: Tapes::default(),
            next_id: 1,
            scripts_run: 0,
            broken: false,
        });
    }
    Ok(ServeLoop {
        conns,
        server,
        wall_s: 0.0,
    })
}

impl ServeLoop {
    /// Drives the closed loop for `budget`: connection `c` runs scripts
    /// `c, c + width, ...` (mod the set), resuming where its last slice
    /// stopped, and finishes the script in flight when time is up.
    pub fn slice(
        &mut self,
        scripts: &[Script],
        tape_dir: &Path,
        budget: Duration,
        trace: Option<(&Tracer, usize)>,
    ) {
        let width = self.conns.len();
        let t0 = Instant::now();
        let deadline = t0 + budget;
        std::thread::scope(|s| {
            for (c, conn) in self.conns.iter_mut().enumerate() {
                s.spawn(move || {
                    let span = trace.map(|(tracer, parent)| {
                        (
                            tracer,
                            tracer.open("serve.connection", Some(parent), c as u64),
                        )
                    });
                    while !conn.broken && Instant::now() < deadline {
                        let script = &scripts[(c + conn.scripts_run * width) % scripts.len()];
                        conn.scripts_run += 1;
                        conn.broken = !run_script(
                            &mut conn.client,
                            script,
                            tape_dir,
                            &c.to_string(),
                            &mut conn.next_id,
                            &mut conn.log,
                            &mut conn.tapes,
                            span.map(|(tracer, idx)| (tracer, "rpc", idx)),
                        );
                    }
                    if let Some((tracer, idx)) = span {
                        tracer.close(idx);
                    }
                });
            }
        });
        self.wall_s += t0.elapsed().as_secs_f64();
    }

    /// Stops the server and checks every exported tape: one script must
    /// export the same bytes on every connection, session tapes must
    /// pass `verify` and fleet tapes `verify_fleet`.
    pub fn finish(self) -> ServeOutcome {
        let ServeLoop {
            conns,
            mut server,
            wall_s,
        } = self;
        let width = conns.len();
        let mut latency: BTreeMap<Class, Vec<(Span, f64)>> = BTreeMap::new();
        let mut per_script: BTreeMap<Class, Vec<(Span, f64)>> = BTreeMap::new();
        let (mut ok, mut failed) = (0, 0);
        let mut errors = Vec::new();
        let mut tapes = Tapes::default();
        for conn in conns {
            for class in Class::ALL {
                latency
                    .entry(class)
                    .or_default()
                    .extend(&conn.log.latency[class.index()]);
                per_script
                    .entry(class)
                    .or_default()
                    .extend(&conn.log.per_script[class.index()]);
            }
            ok += conn.log.ok;
            failed += conn.log.failed;
            errors.extend(conn.log.errors);
            let bad = tapes.merge(conn.tapes);
            failed += bad.len() as u64;
            errors.extend(bad);
        }
        server.stop();
        let mut attempted = ok + failed;
        for (index, (_, bytes)) in &tapes.session {
            attempted += 1;
            let verdict = Recording::from_bytes(bytes)
                .map_err(|e| e.to_string())
                .and_then(|rec| verify(&rec).map_err(|e| e.to_string()));
            if let Err(e) = verdict {
                failed += 1;
                errors.push(format!("session tape of script {index} fails verify: {e}"));
            }
        }
        for (index, (_, bytes)) in &tapes.fleet {
            attempted += 1;
            let verdict = Recording::from_bytes(bytes)
                .map_err(|e| e.to_string())
                .and_then(|rec| verify_fleet(&rec));
            if let Err(e) = verdict {
                failed += 1;
                errors.push(format!(
                    "fleet tape of script {index} fails verify_fleet: {e}"
                ));
            }
        }
        ServeOutcome {
            connections: width,
            wall_s,
            latency,
            per_script,
            ok,
            attempted,
            failed,
            errors,
            session_tapes: tapes
                .session
                .into_iter()
                .map(|(i, (_, b))| (i, b))
                .collect(),
            fleet_tapes: tapes.fleet.into_iter().map(|(i, (_, b))| (i, b)).collect(),
        }
    }
}

/// Replays every script `reps` times through `SessionHub::dispatch` in
/// this thread, with no transport, under spans named `dispatch.<class>`.
/// Each script must export the same tapes as it did over TCP in
/// `served`. Returns the number of checked operations, of failed ones,
/// and the failure messages.
pub fn dispatch_replay(
    scripts: &[Script],
    tape_dir: &Path,
    reps: usize,
    served: &ServeOutcome,
    tracer: &Tracer,
    parent: usize,
) -> (u64, u64, Vec<String>) {
    let hub = SessionHub::new();
    let mut transport = InProcess {
        hub: &hub,
        conn: ConnState::new(),
    };
    let mut log = Log::default();
    let known = |tapes: &BTreeMap<usize, Vec<u8>>| {
        tapes
            .iter()
            .map(|(&i, b)| (i, (edb_replay::fnv1a(b), Vec::new())))
            .collect()
    };
    let mut tapes = Tapes {
        session: known(&served.session_tapes),
        fleet: known(&served.fleet_tapes),
    };
    let mut next_id = 1u64;
    for _ in 0..reps {
        for script in scripts {
            run_script(
                &mut transport,
                script,
                tape_dir,
                "dispatch",
                &mut next_id,
                &mut log,
                &mut tapes,
                Some((tracer, "dispatch", parent)),
            );
        }
    }
    (log.ok + log.failed, log.failed, log.errors)
}

/// The directory exported tapes are written to, under the working
/// directory's `target/`.
pub fn tape_dir() -> PathBuf {
    Path::new("target").join("perfbench").join("tapes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_cover_every_slice_once() {
        for param in 0..8 {
            let mut seen: Vec<usize> = (0..32).map(|i| stratum(7, param, i, 32)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..32).collect::<Vec<_>>());
        }
    }
}
