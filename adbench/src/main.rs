//! `adbench` — the adcast end-to-end benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path adbench/Cargo.toml -- \
//!     --workload ingest|churn_read|routed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Builds the release `adcast-serve` and
//! `adcast-router` binaries, spawns them, and drives them over sockets:
//! set-up (nine times, four at the start and five at the end of the run;
//! the median is `setup_s`) → untimed warm-up → phase A, open loop at the
//! workload's fixed rate (latency) → phase B, closed loop (throughput, CPU)
//! → sweep + in-process twin check → checkpoint, graceful shutdown,
//! restarts (median `restart_s`), second sweep. With `--trace 1` the twin
//! replay doubles as the per-layer ledger
//! and a second, traced socket pass scrapes the server's own telemetry.
//! `adbench/NOTES.md` explains the workloads and every metric.
//!
//! Every metric is printed by name with its unit on stderr; the last
//! stdout line is one JSON object `{correct, attempted, failed, metrics}`.
//! Raw per-run rows and spans go to `adbench/out/` (git-ignored).

mod drive;
mod ledger;
mod metrics;
mod procs;
mod spans;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use adcast::core::Recommendation;
use adcast::net::{Client, ClientConfig};

use drive::{ClosedTotals, Kind, Outcome, Status};
use metrics::Metrics;
use procs::Proc;
use spans::Recorder;
use workload::{Plan, Spec, SHARDS, USERS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Of those, the set-ups at the start of the run; the last of them is the
/// deployment measured, the rest are timed after its final shutdown. Spread
/// over the run, the median samples the host across ~40 s instead of its
/// first three seconds.
const SETUP_REPS_FIRST: usize = 4;
/// Restarts per run; `restart_s` is their median.
const RESTART_REPS: usize = 5;
/// How long phase A waits for stragglers after its last send.
const GRACE: Duration = Duration::from_secs(20);
/// A phase-A op sent this much after its due time counts as late.
const LATE_MS: f64 = 20.0;
/// Phase A is invalid when more than this share of its ops is late. A
/// generator that cannot keep up makes most ops late. A host stall (vCPU
/// steal) makes a burst of a few late, and as they are timed from their
/// due instant the stall is charged to them; up to this share, at most
/// half of the ops above p90, the highest percentile reported, are late.
const MAX_LATE_SHARE: f64 = 0.05;
/// Sampling period of the router's distributed tracing on the traced
/// `routed` pass: every 4th routable RPC, so phase A's ~270 Ingests leave
/// the ~60 traces the `cluster.*` medians are read from.
const TRACE_SAMPLE: u64 = 4;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let name = value("--workload")?;
    let spec = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    Ok(Args {
        spec,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: adbench --workload ingest|churn_read|routed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Directories and binaries of one run.
struct Env {
    bins: PathBuf,
    run_dir: PathBuf,
}

/// The processes of one deployment: a lone node, or follower + primary +
/// router. `procs[0]` is the client entry point.
struct Deployment {
    procs: Vec<Proc>,
    /// Node processes (index into `procs`) paired with their data dirs.
    nodes: Vec<(usize, PathBuf)>,
}

impl Deployment {
    fn entry(&self) -> &str {
        &self.procs[0].addr
    }

    /// The data dir whose WAL the twin replays (the primary's).
    fn wal_dir(&self) -> &Path {
        &self.nodes[0].1
    }

    /// Observability address of the (primary) node.
    fn node_obs(&self) -> Option<&str> {
        self.procs[self.nodes[0].0].obs.as_deref()
    }

    fn cpu_seconds(&self) -> Result<f64, String> {
        self.procs.iter().map(Proc::cpu_seconds).sum()
    }

    fn rss_peak_bytes(&self) -> Result<u64, String> {
        self.procs.iter().map(Proc::rss_peak_bytes).sum()
    }

    /// Steal time so far, averaged over the CPUs the processes run on.
    fn steal_seconds(&self) -> f64 {
        let mut cpus: Vec<&str> = self.procs.iter().map(|p| p.cpu).collect();
        cpus.sort_unstable();
        cpus.dedup();
        let total: f64 = cpus.iter().map(|c| procs::steal_seconds_of(c)).sum();
        total / cpus.len().max(1) as f64
    }
}

/// Launch `spec`'s deployment with data under `env.run_dir/tag` (reused
/// when it exists, which is how a restart recovers).
fn launch(env: &Env, spec: &Spec, tag: &str, obs: bool) -> Result<Deployment, String> {
    let base = env.run_dir.join(tag);
    let serve = env.bins.join("adcast-serve");
    let log = env.run_dir.join("servers.log");
    let node_args = |dir: &Path| -> Vec<String> {
        let mut a: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--users",
            &USERS.to_string(),
            "--shards",
            &SHARDS.to_string(),
            "--fsync",
            "off",
            "--snapshot-every",
            "0",
            "--data-dir",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        a.push(dir.display().to_string());
        if obs {
            a.extend(["--obs-addr".to_string(), "127.0.0.1:0".to_string()]);
        }
        a
    };
    if !spec.routed {
        let dir = base.join("node");
        let node = Proc::spawn(
            "adcast-serve",
            &serve,
            &node_args(&dir),
            &log,
            obs,
            procs::SERVER_CPU,
        )?;
        return Ok(Deployment {
            procs: vec![node],
            nodes: vec![(0, dir)],
        });
    }
    let (pdir, fdir) = (base.join("primary"), base.join("follower"));
    let mut fargs = node_args(&fdir);
    fargs.extend(["--partition", "0", "--role", "follower"].map(String::from));
    let follower = Proc::spawn("follower", &serve, &fargs, &log, obs, procs::follower_cpu())?;
    let mut pargs = node_args(&pdir);
    pargs.extend(["--partition", "0", "--role", "primary", "--follower"].map(String::from));
    pargs.push(follower.addr.clone());
    let primary = Proc::spawn("primary", &serve, &pargs, &log, obs, procs::SERVER_CPU)?;
    let mut rargs: Vec<String> = ["--addr", "127.0.0.1:0", "--partition"]
        .map(String::from)
        .to_vec();
    rargs.push(format!("{},{}", primary.addr, follower.addr));
    if obs {
        rargs.extend(["--obs-addr", "127.0.0.1:0", "--partition-obs"].map(String::from));
        rargs.push(format!(
            "{},{}",
            primary.obs.as_deref().unwrap_or_default(),
            follower.obs.as_deref().unwrap_or_default()
        ));
        rargs.extend(["--trace-sample".to_string(), TRACE_SAMPLE.to_string()]);
    }
    let router = Proc::spawn(
        "adcast-router",
        &env.bins.join("adcast-router"),
        &rargs,
        &log,
        obs,
        procs::SERVER_CPU,
    )?;
    Ok(Deployment {
        procs: vec![router, primary, follower],
        nodes: vec![(1, pdir), (2, fdir)],
    })
}

fn client(addr: &str) -> Result<Client, String> {
    Client::connect(
        addr,
        &ClientConfig {
            rpc_timeout: Some(Duration::from_secs(60)),
            ..ClientConfig::default()
        },
    )
    .map_err(|e| format!("connect {addr}: {e}"))
}

/// Graceful stop: Shutdown to the entry point, then to any node still
/// running (the router drains primaries only), and wait for every exit.
fn shutdown(mut d: Deployment) -> Result<(), String> {
    client(d.entry())?
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    d.procs[0].wait_exit(Duration::from_secs(60))?;
    for p in d.procs.iter_mut().skip(1) {
        std::thread::sleep(Duration::from_millis(20));
        if !p.exited() {
            if let Ok(mut c) = client(&p.addr) {
                let _ = c.shutdown();
            }
        }
        p.wait_exit(Duration::from_secs(60))?;
    }
    Ok(())
}

/// Set up once: launch and submit every campaign, checking the ids.
fn set_up(env: &Env, spec: &Spec, plan: &Plan, tag: &str, obs: bool) -> Result<Deployment, String> {
    let d = launch(env, spec, tag, obs)?;
    let (t, _) = drive::closed_loop(d.entry(), &plan.setup, None)?;
    if t.failed > 0 {
        return Err(format!(
            "{} of {} campaign submits failed or got another id than expected",
            t.failed, t.attempted
        ));
    }
    Ok(d)
}

/// Phase A: writes on one connection, reads on the other, both open loop.
fn phase_a(addr: &str, plan: &Plan) -> Result<Vec<Outcome>, String> {
    let start = Instant::now() + Duration::from_millis(20);
    let (w, r) = (&plan.a_writes, &plan.a_reads);
    let (wo, ro) = std::thread::scope(|s| {
        let wj = s.spawn(move || drive::open_loop(addr, &w.0, &w.1, start, GRACE));
        let rj = s.spawn(move || drive::open_loop(addr, &r.0, &r.1, start, GRACE));
        (
            wj.join().expect("writer thread panicked"),
            rj.join().expect("reader thread panicked"),
        )
    });
    let mut all = wo?;
    all.extend(ro?);
    Ok(all)
}

/// Recommend for every user over two connections; `None` where a
/// request failed.
fn sweep(addr: &str, plan: &Plan) -> Result<Vec<Option<Vec<Recommendation>>>, String> {
    let reqs = &plan.sweep;
    let halves: Vec<Result<Vec<Option<Vec<Recommendation>>>, String>> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..2)
            .map(|c| s.spawn(move || drive::sweep(addr, reqs.iter().skip(c).step_by(2).cloned())))
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("sweep thread panicked"))
            .collect()
    });
    let mut halves = halves.into_iter();
    let (even, odd) = (
        halves.next().expect("two halves")?,
        halves.next().expect("two halves")?,
    );
    let mut out = Vec::with_capacity(reqs.len());
    let mut odd = odd.into_iter();
    for e in even {
        out.push(e);
        if let Some(o) = odd.next() {
            out.push(o);
        }
    }
    Ok(out)
}

/// Counts every op of a run against `failed_share`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    shed: u64,
    timeouts: u64,
    missing: u64,
}

impl Tally {
    fn closed(&mut self, t: ClosedTotals) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.shed += t.shed;
    }

    fn open(&mut self, out: &[Outcome]) {
        for o in out {
            self.attempted += 1;
            match o.status {
                Status::Ok => {}
                Status::Shed => self.shed += 1,
                Status::Timeout => self.timeouts += 1,
                Status::Missing => self.missing += 1,
                Status::Error => {}
            }
            if o.status != Status::Ok {
                self.failed += 1;
            }
        }
    }

    fn sweep(&mut self, s: &[Option<Vec<Recommendation>>]) {
        self.attempted += s.len() as u64;
        self.failed += s.iter().filter(|r| r.is_none()).count() as u64;
    }
}

/// What the socket pass measured (also the traced pass's comparison base).
struct SocketPass {
    setup_s: Vec<f64>,
    phase_a: Vec<Outcome>,
    b: PhaseB,
    rss_peak_bytes: u64,
    restart_s: f64,
    stats: adcast::net::ServerStats,
    twin_agreement: ledger::Agreement,
    /// The ledger replay's twin-side facts (traced runs only).
    ledger: Option<traced::LedgerInfo>,
}

/// What one closed-loop phase B did, as totals over the whole phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseB {
    /// Deltas acknowledged.
    pub deltas: u64,
    /// Wall time.
    pub wall_s: f64,
    /// Server CPU (user + system, every server process).
    pub cpu_s: f64,
    /// Time the hypervisor kept the servers' CPUs from running, averaged
    /// over those CPUs.
    pub steal_s: f64,
}

impl PhaseB {
    /// Run `ops` closed loop against `d` until `b_secs` have passed.
    fn run(
        d: &Deployment,
        ops: &[drive::Op],
        b_secs: f64,
    ) -> Result<(Self, ClosedTotals, usize), String> {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(b_secs);
        let (cpu0, steal0) = (d.cpu_seconds()?, d.steal_seconds());
        let (totals, issued) = drive::closed_loop(d.entry(), ops, Some(deadline))?;
        let b = PhaseB {
            deltas: totals.deltas,
            wall_s: started.elapsed().as_secs_f64(),
            cpu_s: d.cpu_seconds()? - cpu0,
            steal_s: d.steal_seconds() - steal0,
        };
        Ok((b, totals, issued))
    }

    /// Deltas per second of the wall time the servers' CPUs were there to
    /// run them. Steal is time the host gave those CPUs to another tenant;
    /// it moved from 0.2% to 6% of phase B between runs minutes apart, and
    /// it is no property of the program.
    pub fn deltas_per_s(&self) -> f64 {
        stats::ratio(self.deltas as f64, self.wall_s - self.steal_s)
    }

    /// Server CPU per acknowledged delta, in µs.
    pub fn cpu_us_per_delta(&self) -> f64 {
        stats::ratio(self.cpu_s * 1e6, self.deltas as f64)
    }
}

fn lat(out: &[Outcome], kind: Kind, scale: f64) -> Vec<f64> {
    out.iter()
        .filter(|o| o.kind == kind)
        .filter_map(Outcome::latency_ns)
        .map(|ns| ns as f64 / scale)
        .collect()
}

fn send_lag_ms(o: &Outcome) -> f64 {
    o.sent_ns.saturating_sub(o.due_ns) as f64 / 1e6
}

/// The latest any phase-A op was sent after its due instant, in ms. A
/// run has a few hundred phase-A ops, too few to support a p99, so the
/// maximum (an upper bound on every percentile) is what is reported.
fn send_lag_max_ms(out: &[Outcome]) -> f64 {
    out.iter().map(send_lag_ms).fold(0.0, f64::max)
}

/// Check the generator kept up during phase A. Returns a reason when not.
fn generator_problem(out: &[Outcome]) -> Option<String> {
    let late = out.iter().filter(|o| send_lag_ms(o) > LATE_MS).count();
    if late as f64 > MAX_LATE_SHARE * out.len() as f64 {
        return Some(format!(
            "{late} of {} ops sent over {LATE_MS} ms late (send lag max {:.2} ms)",
            out.len(),
            send_lag_max_ms(out)
        ));
    }
    // Backlog at send time, first vs last quarter of the schedule: a
    // server keeping up holds it flat; a growing backlog means the fixed
    // rate exceeds capacity and latencies are not steady-state.
    let mut by_due: Vec<&Outcome> = out.iter().collect();
    by_due.sort_by_key(|o| o.due_ns);
    let q = by_due.len() / 4;
    if q > 0 {
        let avg =
            |s: &[&Outcome]| s.iter().map(|o| f64::from(o.backlog)).sum::<f64>() / s.len() as f64;
        let (first, last) = (avg(&by_due[..q]), avg(&by_due[by_due.len() - q..]));
        if last > 2.0 * first + 2.0 {
            return Some(format!(
                "backlog grew across phase A ({first:.1} → {last:.1} outstanding)"
            ));
        }
    }
    None
}

fn run(args: &Args) -> Result<String, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("src/bin/serve.rs").is_file() {
        return Err("run from the repository root (src/bin/serve.rs not found)".into());
    }
    let out_dir = root.join("adbench/out");
    let run_dir = out_dir.join(format!(
        "run-{}-{}-{}",
        args.spec.name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let env = Env {
        bins: procs::build_servers(&root)?,
        run_dir,
    };
    // After the build, which should use every CPU.
    procs::pin_harness();
    let outcome = measure(args, &env, &out_dir);
    // Data dirs are large; the per-run rows and spans are kept.
    let _ = std::fs::remove_dir_all(&env.run_dir);
    outcome
}

fn measure(args: &Args, env: &Env, out_dir: &Path) -> Result<String, String> {
    let spec = &args.spec;
    let a_secs = args.seconds * spec.a_share;
    let b_secs = args.seconds - a_secs;
    let plan = workload::plan(spec, args.seed, a_secs, b_secs);
    let mut tally = Tally::default();
    let mut problems: Vec<String> = Vec::new();

    let mut ledger = args.trace.then(Recorder::new);
    let pass = socket_pass(
        env,
        spec,
        &plan,
        &mut tally,
        &mut problems,
        ledger.as_mut(),
        b_secs,
    )?;
    let mut m = Metrics::default();
    let mut ack = lat(&pass.phase_a, Kind::Ingest, 1e6);
    let mut rec = lat(&pass.phase_a, Kind::Recommend, 1e3);
    // Phase-A sample counts are fixed by the schedule, so a percentile
    // the rule refuses is a benchmark defect, not a noisy run.
    let need = |v: Option<f64>, what: &str| -> Result<f64, String> {
        v.ok_or_else(|| format!("too few phase-A samples for {what}"))
    };
    let rss_mb = pass.rss_peak_bytes as f64 / (1 << 20) as f64;
    let ack_p50 = need(stats::percentile(&mut ack, 0.5), "ack_p50_ms")?;
    m.e2e(
        "setup_s",
        stats::median(&mut pass.setup_s.clone()).unwrap_or(0.0),
        "s",
    );
    m.e2e("deltas_per_s", pass.b.deltas_per_s(), "deltas/s");
    m.e2e("cpu_us_per_delta", pass.b.cpu_us_per_delta(), "us");
    m.e2e("rss_peak_mb", rss_mb, "MB");
    m.e2e("restart_s", pass.restart_s, "s");
    // Phase-A latencies are measured in every run but reported per layer:
    // on a contended host their run-to-run spread exceeds any bound the
    // benchmark may set (see the notes).
    m.layer("bench.ack_p50_ms", ack_p50, "ms");
    m.layer(
        "bench.ack_p90_ms",
        need(stats::percentile(&mut ack, 0.9), "ack_p90_ms")?,
        "ms",
    );
    m.layer(
        "bench.recommend_p50_us",
        need(stats::percentile(&mut rec, 0.5), "recommend_p50_us")?,
        "us",
    );
    m.layer(
        "bench.steal_share",
        stats::ratio(pass.b.steal_s, pass.b.wall_s),
        "ratio",
    );

    if let Some(rec) = &ledger {
        let pass2 = traced::socket_pass(env, spec, &plan, &mut tally, b_secs)?;
        traced::layer_metrics(&mut m, spec, rec, &pass, &pass2, &tally);
        let path = out_dir.join(format!("spans-{}-{}.jsonl", spec.name, args.seed));
        let written = std::fs::File::create(&path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                rec.write_jsonl(&mut f)?;
                std::io::Write::flush(&mut f)
            });
        if let Err(e) = written {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    eprintln!(
        "twin check: {} user(s) bit-identical, {} within float rounding",
        pass.twin_agreement.exact, pass.twin_agreement.rounding
    );
    let correct = problems.is_empty();
    for p in &problems {
        eprintln!("run invalid: {p}");
    }
    m.print(&format!(
        "{} seed {} ({} s, trace {}): attempted {} failed {} (shed {}, timeouts {}, missing {}), failed_share {:.6}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tally.attempted,
        tally.failed,
        tally.shed,
        tally.timeouts,
        tally.missing,
        stats::ratio(tally.failed as f64, tally.attempted as f64)
    ));
    let correct = correct && m.all_finite(args.trace);
    m.append_row(out_dir, spec.name, args.seed, args.trace, correct);
    Ok(m.result_json(correct, tally.attempted.max(1), tally.failed, args.trace))
}

/// Time one set-up on fresh data dirs, then stop it and delete them.
fn throwaway_set_up(
    env: &Env,
    spec: &Spec,
    plan: &Plan,
    rep: usize,
    tally: &mut Tally,
) -> Result<f64, String> {
    let t = Instant::now();
    let d = set_up(env, spec, plan, &format!("setup{rep}"), false)?;
    let secs = t.elapsed().as_secs_f64();
    tally.attempted += plan.setup.len() as u64;
    let dirs: Vec<PathBuf> = d.nodes.iter().map(|(_, p)| p.clone()).collect();
    shutdown(d)?;
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(secs)
}

#[allow(clippy::too_many_arguments)]
fn socket_pass(
    env: &Env,
    spec: &Spec,
    plan: &Plan,
    tally: &mut Tally,
    problems: &mut Vec<String>,
    mut ledger: Option<&mut Recorder>,
    b_secs: f64,
) -> Result<SocketPass, String> {
    procs::write_back();
    let mut setup_s = Vec::new();
    for rep in 1..SETUP_REPS_FIRST {
        setup_s.push(throwaway_set_up(env, spec, plan, rep, tally)?);
    }
    let tag = "measured";
    let t = Instant::now();
    let d = set_up(env, spec, plan, tag, false)?;
    setup_s.push(t.elapsed().as_secs_f64());
    tally.attempted += plan.setup.len() as u64;
    let addr = d.entry().to_string();

    let (warm, _) = drive::closed_loop(&addr, &plan.warm, None)?;
    tally.closed(warm);

    let phase_a = phase_a(&addr, plan)?;
    tally.open(&phase_a);
    if let Some(p) = generator_problem(&phase_a) {
        problems.push(p);
    }

    let (b, totals, issued) = PhaseB::run(&d, &plan.b, b_secs)?;
    tally.closed(totals);
    if issued == plan.b.len() {
        eprintln!("note: phase B ran out of generated ops before its deadline");
    }
    let rss_peak_bytes = d.rss_peak_bytes()?;
    let stats = client(&addr)?.stats().map_err(|e| format!("stats: {e}"))?;

    // Twin check: the served answers must equal an in-process replay of
    // the node's own WAL.
    let served = sweep(&addr, plan)?;
    tally.sweep(&served);
    let served: Vec<Vec<Recommendation>> =
        served.into_iter().map(Option::unwrap_or_default).collect();
    let ledger_dir = env.run_dir.join("ledger");
    let mut twin = ledger::replay(
        d.wal_dir(),
        ledger.as_deref_mut().map(|rec| (rec, ledger_dir.as_path())),
    )?;
    let expected = twin.sweep(&plan.sweep, ledger.as_deref_mut());
    let ledger_info = ledger.map(|rec| traced::LedgerInfo::of(&twin, rec));
    drop(twin);
    let twin_agreement = match ledger::compare(&served, &expected) {
        Ok(a) => a,
        Err(e) => {
            problems.push(format!("twin check failed: {e}"));
            ledger::Agreement::default()
        }
    };

    // Checkpoint every node, stop gracefully, restart on the same data.
    for (i, _) in &d.nodes {
        client(&d.procs[*i].addr)?
            .checkpoint()
            .map_err(|e| format!("checkpoint {}: {e}", d.procs[*i].name))?;
    }
    shutdown(d)?;
    procs::write_back();
    let mut restarts = Vec::new();
    let mut d = None;
    for _ in 0..RESTART_REPS {
        if let Some(previous) = d.take() {
            shutdown(previous)?;
        }
        let t = Instant::now();
        d = Some(launch(env, spec, tag, false)?);
        restarts.push(t.elapsed().as_secs_f64());
    }
    let d = d.expect("at least one restart");
    let restart_s = stats::median(&mut restarts).unwrap_or(0.0);
    let again = sweep(d.entry(), plan)?;
    tally.sweep(&again);
    let again: Vec<Vec<Recommendation>> =
        again.into_iter().map(Option::unwrap_or_default).collect();
    match ledger::compare(&again, &served) {
        Ok(a) if a.exact == again.len() => {}
        Ok(a) => problems.push(format!(
            "post-restart sweep differs from the pre-restart one for {} user(s)",
            a.rounding
        )),
        Err(e) => problems.push(format!("post-restart sweep differs: {e}")),
    }
    shutdown(d)?;
    procs::write_back();
    for rep in SETUP_REPS_FIRST..SETUP_REPS {
        setup_s.push(throwaway_set_up(env, spec, plan, rep, tally)?);
    }
    Ok(SocketPass {
        setup_s,
        phase_a,
        b,
        rss_peak_bytes,
        restart_s,
        stats,
        twin_agreement,
        ledger: ledger_info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(status: Status) -> Outcome {
        Outcome {
            kind: Kind::Ingest,
            due_ns: 0,
            sent_ns: 0,
            done_ns: (status == Status::Ok).then_some(1),
            status,
            backlog: 0,
        }
    }

    #[test]
    fn failed_share_counts_sheds_timeouts_and_missing_replies() {
        let mut t = Tally::default();
        t.open(&[
            outcome(Status::Ok),
            outcome(Status::Shed),
            outcome(Status::Timeout),
            outcome(Status::Missing),
            outcome(Status::Error),
        ]);
        t.closed(ClosedTotals {
            attempted: 5,
            failed: 1,
            deltas: 100,
            shed: 1,
        });
        t.sweep(&[Some(Vec::new()), None]);
        assert_eq!((t.attempted, t.failed), (12, 6));
        assert_eq!((t.shed, t.timeouts, t.missing), (2, 1, 1));
    }

    #[test]
    fn phase_b_throughput_leaves_out_stolen_time() {
        // 10 s of wall time, 1 s of it stolen: 9 000 deltas in the 9 s the
        // servers' CPU was there.
        let b = PhaseB {
            deltas: 9_000,
            wall_s: 10.0,
            cpu_s: 4.5,
            steal_s: 1.0,
        };
        assert_eq!(b.deltas_per_s(), 1_000.0);
        assert_eq!(b.cpu_us_per_delta(), 500.0);
    }

    #[test]
    fn generator_check_flags_lag_and_growing_backlog() {
        let steady: Vec<Outcome> = (0..40)
            .map(|i| Outcome {
                due_ns: i * 1_000_000,
                sent_ns: i * 1_000_000 + 50_000,
                ..outcome(Status::Ok)
            })
            .collect();
        assert!(generator_problem(&steady).is_none());
        // One op in 40 sent late is a stall, three (7.5%) a generator that
        // fell behind.
        let mut late = steady.clone();
        late[7].sent_ns += 30_000_000;
        assert!(generator_problem(&late).is_none());
        late[8].sent_ns += 30_000_000;
        late[9].sent_ns += 30_000_000;
        assert!(generator_problem(&late).unwrap().contains("late"));
        let growing: Vec<Outcome> = steady
            .iter()
            .enumerate()
            .map(|(i, o)| Outcome {
                backlog: i as u32,
                ..*o
            })
            .collect();
        assert!(generator_problem(&growing).unwrap().contains("backlog"));
    }
}
