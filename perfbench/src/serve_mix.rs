//! The `serve-mix` workload: a closed loop of two clients against a
//! `fairness-serve --quick --jobs 2` daemon with its disk cache on.
//!
//! Each client posts a stream of `.scn` batches generated from the seed
//! and waits for the `done` event before sending the next. A batch is
//! one of three kinds:
//!
//! * fresh — 1 to 3 scenarios never submitted before;
//! * overlap — one new scenario plus 1 or 2 this client already ran, so
//!   the daemon reuses ensembles from its sweep cache;
//! * replay — a byte-identical resubmission of one of the client's
//!   earlier batches, answered from the job table.
//!
//! Scenarios come from a fixed universe of 960 small configurations whose
//! CSV digests are recorded in `golden/serve-universe.sha256`; a seed picks
//! which of them each client uses and how batches combine them.

use crate::figures::layer_counters;
use crate::observe::Observer;
use crate::report::Report;
use crate::stats::{hd_quantile, median, reportable_tail};
use crate::trace::Tracer;
use crate::util::{parse_manifest, sha256_hex, Reaped, SplitMix};
use crate::Ctx;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const GOLDEN: &str = include_str!("../golden/serve-universe.sha256");

const CLIENTS: usize = 2;
/// Submissions per second of `--seconds`, across both clients. Fixed, so
/// the amount of work depends only on the arguments.
const SUBMISSIONS_PER_SECOND: u64 = 35;
const SETUP_SAMPLES: usize = 24;
const REPORT_FETCHERS: usize = 8;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

const KINDS: [&str; 6] = [
    "pow",
    "ml-pos",
    "sl-pos",
    "c-pos",
    "selfish-0",
    "selfish-0.5",
];
const SHARES_MILLI: [u32; 8] = [100, 150, 200, 250, 300, 350, 400, 450];
const REWARDS: [&str; 4] = ["0.005", "0.01", "0.02", "0.05"];
const HORIZONS: [u32; 3] = [500, 1000, 1500];

/// One scenario of the universe, as `.scn` text.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub text: String,
}

/// The fixed scenario universe: every protocol × attacker share × reward ×
/// horizon, with two or three miners (the selfish-mining adversary always
/// plays against one honest miner).
pub fn universe() -> Vec<Scenario> {
    let mut out = Vec::new();
    for kind in KINDS {
        for a in SHARES_MILLI {
            for w in REWARDS {
                for h in HORIZONS {
                    let miners: &[usize] = if kind.starts_with("selfish") {
                        &[2]
                    } else {
                        &[2, 3]
                    };
                    for &m in miners {
                        let name = format!("u{:03} {kind} a=0.{a} w={w} h={h} m={m}", out.len());
                        let protocol = match kind {
                            "c-pos" => format!("c-pos(w = {w}, v = 0.1, shards = 1)"),
                            "selfish-0" | "selfish-0.5" => format!(
                                "adversary(inner = pow(w = {w}), strategy = selfish-mining(gamma = {}))",
                                &kind["selfish-".len()..]
                            ),
                            _ => format!("{kind}(w = {w})"),
                        };
                        let shares = if m == 2 {
                            format!("[{}, {}]", milli(a), milli(1000 - a))
                        } else {
                            let rest = milli((1000 - a) / 2);
                            format!("[{}, {rest}, {rest}]", milli(a))
                        };
                        let text = format!(
                            "scenario \"{name}\" {{\n  protocol = {protocol}\n  shares = {shares}\n  checkpoints = linear({h}, 10)\n}}\n"
                        );
                        out.push(Scenario { name, text });
                    }
                }
            }
        }
    }
    out
}

fn milli(v: u32) -> String {
    let s = format!("{:.3}", f64::from(v) / 1000.0);
    s.trim_end_matches('0').to_owned()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Overlap,
    Replay,
}

#[derive(Debug)]
struct Batch {
    text: String,
    scenarios: Vec<usize>,
}

/// One client's generated input: its batches and the order it posts them.
#[derive(Debug)]
struct Plan {
    batches: Vec<Batch>,
    posts: Vec<(Kind, usize)>,
}

/// Generates both clients' inputs. Work is balanced across seeds: new
/// scenarios are dealt round-robin over cost classes (protocol, horizon,
/// miner count), every block of ten posts holds three fresh, two overlap
/// and five replay posts, and fresh batch sizes cycle through 1, 2 and 3;
/// the seed only shuffles within those strata. Fails when a client's
/// share of the universe runs out, rather than change the mix.
fn plans(seed: u64, submissions: usize, universe: &[Scenario]) -> std::io::Result<Vec<Plan>> {
    let mut rng = SplitMix::new(seed);
    let mut classes: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, s) in universe.iter().enumerate() {
        // The class is the name without its index, share and reward.
        let words: Vec<&str> = s.name.split(' ').collect();
        let class = format!("{} {} {}", words[1], words[4], words[5]);
        classes.entry(class).or_default().push(i);
    }
    let mut classes: Vec<Vec<usize>> = classes.into_values().collect();
    for members in &mut classes {
        rng.shuffle(members);
    }
    let mut order = Vec::with_capacity(universe.len());
    while order.len() < universe.len() {
        rng.shuffle(&mut classes);
        order.extend(classes.iter_mut().filter_map(Vec::pop));
    }
    (0..CLIENTS)
        .map(|c| {
            let mut pool: Vec<usize> = order.iter().copied().skip(c).step_by(CLIENTS).collect();
            pool.reverse();
            let mut used: Vec<usize> = Vec::new();
            let mut plan = Plan {
                batches: Vec::new(),
                posts: Vec::new(),
            };
            let mut kinds = Vec::new();
            let mut sizes = Vec::new();
            for _ in 0..submissions / CLIENTS {
                if kinds.is_empty() {
                    kinds = [
                        [Kind::Fresh; 3].as_slice(),
                        &[Kind::Overlap; 2],
                        &[Kind::Replay; 5],
                    ]
                    .concat();
                    rng.shuffle(&mut kinds);
                    if plan.batches.is_empty() {
                        let first = kinds
                            .iter()
                            .position(|&k| k == Kind::Fresh)
                            .expect("a fresh post per block");
                        let last = kinds.len() - 1;
                        kinds.swap(first, last);
                    }
                }
                let kind = kinds.pop().expect("refilled above");
                let new = match kind {
                    Kind::Fresh => {
                        if sizes.is_empty() {
                            sizes = vec![1, 2, 3];
                            rng.shuffle(&mut sizes);
                        }
                        sizes.pop().expect("refilled above")
                    }
                    Kind::Overlap => 1,
                    Kind::Replay => 0,
                };
                if new > pool.len() {
                    return Err(std::io::Error::other(format!(
                        "serve-mix: {submissions} posts need more new scenarios than the \
                         {} of the universe; use fewer --seconds",
                        universe.len()
                    )));
                }
                if kind == Kind::Replay {
                    plan.posts.push((kind, rng.below(plan.batches.len())));
                    continue;
                }
                let mut scenarios: Vec<usize> = (0..new).filter_map(|_| pool.pop()).collect();
                if kind == Kind::Overlap {
                    let mut old = used.clone();
                    rng.shuffle(&mut old);
                    scenarios.extend(old.into_iter().take(1 + rng.below(2)));
                    rng.shuffle(&mut scenarios);
                }
                for &s in &scenarios {
                    if !used.contains(&s) {
                        used.push(s);
                    }
                }
                let text = scenarios
                    .iter()
                    .map(|&s| universe[s].text.as_str())
                    .collect();
                plan.posts.push((kind, plan.batches.len()));
                plan.batches.push(Batch { text, scenarios });
            }
            Ok(plan)
        })
        .collect()
}

/// What a client saw for one post.
#[derive(Debug)]
struct Outcome {
    kind: Kind,
    ok: bool,
    latency_ms: f64,
    first_event_ms: f64,
    queue_wait_ms: Option<f64>,
    run_ms: Option<f64>,
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &Tracer) -> std::io::Result<()> {
    let universe = universe();
    let submissions = (SUBMISSIONS_PER_SECOND * ctx.seconds) as usize;
    let plans = plans(ctx.seed, submissions, &universe)?;
    let serve_bin = ctx.exe.with_file_name("fairness-serve");

    // Daemon starts timed per run, half before and half after the loop.
    let mut setups = Vec::with_capacity(SETUP_SAMPLES + 1);
    let sample_setups = |setups: &mut Vec<f64>, n: usize, report: &mut Report| {
        for _ in 0..n {
            let dir = ctx.work.join(format!("setup-{}", setups.len()));
            let (mut daemon, addr, ready, stdout) = start_daemon(&serve_bin, &dir, tracer)?;
            setups.push(ready);
            stop_daemon(&mut daemon, addr, stdout, report);
        }
        std::io::Result::Ok(())
    };
    sample_setups(&mut setups, SETUP_SAMPLES / 2, report)?;
    let out = ctx.work.join("out");
    let (mut daemon, addr, ready, stdout) = start_daemon(&serve_bin, &out, tracer)?;
    setups.push(ready);
    let observer = Observer::start(daemon.0.id());

    let started = Instant::now();
    let results: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| scope.spawn(move || client(addr, c, plan, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let usage = observer.finish();

    // Oracle: every distinct batch has a report; every scenario CSV
    // matches the universe's golden digest.
    let metrics_text = get(addr, "/metrics", tracer)
        .map(|r| r.1)
        .unwrap_or_default();
    let batches: Vec<&Batch> = plans.iter().flat_map(|p| &p.batches).collect();
    let paths: Vec<String> = batches
        .iter()
        .map(|b| {
            format!(
                "/v1/jobs/{}/report",
                batch_fingerprint(&b.text).unwrap_or_default()
            )
        })
        .collect();
    let mut bodies = vec![String::new(); batches.len()];
    std::thread::scope(|scope| {
        // Several fetchers at once, so the daemon's accept poll is paid
        // once per round of fetches rather than once per report.
        let fetchers: Vec<_> = (0..REPORT_FETCHERS)
            .map(|f| {
                let paths = &paths;
                scope.spawn(move || {
                    (f..paths.len())
                        .step_by(REPORT_FETCHERS)
                        .map(|i| match get(addr, &paths[i], tracer) {
                            Ok((200, body)) => (i, body),
                            _ => (i, String::new()),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for fetcher in fetchers {
            for (i, body) in fetcher.join().expect("report fetcher panicked") {
                bodies[i] = body;
            }
        }
    });
    let mut digests = String::new();
    for ((batch, path), body) in batches.iter().zip(&paths).zip(&bodies) {
        let named = batch
            .scenarios
            .iter()
            .all(|&s| body.contains(&format!("\"{}\"", universe[s].name)));
        report.check(!body.is_empty() && named, || {
            format!("report for batch {path} is missing or incomplete")
        });
        digests.push_str(&format!("{path} {}\n", sha256_hex(body.as_bytes())));
    }
    std::fs::write(ctx.work.join("report_digests.txt"), digests)?;
    stop_daemon(&mut daemon, addr, stdout, report);
    sample_setups(&mut setups, SETUP_SAMPLES - SETUP_SAMPLES / 2, report)?;

    let golden = parse_manifest(GOLDEN);
    let mut checked: Vec<usize> = plans
        .iter()
        .flat_map(|p| p.batches.iter().flat_map(|b| b.scenarios.iter().copied()))
        .collect();
    checked.sort_unstable();
    checked.dedup();
    let specs = fairness_core::scenario::text::parse_scenarios(
        &checked
            .iter()
            .map(|&s| universe[s].text.as_str())
            .collect::<String>(),
    )
    .map_err(|e| std::io::Error::other(format!("generated scenarios do not parse: {e}")))?;
    for spec in &specs {
        let file = format!("scn_{}.csv", spec.slug());
        let actual = std::fs::read(out.join(&file)).map(|b| sha256_hex(&b)).ok();
        report.check(
            actual.is_some() && actual.as_ref() == golden.get(&file),
            || format!("{file} is missing or differs from the golden digest"),
        );
    }
    let spill = fairness_bench::experiments::diskcache::scan(&out.join(".cache"))?;
    report.check(spill.removable() == 0, || {
        format!(
            "{} corrupt or leftover files in the disk spill",
            spill.removable()
        )
    });

    let all: Vec<&Outcome> = results.iter().flatten().collect();
    for o in &all {
        report.check(o.ok, || "a submission failed (see above)".into());
    }
    let pick = |f: fn(&Outcome) -> Option<f64>, kinds: &[Kind]| -> Vec<f64> {
        all.iter()
            .filter(|o| kinds.contains(&o.kind))
            .filter_map(|o| f(o))
            .collect()
    };
    let fresh = pick(|o| Some(o.latency_ms), &[Kind::Fresh, Kind::Overlap]);
    let replay = pick(|o| Some(o.latency_ms), &[Kind::Replay]);
    report.set("wall_s", wall_s, "s");
    report.set("setup_s", median(&setups), "s");
    report.set("peak_rss_mib", usage.peak_rss_mib, "MiB");
    report.set("fresh_p50_ms", hd_quantile(&fresh, 0.5), "ms");
    report.set("fresh_p90_ms", hd_quantile(&fresh, 0.9), "ms");
    report.set("replay_p50_ms", hd_quantile(&replay, 0.5), "ms");
    report.set("replay_p90_ms", hd_quantile(&replay, 0.9), "ms");
    report.set("jobs_per_s", all.len() as f64 / wall_s, "1/s");
    for (label, samples) in [("fresh", &fresh), ("replay", &replay)] {
        let tail = reportable_tail(samples.len()).map_or("none".to_owned(), |p| {
            format!(
                "p{p} = {:.3} ms",
                hd_quantile(samples, f64::from(p) / 100.0)
            )
        });
        report.note(format!(
            "serve-mix: {label}: {} samples, highest tail with ten samples beyond: {tail}",
            samples.len()
        ));
    }
    let overlaps = all.iter().filter(|o| o.kind == Kind::Overlap).count();
    report.note(format!(
        "serve-mix: {} submissions from {CLIENTS} clients ({overlaps} of the fresh ones overlap), \
         {} distinct scenarios, set-up median of {} daemon starts",
        all.len(),
        specs.len(),
        setups.len()
    ));

    let counter = |name: &str| -> u64 {
        metrics_text
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or(0)
    };
    layer_counters(
        report,
        &usage,
        wall_s,
        counter("fairness_ensemble_cache_hits_total "),
        counter("fairness_ensemble_cache_misses_total "),
        counter("fairness_ensemble_disk_hits_total "),
    );
    report.set(
        "service.deduped",
        counter("fairness_jobs_deduped_total ") as f64,
        "count",
    );
    report.set("spill.entries", spill.entries as f64, "count");
    report.set("spill.bytes", spill.bytes as f64, "bytes");
    report.set(
        "service.queue_wait_ms",
        median(&pick(|o| o.queue_wait_ms, &[Kind::Fresh, Kind::Overlap])),
        "ms",
    );
    report.set(
        "service.run_ms",
        median(&pick(|o| o.run_ms, &[Kind::Fresh, Kind::Overlap])),
        "ms",
    );
    report.set(
        "http.first_event_ms",
        median(&pick(
            |o| Some(o.first_event_ms),
            &[Kind::Fresh, Kind::Overlap, Kind::Replay],
        )),
        "ms",
    );
    Ok(())
}

/// The job fingerprint the daemon assigns a batch.
fn batch_fingerprint(text: &str) -> Option<String> {
    let specs = fairness_core::scenario::text::parse_scenarios(text).ok()?;
    Some(format!(
        "{:016x}",
        fairness_bench::service::batch_fingerprint(&specs)
    ))
}

fn client(addr: SocketAddr, c: usize, plan: &Plan, tracer: &Tracer) -> Vec<Outcome> {
    let mut first_streams: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    let mut outcomes = Vec::with_capacity(plan.posts.len());
    for (i, &(kind, b)) in plan.posts.iter().enumerate() {
        let batch = &plan.batches[b];
        let request = ((c as u64) << 32) | i as u64;
        let open = tracer.start();
        let sent = Instant::now();
        let result = post_stream(addr, batch.text.as_bytes());
        let ms = |t: Instant| t.duration_since(sent).as_secs_f64() * 1e3;
        let outcome = match result {
            Ok((status, lines)) => {
                let body: Vec<u8> = lines.iter().flat_map(|(_, l)| l.bytes()).collect();
                let at = |event: &str| {
                    let tag = format!("\"event\":\"{event}\"");
                    lines
                        .iter()
                        .find(|(_, l)| l.contains(&tag))
                        .map(|(t, _)| *t)
                };
                let done = lines.last().filter(|(_, l)| {
                    l.contains(&format!(
                        "\"event\":\"done\",\"scenarios\":{}}}",
                        batch.scenarios.len()
                    ))
                });
                let events = lines
                    .iter()
                    .filter(|(_, l)| l.contains("\"event\":\"scenario\""))
                    .count();
                let same_as_first = match first_streams.get(&b) {
                    Some(first) => *first == body,
                    None => {
                        first_streams.insert(b, body);
                        true
                    }
                };
                let ok = status == 200
                    && done.is_some()
                    && events == batch.scenarios.len()
                    && same_as_first;
                if !ok {
                    eprintln!(
                        "perfbench: client {c} post {i} ({kind:?}): status {status}, done {}, \
                         {events} scenario events, identical to first stream: {same_as_first}",
                        done.is_some()
                    );
                }
                let end = done.map_or_else(Instant::now, |(t, _)| *t);
                let parent = tracer.finish(
                    open,
                    "serve.http:POST /v1/scenarios",
                    0,
                    request,
                    batch.scenarios.len() as u64,
                );
                if let Some((t, _)) = lines.first() {
                    tracer.record("serve.http:first_event", parent, request, sent, *t, 1);
                }
                let (queued, started) = (at("queued"), at("started"));
                if let (Some(q), Some(s)) = (queued, started) {
                    tracer.record("bench.service:queued->started", parent, request, q, s, 1);
                    tracer.record("bench.service:started->done", parent, request, s, end, 1);
                }
                Outcome {
                    kind,
                    ok,
                    latency_ms: ms(end),
                    first_event_ms: lines.first().map_or(f64::NAN, |(t, _)| ms(*t)),
                    queue_wait_ms: queued
                        .zip(started)
                        .map(|(q, s)| s.duration_since(q).as_secs_f64() * 1e3),
                    run_ms: started.map(|s| end.duration_since(s).as_secs_f64() * 1e3),
                }
            }
            Err(e) => {
                eprintln!("perfbench: client {c} post {i}: {e}");
                Outcome {
                    kind,
                    ok: false,
                    latency_ms: ms(Instant::now()),
                    first_event_ms: f64::NAN,
                    queue_wait_ms: None,
                    run_ms: None,
                }
            }
        };
        outcomes.push(outcome);
    }
    outcomes
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Reads a response head; returns the status code.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<u16> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" {
            return Ok(status);
        }
    }
}

/// Posts a batch and reads the NDJSON stream, stamping each line as it
/// arrives.
fn post_stream(addr: SocketAddr, body: &[u8]) -> std::io::Result<(u16, Vec<(Instant, String)>)> {
    let mut stream = connect(addr)?;
    write!(
        stream,
        "POST /v1/scenarios HTTP/1.1\r\nHost: {addr}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let status = read_head(&mut reader)?;
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok((status, lines));
        }
        lines.push((Instant::now(), line));
    }
}

fn get(addr: SocketAddr, path: &str, tracer: &Tracer) -> std::io::Result<(u16, String)> {
    request(addr, "GET", path, tracer)
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tracer: &Tracer,
) -> std::io::Result<(u16, String)> {
    let open = tracer.start();
    let mut stream = connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let status = read_head(&mut reader)?;
    let mut body = String::new();
    reader.read_to_string(&mut body)?;
    tracer.finish(
        open,
        &format!(
            "serve.http:{method} {}",
            path.split('/').take(3).collect::<Vec<_>>().join("/")
        ),
        0,
        0,
        body.len() as u64,
    );
    Ok((status, body))
}

/// Starts a daemon on an ephemeral port; returns it with its address, the
/// seconds until `GET /metrics` answered 200, and its stdout.
fn start_daemon(
    bin: &Path,
    out: &Path,
    tracer: &Tracer,
) -> std::io::Result<(Reaped, SocketAddr, f64, BufReader<ChildStdout>)> {
    let open = tracer.start();
    let started = Instant::now();
    let mut daemon = Reaped(
        Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--quick", "--jobs", "2", "--out"])
            .arg(out)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?,
    );
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("daemon stdout is piped"));
    let mut line = String::new();
    stdout.read_line(&mut line)?;
    let addr: SocketAddr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| {
            std::io::Error::other(format!("daemon did not report its address: {line:?}"))
        })?;
    let deadline = started + Duration::from_secs(30);
    // Poll like an orchestrator would, every millisecond; the first try
    // waits one too, so it never races the daemon's first accept.
    loop {
        std::thread::sleep(Duration::from_millis(1));
        if let Ok((200, _)) = get(addr, "/metrics", &Tracer::new(false)) {
            break;
        }
        if Instant::now() > deadline {
            return Err(std::io::Error::other("daemon never answered GET /metrics"));
        }
    }
    let ready = started.elapsed().as_secs_f64();
    tracer.finish(open, "serve:start->ready", 0, 0, 1);
    Ok((daemon, addr, ready, stdout))
}

/// Drains the daemon through its admin endpoint and checks it exits 0.
fn stop_daemon(
    daemon: &mut Reaped,
    addr: SocketAddr,
    mut stdout: BufReader<ChildStdout>,
    report: &mut Report,
) {
    let drained = matches!(
        request(addr, "POST", "/admin/drain", &Tracer::new(false)),
        Ok((200, _))
    );
    let mut rest = String::new();
    let _ = stdout.read_to_string(&mut rest);
    let exited = daemon.wait_within(Duration::from_secs(60));
    report.check(drained && exited, || {
        "daemon did not drain and exit cleanly".into()
    });
}
