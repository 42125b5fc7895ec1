//! `net_light`: an in-process `NetServer` on loopback (2 workers,
//! quotas on for 4 tenants with limits far above the load) serving the
//! synthetic trace at payload scale 1 over 2 `NetClient` connections,
//! one generator thread each, each keeping a fixed window of requests
//! in flight (closed loop).

use crate::calib::HostSpeed;
use crate::report::Report;
use crate::serve_heavy::trace;
use crate::spans::Spans;
use crate::stats::{self, Metric};
use fpfpga_net::client::{NetClient, Response};
use fpfpga_net::wire::{
    decode_result, decode_spec, encode_result, encode_spec, write_frame, Frame, FrameKind,
};
use fpfpga_net::{
    NetConfig, NetServer, QuotaBook, QuotaConfig, QuotaLimits, ServerReport, StopHandle,
};
use fpfpga_serve::{JobResult, JobSpec, ServeConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const WINDOW: usize = 16;
const TENANTS: usize = 4;
const TRACE_JOBS: usize = 4000;
const SEGMENTS: usize = 10;
const SETUPS: usize = 9;
const PAYLOAD_SCALE: usize = 1;

fn tenant(i: usize) -> String {
    format!("tenant{}", i % TENANTS)
}

fn quotas() -> QuotaConfig {
    // Limits far above anything two connections can send, so every
    // request is metered by QuotaBook::admit and none is refused.
    let limits = QuotaLimits {
        ops_per_s: Some(1e9),
        bytes_per_s: Some(1e12),
    };
    (0..TENANTS).fold(QuotaConfig::default(), |q, t| {
        q.with_tenant(tenant(t), limits)
    })
}

fn config() -> NetConfig {
    NetConfig {
        serve: ServeConfig::with_workers(2),
        quotas: quotas(),
        ..NetConfig::default()
    }
}

/// The trace with its tenants assigned round-robin; the oracle is
/// unchanged by tenancy (trace jobs pin their precision policy).
fn workload(seed: u64) -> (Vec<JobSpec>, Vec<JobResult>) {
    // Arrival times are unused: the closed loop sends on completions.
    let (events, oracle) = trace(seed, TRACE_JOBS, PAYLOAD_SCALE, 20_000.0);
    let specs = events
        .into_iter()
        .enumerate()
        .map(|(i, e)| e.spec.for_tenant(tenant(i)))
        .collect();
    (specs, oracle)
}

struct Live {
    server: JoinHandle<ServerReport>,
    stop: StopHandle,
    clients: Vec<NetClient>,
}

/// Bind, start the server, connect every client and ping it through,
/// so the first timed request meets a running connection.
fn start() -> std::io::Result<Live> {
    let server = NetServer::bind("127.0.0.1:0", config())?;
    let addr = server.local_addr()?;
    let stop = server.stop_handle();
    let server = std::thread::spawn(move || server.run());
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut c = NetClient::connect(addr)?;
        c.ping().map_err(|e| std::io::Error::other(e.to_string()))?;
        clients.push(c);
    }
    Ok(Live {
        server,
        stop,
        clients,
    })
}

fn finish(live: Live) -> ServerReport {
    for c in live.clients {
        let _ = c.goodbye();
    }
    live.stop.stop();
    live.server.join().expect("server thread panicked")
}

/// Set-up (bind + server start + connect), median of several; the last
/// server is kept for the run.
fn start_timed(report: &mut Report) -> Option<(Live, Vec<f64>)> {
    let mut setups = Vec::new();
    loop {
        let t = Instant::now();
        let live = match start() {
            Ok(l) => l,
            Err(e) => {
                report.fail(format!("net server set-up failed: {e}"));
                return None;
            }
        };
        setups.push(t.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            return Some((live, setups));
        }
        finish(live);
    }
}

#[derive(Default)]
struct ConnRun {
    /// send → response, ns.
    latency: Vec<u64>,
    completed: u64,
    report: Report,
    spans: Option<Spans>,
}

/// One connection's closed loop over its share of the trace.
fn drive(
    client: &mut NetClient,
    conn: usize,
    specs: &[JobSpec],
    oracle: &[JobResult],
    until: Instant,
    mut sp: Spans,
) -> ConnRun {
    let mine: Vec<usize> = (conn..specs.len()).step_by(CONNECTIONS).collect();
    let mut run = ConnRun::default();
    let mut inflight: VecDeque<(u64, usize, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut next = 0usize;
    loop {
        while inflight.len() < WINDOW && Instant::now() < until {
            let idx = mine[next % mine.len()];
            next += 1;
            let t = Instant::now();
            run.report.attempted += 1;
            match client.send(&specs[idx]) {
                Ok(id) => {
                    sp.push("net.send", t, Instant::now(), 0, idx as u64);
                    inflight.push_back((id, idx, t));
                }
                Err(e) => {
                    run.report.fail(format!("net send failed: {e}"));
                    break;
                }
            }
        }
        let Some(&(want_id, idx, sent)) = inflight.front() else {
            break;
        };
        match client.recv() {
            Ok((id, resp)) => {
                let now = Instant::now();
                inflight.pop_front();
                sp.push("net.request", sent, now, 0, idx as u64);
                run.latency
                    .push(now.saturating_duration_since(sent).as_nanos() as u64);
                run.completed += 1;
                match resp {
                    Response::Completed(r) if id == want_id && r == oracle[idx] => {}
                    Response::Completed(_) => run
                        .report
                        .fail(format!("net job {idx}: response differs from run_serial")),
                    Response::Rejected(rej) => run
                        .report
                        .fail(format!("net job {idx}: rejected ({rej:?})")),
                }
            }
            Err(e) => {
                run.report.fail(format!(
                    "net recv failed with {} in flight: {e}",
                    inflight.len()
                ));
                break;
            }
        }
    }
    run.spans = Some(sp);
    run
}

/// Both connections until `until`; returns (jobs completed, seconds,
/// latencies).
fn serve(
    live: &mut Live,
    specs: &[JobSpec],
    oracle: &[JobResult],
    until: Instant,
    sp: &mut Spans,
    report: &mut Report,
) -> (u64, f64, Vec<u64>) {
    let t0 = Instant::now();
    let runs: Vec<ConnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let csp = sp.sibling();
                s.spawn(move || drive(client, c, specs, oracle, until, csp))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let (mut done, mut lat) = (0, Vec::new());
    for mut r in runs {
        done += r.completed;
        lat.extend(r.latency);
        report.attempted += r.report.attempted;
        report.failed += r.report.failed;
        report.errors.extend(r.report.errors);
        if let Some(s) = r.spans.take() {
            sp.absorb(s);
        }
    }
    (done, secs, lat)
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let (specs, oracle) = workload(seed);
    let Some((mut live, setups)) = start_timed(report) else {
        return;
    };
    let mut off = Spans::off();
    let mut host = HostSpeed::default();
    // Segments end with every request answered, so the host is probed
    // between them with the server idle; each segment is one sample of
    // the rate and of the latency percentiles.
    let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let (mut done, mut secs, mut rates, mut lat) = (0, 0.0, Vec::new(), Vec::new());
    for _ in 0..SEGMENTS {
        let k = host.sample();
        let (d, s, l) = serve(
            &mut live,
            &specs,
            &oracle,
            Instant::now() + segment,
            &mut off,
            report,
        );
        done += d;
        secs += s;
        rates.push(d as f64 / (s * k));
        lat.push(l);
    }
    let rep = finish(live);
    report.check(rep.net.rejects == 0 && rep.net.protocol_errors == 0, || {
        format!(
            "net server counted {} rejects, {} protocol errors",
            rep.net.rejects, rep.net.protocol_errors
        )
    });
    report.metric(Metric::new(
        "throughput_per_s",
        stats::median(&rates),
        "1/s",
        done,
    ));
    let [p50, p99] = stats::grouped_p50_p99("latency", "_us", "us", &lat, 1);
    report.metric(p50);
    report.info(p99);
    report.metric(Metric::new(
        "setup_s",
        stats::median(&setups),
        "s",
        setups.len() as u64,
    ));
    report.info(Metric::new(
        "host.probe_scale",
        host.scale(),
        "frac",
        host.samples(),
    ));
    report.info(Metric::new(
        "jobs_per_s.raw",
        done as f64 / secs,
        "1/s",
        done,
    ));
}

fn frame_len(kind: FrameKind, body: Vec<u8>) -> usize {
    let mut buf = Vec::new();
    write_frame(
        &mut buf,
        &Frame {
            kind,
            req_id: 1,
            body,
        },
    )
    .expect("frames under the cap encode");
    buf.len()
}

/// The traced net layer: the closed loop (for `slice`) with a span around every
/// `NetClient::send` and request, the wire codec and quota admission
/// timed on the trace's own specs and results, and the server's
/// transport counters.
pub fn layer(
    seed: u64,
    slice: Duration,
    overhead: bool,
    sp: &mut Spans,
    report: &mut Report,
) -> Vec<Metric> {
    let (specs, oracle) = workload(seed);
    let mut m = Vec::new();
    let Some((mut live, _)) = start_timed(report) else {
        return m;
    };
    if overhead {
        let mut off = Spans::off();
        let (d0, s0, _) = serve(
            &mut live,
            &specs,
            &oracle,
            Instant::now() + slice,
            &mut off,
            report,
        );
        let (d1, s1, _) = serve(
            &mut live,
            &specs,
            &oracle,
            Instant::now() + slice,
            sp,
            report,
        );
        m.push(Metric::new(
            "trace_overhead_frac",
            (d0 as f64 / s0) / (d1 as f64 / s1) - 1.0,
            "frac",
            d0 + d1,
        ));
    } else {
        serve(
            &mut live,
            &specs,
            &oracle,
            Instant::now() + slice,
            sp,
            report,
        );
    }
    let rep = finish(live);

    let bodies: Vec<Vec<u8>> = specs.iter().map(encode_spec).collect();
    let results: Vec<Vec<u8>> = oracle.iter().map(encode_result).collect();
    for (i, b) in bodies.iter().enumerate() {
        let ok = decode_spec(b)
            .map(|s| encode_spec(&s) == *b)
            .unwrap_or(false);
        report.check(ok, || {
            format!("net job {i}: spec does not survive an encode/decode round trip")
        });
    }
    for (i, b) in results.iter().enumerate() {
        report.check(decode_result(b).ok().as_ref() == Some(&oracle[i]), || {
            format!("net job {i}: result does not survive an encode/decode round trip")
        });
    }
    let n = specs.len() as u64;
    m.push(Metric::new(
        "net.encode_spec_ns",
        stats::per_call(&specs, 5, |s| drop(black_box(encode_spec(s)))),
        "ns",
        n,
    ));
    m.push(Metric::new(
        "net.decode_spec_ns",
        stats::per_call(&bodies, 5, |b| drop(black_box(decode_spec(b)))),
        "ns",
        n,
    ));
    m.push(Metric::new(
        "net.encode_result_ns",
        stats::per_call(&oracle, 5, |r| drop(black_box(encode_result(r)))),
        "ns",
        n,
    ));
    m.push(Metric::new(
        "net.decode_result_ns",
        stats::per_call(&results, 5, |b| drop(black_box(decode_result(b)))),
        "ns",
        n,
    ));
    let req_bytes: usize = bodies
        .iter()
        .map(|b| frame_len(FrameKind::Request, b.clone()))
        .sum();
    let resp_bytes: usize = results
        .iter()
        .map(|b| frame_len(FrameKind::Response, b.clone()))
        .sum();
    m.push(Metric::new(
        "net.req_bytes_mean",
        req_bytes as f64 / n as f64,
        "bytes",
        n,
    ));
    m.push(Metric::new(
        "net.resp_bytes_mean",
        resp_bytes as f64 / n as f64,
        "bytes",
        n,
    ));
    let book = QuotaBook::new(quotas());
    let admits: Vec<(String, u64)> = specs
        .iter()
        .zip(&bodies)
        .map(|(s, b)| (s.tenant.clone().unwrap_or_default(), b.len() as u64))
        .collect();
    let mut refused = 0u64;
    let admit_ns = stats::per_call(&admits, 5, |(t, bytes)| {
        refused += book.admit(Some(t), *bytes, Instant::now()).is_err() as u64;
    });
    report.check(refused == 0, || {
        format!("QuotaBook::admit refused {refused} requests under far-away limits")
    });
    m.push(Metric::new("net.quota_admit_ns", admit_ns, "ns", n));
    let sends = sp.durations("net.send");
    m.extend(stats::p50_p99("net.send_ns", "", "ns", &sends));
    let frames = rep.net.requests;
    m.push(Metric::new(
        "net.frames_in",
        rep.net.frames_in as f64,
        "count",
        frames,
    ));
    m.push(Metric::new(
        "net.frames_out",
        rep.net.frames_out as f64,
        "count",
        frames,
    ));
    m.push(Metric::new(
        "net.rejects",
        rep.net.rejects as f64,
        "count",
        frames,
    ));
    m.push(Metric::new(
        "net.protocol_errors",
        rep.net.protocol_errors as f64,
        "count",
        frames,
    ));
    report.check(rep.net.rejects == 0 && rep.net.protocol_errors == 0, || {
        format!(
            "net server counted {} rejects, {} protocol errors",
            rep.net.rejects, rep.net.protocol_errors
        )
    });
    m
}
