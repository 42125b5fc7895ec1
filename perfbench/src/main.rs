//! The fpfpga benchmark: one command, four workloads, end-to-end
//! metrics untraced and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <matmul_sim|serve_heavy|net_light|conform_sweep>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count) and,
//! last, one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Exits 0 only when every output matched its oracle. Result and span
//! files are written only under an explicitly given `--out`. See
//! README.md beside this crate for the workloads and what each metric
//! should move.

mod calib;
mod conform_sweep;
mod host;
mod layers;
mod matmul_sim;
mod net_light;
mod report;
mod rng;
mod serve_heavy;
mod spans;
mod stats;

use report::Report;
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    MatmulSim,
    ServeHeavy,
    NetLight,
    ConformSweep,
}

impl Workload {
    const ALL: [(Workload, &'static str); 4] = [
        (Workload::MatmulSim, "matmul_sim"),
        (Workload::ServeHeavy, "serve_heavy"),
        (Workload::NetLight, "net_light"),
        (Workload::ConformSweep, "conform_sweep"),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(w, _)| *w == self)
            .map(|(_, n)| *n)
            .expect("every workload is named")
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.iter().find(|(_, n)| *n == s).map(|(w, _)| *w)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <matmul_sim|serve_heavy|net_light|conform_sweep> \
--seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Every workload's end-to-end metrics, tracing off.
fn untraced(a: &Args, report: &mut Report) {
    match a.workload {
        Workload::MatmulSim => matmul_sim::run(a.seed, a.seconds, report),
        Workload::ServeHeavy => serve_heavy::run(a.seed, a.seconds, report),
        Workload::NetLight => net_light::run(a.seed, a.seconds, report),
        Workload::ConformSweep => conform_sweep::run(a.seed, a.seconds, report),
    }
}

/// The traced run: every layer, each timed from this crate around its
/// public calls, so every per-layer metric comes out of every workload's
/// traced run. The workload itself only decides whose tracing overhead
/// is measured (its section runs once untraced as well).
fn traced(a: &Args, sp: &mut Spans, report: &mut Report) {
    let w = a.workload;
    let slice = Duration::from_secs_f64(a.seconds / 10.0);
    let (mut m, fpu_arith) = layers::batches(a.seed, report);
    m.extend(layers::per_case(a.seed));
    m.extend(matmul_sim::layer(
        a.seed,
        fpu_arith,
        w == Workload::MatmulSim,
        sp,
        report,
    ));
    m.extend(serve_heavy::layer(
        a.seed,
        slice,
        w == Workload::ServeHeavy,
        sp,
        report,
    ));
    m.extend(net_light::layer(
        a.seed,
        slice,
        w == Workload::NetLight,
        sp,
        report,
    ));
    m.extend(conform_sweep::layer(
        a.seed,
        w == Workload::ConformSweep,
        sp,
        report,
    ));
    for x in m {
        report.metric(x);
    }
}

fn write_out(dir: &PathBuf, a: &Args, doc: &str, sp: &Spans) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}.trace{}", a.workload.name(), a.trace as u8);
    std::fs::write(dir.join(format!("{stem}.json")), doc)?;
    if a.trace {
        let mut w = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.spans.jsonl")),
        )?);
        sp.write_jsonl(&mut w)?;
        w.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let forbidden = host::forbidden_env();
    if !forbidden.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each changes which program is measured",
            forbidden.join(", ")
        );
        return ExitCode::from(2);
    }
    let fp = host::Fingerprint::take();
    println!("host: {}", fp.to_json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8
    );
    let mut report = Report::default();
    let mut sp = Spans::new(Instant::now(), a.trace);
    if a.trace {
        traced(&a, &mut sp, &mut report);
    } else {
        untraced(&a, &mut report);
    }
    print!("{}", report.table());
    if let Some(dir) = &a.out {
        let header = format!(
            "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"spans\":{}",
            report::json_str(a.workload.name()),
            a.seed,
            report::json_num(a.seconds),
            a.trace,
            fp.to_json(),
            sp.len()
        );
        if let Err(e) = write_out(dir, &a, &report.document(&header), &sp) {
            report.fail(format!("writing results under {}: {e}", dir.display()));
        }
    }
    println!("{}", report.contract_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
