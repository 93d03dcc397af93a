//! `perfbench` — times the paper's three workflows end to end and, in a
//! separate traced run, replays them layer by layer.
//!
//! ```text
//! perfbench --workload <table1-grid2d|table2-pg|table3-grid3d>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed makes the inputs; they are generated before any timer
//! starts and reach the program as a Matrix Market file under
//! `.perfbench/`. With `--trace 0` the run repeats the workload until
//! `--seconds` of repetitions are measured (at least [`MIN_REPS`]) and
//! reports each phase's median. With `--trace 1` it runs the workload
//! once untraced, then with tracing on once more and replays every
//! layer, writes the span tree and reports the per-layer metrics. Every
//! output is checked; the last stdout line is the JSON result and a
//! failed check exits 1.

mod calls;
mod replay;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use replay::median;
use workloads::{Phases, Sizes, Workload};

/// Repetitions a `--trace 0` run measures at the least. One suffices:
/// each repetition already samples set-up three times and every phase
/// shorter than a second two or three times, and on a host whose speed
/// drifts by tens of percent over minutes, short runs keep a set of
/// runs inside one short window.
const MIN_REPS: usize = 1;
/// Directory, relative to the working directory, for inputs and traces.
const WORK_DIR: &str = ".perfbench";

/// Operations attempted and failed, with what failed.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations run (phase calls and one-off checks).
    pub attempted: usize,
    /// Operations whose output failed a check.
    pub failed: usize,
    /// What failed, one line each.
    pub problems: Vec<String>,
}

impl Ledger {
    /// Books one operation; it failed if `problems` is non-empty.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }
}

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds '{value}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A run's result: what the JSON result line reports, and informational
/// fields.
struct Output {
    ledger: Ledger,
    metrics: Vec<(&'static str, f64, &'static str)>,
    info: Vec<(&'static str, String)>,
}

/// The process's high-water resident set (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

const MIB: f64 = 1024.0 * 1024.0;

/// Runs one workload at `sizes`; `min_reps` bounds a `--trace 0` run
/// from below.
fn run(args: &Args, sizes: Sizes, min_reps: usize, dir: &Path) -> Result<Output, String> {
    let inputs = workloads::prepare(args.workload, args.seed, sizes, dir)?;
    let result = if args.trace {
        run_traced(&inputs, dir)
    } else {
        run_timed(&inputs, args.seconds, min_reps)
    };
    std::fs::remove_file(&inputs.mtx)
        .map_err(|e| format!("remove {}: {e}", inputs.mtx.display()))?;
    let mut out = result?;
    out.info.extend([
        ("workload", format!("\"{}\"", args.workload.name())),
        ("seed", args.seed.to_string()),
        ("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("pool_size", calls::pool_size().to_string()),
        ("threads", "1".to_string()),
        ("factor_threads", "1".to_string()),
    ]);
    Ok(out)
}

/// Fingerprints of a run's deterministic outputs.
fn fingerprints(q: &workloads::Quality) -> Vec<(&'static str, String)> {
    vec![
        ("edge_digest", format!("\"{:016x}\"", q.edge_digest)),
        ("factor_nnz", q.factor_nnz.to_string()),
        ("direct_nnz", q.direct_nnz.to_string()),
        ("pcg_iterations", q.pcg_total.to_string()),
        ("transient_steps", q.steps.to_string()),
    ]
}

/// `--trace 0`: repetitions until `seconds` are measured; medians.
fn run_timed(inputs: &workloads::Inputs, seconds: f64, min_reps: usize) -> Result<Output, String> {
    let mut ledger = Ledger::default();
    let mut net = None;
    let mut reps: Vec<Phases> = Vec::new();
    let mut quality = None;
    let mut measured = 0.0;
    loop {
        let t = Instant::now();
        let rep = workloads::run_rep(inputs, &mut net)?;
        let rep_s = t.elapsed().as_secs_f64();
        measured += rep_s;
        workloads::check_rep(inputs, &rep, &mut ledger);
        let r = &rep.times;
        eprintln!(
            "perfbench: rep {} ({rep_s:.2} s): setup {:.3?} sparsify {:.3?} grass {:.3?} solve {:.3?} direct {:.3?} contingency {:.3?}",
            reps.len() + 1,
            r.setup,
            r.sparsify,
            r.grass,
            r.solve,
            r.direct,
            r.contingency
        );
        if quality.is_none() {
            quality = Some(workloads::quality(inputs, &rep, &mut ledger)?);
        }
        reps.push(rep.times);
        if reps.len() >= min_reps && measured + rep_s > seconds {
            break;
        }
    }
    let q = quality.expect("at least one repetition ran");
    let phase = |f: fn(&Phases) -> &Vec<f64>| {
        median(&reps.iter().flat_map(|r| f(r).iter().copied()).collect::<Vec<_>>())
    };
    let metrics = vec![
        ("setup_s", phase(|r| &r.setup), "s"),
        ("sparsify_s", phase(|r| &r.sparsify), "s"),
        ("grass_s", phase(|r| &r.grass), "s"),
        ("solve_s", phase(|r| &r.solve), "s"),
        ("direct_s", phase(|r| &r.direct), "s"),
        ("contingency_s", phase(|r| &r.contingency), "s"),
        ("kappa", q.kappa, "1"),
        ("pcg_iters", q.pcg_iters, "1"),
        ("factor_mib", q.factor_bytes as f64 / MIB, "MiB"),
        ("direct_mib", q.direct_bytes as f64 / MIB, "MiB"),
        ("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ];
    let mut info = fingerprints(&q);
    info.push(("reps", reps.len().to_string()));
    Ok(Output { ledger, metrics, info })
}

/// `--trace 1`: one untraced repetition, then with tracing on one
/// repetition and the layer replay; the span tree is written at the end.
fn run_traced(inputs: &workloads::Inputs, dir: &Path) -> Result<Output, String> {
    let mut ledger = Ledger::default();
    let mut net = None;
    let untraced = workloads::run_rep(inputs, &mut net)?;
    workloads::check_rep(inputs, &untraced, &mut ledger);
    let q = workloads::quality(inputs, &untraced, &mut ledger)?;
    let untraced = untraced.times;

    calls::set_tracing(true);
    let traced = (|| {
        let mut setups = Vec::with_capacity(workloads::SETUPS_PER_REP);
        for _ in 0..workloads::SETUPS_PER_REP {
            let _span = calls::span("bench.setup");
            let (_, read, assemble) = workloads::setup(inputs)?;
            setups.push((read, assemble));
        }
        let rep = workloads::run_rep(inputs, &mut net)?;
        workloads::check_rep(inputs, &rep, &mut ledger);
        replay::replay(inputs, &rep, net.as_ref(), &setups, &untraced, q.direct_nnz)
    })();
    calls::set_tracing(false);
    let mut layers = traced?;
    ledger.op("replay", std::mem::take(&mut layers.problems));
    let trace_path = dir.join(format!("trace-{}-{}.json", inputs.workload.name(), inputs.seed));
    std::fs::write(&trace_path, calls::span_tree_json())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let mut info = fingerprints(&q);
    info.push(("span_tree", format!("\"{}\"", trace_path.display())));
    Ok(Output { ledger, metrics: layers.metrics(), info })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(ledger: &Ledger, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed,
        body.join(", ")
    )
}

fn main() {
    calls::pin_pool_to_one_thread();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(WORK_DIR);
    match run(&args, workloads::FULL, MIN_REPS, &dir) {
        Ok(mut out) => {
            if out.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
                out.ledger.op("metrics", vec!["a metric is not finite".into()]);
                for m in out.metrics.iter_mut().filter(|m| !m.1.is_finite()) {
                    m.1 = 0.0;
                }
            }
            for p in &out.ledger.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            let info: Vec<String> = out.info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            println!("{{\"info\": {{{}}}}}", info.join(", "));
            println!("{}", result_json(&out.ledger, &out.metrics));
            std::process::exit(if out.ledger.failed == 0 { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            let ledger = Ledger { attempted: 1, failed: 1, problems: vec![e] };
            println!("{}", result_json(&ledger, &[]));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, untraced and traced, at smoke size with every
    /// check on. One test: tracing and the pool are process-global.
    #[test]
    fn smoke_all_workloads() {
        calls::pin_pool_to_one_thread();
        let dir = Path::new(WORK_DIR).join(format!("smoke-{}", std::process::id()));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args { workload, seed: 7, seconds: 0.0, trace };
                let out = run(&args, workloads::SMOKE, 1, &dir).expect("smoke run");
                assert!(out.ledger.problems.is_empty(), "{workload:?}: {:?}", out.ledger.problems);
                let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
                if trace {
                    let expected: Vec<&str> = replay::LAYER_METRICS.iter().map(|m| m.0).collect();
                    assert_eq!(names, expected);
                } else {
                    assert_eq!(names.len(), 11);
                    assert!(out.metrics.iter().all(|m| m.1 > 0.0), "{:?}", out.metrics);
                }
                assert!(out.metrics.iter().all(|m| m.1.is_finite()));
            }
        }
        std::fs::remove_dir_all(&dir).expect("remove smoke directory");
    }
}
