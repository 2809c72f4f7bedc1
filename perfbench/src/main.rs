//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one workload's inputs from the seed, sets the program up several
//! times (the median is `setup_s`), then times the workload's production
//! call at one thread for `--seconds` seconds, checking every output
//! against the oracles. With `--trace 0` it reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer metrics of a separate traced
//! run, whose spans it writes to `.bench_out/` when it ends. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only if every check passed.

mod host;
mod stats;
mod trace;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Tally, Traced, Workload};

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them. A
/// workload that does not touch a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 44] = [
    ("scenario.build_ms", "ms"),
    ("multipair.build_ms", "ms"),
    ("topology.build_ms", "ms"),
    ("scenario.unattributed_ms", "ms"),
    ("multipair.unattributed_ms", "ms"),
    ("batch.caps_ms", "ms"),
    ("batch.lanes_filled_frac", "ratio"),
    ("kernel.dt_ms", "ms"),
    ("kernel.mabc_ms", "ms"),
    ("kernel.tdbc_ms", "ms"),
    ("kernel.hbc_ms", "ms"),
    ("kernel.sum_ms", "ms"),
    ("kernel.maxmin_ms", "ms"),
    ("kernel.convert_ms", "ms"),
    ("kernel.hits", "count"),
    ("lp.hbc_maxmin_ms", "ms"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.warm_hits", "count"),
    ("lp.warm_hit_ratio", "ratio"),
    ("serve.validate_ns", "ns"),
    ("serve.quant_ns", "ns"),
    ("serve.cache_get_ns", "ns"),
    ("serve.cache_insert_ns", "ns"),
    ("serve.solve_us", "us"),
    ("serve.unattributed_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.evictions", "count"),
    ("serve.kernel_solves", "count"),
    ("serve.simplex_solves", "count"),
    ("serve.infeasible", "count"),
    ("serve.batch_p99_ms", "ms"),
    ("topology.edge_state_ms", "ms"),
    ("city.reduce_assign_ms", "ms"),
    ("alloc.per_op", "count"),
    ("par.speedup", "x"),
    ("par.efficiency", "ratio"),
    ("host.ceiling", "x"),
    ("host.ref_ms", "ms"),
    ("host.ref_end_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.explained_frac", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.op_p90_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Timed operations per phase even when the phase's time is up.
const MIN_OPS: usize = 3;
/// Where run reports and spans are written, relative to the working
/// directory (the root of the checkout).
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| (1..=60).contains(&s))
                        .ok_or_else(|| bad("whole seconds in 1..=60"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The paper's Fig. 4 sum rates (P = 10 dB, G_ab = −7, G_ar = 0,
/// G_br = 5 dB) to the four decimals the paper's reproduction locks.
fn check_fig4_anchors() -> Tally {
    use bcc_core::prelude::*;
    let net = GaussianNetwork::from_db(Db::new(10.0), Db::new(-7.0), Db::new(0.0), Db::new(5.0));
    let anchors = [
        (Protocol::DirectTransmission, 1.5827),
        (Protocol::Mabc, 3.3053),
        (Protocol::Tdbc, 3.0570),
        (Protocol::Hbc, 3.3313),
    ];
    let mut t = Tally::attempted(anchors.len() as u64);
    for (p, want) in anchors {
        match net.max_sum_rate(p) {
            Ok(sol) if (sol.sum_rate - want).abs() < 5e-5 => {}
            other => t.fail(|| format!("Fig. 4 anchor {p}: want {want}, got {other:?}")),
        }
    }
    t
}

/// A metric value with its sample count, its spread (IQR ÷ median) where
/// it is a median, and a note for the report.
struct Reading {
    value: f64,
    samples: usize,
    spread: Option<f64>,
    note: String,
}

impl Reading {
    fn single(value: f64, note: impl Into<String>) -> Self {
        Reading {
            value,
            samples: 1,
            spread: None,
            note: note.into(),
        }
    }
}

/// Thread-local solver, batch, serve and allocation counters.
#[derive(Clone, Copy, Default)]
struct Counters {
    kernel_hits: u64,
    batched: u64,
    lanes_filled: u64,
    lp: bcc_lp::stats::LpStats,
    serve: bcc_serve::stats::ServeStats,
    allocs: u64,
}

impl Counters {
    fn now() -> Self {
        Counters {
            kernel_hits: bcc_core::kernel::kernel_hits_local(),
            batched: bcc_core::batch::stats::batched_points_local(),
            lanes_filled: bcc_core::batch::stats::lanes_filled_local(),
            lp: bcc_lp::stats::local_snapshot(),
            serve: bcc_serve::stats::local_snapshot(),
            allocs: host::allocs(),
        }
    }

    /// Adds the increments since `before` into `self`.
    fn accumulate(&mut self, before: &Counters) {
        let now = Counters::now();
        let lp = now.lp.delta_since(&before.lp);
        let serve = now.serve.delta_since(&before.serve);
        self.kernel_hits += now.kernel_hits - before.kernel_hits;
        self.batched += now.batched - before.batched;
        self.lanes_filled += now.lanes_filled - before.lanes_filled;
        self.lp.solves += lp.solves;
        self.lp.pivots += lp.pivots;
        self.lp.warm_hits += lp.warm_hits;
        self.serve.queries += serve.queries;
        self.serve.cache_hits += serve.cache_hits;
        self.serve.evictions += serve.evictions;
        self.serve.kernel_solves += serve.kernel_solves;
        self.serve.simplex_solves += serve.simplex_solves;
        self.allocs += now.allocs - before.allocs;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Set-up samples, taken back to back before any operation.
struct Setups {
    /// Wall times, s.
    raw: Vec<f64>,
    /// Recorder runs holding the set-up spans.
    runs: BTreeSet<u32>,
}

/// Sets the program up [`SETUP_REPS`] times, dropping each build before the
/// next so they do not pile up memory, and returns the last build.
fn set_up(
    args: &Args,
    rec: &mut Recorder,
    host: &mut host::Normalizer,
) -> (Box<dyn Workload>, Setups) {
    let mut setups = Setups {
        raw: Vec::with_capacity(SETUP_REPS),
        runs: BTreeSet::new(),
    };
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        setups.runs.insert(rec.next_run());
        let (w, secs) = workloads::setup(&args.workload, args.seed, rec).expect("name validated");
        setups.raw.push(secs);
        host.pass();
        built = Some(w);
    }
    (built.expect("set up at least once"), setups)
}

/// Times `w`'s production call until `until` (at least [`MIN_OPS`]
/// times), checking each output and timing a reference pass after it.
/// Returns the wall times in seconds.
fn measure(
    w: &mut dyn Workload,
    until: Instant,
    host: &mut host::Normalizer,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut raw = Vec::new();
    while raw.len() < MIN_OPS || Instant::now() < until {
        w.prepare();
        let t0 = Instant::now();
        let t = w.op();
        raw.push(t0.elapsed().as_secs_f64());
        host.pass();
        tally.add(t);
        tally.add(w.check(raw.len() as u64));
    }
    raw
}

/// The end-to-end metrics of an untraced run, from host-normalised times;
/// also returns the operations' wall times in ms.
fn end_to_end(
    w: &mut dyn Workload,
    args: &Args,
    setups: &Setups,
    host: &mut host::Normalizer,
    tally: &mut Tally,
) -> (Vec<(&'static str, Reading)>, Vec<f64>) {
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let raw = measure(w, until, host, tally);
    // One pass follows each set-up, then one follows each operation.
    let setup_s = host.normalise(0, &setups.raw);
    let times = host.normalise(setups.raw.len(), &raw);
    let raw_ms: Vec<f64> = raw.iter().map(|t| t * 1e3).collect();
    let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    let per_s: Vec<f64> = times.iter().map(|t| w.work_per_op() as f64 / t).collect();
    let n = times.len();
    let op = w.op_name();
    let metrics = vec![
        (
            "setup_s",
            Reading {
                value: stats::median(&setup_s),
                spread: Some(stats::iqr_frac(&setup_s)),
                samples: setup_s.len(),
                note: format!("median set-up; wall {:.6} s", stats::median(&setups.raw)),
            },
        ),
        (
            "throughput",
            // Work completed per second over the whole measured time.
            Reading {
                value: (n as u64 * w.work_per_op()) as f64 / times.iter().sum::<f64>(),
                spread: Some(stats::iqr_frac(&per_s)),
                samples: n,
                note: format!(
                    "{} per second over every {op}; wall {:.0}",
                    w.work_unit(),
                    (n as u64 * w.work_per_op()) as f64 / raw.iter().sum::<f64>()
                ),
            },
        ),
        (
            "latency_p50_ms",
            // The 90th percentile is printed beside the median but is not a
            // metric: it follows whichever share of a run the host spent
            // slow, so it does not repeat between runs of the same code.
            Reading {
                value: stats::median(&ms),
                spread: Some(stats::iqr_frac(&ms)),
                samples: n,
                note: format!(
                    "per {op}; wall {:.4}; latency_p90_ms {:.4} ms, not bounded",
                    stats::median(&raw_ms),
                    stats::percentile(&ms, 90)
                ),
            },
        ),
        (
            "peak_rss_mib",
            Reading::single(host::peak_rss_mib().unwrap_or(f64::NAN), "VmHWM"),
        ),
    ];
    (metrics, raw_ms)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    w: &mut dyn Workload,
    args: &Args,
    rec: &mut Recorder,
    setup_runs: &BTreeSet<u32>,
    tally: &mut Tally,
) -> (Vec<(&'static str, Reading)>, Vec<f64>) {
    let budget = Duration::from_secs(args.seconds);
    let mut round = 0;
    let mut counters = Counters::default();
    let mut real = Vec::new();
    let mut decomposed = [Vec::new(), Vec::new()];
    let mut traced_runs = Vec::new();
    // Every production call is followed by its decomposition, so stateful
    // workloads stay in step; decompositions alternate between spans off
    // and on, so host drift cannot masquerade as tracing overhead.
    let until = Instant::now() + budget.mul_f64(0.8);
    let mut on = false;
    while decomposed.iter().any(|d| d.len() < MIN_OPS) || Instant::now() < until {
        on = !on;
        w.prepare();
        let before = Counters::now();
        let t0 = Instant::now();
        tally.add(w.op());
        real.push(t0.elapsed().as_secs_f64() * 1e3);
        counters.accumulate(&before);
        round += 1;
        tally.add(w.check(round));
        rec.set_enabled(on);
        let run = rec.next_run();
        let t0 = Instant::now();
        let root = rec.enter("decomposed");
        tally.add(w.decomposed(rec));
        rec.exit(root);
        decomposed[on as usize].push(t0.elapsed().as_secs_f64());
        if on {
            traced_runs.push(run);
        }
    }
    rec.set_enabled(false);
    let ops = real.len() as u64;

    // One thread against two on the same inputs.
    let until = Instant::now() + budget.mul_f64(0.2);
    let (mut one, mut two) = (Vec::new(), Vec::new());
    while one.len() < MIN_OPS || Instant::now() < until {
        let (a, b, t) = w.parallel_pair();
        one.push(a);
        two.push(b);
        tally.add(t);
    }
    let speedup = stats::median(&one) / stats::median(&two);
    let ceiling = host::spin_ceiling();

    let spans = rec.spans();
    let real_ms = stats::median(&real);
    let att = trace::attribute(
        &trace::self_ms_by_run(spans, &traced_runs.iter().copied().collect()),
        &traced_runs,
        "decomposed",
        real_ms,
    );
    let setup_ms = trace::self_ms_by_run(spans, setup_runs)
        .into_iter()
        .map(|(name, per_run)| {
            (
                name,
                stats::median(&per_run.into_values().collect::<Vec<_>>()),
            )
        })
        .collect();
    let traced = Traced {
        layer_ms: att.layer_ms,
        residual_ms: att.residual_ms,
        setup_ms,
        real_p99_ms: stats::percentile(&real, 99),
    };
    let mut values: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    values.insert("kernel.hits", ratio(counters.kernel_hits, ops));
    values.insert(
        "batch.lanes_filled_frac",
        ratio(counters.lanes_filled, counters.batched),
    );
    values.insert("lp.solves", ratio(counters.lp.solves, ops));
    values.insert("lp.pivots", ratio(counters.lp.pivots, ops));
    values.insert("lp.warm_hits", ratio(counters.lp.warm_hits, ops));
    values.insert(
        "lp.warm_hit_ratio",
        ratio(counters.lp.warm_hits, counters.lp.solves),
    );
    values.insert(
        "serve.hit_rate",
        ratio(counters.serve.cache_hits, counters.serve.queries),
    );
    values.insert("serve.evictions", ratio(counters.serve.evictions, ops));
    values.insert(
        "serve.kernel_solves",
        ratio(counters.serve.kernel_solves, ops),
    );
    values.insert(
        "serve.simplex_solves",
        ratio(counters.serve.simplex_solves, ops),
    );
    values.insert("alloc.per_op", ratio(counters.allocs, ops));
    values.insert("par.speedup", speedup);
    values.insert("host.ceiling", ceiling);
    values.insert("par.efficiency", speedup / ceiling);
    values.insert(
        "trace.overhead_frac",
        1.0 - stats::median(&decomposed[0]) / stats::median(&decomposed[1]),
    );
    values.insert("trace.explained_frac", att.explained_frac);
    values.insert("trace.op_ms", real_ms);
    values.insert("trace.op_p90_ms", stats::percentile(&real, 90));
    w.per_layer(&traced, &mut values);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| (name, Reading::single(values[name], "")))
        .collect();
    (metrics, real)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .expect("every reported metric is declared")
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(correct: bool, tally: &Tally, metrics: &[(&'static str, Reading)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, r)| {
            // JSON has no non-finite numbers; a non-finite reading is a
            // measurement failure and makes the run incorrect.
            let value = if r.value.is_finite() { r.value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <1..=60> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let ref_ms = host::ref_ms();
    let mut tally = check_fig4_anchors();
    let mut rec = Recorder::new(args.trace);
    let mut host = host::Normalizer::default();

    let (mut workload, setups) = set_up(&args, &mut rec, &mut host);
    let w = workload.as_mut();

    // Warm-up: one untimed operation (caches, lazy allocations).
    w.prepare();
    tally.add(w.op());
    tally.add(w.check(0));
    if args.trace {
        // Stateful decompositions (the serve shadow cache) see every batch.
        rec.set_enabled(false);
        tally.add(w.decomposed(&mut rec));
    }
    // The warm-up's work is not measured, so it is not counted either.
    tally.attempted -= w.work_per_op();

    let (mut metrics, op_ms) = if args.trace {
        per_layer(w, &args, &mut rec, &setups.runs, &mut tally)
    } else {
        end_to_end(w, &args, &setups, &mut host, &mut tally)
    };
    let ref_end_ms = host::ref_ms();
    if args.trace {
        for (name, r) in metrics.iter_mut() {
            match *name {
                "host.ref_ms" => r.value = ref_ms,
                "host.ref_end_ms" => r.value = ref_end_ms,
                _ => {}
            }
        }
    }
    let correct = tally.failed == 0 && metrics.iter().all(|(_, r)| r.value.is_finite());

    // Human-readable report.
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, r) in &metrics {
        let spread = match r.spread {
            Some(f) => format!("  [n={}, IQR/median {:.1}%]", r.samples, f * 100.0),
            None if r.samples > 1 => format!("  [n={}]", r.samples),
            None => String::new(),
        };
        println!(
            "  {name:<26} {:>14.6} {:<6} {}{spread}",
            r.value,
            unit_of(name),
            r.note
        );
    }
    println!(
        "  {:<26} {:>14.6} {:<6} {} failed of {} attempted",
        "failed_frac",
        ratio(tally.failed, tally.attempted.max(1)),
        "ratio",
        tally.failed,
        tally.attempted
    );
    println!(
        "  host: reference loop {ref_ms:.3} ms at start, {ref_end_ms:.3} ms at end; {} threads available",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if let Some(f) = &tally.first_failure {
        println!("  FIRST FAILURE: {f}");
    }

    let line = result_json(correct, &tally, &metrics);
    let guard = [ref_ms, ref_end_ms];
    let samples = [
        ("host_ref_ms", &guard[..]),
        ("host_pass_ms", &host.passes_ms[..]),
        ("setup_wall_s", &setups.raw[..]),
        ("op_wall_ms", &op_ms[..]),
    ];
    if let Err(e) = write_outputs(&args, &rec, &line, &samples) {
        eprintln!("perfbench: could not write {OUT_DIR}: {e}");
    }
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}

/// Writes the run's result beside its raw samples (the host guard's
/// reference-loop times, every short reference pass, every set-up and
/// operation wall time) and, for a traced run, its spans, under
/// [`OUT_DIR`].
fn write_outputs(
    args: &Args,
    rec: &Recorder,
    line: &str,
    samples: &[(&str, &[f64])],
) -> std::io::Result<()> {
    let fields: Vec<String> = samples
        .iter()
        .map(|(name, v)| {
            let items: Vec<String> = v.iter().map(f64::to_string).collect();
            format!("\"{name}\": [{}]", items.join(", "))
        })
        .collect();
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!("{{{}, \"result\": {line}}}\n", fields.join(", ")),
    )?;
    if args.trace {
        rec.write_jsonl(&dir.join(format!("{stem}-spans.jsonl")))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 20, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(
            args(&["--workload", "city_assign"]).is_err(),
            "seed is required"
        );
        assert!(args(&["--workload", "city_assign", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "city_assign", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "city_assign", "--seed"]).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names: Vec<&str> = workloads::NAMES
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|&(n, _)| n))
            .chain(PER_LAYER.iter().map(|&(n, _)| n))
            .collect();
        for name in &names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            names.len(),
            "no extra entries"
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = &json[json.find(&format!("\"name\": \"{name}\"")).expect("listed")..];
            let unit_at = entry.find("\"unit\": ").expect("has a unit") + 9;
            assert!(
                entry[unit_at..].starts_with(&format!("{unit}\"")),
                "{name} unit"
            );
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let tally = Tally::attempted(10);
        let metrics = vec![
            ("setup_s", Reading::single(0.5, "")),
            ("throughput", Reading::single(f64::NAN, "")),
        ];
        let line = result_json(true, &tally, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"throughput\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }
}
