//! The modes that run more than one workload: the full suite, the
//! repeatability study, and regeneration of the expected byte counts.
//! Every measured run is a child process of its own, so no workload
//! inherits another's heap, threads or page cache state.

use std::process::Command;
use std::time::Instant;

use crate::harness::{Checks, Ctx, DEFAULT_SEED};
use crate::json::{parse_json, Json, JsonExt};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::report::OUT_DIR;
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads;

/// One child run, as parsed from the last line of its standard output.
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
    /// Wall time of the whole child process.
    process_s: f64,
}

impl Run {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    fn metrics_json(&self, keep_zero: bool) -> Json {
        Json::obj(
            self.metrics
                .iter()
                .filter(|m| keep_zero || m.1 != 0.0)
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str(u.clone()))]),
                    )
                }),
        )
    }
}

fn selected(only: Option<&str>) -> Result<Vec<&'static str>, String> {
    let picked: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| only.is_none_or(|o| o.split(',').any(|x| x.trim() == *w)))
        .collect();
    if picked.is_empty() {
        return Err(format!(
            "--only {} selects no workload (known: {})",
            only.unwrap_or(""),
            WORKLOADS.join(", ")
        ));
    }
    Ok(picked)
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t = Instant::now();
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let process_s = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line ({})", out.status))?;
    let doc = parse_json(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: result has no {key}"))
    };
    Ok(Run {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics: doc
            .get("metrics")
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, m)| {
                Some((
                    name.clone(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_owned(),
                ))
            })
            .collect(),
        process_s,
    })
}

fn print_run(workload: &str, form: &str, run: &Run, keep_zero: bool) {
    println!(
        "{workload} [{form}] {} — {} ops attempted, {} failed, process {:.1} s",
        if run.correct { "ok" } else { "FAILED" },
        run.attempted,
        run.failed,
        run.process_s
    );
    for (name, value, unit) in &run.metrics {
        if keep_zero || *value != 0.0 {
            println!("  {name:<40} {value:>18.6} {unit}");
        }
    }
}

/// The same quantity from the untraced and the traced run of a
/// workload: `(what, untraced, traced)`. Their difference is what
/// tracing cost, process to process.
fn comparable(workload: &str, untraced: &Run, traced: &Run) -> Option<(&'static str, f64, f64)> {
    let u = |n: &str| untraced.value(n);
    let t = |n: &str| traced.value(n);
    Some(match workload {
        "catalog_quick" => {
            let experiments: f64 = traced
                .metrics
                .iter()
                .filter(|m| m.0.starts_with("bench.experiment."))
                .map(|m| m.1)
                .sum();
            ("catalog seconds", u("wall_s")?, experiments)
        }
        "memsim_loads" | "memsim_stores" => (
            "seconds per simulated GB",
            1e9 / u("work_per_s")?,
            1e9 * t("memsim.kernels_s")?
                / (t("memsim.sim_read_bytes")? + t("memsim.sim_write_bytes")?),
        ),
        "wire_read" => ("read p50 us", u("op_p50_us")?, t("papi.read_p50_us")?),
        "fleet_scrape" => (
            "pass p50 us",
            u("op_p50_us")?,
            t("fleet.pass_p50_ms")? * 1e3,
        ),
        "store_rw" => ("query p50 us", u("op_p50_us")?, t("store.query_p50_us")?),
        _ => return None,
    })
}

fn machine_facts(ctx: &Ctx) -> Vec<(&'static str, Json)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("rustc", Json::str(env("STACKBENCH_RUSTC"))),
        ("commit", Json::str(env("STACKBENCH_COMMIT"))),
        ("seed", Json::Num(ctx.seed as f64)),
        ("seconds", Json::Num(ctx.seconds)),
    ]
}

/// Run every selected workload, untraced then traced, print every
/// metric, and write `benchmark/out/RESULT.json`.
pub fn run_all(ctx: &Ctx, only: Option<&str>) -> Result<bool, String> {
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in selected(only)? {
        let untraced = child(workload, ctx.seed, ctx.seconds, false)?;
        print_run(workload, "untraced, end to end", &untraced, true);
        let traced = child(workload, ctx.seed, ctx.seconds, true)?;
        print_run(workload, "traced, per layer", &traced, false);
        all_correct &= untraced.correct && traced.correct;
        let mut fields = vec![
            ("workload", Json::str(workload)),
            ("correct", Json::Bool(untraced.correct && traced.correct)),
            ("attempted", Json::Num(untraced.attempted)),
            ("failed", Json::Num(untraced.failed + traced.failed)),
            ("end_to_end", untraced.metrics_json(true)),
            ("per_layer", traced.metrics_json(false)),
        ];
        if let Some((what, u, t)) = comparable(workload, &untraced, &traced) {
            println!(
                "  traced vs untraced, {what}: {t:.4} vs {u:.4} ({:+.2} %)",
                (t / u - 1.0) * 100.0
            );
            fields.push((
                "traced_vs_untraced",
                Json::obj([
                    ("what", Json::str(what)),
                    ("untraced", Json::Num(u)),
                    ("traced", Json::Num(t)),
                    ("share", Json::Num(t / u - 1.0)),
                ]),
            ));
        }
        results.push(Json::obj(fields));
        println!();
    }
    let mut doc = vec![("schema", Json::str("stackbench-result-v1"))];
    doc.extend(machine_facts(ctx));
    doc.push(("workloads", Json::Arr(results)));
    let path = format!("{OUT_DIR}/RESULT.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, Json::obj(doc).render_pretty()))
        .map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote {path}; {}",
        if all_correct {
            "every check passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

/// `better` and `bound` of every end-to-end metric, from BENCHMARK.json.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".into())
}

/// `--repeat K`: K untraced runs of every selected workload, each with
/// another seed, the workload order reversed on every other pass. Per
/// metric: median, quartiles, spread (interquartile distance over the
/// median) and range. Fails when a spread exceeds the metric's bound,
/// or when the medians of the two interleaved halves (even and odd
/// passes) disagree by more than the bound in the worse direction.
pub fn repeat(ctx: &Ctx, k: usize, only: Option<&str>) -> Result<bool, String> {
    if k < 4 {
        return Err("--repeat needs at least 4 runs (two per half)".into());
    }
    let picked = selected(only)?;
    let bounds = bounds()?;
    // values[workload][metric][run]
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; picked.len()];
    let mut all_ok = true;
    for pass in 0..k {
        let mut order: Vec<usize> = (0..picked.len()).collect();
        if pass % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let run = child(picked[w], ctx.seed + pass as u64, ctx.seconds, false)?;
            all_ok &= run.correct;
            for (m, (name, _)) in END_TO_END.iter().enumerate() {
                let v = run
                    .value(name)
                    .ok_or_else(|| format!("{}: no {name}", picked[w]))?;
                values[w][m].push(v);
            }
            eprintln!(
                "stackbench: pass {}/{k} {} {} in {:.1} s",
                pass + 1,
                picked[w],
                if run.correct { "ok" } else { "FAILED" },
                run.process_s
            );
        }
    }
    let raw = Json::obj(picked.iter().zip(&values).map(|(w, per_metric)| {
        (
            *w,
            Json::obj(END_TO_END.iter().zip(per_metric).map(|((name, _), v)| {
                (*name, Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()))
            })),
        )
    }));
    let path = format!("{OUT_DIR}/REPEAT.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, raw.render_pretty()))
        .map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{:<14} {:<13} {:>14} {:>14} {:>14} {:>8} {:>8} {:>9} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "range", "halves", "bound"
    );
    for (w, workload) in picked.iter().enumerate() {
        for (m, (name, _)) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let (_, lower_is_better, bound) = bounds
                .iter()
                .find(|b| b.0 == *name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
            let [q1, q2, q3] = quartiles(v).ok_or("too few runs")?;
            let spread = iqr_share(v).unwrap_or(f64::INFINITY);
            let range = (v.iter().cloned().fold(f64::MIN, f64::max)
                - v.iter().cloned().fold(f64::MAX, f64::min))
                / q2;
            let half = |parity: usize| -> f64 {
                let h: Vec<f64> = v
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == parity)
                    .map(|(_, x)| *x)
                    .collect();
                median(&h)
            };
            // How much worse the second half reads than the first.
            let (a, b) = (half(0), half(1));
            let worse = if *lower_is_better {
                b / a - 1.0
            } else {
                a / b - 1.0
            };
            // Set-up time's spread is reported, not bounded; its two
            // medians are held to the bound like everyone else's.
            let spread_ok = *name == "setup_s" || spread <= *bound;
            let ok = spread_ok && worse.abs() <= *bound;
            all_ok &= ok;
            println!(
                "{workload:<14} {name:<13} {q2:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {range:>8.4} {worse:>+9.4} {bound:>6.2}{}",
                if ok { "" } else { "  <-- exceeds bound" }
            );
        }
    }
    Ok(all_ok)
}

/// `--write-expected`: regenerate `expected/memsim_*.json` for the
/// default seed, in this process.
pub fn write_expected(ctx: &Ctx) -> Result<bool, String> {
    let ctx = Ctx {
        seed: DEFAULT_SEED,
        ..*ctx
    };
    let mut checks = Checks::default();
    for workload in ["memsim_loads", "memsim_stores"] {
        workloads::untraced(workload, &ctx, &mut checks);
        println!("wrote benchmark/expected/{workload}.json");
    }
    for m in &checks.messages {
        eprintln!("stackbench: FAILED {m}");
    }
    Ok(checks.failed == 0)
}
