//! Command line of the repository benchmark.
//!
//! ```text
//! nss-perfbench --workload <flood-1m|fig8-mc|serve-zipf> --seed <n>
//!     --seconds <s> --trace <0|1> [--setups <n>] [--report <path>]
//!     [--spans <path>]
//! ```
//!
//! Prints detail lines, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` as the last line of
//! standard output. `--report` also writes the details as one JSON object;
//! `--spans` writes a traced run's spans as Chrome `trace_event` JSON.

use nss_perfbench::report::{self, num, peak_rss_mb, Outcome, LAYERS};
use nss_perfbench::spans::{self, SpanLog};
use nss_perfbench::{RunArgs, WORKLOADS};
use std::process::ExitCode;

struct Cli {
    workload: String,
    args: RunArgs,
    report: Option<String>,
    spans: Option<String>,
}

fn parse() -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setups) = (None, None, None, 3usize);
    let (mut report, mut spans) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--setups" => setups = value.parse().map_err(|_| bad("an integer"))?,
            "--report" => report = Some(value),
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Cli {
        workload,
        args: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: trace.ok_or("--trace is required")?,
            setups: setups.max(1),
        },
        report,
        spans,
    })
}

fn details(cli: &Cli, o: &Outcome) -> String {
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", nss_obs::export::json_escape(v)))
        .collect();
    let digest: Vec<String> = report::DIGEST
        .iter()
        .map(|d| format!("\"{d}\": {}", o.layers.get(d).unwrap_or(0.0) as u64))
        .collect();
    let self_s: Vec<String> = o
        .self_s
        .iter()
        .map(|(layer, s)| format!("\"{layer}\": {}", num(*s)))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"obs_enabled\": {}, \"threads\": 2, \"digest\": {{{}}}, \"self_s\": {{{}}}, \
         \"notes\": {{{}}}, \"end_to_end\": {}, \"per_layer\": {}}}",
        cli.workload,
        cli.args.seed,
        num(cli.args.seconds),
        cli.args.traced,
        nss_obs::enabled(),
        digest.join(", "),
        self_s.join(", "),
        notes.join(", "),
        report::metrics_json(report::E2E.iter().map(|d| (d.name, d.unit)), &o.e2e),
        report::metrics_json(LAYERS.iter().map(|d| (d.name, d.unit)), &o.layers),
    )
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("nss-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut log = SpanLog::new(cli.args.traced, 0);
    let Some(mut outcome) = nss_perfbench::run(&cli.workload, &cli.args, &mut log) else {
        return ExitCode::from(2);
    };
    outcome.e2e.set("peak_rss_mb", peak_rss_mb());
    if cli.args.traced && outcome.self_s.is_empty() {
        outcome.self_s = spans::self_seconds(&log.spans)
            .into_iter()
            .map(|(layer, s)| (layer.to_string(), s))
            .collect();
    }
    let details = details(&cli, &outcome);
    println!("details: {details}");
    let mut io_ok = true;
    if let Some(path) = &cli.report {
        io_ok &= std::fs::write(path, format!("{details}\n")).is_ok();
    }
    if let (Some(path), true) = (&cli.spans, cli.args.traced) {
        io_ok &= std::fs::write(path, spans::chrome_json(&log.spans, 100_000)).is_ok();
    }
    if !io_ok {
        eprintln!("nss-perfbench: cannot write the report or span file");
        return ExitCode::from(1);
    }
    println!("{}", report::result_line(&outcome, cli.args.traced));
    ExitCode::SUCCESS
}
