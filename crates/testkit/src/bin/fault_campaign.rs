//! Fault-injection campaign sweep: seeds × fault classes × lane
//! counts, each scenario under a watchdog, emitting a line-oriented
//! JSON verdict matrix. Exits non-zero if any scenario produces a
//! verdict outside the allowlist (`silent_corruption`, `hang`), or a
//! fault-free baseline is not `clean` — this is the CI gate.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::mpsc;
use std::time::Duration;

use shef_telemetry::{json_escape, Telemetry};
use shef_testkit::{
    run_campaign, run_plan, CampaignTelemetry, FaultClass, FaultPlan, ScenarioReport, Verdict,
};

struct Args {
    seeds: u64,
    lanes: Vec<usize>,
    json: Option<String>,
    telemetry: Option<String>,
    timeout_secs: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 32,
        lanes: vec![1, 2, 4],
        json: None,
        telemetry: None,
        timeout_secs: 60,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seeds" => {
                let v = it.next().expect("--seeds needs a value");
                args.seeds = v.parse().expect("--seeds: not a number");
            }
            "--lanes" => {
                let v = it.next().expect("--lanes needs a comma-separated list");
                args.lanes = v
                    .split(',')
                    .map(|s| {
                        let n: usize = s.trim().parse().expect("--lanes: not a number");
                        assert!(n >= 1, "--lanes: lane counts must be >= 1");
                        n
                    })
                    .collect();
            }
            "--json" => args.json = Some(it.next().expect("--json needs a path")),
            "--telemetry" => {
                args.telemetry = Some(it.next().expect("--telemetry needs a path"));
            }
            "--timeout-secs" => {
                let v = it.next().expect("--timeout-secs needs a value");
                args.timeout_secs = v.parse().expect("--timeout-secs: not a number");
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: fault_campaign [--seeds N] [--lanes 1,2,4] \
                     [--json PATH] [--telemetry PATH] [--timeout-secs N]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    assert!(args.seeds > 0, "--seeds must be positive");
    assert!(
        !args.lanes.is_empty(),
        "--lanes must name at least one lane count"
    );
    args
}

/// Runs one plan on a helper thread with a wall-clock budget. A
/// scenario that neither returns nor panics within the budget is the
/// `hang` verdict the taxonomy forbids; the zombie thread is leaked
/// and the process exits via the gate at the end.
fn run_with_watchdog(plan: FaultPlan, budget: Duration) -> ScenarioReport {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let report = std::panic::catch_unwind(|| run_plan(&plan));
        let _ = tx.send(report);
    });
    match rx.recv_timeout(budget) {
        Ok(Ok(report)) => report,
        Ok(Err(_)) => ScenarioReport {
            verdict: Verdict::SilentCorruption,
            probe: None,
            detail: "scenario panicked instead of returning a verdict".into(),
        },
        Err(_) => ScenarioReport {
            verdict: Verdict::Hang,
            probe: None,
            detail: format!("scenario exceeded the {}s watchdog", budget.as_secs()),
        },
    }
}

fn main() {
    let args = parse_args();
    // Injected lane panics unwind with the default hook installed,
    // which would spray "thread panicked" noise over the sweep output;
    // the campaign engine catches every unwind it provokes.
    std::panic::set_hook(Box::new(|_| {}));

    let budget = Duration::from_secs(args.timeout_secs);
    let records = run_campaign(args.seeds, &args.lanes, |plan| {
        run_with_watchdog(plan, budget)
    });
    let telemetry = Telemetry::new();
    let campaign_tele = CampaignTelemetry::bind(&telemetry);
    let mut disallowed = 0usize;
    for r in &records {
        campaign_tele.record(r);
        if !r.is_allowed() {
            disallowed += 1;
            eprintln!(
                "FORBIDDEN: seed={} class={} scheme={} lanes={} -> {} ({})",
                r.seed,
                r.class.map_or("baseline", FaultClass::as_str),
                r.scheme.as_str(),
                r.lanes,
                r.report.verdict,
                r.report.detail
            );
        }
    }

    // Summary matrix: verdict histogram per fault class.
    let mut histogram: BTreeMap<&'static str, BTreeMap<&'static str, usize>> = BTreeMap::new();
    for r in &records {
        let class = r.class.map_or("baseline", FaultClass::as_str);
        *histogram
            .entry(class)
            .or_default()
            .entry(r.report.verdict.as_str())
            .or_default() += 1;
    }
    println!("fault campaign: {} scenarios", records.len());
    for (class, verdicts) in &histogram {
        let row: Vec<String> = verdicts.iter().map(|(v, n)| format!("{v}={n}")).collect();
        println!("  {class:<20} {}", row.join(" "));
    }

    if let Some(path) = &args.json {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\": \"shef-fault-campaign/v1\", \"seeds\": {}, \"lanes\": \"{}\", \"scenarios\": {}, \"disallowed\": {}}}\n",
            args.seeds,
            json_escape(
                &args
                    .lanes
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            records.len(),
            disallowed,
        ));
        for r in &records {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        let mut f = std::fs::File::create(path).expect("create --json output file");
        f.write_all(out.as_bytes()).expect("write --json output");
        println!("wrote {} ({} records)", path, records.len());
    }

    if let Some(path) = &args.telemetry {
        let report = telemetry.report();
        std::fs::write(path, report.to_json()).expect("write --telemetry output");
        println!("{}", report.summary_table());
        println!("wrote telemetry report to {path}");
    }

    if disallowed > 0 {
        eprintln!("fault campaign FAILED: {disallowed} forbidden verdict(s)");
        std::process::exit(1);
    }
    println!("fault campaign passed: no silent corruption, no hangs");
    // Watchdog zombies (if any) would otherwise keep the process
    // alive; exit explicitly.
    std::process::exit(0);
}
