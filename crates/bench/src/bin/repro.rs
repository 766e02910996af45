//! Reproduction harness: regenerates every table and figure of the paper,
//! driven by the campaign engine.
//!
//! ```text
//! repro table1 [--budget-ms N] [--extended] [--spin]   Table I  (verification outcomes)
//! repro table2 [--budget-ms N] [--extended] [--spin]   Table II (PB vs XCVerifier)
//! repro fig1   [--budget-ms N]                Figure 1 (PBE region maps, PB + verifier)
//! repro fig2   [--budget-ms N]                Figure 2 (LYP region maps, PB + verifier)
//! repro all    [--budget-ms N] [--out DIR]
//! ```
//!
//! ASCII maps go to stdout; SVG renderings and markdown tables are written
//! under `--out` (default `results/`). Tables run as one [`Campaign`]: the
//! whole matrix is scheduled across the thread pool, per-pair progress
//! streams through campaign events, and the report renders directly.

use std::fs;
use std::path::PathBuf;
use xcv_bench::default_grid;
use xcv_conditions::Condition;
use xcv_core::presets::config_for;
use xcv_core::{Campaign, CampaignEvent, CampaignReport, Encoder, TableMark, Verifier};
use xcv_functionals::{FunctionalHandle, Registry};
use xcv_report as report;

struct Opts {
    budget_ms: u64,
    out: PathBuf,
    extended: bool,
    spin: bool,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        budget_ms: 150,
        out: PathBuf::from("results"),
        extended: false,
        spin: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--budget-ms" => {
                i += 1;
                o.budget_ms = args[i].parse().expect("--budget-ms takes an integer");
            }
            "--out" => {
                i += 1;
                o.out = PathBuf::from(&args[i]);
            }
            "--extended" => o.extended = true,
            "--spin" => o.spin = true,
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: repro <table1|table2|fig1|fig2|regularization|all> \
             [--budget-ms N] [--out DIR] [--extended]"
        );
        std::process::exit(2);
    };
    let opts = parse_opts(&args[1..]);
    fs::create_dir_all(&opts.out).expect("create output dir");
    // The figure panels are named registry columns, not enum variants — any
    // registered functional (extended or spin set included) can be drawn.
    let registry = matrix_registry(&opts);
    let by_name = |name: &str| -> FunctionalHandle {
        registry
            .require(name)
            .expect("figure functional registered")
    };
    match cmd.as_str() {
        "table1" => {
            table1(&opts);
        }
        "table2" => {
            table2(&opts);
        }
        "fig1" => figure(&opts, &by_name("PBE"), 1),
        "fig2" => figure(&opts, &by_name("LYP"), 2),
        "regularization" => regularization(&opts),
        "all" => {
            // One campaign feeds both tables — the solver work dominates
            // and Table II only adds the (cheap) PB grid pass.
            let campaign_report = run_matrix_campaign(&opts);
            render_table1(&opts, &campaign_report);
            render_table2(&opts, &campaign_report);
            figure(&opts, &by_name("PBE"), 1);
            figure(&opts, &by_name("LYP"), 2);
            regularization(&opts);
        }
        other => {
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    }
}

/// The figure panels: (figure number, conditions shown).
fn figure_conditions(fig: u32) -> [Condition; 3] {
    match fig {
        1 => [
            Condition::EcNonPositivity,
            Condition::LiebOxfordExt,
            Condition::ConjTcUpperBound,
        ],
        _ => [
            Condition::EcNonPositivity,
            Condition::EcScaling,
            Condition::TcUpperBound,
        ],
    }
}

/// The registry behind the requested matrix: the paper's five, the extended
/// seven, or (with `--spin`) the spin-general set including the ζ-resolved
/// citizens.
fn matrix_registry(opts: &Opts) -> Registry {
    match (opts.spin, opts.extended) {
        (true, _) => Registry::spin_general(),
        (false, true) => Registry::extended(),
        (false, false) => Registry::builtin(),
    }
}

/// Run the full matrix as one campaign, streaming per-pair progress lines.
fn run_matrix_campaign(opts: &Opts) -> CampaignReport {
    let registry = matrix_registry(opts);
    let budget = opts.budget_ms;
    Campaign::builder()
        .registry(&registry)
        .config_policy(move |f, _cond| config_for(f, budget))
        .on_event(|e| {
            if let CampaignEvent::PairFinished {
                functional,
                condition,
                mark,
                wall_ms,
            } = e
            {
                eprintln!(
                    "  {functional:10} / {:28} -> {:3}  ({wall_ms} ms)",
                    condition.name(),
                    mark.symbol(),
                );
            }
        })
        .build()
        .expect("registry is non-empty")
        .run()
}

fn table1(opts: &Opts) {
    let campaign_report = run_matrix_campaign(opts);
    render_table1(opts, &campaign_report);
}

fn table2(opts: &Opts) {
    let campaign_report = run_matrix_campaign(opts);
    render_table2(opts, &campaign_report);
}

fn render_table1(opts: &Opts, campaign_report: &CampaignReport) {
    println!("== Table I (per-box budget {} ms) ==", opts.budget_ms);
    let t1 = report::Table1::from_campaign(campaign_report);
    let md = t1.render_markdown();
    println!("{md}");
    let decided = t1.count(|m| matches!(m, TableMark::Verified | TableMark::Counterexample));
    let partial = t1.count(|m| m == TableMark::PartiallyVerified);
    let unknown = t1.count(|m| m == TableMark::Unknown);
    // The paper's 13/7/11 baseline only applies to its own 31-pair matrix.
    let baseline = if opts.extended {
        String::new()
    } else {
        " (paper: 13 / 7 / 11)".to_string()
    };
    println!(
        "summary: {decided} verified-or-refuted, {partial} partially verified, \
         {unknown} timeout/inconclusive{baseline}"
    );
    println!(
        "campaign: {} encoded pairs, wall time {} ms",
        campaign_report.encoded_pairs(),
        campaign_report.wall_ms
    );
    fs::write(opts.out.join("table1.md"), md).expect("write table1.md");
}

fn render_table2(opts: &Opts, campaign_report: &CampaignReport) {
    println!("== Table II (per-box budget {} ms) ==", opts.budget_ms);
    let t2 = report::Table2::from_campaign(campaign_report, &default_grid());
    let md = t2.render_markdown();
    println!("{md}");
    fs::write(opts.out.join("table2.md"), md).expect("write table2.md");
}

fn figure(opts: &Opts, f: &FunctionalHandle, fig: u32) {
    let name = f.name();
    println!("== Figure {fig}: {name} region maps (PB top, XCVerifier bottom) ==");
    let grid_cfg = default_grid();
    for (panel, cond) in figure_conditions(fig).into_iter().enumerate() {
        let letter = (b'a' + panel as u8) as char;
        println!("\n--- Fig {fig}{letter}: {name} / {cond} — PB grid ---");
        if let Ok(grid) = xcv_grid::pb_check(f, cond, &grid_cfg) {
            println!("{}", report::ascii_grid_map(&grid, 60, 20));
            println!(
                "PB: {} ({} of {} grid points violate)",
                if grid.satisfied() {
                    "no violations"
                } else {
                    "violations found"
                },
                grid.n_violations(),
                grid.pass.len()
            );
        }
        let letter2 = (b'd' + panel as u8) as char;
        println!("--- Fig {fig}{letter2}: {name} / {cond} — XCVerifier ---");
        if let Ok(p) = Encoder::encode(f, cond) {
            let map = Verifier::new(config_for(f.as_ref(), opts.budget_ms)).verify(&p);
            println!("{}", report::ascii_region_map(&map, 60, 20));
            println!(
                "verifier: {} | verified {:.0}% of the domain volume, \
                 counterexample {:.0}%, undecided {:.0}%",
                map.table_mark(),
                100.0 * map.volume_fraction(|s| matches!(s, xcv_core::RegionStatus::Verified)),
                100.0
                    * map.volume_fraction(|s| matches!(
                        s,
                        xcv_core::RegionStatus::Counterexample(_)
                    )),
                100.0
                    * map.volume_fraction(|s| matches!(
                        s,
                        xcv_core::RegionStatus::Timeout | xcv_core::RegionStatus::Inconclusive
                    )),
            );
            let file = format!(
                "fig{fig}{letter2}_{}_{}.svg",
                name.to_lowercase().replace(' ', "_"),
                cond.name().to_lowercase().replace(' ', "_")
            );
            let svg = report::svg_region_map(&map, &format!("{name} / {cond}"));
            fs::write(opts.out.join(&file), svg).expect("write svg");
            println!("wrote {}", opts.out.join(&file).display());
        }
    }
}

/// Section VI-A experiment: does regularizing SCAN's α-switch (the rSCAN
/// family) restore solver decidability? Runs SCAN and the regularized
/// variant on the same conditions at the same budget — as one campaign —
/// and compares decided domain volume.
fn regularization(opts: &Opts) {
    println!("== Regularization experiment (SCAN vs rSCAN-style, Section VI-A) ==");
    let conds = [
        Condition::EcNonPositivity,
        Condition::EcScaling,
        Condition::ConjTcUpperBound,
    ];
    let budget = opts.budget_ms;
    let registry = Registry::extended();
    let campaign_report = Campaign::builder()
        .functionals([
            registry.require("SCAN").expect("builtin"),
            registry.require("rSCAN(reg)").expect("builtin"),
        ])
        .conditions(conds)
        .config_policy(move |f, _| config_for(f, budget))
        .build()
        .expect("two functionals")
        .run();
    let decided_frac = |name: &str, cond: Condition| -> f64 {
        campaign_report
            .outcome(name, cond)
            .and_then(|p| p.map.as_ref())
            .map(|m| {
                m.volume_fraction(|s| {
                    matches!(
                        s,
                        xcv_core::RegionStatus::Verified
                            | xcv_core::RegionStatus::Counterexample(_)
                    )
                })
            })
            .unwrap_or(0.0)
    };
    let mut lines = Vec::new();
    lines.push("| condition | SCAN decided vol. | rSCAN(reg) decided vol. |".to_string());
    lines.push("|---|---|---|".to_string());
    for cond in conds {
        let scan = decided_frac("SCAN", cond);
        let rscan = decided_frac("rSCAN(reg)", cond);
        eprintln!(
            "  SCAN {:.1}% vs rSCAN(reg) {:.1}% on {}",
            100.0 * scan,
            100.0 * rscan,
            cond.name()
        );
        lines.push(format!(
            "| {} | {:.1}% | {:.1}% |",
            cond.name(),
            100.0 * scan,
            100.0 * rscan
        ));
    }
    let md = lines.join("\n");
    println!("{md}");
    fs::write(opts.out.join("regularization.md"), md).expect("write regularization.md");
}
