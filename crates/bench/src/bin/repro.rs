//! `repro` — regenerate every table and figure of the WSP paper.
//!
//! Usage: `repro <experiment> [--paper]` where experiment is one of
//! `table1 table2 fig1 fig2 fig5 fig6 fig7 fig8 fig9 feasibility
//! recovery-storm drills ycsb tradeoff hybrid fleet ablation all`. `--paper`
//! runs the full-size workloads for `table1`/`fig5` (slower); the
//! default is a scaled sweep that preserves the shape.

use std::env;
use std::process::ExitCode;

use wsp_bench::table::TextTable;
use wsp_bench::{
    capacitance_curve, feasibility, fig1, fig2, fig5, fig6, fig7, fig8, fig9, fleet_year,
    hybrid_placement, index_structure_ablation, recovery_storm, scm_penalty_ablation,
    strategy_drills, table1, table2, ycsb_matrix, Fig5Config,
};
use wsp_workloads::YcsbDriver;
use wsp_units::Nanos;

fn ms(n: Nanos) -> String {
    format!("{:.2}", n.as_millis_f64())
}

fn print_table1(paper: bool) {
    let (entries, runs) = if paper { (100_000, 5) } else { (5_000, 5) };
    println!(
        "(Table 1; paper: Mnemosyne 2160 (77), WSP 5274 (139) updates/s; {} entries x {} runs)",
        entries, runs
    );
    let mut t = TextTable::new(
        "Table 1: OpenLDAP update throughput",
        &["Configuration", "Updates/s", "(stdev)", "speedup vs Mnemosyne"],
    );
    let rows = table1(entries, runs);
    let base = rows[0].throughput.mean;
    for r in &rows {
        t.row(&[
            r.system.to_owned(),
            format!("{:.0}", r.throughput.mean),
            format!("({:.0})", r.throughput.stdev),
            format!("{:.2}x", r.throughput.mean / base),
        ]);
    }
    print!("{}", t.render());
}

fn print_table2() {
    println!("(Table 2; paper: Intel 2.8/2.3/0.79 ms, AMD 1.3/1.6/0.65 ms)");
    let mut t = TextTable::new(
        "Table 2: worst-case cache flush times",
        &["Machine", "wbinvd (ms)", "clflush (ms)", "theoretical best (ms)"],
    );
    for r in table2() {
        t.row(&[r.machine, ms(r.wbinvd), ms(r.clflush), ms(r.theoretical_best)]);
    }
    print!("{}", t.render());
}

fn print_fig1() {
    println!("(Figure 1; paper: ultracaps retain ~90-96% at 100k cycles, batteries collapse)");
    let mut t = TextTable::new(
        "Figure 1: capacitance vs charge/discharge cycles (%)",
        &["Cycles", "Ultracap best", "Ultracap worst", "Battery"],
    );
    for p in fig1() {
        t.row(&[
            p.cycles.to_string(),
            format!("{:.1}", p.ultracap_best),
            format!("{:.1}", p.ultracap_worst),
            format!("{:.1}", p.battery),
        ]);
    }
    print!("{}", t.render());
}

fn print_fig2() {
    println!("(Figure 2; paper: 1 GB NVDIMM saves in <10 s; ultracap supplies >=2x save time)");
    let mut t = TextTable::new(
        "Figure 2: ultracap voltage & power during NVDIMM save",
        &["t (s)", "Voltage (V)", "Power (W)", "save done?"],
    );
    let trace = fig2(Nanos::from_millis(500));
    for p in trace.iter().step_by(2) {
        t.row(&[
            format!("{:.1}", p.t.as_secs_f64()),
            format!("{:.2}", p.voltage.get()),
            format!("{:.1}", p.power.get()),
            if p.save_completed { "yes" } else { "" }.to_owned(),
        ]);
    }
    print!("{}", t.render());
}

fn print_fig5(paper: bool) {
    let cfg = if paper { Fig5Config::paper() } else { Fig5Config::quick() };
    println!(
        "(Figure 5; paper: FoC+STM 6-13x slower than FoF, gap grows with update ratio; {} ops x {} runs)",
        cfg.ops, cfg.runs
    );
    let points = fig5(&cfg);
    let mut t = TextTable::new(
        "Figure 5: hash table time per op (us), by update probability",
        &["Config", "p=update", "mean", "min", "max", "x FoF"],
    );
    // Index FoF means by probability for the ratio column.
    let fof: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.config == wsp_pheap::HeapConfig::Fof)
        .map(|p| (p.update_probability, p.time_per_op_ns.mean))
        .collect();
    for p in &points {
        let base = fof
            .iter()
            .find(|(q, _)| (*q - p.update_probability).abs() < 1e-9)
            .map_or(1.0, |(_, m)| *m);
        t.row(&[
            p.config.label().to_owned(),
            format!("{:.1}", p.update_probability),
            format!("{:.3}", p.time_per_op_ns.mean / 1000.0),
            format!("{:.3}", p.time_per_op_ns.min / 1000.0),
            format!("{:.3}", p.time_per_op_ns.max / 1000.0),
            format!("{:.1}x", p.time_per_op_ns.mean / base),
        ]);
    }
    print!("{}", t.render());
}

fn print_fig6() {
    println!("(Figure 6; paper: PWR_OK drop -> first rail <95% nominal = 33 ms, Intel busy)");
    let (trace, window) = fig6();
    let mut t = TextTable::new(
        "Figure 6: oscilloscope capture (downsampled to 5 ms)",
        &["t (ms)", "12V", "5V", "3.3V", "PWR_OK"],
    );
    for s in trace.samples.iter().step_by(500) {
        t.row(&[
            format!("{:.1}", s.offset_ns as f64 / 1e6),
            format!("{:.2}", s.rails[0]),
            format!("{:.2}", s.rails[1]),
            format!("{:.2}", s.rails[2]),
            if s.pwr_ok { "high" } else { "low" }.to_owned(),
        ]);
    }
    print!("{}", t.render());
    match window {
        Some(w) => println!("measured residual energy window: {:.1} ms", w.as_millis_f64()),
        None => println!("no rail drop detected within the capture"),
    }
}

fn print_fig7() {
    println!("(Figure 7; paper: 346/392, 22/71, 10/10, 33/33 ms busy/idle; worst of 3 runs)");
    let mut t = TextTable::new(
        "Figure 7: residual energy windows",
        &["Testbed", "PSU", "Load", "Window (ms)"],
    );
    for r in fig7(3) {
        t.row(&[
            r.testbed.to_owned(),
            r.psu,
            r.load.to_owned(),
            format!("{:.0}", r.window.as_millis_f64()),
        ]);
    }
    print!("{}", t.render());
}

fn print_fig8() {
    println!("(Figure 8; paper: save <5 ms on all four CPUs, nearly flat in dirty bytes)");
    let series = fig8();
    let mut headers: Vec<String> = vec!["Dirty bytes".to_owned()];
    headers.extend(series.iter().map(|s| format!("{} (ms)", s.machine)));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = TextTable::new(
        "Figure 8: context save + cache flush time vs dirty bytes",
        &header_refs,
    );
    for i in 0..series[0].points.len() {
        let mut row = vec![series[0].points[i].0.to_string()];
        for s in &series {
            row.push(ms(s.points[i].1));
        }
        t.row(&row);
    }
    print!("{}", t.render());
}

fn print_fig9() {
    println!("(Figure 9; paper: ~5.3-6.6 s, dominated by GPU, disk and NIC)");
    let mut t = TextTable::new(
        "Figure 9: ACPI device state save time",
        &["Testbed", "Load", "Suspend time (ms)"],
    );
    for r in fig9() {
        t.row(&[r.testbed, r.load.to_owned(), ms(r.suspend_time)]);
    }
    print!("{}", t.render());
}

fn print_feasibility() {
    println!("(S5.4; paper: save completes within 2-35% of the residual window)");
    let mut t = TextTable::new(
        "Feasibility: state save vs residual window",
        &["Machine", "PSU", "Load", "Save (ms)", "Window (ms)", "Fraction", "Fits"],
    );
    for r in feasibility() {
        t.row(&[
            r.machine,
            r.psu,
            r.load.to_owned(),
            ms(r.save_time),
            ms(r.window),
            r.fraction.map_or("-".into(), |f| format!("{:.1}%", f * 100.0)),
            if r.fits { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    print!("{}", t.render());
}

fn print_storm() {
    println!("(S2 example: 256 GB @ 0.5 GB/s > 8 min/server; storms multiply it)");
    let mut t = TextTable::new(
        "Recovery storms: back-end vs WSP local recovery (100-server tier)",
        &["Failed", "Back-end (min)", "WSP local (s)", "Speedup"],
    );
    for r in recovery_storm() {
        t.row(&[
            r.failed.to_string(),
            format!("{:.1}", r.backend_time.as_secs_f64() / 60.0),
            format!("{:.1}", r.wsp_time.as_secs_f64()),
            format!("{:.0}x", r.speedup()),
        ]);
    }
    print!("{}", t.render());
}

fn print_drills() {
    println!("(S4 device restart: only non-ACPI strategies fit the window)");
    let mut t = TextTable::new(
        "Power-failure drills by restart strategy (Intel testbed, busy)",
        &["Strategy", "Save fits", "Data preserved", "Local downtime (s)"],
    );
    for r in strategy_drills() {
        t.row(&[
            r.strategy.to_owned(),
            if r.save_completed { "yes" } else { "NO" }.to_owned(),
            if r.data_preserved { "yes" } else { "NO" }.to_owned(),
            r.local_downtime
                .map_or("- (back-end recovery)".into(), |d| {
                    format!("{:.1}", d.as_secs_f64())
                }),
        ]);
    }
    print!("{}", t.render());
}

fn print_ycsb() {
    println!("(extension: YCSB core mixes x heap configurations, simulated time/op)");
    let results = ycsb_matrix(&YcsbDriver::quick());
    let mut t = TextTable::new(
        "YCSB: time per op (us)",
        &["Mix", "FoC + STM", "FoC + UL", "FoF + STM", "FoF + UL", "FoF"],
    );
    for chunk in results.chunks(5) {
        let mut row = vec![chunk[0].mix.label().to_owned()];
        row.extend(
            chunk
                .iter()
                .map(|r| format!("{:.3}", r.time_per_op.as_nanos() as f64 / 1000.0)),
        );
        t.row(&row);
    }
    print!("{}", t.render());
}

fn print_tradeoff() {
    println!("(extension, paper S6 future work: added capacitance vs expected downtime)");
    let mut t = TextTable::new(
        "Capacitance trade-off (Intel + 750W, high window variance, 4 outages/yr)",
        &["Added F", "Cost ($)", "Window (ms)", "P(miss)", "Downtime/yr (s)"],
    );
    for p in capacitance_curve() {
        t.row(&[
            format!("{:.2}", p.added_capacitance.get()),
            format!("{:.2}", p.cost_usd),
            format!("{:.1}", p.effective_window.as_millis_f64()),
            format!("{:.2}", p.miss_probability),
            format!("{:.1}", p.expected_annual_downtime.as_secs_f64()),
        ]);
    }
    print!("{}", t.render());
}

fn print_hybrid() {
    println!("(extension, paper S6: hybrid DRAM+SCM page placement)");
    let mut t = TextTable::new(
        "Hybrid memory placement (32 GiB DRAM + 256 GiB SCM, 10%/90% hot set)",
        &["Policy", "Avg latency (ns)", "DRAM hit share"],
    );
    for (policy, latency, share) in hybrid_placement() {
        t.row(&[
            policy.label().to_owned(),
            format!("{}", latency.as_nanos()),
            format!("{:.0}%", share * 100.0),
        ]);
    }
    print!("{}", t.render());
}

fn print_fleet() {
    println!("(extension, paper S1 motivation: a simulated year of fleet power events)");
    let (backend, wsp) = fleet_year();
    let mut t = TextTable::new(
        "Fleet availability over one year (100 x 256 GiB servers)",
        &["Discipline", "Availability", "Server-downtime (h)", "Worst recovery"],
    );
    for (label, r) in [("back-end only", backend), ("WSP", wsp)] {
        t.row(&[
            label.to_owned(),
            format!("{:.5}%", r.availability * 100.0),
            format!("{:.1}", r.server_downtime.as_secs_f64() / 3600.0),
            format!("{:.1} min", r.worst_event_recovery.as_secs_f64() / 60.0),
        ]);
    }
    print!("{}", t.render());
}

fn print_ablation() {
    println!("(ablation: SCM write penalty on the S6 save path; index structures under FoC + STM)");
    let mut t = TextTable::new(
        "Ablation: state save (wbinvd, 6 MiB dirty) vs SCM write penalty, AMD testbed",
        &["Write penalty", "Save (ms)"],
    );
    for (penalty, save) in scm_penalty_ablation() {
        t.row(&[format!("{penalty:.0}x"), ms(save)]);
    }
    print!("{}", t.render());
    let mut t = TextTable::new(
        "Ablation: FoC + STM create + 2000 inserts by index structure",
        &["Structure", "Simulated (ms)"],
    );
    for (structure, time) in index_structure_ablation() {
        t.row(&[structure.to_owned(), ms(time)]);
    }
    print!("{}", t.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let which = args.iter().find(|a| !a.starts_with("--")).map_or("all", |s| s.as_str());
    let known = [
        "table1", "table2", "fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
        "feasibility", "recovery-storm", "drills", "ycsb", "tradeoff", "hybrid", "fleet",
        "ablation", "all",
    ];
    if !known.contains(&which) {
        eprintln!("unknown experiment '{which}'; expected one of: {}", known.join(" "));
        return ExitCode::FAILURE;
    }
    let run = |name: &str| which == "all" || which == name;
    if run("table1") {
        print_table1(paper);
        println!();
    }
    if run("table2") {
        print_table2();
        println!();
    }
    if run("fig1") {
        print_fig1();
        println!();
    }
    if run("fig2") {
        print_fig2();
        println!();
    }
    if run("fig5") {
        print_fig5(paper);
        println!();
    }
    if run("fig6") {
        print_fig6();
        println!();
    }
    if run("fig7") {
        print_fig7();
        println!();
    }
    if run("fig8") {
        print_fig8();
        println!();
    }
    if run("fig9") {
        print_fig9();
        println!();
    }
    if run("feasibility") {
        print_feasibility();
        println!();
    }
    if run("recovery-storm") {
        print_storm();
        println!();
    }
    if run("drills") {
        print_drills();
        println!();
    }
    if run("ycsb") {
        print_ycsb();
        println!();
    }
    if run("tradeoff") {
        print_tradeoff();
        println!();
    }
    if run("hybrid") {
        print_hybrid();
        println!();
    }
    if run("fleet") {
        print_fleet();
        println!();
    }
    if run("ablation") {
        print_ablation();
    }
    ExitCode::SUCCESS
}
