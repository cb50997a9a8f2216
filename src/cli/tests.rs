use super::render::render_snapshot;
use super::*;
use std::fmt::Write as _;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

#[test]
fn parses_analyze_with_options() {
    let cmd = parse_args(argv(
        "analyze foo.bench --engine sat --cycles 3 --backtracks 99 --threads 4 --quiet",
    ))
    .expect("parse");
    assert_eq!(cmd.action, Action::Analyze("foo.bench".into()));
    assert_eq!(cmd.engine, Engine::Sat);
    assert_eq!(cmd.cycles, 3);
    assert_eq!(cmd.backtracks, 99);
    assert_eq!(cmd.threads, 4);
    assert!(cmd.quiet);
}

#[test]
fn parses_scheduler_policy() {
    let cmd = parse_args(argv("analyze f.bench")).expect("parse");
    assert_eq!(cmd.scheduler, Scheduler::WorkSteal, "stealing is default");
    assert_eq!(cmd.config().scheduler, Scheduler::WorkSteal);
    let cmd = parse_args(argv("analyze f.bench --scheduler static")).expect("parse");
    assert_eq!(cmd.scheduler, Scheduler::Static);
    assert_eq!(cmd.config().scheduler, Scheduler::Static);
    let cmd = parse_args(argv("analyze f.bench --scheduler steal")).expect("parse");
    assert_eq!(cmd.scheduler, Scheduler::WorkSteal);
    assert!(parse_args(argv("analyze f.bench --scheduler fifo")).is_err());
    assert!(parse_args(argv("analyze f.bench --scheduler")).is_err());
}

#[test]
fn rejects_unknown_flags_and_engines() {
    assert!(parse_args(argv("analyze f.bench --frobnicate")).is_err());
    assert!(parse_args(argv("analyze f.bench --engine quantum")).is_err());
    assert!(parse_args(argv("kcycle f.bench")).is_err(), "needs --max-k");
    assert!(parse_args(argv("teleport f.bench")).is_err());
    assert!(parse_args(Vec::<String>::new()).is_err());
}

#[test]
fn gen_emits_parseable_bench() {
    let cmd = parse_args(argv("gen m27")).expect("parse");
    let text = run(&cmd).expect("run");
    let nl = bench::parse("m27", &text).expect("generated bench parses");
    assert!(nl.num_ffs() >= 3);
}

#[test]
fn gen_rejects_unknown_circuit() {
    let cmd = parse_args(argv("gen s99999")).expect("parse");
    assert!(run(&cmd).is_err());
}

#[test]
fn analyze_runs_on_a_generated_file() {
    let dir = std::env::temp_dir().join("mcpath-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&path, text).expect("write");

    let cmd = parse_args(argv(&format!("analyze {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("analyze");
    assert!(out.contains("multi-cycle"), "{out}");

    let cmd = parse_args(argv(&format!("hazard {} --quiet", path.display()))).expect("parse");
    let out = run(&cmd).expect("hazard");
    assert!(out.contains("Sensitization"), "{out}");

    let cmd = parse_args(argv(&format!("kcycle {} --max-k 4", path.display()))).expect("parse");
    let out = run(&cmd).expect("kcycle");
    assert!(out.contains("cycles"), "{out}");
    // The budget sweep is deterministic under parallel scheduling.
    for extra in ["--threads 8", "--threads 8 --scheduler static"] {
        let cmd = parse_args(argv(&format!(
            "kcycle {} --max-k 4 {extra}",
            path.display()
        )))
        .expect("parse");
        assert_eq!(run(&cmd).expect("kcycle parallel"), out, "{extra}");
    }

    let cmd = parse_args(argv(&format!("sdc {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("sdc");
    assert!(out.contains("set_multicycle_path"), "{out}");
    let cmd = parse_args(argv(&format!("sdc {} --robust cosens", path.display()))).expect("parse");
    let out = run(&cmd).expect("sdc robust");
    assert!(out.contains("hazard-robust"), "{out}");

    let cmd = parse_args(argv(&format!("deps {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("deps");
    assert!(out.contains("sensitization-robust"), "{out}");

    let cmd = parse_args(argv(&format!("stats {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("stats");
    assert!(out.contains("ff_pairs"), "{out}");
}

#[test]
fn dot_and_glitch_subcommands_work() {
    let dir = std::env::temp_dir().join("mcpath-cli-test2");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("fig3.bench");
    let nl = mcp_gen::circuits::fig3();
    std::fs::write(&path, bench::to_bench(&nl)).expect("write");

    let cmd = parse_args(argv(&format!("sweep {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("sweep");
    let swept = bench::parse("swept", &out).expect("swept output parses");
    assert_eq!(swept.num_ffs(), nl.num_ffs());

    let cmd = parse_args(argv(&format!("dot {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("dot");
    assert!(out.starts_with("digraph"), "{out}");

    let vcd = dir.join("glitch.vcd");
    let cmd = parse_args(argv(&format!(
        "glitch {} FF3 FF2 {}",
        path.display(),
        vcd.display()
    )))
    .expect("parse");
    let out = run(&cmd).expect("glitch");
    assert!(out.contains("glitch found"), "{out}");
    let text = std::fs::read_to_string(&vcd).expect("vcd written");
    assert!(text.contains("$enddefinitions"));

    // A non-FF name is a clean error.
    let cmd = parse_args(argv(&format!(
        "glitch {} EN2 FF2 {}",
        path.display(),
        vcd.display()
    )))
    .expect("parse");
    assert!(run(&cmd).is_err());
}

#[test]
fn lint_subcommand_reports_and_gates() {
    let dir = std::env::temp_dir().join("mcpath-cli-lint");
    std::fs::create_dir_all(&dir).expect("tmp dir");

    // A clean generated circuit lints without findings.
    let clean = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&clean, text).expect("write");
    let out = run(&parse_args(argv(&format!("lint {}", clean.display()))).expect("parse"))
        .expect("lint clean");
    assert!(out.contains("0 error(s)"), "{out}");

    // JSON format is machine-parseable.
    let out =
        run(&parse_args(argv(&format!("lint {} --format json", clean.display()))).expect("parse"))
            .expect("lint json");
    assert!(
        serde_json::from_str::<mcp_lint::Diagnostics>(&out).is_ok(),
        "{out}"
    );
    assert!(parse_args(argv("lint f.bench --format yaml")).is_err());

    // A combinational cycle lints (permissive parse) and fails the
    // command with an error-level diagnostic...
    let cyclic = dir.join("cyclic.bench");
    std::fs::write(&cyclic, "OUTPUT(a)\na = NOT(b)\nb = NOT(a)\n").expect("write");
    let err =
        run(&parse_args(argv(&format!("lint {}", cyclic.display()))).expect("parse")).unwrap_err();
    assert!(err.contains("comb-cycle"), "{err}");

    // ...while `analyze` refuses the same file already at load time.
    let err = run(&parse_args(argv(&format!("analyze {}", cyclic.display()))).expect("parse"))
        .unwrap_err();
    assert!(err.contains("cyclic"), "{err}");
}

#[test]
fn no_lint_flag_reaches_the_config() {
    let cmd = parse_args(argv("analyze f.bench --no-lint")).expect("parse");
    assert!(cmd.no_lint);
    assert!(!cmd.config().lint);
    let cmd = parse_args(argv("analyze f.bench")).expect("parse");
    assert!(cmd.config().lint);
}

#[test]
fn no_static_classify_flag_reaches_the_config() {
    let cmd = parse_args(argv("analyze f.bench --no-static-classify")).expect("parse");
    assert!(cmd.no_static_classify);
    assert!(!cmd.config().static_classify);
    // Without the flag the default applies (on, unless the
    // MCPATH_NO_STATIC_CLASSIFY env var is set in this test
    // environment).
    let cmd = parse_args(argv("analyze f.bench")).expect("parse");
    assert_eq!(
        cmd.config().static_classify,
        McConfig::default().static_classify
    );
}

#[test]
fn lint_deny_allow_and_max_diags() {
    let dir = std::env::temp_dir().join("mcpath-cli-lint-flags");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    // A dangling FF (never marked as an output) is a Warn-level
    // finding by default.
    let dangling = dir.join("dangling.bench");
    std::fs::write(
        &dangling,
        "INPUT(a)\nINPUT(b)\nOUTPUT(o)\nq = DFF(g)\ng = NOT(a)\no = AND(a, b)\n",
    )
    .expect("write");

    // Warnings pass by default...
    let out = run(&parse_args(argv(&format!("lint {}", dangling.display()))).expect("parse"))
        .expect("lint warns only");
    assert!(out.contains("dangling-ff"), "{out}");
    assert!(out.contains("0 error(s)"), "{out}");

    // ...but `--deny` escalates the rule to a gating error...
    let err = run(&parse_args(argv(&format!(
        "lint {} --deny dangling-ff",
        dangling.display()
    )))
    .expect("parse"))
    .unwrap_err();
    assert!(err.contains("error[dangling-ff]"), "{err}");

    // ...and `--allow` suppresses it entirely.
    let out = run(&parse_args(argv(&format!(
        "lint {} --allow dangling-ff",
        dangling.display()
    )))
    .expect("parse"))
    .expect("lint allowed");
    assert!(!out.contains("dangling-ff"), "{out}");

    // `--max-diags 0` truncates the listing but keeps the total note.
    let out = run(
        &parse_args(argv(&format!("lint {} --max-diags 0", dangling.display()))).expect("parse"),
    )
    .expect("lint capped");
    assert!(!out.contains("dangling-ff"), "{out}");
    assert!(out.contains("showing 0 of"), "{out}");

    // The cap must not mask the error gate: a comb cycle still fails
    // even when its finding is cut from the listing.
    let cyclic = dir.join("cyclic.bench");
    std::fs::write(&cyclic, "OUTPUT(a)\na = NOT(b)\nb = NOT(a)\n").expect("write");
    let err =
        run(&parse_args(argv(&format!("lint {} --max-diags 0", cyclic.display()))).expect("parse"))
            .unwrap_err();
    assert!(err.contains("showing 0 of"), "{err}");

    // Typos in rule names are clean errors, not silent no-ops.
    for flag in ["--deny", "--allow"] {
        let err = run(&parse_args(argv(&format!(
            "lint {} {flag} no-such-rule",
            dangling.display()
        )))
        .expect("parse"))
        .unwrap_err();
        assert!(err.contains("unknown lint rule"), "{err}");
    }
    assert!(parse_args(argv("lint f.bench --max-diags abc")).is_err());
    assert!(parse_args(argv("lint f.bench --deny")).is_err());
}

#[test]
fn no_slice_flag_reaches_the_config() {
    let cmd = parse_args(argv("analyze f.bench --no-slice")).expect("parse");
    assert!(cmd.no_slice);
    assert!(!cmd.config().slice);
    // Without the flag the default applies (on, unless the
    // MCPATH_NO_SLICE env var is set in this test environment).
    let cmd = parse_args(argv("analyze f.bench")).expect("parse");
    assert_eq!(cmd.config().slice, McConfig::default().slice);
}

#[test]
fn sim_lanes_flag_reaches_the_config() {
    let cmd = parse_args(argv("analyze f.bench --sim-lanes 128")).expect("parse");
    assert_eq!(cmd.sim_lanes, Some(128));
    assert_eq!(cmd.config().sim_lanes(), 128);
    // Without the flag the default applies (256 lanes).
    let cmd = parse_args(argv("analyze f.bench")).expect("parse");
    assert_eq!(cmd.config().sim, McConfig::default().sim);
    assert_eq!(cmd.config().sim_lanes(), 256);
    // Non-numeric widths are parse errors; missing values too.
    assert!(parse_args(argv("analyze f.bench --sim-lanes abc")).is_err());
    assert!(parse_args(argv("analyze f.bench --sim-lanes")).is_err());
}

#[test]
fn sim_kernel_flag_reaches_the_config() {
    use mcp_sim::SimKernel;

    let cmd = parse_args(argv("analyze f.bench --sim-kernel reference")).expect("parse");
    assert_eq!(cmd.sim_kernel, Some(SimKernel::Reference));
    assert_eq!(cmd.config().sim.kernel, SimKernel::Reference);

    let cmd = parse_args(argv("analyze f.bench --sim-kernel fused")).expect("parse");
    assert_eq!(cmd.config().sim.kernel, SimKernel::Fused);

    // Without the flag the default applies (fused).
    let cmd = parse_args(argv("analyze f.bench")).expect("parse");
    assert_eq!(cmd.config().sim.kernel, SimKernel::Fused);

    assert!(parse_args(argv("analyze f.bench --sim-kernel turbo")).is_err());
    assert!(parse_args(argv("analyze f.bench --sim-kernel")).is_err());
    // The deleted kernels and their alias flags are gone.
    for gone in [
        "--sim-kernel jit",
        "--sim-kernel tape",
        "--no-jit",
        "--no-tape",
    ] {
        assert!(
            parse_args(argv(&format!("analyze f.bench {gone}"))).is_err(),
            "{gone} must be rejected"
        );
    }

    // The kernel is verdict-neutral: it must not move the config
    // fingerprint (or the warm cache would go cold on an A/B flag).
    let base = parse_args(argv("analyze f.bench")).expect("parse");
    for alt in ["--sim-kernel fused", "--sim-kernel reference"] {
        let cmd = parse_args(argv(&format!("analyze f.bench {alt}"))).expect("parse");
        assert_eq!(
            cmd.config().fingerprint(),
            base.config().fingerprint(),
            "{alt} must not change the fingerprint"
        );
    }
}

#[test]
fn unsupported_lane_width_is_a_clean_analyze_error() {
    // 96 parses as a number; `analyze` rejects it (the same check
    // covers library callers, so the CLI does not pre-validate).
    let dir = std::env::temp_dir().join("mcpath-cli-test-lanes");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let cmd = parse_args(argv(&format!(
        "analyze {} --sim-lanes 96 --quiet",
        bench_path.display()
    )))
    .expect("parse");
    let err = run(&cmd).unwrap_err();
    assert!(err.contains("sim lanes"), "{err}");
    assert!(err.contains("96"), "{err}");
}

#[test]
fn parses_observability_flags() {
    let cmd = parse_args(argv(
        "analyze foo.bench --metrics --trace-out t.ndjson --progress",
    ))
    .expect("parse");
    assert!(cmd.metrics);
    assert_eq!(cmd.trace_out.as_deref(), Some("t.ndjson"));
    assert!(cmd.progress);
    assert!(parse_args(argv("analyze f.bench --trace-out")).is_err());
}

#[test]
fn metrics_trace_and_stats_round_trip() {
    let dir = std::env::temp_dir().join("mcpath-cli-test3");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let json = dir.join("report.json");
    let trace = dir.join("trace.ndjson");

    let cmd = parse_args(argv(&format!(
        "analyze {} --metrics --json {} --trace-out {} --quiet",
        bench_path.display(),
        json.display(),
        trace.display()
    )))
    .expect("parse");
    let out = run(&cmd).expect("analyze");
    assert!(out.contains("engine counters:"), "{out}");
    assert!(out.contains("implications"), "{out}");
    assert!(out.contains("per-step resolution"), "{out}");
    assert!(out.contains("throughput"), "{out}");
    assert!(out.contains("sim_words_per_sec"), "{out}");
    // The throughput attribution names the kernel that ran.
    assert!(out.contains("sim_kernels"), "{out}");
    assert!(out.contains("[fused]"), "{out}");

    // `stats` on the NDJSON journal aggregates the per-pair events.
    let cmd = parse_args(argv(&format!("stats {}", trace.display()))).expect("parse");
    let out = run(&cmd).expect("stats journal");
    assert!(out.contains("trace journal:"), "{out}");
    assert!(out.contains("total"), "{out}");

    // `stats` on the saved JSON report prints the same tables.
    let cmd = parse_args(argv(&format!("stats {}", json.display()))).expect("parse");
    let out = run(&cmd).expect("stats report");
    assert!(out.contains("saved report"), "{out}");
    assert!(out.contains("engine counters:"), "{out}");

    // A JSON file that is neither is a clean error.
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "[1, 2, 3]").expect("write");
    let cmd = parse_args(argv(&format!("stats {}", bogus.display()))).expect("parse");
    assert!(run(&cmd).is_err());
}

#[test]
fn reports_saved_with_a_deleted_kernel_still_load() {
    // Reports written before the prefilter was cut to two kernels carry
    // `"sim_kernel": "JitAvx2"` (or `Tape`, ...) and the deleted
    // kernels' counters. `stats` and `stats --compare` must read them.
    let dir = std::env::temp_dir().join("mcpath-cli-old-kernel");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let new = dir.join("new.json");
    let cmd = parse_args(argv(&format!(
        "analyze {} --json {} --quiet",
        bench_path.display(),
        new.display()
    )))
    .expect("parse");
    run(&cmd).expect("analyze");
    let report = std::fs::read_to_string(&new).expect("read report");
    let aged = report
        .replace("\"sim_kernel\": \"fused\"", "\"sim_kernel\": \"JitAvx2\"")
        .replace(
            "\"sim_fused_ops\":",
            "\"sim_tape_ops\": 0, \"jit_compiles\": 1, \"jit_bytes\": 640, \
             \"jit_batches\": 6, \"sim_fused_ops\":",
        );
    assert!(
        aged.contains("JitAvx2") && aged.contains("jit_batches"),
        "{report}"
    );
    let old = dir.join("old.json");
    std::fs::write(&old, aged).expect("write");

    let cmd = parse_args(argv(&format!("stats {}", old.display()))).expect("parse");
    let out = run(&cmd).expect("stats on an old report");
    assert!(out.contains("saved report"), "{out}");
    assert!(out.contains("[JitAvx2]"), "{out}");
    let cmd = parse_args(argv(&format!(
        "stats --compare {} {}",
        old.display(),
        new.display()
    )))
    .expect("parse");
    run(&cmd).expect("compare an old report with a new one");
}

#[test]
fn parses_resume_compare_and_canonical_flags() {
    let cmd = parse_args(argv(
        "analyze f.bench --resume old.ndjson --canonical --json r.json",
    ))
    .expect("parse");
    assert_eq!(cmd.resume.as_deref(), Some("old.ndjson"));
    assert!(cmd.canonical);

    let cmd = parse_args(argv("stats --compare a.json b.json --threshold 5")).expect("parse");
    assert_eq!(
        cmd.action,
        Action::Compare {
            old: "a.json".into(),
            new: "b.json".into()
        }
    );
    assert!((cmd.threshold - 5.0).abs() < 1e-9);
    assert!(parse_args(argv("stats --compare a.json")).is_err());
    assert!(parse_args(argv("stats x.bench --compare a.json b.json")).is_err());
    assert!(parse_args(argv("stats --compare a.json b.json --threshold abc")).is_err());

    let cmd = parse_args(argv("trace t.ndjson")).expect("parse");
    assert_eq!(cmd.action, Action::Trace("t.ndjson".into()));
    assert_eq!(cmd.format, OutputFormat::Chrome, "trace defaults to chrome");
    assert!(parse_args(argv("trace")).is_err());
    assert!(run(&parse_args(argv("lint f.bench --format chrome")).expect("parse")).is_err());
}

#[test]
fn resume_trace_and_compare_round_trip() {
    let dir = std::env::temp_dir().join("mcpath-cli-ledger");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let full = dir.join("full.ndjson");
    let report = dir.join("report.json");
    let c1 = dir.join("c1.json");
    let c2 = dir.join("c2.json");

    // Uninterrupted run: full ledger + plain and canonical reports.
    let out = run(&parse_args(argv(&format!(
        "analyze {} --trace-out {} --json {} --quiet",
        bench_path.display(),
        full.display(),
        report.display()
    )))
    .expect("parse"))
    .expect("analyze");
    assert!(!out.contains("resumed:"), "{out}");
    run(&parse_args(argv(&format!(
        "analyze {} --json {} --canonical --quiet",
        bench_path.display(),
        c1.display()
    )))
    .expect("parse"))
    .expect("analyze canonical");

    // `trace` exports the ledger's span tree as Chrome trace JSON.
    let out = run(&parse_args(argv(&format!("trace {}", full.display()))).expect("parse"))
        .expect("trace ledger");
    let doc: mcp_obs::ChromeTrace = serde_json::from_str(&out).expect("chrome JSON");
    assert!(!doc.traceEvents.is_empty());
    assert!(doc
        .traceEvents
        .iter()
        .any(|e| e.name.starts_with("analyze")));
    // ...and a saved report degrades to span totals.
    let out = run(&parse_args(argv(&format!("trace {}", report.display()))).expect("parse"))
        .expect("trace report");
    let doc: mcp_obs::ChromeTrace = serde_json::from_str(&out).expect("chrome JSON");
    assert!(!doc.traceEvents.is_empty());

    // Simulate a mid-run kill: keep the header and half the events.
    let ledger_text = std::fs::read_to_string(&full).expect("read ledger");
    let lines: Vec<&str> = ledger_text.lines().collect();
    let keep = (lines.len() / 2).max(2);
    let truncated = dir.join("killed.ndjson");
    std::fs::write(&truncated, format!("{}\n", lines[..keep].join("\n"))).expect("write");

    // Resume completes the run; the canonical report is byte-identical.
    let out = run(&parse_args(argv(&format!(
        "analyze {} --resume {} --json {} --canonical --quiet",
        bench_path.display(),
        truncated.display(),
        c2.display()
    )))
    .expect("parse"))
    .expect("resume");
    assert!(out.contains("resumed:"), "{out}");
    assert_eq!(
        std::fs::read(&c1).expect("read c1"),
        std::fs::read(&c2).expect("read c2"),
        "resumed canonical report must be byte-identical"
    );

    // Identical artifacts compare clean; a ledger that gained events
    // relative to its baseline is a regression (exit code 1).
    let out = run(&parse_args(argv(&format!(
        "stats --compare {} {}",
        c1.display(),
        c2.display()
    )))
    .expect("parse"))
    .expect("compare identical");
    assert!(out.contains("no counter differences"), "{out}");
    let err = run(&parse_args(argv(&format!(
        "stats --compare {} {}",
        truncated.display(),
        full.display()
    )))
    .expect("parse"))
    .unwrap_err();
    assert!(err.contains("regression"), "{err}");

    // Resuming against a different circuit is a clean mismatch error
    // that names both digests.
    let fig3 = dir.join("fig3.bench");
    std::fs::write(&fig3, bench::to_bench(&mcp_gen::circuits::fig3())).expect("write");
    let err = run(&parse_args(argv(&format!(
        "analyze {} --resume {} --quiet",
        fig3.display(),
        full.display()
    )))
    .expect("parse"))
    .unwrap_err();
    assert!(err.contains("netlist mismatch"), "{err}");
    assert!(err.contains("ledger digest"), "{err}");
}

#[test]
fn span_table_renders_as_an_indented_hierarchy() {
    let mut snap = mcp_obs::MetricsSnapshot::default();
    snap.spans.insert(
        "analyze".to_owned(),
        mcp_obs::SpanStat {
            total: Duration::from_millis(10),
            count: 1,
        },
    );
    snap.spans.insert(
        "analyze/pairs".to_owned(),
        mcp_obs::SpanStat {
            total: Duration::from_millis(8),
            count: 4,
        },
    );
    snap.spans.insert(
        "orphan/child".to_owned(),
        mcp_obs::SpanStat {
            total: Duration::from_millis(1),
            count: 1,
        },
    );
    let out = render_snapshot(&snap);
    assert!(out.contains("\n  analyze "), "{out}");
    assert!(out.contains("\n    pairs"), "indented child:\n{out}");
    assert!(out.contains("mean 2.00ms"), "per-entry mean:\n{out}");
    assert!(out.contains("  orphan/\n"), "ancestor header:\n{out}");
    assert!(out.contains("\n    child"), "{out}");
}

#[test]
fn parses_shard_and_merge_surfaces() {
    // `shard` needs --shard I/N and --trace-out.
    let cmd = parse_args(argv("shard f.bench --shard 2/4 --trace-out s2.ndjson")).expect("parse");
    assert_eq!(cmd.action, Action::Shard("f.bench".into()));
    assert_eq!(cmd.shard, Some((2, 4)));
    assert_eq!(cmd.config().shard, Some(ShardSpec { index: 2, count: 4 }));
    assert!(parse_args(argv("shard f.bench --trace-out s.ndjson")).is_err());
    assert!(parse_args(argv("shard f.bench --shard 0/4")).is_err());
    for bad in ["2", "2/", "/4", "a/b", "1/2/3"] {
        assert!(
            parse_args(argv(&format!(
                "shard f.bench --shard {bad} --trace-out s.ndjson"
            )))
            .is_err(),
            "--shard {bad} must be rejected"
        );
    }

    // `merge` takes the bench plus at least one ledger.
    let cmd = parse_args(argv("merge f.bench a.ndjson b.ndjson")).expect("parse");
    assert_eq!(
        cmd.action,
        Action::Merge {
            path: "f.bench".into(),
            ledgers: vec!["a.ndjson".into(), "b.ndjson".into()],
        }
    );
    assert!(parse_args(argv("merge f.bench")).is_err());

    // `analyze --shards` is the driver; it refuses `--resume`.
    let cmd = parse_args(argv("analyze f.bench --shards 4")).expect("parse");
    assert_eq!(cmd.shards, Some(4));
    assert!(
        cmd.config().shard.is_none(),
        "the driver itself is unsharded"
    );
    assert!(parse_args(argv("analyze f.bench --shards 0")).is_err());
    assert!(parse_args(argv("analyze f.bench --shards abc")).is_err());
    let err = parse_args(argv("analyze f.bench --shards 2 --resume l.ndjson")).unwrap_err();
    assert!(err.to_string().contains("--resume"), "{err}");
}

#[test]
fn shard_children_inherit_the_fingerprint_flags() {
    let cmd = parse_args(argv(
        "analyze f.bench --shards 2 --engine sat --cycles 3 --backtracks 99 --learn \
         --threads 4 --scheduler static --no-sim --sim-lanes 128 \
         --sim-kernel reference --no-self-pairs --no-lint --no-slice \
         --no-static-classify",
    ))
    .expect("parse");
    let flags = cmd.child_flags();
    let rebuilt = parse_args(
        ["shard".into(), "f.bench".into()]
            .into_iter()
            .chain([
                "--shard".to_owned(),
                "0/2".to_owned(),
                "--trace-out".to_owned(),
                "s.ndjson".to_owned(),
            ])
            .chain(flags),
    )
    .expect("child command parses");
    // The verdict-affecting config must survive the round trip
    // exactly: equal fingerprints are what `merge` enforces.
    assert_eq!(rebuilt.config().fingerprint(), cmd.config().fingerprint());
    // And the neutral scheduling knobs ride along too.
    assert_eq!(rebuilt.threads, cmd.threads);
    assert_eq!(rebuilt.scheduler, cmd.scheduler);
    assert_eq!(rebuilt.sim_kernel, cmd.sim_kernel);
    assert_eq!(rebuilt.sim_lanes, cmd.sim_lanes);
    assert!(rebuilt.quiet);
}

#[test]
fn shard_and_merge_round_trip_matches_single_process() {
    let dir = std::env::temp_dir().join("mcpath-cli-shard");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");

    // Single-process canonical baseline.
    let baseline = dir.join("baseline.json");
    run(&parse_args(argv(&format!(
        "analyze {} --threads 1 --json {} --canonical --quiet",
        bench_path.display(),
        baseline.display()
    )))
    .expect("parse"))
    .expect("baseline analyze");

    // Run the three shards in-process and merge their ledgers.
    let mut ledger_args = String::new();
    for index in 0..3 {
        let ledger = dir.join(format!("shard-{index}.ndjson"));
        let out = run(&parse_args(argv(&format!(
            "shard {} --shard {index}/3 --trace-out {} --quiet",
            bench_path.display(),
            ledger.display()
        )))
        .expect("parse"))
        .expect("shard run");
        assert!(out.contains(&format!("shard {index}/3:")), "{out}");
        let _ = write!(ledger_args, " {}", ledger.display());
    }
    let merged = dir.join("merged.json");
    let out = run(&parse_args(argv(&format!(
        "merge {}{ledger_args} --json {} --canonical --quiet",
        bench_path.display(),
        merged.display()
    )))
    .expect("parse"))
    .expect("merge");
    assert!(out.contains("merged: 3 shard ledgers"), "{out}");
    assert_eq!(
        std::fs::read(&baseline).expect("read baseline"),
        std::fs::read(&merged).expect("read merged"),
        "merged canonical report must be byte-identical"
    );

    // A missing shard is refused with a clean message.
    let err = run(&parse_args(argv(&format!(
        "merge {} {}",
        bench_path.display(),
        dir.join("shard-0.ndjson").display()
    )))
    .expect("parse"))
    .unwrap_err();
    assert!(err.contains("missing shard"), "{err}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let cmd = parse_args(argv("analyze /no/such/file.bench")).expect("parse");
    let err = run(&cmd).unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn help_prints_usage() {
    let out = run(&parse_args(argv("help")).expect("parse")).expect("run");
    assert!(out.contains("USAGE"));
}

#[test]
fn parses_cache_and_eco_flags() {
    let cmd = parse_args(argv("analyze f.bench --cache-dir /tmp/c")).expect("parse");
    assert_eq!(cmd.cache_dir.as_deref(), Some("/tmp/c"));
    assert_eq!(
        cmd.config().cache_dir,
        Some(std::path::PathBuf::from("/tmp/c"))
    );

    let cmd =
        parse_args(argv("analyze f.bench --eco old.bench --cache-dir /tmp/c")).expect("parse");
    assert_eq!(cmd.eco.as_deref(), Some("old.bench"));

    // `--eco` belongs to `analyze`, needs a cache, and refuses the other
    // verdict-replay modes (each owns the restored-pair journal).
    assert!(parse_args(argv("hazard f.bench --eco old.bench --cache-dir /tmp/c")).is_err());
    if std::env::var_os("MCPATH_CACHE_DIR").is_none() {
        assert!(parse_args(argv("analyze f.bench --eco old.bench")).is_err());
    }
    for bad in ["--shards 2", "--resume l.ndjson", "--shard 0/2"] {
        assert!(
            parse_args(argv(&format!(
                "analyze f.bench --eco old.bench --cache-dir /tmp/c {bad}"
            )))
            .is_err(),
            "--eco with {bad} must be rejected"
        );
    }

    // `serve` requires the resident store.
    let cmd = parse_args(argv("serve /tmp/s.sock --cache-dir /tmp/c")).expect("parse");
    assert_eq!(cmd.action, Action::Serve("/tmp/s.sock".into()));
    assert!(parse_args(argv("serve /tmp/s.sock")).is_err());
}

#[test]
fn warm_cache_rerun_is_byte_identical_with_zero_engine_events() {
    let dir = std::env::temp_dir().join("mcpath-cli-cache");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let cache = dir.join("cache");
    let cold = dir.join("cold.json");
    let warm = dir.join("warm.json");
    let journal = dir.join("warm.ndjson");

    let out = run(&parse_args(argv(&format!(
        "analyze {} --cache-dir {} --json {} --canonical --quiet",
        bench_path.display(),
        cache.display(),
        cold.display()
    )))
    .expect("parse"))
    .expect("cold run");
    assert!(out.contains("cache: miss"), "{out}");

    let out = run(&parse_args(argv(&format!(
        "analyze {} --cache-dir {} --json {} --canonical --trace-out {} --quiet",
        bench_path.display(),
        cache.display(),
        warm.display(),
        journal.display()
    )))
    .expect("parse"))
    .expect("warm run");
    assert!(out.contains("cache: hit"), "{out}");
    assert_eq!(
        std::fs::read(&cold).expect("read cold"),
        std::fs::read(&warm).expect("read warm"),
        "warm canonical report must be byte-identical"
    );

    // The warm journal shows zero engine-tagged events: every verdict
    // was spliced from the verdicts artifact.
    let events = mcp_obs::read_journal_file(&journal).expect("read journal");
    assert!(
        events.iter().all(|e| e.engine.is_none()),
        "warm rerun must perform zero engine verifications"
    );
    assert!(events.iter().any(|e| e.cached), "spliced events are tagged");
}

#[test]
fn eco_cli_run_matches_a_cold_full_run() {
    let dir = std::env::temp_dir().join("mcpath-cli-eco");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let old_path = dir.join("old.bench");
    let old_text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&old_path, &old_text).expect("write");
    // One-gate edit: the first AND becomes an OR.
    let new_text = old_text.replacen("= AND(", "= OR(", 1);
    assert_ne!(old_text, new_text, "the suite circuit must contain an AND");
    let new_path = dir.join("new.bench");
    std::fs::write(&new_path, new_text).expect("write");

    let cache = dir.join("cache");
    let eco_json = dir.join("eco.json");
    let cold_json = dir.join("cold.json");

    // Seed the store with the baseline's artifacts.
    run(&parse_args(argv(&format!(
        "analyze {} --cache-dir {} --quiet",
        old_path.display(),
        cache.display()
    )))
    .expect("parse"))
    .expect("baseline run");

    let out = run(&parse_args(argv(&format!(
        "analyze {} --eco {} --cache-dir {} --json {} --canonical --quiet",
        new_path.display(),
        old_path.display(),
        cache.display(),
        eco_json.display()
    )))
    .expect("parse"))
    .expect("eco run");
    assert!(out.contains("eco: "), "{out}");
    assert!(!out.contains("ran the full analysis"), "{out}");

    // Cold full run of the new netlist, no cache involved.
    run(&parse_args(argv(&format!(
        "analyze {} --json {} --canonical --quiet",
        new_path.display(),
        cold_json.display()
    )))
    .expect("parse"))
    .expect("cold run");
    assert_eq!(
        std::fs::read(&eco_json).expect("read eco"),
        std::fs::read(&cold_json).expect("read cold"),
        "ECO report must be byte-identical to the cold full run"
    );
}

#[test]
fn cache_stats_and_gc_subcommands_manage_the_store() {
    let dir = std::env::temp_dir().join("mcpath-cli-cache-gc");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let cache = dir.join("cache");

    // Parse-level contracts first.
    assert!(parse_args(argv("cache")).is_err(), "needs an operation");
    assert!(
        parse_args(argv("cache gc --cache-dir /tmp/c")).is_err(),
        "gc needs --max-bytes"
    );
    assert!(parse_args(argv("cache gc --cache-dir /tmp/c --max-bytes abc")).is_err());
    if std::env::var_os("MCPATH_CACHE_DIR").is_none() {
        assert!(parse_args(argv("cache stats")).is_err(), "needs a dir");
    }

    // Fill the store, then inspect it.
    run(&parse_args(argv(&format!(
        "analyze {} --cache-dir {} --quiet",
        bench_path.display(),
        cache.display()
    )))
    .expect("parse"))
    .expect("seed the store");
    let out = run(&parse_args(argv(&format!(
        "cache stats --cache-dir {}",
        cache.display()
    )))
    .expect("parse"))
    .expect("stats");
    assert!(out.contains("entries:"), "{out}");
    assert!(out.contains("verdicts"), "{out}");
    assert!(out.contains("locked by: nobody"), "{out}");

    // A generous budget evicts nothing; a zero budget empties the store.
    let out = run(&parse_args(argv(&format!(
        "cache gc --cache-dir {} --max-bytes 100000000",
        cache.display()
    )))
    .expect("parse"))
    .expect("gc noop");
    assert!(out.contains("evicted 0 file(s)"), "{out}");
    let out = run(&parse_args(argv(&format!(
        "cache gc --cache-dir {} --max-bytes 0",
        cache.display()
    )))
    .expect("parse"))
    .expect("gc all");
    assert!(out.contains("kept 0 entries"), "{out}");

    // The next analyze is a cold miss again — eviction is safe, never
    // corrupting (missing entries are plain misses).
    let out = run(&parse_args(argv(&format!(
        "analyze {} --cache-dir {} --quiet",
        bench_path.display(),
        cache.display()
    )))
    .expect("parse"))
    .expect("re-seed");
    assert!(out.contains("cache: miss"), "{out}");

    // A live lock holder blocks eviction with a typed refusal.
    let store = mcp_core::CasStore::open(&cache).expect("open");
    let lock = mcp_core::CasLock::acquire(&store).expect("lock");
    let err = run(&parse_args(argv(&format!(
        "cache gc --cache-dir {} --max-bytes 0",
        cache.display()
    )))
    .expect("parse"))
    .unwrap_err();
    assert!(err.contains("locked by live process"), "{err}");
    drop(lock);
}

#[test]
fn serve_answers_ndjson_requests_over_the_socket() {
    use std::io::{BufRead, BufReader, Write as _};

    let dir = std::env::temp_dir().join("mcpath-cli-serve");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let socket = dir.join("mcpath.sock");
    let cache = dir.join("cache");

    let cmd = parse_args(argv(&format!(
        "serve {} --cache-dir {} --quiet",
        socket.display(),
        cache.display()
    )))
    .expect("parse");
    let server = std::thread::spawn(move || run(&cmd));

    // Wait for the socket to appear.
    let mut stream = None;
    for _ in 0..200 {
        match std::os::unix::net::UnixStream::connect(&socket) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let mut stream = stream.expect("server came up");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut send = |req: String| -> String {
        stream.write_all(req.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        line
    };

    // First request is a cold miss, the repeat is a warm hit; both carry
    // the canonical report inline.
    let r1 = send(format!(
        "{{\"op\":\"analyze\",\"path\":\"{}\"}}",
        bench_path.display()
    ));
    assert!(r1.contains("\"ok\":true"), "{r1}");
    assert!(r1.contains("\"cache_hit\":false"), "{r1}");
    assert!(r1.contains("m27.bench"), "{r1}");
    assert!(r1.contains("\"report\":{"), "{r1}");
    let r2 = send(format!(
        "{{\"op\":\"analyze\",\"path\":\"{}\"}}",
        bench_path.display()
    ));
    assert!(r2.contains("\"cache_hit\":true"), "{r2}");

    // Malformed requests are per-line errors, not connection drops.
    let r3 = send("{\"op\":\"analyze\"}".to_owned());
    assert!(r3.contains("\"ok\":false"), "{r3}");
    let r4 = send("not json".to_owned());
    assert!(r4.contains("\"ok\":false"), "{r4}");

    let r5 = send("{\"op\":\"shutdown\"}".to_owned());
    assert!(r5.contains("\"ok\":true"), "{r5}");
    let out = server.join().expect("join").expect("serve ok");
    assert!(out.contains("served 5 request(s)"), "{out}");
}

#[test]
fn metrics_is_refused_where_nothing_would_print_it() {
    // `--metrics` renders `analyze`'s counters; the hazard commands used
    // to accept and drop it, so it is a usage error (exit 2) there.
    for sub in [
        "hazard f.bench",
        "sdc f.bench --robust cosens",
        "deps f.bench",
    ] {
        let err = parse_args(argv(&format!("{sub} --metrics"))).unwrap_err();
        assert!(err.0.contains("`--metrics` does not apply"), "{sub}: {err}");
    }
    assert!(parse_args(argv("analyze f.bench --metrics")).is_ok());
}

#[test]
fn hazard_commands_journal_the_hazard_span_to_trace_out() {
    let dir = std::env::temp_dir().join("mcpath-cli-hazard-trace");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m298.bench");
    let text = run(&parse_args(argv("gen m298")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");

    for sub in [
        "sdc {} --robust cosens",
        "hazard {} --quiet",
        "deps {} --quiet",
    ] {
        let trace = dir.join("t.ndjson");
        let _ = std::fs::remove_file(&trace);
        let args = sub.replace("{}", &bench_path.display().to_string());
        let cmd =
            parse_args(argv(&format!("{args} --trace-out {}", trace.display()))).expect("parse");
        let untraced = run(&parse_args(argv(&args)).expect("parse")).expect("untraced run");
        assert_eq!(
            run(&cmd).expect("traced run"),
            untraced,
            "{sub}: tracing changes no output"
        );

        // The journal carries the analysis (header, verdicts, spans) and,
        // after it, the hazard check's span.
        let ledger = mcp_obs::read_ledger_resilient_file(&trace).expect("journal parses");
        assert!(ledger.header.is_some(), "{sub}: run header");
        assert!(!ledger.events.is_empty(), "{sub}: pair verdicts");
        let spans: Vec<&str> = ledger.spans.iter().map(|s| s.span.as_str()).collect();
        assert!(spans.contains(&"analyze"), "{sub}: {spans:?}");
        assert!(spans.contains(&"hazard/check"), "{sub}: {spans:?}");
        let stats = parse_args(argv(&format!("stats {}", trace.display()))).expect("parse");
        assert!(run(&stats).expect("stats").contains("trace journal:"));
    }
}
