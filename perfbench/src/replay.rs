//! The traced run: each op runs once through `mcpath::cli::run`
//! in-process (untraced, checked against the oracle), then is replayed
//! layer by layer through each crate's public functions, with a span
//! around every call and counts taken at the same call sites.

use crate::trace::Tracer;
use crate::{check_verdicts, cli_config, median, Bench, Kind, Op, Outcome, Tally, CACHE_DIR};
use mcp_atpg::SearchConfig;
use mcp_core::engines::{classify_pair_implication_probed, PairProbe, Verdict};
use mcp_core::{
    analyze_cached_with, analyze_eco_with, analyze_with, check_hazards, to_sdc, CasStore,
    HazardCheck, McConfig, McReport, PairClass, SdcOptions, Step,
};
use mcp_implication::ImpEngine;
use mcp_netlist::{bench, Expanded, Netlist, NodeKind, XId};
use mcp_obs::ObsCtx;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Layer spans and the metric their self time is reported as, in
/// report order.
const LAYERS: [(&str, &str); 17] = [
    ("netlist.parse", "netlist.parse_ms"),
    ("netlist.pairs", "netlist.pairs_ms"),
    ("netlist.expand", "netlist.expand_ms"),
    ("netlist.slice", "netlist.slice_ms"),
    ("netlist.diff", "netlist.diff_ms"),
    ("lint.gate", "lint.gate_ms"),
    ("lint.dataflow", "lint.dataflow_ms"),
    ("sim.filter", "sim.filter_ms"),
    ("core.plan", "core.plan_ms"),
    ("engines.classify", "engines.classify_ms"),
    ("hazard.cosens", "hazard.cosens_ms"),
    ("sdc.emit", "sdc.emit_ms"),
    ("sdc.validate", "sdc.validate_ms"),
    ("eco.dirty", "eco.dirty_ms"),
    ("core.eco", "core.eco_ms"),
    ("core.cached", "core.cached_ms"),
    ("cli.render", "cli.render_ms"),
];

/// Counts and ratios reported per pass, with their units.
const COUNTS: [(&str, &str); 26] = [
    ("netlist.slice_nodes", "count"),
    ("lint.nodes_visited", "count"),
    ("sim.words", "count"),
    ("sim.pairs_dropped", "count"),
    ("sim.drop_ratio", "ratio"),
    ("sim.ns_per_word", "ns"),
    ("engines.implication_ratio", "ratio"),
    ("implication.implications", "count"),
    ("implication.contradictions", "count"),
    ("atpg.decisions", "count"),
    ("atpg.backtracks", "count"),
    ("atpg.aborts", "count"),
    ("hazard.robust", "count"),
    ("hazard.demoted", "count"),
    ("eco.reverify_ratio", "ratio"),
    ("cas.bytes_written", "bytes"),
    ("cas.entries_written", "count"),
    ("core.analyze_ms", "ms"),
    ("cli.run_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.eco_run_ms", "ms"),
    ("cli.hit_run_ms", "ms"),
    ("report.unknown_frac", "ratio"),
    ("report.robust_pairs", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The spans that stand for calls `mcpath::cli::run` itself makes; the
/// rest of `cli.run_ms` is its own work (`cli.self_ms`).
const TOP_LEVEL_CALLS: [&str; 6] = [
    "netlist.parse",
    "hazard.cosens",
    "sdc.emit",
    "sdc.validate",
    "core.eco",
    "core.cached",
];

const REPLAY_CACHE_DIR: &str = "cache_replay";
const REPLAY_REPORT: &str = "replay.json";

/// Raw per-pass tallies, turned into metrics by [`PassStats::metrics`].
#[derive(Default)]
struct PassStats {
    n: BTreeMap<&'static str, f64>,
    eco_runs: Vec<f64>,
    hit_runs: Vec<f64>,
}

impl PassStats {
    fn add(&mut self, k: &'static str, v: f64) {
        *self.n.entry(k).or_insert(0.0) += v;
    }

    fn get(&self, k: &str) -> f64 {
        self.n.get(k).copied().unwrap_or(0.0)
    }

    fn metrics(&self, t: &Tracer) -> BTreeMap<&'static str, f64> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let self_ns = t.self_ns();
        let mut m = BTreeMap::new();
        for (span, metric) in LAYERS {
            let ns = self_ns.get(span).copied().unwrap_or(0) as f64;
            m.insert(metric, ns / 1e6);
        }
        for (k, _) in COUNTS {
            m.insert(k, self.get(k));
        }
        let sim_ns = self_ns.get("sim.filter").copied().unwrap_or(0) as f64;
        m.insert(
            "sim.drop_ratio",
            ratio(self.get("sim.pairs_dropped"), self.get("sim.candidates")),
        );
        m.insert("sim.ns_per_word", ratio(sim_ns, self.get("sim.words")));
        m.insert(
            "engines.implication_ratio",
            ratio(
                self.get("engines.by_implication"),
                self.get("engines.pairs"),
            ),
        );
        m.insert(
            "eco.reverify_ratio",
            ratio(self.get("eco.groups_reverified"), self.get("eco.groups")),
        );
        m.insert("cli.eco_run_ms", median(&self.eco_runs));
        m.insert("cli.hit_run_ms", median(&self.hit_runs));
        m.insert(
            "report.unknown_frac",
            ratio(self.get("report.unknown"), self.get("report.pairs")),
        );
        let op_ns = self_ns.get("op").copied().unwrap_or(0) as f64;
        m.insert("trace.coverage", 1.0 - ratio(op_ns, self.get("op_ns")));
        m.insert(
            "trace.overhead",
            ratio(self.get("op_ns") / 1e6, self.get("cli.run_ms")),
        );
        m
    }
}

/// The per-layer metric names with their units, in report order.
fn metric_units() -> Vec<(&'static str, &'static str)> {
    LAYERS
        .iter()
        .map(|&(_, metric)| (metric, "ms"))
        .chain(COUNTS)
        .collect()
}

/// A verdict per candidate pair.
type Verdicts = Vec<((usize, usize), PairClass)>;

/// Replays the analysis of `file` layer by layer; returns the verdict of
/// every candidate pair.
fn replay_analysis(
    t: &mut Tracer,
    s: &mut PassStats,
    file: &str,
    cfg: &McConfig,
) -> (Netlist, Verdicts) {
    let nl = parse(t, file);
    let visited = t.span("lint.gate", |_| {
        let metrics = mcp_obs::Metrics::new();
        let d = mcp_lint::Registry::with_default_rules().run_with_metrics(
            &nl,
            &mcp_lint::LintConfig::errors_only(),
            Some(&metrics),
        );
        assert!(!d.has_errors(), "generated circuits are lint-clean");
        metrics.lint_nodes_visited.get()
    });
    s.add("lint.nodes_visited", visited as f64);
    let mut candidates = t.span("netlist.pairs", |_| nl.connected_ff_pairs());
    if !cfg.include_self_pairs {
        candidates.retain(|&(i, j)| i != j);
    }
    let mut verdicts: Verdicts = Vec::new();
    // The static pre-pass, under the pipeline's own condition.
    let lattice = t.span("lint.dataflow", |_| {
        let has_consts = nl
            .nodes()
            .any(|(_, n)| matches!(n.kind(), NodeKind::Const(_)));
        (cfg.static_classify && has_consts).then(|| mcp_lint::const_lattice(&nl))
    });
    if let Some(l) = &lattice {
        candidates.retain(|&(i, j)| {
            let frozen = l.base[nl.ff_d_input(j).index()].is_definite();
            if frozen {
                let class = PairClass::MultiCycle {
                    by: Step::Structural,
                };
                verdicts.push(((i, j), class));
            }
            !frozen
        });
    }
    let consts = lattice.as_ref().map_or(&[][..], |l| &l.base[..]);
    let (out, _) = t.span("sim.filter", |_| {
        mcp_sim::mc_filter_stats_seeded(&nl, &candidates, &cfg.sim, consts)
    });
    s.add("sim.candidates", candidates.len() as f64);
    s.add("sim.words", out.words_simulated as f64);
    s.add("sim.pairs_dropped", out.dropped() as f64);
    for d in &out.drops {
        let class = PairClass::SingleCycle {
            by: Step::RandomSim,
        };
        verdicts.push(((d.src, d.dst), class));
    }
    let x = t.span("netlist.expand", |_| Expanded::build(&nl, cfg.frames()));
    // Sink groups with the pipeline's roots, and the cone size of each
    // (the pipeline's scheduling hint).
    let groups = t.span("core.plan", |_| {
        let mut by_sink: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(i, j) in &out.survivors {
            by_sink.entry(j).or_default().push(i);
        }
        by_sink
            .into_iter()
            .map(|(sink, sources)| {
                let roots = group_roots(&x, sink, &sources, cfg.cycles);
                let cone = x.cone_of(&roots).len();
                (sink, sources, roots, cone)
            })
            .collect::<Vec<_>>()
    });
    let search = SearchConfig {
        backtrack_limit: cfg.backtrack_limit,
    };
    for (sink, sources, roots, _) in &groups {
        let slice = t.span("netlist.slice", |_| x.build_slice(roots));
        s.add("netlist.slice_nodes", slice.num_nodes() as f64);
        // The slice is freed inside the span that used it, so no engine
        // time is left unattributed.
        t.span("engines.classify", |_| {
            let mut eng = ImpEngine::new(slice.model());
            let (imp0, con0) = (eng.implications(), eng.contradictions());
            for &i in sources {
                let mut probe = PairProbe::default();
                let v = classify_pair_implication_probed(
                    &mut eng, i, *sink, cfg.cycles, &search, &mut probe,
                );
                s.add("atpg.decisions", probe.decisions as f64);
                s.add("atpg.backtracks", probe.backtracks as f64);
                s.add("atpg.aborts", probe.aborts as f64);
                s.add("engines.pairs", 1.0);
                let class = match v {
                    Verdict::Multi { by } => PairClass::MultiCycle { by },
                    Verdict::Single { by } => PairClass::SingleCycle { by },
                    Verdict::Unknown => PairClass::Unknown,
                };
                if matches!(
                    v,
                    Verdict::Multi {
                        by: Step::Implication
                    } | Verdict::Single {
                        by: Step::Implication
                    }
                ) {
                    s.add("engines.by_implication", 1.0);
                }
                verdicts.push(((i, *sink), class));
            }
            s.add(
                "implication.implications",
                (eng.implications() - imp0) as f64,
            );
            s.add(
                "implication.contradictions",
                (eng.contradictions() - con0) as f64,
            );
            drop(eng);
            drop(slice);
        });
    }
    t.span("netlist.expand", |_| drop((x, groups)));
    (nl, verdicts)
}

/// The expansion nodes a sink group's queries inspect — the same roots
/// the pipeline slices on: every source at `t` and `t+1`, the sink at
/// `t+1 ..= t+k`.
fn group_roots(x: &Expanded, sink: usize, sources: &[usize], cycles: u32) -> Vec<XId> {
    let mut roots: Vec<XId> = sources
        .iter()
        .flat_map(|&i| [x.ff_at(i, 0), x.ff_at(i, 1)])
        .chain((1..=cycles).map(|m| x.ff_at(sink, m)))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    roots
}

fn render(t: &mut Tracer, report: &McReport) -> String {
    t.span("cli.render", |_| {
        let text = serde_json::to_string_pretty(&report.canonical()).expect("serialize");
        std::fs::write(REPLAY_REPORT, &text).expect("write the replayed report");
        text
    })
}

fn parse(t: &mut Tracer, file: &str) -> Netlist {
    t.span("netlist.parse", |_| {
        let text = std::fs::read_to_string(file).expect("read the circuit");
        bench::parse(file, &text).expect("parse the circuit")
    })
}

fn cas_totals(dir: &str) -> (f64, f64) {
    let st = CasStore::open(dir)
        .and_then(|s| s.stats())
        .expect("read the replay cache");
    (st.entry_bytes as f64, st.entries as f64)
}

/// Replays one op under a root span `op`. Returns the check of the
/// replay's own result and the time of the top-level calls `cli::run`
/// makes (for `cli.self_ms`).
fn replay_op(
    b: &Bench,
    op: &Op,
    t: &mut Tracer,
    s: &mut PassStats,
) -> (Result<Outcome, String>, f64) {
    let cfg = cli_config();
    let c = &b.circuits[op.circuit];
    let exp = &b.expect[op.circuit];
    let first = t.spans.len();
    let (checked, analyze_ms) = match op.kind {
        Kind::Analyze | Kind::Sdc => {
            // The whole library call, untraced, for `core.analyze_ms`;
            // its report feeds the replayed rendering and hazard check.
            let t0 = Instant::now();
            let report = analyze_with(&c.netlist, &cfg, &ObsCtx::new()).expect("analyze");
            let analyze_ms = t0.elapsed().as_secs_f64() * 1e3;
            s.add("core.analyze_ms", analyze_ms);
            let verdicts = t.span("op", |t| {
                let (nl, verdicts) = replay_analysis(t, s, &c.file, &cfg);
                if op.kind == Kind::Analyze {
                    render(t, &report);
                } else {
                    let hz = t.span("hazard.cosens", |_| {
                        check_hazards(&nl, &report, HazardCheck::CoSensitization)
                    });
                    s.add("hazard.robust", hz.robust.len() as f64);
                    s.add("hazard.demoted", hz.demoted.len() as f64);
                    let opts = SdcOptions {
                        robust_only: Some(hz),
                        cycles: cfg.cycles,
                    };
                    let text = t.span("sdc.emit", |_| to_sdc(&nl, &report, &opts));
                    let check = t.span("sdc.validate", |_| {
                        mcp_lint::validate_sdc(&nl, &report.multi_cycle_pairs(), &text)
                    });
                    assert!(!check.has_errors(), "emitted SDC validates");
                }
                verdicts
            });
            (
                check_verdicts(&c.file, exp, verdicts.into_iter()),
                analyze_ms,
            )
        }
        Kind::Eco | Kind::Hit => {
            let (bytes0, entries0) = cas_totals(REPLAY_CACHE_DIR);
            let (text, revisions) = t.span("op", |t| {
                let new = parse(t, &c.file);
                let (report, old) = if let Some(p) = op.prev {
                    let old = parse(t, &b.circuits[p].file);
                    let (report, summary) = t.span("core.eco", |_| {
                        let store = CasStore::open(REPLAY_CACHE_DIR).expect("open the cache");
                        analyze_eco_with(&old, &new, &cfg, &ObsCtx::new(), &store).expect("eco")
                    });
                    s.add("eco.groups_reverified", summary.groups_reverified as f64);
                    s.add("eco.groups", summary.groups_total as f64);
                    (report, Some(old))
                } else {
                    let report = t.span("core.cached", |_| {
                        let store = CasStore::open(REPLAY_CACHE_DIR).expect("open the cache");
                        analyze_cached_with(&new, &cfg, &ObsCtx::new(), &store).expect("cached")
                    });
                    (report, None)
                };
                (render(t, &report), old.map(|old| (old, new)))
            });
            let (bytes1, entries1) = cas_totals(REPLAY_CACHE_DIR);
            s.add("cas.bytes_written", bytes1 - bytes0);
            s.add("cas.entries_written", entries1 - entries0);
            // `analyze_eco_with` diffs and re-plans inline, inside
            // `core.eco`; these stand-alone calls are reference timings of
            // the two library functions, outside the `op` span, so they
            // count toward neither coverage nor overhead.
            if let Some((old, new)) = revisions {
                let delta = t.span("netlist.diff", |_| mcp_netlist::diff(&old, &new));
                t.span("eco.dirty", |_| {
                    mcp_core::eco::dirty_sinks(&new, &cfg, &delta.changed)
                });
            }
            let r = if text == exp.canonical {
                Ok(exp.outcome)
            } else {
                Err(format!(
                    "{}: replayed report differs from a cold analyze",
                    c.file
                ))
            };
            (r, 0.0)
        }
    };
    let called: f64 = t.spans[first..]
        .iter()
        .filter(|sp| TOP_LEVEL_CALLS.contains(&sp.name))
        .map(|sp| sp.dur_ns() as f64 / 1e6)
        .sum();
    (checked, called + analyze_ms)
}

/// One line per op of the last pass: where its traced time went.
fn print_breakdown(b: &Bench, t: &Tracer, roots: &[(usize, usize)]) {
    for &(op_idx, root) in roots {
        let op = &b.ops[op_idx];
        let total = t.spans[root].dur_ns() as f64;
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for sp in t.spans[root + 1..]
            .iter()
            .filter(|sp| sp.parent == Some(root))
        {
            *by_layer.entry(sp.name).or_insert(0.0) += sp.dur_ns() as f64;
        }
        let covered: f64 = by_layer.values().sum();
        let (top, top_ns) = by_layer
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(("-", 0.0), |(k, v)| (*k, *v));
        eprintln!(
            "  {:<12} {:?}: traced {:8.2} ms, coverage {:.4}, top layer {} {:.1}%",
            b.circuits[op.circuit].file,
            op.kind,
            total / 1e6,
            covered / total,
            top,
            100.0 * top_ns / total
        );
    }
}

fn write_traces(t: &Tracer, base: &Path) {
    let spans: Vec<String> = t
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string())
            )
        })
        .collect();
    let spans_file = base.with_extension("spans.json");
    let chrome_file = base.with_extension("chrome.json");
    std::fs::write(&spans_file, format!("[\n{}\n]\n", spans.join(",\n"))).expect("write spans");
    std::fs::write(&chrome_file, t.chrome_json()).expect("write the chrome trace");
    eprintln!(
        "  spans of the last pass: {} and {}",
        spans_file.display(),
        chrome_file.display()
    );
}

/// The traced run: passes until `seconds` have elapsed; each metric is
/// the median over passes of its per-pass value.
pub fn run_traced(
    b: &Bench,
    seconds: f64,
    trace_file: &Path,
) -> (Tally, Vec<(&'static str, f64, &'static str)>) {
    let mut tally = Tally::default();
    if b.name == "eco-chain" {
        b.setup_once(&mut tally, &mut crate::calib::Calibrator::new());
    }
    let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last = (Tracer::new(), Vec::new());
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        b.reset_cache(CACHE_DIR);
        b.reset_cache(REPLAY_CACHE_DIR);
        let mut t = Tracer::new();
        let mut s = PassStats::default();
        let mut roots = Vec::new();
        for (k, op) in b.ops.iter().enumerate() {
            let what = &b.circuits[op.circuit].file;
            let args = b.argv(op);
            let _ = std::fs::remove_file(crate::REPORT_FILE);
            let t0 = Instant::now();
            let out = mcpath::cli::parse_args(args)
                .map_err(|e| e.to_string())
                .and_then(|cmd| mcpath::cli::run(&cmd));
            let run_ms = t0.elapsed().as_secs_f64() * 1e3;
            let checked = match out {
                Ok(text) => b.check(op, &text),
                Err(e) => Err(format!("cli::run failed: {e}")),
            };
            let o = tally.record(what, checked);
            s.add("report.pairs", o.pairs as f64);
            s.add("report.unknown", o.unknown as f64);
            s.add("report.robust_pairs", o.robust as f64);
            s.add("cli.run_ms", run_ms);
            match op.kind {
                Kind::Eco => s.eco_runs.push(run_ms),
                Kind::Hit => s.hit_runs.push(run_ms),
                _ => {}
            }
            let root = t.spans.len();
            let (replayed, called_ms) = replay_op(b, op, &mut t, &mut s);
            tally.record(&format!("{what} (replay)"), replayed);
            s.add("cli.self_ms", run_ms - called_ms);
            s.add("op_ns", t.spans[root].dur_ns() as f64);
            roots.push((k, root));
        }
        passes.push(s.metrics(&t));
        last = (t, roots);
    }
    eprintln!(
        "{}: {} traced passes; last pass by op:",
        b.name,
        passes.len()
    );
    print_breakdown(b, &last.0, &last.1);
    write_traces(&last.0, trace_file);
    let metrics = metric_units()
        .into_iter()
        .map(|(name, unit)| {
            let values: Vec<f64> = passes.iter().map(|p| p[name]).collect();
            (name, median(&values), unit)
        })
        .collect();
    (tally, metrics)
}
