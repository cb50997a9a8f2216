//! Throughput of the prefilter kernels: fused vs reference.
//!
//! Runs the random-pattern prefilter over the suite on the graph-walking
//! 64-lane reference kernel and then on the fused kernel at every
//! supported lane width, each configuration [`REPS`] times, reporting
//! words simulated, the median wall-clock (with the min and max of the
//! repetitions), node-evaluation throughput and the speedup over the
//! reference. Plus the drift check that makes the numbers trustworthy:
//! every configuration must produce the *same*
//! [`mcp_sim::FilterOutcome`] (survivors, drop order, witness words), so
//! the speedups are measured on provably identical work.
//!
//! The headline is the fused kernel's speedup over the reference at the
//! default 256 lanes on the largest circuit of the run.

use mcp_bench::{bench_artifact, secs, HarnessArgs};
use mcp_netlist::Netlist;
use mcp_sim::filter::SUPPORTED_LANES;
use mcp_sim::{mc_filter_stats, FilterConfig, FilterOutcome, FilterStats, SimKernel};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Timed repetitions per configuration; rows report their median.
const REPS: usize = 5;

#[derive(Debug, Serialize)]
struct Row {
    circuit: String,
    nodes: usize,
    ffs: usize,
    candidate_pairs: usize,
    /// The kernel that ran: `"reference"` or `"fused"`.
    kernel: &'static str,
    lanes: u32,
    words: u64,
    /// Kernel instructions per pass (0 on the reference path) — shows
    /// how much compiling and lowering shrank the netlist.
    ops_per_pass: u64,
    /// Median wall-clock of the repetitions.
    wall_s: f64,
    /// Fastest and slowest repetition: the run-to-run spread.
    wall_s_min: f64,
    wall_s_max: f64,
    /// Netlist-node evaluations per second at the median wall-clock:
    /// `nodes × words × 2` clock cycles over wall-clock. Words are
    /// identical across kernels for a circuit, so ratios of this column
    /// are pure speedups.
    node_evals_per_sec: f64,
    /// Median-over-median speedup over the reference on the same
    /// circuit.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Headline {
    circuit: String,
    lanes: u32,
    /// Fused node-evals/sec over the reference, at the medians.
    fused_vs_reference: f64,
    /// The same ratio at the two ends of the spread: slowest fused
    /// repetition over fastest reference, and fastest over slowest.
    fused_vs_reference_low: f64,
    fused_vs_reference_high: f64,
}

#[derive(Debug, Serialize)]
struct Artifact {
    reps: usize,
    headline: Headline,
    rows: Vec<Row>,
}

/// Runs one configuration [`REPS`] times; returns the outcome, the
/// kernel stats and the sorted wall-clock seconds.
fn measure(
    nl: &Netlist,
    pairs: &[(usize, usize)],
    cfg: &FilterConfig,
) -> (FilterOutcome, FilterStats, Vec<f64>) {
    let mut walls = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let run = mc_filter_stats(nl, pairs, cfg);
        walls.push(t.elapsed().as_secs_f64());
        last = Some(run);
    }
    walls.sort_by(f64::total_cmp);
    let (out, stats) = last.expect("REPS > 0");
    (out, stats, walls)
}

fn main() {
    let args = HarnessArgs::parse();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let suite = args.suite();

    println!("Prefilter kernel throughput, median of {REPS} ({cores} core(s))");
    println!("{:-<78}", "");
    println!(
        "{:>8} {:>7} {:>7} | {:>9} {:>5} {:>8} {:>9} {:>10} {:>7}",
        "circuit", "nodes", "pairs", "kernel", "lane", "words", "wall(s)", "Mev/s", "vs ref"
    );
    println!("{:-<78}", "");

    let mut rows: Vec<Row> = Vec::new();
    let mut headline = None;
    for nl in &suite {
        args.lint_warnings(nl);
        let s = nl.stats();
        let nodes = nl.num_nodes();
        let pairs = nl.connected_ff_pairs();
        // The reference kernel is always 64 lanes wide.
        let reference_cfg = FilterConfig {
            kernel: SimKernel::Reference,
            lanes: 64,
            ..FilterConfig::default()
        };
        let (reference, _, ref_walls) = measure(nl, &pairs, &reference_cfg);
        let ref_wall = ref_walls[REPS / 2];

        let configs =
            std::iter::once(reference_cfg).chain(SUPPORTED_LANES.map(|lanes| FilterConfig {
                lanes,
                kernel: SimKernel::Fused,
                ..reference_cfg
            }));
        for cfg in configs {
            let (out, stats, walls) = if cfg.kernel == SimKernel::Reference {
                (reference.clone(), FilterStats::default(), ref_walls.clone())
            } else {
                measure(nl, &pairs, &cfg)
            };
            assert_eq!(
                out,
                reference,
                "{}: fused outcome drifted from the reference at {} lanes",
                nl.name(),
                cfg.lanes
            );
            let wall = walls[REPS / 2];
            let evals = (nodes as f64) * (out.words_simulated as f64) * 2.0;
            let node_evals_per_sec = evals / wall.max(1e-9);
            let speedup = ref_wall / wall.max(1e-9);
            println!(
                "{:>8} {:>7} {:>7} | {:>9} {:>5} {:>8} {:>9} {:>10.1} {:>6.2}x",
                nl.name(),
                nodes,
                pairs.len(),
                stats.kernel,
                cfg.lanes,
                out.words_simulated,
                secs(Duration::from_secs_f64(wall)),
                node_evals_per_sec / 1e6,
                speedup,
            );
            if cfg.kernel == SimKernel::Fused && cfg.lanes == 256 {
                // The suite is ordered by size: the last circuit wins.
                headline = Some(Headline {
                    circuit: nl.name().to_owned(),
                    lanes: cfg.lanes,
                    fused_vs_reference: speedup,
                    fused_vs_reference_low: ref_walls[0] / walls[REPS - 1].max(1e-9),
                    fused_vs_reference_high: ref_walls[REPS - 1] / walls[0].max(1e-9),
                });
            }
            rows.push(Row {
                circuit: nl.name().to_owned(),
                nodes,
                ffs: s.ffs,
                candidate_pairs: pairs.len(),
                kernel: stats.kernel,
                lanes: cfg.lanes,
                words: out.words_simulated,
                ops_per_pass: stats.fused_ops.checked_div(stats.passes).unwrap_or(0),
                wall_s: wall,
                wall_s_min: walls[0],
                wall_s_max: walls[REPS - 1],
                node_evals_per_sec,
                speedup,
            });
        }
        println!("{:-<78}", "");
    }

    let headline = headline.expect("suite is non-empty");
    println!(
        "headline: fused at 256 lanes on {}: {:.2}x node-evals/sec over the reference \
         (spread {:.2}-{:.2}x)",
        headline.circuit,
        headline.fused_vs_reference,
        headline.fused_vs_reference_low,
        headline.fused_vs_reference_high
    );

    let artifact = Artifact {
        reps: REPS,
        headline,
        rows,
    };
    let text = bench_artifact("sim", &artifact);
    args.dump_json(&artifact);
    args.drift_gate(text.as_deref());
}
