//! The mcpath benchmark harness.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --mcpath <binary>` generates the workload's circuits from the seed,
//! computes the oracle in-process, then either times the real `mcpath`
//! CLI, one child process at a time (`--trace 0`, end-to-end metrics), or
//! replays every operation layer by layer in-process with spans around
//! each call into the library (`--trace 1`, per-layer metrics). The last
//! line of standard output is the result object. See `README.md`.

mod calib;
mod inputs;
mod launch;
mod replay;
mod trace;

use calib::Calibrator;
use inputs::Circuit;
use mcp_core::{analyze, check_hazards, Engine, HazardCheck, McConfig, PairClass};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The set-up work runs before the first timed pass and is repeated
/// before later passes while it has taken less than this share of the
/// run, so that no single phase of the host's speed decides `setup_s`.
const SETUP_SHARE: f64 = 1.0 / 3.0;
/// Revisions in the `eco-chain` workload, and gates edited per revision.
const ECO_REVISIONS: usize = 4;
const ECO_EDITS: usize = 3;
/// Any single `mcpath` process taking longer than this counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `analyze <c> --json .. --canonical --quiet`
    Analyze,
    /// `sdc <c> --robust cosens`
    Sdc,
    /// `analyze <c> --eco <prev> --cache-dir ..`
    Eco,
    /// `analyze <c> --cache-dir ..`: in a pass, a warm hit on the store
    Hit,
}

/// One operation of a pass: a kind and the circuit (and, for `Eco`, the
/// previous revision) it runs on.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub circuit: usize,
    pub prev: Option<usize>,
}

/// What the oracle expects of the outputs for one circuit.
pub struct Expect {
    /// SAT-engine verdict per candidate pair: `true` = multi-cycle.
    sat: BTreeMap<(usize, usize), bool>,
    /// The canonical JSON of a cold in-process `analyze` whose verdicts
    /// match `sat`, and what it reports.
    canonical: String,
    outcome: Outcome,
    /// `sdc-robust`: the (from, to) names of an in-process
    /// co-sensitization check's robust pairs.
    robust: Option<BTreeSet<(String, String)>>,
}

/// A workload ready to run: inputs in the work directory, oracle
/// computed.
pub struct Bench {
    name: String,
    circuits: Vec<Circuit>,
    expect: Vec<Expect>,
    ops: Vec<Op>,
    mcpath: PathBuf,
    /// Whether the input self-checks passed (seed 0 is the named suite).
    setup_ok: bool,
}

/// The output of one op, as far as the metrics need it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub pairs: usize,
    pub unknown: usize,
    pub robust: usize,
}

/// The configuration the CLI builds from its defaults and `--threads 1`.
pub fn cli_config() -> McConfig {
    McConfig {
        threads: 1,
        cache_dir: None,
        ..McConfig::default()
    }
}

pub const CACHE_DIR: &str = "cache";
const CACHE_SNAPSHOT: &str = "cache0";
const REPORT_FILE: &str = "out.json";

impl Bench {
    fn build(name: &str, seed: u64, mcpath: PathBuf) -> Result<Bench, String> {
        let (circuits, ops) = match name {
            "suite-analyze" => {
                let c = inputs::suite(seed);
                let ops = (0..c.len()).map(|k| Op::new(Kind::Analyze, k)).collect();
                (c, ops)
            }
            "sdc-robust" => {
                let c = inputs::sdc(seed);
                let ops = (0..c.len()).map(|k| Op::new(Kind::Sdc, k)).collect();
                (c, ops)
            }
            "eco-chain" => {
                let c = inputs::eco_chain(seed, ECO_REVISIONS, ECO_EDITS);
                let mut ops = Vec::new();
                for r in 1..c.len() {
                    ops.push(Op {
                        kind: Kind::Eco,
                        circuit: r,
                        prev: Some(r - 1),
                    });
                    ops.push(Op::new(Kind::Hit, r));
                }
                (c, ops)
            }
            other => return Err(format!("unknown workload `{other}`")),
        };
        let mut setup_ok = true;
        if name == "suite-analyze" && seed == 0 && !inputs::suite_matches_named(&circuits) {
            eprintln!("error: seed 0 no longer reproduces mcp_gen's named suite");
            setup_ok = false;
        }
        for c in &circuits {
            std::fs::write(&c.file, &c.text).map_err(|e| format!("write {}: {e}", c.file))?;
        }
        let expect = circuits
            .iter()
            .map(|c| Expect::compute(name, c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Bench {
            name: name.to_owned(),
            circuits,
            expect,
            ops,
            mcpath,
            setup_ok,
        })
    }

    /// The `mcpath` arguments of `op`.
    fn argv(&self, op: &Op) -> Vec<String> {
        let file = self.circuits[op.circuit].file.clone();
        let mut a: Vec<String> = match op.kind {
            Kind::Sdc => vec!["sdc".into(), file, "--robust".into(), "cosens".into()],
            _ => vec!["analyze".into(), file],
        };
        if let Some(p) = op.prev {
            a.extend(["--eco".into(), self.circuits[p].file.clone()]);
        }
        if matches!(op.kind, Kind::Eco | Kind::Hit) {
            a.extend(["--cache-dir".into(), CACHE_DIR.into()]);
        }
        if op.kind != Kind::Sdc {
            a.extend([
                "--json".into(),
                REPORT_FILE.into(),
                "--canonical".into(),
                "--quiet".into(),
            ]);
        }
        a.extend(["--threads".into(), "1".into()]);
        a
    }

    /// Checks one op's output against the oracle. `stdout` is what the
    /// CLI printed; `analyze`-style ops are checked through their JSON
    /// report file, which must be byte-identical to the SAT-checked cold
    /// in-process report.
    fn check(&self, op: &Op, stdout: &str) -> Result<Outcome, String> {
        let c = &self.circuits[op.circuit];
        let exp = &self.expect[op.circuit];
        if op.kind == Kind::Sdc {
            return check_sdc(c, exp, stdout);
        }
        let text = std::fs::read_to_string(REPORT_FILE)
            .map_err(|e| format!("{}: no report: {e}", c.file))?;
        if text != exp.canonical {
            return Err(format!(
                "{}: report differs from the SAT-checked cold in-process analyze",
                c.file
            ));
        }
        Ok(exp.outcome)
    }

    /// Starts each pass of `eco-chain` from the cache holding only rev0.
    fn reset_cache(&self, dir: &str) {
        if self.name != "eco-chain" {
            return;
        }
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create the cache directory");
        for e in std::fs::read_dir(CACHE_SNAPSHOT).expect("read the rev0 cache") {
            let e = e.expect("cache entry");
            std::fs::copy(e.path(), Path::new(dir).join(e.file_name())).expect("copy the cache");
        }
    }
}

impl Op {
    fn new(kind: Kind, circuit: usize) -> Op {
        Op {
            kind,
            circuit,
            prev: None,
        }
    }
}

impl Expect {
    fn compute(workload: &str, c: &Circuit) -> Result<Expect, String> {
        let sat_cfg = McConfig {
            engine: Engine::Sat,
            ..cli_config()
        };
        let sat_report = analyze(&c.netlist, &sat_cfg).map_err(|e| e.to_string())?;
        let mut sat = BTreeMap::new();
        for p in &sat_report.pairs {
            match p.class {
                PairClass::Unknown => {
                    return Err(format!("{}: the SAT oracle left a pair open", c.file))
                }
                class => sat.insert((p.src, p.dst), class.is_multi()),
            };
        }
        let mut exp = Expect {
            sat,
            canonical: String::new(),
            outcome: Outcome::default(),
            robust: None,
        };
        let cold = analyze(&c.netlist, &cli_config()).map_err(|e| e.to_string())?;
        exp.outcome = check_verdicts(
            &c.file,
            &exp,
            cold.pairs.iter().map(|p| ((p.src, p.dst), p.class)),
        )?;
        exp.canonical =
            serde_json::to_string_pretty(&cold.canonical()).map_err(|e| e.to_string())?;
        if workload == "sdc-robust" {
            let hz = check_hazards(&c.netlist, &cold, HazardCheck::CoSensitization);
            if hz.robust.iter().any(|p| exp.sat.get(p) != Some(&true)) {
                return Err(format!("{}: a robust pair is not SAT-multi-cycle", c.file));
            }
            let names = hz
                .robust
                .iter()
                .map(|&(i, j)| (ff_name(&c.netlist, i), ff_name(&c.netlist, j)))
                .collect();
            exp.robust = Some(names);
        }
        Ok(exp)
    }
}

fn ff_name(nl: &mcp_netlist::Netlist, i: usize) -> String {
    nl.node(nl.dffs()[i]).name().to_owned()
}

/// Every pair of a report must be a candidate, every candidate must have
/// a verdict, and every decided verdict must match the SAT oracle.
pub fn check_verdicts(
    file: &str,
    exp: &Expect,
    pairs: impl Iterator<Item = ((usize, usize), PairClass)>,
) -> Result<Outcome, String> {
    let mut seen = 0usize;
    let mut unknown = 0usize;
    for (pair, class) in pairs {
        seen += 1;
        let Some(&multi) = exp.sat.get(&pair) else {
            return Err(format!("{file}: verdict for non-candidate pair {pair:?}"));
        };
        match class {
            PairClass::Unknown => unknown += 1,
            c if c.is_multi() != multi => {
                return Err(format!(
                    "{file}: pair {pair:?} is {c:?}, the SAT oracle says multi={multi}"
                ))
            }
            _ => {}
        }
    }
    if seen != exp.sat.len() {
        return Err(format!(
            "{file}: {seen} verdicts for {} candidates",
            exp.sat.len()
        ));
    }
    Ok(Outcome {
        pairs: seen,
        unknown,
        robust: 0,
    })
}

/// Every emitted constraint must name a SAT-proven multi-cycle pair, and
/// the emitted set must be exactly the in-process hazard check's.
fn check_sdc(c: &Circuit, exp: &Expect, text: &str) -> Result<Outcome, String> {
    let (constraints, errors) = mcp_lint::parse_sdc(text);
    if !errors.is_empty() {
        return Err(format!("{}: SDC does not parse", c.file));
    }
    let nl = &c.netlist;
    let ff = |name: &str| nl.find_node(name).and_then(|id| nl.ff_index(id));
    let mut emitted = BTreeSet::new();
    for k in constraints.iter().filter(|k| k.setup) {
        let pair = ff(&k.from).zip(ff(&k.to));
        if pair.and_then(|p| exp.sat.get(&p)) != Some(&true) {
            return Err(format!(
                "{}: constraint {} -> {} is not a SAT-proven multi-cycle pair",
                c.file, k.from, k.to
            ));
        }
        emitted.insert((k.from.clone(), k.to.clone()));
    }
    if Some(&emitted) != exp.robust.as_ref() {
        return Err(format!(
            "{}: {} robust constraints, the in-process hazard check has {}",
            c.file,
            emitted.len(),
            exp.robust.as_ref().map_or(0, BTreeSet::len)
        ));
    }
    Ok(Outcome {
        pairs: exp.sat.len(),
        unknown: 0,
        robust: emitted.len(),
    })
}

// ---------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------

/// Tallies of ops attempted and failed, shared by both modes.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, what: &str, r: Result<Outcome, String>) -> Outcome {
        self.attempted += 1;
        match r {
            Ok(o) => o,
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                Outcome::default()
            }
        }
    }
}

struct OpSample {
    wall: Duration,
    cpu: Duration,
    rss_kb: u64,
    outcome: Outcome,
    /// The calibration kernel's time right before the op.
    kernel_ms: f64,
}

impl OpSample {
    /// Wall and CPU time in ms, scaled to the reference host speed.
    fn wall_ms(&self) -> f64 {
        calib::scale(self.wall.as_secs_f64() * 1e3, self.kernel_ms)
    }

    fn cpu_ms(&self) -> f64 {
        calib::scale(self.cpu.as_secs_f64() * 1e3, self.kernel_ms)
    }
}

impl Bench {
    /// Runs the calibration kernel, then launches one op as an `mcpath`
    /// process and checks its output.
    fn launch(&self, op: &Op, tally: &mut Tally, cal: &mut Calibrator) -> OpSample {
        let mut argv = vec![self.mcpath.display().to_string()];
        argv.extend(self.argv(op));
        let _ = std::fs::remove_file(REPORT_FILE);
        let kernel_ms = cal.kernel_ms();
        let m = launch::run(".", "stdout.txt", OP_TIMEOUT, &argv);
        let result = if m.ok() {
            let stdout = std::fs::read_to_string("stdout.txt").unwrap_or_default();
            self.check(op, &stdout)
        } else {
            Err(format!(
                "`{}` exited with {:?}{}",
                argv[1..].join(" "),
                m.code,
                if m.timed_out { " (timed out)" } else { "" }
            ))
        };
        let outcome = tally.record(&self.circuits[op.circuit].file, result);
        OpSample {
            wall: m.wall,
            cpu: m.cpu,
            rss_kb: m.maxrss_kb,
            outcome,
            kernel_ms,
        }
    }

    /// The program work before the first timed op: one warm-up pass for
    /// `suite-analyze` and `sdc-robust`; the cold, cache-populating run
    /// of rev0 for `eco-chain`.
    fn setup_once(&self, tally: &mut Tally, cal: &mut Calibrator) -> Vec<OpSample> {
        if self.name == "eco-chain" {
            // A hit op on rev0 with an empty store is the cold run; its
            // store is where every pass starts.
            let _ = std::fs::remove_dir_all(CACHE_DIR);
            let s = self.launch(&Op::new(Kind::Hit, 0), tally, cal);
            let _ = std::fs::remove_dir_all(CACHE_SNAPSHOT);
            std::fs::rename(CACHE_DIR, CACHE_SNAPSHOT).expect("keep rev0's store");
            return vec![s];
        }
        (self.ops.iter())
            .map(|op| self.launch(op, tally, cal))
            .collect()
    }

    /// The end-to-end run: passes over the op list until `seconds` have
    /// elapsed. Every time is scaled to the reference host speed (see
    /// `calib`), and each op's time is the median of its scaled times
    /// over the run's passes; `pass_s` and `cpu_s` sum those over the
    /// ops, and the latency percentiles are over ops.
    fn run_e2e(&self, seconds: f64) -> (Tally, Vec<(&'static str, f64, &'static str)>) {
        let mut tally = Tally::default();
        let mut cal = Calibrator::new();
        // Each set-up op's scaled ms over the set-up's repetitions.
        let mut setup: Vec<Vec<f64>> = Vec::new();
        let mut setup_secs = 0.0;
        let n = self.ops.len();
        let (mut wall, mut cpu, mut raw) = (
            vec![Vec::new(); n],
            vec![Vec::new(); n],
            vec![Vec::new(); n],
        );
        let mut kernel = Vec::new();
        let mut pairs = 0usize;
        let mut peak_kb = 0u64;
        let mut passes = 0;
        let start = Instant::now();
        while passes == 0 || start.elapsed().as_secs_f64() < seconds {
            if setup.is_empty() || setup_secs < SETUP_SHARE * start.elapsed().as_secs_f64() {
                let samples = self.setup_once(&mut tally, &mut cal);
                setup.resize(samples.len(), Vec::new());
                for (times, s) in setup.iter_mut().zip(samples) {
                    setup_secs += s.wall.as_secs_f64();
                    times.push(s.wall_ms());
                }
            }
            self.reset_cache(CACHE_DIR);
            pairs = 0;
            for (k, op) in self.ops.iter().enumerate() {
                let s = self.launch(op, &mut tally, &mut cal);
                wall[k].push(s.wall_ms());
                cpu[k].push(s.cpu_ms());
                raw[k].push(s.wall.as_secs_f64() * 1e3);
                kernel.push(s.kernel_ms);
                pairs += s.outcome.pairs;
                peak_kb = peak_kb.max(s.rss_kb);
            }
            passes += 1;
        }
        for (op, (w, r)) in self.ops.iter().zip(wall.iter().zip(&raw)) {
            eprintln!(
                "  {:<12} {:?}: scaled median {:8.2} ms; raw best {:8.2}, median {:8.2} ms",
                self.circuits[op.circuit].file,
                op.kind,
                median(w),
                quantile(r, 0.0),
                median(r)
            );
        }
        let op_ms: Vec<f64> = wall.iter().map(|w| median(w)).collect();
        let pass = op_ms.iter().sum::<f64>() / 1e3;
        let kind_ms = |kind: Kind| -> Vec<f64> {
            (self.ops.iter().zip(&op_ms))
                .filter(|(op, _)| op.kind == kind)
                .map(|(_, &ms)| ms)
                .collect()
        };
        eprintln!(
            "{}: {passes} passes of {} ops, {pairs} candidate pairs per pass; \
             calibration kernel {:.3} ms median ({:.3}..{:.3}), reference {} ms{}",
            self.name,
            self.ops.len(),
            median(&kernel),
            quantile(&kernel, 0.1),
            quantile(&kernel, 0.9),
            calib::REFERENCE_MS,
            if self.name == "eco-chain" {
                format!(
                    "; eco op {:.2} ms, hit op {:.2} ms (scaled)",
                    median(&kind_ms(Kind::Eco)),
                    median(&kind_ms(Kind::Hit))
                )
            } else {
                String::new()
            }
        );
        let metrics = vec![
            (
                "setup_s",
                setup.iter().map(|t| median(t)).sum::<f64>() / 1e3,
                "s",
            ),
            ("pass_s", pass, "s"),
            ("op_ms_p50", quantile(&op_ms, 0.5), "ms"),
            ("op_ms_p90", quantile(&op_ms, 0.9), "ms"),
            ("pairs_per_s", pairs as f64 / pass, "1/s"),
            (
                "cpu_s",
                cpu.iter().map(|c| median(c)).sum::<f64>() / 1e3,
                "s",
            ),
            ("peak_rss_mb", peak_kb as f64 / 1024.0, "MB"),
        ];
        (tally, metrics)
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mcpath: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        mcpath: PathBuf::new(),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = value()? == "1",
            "--mcpath" => a.mcpath = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workload.is_empty() || a.mcpath.as_os_str().is_empty() {
        return Err("--workload and --mcpath are required".into());
    }
    Ok(a)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("launch") {
        std::process::exit(launch::launch_main(&raw[1..]));
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // The program must see only its defaults and the op's flags.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("MCPATH_") {
            std::env::remove_var(k);
        }
    }
    let root = std::env::current_dir().expect("current directory");
    let mcpath = root.join(&args.mcpath);
    let out_dir = root.join(".bench_work");
    let work = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create the work directory");
    std::env::set_current_dir(&work).expect("enter the work directory");

    let result = Bench::build(&args.workload, args.seed, mcpath).map(|bench| {
        let (tally, metrics) = if args.trace {
            let trace_file = out_dir.join(format!("trace-{}-seed{}", args.workload, args.seed));
            replay::run_traced(&bench, args.seconds, &trace_file)
        } else {
            bench.run_e2e(args.seconds)
        };
        (bench.setup_ok, tally, metrics)
    });
    std::env::set_current_dir(&root).expect("leave the work directory");
    let _ = std::fs::remove_dir_all(&work);

    let (setup_ok, tally, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        setup_ok && tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
