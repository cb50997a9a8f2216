//! Workload inputs: every circuit the program sees is generated here
//! from the workload seed and written as a `.bench` file.

use mcp_gen::generators::{composite, CompositeConfig};
use mcp_netlist::{bench, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mixes the workload seed into a generator seed. Seed 0 leaves the
/// generator seed unchanged, so seed 0 of `suite-analyze` is the named
/// suite.
pub fn mix(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    // SplitMix64 finalizer.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    base ^ z ^ (z >> 31)
}

/// One generated circuit: the file name the program is given (relative
/// to the work directory), its text, and the parsed netlist named the
/// way the CLI names it (after the path).
pub struct Circuit {
    pub file: String,
    pub text: String,
    pub netlist: Netlist,
}

impl Circuit {
    pub fn from_text(file: String, text: String) -> Circuit {
        let netlist = bench::parse(&file, &text).expect("generated circuits parse");
        Circuit {
            file,
            text,
            netlist,
        }
    }

    /// Generates circuit `name`, handed to the program as `<name>.bench`.
    fn generate(name: &str, cfg: &CompositeConfig) -> Circuit {
        let text = bench::to_bench(&composite(name, cfg));
        Circuit::from_text(format!("{name}.bench"), text)
    }
}

/// The twelve configurations of `mcp_gen::suite::standard_suite`, with
/// their generator seeds as the first field. The harness checks at seed 0
/// that they still reproduce the named suite.
fn suite_configs() -> Vec<(&'static str, CompositeConfig)> {
    type Dual = Vec<(usize, usize, u64, u64, u64)>;
    type Dp = Vec<(usize, usize, u64, u64)>;
    type Pipe = Vec<(usize, usize)>;
    #[allow(clippy::type_complexity)]
    let table: [(&str, u64, Dual, usize, usize, Dp, Pipe, usize, usize); 12] = [
        ("m27", 27, vec![], 0, 0, vec![(1, 2, 0, 3)], vec![], 4, 1),
        (
            "m298",
            298,
            vec![],
            0,
            0,
            vec![(3, 2, 0, 2)],
            vec![(2, 3)],
            20,
            3,
        ),
        (
            "m526",
            526,
            vec![],
            0,
            0,
            vec![(4, 2, 1, 3), (2, 3, 0, 5)],
            vec![(3, 3)],
            40,
            4,
        ),
        (
            "m820",
            820,
            vec![(3, 3, 0, 2, 5)],
            2,
            2,
            vec![(6, 3, 0, 4)],
            vec![(4, 4)],
            60,
            5,
        ),
        (
            "m1238",
            1238,
            vec![(4, 2, 0, 1, 3)],
            3,
            3,
            vec![(8, 2, 0, 3), (4, 3, 2, 6)],
            vec![(4, 4), (3, 2)],
            90,
            6,
        ),
        (
            "m1423",
            1423,
            vec![(4, 3, 1, 4, 7)],
            4,
            4,
            vec![(10, 3, 1, 5)],
            vec![(6, 6)],
            120,
            8,
        ),
        (
            "m5378",
            5378,
            vec![(8, 3, 0, 2, 5), (4, 3, 1, 3, 6)],
            10,
            8,
            vec![(16, 3, 0, 6), (8, 4, 0, 9), (8, 2, 1, 2)],
            vec![(8, 8), (4, 6)],
            400,
            20,
        ),
        (
            "m9234",
            9234,
            vec![(12, 4, 0, 3, 8)],
            16,
            12,
            vec![(24, 4, 2, 11), (16, 3, 0, 5)],
            vec![(10, 10), (6, 8)],
            700,
            30,
        ),
        (
            "m13207",
            13207,
            vec![(16, 4, 1, 5, 10), (8, 3, 0, 2, 5)],
            24,
            16,
            vec![(32, 4, 0, 7), (16, 4, 3, 12), (8, 2, 0, 3)],
            vec![(12, 12), (8, 8)],
            1000,
            40,
        ),
        (
            "m15850",
            15850,
            vec![(16, 4, 0, 6, 11)],
            28,
            20,
            vec![(32, 4, 1, 9), (24, 3, 0, 4), (16, 4, 5, 13)],
            vec![(14, 12), (10, 8)],
            1200,
            48,
        ),
        (
            "m35932",
            35932,
            vec![(24, 4, 0, 4, 9), (16, 3, 1, 3, 6)],
            60,
            40,
            vec![(64, 4, 0, 11), (48, 3, 2, 6), (32, 4, 4, 12)],
            vec![(16, 20), (12, 16), (8, 12)],
            3200,
            160,
        ),
        (
            "m38584",
            38584,
            vec![(32, 4, 2, 6, 12), (16, 4, 0, 5, 10)],
            72,
            48,
            vec![(64, 4, 3, 10), (64, 3, 0, 5), (32, 5, 0, 17)],
            vec![(20, 20), (14, 16), (10, 12)],
            4000,
            200,
        ),
    ];
    table
        .into_iter()
        .map(
            |(name, seed, dual, pinned, rare, dp, pipes, glue_gates, glue_regs)| {
                (
                    name,
                    CompositeConfig {
                        seed,
                        dual_datapaths: dual,
                        pinned_chains: pinned,
                        rare_chains: rare,
                        datapaths: dp,
                        pipelines: pipes,
                        glue_gates,
                        glue_regs,
                    },
                )
            },
        )
        .collect()
}

/// `suite-analyze`: the twelve suite configurations with the workload
/// seed mixed into each generator seed.
pub fn suite(seed: u64) -> Vec<Circuit> {
    suite_configs()
        .into_iter()
        .map(|(name, mut cfg)| {
            cfg.seed = mix(cfg.seed, seed);
            Circuit::generate(name, &cfg)
        })
        .collect()
}

/// Whether `suite(0)` is structurally the named suite of `mcp_gen`.
pub fn suite_matches_named(circuits: &[Circuit]) -> bool {
    let named = mcp_gen::suite::standard_suite();
    named.len() == circuits.len()
        && named
            .iter()
            .zip(circuits)
            .all(|(n, c)| bench::to_bench(n) == c.text)
}

/// `sdc-robust`: three multi-cycle-rich circuits of roughly 2k, 4k and
/// 8k candidate pairs — gated and dual-load datapaths plus pinned
/// chains, no rare chains, little glue.
pub fn sdc(seed: u64) -> Vec<Circuit> {
    // (name, generator seed, blocks, width, pinned chains, glue gates, glue regs)
    let sizes = [
        ("r2k", 2_000, 2, 24, 24, 20, 2),
        ("r4k", 4_000, 3, 32, 32, 24, 3),
        ("r8k", 8_000, 4, 52, 48, 32, 4),
    ];
    sizes
        .iter()
        .map(
            |&(name, base, blocks, width, pinned, glue_gates, glue_regs)| {
                let cfg = CompositeConfig {
                    seed: mix(base, seed),
                    dual_datapaths: (0..blocks)
                        .map(|k: u64| (width, 4, k % 3, 5 + k % 4, 10 + k % 5))
                        .collect(),
                    datapaths: (0..blocks)
                        .map(|k: u64| (2 * width, 4, k % 4, 7 + k % 8))
                        .collect(),
                    pinned_chains: pinned,
                    rare_chains: 0,
                    pipelines: Vec::new(),
                    glue_gates,
                    glue_regs,
                };
                Circuit::generate(name, &cfg)
            },
        )
        .collect()
}

/// `eco-chain`: an m38584-scale circuit and `revisions` successive
/// edits of it. Each revision changes the function of `edits` gates
/// chosen from the seed (AND↔OR, NAND↔NOR), keeping every name and wire.
///
/// The circuit is m38584's configuration without its rare-enable chains:
/// those make the sim prefilter's stopping word (and so every op's
/// time) swing by 2x from seed to seed, which would drown the cache and
/// ECO costs this workload exists to measure.
pub fn eco_chain(seed: u64, revisions: usize, edits: usize) -> Vec<Circuit> {
    let (_, mut cfg) = suite_configs().pop().expect("the suite is not empty");
    cfg.seed = mix(cfg.seed, seed);
    cfg.rare_chains = 0;
    let base = Circuit::generate("rev0", &cfg);
    let mut rng = StdRng::seed_from_u64(mix(0xec0, seed));
    let mut chain = vec![base];
    for r in 1..=revisions {
        let mut lines: Vec<String> = chain[r - 1].text.lines().map(str::to_owned).collect();
        let editable: Vec<usize> = (0..lines.len())
            .filter(|&k| swap_function(&lines[k]).is_some())
            .collect();
        for _ in 0..edits {
            let k = editable[rng.random_range(0..editable.len())];
            lines[k] = swap_function(&lines[k]).expect("editable line");
        }
        let mut text = lines.join("\n");
        text.push('\n');
        chain.push(Circuit::from_text(format!("rev{r}.bench"), text));
    }
    chain
}

/// `x = AND(a, b)` → `x = OR(a, b)` (and back; likewise NAND↔NOR), or
/// `None` for any other line.
fn swap_function(line: &str) -> Option<String> {
    let (lhs, rhs) = line.split_once(" = ")?;
    let (func, args) = rhs.split_once('(')?;
    let swapped = match func {
        "AND" => "OR",
        "OR" => "AND",
        "NAND" => "NOR",
        "NOR" => "NAND",
        _ => return None,
    };
    Some(format!("{lhs} = {swapped}({args}"))
}
