//! Differential property tests: the fused prefilter kernel against its
//! oracles.
//!
//! Three oracles pin the kernel down from independent directions:
//!
//! * [`mc_filter`] on the reference kernel — the graph-walking
//!   prefilter path. The fused kernel must reproduce the **entire**
//!   [`FilterOutcome`](mcp_sim::FilterOutcome) (survivor set, drop
//!   order, witness words, toggle counts) at every supported lane width,
//!   not just statistically similar results. This exercises the whole
//!   kernel: tape compile, lowering, and the batch/replay loop.
//! * [`ParallelSim`] — the graph-walking 64-lane simulator is the
//!   per-node value reference. With dead-slot elimination off
//!   ([`FusedTape::lower_keep_all`]) every node stays readable through
//!   [`Tape::slot_of`] → [`FusedTape::tape_ref`] → [`FusedSim::resolve`],
//!   and must carry the same word in both models, before and after
//!   clocking. This isolates the compile and lowering rules (constant
//!   folding, buffer aliasing, NOT fusion, operand polarities) from the
//!   batch loop.
//! * [`EventSim`] — the three-valued event-driven simulator evaluates
//!   the netlist *without* any compile-time folding, so agreement on
//!   netlists dense with constants and buffer chains shows the folding
//!   rules preserve semantics.
//!
//! `mcp_gen::random_netlist` never emits `Const` nodes or long buffer
//! chains, so a local generator builds folding-heavy netlists here.

use mcp_gen::random::{random_netlist, RandomCircuitConfig};
use mcp_logic::{GateKind, V3};
use mcp_netlist::{Netlist, NetlistBuilder, NodeId};
use mcp_sim::filter::SUPPORTED_LANES;
use mcp_sim::{
    mc_filter, EventSim, FilterConfig, FusedSim, FusedTape, ParallelSim, SimKernel, Tape,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg_strategy() -> impl Strategy<Value = (u64, RandomCircuitConfig)> {
    (0u64..100_000, 1usize..6, 0usize..4, 1usize..40, 1usize..5).prop_map(
        |(seed, ffs, pis, gates, max_arity)| {
            (
                seed,
                RandomCircuitConfig {
                    ffs,
                    pis,
                    gates,
                    max_arity,
                },
            )
        },
    )
}

/// Random netlist biased toward what the compiler folds and the lowering
/// pass fuses: constant nodes feed the gate pool, and `Buf`/`Not` are
/// drawn twice as often as in [`random_netlist`] so alias chains and
/// inverter stacking appear.
fn folding_netlist(seed: u64, cfg: &RandomCircuitConfig) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("fold{seed}"));
    let mut pool: Vec<NodeId> = (0..cfg.pis).map(|i| b.input(format!("I{i}"))).collect();
    let ffs: Vec<NodeId> = (0..cfg.ffs).map(|i| b.dff(format!("F{i}"))).collect();
    pool.extend(&ffs);
    pool.push(b.constant("c0", false));
    pool.push(b.constant("c1", true));

    let kinds = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Buf,
    ];
    for _ in 0..cfg.gates {
        let kind = kinds[rng.random_range(0..kinds.len())];
        let arity = kind
            .fixed_arity()
            .unwrap_or_else(|| rng.random_range(1..=cfg.max_arity));
        let ins: Vec<NodeId> = (0..arity)
            .map(|_| pool[rng.random_range(0..pool.len())])
            .collect();
        let g = b.gate_auto(kind, ins).expect("valid arity");
        pool.push(g);
    }
    for &ff in &ffs {
        let d = pool[rng.random_range(0..pool.len())];
        b.set_dff_input(ff, d).expect("valid dff");
    }
    b.mark_output(*pool.last().expect("non-empty pool"));
    b.finish().expect("folding circuit is well-formed")
}

/// The value of node `id` on a keep-all-lowered kernel, read through
/// the tape's slot map.
fn node_value(sim: &FusedSim<'_, 1>, tape: &Tape, id: NodeId) -> Option<u64> {
    let r = sim.fused().tape_ref(tape.slot_of(id))?;
    Some(sim.resolve(r)[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The prefilter's outcome is byte-identical between the reference
    /// kernel and the fused kernel at every supported lane width. Small
    /// `idle_words` keeps runs short while still crossing several batch
    /// boundaries at the widest width.
    #[test]
    fn fused_filter_matches_reference_at_every_lane_width(
        (seed, cfg) in cfg_strategy(),
        filter_seed in any::<u64>(),
    ) {
        let nl = random_netlist(seed, &cfg);
        let pairs = nl.connected_ff_pairs();
        let reference_cfg = FilterConfig {
            seed: filter_seed,
            idle_words: 6,
            max_words: 512,
            lanes: 64,
            kernel: SimKernel::Reference,
        };
        let reference = mc_filter(&nl, &pairs, &reference_cfg);
        for lanes in SUPPORTED_LANES {
            let fused_cfg = FilterConfig {
                lanes,
                kernel: SimKernel::Fused,
                ..reference_cfg
            };
            let got = mc_filter(&nl, &pairs, &fused_cfg);
            prop_assert_eq!(
                &got, &reference,
                "outcome diverged at {} lanes (netlist seed {})", lanes, seed
            );
        }
    }

    /// Per-node values: a 1-word keep-all `FusedSim` tracks `ParallelSim`
    /// exactly on folding-heavy netlists, across evaluation and clocking.
    #[test]
    fn fused_values_match_parallel_sim_per_node(
        (seed, cfg) in cfg_strategy(),
        stimulus in any::<u64>(),
    ) {
        let nl = folding_netlist(seed, &cfg);
        let tape = Tape::compile(&nl);
        let fused = FusedTape::lower_keep_all(&tape);
        let mut fsim = FusedSim::<1>::new(&fused);
        let mut psim = ParallelSim::new(&nl);

        let mut rng = StdRng::seed_from_u64(stimulus);
        for ff in 0..nl.num_ffs() {
            let w: u64 = rng.random();
            fsim.set_state(ff, [w]);
            psim.set_state(ff, w);
        }
        for cycle in 0..3 {
            for pi in 0..nl.num_inputs() {
                let w: u64 = rng.random();
                fsim.set_input(pi, [w]);
                psim.set_input(pi, w);
            }
            fsim.eval();
            psim.eval();
            for (id, _) in nl.nodes() {
                prop_assert_eq!(
                    node_value(&fsim, &tape, id),
                    Some(psim.value(id)),
                    "node {:?} diverged in cycle {} (netlist seed {})", id, cycle, seed
                );
            }
            for ff in 0..nl.num_ffs() {
                prop_assert_eq!(fsim.next_state(ff)[0], psim.next_state(ff));
            }
            fsim.clock();
            psim.clock();
            for ff in 0..nl.num_ffs() {
                prop_assert_eq!(fsim.state(ff)[0], psim.state(ff));
            }
        }
    }

    /// Const folding preserves semantics: the fused kernel agrees with
    /// the three-valued event simulator (which performs no folding at
    /// all) on every node of constant-dense netlists, and neither the
    /// compile nor the lowering ever *adds* instructions.
    #[test]
    fn const_folding_matches_event_sim(
        (seed, cfg) in cfg_strategy(),
        stimulus in any::<u64>(),
    ) {
        let nl = folding_netlist(seed, &cfg);
        let tape = Tape::compile(&nl);
        // An n-input gate decomposes into at most n-1 binary
        // instructions (1 for NOT, 0 for BUF); folding only shrinks it.
        let bound: usize = nl
            .nodes()
            .filter_map(|(_, n)| {
                n.kind().gate_kind().map(|k| match k {
                    GateKind::Buf => 0,
                    GateKind::Not => 1,
                    _ => n.fanins().len().saturating_sub(1).max(1),
                })
            })
            .sum();
        prop_assert!(
            tape.num_ops() <= bound,
            "folding must not add instructions: {} ops for a bound of {}",
            tape.num_ops(),
            bound
        );
        let fused = FusedTape::lower_keep_all(&tape);
        prop_assert!(fused.num_ops() <= tape.num_ops());

        let mut fsim = FusedSim::<1>::new(&fused);
        let mut esim = EventSim::new(&nl);
        let mut bits = stimulus;
        let mut next_bit = || {
            bits = bits
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bits >> 63 == 1
        };
        for ff in 0..nl.num_ffs() {
            let v = next_bit();
            fsim.set_state(ff, [if v { u64::MAX } else { 0 }]);
            esim.set_state(ff, V3::from(v));
        }
        for _ in 0..2 {
            for pi in 0..nl.num_inputs() {
                let v = next_bit();
                fsim.set_input(pi, [if v { u64::MAX } else { 0 }]);
                esim.set_input(pi, V3::from(v));
            }
            fsim.eval();
            esim.propagate();
            for (id, _) in nl.nodes() {
                let lane0 = node_value(&fsim, &tape, id).map(|w| V3::from(w & 1 == 1));
                prop_assert_eq!(
                    lane0,
                    Some(esim.value(id)),
                    "node {:?} diverged (netlist seed {})", id, seed
                );
            }
            fsim.clock();
            esim.clock();
        }
    }
}
