//! Static-hazard validation of multi-cycle pairs (paper Section 5).
//!
//! The MC condition only constrains *settled* values: `FFj(t+1) ==
//! FFj(t+2)`. Between the clock edges, the combinational logic may still
//! glitch — a **static hazard** — and if the glitch originates at the
//! transitioning source FF and reaches the sink's D input near the clock
//! edge, relaxing the pair's timing constraint is unsafe (the paper's
//! Fig.3: slowing one AND of a decomposed multiplexer lets the `EN2`
//! transition race through both MUX legs into `FF2`).
//!
//! Exact hazard analysis is delay-dependent; the paper instead offers two
//! delay-independent structural checks built on path sensitization theory:
//!
//! * **static sensitization** (a *lower bound* on true sensitization):
//!   flag a hazard when some source→sink path has every side input
//!   possibly settled at a non-controlling value. Cheap and close to
//!   exact, but optimistic — and pairs it validates may *depend on each
//!   other's* timing constraints (Fig.4), so validated sets must be
//!   applied together with care.
//! * **static co-sensitization** (an *upper bound*): flag a hazard when
//!   some path is possibly co-sensitized — every gate whose settled output
//!   is a controlled value receives a controlling value from the on-path
//!   edge. Pairs surviving this check are robustly multi-cycle under any
//!   delay assignment, with no cross-pair dependences.
//!
//! Both checks run per surviving `(FFi(t), FFj(t+1))` scenario, on the
//! values implied for the *settled* second frame; first-cycle values are
//! treated as unknown, mirroring the paper's Fig.4 where the first cycle
//! is all `X` ("because we should take into account static hazards").
//! Unknown (`X`) settled values never block a path — they are treated as
//! possibly-hazardous, the conservative direction.

use crate::report::McReport;
use mcp_implication::ImpEngine;
use mcp_logic::V3;
use mcp_netlist::{Expanded, Netlist, NodeId, XId};
use mcp_obs::ObsCtx;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::time::Duration;

/// Which delay-independent hazard criterion to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HazardCheck {
    /// Static sensitization (lower bound; keeps more pairs, may introduce
    /// dependences between validated pairs).
    Sensitization,
    /// Static co-sensitization (upper bound; fully safe survivors).
    CoSensitization,
}

/// Result of [`check_hazards`]: the partition of multi-cycle pairs into
/// hazard-free and potentially-hazardous — the paper's Table 3 rows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HazardReport {
    /// The criterion applied.
    pub check: HazardCheck,
    /// Pairs with no potentially hazardous path in any scenario: their
    /// timing constraints may be relaxed.
    pub robust: Vec<(usize, usize)>,
    /// Pairs with a potentially hazardous path: the MC condition holds but
    /// a glitch may still cross the cycle boundary.
    pub demoted: Vec<(usize, usize)>,
    /// Wall-clock spent checking.
    #[serde(skip)]
    pub elapsed: Duration,
}

/// Validates every multi-cycle pair of `report` against static hazards.
///
/// For each pair and each of the four `(FFi(t), FFj(t+1))` assignments that
/// is consistent (premise + MC conclusion `FFj(t+2) = FFj(t+1)` asserted,
/// as the paper does in Fig.3), the implied two-frame values feed a
/// glitch-path search from the source FF to the sink's D input. Any
/// reachable scenario demotes the pair. `robust` and `demoted` keep the
/// report's pair order.
pub fn check_hazards(netlist: &Netlist, report: &McReport, check: HazardCheck) -> HazardReport {
    check_hazards_with(netlist, report, check, &ObsCtx::new())
}

/// [`check_hazards`] with an explicit observability context: the check's
/// wall-clock lands in the `hazard/check` span (timed, and traced when the
/// context traces) and its implication work in the shared counters.
pub fn check_hazards_with(
    netlist: &Netlist,
    report: &McReport,
    check: HazardCheck,
    obs: &ObsCtx,
) -> HazardReport {
    let span = obs.timers.span("hazard/check");
    let _trace = obs.trace_span(|| "hazard/check".to_owned());
    let pairs = report.multi_cycle_pairs();
    let x = Expanded::build(netlist, 2);
    let mut search = GlitchSearch::default();
    let hazardous = for_each_scenario(&x, &pairs, obs, |k, eng| {
        let (i, j) = pairs[k];
        search.run(netlist, i, j, |n| eng.value(x.value_of(1, n)), check)
    });
    let mut flags = hazardous.into_iter();
    let (demoted, robust) = pairs.into_iter().partition(|_| flags.next() == Some(true));
    HazardReport {
        check,
        robust,
        demoted,
        elapsed: span.stop(),
    }
}

/// Visits every consistent scenario of `pairs` — `FFi(t)=a, FFi(t+1)=!a`
/// plus the MC conclusion `FFj(t+1)=FFj(t+2)=b` — with the engine holding
/// its implied values. Pairs are grouped by source: each source transition
/// is propagated once and each sink's half on top of it. Direct
/// implication is confluent, so every scenario sees the values (or
/// conflict) of a from-scratch propagation. `visit(k, eng)` returning
/// `true` retires pair `k`; the result flags the retired pairs. The
/// engine's work lands in `obs`'s counters.
fn for_each_scenario(
    x: &Expanded,
    pairs: &[(usize, usize)],
    obs: &ObsCtx,
    mut visit: impl FnMut(usize, &ImpEngine) -> bool,
) -> Vec<bool> {
    let mut eng = ImpEngine::new(x);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by_key(|&k| pairs[k].0);
    let mut retired = vec![false; pairs.len()];
    for group in order.chunk_by(|&p, &q| pairs[p].0 == pairs[q].0) {
        let i = pairs[group[0]].0;
        for a in [false, true] {
            let source = eng.checkpoint();
            if implies(&mut eng, [(x.ff_at(i, 0), a), (x.ff_at(i, 1), !a)]) {
                for (&k, b) in group.iter().flat_map(|k| [(k, false), (k, true)]) {
                    let (cp, j) = (eng.checkpoint(), pairs[k].1);
                    // The pair satisfies the MC condition, so the sink holds:
                    if !retired[k] && implies(&mut eng, [(x.ff_at(j, 1), b), (x.ff_at(j, 2), b)]) {
                        retired[k] = visit(k, &eng);
                    }
                    eng.backtrack(cp);
                }
            }
            eng.backtrack(source);
        }
    }
    obs.metrics.implications.add(eng.implications());
    obs.metrics.contradictions.add(eng.contradictions());
    retired
}

/// Asserts `literals` and propagates; `false` on a conflict.
fn implies(eng: &mut ImpEngine, literals: [(XId, bool); 2]) -> bool {
    let assigned = literals.iter().try_for_each(|&(id, v)| eng.assign(id, v));
    assigned.and_then(|()| eng.propagate()).is_ok()
}

/// Searches for a potentially hazardous path from FF `i`'s output to FF
/// `j`'s D input, given the settled node values of the cycle after the
/// transition edge (`v1`, indexed by [`NodeId::index`]).
///
/// The two criteria sit on opposite sides of the exact (delay-dependent)
/// hazard condition. An edge `f → g` is traversable when:
///
/// * **Sensitization** — every side input of `g` is *provably* implied to
///   settle at the non-controlling value (frame-1 value definite and
///   non-controlling). A side whose settled value is unknown blocks: the
///   criterion demotes only pairs with a demonstrably statically
///   sensitized path, which is why it is a lower bound that can miss real
///   hazards (the paper's Fig.4 caveat — the unknown first-cycle values
///   mean a "blocked" side may in fact let a glitch through when some
///   other relaxed pair perturbs it).
/// * **Co-sensitization** — blocked only when `g`'s settled output is
///   provably the controlled value while the on-path edge provably
///   settles non-controlling (the path edge then cannot be the
///   co-sensitizing one). Side-input values are deliberately ignored —
///   the paper's Fig.4 path stays co-sensitizable even though a side
///   input carries a controlling value. Unknowns never block — the
///   conservative upper bound.
///
/// XOR/XNOR/NOT/BUF gates have no controlling value and never block either
/// criterion. Since traversability of an edge does not depend on the path
/// taken to reach it, existence of a fully traversable path is plain BFS
/// reachability — linear, no path enumeration.
pub fn glitch_path_exists(
    netlist: &Netlist,
    i: usize,
    j: usize,
    v1: &[V3],
    check: HazardCheck,
) -> bool {
    GlitchSearch::default().run(netlist, i, j, |n| v1[n.index()], check)
}

/// The glitch BFS's scratch state, reused across searches: an
/// epoch-stamped visited set (a search clears nothing) and its queue.
#[derive(Default)]
struct GlitchSearch {
    seen: Vec<u64>,
    epoch: u64,
    queue: VecDeque<NodeId>,
}

impl GlitchSearch {
    /// [`glitch_path_exists`] over the settled values `v1`.
    fn run(
        &mut self,
        netlist: &Netlist,
        i: usize,
        j: usize,
        v1: impl Fn(NodeId) -> V3,
        check: HazardCheck,
    ) -> bool {
        let src = netlist.dffs()[i];
        let dst = netlist.ff_d_input(j);
        if src == dst {
            // A direct wire: the source transition arrives unfiltered.
            return true;
        }
        self.seen.resize(netlist.num_nodes(), 0);
        self.epoch += 1;
        self.queue.clear();
        self.seen[src.index()] = self.epoch;
        self.queue.push_back(src);

        while let Some(f) = self.queue.pop_front() {
            for &g in netlist.fanouts(f) {
                if !netlist.node(g).kind().is_gate() || self.seen[g.index()] == self.epoch {
                    continue;
                }
                if edge_traversable(netlist, f, g, &v1, check) {
                    if g == dst {
                        return true;
                    }
                    self.seen[g.index()] = self.epoch;
                    self.queue.push_back(g);
                }
            }
        }
        false
    }
}

fn edge_traversable(
    netlist: &Netlist,
    f: NodeId,
    g: NodeId,
    v1: impl Fn(NodeId) -> V3,
    check: HazardCheck,
) -> bool {
    let node = netlist.node(g);
    let kind = node.kind().gate_kind().expect("checked gate");
    let Some(c) = kind.controlling_value() else {
        return true; // parity/unary gates never block either criterion
    };
    let controlled = kind.controlled_output().expect("and/or family");
    match check {
        HazardCheck::Sensitization => {
            // Provable static sensitization: every side input implied to
            // settle at the non-controlling value. An unknown side cannot
            // be *shown* non-controlling, so it blocks — this is what
            // makes the criterion a lower bound that can miss hazards.
            node.fanins()
                .iter()
                .filter(|&&s| s != f)
                .all(|&s| v1(s) == V3::from(!c))
        }
        HazardCheck::CoSensitization => {
            // Pure co-sensitization (side values deliberately ignored — the
            // paper's Fig.4 keeps the path co-sensitizable even though a
            // side input carries a controlling value): a gate whose settled
            // output is the controlled value must receive the controlling
            // value from the on-path edge.
            !(v1(g) == V3::from(controlled) && v1(f) == V3::from(!c))
        }
    }
}

/// The dependency report of the sensitization check (the paper's Section
/// 5.2 caveat, formalized).
///
/// A pair validated by static sensitization is only safe *conditionally*:
/// each blocked path relies on some side input holding its implied
/// controlling value in time. If the flip-flops driving that side input
/// reach the same sink through their own multi-cycle pairs and those
/// constraints are relaxed too, the blockade may arrive late and the
/// hazard can materialize — the paper's Fig.4 scenario. Survivors of the
/// co-sensitization check carry no such conditions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SensitizationDependencies {
    /// For each sensitization-robust pair `(i, j)`, the other multi-cycle
    /// pairs `(k, j)` whose relaxation could invalidate its robustness
    /// (the `k` are FFs feeding a provably-controlling blocking side
    /// input on some otherwise-reachable path). Pairs with an empty list
    /// are unconditionally robust under the sensitization criterion.
    pub deps: Vec<PairDependencies>,
}

/// A robust pair together with the pairs its robustness depends on.
pub type PairDependencies = ((usize, usize), Vec<(usize, usize)>);

/// Computes, for every pair the sensitization check `sens` validated, the
/// set of other multi-cycle pairs its robustness depends on (see
/// [`SensitizationDependencies`]).
///
/// In each consistent scenario of a robust pair, a potential side input
/// of its path cone whose settled value is *provably controlling* is a
/// blockade, and the FFs in its fan-in cone are recorded. A recorded FF
/// `k` contributes a dependency edge to `(k, j)` when `(k, j)` is itself a
/// multi-cycle pair of the report — exactly the "if a path from B to C is
/// also detected as a multi-cycle path" condition of the paper. Panics if
/// `sens` is not a [`HazardCheck::Sensitization`] report.
pub fn sensitization_dependencies(
    netlist: &Netlist,
    report: &McReport,
    sens: &HazardReport,
) -> SensitizationDependencies {
    assert!(matches!(sens.check, HazardCheck::Sensitization));
    let (mc, robust) = (report.multi_cycle_pairs(), &sens.robust);
    let sides: Vec<_> = robust.iter().map(|&p| side_inputs(netlist, p)).collect();
    let mut blockades: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); robust.len()];
    let x = Expanded::build(netlist, 2);
    for_each_scenario(&x, robust, &ObsCtx::new(), |k, eng| {
        let settled_at = |&&(side, c): &&(NodeId, V3)| eng.value(x.value_of(1, side)) == c;
        blockades[k].extend(sides[k].iter().filter(settled_at).map(|&(side, _)| side));
        false
    });
    let fan_in_ffs = |side| netlist.cone_sources(side).0;
    let deps = robust.iter().zip(blockades).map(|(&(i, j), sides)| {
        let ffs: BTreeSet<usize> = sides.into_iter().flat_map(fan_in_ffs).collect();
        let is_mc = |k: usize| mc.binary_search(&(k, j)).is_ok();
        let pair_deps = ffs.into_iter().filter(|&k| k != i && is_mc(k));
        ((i, j), pair_deps.map(|k| (k, j)).collect())
    });
    SensitizationDependencies {
        deps: deps.collect(),
    }
}

/// The potential side inputs of the source→sink path cone (fanins whose
/// gate has a controlling value and another fanin in the cone), with that
/// value. Every gate on *some* structural path is examined, reached by the
/// glitch or not: a superset of the load-bearing blockades, the safe
/// direction for a "these constraints interact" warning.
fn side_inputs(netlist: &Netlist, (i, j): (usize, usize)) -> Vec<(NodeId, V3)> {
    let cone = netlist.path_cone(i, j);
    let in_cone: HashSet<NodeId> = cone.iter().copied().collect();
    let mut out = Vec::new();
    for &g in &cone {
        let node = netlist.node(g);
        if let Some(c) = node.kind().gate_kind().and_then(|k| k.controlling_value()) {
            let on_path = node.fanins().iter().filter(|f| in_cone.contains(f)).count();
            for &s in node.fanins() {
                if on_path > usize::from(in_cone.contains(&s)) {
                    out.push((s, V3::from(c)));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, McConfig};
    use mcp_gen::circuits;

    #[test]
    fn fig3_pair_ff3_ff2_is_demoted_by_both_checks() {
        // The paper's Section 5.1 example: (FF3, FF2) satisfies the MC
        // condition but the EN2 transition can glitch through the
        // decomposed MUX2 into FF2.
        let nl = circuits::fig3();
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        assert!(
            report.multi_cycle_pairs().contains(&(2, 1)),
            "(FF3,FF2) must be MC before hazard checking"
        );

        for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
            let hz = check_hazards(&nl, &report, check);
            assert!(
                hz.demoted.contains(&(2, 1)),
                "{check:?} must demote (FF3,FF2): demoted={:?}",
                hz.demoted
            );
        }
    }

    #[test]
    fn hazard_report_partitions_mc_pairs() {
        let nl = circuits::fig3();
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        let mc = report.multi_cycle_pairs();
        for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
            let hz = check_hazards(&nl, &report, check);
            let mut all: Vec<_> = hz.robust.iter().chain(hz.demoted.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(all, mc, "{check:?} must partition the MC pairs");
        }
    }

    #[test]
    fn cosensitization_demotes_at_least_as_much_as_sensitization() {
        // Co-sensitization is an upper bound on sensitization: every
        // sensitizable path is co-sensitizable, so the co-sens check flags
        // a superset of hazards (Table 3's ordering).
        for nl in [circuits::fig1(), circuits::fig3()] {
            let report = analyze(&nl, &McConfig::default()).expect("analyze");
            let sens = check_hazards(&nl, &report, HazardCheck::Sensitization);
            let cosens = check_hazards(&nl, &report, HazardCheck::CoSensitization);
            for pair in &sens.demoted {
                assert!(
                    cosens.demoted.contains(pair),
                    "{pair:?} demoted by sens but not co-sens"
                );
            }
            assert!(cosens.robust.len() <= sens.robust.len());
        }
    }

    #[test]
    fn fig4_distinguishes_the_two_criteria() {
        // The paper's Fig.4: a transitioning A through N = NOT(A) into
        // C = AND(N, B) with B settled at the controlling value 0. The
        // path is NOT statically sensitizable (B blocks it) but IS
        // statically co-sensitizable (C is controlled and N can present
        // the controlling value).
        let nl = circuits::fig4_fragment();
        let n = nl.num_nodes();
        let mut v1 = vec![V3::X; n];
        let qa = nl.find_node("QA").unwrap();
        let qb = nl.find_node("QB").unwrap();
        let c = nl.find_node("C").unwrap();
        // A falls 1 -> 0; B stable 0; C settled 0.
        v1[qa.index()] = V3::Zero;
        v1[qb.index()] = V3::Zero;
        v1[c.index()] = V3::Zero;

        let i = nl.ff_index(qa).unwrap();
        let j = nl.ff_index(nl.find_node("QC").unwrap()).unwrap();
        assert!(!glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::Sensitization
        ));
        assert!(glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::CoSensitization
        ));
    }

    #[test]
    fn side_input_settling_noncontrolling_sensitizes() {
        let nl = circuits::fig4_fragment();
        let n = nl.num_nodes();
        let mut v1 = vec![V3::X; n];
        let qb = nl.find_node("QB").unwrap();
        // B settles at the non-controlling 1 (its first-cycle value is
        // irrelevant — the paper treats it as unknown): the A-path is
        // statically sensitizable, so both criteria flag a hazard.
        v1[qb.index()] = V3::One;
        let i = nl.ff_index(nl.find_node("QA").unwrap()).unwrap();
        let j = nl.ff_index(nl.find_node("QC").unwrap()).unwrap();
        assert!(glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::Sensitization
        ));
        assert!(glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::CoSensitization
        ));
    }

    /// A Fig.4-style circuit where a robust pair's blockade depends on
    /// another multi-cycle pair: QC's capture is gated by CP =
    /// decode(counter == 3); QA and QB load at phase 0 and reconverge at
    /// QC's data. C1 toggles only into counter states 2 and 0, so (C1, QC)
    /// is itself multi-cycle — and it is exactly the FF whose implied
    /// value blocks (QA, QC)'s glitch paths.
    fn dependency_circuit() -> mcp_netlist::Netlist {
        use mcp_logic::GateKind;
        use mcp_netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("deps");
        let c0 = b.dff("C0");
        let c1 = b.dff("C1");
        let t0 = b.gate("T0", GateKind::Not, [c0]).unwrap();
        let t1 = b.gate("T1", GateKind::Xor, [c1, c0]).unwrap();
        b.set_dff_input(c0, t0).unwrap();
        b.set_dff_input(c1, t1).unwrap();
        let n0 = b.gate("N0", GateKind::Not, [c0]).unwrap();
        let n1 = b.gate("N1", GateKind::Not, [c1]).unwrap();
        let ld = b.gate("LD", GateKind::And, [n0, n1]).unwrap(); // counter == 0
        let cp = b.gate("CP", GateKind::And, [c0, c1]).unwrap(); // counter == 3

        let ina = b.input("INA");
        let inb = b.input("INB");
        let qa = b.dff("QA");
        let ma = b.mux("MA", ld, qa, ina).unwrap();
        b.set_dff_input(qa, ma).unwrap();
        let qb = b.dff("QB");
        let mb = b.mux("MB", ld, qb, inb).unwrap();
        b.set_dff_input(qb, mb).unwrap();

        let na = b.gate("NA", GateKind::Not, [qa]).unwrap();
        let data = b.gate("DATA", GateKind::And, [na, qb]).unwrap();
        let qc = b.dff("QC");
        let mc = b.mux("MC", cp, qc, data).unwrap();
        b.set_dff_input(qc, mc).unwrap();
        b.mark_output(qc);
        b.finish().unwrap()
    }

    #[test]
    fn dependencies_identify_the_load_bearing_mc_pair() {
        let nl = dependency_circuit();
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        let ff = |name: &str| nl.ff_index(nl.find_node(name).unwrap()).unwrap();
        let (c0, c1, qa, qb, qc) = (ff("C0"), ff("C1"), ff("QA"), ff("QB"), ff("QC"));

        // Ground truth: (QA,QC), (QB,QC) and (C1,QC) are multi-cycle;
        // (C0,QC) is not (C0 toggles into the capture state 3).
        let mc = report.multi_cycle_pairs();
        assert!(mc.contains(&(qa, qc)), "mc = {mc:?}");
        assert!(mc.contains(&(qb, qc)));
        assert!(mc.contains(&(c1, qc)));
        assert!(!mc.contains(&(c0, qc)));

        let sens = check_hazards(&nl, &report, HazardCheck::Sensitization);
        let deps = sensitization_dependencies(&nl, &report, &sens);
        let of = |pair: (usize, usize)| -> Option<&Vec<(usize, usize)>> {
            deps.deps.iter().find(|(p, _)| *p == pair).map(|(_, d)| d)
        };
        // (QA, QC) must be sensitization-robust (its paths are blocked by
        // CP = 0 and the unknown QB), and its robustness must be recorded
        // as depending on (C1, QC) — the Fig.4 dependency.
        let qa_deps = of((qa, qc)).expect("(QA,QC) robust");
        assert!(
            qa_deps.contains(&(c1, qc)),
            "(QA,QC) should depend on (C1,QC): {qa_deps:?}"
        );
        assert!(
            !qa_deps.contains(&(c0, qc)),
            "(C0,QC) is single-cycle, not a dependency"
        );
    }

    #[test]
    fn pinned_chain_dependencies_point_only_at_the_shared_counter() {
        // The pinned-transfer structure's blockades are the counter-decoded
        // enables: any recorded dependency must be a counter-to-sink pair.
        let nl = mcp_gen::generators::composite(
            "pinned",
            &mcp_gen::generators::CompositeConfig {
                seed: 3,
                pinned_chains: 2,
                ..Default::default()
            },
        );
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        let sens = check_hazards(&nl, &report, HazardCheck::Sensitization);
        let deps = sensitization_dependencies(&nl, &report, &sens);
        for r in 0..2 {
            let s = nl
                .ff_index(nl.find_node(&format!("PN{r}_S")).unwrap())
                .unwrap();
            let t = nl
                .ff_index(nl.find_node(&format!("PN{r}_T")).unwrap())
                .unwrap();
            let entry = deps.deps.iter().find(|(p, _)| *p == (s, t));
            let entry = entry.expect("pinned pair is robust").1.clone();
            for &(k, sink) in &entry {
                assert_eq!(sink, t);
                assert!(
                    nl.node(nl.dffs()[k]).name().starts_with("PN_CTR_"),
                    "unexpected dependency FF {}",
                    nl.node(nl.dffs()[k]).name()
                );
            }
        }
    }

    #[test]
    fn all_x_values_split_the_criteria() {
        // With nothing implied, sensitization cannot *prove* any path
        // sensitized (unknown sides block), while co-sensitization cannot
        // prove any path blocked (unknowns traverse) — the two bounds at
        // their widest.
        let nl = circuits::fig4_fragment();
        let v1 = vec![V3::X; nl.num_nodes()];
        let i = nl.ff_index(nl.find_node("QA").unwrap()).unwrap();
        let j = nl.ff_index(nl.find_node("QC").unwrap()).unwrap();
        assert!(!glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::Sensitization
        ));
        assert!(glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::CoSensitization
        ));
    }
}
