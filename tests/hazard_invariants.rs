//! Cross-circuit invariants of the static-hazard checks (Section 5).

use mcpath::core::hazard::{glitch_path_exists, PairDependencies};
use mcpath::core::{
    analyze, check_hazards, sensitization_dependencies, HazardCheck, McConfig, McReport,
};
use mcpath::gen::{circuits, generators, suite};
use mcpath::implication::ImpEngine;
use mcpath::logic::V3;
use mcpath::netlist::{Expanded, Netlist};

#[test]
fn checks_partition_the_multicycle_set() {
    for nl in suite::quick_suite() {
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        let mc = report.multi_cycle_pairs();
        for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
            let hz = check_hazards(&nl, &report, check);
            let mut union: Vec<_> = hz.robust.iter().chain(hz.demoted.iter()).copied().collect();
            union.sort_unstable();
            assert_eq!(union, mc, "{}: {check:?}", nl.name());
        }
    }
}

#[test]
fn cosensitization_demotes_a_superset_of_sensitization() {
    // Every statically sensitizable path is statically co-sensitizable, so
    // the co-sensitization check must flag every pair the sensitization
    // check flags (the paper's Table 3 ordering).
    let mut circuits: Vec<mcpath::netlist::Netlist> = vec![circuits::fig1(), circuits::fig3()];
    circuits.extend(suite::quick_suite());
    for nl in &circuits {
        let report = analyze(nl, &McConfig::default()).expect("analyze");
        let sens = check_hazards(nl, &report, HazardCheck::Sensitization);
        let cosens = check_hazards(nl, &report, HazardCheck::CoSensitization);
        for pair in &sens.demoted {
            assert!(
                cosens.demoted.contains(pair),
                "{}: {pair:?} demoted by sensitization only",
                nl.name()
            );
        }
    }
}

#[test]
fn pinned_transfer_chains_survive_both_checks() {
    // The pinned-enable structure is engineered so the implications pin
    // every on-path value: (S, T) must be robust even under the
    // conservative co-sensitization criterion.
    let nl = generators::composite(
        "pinned",
        &generators::CompositeConfig {
            seed: 7,
            pinned_chains: 3,
            ..generators::CompositeConfig::default()
        },
    );
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    for r in 0..3 {
        let s = nl
            .ff_index(nl.find_node(&format!("PN{r}_S")).expect("node"))
            .expect("ff");
        let t = nl
            .ff_index(nl.find_node(&format!("PN{r}_T")).expect("node"))
            .expect("ff");
        assert!(
            report.class_of(s, t).expect("pair").is_multi(),
            "chain {r} must be multi-cycle"
        );
        for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
            let hz = check_hazards(&nl, &report, check);
            assert!(
                hz.robust.contains(&(s, t)),
                "chain {r} must be {check:?}-robust: demoted={:?}",
                hz.demoted
            );
        }
    }
}

#[test]
fn hazard_checking_is_deterministic() {
    let nl = circuits::fig3();
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    let a = check_hazards(&nl, &report, HazardCheck::Sensitization);
    let b = check_hazards(&nl, &report, HazardCheck::Sensitization);
    assert_eq!(a.robust, b.robust);
    assert_eq!(a.demoted, b.demoted);
}

#[test]
fn demotion_rates_are_ordered_on_the_suite() {
    // before >= kept(sensitization) >= kept(co-sensitization), with the
    // sensitization check keeping a solid majority (the paper's Table 3:
    // 9065 -> 8063 -> 5712).
    let mut before = 0usize;
    let mut sens_kept = 0usize;
    let mut cosens_kept = 0usize;
    for nl in suite::quick_suite() {
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        before += report.multi_cycle_pairs().len();
        sens_kept += check_hazards(&nl, &report, HazardCheck::Sensitization)
            .robust
            .len();
        cosens_kept += check_hazards(&nl, &report, HazardCheck::CoSensitization)
            .robust
            .len();
    }
    assert!(sens_kept <= before);
    assert!(cosens_kept <= sens_kept);
    assert!(
        sens_kept * 2 > before,
        "sensitization should keep a majority: {sens_kept}/{before}"
    );
    assert!(
        cosens_kept > 0,
        "pinned chains must survive co-sensitization"
    );
}

/// The straightforward formulation of the check: every pair, every one of
/// its four `(FFi(t), FFj(t+1))` scenarios asserted and propagated from
/// scratch, the settled frame-1 values copied out, a fresh glitch search.
/// Calls `visit(pair, settled)` per consistent scenario until it returns
/// `true`.
fn per_pair_scenarios(
    nl: &Netlist,
    pairs: &[(usize, usize)],
    mut visit: impl FnMut((usize, usize), &[V3]) -> bool,
) {
    let x = Expanded::build(nl, 2);
    let mut eng = ImpEngine::new(&x);
    let mut v1 = vec![V3::X; nl.num_nodes()];
    for &(i, j) in pairs {
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let cp = eng.checkpoint();
            let consistent = eng
                .assign(x.ff_at(i, 0), a)
                .and_then(|()| eng.assign(x.ff_at(i, 1), !a))
                .and_then(|()| eng.assign(x.ff_at(j, 1), b))
                .and_then(|()| eng.assign(x.ff_at(j, 2), b))
                .and_then(|()| eng.propagate())
                .is_ok();
            let mut done = false;
            if consistent {
                for (id, _) in nl.nodes() {
                    v1[id.index()] = eng.value(x.value_of(1, id));
                }
                done = visit((i, j), &v1);
            }
            eng.backtrack(cp);
            if done {
                break;
            }
        }
    }
}

fn reference_check(
    nl: &Netlist,
    report: &McReport,
    check: HazardCheck,
) -> [Vec<(usize, usize)>; 2] {
    let mut demoted = Vec::new();
    per_pair_scenarios(nl, &report.multi_cycle_pairs(), |(i, j), v1| {
        let hazardous = glitch_path_exists(nl, i, j, v1, check);
        if hazardous {
            demoted.push((i, j));
        }
        hazardous
    });
    let robust = report
        .multi_cycle_pairs()
        .into_iter()
        .filter(|p| !demoted.contains(p))
        .collect();
    [robust, demoted]
}

/// Per robust pair: the FFs feeding a potential side input of its path
/// cone that some consistent scenario settles at its gate's controlling
/// value, kept when they form another multi-cycle pair with the sink.
fn reference_dependencies(nl: &Netlist, report: &McReport) -> Vec<PairDependencies> {
    let mc = report.multi_cycle_pairs();
    let robust = reference_check(nl, report, HazardCheck::Sensitization)[0].clone();
    let mut deps: Vec<((usize, usize), Vec<usize>)> =
        robust.iter().map(|&p| (p, Vec::new())).collect();
    let mut k = 0;
    per_pair_scenarios(nl, &robust, |(i, j), v1| {
        while deps[k].0 != (i, j) {
            k += 1;
        }
        let cone = nl.path_cone(i, j);
        for &g in &cone {
            let node = nl.node(g);
            let Some(c) = node
                .kind()
                .gate_kind()
                .and_then(|kind| kind.controlling_value())
            else {
                continue;
            };
            for (pos, &side) in node.fanins().iter().enumerate() {
                let on_path_sibling = node
                    .fanins()
                    .iter()
                    .enumerate()
                    .any(|(q, f)| q != pos && cone.contains(f));
                if on_path_sibling && v1[side.index()] == V3::from(c) {
                    deps[k].1.extend(nl.cone_sources(side).0);
                }
            }
        }
        false
    });
    deps.into_iter()
        .map(|((i, j), mut ffs)| {
            ffs.sort_unstable();
            ffs.dedup();
            ffs.retain(|&f| f != i && mc.contains(&(f, j)));
            ((i, j), ffs.into_iter().map(|f| (f, j)).collect())
        })
        .collect()
}

#[test]
fn by_source_check_matches_the_per_pair_reference() {
    // The check shares each source transition's propagation across that
    // source's sinks and reads the settled values in place; it must
    // return exactly what the per-pair, four-scenario loop returns, in
    // the same order, for both criteria — and so must the dependency
    // scan that runs on the same driver.
    let sdc_shape = generators::composite(
        "sdc_shape",
        &generators::CompositeConfig {
            seed: 11,
            dual_datapaths: vec![(6, 4, 0, 5, 10), (6, 4, 1, 6, 11)],
            datapaths: vec![(12, 4, 2, 7)],
            pinned_chains: 6,
            glue_gates: 8,
            glue_regs: 2,
            ..generators::CompositeConfig::default()
        },
    );
    let mut nets = vec![
        circuits::fig1(),
        circuits::fig3(),
        circuits::fig4_fragment(),
    ];
    nets.extend(suite::quick_suite());
    nets.push(sdc_shape);
    let cfg = McConfig {
        include_self_pairs: true,
        ..McConfig::default()
    };
    for nl in &nets {
        let report = analyze(nl, &cfg).expect("analyze");
        for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
            let hz = check_hazards(nl, &report, check);
            let [robust, demoted] = reference_check(nl, &report, check);
            assert_eq!(hz.robust, robust, "{} {check:?}: robust", nl.name());
            assert_eq!(hz.demoted, demoted, "{} {check:?}: demoted", nl.name());
        }
        let sens = check_hazards(nl, &report, HazardCheck::Sensitization);
        let deps = sensitization_dependencies(nl, &report, &sens);
        assert_eq!(
            deps.deps,
            reference_dependencies(nl, &report),
            "{}: deps",
            nl.name()
        );
    }
    let last = nets.last().expect("sdc-shaped circuit");
    let mc = analyze(last, &cfg).expect("analyze").multi_cycle_pairs();
    assert!(
        mc.iter().any(|&(i, j)| i == j),
        "self-pairs must be exercised"
    );
    assert!(
        mc.len() > 50,
        "the sdc-shaped circuit has {} MC pairs",
        mc.len()
    );
}
