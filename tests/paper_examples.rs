//! Golden tests pinning the paper's worked examples.
//!
//! Section 4.2 walks the full flow on Fig.1 step by step and Fig.2 shows
//! the implied values for one assignment; Section 5 treats Fig.3 and
//! Fig.4. These tests encode those narratives exactly.

use mcpath::core::{analyze, check_hazards, HazardCheck, McConfig, PairClass, Step};
use mcpath::gen::circuits;
use mcpath::implication::ImpEngine;
use mcpath::logic::V3;
use mcpath::netlist::Expanded;

/// FF indices in the fig circuits: FF1=0, FF2=1, FF3=2, FF4=3.
const FF1: usize = 0;
const FF2: usize = 1;
const FF3: usize = 2;
const FF4: usize = 3;

#[test]
fn section_4_2_step1_nine_pairs() {
    let nl = circuits::fig1();
    let pairs = nl.connected_ff_pairs();
    assert_eq!(
        pairs,
        vec![
            (FF1, FF1),
            (FF1, FF2),
            (FF2, FF2),
            (FF3, FF1),
            (FF3, FF2),
            (FF3, FF4),
            (FF4, FF1),
            (FF4, FF2),
            (FF4, FF3),
        ],
        "after Step 1, the following 9 FF pairs remain among 16"
    );
}

#[test]
fn section_4_2_step2_five_survivors() {
    // "After Step 2, the following 5 FF pairs remain: (FF1,FF1),
    // (FF1,FF2), (FF2,FF2), (FF3,FF2), (FF4,FF1)."
    let nl = circuits::fig1();
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    let dropped: Vec<(usize, usize)> = report
        .pairs
        .iter()
        .filter(|p| {
            matches!(
                p.class,
                PairClass::SingleCycle {
                    by: Step::RandomSim
                }
            )
        })
        .map(|p| (p.src, p.dst))
        .collect();
    assert_eq!(
        dropped,
        vec![(FF3, FF1), (FF3, FF4), (FF4, FF2), (FF4, FF3)],
        "random simulation must disprove exactly the paper's 4 pairs"
    );
}

#[test]
fn section_4_2_all_five_survivors_are_multi_cycle() {
    let nl = circuits::fig1();
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    assert_eq!(
        report.multi_cycle_pairs(),
        vec![(FF1, FF1), (FF1, FF2), (FF2, FF2), (FF3, FF2), (FF4, FF1)],
    );
    // And all of them fall to the implication procedure, as in Fig.2.
    for (i, j) in report.multi_cycle_pairs() {
        assert_eq!(
            report.class_of(i, j),
            Some(PairClass::MultiCycle {
                by: Step::Implication
            }),
            "({i},{j})"
        );
    }
}

#[test]
fn fig2_implied_values_for_ff1_ff2_assignment_01() {
    // The paper's Fig.2: assignment (FF1(t), FF2(t+1)) = (0, 1), with
    // FF1(t+1) = 1 (a rise at FF1). The implication procedure must derive
    // FF2(t+2) = 1 — "the signal at FF2 never changes at time t+2".
    let nl = circuits::fig1();
    let x = Expanded::build(&nl, 2);
    let mut eng = ImpEngine::new(&x);

    eng.assign(x.ff_at(FF1, 0), false).expect("FF1(t)=0");
    eng.assign(x.ff_at(FF1, 1), true).expect("FF1(t+1)=1");
    eng.assign(x.ff_at(FF2, 1), true).expect("FF2(t+1)=1");
    eng.propagate().expect("no contradiction");

    // The key conclusion:
    assert_eq!(eng.value(x.ff_at(FF2, 2)), V3::One, "FF2(t+2) implied 1");

    // And the supporting chain: a rise at FF1 means it loaded, so the
    // counter was in the load state (0,0) at time t and moves to (0,1),
    // closing both enables in frame 1.
    assert_eq!(eng.value(x.ff_at(FF3, 0)), V3::Zero, "FF3(t)");
    assert_eq!(eng.value(x.ff_at(FF4, 0)), V3::Zero, "FF4(t)");
    assert_eq!(eng.value(x.ff_at(FF3, 1)), V3::Zero, "FF3(t+1)");
    assert_eq!(eng.value(x.ff_at(FF4, 1)), V3::One, "FF4(t+1)");
    let en1 = nl.find_node("EN1").expect("node");
    let en2 = nl.find_node("EN2").expect("node");
    assert_eq!(eng.value(x.value_of(1, en1)), V3::Zero, "EN1(t+1)");
    assert_eq!(eng.value(x.value_of(1, en2)), V3::Zero, "EN2(t+1)");
    // The rise itself required the input and load enable:
    let input = nl.find_node("IN").expect("node");
    assert_eq!(eng.value(x.value_of(0, input)), V3::One, "IN(t)=1");
}

#[test]
fn section_5_fig3_hazard_demotes_ff3_ff2() {
    let nl = circuits::fig3();
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    assert!(report.multi_cycle_pairs().contains(&(FF3, FF2)));
    for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
        let hz = check_hazards(&nl, &report, check);
        assert!(
            hz.demoted.contains(&(FF3, FF2)),
            "{check:?} must flag the Fig.3 hazard"
        );
    }
}

#[test]
fn section_5_fig4_sensitization_vs_cosensitization() {
    // B settled controlling: not statically sensitizable, statically
    // co-sensitizable.
    let nl = circuits::fig4_fragment();
    let mut v1 = vec![V3::X; nl.num_nodes()];
    let qb = nl.find_node("QB").expect("node");
    v1[qb.index()] = V3::Zero;
    let c = nl.find_node("C").expect("node");
    v1[c.index()] = V3::Zero;
    let qa = nl.ff_index(nl.find_node("QA").expect("node")).expect("ff");
    let qc = nl.ff_index(nl.find_node("QC").expect("node")).expect("ff");
    assert!(!mcpath::core::hazard::glitch_path_exists(
        &nl,
        qa,
        qc,
        &v1,
        HazardCheck::Sensitization
    ));
    assert!(mcpath::core::hazard::glitch_path_exists(
        &nl,
        qa,
        qc,
        &v1,
        HazardCheck::CoSensitization
    ));
}

#[test]
fn table2_attribution_shape_on_fig1() {
    // Even on the tiny Fig.1: most single-cycle pairs die in simulation
    // and all multi-cycle proofs come from implication.
    let nl = circuits::fig1();
    let r = analyze(&nl, &McConfig::default()).expect("analyze");
    assert_eq!(r.stats.single_by_sim, 4);
    assert_eq!(r.stats.multi_by_implication, 5);
    assert_eq!(r.stats.multi_by_atpg, 0);
    assert_eq!(r.stats.unknown, 0);
}
