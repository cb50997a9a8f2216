//! The downstream story end to end: analyze a circuit, validate the
//! multi-cycle pairs against static hazards, and emit the SDC
//! `set_multicycle_path` constraints a static timing analyzer would apply
//! — comparing the unsafe (MC-condition-only) constraint set with the
//! hazard-robust one, which is the paper's practical punchline.
//!
//! Run with: `cargo run --release --example sdc_flow`

use mcpath::core::{
    analyze, check_hazards, sensitization_dependencies, to_sdc, HazardCheck, McConfig, SdcOptions,
};
use mcpath::gen::circuits;

fn main() {
    let netlist = circuits::fig3();
    let report = analyze(&netlist, &McConfig::default()).expect("fig3 analysis succeeds");
    println!(
        "`{}`: {} of {} FF pairs verified multi-cycle by the MC condition\n",
        netlist.name(),
        report.stats.multi_total(),
        report.stats.candidates
    );

    println!("=== naive constraints (MC condition only — UNSAFE under hazards) ===");
    print!(
        "{}",
        to_sdc(
            &netlist,
            &report,
            &SdcOptions {
                cycles: 2,
                ..Default::default()
            }
        )
    );

    let cosens = check_hazards(&netlist, &report, HazardCheck::CoSensitization);
    println!("\n=== hazard-robust constraints (co-sensitization survivors) ===");
    print!(
        "{}",
        to_sdc(
            &netlist,
            &report,
            &SdcOptions {
                robust_only: Some(cosens.clone()),
                cycles: 2,
            },
        )
    );

    let sens = check_hazards(&netlist, &report, HazardCheck::Sensitization);
    let deps = sensitization_dependencies(&netlist, &report, &sens);
    println!(
        "\nintermediate option: the sensitization criterion keeps {} of {} pairs,",
        sens.robust.len(),
        report.stats.multi_total()
    );
    let conditional = deps.deps.iter().filter(|(_, d)| !d.is_empty()).count();
    println!(
        "but {conditional} of those depend on other pairs' constraints staying tight\n\
         (the paper's Fig.4 interdependency) — apply them only as a set."
    );

    // The punchline on this circuit: (FF3, FF2) is constrained by the
    // naive set and absent from the robust set.
    let naive = to_sdc(
        &netlist,
        &report,
        &SdcOptions {
            cycles: 2,
            ..Default::default()
        },
    );
    let robust = to_sdc(
        &netlist,
        &report,
        &SdcOptions {
            robust_only: Some(cosens),
            cycles: 2,
        },
    );
    let line = "-from [get_cells {FF3}] -to [get_cells {FF2}]";
    assert!(naive.contains(line));
    assert!(!robust.contains(line));
    println!(
        "\nnote: the naive set relaxes (FF3, FF2) — the exact pair whose glitch\n\
         `cargo run --example glitch_waveform` makes visible. The robust set does not. ✓"
    );
}
