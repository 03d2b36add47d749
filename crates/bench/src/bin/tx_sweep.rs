//! Transmission-aware sweep: the compression axis on top of the Fig. 2
//! design space, plus the closed-loop per-policy energy split.
//!
//! The sweep prices every Pareto-front sensor configuration under the three
//! transmit policies — raw samples, the 15-dimensional feature vector, and a
//! compressed-sensing payload at each requested ratio — with compressed
//! accuracy measured on host-reconstructed held-out windows, and prints the
//! resulting (total µC/epoch, accuracy) table with its Pareto front.  It then
//! runs an adaptive SPOT fleet with the radio enabled and reports the
//! per-policy epoch/byte/charge breakdown the controller actually realized.
//!
//! The binary exits non-zero if local processing fails to beat transmit-raw
//! at iso-accuracy: for every configuration at least one local point
//! (features, or compressed at ratio ≥ 2) must cost less total charge than
//! raw while staying within 1 accuracy point, and at the highest-rate
//! configuration — where a window carries enough samples for compressed
//! sensing to matter — *every* ratio ≥ 2 must clear that bar.  It also exits
//! non-zero if the tx-enabled fleet is not bit-identical across 1 vs 4
//! workers and 1 vs 4 shards.
//!
//! Progress goes to stderr; stdout is deterministic and committed as the
//! golden fixture `crates/bench/fixtures/tx_sweep_quick.txt`, which CI diffs.
//!
//! Run with `cargo run --release -p adasense-bench --bin tx_sweep -- --quick`.
//! Flags: `--devices N` and `--duration S` resize the fleet cohort.

use adasense::dse::TxExploration;
use adasense::prelude::*;
use adasense_bench::{int_arg, train_system, RunScale};
use adasense_data::DatasetSpec;

/// Compressed points may give up at most this much accuracy vs transmit-raw
/// (one point — the same budget the backend sweep grants int8 and cascade).
const ISO_ACCURACY_BUDGET: f64 = 0.01;

/// Windows per class and configuration the exploration draws at either
/// scale.  The gate compares accuracies to within one point, so one point
/// must be worth several held-out windows: 300 per class gives 360 per
/// repeat, where the quick spec's 20 would give 24 and one misclassified
/// window would be 4.2 points.  At this size and two repeats, the widest gap
/// the gate checks (F100_A128 cx4 vs raw) measures 0.31 ± 0.18 points over 16
/// spec seeds.
const GATE_WINDOWS_PER_CLASS: usize = 300;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = RunScale::from_args();
    let devices = int_arg("--devices")?.unwrap_or(if scale == RunScale::Quick { 8 } else { 32 });
    let duration_s =
        int_arg("--duration")?.unwrap_or(if scale == RunScale::Quick { 120 } else { 360 }) as f64;

    let (spec, system) = train_system(scale)?;

    // --- The transmission-aware design space -----------------------------
    let windows_per_class_per_config =
        spec.dataset.windows_per_class_per_config.max(GATE_WINDOWS_PER_CLASS);
    let exploration_spec = ExperimentSpec {
        dataset: DatasetSpec { windows_per_class_per_config, ..spec.dataset.clone() },
        ..spec.clone()
    };
    let exploration = TxExploration::new(exploration_spec)
        .with_ratios(vec![2, 4])
        .with_repeats(if scale == RunScale::Quick { 2 } else { 3 });
    eprintln!(
        "[tx_sweep] exploring {} configurations × (raw, features, {} ratios)…",
        exploration.candidates.len(),
        exploration.ratios.len()
    );
    let report = exploration.run()?;
    println!("Transmission-aware design space (per classification epoch)\n");
    print!("{}", report.to_table_string());
    println!(
        "\nPareto front (highest→lowest charge): {}",
        report.pareto.iter().map(|e| e.label()).collect::<Vec<_>>().join(" > ")
    );

    // --- The crossover gate: local processing must beat transmit-raw -----
    // A point "beats raw" when it costs less total charge at iso-accuracy
    // (within the one-point budget).  Every configuration must have such a
    // local point, and the highest-rate configuration — whose windows carry
    // enough samples for the sparse projection to reconstruct well — must
    // clear the bar at *every* ratio ≥ 2.
    let beats_raw = |row: &adasense::dse::TxEvaluation, raw: &adasense::dse::TxEvaluation| {
        row.total_charge_uc() < raw.total_charge_uc()
            && raw.accuracy - row.accuracy <= ISO_ACCURACY_BUDGET
    };
    let densest = *exploration
        .candidates
        .iter()
        .max_by(|a, b| a.frequency.hz().total_cmp(&b.frequency.hz()))
        .expect("candidates are non-empty");
    for &config in &exploration.candidates {
        let rows: Vec<_> = report.evaluations.iter().filter(|e| e.config == config).collect();
        let raw = rows
            .iter()
            .find(|e| e.policy == TxPolicy::Raw)
            .ok_or_else(|| format!("no raw row for {config}"))?;
        let locals: Vec<_> = rows
            .iter()
            .filter(|e| {
                e.policy == TxPolicy::Features || (e.policy == TxPolicy::Compressed && e.ratio >= 2)
            })
            .collect();
        if !locals.iter().any(|row| beats_raw(row, raw)) {
            return Err(
                format!("no local point beats transmit-raw for {config} at iso-accuracy").into()
            );
        }
        if config == densest {
            for row in &locals {
                if !beats_raw(row, raw) {
                    return Err(format!(
                        "{} fails the iso-accuracy crossover at the highest-rate state: \
                         {:.1} uC/epoch at {:.2}% vs raw {:.1} uC/epoch at {:.2}%",
                        row.label(),
                        row.total_charge_uc(),
                        100.0 * row.accuracy,
                        raw.total_charge_uc(),
                        100.0 * raw.accuracy
                    )
                    .into());
                }
            }
        }
    }
    println!(
        "\ncrossover: local processing beats transmit-raw within {:.0} accuracy point \
         for every configuration, at every ratio >= 2 for {}",
        100.0 * ISO_ACCURACY_BUDGET,
        densest.label()
    );

    // --- The closed loop: an adaptive SPOT fleet with the radio on -------
    let fleet = FleetSpec {
        tx_ratio: Some(4),
        lockstep_devices: 4,
        ..FleetSpec::new(devices, duration_s, 97)
    };
    eprintln!("[tx_sweep] running the tx-enabled fleet ({devices} devices × {duration_s} s)…");
    let scheduler = FleetScheduler::new(&spec, &system);
    let live = scheduler.with_threads(4).builder().spec(&fleet).run()?.report;
    println!("\n{}", live.to_table_string());
    let epochs: u64 = TxPolicy::ALL.iter().map(|&p| live.tx_epochs(p)).sum();
    if epochs != live.total_epochs() {
        return Err(format!(
            "tx epochs ({epochs}) must partition the fleet's classified epochs ({})",
            live.total_epochs()
        )
        .into());
    }
    println!(
        "radio total: {} B, {:.1} uC across {} epochs",
        live.total_tx_bytes(),
        live.total_tx_charge_uc(),
        epochs
    );

    // --- Determinism gates ------------------------------------------------
    let serial = scheduler.with_threads(1).builder().spec(&fleet).run()?.report;
    if serial.encode() != live.encode() {
        return Err("tx-enabled 4-worker report differs from the 1-worker report".into());
    }
    let mut sharded = FleetReport::new(fleet.controller.label());
    for range in fleet.shards(4) {
        sharded.merge(&scheduler.builder().spec(&fleet).shard(range).run()?.report)?;
    }
    if sharded.encode() != live.encode() {
        return Err("4-shard merged report differs from the monolithic report".into());
    }
    println!("determinism: tx fleet is bit-identical at 1 vs 4 workers and 1 vs 4 shards");
    Ok(())
}
