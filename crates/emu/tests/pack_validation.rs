//! Validation cells for the committed scenario packs (`packs/*.toml`):
//! each new model family runs the full synthetic-collection →
//! distillation → modulation pipeline under the default fidelity gates,
//! fleet runs over the packs are byte-identical at 1/2/8 shards, and
//! the exact-integer fields of each pack's fleet summary match a
//! committed golden value — a committed pack cannot drift silently.

use distill::DistillConfig;
use emu::{fleet_run, live_modulated_run, Benchmark, Exec, FleetPlan, RunConfig};
use faultkit::FaultPlan;
use netsim::SimDuration;
use obs::{FidelityThresholds, FleetReport, RunManifest};
use wavelan::ScenarioPack;

/// Load a committed pack fixture from the repository `packs/` dir.
fn committed_pack(file: &str) -> ScenarioPack {
    let path = format!("{}/../../packs/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    wavelan::load_pack(&path, &text).unwrap_or_else(|e| panic!("{e}"))
}

/// Fleet plan over a committed pack, sized for test runtime.
fn pack_fleet(file: &str, clients: u32) -> (ScenarioPack, FleetReport, Vec<RunManifest>) {
    let pack = committed_pack(file);
    let plan = FleetPlan::from_pack(pack.clone(), clients);
    let out = fleet_run(&plan, &Exec::serial());
    (pack, out.report, out.manifests)
}

#[test]
fn committed_packs_load_and_validate() {
    let leo = committed_pack("leo.toml");
    assert_eq!(leo.name, "leo");
    assert_eq!(leo.entries.len(), 2);
    assert_eq!(leo.entries[0].spec.family, "leo");
    assert_eq!(leo.entries[0].share, 7);

    let errant = committed_pack("errant-4g.toml");
    assert_eq!(errant.name, "errant-4g");
    assert_eq!(errant.entries.len(), 3);
    assert!(errant.entries.iter().all(|e| e.spec.family == "errant"));
}

/// The golden-summary check: the exact-integer fields of a pack fleet's
/// aggregate report, pinned. Floating-point aggregates (delay-error
/// percentiles) are deliberately excluded — only fields that must be
/// bit-stable across platforms are pinned.
#[derive(Debug, PartialEq)]
struct GoldenSummary {
    clients: u32,
    modulated: u64,
    released: u64,
    dropped: u64,
    failed_clients: u32,
    model_clients: Vec<(&'static str, u64)>,
}

fn summarize(r: &FleetReport) -> GoldenSummary {
    GoldenSummary {
        clients: r.clients,
        modulated: r.modulated_packets,
        released: r.released_packets,
        dropped: r.dropped_packets,
        failed_clients: r.failed_clients,
        model_clients: r
            .models
            .iter()
            .map(|u| {
                let name: &'static str = match u.family.as_str() {
                    "leo" => "leo",
                    "errant" => "errant",
                    other => panic!("unexpected family {other}"),
                };
                (name, u.clients as u64)
            })
            .collect(),
    }
}

#[test]
fn leo_pack_fleet_matches_golden_summary() {
    let (_, report, _) = pack_fleet("leo.toml", 16);
    assert_eq!(
        summarize(&report),
        GoldenSummary {
            clients: 16,
            modulated: 1908,
            released: 1891,
            dropped: 17,
            failed_clients: 0,
            model_clients: vec![("leo", 14), ("errant", 2)],
        }
    );
    let violations = report.check(&FidelityThresholds::default());
    assert!(
        violations.is_empty(),
        "leo fleet gate failed: {violations:?}"
    );
}

#[test]
fn errant_pack_fleet_matches_golden_summary() {
    let (_, report, _) = pack_fleet("errant-4g.toml", 15);
    assert_eq!(
        summarize(&report),
        GoldenSummary {
            clients: 15,
            modulated: 1791,
            released: 1773,
            dropped: 18,
            failed_clients: 0,
            // Three distinct operator param sets, 5 clients each.
            model_clients: vec![("errant", 5), ("errant", 5), ("errant", 5)],
        }
    );
    let params: Vec<&str> = report.models.iter().map(|u| u.params.as_str()).collect();
    assert_eq!(
        params,
        vec![
            "operator=op1 rat=4g",
            "operator=op2 rat=4g",
            "operator=op3 rat=4g"
        ]
    );
    let violations = report.check(&FidelityThresholds::default());
    assert!(
        violations.is_empty(),
        "errant fleet gate failed: {violations:?}"
    );
}

#[test]
fn pack_fleets_are_byte_identical_at_1_2_8_shards() {
    for file in ["leo.toml", "errant-4g.toml"] {
        let pack = committed_pack(file);
        let serial = fleet_run(&FleetPlan::from_pack(pack.clone(), 16), &Exec::serial());
        let base: Vec<String> = serial
            .manifests
            .iter()
            .map(RunManifest::deterministic_json)
            .collect();
        for shards in [2usize, 8] {
            let sharded = fleet_run(
                &FleetPlan::from_pack(pack.clone(), 16).with_shards(shards),
                &Exec::with_workers(2),
            );
            let got: Vec<String> = sharded
                .manifests
                .iter()
                .map(RunManifest::deterministic_json)
                .collect();
            assert_eq!(base, got, "{file}: {shards} shards diverged from serial");
            assert_eq!(
                serial.report.deterministic_json(),
                sharded.report.deterministic_json(),
                "{file}: aggregate report diverged at {shards} shards"
            );
        }
    }
}

/// The per-family validation cell: synthetic collection over the model,
/// streaming distillation, live modulation — gated on the default
/// fidelity thresholds, with the model identity recorded in the
/// manifest. This is the same cell the CI scenario matrix runs.
fn validation_cell(file: &str, want_family: &str) {
    let pack = committed_pack(file);
    let mut sc = pack.scenario();
    sc.duration = SimDuration::from_secs(40);
    let out = live_modulated_run(
        &sc,
        1,
        Benchmark::Web,
        &DistillConfig::default(),
        &RunConfig::default(),
        0,
        &FaultPlan::new(),
        0,
    );
    let model = out.manifest.model.as_ref().expect("manifest records model");
    assert_eq!(model.family, want_family, "{file}");
    let violations = out.manifest.check(&FidelityThresholds::default());
    assert!(
        violations.is_empty(),
        "{file}: validation cell failed fidelity gate: {violations:?}"
    );
}

#[test]
fn leo_validation_cell_passes_fidelity_gate() {
    validation_cell("leo.toml", "leo");
}

#[test]
fn errant_validation_cell_passes_fidelity_gate() {
    validation_cell("errant-4g.toml", "errant");
}
