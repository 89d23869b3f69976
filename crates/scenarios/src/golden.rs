//! Golden per-scenario fingerprints.
//!
//! Each entry pins the [`iuad_serve::partition_fingerprint`] of one
//! scenario's seeded fit. A mismatch means a merge decision flipped on
//! *that named regime* — far more actionable than a generic test failure.
//! When a change alters pipeline behaviour on purpose, regenerate with
//! `make scenarios` (or `repro scenarios`) and update the table alongside
//! the committed `SCENARIOS.json`, and call out the drift.

/// `(scenario name, canonical fingerprint)` — one row per matrix entry.
pub const GOLDEN_FINGERPRINTS: &[(&str, &str)] = &[
    ("baseline-reference", "0xfd8d4ffef6d6f736"),
    ("homonym-storm", "0x8a5f0d9e0690e36f"),
    ("abbreviated-variants", "0xba48b907c96ceafc"),
    ("unicode-transliteration", "0x1dae72cd2046b8ed"),
    ("scale-free-hubs", "0x44f6574b718e8c40"),
    ("tiny-sparse", "0x670a701ffe2b01de"),
    ("singleton-desert", "0x188c7dbf14c1be63"),
    ("dense-cliques", "0xf6dedcb3f82efd75"),
    ("topic-blur", "0x2998c102a65a1881"),
    ("streaming-churn", "0xd88c7bdd1142f34f"),
    ("hot-name-query-skew", "0xc1adfc59814e23ba"),
];

/// The golden fingerprint for `scenario`, if pinned.
pub fn golden_fingerprint(scenario: &str) -> Option<&'static str> {
    GOLDEN_FINGERPRINTS
        .iter()
        .find(|(n, _)| *n == scenario)
        .map(|&(_, fp)| fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iuad_corpus::scenario_matrix;

    #[test]
    fn every_scenario_has_a_golden_pin() {
        for spec in scenario_matrix() {
            assert!(
                golden_fingerprint(spec.name).is_some(),
                "scenario `{}` has no golden fingerprint — add it to \
                 GOLDEN_FINGERPRINTS after a seeded run",
                spec.name
            );
        }
    }

    #[test]
    fn goldens_reference_real_scenarios() {
        let names: Vec<&str> = scenario_matrix().iter().map(|s| s.name).collect();
        for (n, _) in GOLDEN_FINGERPRINTS {
            assert!(names.contains(n), "golden `{n}` names no scenario");
        }
    }
}
