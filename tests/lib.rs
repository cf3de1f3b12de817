//! Shared helpers for the workspace integration tests.

use orm_gen::GenConfig;

/// A generation config small enough for the bounded model finder to fully
/// explore in a property test iteration.
pub fn tiny_config(seed: u64) -> GenConfig {
    GenConfig {
        n_types: 3,
        n_facts: 2,
        subtype_density: 0.4,
        mandatory_density: 0.4,
        uniqueness_density: 0.5,
        frequency_density: 0.3,
        value_density: 0.3,
        exclusion_density: 0.4,
        subset_density: 0.4,
        ring_density: 0.4,
        ..GenConfig::small(seed)
    }
}

/// A mappable-fragment config: no value constraints, no rings — everything
/// the ORM→DL translation expresses exactly.
pub fn mappable_config(seed: u64) -> GenConfig {
    GenConfig { value_density: 0.0, ring_density: 0.0, ..tiny_config(seed) }
}

/// A context granting every proof `n` rule applications — the per-proof
/// step budget the differential suites run their queries under.
pub fn steps(n: u64) -> orm_dl::ExecCx {
    orm_dl::ExecCx::with_steps(n)
}
