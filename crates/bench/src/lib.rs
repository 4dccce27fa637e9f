//! Criterion micro-benchmarks for the reproduction's layers (`benches/`:
//! event engine, packet codec, modulation pipeline, fleet). The paper's
//! figures and ablations are `tracemod figure <name>`; see
//! EXPERIMENTS.md.
