//! Benchmark harnesses regenerating every figure of the paper's
//! evaluation (§8) in the simulator, plus shared simulation scaffolding
//! and the comparison baselines `fig4`/`fig5` plot against. The live
//! deployment is measured by `benchmark/` (`amcast_bench`), not here.

pub mod baselines;
pub mod scaffold;
