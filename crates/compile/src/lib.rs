//! # voodoo-compile — the fragment compiler and CPU backend
//!
//! This crate is the Rust analog of the paper's OpenCL backend (§3.1). It
//! compiles Voodoo programs into **fragments** — maximal fused pipelines of
//! operators sharing one iteration domain — and executes them data-parallel
//! over a thread pool. Reproduced compilation techniques:
//!
//! * **Extent/Intent assignment** (§3.1.1): every fragment carries the
//!   degree of data parallelism (extent) and the sequential iterations per
//!   work item (intent), derived from control-vector [`voodoo_core::RunMeta`].
//! * **Pipelining / operator fusion**: elementwise operators, gathers and
//!   folds of the same extent are fused into a single loop; materialization
//!   happens only at fragment seams (the HyPeR-inspired model).
//! * **Virtual control vectors**: `Range`/`Constant`/`Cross` attributes are
//!   never materialized — they evaluate from their closed form (the
//!   "purple operators" of Figure 8).
//! * **Empty-slot suppression** (§3.1.2): controlled-fold outputs allocate
//!   one slot per *run*, not per input element; the padded layout is
//!   reconstructed only if observed.
//! * **Virtual scatter** (§3.1.3): `Partition` → `Scatter` → `FoldAgg`
//!   group-bys never materialize the scattered vector; they run as a single
//!   accumulation pass over dense buckets.
//! * **Vectorized selection** (§5.3): a chunk-controlled `FoldSelect`
//!   followed by `Gather`+`Fold` executes as the paper's two-loop,
//!   cache-resident position-buffer pipeline.
//! * **Column-at-a-time kernels**: each kernel's fused expressions are
//!   flattened into a DAG at prepare and evaluated once per 1024-row
//!   chunk into typed registers ([`expr::Chunks`]) — tight, vectorizable
//!   loops over contiguous columns instead of a per-element tree walk.
//! * **Predication** as a physical tuning flag ([`ExecOptions`], §4
//!   "optimization flags"): position emission uses branch-free cursor
//!   arithmetic instead of an `if`.
//!
//! Execution doubles as a **profiler**: every kernel can count architectural
//! events (branches, int/fp ops, sequential/random loads, writes, barriers)
//! which the `voodoo-gpusim` crate prices with a GPU cost model.
//!
//! Fragments can also be rendered as OpenCL-C-like kernel source
//! ([`kernel::render_opencl`]) to preserve the paper's code-generation story.

pub mod device;
pub mod exec;
pub mod expr;
pub mod kernel;
pub mod plan;
pub mod pool;
pub mod profile;
pub mod repr;

pub use device::Device;
pub use exec::{ExecOptions, Executor};
pub use plan::{CompiledProgram, Compiler, Fragment, FragmentKind};
pub use pool::MorselPool;
pub use profile::EventProfile;
pub use repr::MatVec;

#[cfg(test)]
mod tests;
