//! `irgrid-lint` — the workspace's in-repo static-analysis pass.
//!
//! The congestion engine stakes a hard guarantee: an incremental score
//! is bit-identical to a from-scratch one, and a checkpointed annealing
//! run resumes bit-identically. Nothing in the
//! compiler enforces that. This crate is the machine-checked gate: a
//! zero-dependency lexical analysis pass (no `syn`; the workspace builds
//! offline against vendored stand-ins) that tokenizes every first-party
//! source file — comment- and string-aware, `#[cfg(test)]`-aware — and
//! enforces the project's determinism, panic-safety, and numeric-cast
//! policies with `file:line:col` diagnostics.
//!
//! # Rules
//!
//! * **D1 determinism** — no wall-clock (`std::time`, `Instant`,
//!   `SystemTime`) and no hash-ordered containers (`HashMap`/`HashSet`)
//!   in the cost crates.
//! * **D2 float reductions** — no order-sensitive float accumulation
//!   (`.sum::<f64>()`, float `fold`s, untyped `.sum()`) in the cost
//!   crates outside the audited `core/src/num/` module.
//! * **P1 panic policy** — no `unwrap`/`expect`/`panic!`/`todo!`/
//!   `unimplemented!` in non-test library code (slice indexing too,
//!   under `--strict-indexing`).
//! * **C1 cast audit** — no unaudited `as` casts between numeric types
//!   in the fixed-point and binomial paths.
//! * **U1 unsafe gate** — every library crate root carries
//!   `#![forbid(unsafe_code)]`.
//!
//! The v2 invariant families (see `invariants`) extend the pass beyond
//! lexical policy to the contracts PRs 4–8 introduced:
//!
//! * **S1 atomic persistence** — raw `File::create`/`fs::write`/
//!   `fs::rename`/`OpenOptions` in the persistence crates outside the
//!   blessed tmp+fsync+rename writer modules.
//! * **S2 chaos-site registry** — every chaos consult site string must
//!   appear in `REGISTERED_SITES` (`crates/serve/src/chaos.rs`);
//!   unregistered, non-literal, and registered-but-dead sites are all
//!   findings.
//! * **S3 protocol annotations** — every `ErrorKind` variant carries a
//!   `[retry: always|never|conditional]` classification, every
//!   `RequestOp` variant an `[idempotency: ...]` note.
//! * **S4 float comparisons** — `f64`/`f32` `==`/`!=` and
//!   `.partial_cmp(` ordering outside `to_bits`/`total_cmp` idioms in
//!   the cost crates.
//! * **S5 suppression debt** — stale allow directives whose rule no
//!   longer fires at their target, plus a per-crate live-allow ledger
//!   in the JSON report, gated against [`DEBT_CEILING`] in CI.
//!
//! Violations are suppressed site-by-site with
//! `// irgrid-lint: allow(<RULE>): <reason>`; a directive without a
//! reason is itself a violation (`A1`), and a directive that outlives
//! its finding is one too (`S5`). See `CONTRIBUTING.md` for the allow
//! policy and `DESIGN.md` §3h for the architecture.
//!
//! # Example
//!
//! ```
//! use irgrid_lint::{check_source, RuleConfig};
//!
//! let findings = check_source(
//!     "crates/core/src/example.rs",
//!     "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }",
//!     &RuleConfig::default(),
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "D2");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod engine;
mod invariants;
mod model;
mod rules;
mod scan;

pub use diag::{CrateDebt, Finding, Format, Report};
pub use engine::{find_workspace_root, run, EngineConfig};
pub use rules::{RuleConfig, RULE_IDS};
pub use scan::{AllowDirective, MalformedDirective, Scan, KNOWN_RULES};

/// CI ceiling on `Report::debt_total`: the workspace-wide count of live
/// allow directives may never exceed this. It equals the measured
/// count, 82 live allows, so a deleted suppression cannot come back
/// silently. Lowering it is a ratchet — raise it only with a PR that
/// argues why the new suppression is cheaper than the fix.
pub const DEBT_CEILING: usize = 82;

/// Lints one in-memory source file as if it lived at the
/// workspace-relative `rel_path` (which decides rule scope).
pub fn check_source(rel_path: &str, source: &str, config: &RuleConfig) -> Vec<Finding> {
    let scan = Scan::new(source);
    rules::check_file(rel_path, &scan, config)
}
