//! The rule set: what each rule matches and where it applies.
//!
//! | ID | Name              | Default scope                               |
//! |----|-------------------|---------------------------------------------|
//! | D1 | determinism       | cost crates: `core`, `floorplan`, `anneal`, `fleet`, `irgrid`, `models`, `serve` |
//! | D2 | float-reduce      | cost crates, minus the `core/src/num/` allowlist |
//! | P1 | panic-policy      | every library crate's `src/`                 |
//! | C1 | cast-audit        | `core/src/fixed.rs` and `core/src/num/`      |
//! | U1 | unsafe-gate       | every `crates/*/src/lib.rs`                  |
//! | S1 | atomic-persistence| `serve`/`fleet`/`anneal`/`bench`, minus the blessed writer modules |
//! | S2 | chaos-registry    | every scanned file (sites vs `REGISTERED_SITES`) |
//! | S3 | protocol-notes    | the enums named in `ANNOTATED_ENUMS`         |
//! | S4 | float-compare     | cost crates, minus the `core/src/num/` allowlist |
//! | S5 | suppression-debt  | every `irgrid-lint: allow` directive         |
//!
//! All rules skip `#[cfg(test)]` spans and honor
//! `// irgrid-lint: allow(<RULE>): <reason>` suppressions; malformed
//! suppressions are themselves reported as `A1` (never suppressible).
//!
//! The pass runs in two phases. [`analyze_file`] produces the
//! *pre-suppression* finding set for one file — every rule, regardless
//! of `--rules` selection, because S5's staleness check needs to know
//! whether *any* rule still fires at an allow's target line.
//! [`finalize_file`] then applies suppressions, drops unselected rules,
//! generates S5 stale-allow findings, and counts the surviving (live)
//! allows as that file's suppression debt. The engine runs the S2
//! cross-file registry check between the two phases.

use crate::diag::Finding;
use crate::invariants::{self, ConsultRecord, SiteRegistry};
use crate::scan::{token_positions, Scan};

/// Every enforceable rule ID, in report order.
pub const RULE_IDS: &[&str] = &["D1", "D2", "P1", "C1", "U1", "S1", "S2", "S3", "S4", "S5"];

/// Which rules run and how strictly.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// Rule IDs to run (subset of [`RULE_IDS`]). Empty means all.
    pub rules: Vec<String>,
    /// Ignore per-rule path scopes: run the selected rules on every
    /// scanned file (sweep mode; allowlists and `#[cfg(test)]` masking
    /// still apply).
    pub everywhere: bool,
    /// Also flag slice/array indexing under P1. Off by default: the
    /// grid kernels index dense buffers pervasively with bounds
    /// established by construction, so this sub-rule is advisory.
    pub strict_indexing: bool,
}

impl RuleConfig {
    fn runs(&self, rule: &str) -> bool {
        self.rules.is_empty() || self.rules.iter().any(|r| r == rule)
    }
}

/// Everything [`analyze_file`] learned about one file: the
/// pre-suppression findings plus the raw material the engine's
/// cross-file (S2) and finalization (S5) phases consume.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Pre-suppression findings from every per-file rule.
    pub findings: Vec<Finding>,
    /// Advisory findings used *only* to decide allow liveness: the
    /// strict-indexing P1 sub-rule when `--strict-indexing` is off, so
    /// a justified strict-mode allow is not reported as stale by a
    /// default (non-strict) run.
    pub advisory: Vec<Finding>,
    /// Chaos consult sites recorded for the S2 cross-file pass.
    pub consult_sites: Vec<ConsultRecord>,
    /// The parsed site registry, when this file is the registry file.
    pub registry: Option<SiteRegistry>,
}

/// One file's finalized contribution to the report.
#[derive(Debug)]
pub struct FileOutcome {
    /// Reported findings: suppressions applied, unselected rules
    /// dropped, S5 stale-allow findings added.
    pub findings: Vec<Finding>,
    /// Allows that still suppress a live finding — this file's
    /// suppression debt.
    pub live_allows: usize,
}

/// Crates whose numbers feed the cost function or the congestion map,
/// where iteration order and wall time must never influence results
/// (checkpoint-resume and thread-count bit-identity depend on it).
const COST_CRATE_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/floorplan/src/",
    "crates/anneal/src/",
    "crates/fleet/src/",
    "crates/irgrid/src/",
    "crates/models/src/",
    "crates/serve/src/",
];

/// Library crates under the panic policy. `bench` is excluded: it is a
/// terminal experiment harness where exiting on a broken invariant is
/// the right behavior.
const LIBRARY_CRATE_PREFIXES: &[&str] = &[
    "crates/geom/src/",
    "crates/netlist/src/",
    "crates/floorplan/src/",
    "crates/anneal/src/",
    "crates/core/src/",
    "crates/route/src/",
    "crates/fleet/src/",
    "crates/irgrid/src/",
    "crates/lint/src/",
    "crates/models/src/",
    "crates/serve/src/",
];

/// The fixed-point and binomial numeric paths audited by C1. The delta
/// evaluator is included because its bit-identity guarantee rests on
/// exact integer accumulation — an unaudited cast there can silently
/// break `delta == rebuild`. The unit-grid map is included for its cell
/// index arithmetic, which every fixed-pitch model's map goes through.
const CAST_AUDIT_PREFIXES: &[&str] = &[
    "crates/core/src/fixed.rs",
    "crates/core/src/map.rs",
    "crates/core/src/num/",
    "crates/core/src/irregular/delta.rs",
];

/// Modules where serial float accumulation is the sanctioned design
/// (Simpson integration, log-factorial tables): iteration order is fixed
/// by construction and reviewed there once, not per call site.
const FLOAT_REDUCE_ALLOWLIST: &[&str] = &["crates/core/src/num/"];

fn has_prefix(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Phase 1: runs every rule's per-file half over one scanned file,
/// producing pre-suppression findings.
///
/// `rel_path` must be workspace-relative with `/` separators — it decides
/// which rules apply. Rule *selection* (`--rules`) is deliberately not
/// applied here: S5 staleness is judged against the full rule set, so a
/// `--rules P1` run never mislabels a live `allow(D1)` as stale.
pub fn analyze_file(rel_path: &str, scan: &Scan, config: &RuleConfig) -> FileAnalysis {
    let mut findings = Vec::new();

    // Malformed suppression directives are always reported: a broken
    // allow is silently *not* suppressing, which is worse than noise.
    for bad in &scan.malformed {
        findings.push(Finding {
            file: rel_path.to_owned(),
            line: bad.line,
            col: 1,
            rule: "A1".to_owned(),
            message: format!("malformed irgrid-lint directive: {}", bad.problem),
        });
    }

    let in_scope = |prefixes: &[&str]| config.everywhere || has_prefix(rel_path, prefixes);

    if in_scope(COST_CRATE_PREFIXES) {
        check_determinism(rel_path, scan, &mut findings);
    }
    if in_scope(COST_CRATE_PREFIXES) && !has_prefix(rel_path, FLOAT_REDUCE_ALLOWLIST) {
        check_float_reductions(rel_path, scan, &mut findings);
        invariants::check_float_compare(rel_path, scan, &mut findings);
    }
    if in_scope(LIBRARY_CRATE_PREFIXES) {
        check_panic_policy(rel_path, scan, config, &mut findings);
    }
    if in_scope(CAST_AUDIT_PREFIXES) {
        check_cast_audit(rel_path, scan, &mut findings);
    }
    if is_crate_root(rel_path) && !scan.has_forbid_unsafe() {
        findings.push(Finding {
            file: rel_path.to_owned(),
            line: 1,
            col: 1,
            rule: "U1".to_owned(),
            message: "library crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
        });
    }

    invariants::check_atomic_persistence(rel_path, scan, config.everywhere, &mut findings);
    let (consult_sites, registry) = invariants::collect_chaos_sites(rel_path, scan, &mut findings);
    invariants::check_enum_annotations(rel_path, scan, &mut findings);

    // Strict-indexing findings feed allow-liveness even when strict mode
    // is off, so `allow(P1)` on an indexing site survives default runs.
    let mut advisory = Vec::new();
    if !config.strict_indexing && in_scope(LIBRARY_CRATE_PREFIXES) {
        let strict = RuleConfig {
            strict_indexing: true,
            ..config.clone()
        };
        let mut strict_findings = Vec::new();
        check_panic_policy(rel_path, scan, &strict, &mut strict_findings);
        advisory.extend(
            strict_findings
                .into_iter()
                .filter(|f| f.message.contains("strict mode")),
        );
    }

    FileAnalysis {
        findings,
        advisory,
        consult_sites,
        registry,
    }
}

/// Phase 2: turns one file's pre-suppression analysis into reported
/// findings and a suppression-debt count.
///
/// Applies allow suppressions, drops findings from unselected rules
/// (`A1` always reports), then audits every allow directive: ones whose
/// rule still fires at their target line are *live* (counted as debt);
/// the rest are *stale* and reported as S5. Rules in `stale_exempt`
/// (e.g. `S2` when the cross-file pass could not run) are treated as
/// live rather than falsely flagged.
pub fn finalize_file(
    rel_path: &str,
    scan: &Scan,
    config: &RuleConfig,
    analysis: FileAnalysis,
    stale_exempt: &[&str],
) -> FileOutcome {
    let FileAnalysis {
        findings: all,
        advisory,
        ..
    } = analysis;

    let fires_at = |rule: &str, line: usize| {
        all.iter()
            .chain(advisory.iter())
            .any(|f| f.rule == rule && f.line == line)
    };

    let mut reported: Vec<Finding> = all
        .iter()
        .filter(|f| f.rule == "A1" || config.runs(&f.rule))
        .filter(|f| f.rule == "A1" || !scan.is_allowed(&f.rule, f.line))
        .cloned()
        .collect();

    // Audit non-S5 allows first; `allow(S5)` directives are judged
    // against the stale findings this very pass generates.
    let mut live_allows = 0usize;
    let mut stale = Vec::new();
    for allow in scan.allows.iter().filter(|a| a.rule != "S5") {
        if fires_at(&allow.rule, allow.target_line) || stale_exempt.contains(&allow.rule.as_str()) {
            live_allows += 1;
        } else {
            stale.push(Finding {
                file: rel_path.to_owned(),
                line: allow.line,
                col: 1,
                rule: "S5".to_owned(),
                message: format!(
                    "stale `allow({0})`: {0} no longer fires at its target (line {1}) — \
                     delete the directive",
                    allow.rule, allow.target_line
                ),
            });
        }
    }
    for allow in scan.allows.iter().filter(|a| a.rule == "S5") {
        if stale.iter().any(|f| f.line == allow.target_line) {
            live_allows += 1;
        } else {
            stale.push(Finding {
                file: rel_path.to_owned(),
                line: allow.line,
                col: 1,
                rule: "S5".to_owned(),
                message: format!(
                    "stale `allow(S5)`: no stale-allow finding at its target (line {}) — \
                     delete the directive",
                    allow.target_line
                ),
            });
        }
    }
    if config.runs("S5") {
        reported.extend(stale.into_iter().filter(|f| !scan.is_allowed("S5", f.line)));
    }

    FileOutcome {
        findings: reported,
        live_allows,
    }
}

/// Runs the full per-file pipeline in single-file mode.
///
/// Without workspace context the S2 cross-file checks (registry
/// membership, dead sites) cannot run, so `allow(S2)` directives are
/// exempt from staleness here.
pub fn check_file(rel_path: &str, scan: &Scan, config: &RuleConfig) -> Vec<Finding> {
    let analysis = analyze_file(rel_path, scan, config);
    finalize_file(rel_path, scan, config, analysis, &["S2"]).findings
}

/// Whether `rel_path` is a library crate root (`crates/<name>/src/lib.rs`).
fn is_crate_root(rel_path: &str) -> bool {
    rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs")
}

/// Iterates non-test masked lines.
fn code_lines(scan: &Scan) -> impl Iterator<Item = (usize, &str)> {
    (1..=scan.line_count())
        .filter(|&n| !scan.is_test_line(n))
        .map(|n| (n, scan.masked_line(n)))
}

fn push(
    findings: &mut Vec<Finding>,
    file: &str,
    line: usize,
    col0: usize,
    rule: &str,
    msg: String,
) {
    findings.push(Finding {
        file: file.to_owned(),
        line,
        col: col0 + 1,
        rule: rule.to_owned(),
        message: msg,
    });
}

/// D1: wall-clock reads and hash-order iteration sources in cost crates.
fn check_determinism(file: &str, scan: &Scan, findings: &mut Vec<Finding>) {
    const PATTERNS: &[(&str, &str)] = &[
        (
            "std::time",
            "wall-clock dependency in a cost crate breaks checkpoint-resume reproducibility",
        ),
        (
            "Instant",
            "`Instant` in a cost crate: time must never influence costs or maps",
        ),
        (
            "SystemTime",
            "`SystemTime` in a cost crate: time must never influence costs or maps",
        ),
        (
            "HashMap",
            "`HashMap` iteration order is unstable; use `BTreeMap` or index-keyed `Vec` in cost crates",
        ),
        (
            "HashSet",
            "`HashSet` iteration order is unstable; use `BTreeSet` or a sorted `Vec` in cost crates",
        ),
    ];
    for (line_no, line) in code_lines(scan) {
        for (needle, why) in PATTERNS {
            // `std::time` subsumes `Instant`/`SystemTime` mentions on the
            // same line; report each distinct pattern at most once.
            if let Some(&col) = token_positions(line, needle).first() {
                if *needle != "std::time" && line.contains("std::time") {
                    continue;
                }
                push(
                    findings,
                    file,
                    line_no,
                    col,
                    "D1",
                    format!("`{needle}`: {why}"),
                );
            }
        }
    }
}

/// Turbofish element types D2 accepts without comment: integral machine
/// types plus the workspace's integer micron newtypes.
const INTEGRAL_TYPES: &[&str] = &[
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize", "Um",
    "UmArea",
];

/// D2: order-sensitive float accumulation.
///
/// A reduction call (`.sum(...)`, `.product(...)`, `.fold(...)`) is
/// flagged when float involvement is visible lexically: an `f64`/`f32`
/// turbofish, an `f64`/`f32` token earlier in the same statement, or a
/// float-literal fold seed. A bare `.sum()`/`.product()` with no type
/// evidence at all is also flagged — as ambiguous — so new reductions
/// must either declare an integral element type via turbofish or carry a
/// justified allow.
fn check_float_reductions(file: &str, scan: &Scan, findings: &mut Vec<Finding>) {
    let mut stmt = String::new();
    for (line_no, line) in code_lines(scan) {
        for method in [".sum(", ".sum::<", ".product(", ".product::<", ".fold("] {
            for col in token_positions(line, method) {
                if method == ".sum(" && line[col..].starts_with(".sum::<") {
                    continue; // handled by the turbofish pattern
                }
                if method == ".product(" && line[col..].starts_with(".product::<") {
                    continue;
                }
                let context = format!("{stmt}{}", &line[..col]);
                let rest = &line[col + method.len()..];
                if let Some(msg) = classify_reduction(method, rest, &context) {
                    push(findings, file, line_no, col, "D2", msg);
                }
            }
        }
        // Reset the statement context at statement/block boundaries; keep
        // the tail after the last boundary so `let n = x; let y: f64 =`
        // carries only the second statement forward.
        stmt.push_str(line);
        stmt.push(' ');
        if let Some(pos) = stmt.rfind([';', '{', '}']) {
            stmt = stmt[pos + 1..].to_owned();
        }
        if stmt.len() > 2048 {
            stmt.clear(); // degenerate formatting; drop stale context
        }
    }
}

/// Decides whether one reduction call is a D2 finding.
fn classify_reduction(method: &str, after_open: &str, context: &str) -> Option<String> {
    let context_float =
        !token_positions(context, "f64").is_empty() || !token_positions(context, "f32").is_empty();
    match method {
        ".sum::<" | ".product::<" => {
            let ty = after_open.split('>').next().unwrap_or("").trim();
            if ty == "f64" || ty == "f32" {
                Some(format!(
                    "float reduction `{}{}>()`: order-dependent accumulation in a cost crate",
                    method.trim_start_matches('.'),
                    ty
                ))
            } else if INTEGRAL_TYPES.contains(&ty) {
                None
            } else {
                Some(format!(
                    "reduction over non-integral type `{ty}`: audit for float accumulation"
                ))
            }
        }
        ".sum(" | ".product(" => {
            let context_integral = INTEGRAL_TYPES
                .iter()
                .any(|ty| !token_positions(context, ty).is_empty());
            if context_float {
                Some(format!(
                    "float reduction `{}...)` (f64/f32 in statement): order-dependent accumulation",
                    method
                ))
            } else if context_integral {
                // An explicit annotation like `let wire: i64 = ...sum();`
                // types the reduction as firmly as a turbofish would.
                None
            } else {
                Some(format!(
                    "untyped reduction `{})`: declare an integral element type via turbofish \
                     or justify with an allow",
                    method
                ))
            }
        }
        ".fold(" => {
            let seed = after_open.trim_start();
            let float_seed = seed
                .split([',', ')'])
                .next()
                .is_some_and(|s| s.trim().parse::<f64>().is_ok() && s.contains('.'));
            (context_float || float_seed)
                .then(|| "float `fold` accumulation: order-dependent in a cost crate".to_owned())
        }
        _ => None,
    }
}

/// P1: panicking constructs in non-test library code.
fn check_panic_policy(file: &str, scan: &Scan, config: &RuleConfig, findings: &mut Vec<Finding>) {
    const PATTERNS: &[(&str, &str)] = &[
        (
            ".unwrap(",
            "`unwrap` in library code: return a typed error or use a justified `expect`",
        ),
        (
            ".expect(",
            "`expect` in library code: justify the invariant with an allow or return a typed error",
        ),
        (
            "panic!",
            "`panic!` in library code: return a typed error instead",
        ),
        ("todo!", "`todo!` must not ship in library code"),
        (
            "unimplemented!",
            "`unimplemented!` must not ship in library code",
        ),
    ];
    for (line_no, line) in code_lines(scan) {
        for (needle, why) in PATTERNS {
            for col in token_positions(line, needle) {
                push(findings, file, line_no, col, "P1", (*why).to_owned());
            }
        }
        if config.strict_indexing {
            for col in index_expr_positions(line) {
                push(
                    findings,
                    file,
                    line_no,
                    col,
                    "P1",
                    "slice/array indexing can panic: prefer `get`/iterators (strict mode)"
                        .to_owned(),
                );
            }
        }
    }
}

/// Byte columns of `[` that open an index expression: preceded (modulo
/// spaces) by an identifier character, `)`, or `]`. Attribute (`#[`),
/// type (`: [T; N]`), and slice-pattern brackets are not preceded by
/// those, so they don't match.
fn index_expr_positions(line: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let mut j = i;
        while j > 0 && bytes[j - 1] == b' ' {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let prev = bytes[j - 1];
        if prev == b')' || prev == b']' || prev == b'_' || prev.is_ascii_alphanumeric() {
            out.push(i);
        }
    }
    out
}

/// Numeric types whose `as` casts C1 audits.
const NUMERIC_TYPES: &[&str] = &[
    "f32", "f64", "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128",
    "usize",
];

/// C1: `as` casts between numeric types in the fixed-point and binomial
/// paths. Every such cast is flagged — lossless ones should use
/// `From`/`TryFrom`, lossy ones need a justified allow documenting the
/// value range.
fn check_cast_audit(file: &str, scan: &Scan, findings: &mut Vec<Finding>) {
    for (line_no, line) in code_lines(scan) {
        for col in token_positions(line, "as") {
            let rest = line[col + 2..].trim_start();
            let target = rest
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("");
            if NUMERIC_TYPES.contains(&target) {
                push(
                    findings,
                    file,
                    line_no,
                    col,
                    "C1",
                    format!(
                        "`as {target}` in a precision-audited path: use `From`/`TryFrom` or \
                         justify the value range with an allow"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let scan = Scan::new(src);
        check_file(path, &scan, &RuleConfig::default())
    }

    const CORE: &str = "crates/core/src/sample.rs";

    #[test]
    fn d1_flags_time_and_hash_in_cost_crates_only() {
        let src = "use std::time::Instant;\nlet m = HashMap::new();\n";
        let hits = run(CORE, src);
        assert_eq!(hits.iter().filter(|f| f.rule == "D1").count(), 2);
        assert!(run("crates/geom/src/sample.rs", src)
            .iter()
            .all(|f| f.rule != "D1"));
    }

    #[test]
    fn d2_flags_float_turbofish_and_untyped_sums() {
        let hits = run(CORE, "let x = v.iter().sum::<f64>();\n");
        assert!(hits.iter().any(|f| f.rule == "D2"));
        let hits = run(
            CORE,
            "let x: f64 = v.iter()\n    .map(|v| v * 2.0)\n    .sum();\n",
        );
        assert!(hits.iter().any(|f| f.rule == "D2" && f.line == 3));
        let hits = run(CORE, "let x = v.iter().sum();\n");
        assert!(
            hits.iter().any(|f| f.rule == "D2"),
            "untyped sum is ambiguous"
        );
    }

    #[test]
    fn d2_accepts_integral_turbofish_and_nonfloat_folds() {
        assert!(run(CORE, "let x = v.iter().sum::<i64>();\n").is_empty());
        assert!(run(CORE, "let a = r.iter().map(Rect::area).sum::<UmArea>();\n").is_empty());
        assert!(run(
            CORE,
            "let p = v.iter().fold(Point::ORIGIN, |a, p| a + p);\n"
        )
        .is_empty());
    }

    #[test]
    fn d2_skips_the_num_allowlist() {
        assert!(run(
            "crates/core/src/num/simpson.rs",
            "let s = v.iter().sum::<f64>();\n"
        )
        .is_empty());
    }

    #[test]
    fn p1_flags_panics_outside_tests_only() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let hits = run(CORE, src);
        assert_eq!(hits.iter().filter(|f| f.rule == "P1").count(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn p1_strict_indexing_is_opt_in() {
        let src = "fn f(v: &[f64]) -> f64 { v[0] }\n";
        assert!(run(CORE, src).is_empty());
        let scan = Scan::new(src);
        let config = RuleConfig {
            strict_indexing: true,
            ..RuleConfig::default()
        };
        let hits = check_file(CORE, &scan, &config);
        assert!(hits.iter().any(|f| f.rule == "P1"));
    }

    #[test]
    fn c1_flags_numeric_casts_in_audited_paths_only() {
        let src = "let x = n as f64;\nlet label = kind as Label;\n";
        let hits = run("crates/core/src/fixed.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "C1").count(), 1);
        assert!(run(CORE, src).is_empty(), "outside the audited paths");
    }

    #[test]
    fn u1_requires_forbid_in_crate_roots() {
        let hits = run("crates/core/src/lib.rs", "pub mod grid;\n");
        assert!(hits.iter().any(|f| f.rule == "U1"));
        assert!(run(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod grid;\n"
        )
        .is_empty());
        assert!(run("crates/core/src/grid.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_only_that_rule_and_line() {
        let src = "fn f() { x.unwrap(); } // irgrid-lint: allow(P1): guarded by is_some above\nfn g() { y.unwrap(); }\n";
        let hits = run(CORE, src);
        assert_eq!(hits.iter().filter(|f| f.rule == "P1").count(), 1);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn malformed_allow_is_an_a1_finding_and_does_not_suppress() {
        let src = "fn f() { x.unwrap(); } // irgrid-lint: allow(P1)\n";
        let hits = run(CORE, src);
        assert!(hits.iter().any(|f| f.rule == "A1"));
        assert!(hits.iter().any(|f| f.rule == "P1"));
    }

    #[test]
    fn patterns_inside_strings_and_comments_are_invisible() {
        let src = "let msg = \"call .unwrap() or panic!\"; // HashMap here\n";
        assert!(run(CORE, src).is_empty());
    }

    #[test]
    fn everywhere_mode_reaches_out_of_scope_files() {
        let scan = Scan::new("use std::time::Instant;\n");
        let config = RuleConfig {
            everywhere: true,
            rules: vec!["D1".to_owned()],
            ..RuleConfig::default()
        };
        let hits = check_file("crates/bench/src/fleet.rs", &scan, &config);
        assert!(hits.iter().any(|f| f.rule == "D1"));
    }
}
