//! The v2 invariant rule families (S1–S5).
//!
//! PRs 4–8 layered hard contracts on top of the original determinism
//! policies: every durable byte goes through one atomic writer, every
//! chaos consultation names a registered site, every protocol variant
//! declares its retry/idempotency story, float ordering goes through
//! `total_cmp`/`to_bits`, and suppressions never outlive the finding
//! they hide. These rules make those contracts machine-checked:
//!
//! | ID | Name                | What it catches |
//! |----|---------------------|-----------------|
//! | S1 | atomic-persistence  | raw `File::create`/`fs::write`/`fs::rename`/`OpenOptions` in persistence crates outside the blessed writer modules |
//! | S2 | chaos-site registry | consult sites not in `REGISTERED_SITES`, non-literal site strings, and registered-but-never-consulted dead sites |
//! | S3 | protocol-annotations| `ErrorKind` variants without a `[retry: ...]` classification, `RequestOp` variants without an `[idempotency: ...]` note |
//! | S4 | float-compare       | `f64`/`f32` `==`/`!=` and `.partial_cmp(` ordering outside `to_bits`-style helpers in the cost crates |
//! | S5 | suppression-debt    | `irgrid-lint: allow` directives whose rule no longer fires at their target line |
//!
//! S1, S3, and S4 are per-file. S2 needs the whole scanned set (the
//! registry lives in one file, consult sites in others) and runs as the
//! engine's cross-file pass. S5 runs at finalization, after every other
//! rule has produced its pre-suppression findings.

use crate::diag::Finding;
use crate::model::{str_slice_const, Model};
use crate::scan::{token_positions, Scan};

/// Where the chaos-site registry lives.
pub const REGISTRY_FILE: &str = "crates/serve/src/chaos.rs";

/// The `&[&str]` const naming every legitimate consult site.
pub const REGISTRY_CONST: &str = "REGISTERED_SITES";

/// Methods that consult the chaos injector with a site string.
const CONSULT_METHODS: &[&str] = &["consult", "decide"];

/// Modules allowed to pass a *variable* site through to the injector:
/// the injector itself and the store plumbing that wraps it. Literal
/// sites in these files are still checked against the registry.
const SITE_PLUMBING: &[&str] = &["crates/serve/src/chaos.rs", "crates/serve/src/store.rs"];

/// Crates whose durable state must go through an atomic
/// tmp+fsync+rename writer.
const S1_SCOPE: &[&str] = &[
    "crates/serve/src/",
    "crates/fleet/src/",
    "crates/anneal/src/",
    "crates/bench/src/",
];

/// The blessed writer modules: the only places in the S1 scope allowed
/// to touch the filesystem write API directly. Everything else routes
/// through them: `irgrid_anneal::write_atomic` in the checkpoint module
/// (which fleet manifests, session snapshots and `BENCH_*.json` reports
/// use too), the snapshot store's commit-log appends and torn-write
/// injection, and the fleet's JSONL telemetry mirror.
const S1_BLESSED: &[&str] = &[
    "crates/serve/src/store.rs",
    "crates/fleet/src/telemetry.rs",
    "crates/anneal/src/checkpoint.rs",
];

/// Raw write-path tokens S1 flags outside the blessed modules.
const S1_PATTERNS: &[(&str, &str)] = &[
    (
        "File::create",
        "raw file creation bypasses the atomic tmp+fsync+rename writer",
    ),
    (
        "fs::write",
        "raw `fs::write` is not atomic; a crash here can leave a torn file",
    ),
    (
        "fs::rename",
        "renames belong inside the blessed atomic writer, where the tmp is fsynced first",
    ),
    (
        "OpenOptions",
        "raw file handles bypass the atomic writer; route through the blessed module",
    ),
];

/// One enum whose variants must carry a structured doc annotation.
struct AnnotatedEnum {
    /// Workspace-relative file expected to define the enum.
    file: &'static str,
    /// The enum's name.
    enum_name: &'static str,
    /// Marker that must open the annotation, e.g. `[retry:`.
    marker: &'static str,
    /// Accepted classification keywords (first word after the colon);
    /// `None` accepts any non-empty note.
    values: Option<&'static [&'static str]>,
    /// What the annotation records, for messages.
    what: &'static str,
}

/// The protocol enums S3 audits. A variant added without its annotation
/// is a finding; so is the enum disappearing from the configured file
/// (which would otherwise silently disable the rule).
const ANNOTATED_ENUMS: &[AnnotatedEnum] = &[
    AnnotatedEnum {
        file: "crates/serve/src/protocol.rs",
        enum_name: "ErrorKind",
        marker: "[retry:",
        values: Some(&["always", "never", "conditional"]),
        what: "retryable classification",
    },
    AnnotatedEnum {
        file: "crates/serve/src/protocol.rs",
        enum_name: "RequestOp",
        marker: "[idempotency:",
        values: None,
        what: "idempotency note",
    },
];

/// A consult call site recorded for the S2 cross-file pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsultRecord {
    /// The literal site string, when the first argument was one.
    pub site: Option<String>,
    /// 1-based line of the call.
    pub line: usize,
    /// 1-based column of the call.
    pub col: usize,
}

/// The chaos-site registry parsed from [`REGISTRY_FILE`].
pub type SiteRegistry = Vec<(String, usize)>;

fn push(findings: &mut Vec<Finding>, file: &str, line: usize, col: usize, rule: &str, msg: String) {
    findings.push(Finding {
        file: file.to_owned(),
        line,
        col,
        rule: rule.to_owned(),
        message: msg,
    });
}

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// S1: raw filesystem write APIs outside the blessed writer modules.
pub fn check_atomic_persistence(
    file: &str,
    scan: &Scan,
    everywhere: bool,
    findings: &mut Vec<Finding>,
) {
    if !everywhere && !in_scope(file, S1_SCOPE) {
        return;
    }
    if S1_BLESSED.contains(&file) {
        return;
    }
    for line_no in 1..=scan.line_count() {
        if scan.is_test_line(line_no) {
            continue;
        }
        let line = scan.masked_line(line_no);
        for (needle, why) in S1_PATTERNS {
            if let Some(&col) = token_positions(line, needle).first() {
                push(
                    findings,
                    file,
                    line_no,
                    col + 1,
                    "S1",
                    format!("`{needle}`: {why}"),
                );
            }
        }
    }
}

/// S2 per-file half: records consult sites for the cross-file pass and
/// flags non-literal site arguments outside the plumbing modules.
pub fn collect_chaos_sites(
    file: &str,
    scan: &Scan,
    findings: &mut Vec<Finding>,
) -> (Vec<ConsultRecord>, Option<SiteRegistry>) {
    let model = Model::new(scan);
    let mut records = Vec::new();
    for method in CONSULT_METHODS {
        for site in model.call_sites(method) {
            if site.is_test {
                continue;
            }
            if site.literal_arg.is_none() {
                if !SITE_PLUMBING.contains(&file) {
                    push(
                        findings,
                        file,
                        site.line,
                        site.col,
                        "S2",
                        format!(
                            "`.{method}(` with a non-literal chaos site: sites must be string \
                             literals checked against `{REGISTRY_CONST}` (or live in the \
                             injector plumbing)"
                        ),
                    );
                }
                continue;
            }
            records.push(ConsultRecord {
                site: site.literal_arg,
                line: site.line,
                col: site.col,
            });
        }
    }
    let registry = if file == REGISTRY_FILE {
        str_slice_const(scan, REGISTRY_CONST)
    } else {
        None
    };
    (records, registry)
}

/// S2 cross-file half: checks every recorded literal site against the
/// registry and reports registered-but-never-consulted dead sites.
///
/// `complete` says the scan covered the full workspace (no path
/// filters); registry-completeness checks only run then, so a partial
/// `--paths` run never invents findings about files it did not read.
pub fn check_site_registry(
    files: &[(String, Vec<ConsultRecord>)],
    registry: Option<&(String, SiteRegistry)>,
    complete: bool,
) -> Vec<(String, Finding)> {
    let mut out = Vec::new();
    match registry {
        Some((reg_file, entries)) => {
            for (file, records) in files {
                for record in records {
                    let Some(site) = &record.site else { continue };
                    if !entries.iter().any(|(name, _)| name == site) {
                        out.push((
                            file.clone(),
                            Finding {
                                file: file.clone(),
                                line: record.line,
                                col: record.col,
                                rule: "S2".to_owned(),
                                message: format!(
                                    "chaos site \"{site}\" is not in `{REGISTRY_CONST}` \
                                     ({reg_file}): a typo here silently disables fault injection"
                                ),
                            },
                        ));
                    }
                }
            }
            if complete {
                for (site, line) in entries {
                    let consulted = files
                        .iter()
                        .any(|(_, recs)| recs.iter().any(|r| r.site.as_deref() == Some(site)));
                    if !consulted {
                        out.push((
                            reg_file.clone(),
                            Finding {
                                file: reg_file.clone(),
                                line: *line,
                                col: 1,
                                rule: "S2".to_owned(),
                                message: format!(
                                    "registered chaos site \"{site}\" is never consulted: \
                                     dead sites hide coverage gaps — delete it or wire it in"
                                ),
                            },
                        ));
                    }
                }
            }
        }
        None if complete => {
            for (file, records) in files {
                for record in records {
                    if record.site.is_some() {
                        out.push((
                            file.clone(),
                            Finding {
                                file: file.clone(),
                                line: record.line,
                                col: record.col,
                                rule: "S2".to_owned(),
                                message: format!(
                                    "chaos consult site found but no `{REGISTRY_CONST}` registry \
                                     in {REGISTRY_FILE}: the site table must be central"
                                ),
                            },
                        ));
                    }
                }
            }
        }
        None => {}
    }
    out
}

/// S3: protocol enums must annotate every variant.
pub fn check_enum_annotations(file: &str, scan: &Scan, findings: &mut Vec<Finding>) {
    let configured: Vec<&AnnotatedEnum> = ANNOTATED_ENUMS
        .iter()
        .filter(|cfg| cfg.file == file)
        .collect();
    if configured.is_empty() {
        return;
    }
    let enums = Model::new(scan).enums();
    for cfg in configured {
        let Some(item) = enums.iter().find(|e| e.name == cfg.enum_name && !e.is_test) else {
            push(
                findings,
                file,
                1,
                1,
                "S3",
                format!(
                    "expected `enum {}` in this file (S3 audits its {}); \
                     if it moved, update the lint's ANNOTATED_ENUMS table",
                    cfg.enum_name, cfg.what
                ),
            );
            continue;
        };
        for variant in &item.variants {
            let docs = variant.docs.join(" ");
            match annotation_value(&docs, cfg.marker) {
                None => push(
                    findings,
                    file,
                    variant.line,
                    1,
                    "S3",
                    format!(
                        "variant `{}::{}` has no `{} ...]` {} in its doc comment",
                        cfg.enum_name, variant.name, cfg.marker, cfg.what
                    ),
                ),
                Some(value) => {
                    let keyword = value.split_whitespace().next().unwrap_or("");
                    let ok = match cfg.values {
                        Some(accepted) => accepted.contains(&keyword),
                        None => !keyword.is_empty(),
                    };
                    if !ok {
                        push(
                            findings,
                            file,
                            variant.line,
                            1,
                            "S3",
                            format!(
                                "variant `{}::{}` has `{} {}]` but the {} must start with one \
                                 of: {}",
                                cfg.enum_name,
                                variant.name,
                                cfg.marker,
                                value,
                                cfg.what,
                                cfg.values.map_or_else(
                                    || "a non-empty note".to_owned(),
                                    |v| v.join(", ")
                                ),
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The text between `marker` and the closing `]`, if present.
fn annotation_value(docs: &str, marker: &str) -> Option<String> {
    let start = docs.find(marker)? + marker.len();
    let rest = &docs[start..];
    let end = rest.find(']')?;
    Some(rest[..end].trim().to_owned())
}

/// S4: lexically-visible float equality and `partial_cmp` ordering.
///
/// Flags `.partial_cmp(` calls (the `fn partial_cmp` definition line of
/// a `PartialOrd` impl delegating to `cmp` is exempt) and `==`/`!=`
/// whose adjacent operand shows float evidence — a float literal or an
/// `f64`/`f32` path segment. Lines using the sanctioned `to_bits`
/// comparison idiom are exempt.
pub fn check_float_compare(file: &str, scan: &Scan, findings: &mut Vec<Finding>) {
    for line_no in 1..=scan.line_count() {
        if scan.is_test_line(line_no) {
            continue;
        }
        let line = scan.masked_line(line_no);
        if line.contains("to_bits") {
            continue;
        }
        for col in token_positions(line, ".partial_cmp(") {
            if line.contains("fn partial_cmp") {
                continue;
            }
            push(
                findings,
                file,
                line_no,
                col + 1,
                "S4",
                "`partial_cmp` ordering on floats is non-total: use `total_cmp` (or compare \
                 `to_bits` for equality)"
                    .to_owned(),
            );
        }
        for (col, op) in float_eq_positions(line) {
            push(
                findings,
                file,
                line_no,
                col + 1,
                "S4",
                format!(
                    "float `{op}` comparison: bit-identity contracts compare `to_bits()`, \
                     approximate checks belong behind a named tolerance helper"
                ),
            );
        }
    }
}

/// Byte columns of `==`/`!=` whose neighbor operand is lexically a float.
fn float_eq_positions(line: &str) -> Vec<(usize, &'static str)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let op = match (bytes[i], bytes[i + 1]) {
            (b'=', b'=') => "==",
            (b'!', b'=') => "!=",
            _ => {
                i += 1;
                continue;
            }
        };
        // Not part of a compound operator (`<=`, `>=`, `+=`, `!=...`).
        let prev = i.checked_sub(1).map(|p| bytes[p]);
        let compound = matches!(
            prev,
            Some(b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^')
        ) || bytes.get(i + 2) == Some(&b'=');
        if !compound
            && (operand_before(line, i).is_some_and(|t| is_float_token(&t))
                || operand_after(line, i + 2).is_some_and(|t| is_float_token(&t)))
        {
            out.push((i, op));
        }
        i += 2;
    }
    out
}

/// The path/literal token ending just before byte `at` (spaces skipped).
fn operand_before(line: &str, at: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut end = at;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_path_byte(bytes[start - 1]) {
        start -= 1;
    }
    (start < end).then(|| line[start..end].to_owned())
}

/// The path/literal token starting at or after byte `from` (spaces and a
/// unary `-` skipped).
fn operand_after(line: &str, from: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut start = from;
    while start < bytes.len() && (bytes[start] == b' ' || bytes[start] == b'-') {
        start += 1;
    }
    let mut end = start;
    while end < bytes.len() && is_path_byte(bytes[end]) {
        end += 1;
    }
    (start < end).then(|| line[start..end].to_owned())
}

fn is_path_byte(b: u8) -> bool {
    b == b'_' || b == b'.' || b == b':' || b.is_ascii_alphanumeric()
}

/// Whether a token is lexically a float: a decimal literal, a float-
/// suffixed literal, or a path containing an `f64`/`f32` segment.
fn is_float_token(token: &str) -> bool {
    let first = token.as_bytes().first().copied().unwrap_or(0);
    if first.is_ascii_digit() {
        return !token.starts_with("0x")
            && (token.contains('.') || token.ends_with("f64") || token.ends_with("f32"));
    }
    token
        .split("::")
        .flat_map(|seg| seg.split('.'))
        .any(|seg| seg == "f64" || seg == "f32")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for<F: Fn(&str, &Scan, &mut Vec<Finding>)>(
        file: &str,
        src: &str,
        rule: F,
    ) -> Vec<Finding> {
        let scan = Scan::new(src);
        let mut findings = Vec::new();
        rule(file, &scan, &mut findings);
        findings
    }

    #[test]
    fn s1_flags_raw_writes_outside_blessed_modules_only() {
        let src = "use std::fs;\npub fn save(p: &std::path::Path) {\n    let _ = fs::write(p, b\"x\");\n    let _ = fs::File::create(p);\n}\n";
        let scan = Scan::new(src);
        let mut findings = Vec::new();
        check_atomic_persistence("crates/serve/src/session.rs", &scan, false, &mut findings);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "S1"));

        let mut blessed = Vec::new();
        check_atomic_persistence("crates/serve/src/store.rs", &scan, false, &mut blessed);
        assert!(blessed.is_empty(), "the blessed writer module is exempt");

        let mut out_of_scope = Vec::new();
        check_atomic_persistence("crates/netlist/src/io.rs", &scan, false, &mut out_of_scope);
        assert!(out_of_scope.is_empty(), "netlist is outside the S1 scope");

        let mut everywhere = Vec::new();
        check_atomic_persistence("crates/netlist/src/io.rs", &scan, true, &mut everywhere);
        assert_eq!(everywhere.len(), 2, "--everywhere reaches it");
    }

    #[test]
    fn s1_skips_test_code() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::fs::write(\"x\", \"y\"); }\n}\n";
        let scan = Scan::new(src);
        let mut findings = Vec::new();
        check_atomic_persistence("crates/fleet/src/pool.rs", &scan, false, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn s2_records_literals_and_flags_variable_sites() {
        let src = "fn f(s: &Store, site: &str) {\n    s.consult(\"delta.commit\", \"k\", 0);\n    s.consult(site, \"k\", 1);\n}\n";
        let scan = Scan::new(src);
        let mut findings = Vec::new();
        let (records, registry) =
            collect_chaos_sites("crates/serve/src/manager.rs", &scan, &mut findings);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].site.as_deref(), Some("delta.commit"));
        assert!(registry.is_none());
        assert_eq!(
            findings.len(),
            1,
            "variable site outside plumbing: {findings:?}"
        );
        assert_eq!(findings[0].rule, "S2");

        let mut plumbing_findings = Vec::new();
        let (_, _) =
            collect_chaos_sites("crates/serve/src/store.rs", &scan, &mut plumbing_findings);
        assert!(
            plumbing_findings.is_empty(),
            "plumbing may pass sites through"
        );
    }

    #[test]
    fn s2_cross_file_catches_typos_and_dead_sites() {
        let registry = (
            REGISTRY_FILE.to_owned(),
            vec![
                ("persist.session".to_owned(), 10),
                ("dead.site".to_owned(), 11),
            ],
        );
        let files = vec![(
            "crates/serve/src/manager.rs".to_owned(),
            vec![
                ConsultRecord {
                    site: Some("persist.session".to_owned()),
                    line: 5,
                    col: 9,
                },
                ConsultRecord {
                    site: Some("persist.sessoin".to_owned()),
                    line: 7,
                    col: 9,
                },
            ],
        )];
        let findings = check_site_registry(&files, Some(&registry), true);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|(_, f)| f.message.contains("persist.sessoin") && f.line == 7));
        assert!(findings.iter().any(|(file, f)| file == REGISTRY_FILE
            && f.message.contains("dead.site")
            && f.line == 11));

        let partial = check_site_registry(&files, Some(&registry), false);
        assert_eq!(partial.len(), 1, "dead-site check needs a complete scan");
    }

    #[test]
    fn s2_missing_registry_is_reported_on_complete_scans() {
        let files = vec![(
            "crates/serve/src/manager.rs".to_owned(),
            vec![ConsultRecord {
                site: Some("persist.session".to_owned()),
                line: 3,
                col: 1,
            }],
        )];
        assert_eq!(check_site_registry(&files, None, true).len(), 1);
        assert!(check_site_registry(&files, None, false).is_empty());
    }

    #[test]
    fn s3_requires_markers_and_vocabulary() {
        let src = "\
pub enum ErrorKind {
    /// Queue full. [retry: always]
    Backpressure,
    /// No classification here.
    Unclassified,
    /// Bad keyword. [retry: maybe]
    BadKeyword,
}
";
        let findings = findings_for("crates/serve/src/protocol.rs", src, check_enum_annotations);
        // `Unclassified` (missing), `BadKeyword` (vocabulary), plus the
        // whole missing `RequestOp` enum.
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("Unclassified")));
        assert!(findings.iter().any(|f| f.message.contains("BadKeyword")));
        assert!(findings.iter().any(|f| f.message.contains("RequestOp")));
    }

    #[test]
    fn s3_only_audits_configured_files() {
        let src = "pub enum ErrorKind { Unmarked }\n";
        assert!(findings_for("crates/core/src/lib.rs", src, check_enum_annotations).is_empty());
    }

    #[test]
    fn s4_flags_float_eq_and_partial_cmp_but_not_to_bits() {
        let cases: &[(&str, usize)] = &[
            ("if x == 0.0 { y() }\n", 1),
            ("if 1.5 != threshold { y() }\n", 1),
            ("if cost == f64::INFINITY { y() }\n", 1),
            ("v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n", 1),
            ("if a.to_bits() == b.to_bits() { y() }\n", 0),
            ("if count == 0 { y() }\n", 0),
            ("if i % 2 == 1 { w = 4.0; }\n", 0),
            ("let ok = n <= 3;\n", 0),
            ("impl PartialOrd for E { fn partial_cmp(&self, o: &E) -> Option<O> { Some(self.cmp(o)) } }\n", 0),
            ("a.total_cmp(&b);\n", 0),
        ];
        for (src, expect) in cases {
            let findings = findings_for("crates/core/src/x.rs", src, check_float_compare);
            assert_eq!(findings.len(), *expect, "case {src:?}: {findings:?}");
        }
    }

    #[test]
    fn s4_skips_test_extents() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { assert!(x == 0.5); }\n}\n";
        assert!(findings_for("crates/core/src/x.rs", src, check_float_compare).is_empty());
    }
}
