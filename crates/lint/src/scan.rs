//! Comment- and string-aware source scanning.
//!
//! The scanner is the foundation every rule builds on. It produces a
//! *masked* copy of the source in which the interiors of comments,
//! string/char literals, and raw strings are replaced by spaces (newlines
//! are preserved so line/column arithmetic is unchanged). Rules then run
//! plain token matching over the masked text and can never be fooled by a
//! pattern that only occurs inside a literal or a comment.
//!
//! Alongside masking, one pass extracts:
//!
//! * the line spans covered by `#[cfg(test)]` items, so rules scoped to
//!   non-test code can skip them;
//! * `// irgrid-lint: allow(<RULE>): <reason>` suppression directives,
//!   including which source line each directive targets;
//! * malformed directives (unknown rule, missing reason), which the
//!   engine reports under the reserved rule ID `A1`.
//!
//! The scanner is deliberately *lexical*: it does not parse Rust. That
//! keeps the crate dependency-free (no `syn` under the offline vendored
//! constraint) at the cost of a small amount of imprecision, which the
//! rules compensate for with conservative matching plus justified
//! `allow` annotations.

/// A suppression directive parsed from a
/// `// irgrid-lint: allow(<RULE>): <reason>` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The rule ID being suppressed (e.g. `"D1"`).
    pub rule: String,
    /// The justification text after the closing `):`. Never empty — a
    /// directive without a reason is rejected as malformed.
    pub reason: String,
    /// 1-based line the comment sits on.
    pub line: usize,
    /// 1-based line the directive suppresses: the comment's own line for
    /// a trailing comment, or the next non-blank code line for a comment
    /// that stands alone on its line.
    pub target_line: usize,
}

/// A directive that looked like an `irgrid-lint:` comment but failed to
/// parse. Reported by the engine as rule `A1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedDirective {
    /// 1-based line of the broken comment.
    pub line: usize,
    /// What was wrong with it.
    pub problem: String,
}

/// Result of scanning one source file.
#[derive(Debug)]
pub struct Scan {
    /// The unmodified source bytes. Rules that must see literal or doc
    /// content (chaos-site strings, enum variant annotations) read this
    /// after locating code positions in the masked copy.
    raw: Vec<u8>,
    /// Source with comment/literal interiors blanked to spaces. Same
    /// byte length and newline positions as the input.
    masked: Vec<u8>,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
    /// Per line (index 0 = line 1): inside a `#[cfg(test)]` item.
    test_lines: Vec<bool>,
    /// Well-formed suppression directives.
    pub allows: Vec<AllowDirective>,
    /// Broken `irgrid-lint:` comments.
    pub malformed: Vec<MalformedDirective>,
}

/// Every enforceable rule ID, in report order: the IDs a directive may
/// suppress and a rule selection may name.
pub const KNOWN_RULES: &[&str] = &["D1", "D2", "P1", "C1", "U1", "S1", "S2", "S3", "S4", "S5"];

const DIRECTIVE_PREFIX: &str = "irgrid-lint:";

impl Scan {
    /// Scans `source`, masking literals and comments and extracting
    /// test spans and suppression directives.
    pub fn new(source: &str) -> Scan {
        let bytes = source.as_bytes();
        let mut masked = bytes.to_vec();
        // (comment byte offset, directive text) for post-processing once
        // line starts are known.
        let mut raw_directives: Vec<(usize, String)> = Vec::new();

        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    let start = i;
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != b'\n' {
                        j += 1;
                    }
                    let text = String::from_utf8_lossy(&bytes[i + 2..j]).into_owned();
                    let trimmed = text.trim_start_matches('/').trim_start_matches('!').trim();
                    if trimmed.starts_with(DIRECTIVE_PREFIX) {
                        raw_directives.push((start, trimmed.to_owned()));
                    }
                    mask(&mut masked, start, j);
                    i = j;
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    let start = i;
                    let mut depth = 1usize;
                    let mut j = i + 2;
                    while j < bytes.len() && depth > 0 {
                        if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                            depth += 1;
                            j += 2;
                        } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                            depth -= 1;
                            j += 2;
                        } else {
                            j += 1;
                        }
                    }
                    mask(&mut masked, start, j);
                    i = j;
                }
                b'r' | b'b' | b'c' if !is_ident_byte(bytes.get(i.wrapping_sub(1)).copied()) => {
                    if let Some(end) = raw_or_prefixed_string_end(bytes, i) {
                        mask(&mut masked, i, end);
                        i = end;
                    } else {
                        i += 1;
                    }
                }
                b'"' => {
                    let end = plain_string_end(bytes, i);
                    mask(&mut masked, i, end);
                    i = end;
                }
                b'\'' => {
                    if let Some(end) = char_literal_end(bytes, i) {
                        mask(&mut masked, i, end);
                        i = end;
                    } else {
                        // A lifetime or loop label: leave it.
                        i += 1;
                    }
                }
                _ => i += 1,
            }
        }

        let mut line_starts = vec![0usize];
        for (pos, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                line_starts.push(pos + 1);
            }
        }

        let test_lines = mark_test_lines(&masked, &line_starts);

        let mut scan = Scan {
            raw: bytes.to_vec(),
            masked,
            line_starts,
            test_lines,
            allows: Vec::new(),
            malformed: Vec::new(),
        };
        scan.resolve_directives(&raw_directives);
        scan
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }

    /// The masked text of 1-based `line` (no trailing newline).
    pub fn masked_line(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.masked.len(), |&next| next.saturating_sub(1));
        // Masking only ever replaces bytes with ASCII spaces, leaving any
        // other multi-byte sequences intact, so the slice stays UTF-8.
        std::str::from_utf8(&self.masked[start..end]).unwrap_or("")
    }

    /// The *unmasked* text of 1-based `line` (no trailing newline).
    /// Comment and literal interiors are intact — use this only after
    /// locating a position in the masked copy, never for matching.
    pub fn raw_line(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.raw.len(), |&next| next.saturating_sub(1));
        std::str::from_utf8(&self.raw[start..end]).unwrap_or("")
    }

    /// Whether 1-based `line` lies inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// Whether a well-formed directive suppresses `rule` on `line`.
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.target_line == line)
    }

    /// Whether the masked source contains the attribute
    /// `#![forbid(unsafe_code)]` (whitespace-tolerant).
    pub fn has_forbid_unsafe(&self) -> bool {
        let text = String::from_utf8_lossy(&self.masked);
        let squashed: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        squashed.contains("#![forbid(unsafe_code)]")
    }

    fn resolve_directives(&mut self, raw: &[(usize, String)]) {
        for (offset, text) in raw {
            let line = self.line_of(*offset);
            match parse_directive(text) {
                Ok((rule, reason)) => {
                    let standalone = self.blank_before(*offset, line);
                    let target_line = if standalone {
                        self.next_code_line(line)
                    } else {
                        line
                    };
                    self.allows.push(AllowDirective {
                        rule,
                        reason,
                        line,
                        target_line,
                    });
                }
                Err(problem) => self.malformed.push(MalformedDirective { line, problem }),
            }
        }
    }

    /// 1-based line containing byte `offset`.
    fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(idx) => idx + 1,
            Err(idx) => idx,
        }
    }

    /// Whether the masked bytes between the start of `line` and `offset`
    /// are all whitespace (i.e. the comment stands alone on its line).
    fn blank_before(&self, offset: usize, line: usize) -> bool {
        let start = self.line_starts[line - 1];
        self.masked[start..offset]
            .iter()
            .all(|b| b.is_ascii_whitespace())
    }

    /// First line after `line` with non-blank masked content, or `line`
    /// itself when the file ends first (the directive then targets
    /// nothing, which is harmless).
    fn next_code_line(&self, line: usize) -> usize {
        let mut candidate = line + 1;
        while candidate <= self.line_count() {
            if !self.masked_line(candidate).trim().is_empty() {
                return candidate;
            }
            candidate += 1;
        }
        line
    }
}

fn mask(masked: &mut [u8], from: usize, to: usize) {
    let to = to.min(masked.len());
    for b in masked.iter_mut().take(to).skip(from) {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

fn is_ident_byte(b: Option<u8>) -> bool {
    b.is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
}

/// Parses `irgrid-lint: allow(<RULE>): <reason>` (the caller has already
/// stripped the comment markers and verified the prefix).
fn parse_directive(text: &str) -> Result<(String, String), String> {
    let rest = text[DIRECTIVE_PREFIX.len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Err(format!(
            "expected `allow(<RULE>): <reason>` after `{DIRECTIVE_PREFIX}`"
        ));
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `allow(` in directive".to_owned());
    };
    let rule = rest[..close].trim().to_owned();
    if !KNOWN_RULES.contains(&rule.as_str()) {
        return Err(format!(
            "unknown rule `{rule}` (known: {})",
            KNOWN_RULES.join(", ")
        ));
    }
    let after = rest[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix(':') else {
        return Err("missing `: <reason>` after `allow(...)` — every allow needs a reason".into());
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("empty reason — every allow needs a non-empty justification".into());
    }
    Ok((rule, reason.to_owned()))
}

/// If `bytes[i]` begins a raw/byte/C string opener (`r"`, `r#"`, `br"`,
/// `b"`, `c"`, ...), returns the byte offset one past its closing quote.
fn raw_or_prefixed_string_end(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') || bytes.get(j) == Some(&b'c') {
        j += 1;
    }
    let raw = bytes.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while raw && bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    if !raw {
        // b"..." / c"..." use ordinary escape rules.
        return Some(plain_string_end(bytes, j));
    }
    // Raw string: ends at `"` followed by `hashes` hash marks; no escapes.
    let mut k = j + 1;
    while k < bytes.len() {
        if bytes[k] == b'"' && bytes[k + 1..].iter().take_while(|&&b| b == b'#').count() >= hashes {
            return Some(k + 1 + hashes);
        }
        k += 1;
    }
    Some(bytes.len())
}

/// One past the closing quote of a plain string starting at `bytes[i] == b'"'`.
fn plain_string_end(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// If `bytes[i] == b'\''` starts a char literal (not a lifetime), returns
/// one past its closing quote.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1)? {
        b'\\' => {
            // Escaped char: scan for the closing quote, starting at the
            // backslash so `'\\'` consumes the whole escape pair.
            let mut j = i + 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'\'' => return Some(j + 1),
                    b'\n' => return None,
                    _ => j += 1,
                }
            }
            None
        }
        &first => {
            // One UTF-8 character followed by a closing quote, else it is
            // a lifetime (`'a`) or loop label (`'outer:`).
            let width = utf8_width(first);
            let close = i + 1 + width;
            (bytes.get(close) == Some(&b'\'')).then_some(close + 1)
        }
    }
}

fn utf8_width(lead: u8) -> usize {
    match lead {
        b if b < 0x80 => 1,
        b if b & 0xE0 == 0xC0 => 2,
        b if b & 0xF0 == 0xE0 => 3,
        _ => 4,
    }
}

/// Marks every line covered by a `#[cfg(test)]` item.
///
/// For each whitespace-tolerant occurrence of `#[cfg(test)]` the item
/// extent is found lexically: skip any further attributes, then take
/// everything up to the first top-level `;` (item without a body, e.g. a
/// gated `use`) or through the matching `}` of the first top-level `{`.
fn mark_test_lines(masked: &[u8], line_starts: &[usize]) -> Vec<bool> {
    let mut test = vec![false; line_starts.len()];
    let text = masked;
    let mut i = 0;
    while i < text.len() {
        if text[i] == b'#' {
            if let Some(after_attr) = match_cfg_test(text, i) {
                if let Some(end) = item_end(text, after_attr) {
                    let from = line_index(line_starts, i);
                    let to = line_index(line_starts, end.saturating_sub(1));
                    for flag in test.iter_mut().take(to + 1).skip(from) {
                        *flag = true;
                    }
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    test
}

/// 0-based line index containing byte `offset`.
fn line_index(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(idx) => idx,
        Err(idx) => idx - 1,
    }
}

/// If `text[i..]` starts a `#[cfg(test)]` attribute (whitespace-tolerant),
/// returns the offset just past its closing `]`.
fn match_cfg_test(text: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    let mut expect = |token: &[u8]| -> bool {
        while j < text.len() && text[j].is_ascii_whitespace() {
            j += 1;
        }
        if text[j..].starts_with(token) {
            j += token.len();
            true
        } else {
            false
        }
    };
    for token in [b"#" as &[u8], b"[", b"cfg", b"(", b"test", b")", b"]"] {
        if !expect(token) {
            return None;
        }
    }
    Some(j)
}

/// Lexical extent of the item starting after an attribute at `start`:
/// skips further attributes, then returns one past the first top-level
/// `;` or the `}` matching the first top-level `{`.
fn item_end(text: &[u8], start: usize) -> Option<usize> {
    let mut i = start;
    // Skip stacked attributes.
    loop {
        while i < text.len() && text[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < text.len() && text[i] == b'#' {
            let mut j = i + 1;
            while j < text.len() && text[j].is_ascii_whitespace() {
                j += 1;
            }
            if text.get(j) == Some(&b'[') {
                let mut depth = 0usize;
                while j < text.len() {
                    match text[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        break;
    }
    // Find the item's extent.
    let mut paren = 0isize;
    let mut bracket = 0isize;
    while i < text.len() {
        match text[i] {
            b'(' => paren += 1,
            b')' => paren -= 1,
            b'[' => bracket += 1,
            b']' => bracket -= 1,
            b';' if paren == 0 && bracket == 0 => return Some(i + 1),
            b'{' if paren == 0 && bracket == 0 => {
                let mut depth = 0usize;
                while i < text.len() {
                    match text[i] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(i + 1);
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return Some(text.len());
            }
            _ => {}
        }
        i += 1;
    }
    Some(text.len())
}

/// Finds `needle` in `haystack` as a whole token: the bytes immediately
/// before and after the match must not be identifier characters. Returns
/// 0-based byte offsets of every occurrence.
pub fn token_positions(haystack: &str, needle: &str) -> Vec<usize> {
    let hay = haystack.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(needle) {
        let at = from + rel;
        let before = at.checked_sub(1).map(|p| hay[p]);
        let after = hay.get(at + needle.len()).copied();
        let first = needle.as_bytes().first().copied();
        let last = needle.as_bytes().last().copied();
        let before_ok = !is_ident_byte(before) || !is_ident_byte(first);
        let after_ok = !is_ident_byte(after) || !is_ident_byte(last);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_comments_but_keeps_code() {
        let scan = Scan::new("let x = 1; // uses unwrap() here\nlet y = 2;\n");
        assert_eq!(scan.masked_line(1).trim_end(), "let x = 1;");
        assert_eq!(scan.masked_line(2), "let y = 2;");
    }

    #[test]
    fn masks_nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b\n";
        let scan = Scan::new(src);
        let line = scan.masked_line(1);
        assert!(line.contains('a') && line.contains('b'));
        assert!(!line.contains("inner"));
        assert!(!line.contains("still"));
    }

    #[test]
    fn block_comment_spanning_lines_keeps_line_count() {
        let src = "fn f() {}\n/* one\ntwo\nthree */\nfn g() {}\n";
        let scan = Scan::new(src);
        assert!(scan.masked_line(2).trim().is_empty());
        assert!(scan.masked_line(3).trim().is_empty());
        assert_eq!(scan.masked_line(5), "fn g() {}");
    }

    #[test]
    fn masks_plain_strings_with_escapes() {
        let scan = Scan::new(r#"let s = "quote \" unwrap() inside"; let t = 1;"#);
        let line = scan.masked_line(1);
        assert!(!line.contains("unwrap"));
        assert!(line.contains("let t = 1;"));
    }

    #[test]
    fn masks_raw_strings_with_hashes() {
        let src = "let s = r##\"panic! \"# not done\"##; let u = 2;\n";
        let scan = Scan::new(src);
        let line = scan.masked_line(1);
        assert!(!line.contains("panic"));
        assert!(line.contains("let u = 2;"));
    }

    #[test]
    fn masks_byte_and_c_strings() {
        let scan = Scan::new("let s = b\"unwrap()\"; let c = c\"todo!\"; let k = 3;\n");
        let line = scan.masked_line(1);
        assert!(!line.contains("unwrap") && !line.contains("todo"));
        assert!(line.contains("let k = 3;"));
    }

    #[test]
    fn char_literals_masked_lifetimes_kept() {
        let scan = Scan::new("fn f<'a>(x: &'a str) -> char { '\\'' }\nlet q = 'y';\n");
        assert!(scan.masked_line(1).contains("'a"));
        assert!(!scan.masked_line(2).contains('y'));
    }

    #[test]
    fn ident_ending_in_r_is_not_raw_string() {
        let scan = Scan::new("let number = 4; for x in 0..number {}\n");
        assert!(scan.masked_line(1).contains("number"));
        assert!(scan.masked_line(1).contains("for x"));
    }

    #[test]
    fn cfg_test_module_span_tracked() {
        let src = "fn prod() { val.unwrap(); }\n\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n\nfn prod2() {}\n";
        let scan = Scan::new(src);
        assert!(!scan.is_test_line(1));
        assert!(scan.is_test_line(3));
        assert!(scan.is_test_line(4));
        assert!(scan.is_test_line(5));
        assert!(scan.is_test_line(6));
        assert!(!scan.is_test_line(8));
    }

    #[test]
    fn cfg_test_on_single_fn_with_stacked_attrs() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper(a: [u8; 2]) {\n    a[0];\n}\nfn prod() {}\n";
        let scan = Scan::new(src);
        assert!(scan.is_test_line(3));
        assert!(scan.is_test_line(4));
        assert!(scan.is_test_line(5));
        assert!(!scan.is_test_line(6));
    }

    #[test]
    fn cfg_test_on_use_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::time::Duration;\nfn prod() {}\n";
        let scan = Scan::new(src);
        assert!(scan.is_test_line(2));
        assert!(!scan.is_test_line(3));
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "let x = v.pop(); // irgrid-lint: allow(P1): pop is guarded above\n";
        let scan = Scan::new(src);
        assert_eq!(scan.allows.len(), 1);
        assert_eq!(scan.allows[0].rule, "P1");
        assert_eq!(scan.allows[0].target_line, 1);
        assert!(scan.is_allowed("P1", 1));
        assert!(!scan.is_allowed("D1", 1));
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let src = "fn f() {\n    // irgrid-lint: allow(D1): deadline check, not cost\n\n    let t = Instant::now();\n}\n";
        let scan = Scan::new(src);
        assert_eq!(scan.allows[0].target_line, 4);
        assert!(scan.is_allowed("D1", 4));
    }

    #[test]
    fn stacked_standalone_allows_share_a_target() {
        let src = "// irgrid-lint: allow(D1): measured, not cost\n// irgrid-lint: allow(P1): infallible here\nlet t = Instant::now().elapsed().as_secs_f64();\n";
        let scan = Scan::new(src);
        assert!(scan.is_allowed("D1", 3));
        assert!(scan.is_allowed("P1", 3));
    }

    #[test]
    fn malformed_allows_are_reported() {
        for (src, needle) in [
            ("// irgrid-lint: allow(P1)\nlet x = 1;\n", "missing"),
            (
                "// irgrid-lint: allow(P1):   \nlet x = 1;\n",
                "empty reason",
            ),
            (
                "// irgrid-lint: allow(Z9): nope\nlet x = 1;\n",
                "unknown rule",
            ),
            (
                "// irgrid-lint: disable(P1): nope\nlet x = 1;\n",
                "expected",
            ),
        ] {
            let scan = Scan::new(src);
            assert!(scan.allows.is_empty(), "{src}");
            assert_eq!(scan.malformed.len(), 1, "{src}");
            assert!(scan.malformed[0].problem.contains(needle), "{src}");
        }
    }

    #[test]
    fn token_positions_respect_boundaries() {
        assert_eq!(
            token_positions("HashMap HashMapX xHashMap", "HashMap"),
            vec![0]
        );
        assert_eq!(token_positions("a.sum()", ".sum("), vec![1]);
        assert!(token_positions("should_panic", "panic!").is_empty());
    }

    #[test]
    fn forbid_unsafe_detection() {
        assert!(Scan::new("#![forbid(unsafe_code)]\nfn main() {}\n").has_forbid_unsafe());
        assert!(Scan::new("#![forbid( unsafe_code )]\n").has_forbid_unsafe());
        assert!(!Scan::new("// #![forbid(unsafe_code)]\n").has_forbid_unsafe());
        assert!(!Scan::new("fn main() {}\n").has_forbid_unsafe());
    }
}
