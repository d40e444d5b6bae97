//! Workspace walking, file classification and directive parsing.
//!
//! Classification drives which passes run where:
//!
//! * **vendor / target / fixtures / benchmark** directories are never
//!   scanned (`benchmark/` is a separate cargo workspace, the timing
//!   harness);
//! * **test files** (any path with a `tests/` or `benches/` component)
//!   are lexed but no lint pass runs on them;
//! * **sink files** (CLI binaries under `bin/`, `src/main.rs`, and
//!   `examples/`) are exempt from the determinism lints and the panic
//!   budget — they are where wall-clock, env reads and `unwrap` are
//!   legitimate — but still checked for metric names, format constants
//!   and `unsafe`;
//! * `#[cfg(test)]` items inside library files are skipped like test
//!   files.
//!
//! Directives are line comments of the form:
//!
//! ```text
//! // fnpr-lint: allow(<lint>, "<reason>")
//! // fnpr-lint: metric(<counter|gauge|histogram>, "<name>")
//! ```
//!
//! A standalone directive applies to the next code line; an inline one to
//! its own line. The reason string is mandatory — an allow without one is
//! itself a finding (`allow_syntax`) and suppresses nothing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Lexed};
use crate::report::{Finding, ALLOW_SYNTAX, LINTS};

/// Directory names that are never descended into.
const SKIP_DIRS: &[&str] = &[
    "vendor",
    "target",
    "fixtures",
    "benchmark",
    ".git",
    ".github",
];

/// One classified, lexed workspace source file.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Owning crate: the directory name under `crates/`, or `fnpr` for
    /// the root package.
    pub crate_name: String,
    /// Lives under a `tests/` or `benches/` directory.
    pub is_test: bool,
    /// CLI/report sink: `bin/`, `src/main.rs` or `examples/`.
    pub is_sink: bool,
    /// The token/comment stream.
    pub lexed: Lexed,
    /// Token-index ranges covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// Valid `allow` directives: line → lint ids suppressed there.
    pub allows: BTreeMap<u32, Vec<String>>,
    /// `metric` declarations: line → (instrument type, name).
    pub metric_decls: BTreeMap<u32, Vec<(String, String)>>,
    /// Malformed directives (line, message) — reported as `allow_syntax`.
    pub bad_directives: Vec<(u32, String)>,
}

impl SourceFile {
    /// Whether `lint` is suppressed on `line` by a valid allow directive.
    #[must_use]
    pub fn allowed(&self, line: u32, lint: &str) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|lints| lints.iter().any(|l| l == lint))
    }

    /// Whether token `idx` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test_region(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    /// Emits the `allow_syntax` findings for this file's malformed
    /// directives.
    pub fn report_bad_directives(&self, findings: &mut Vec<Finding>) {
        for (line, message) in &self.bad_directives {
            findings.push(Finding::new(
                ALLOW_SYNTAX,
                &self.rel_path,
                *line,
                message.clone(),
            ));
        }
    }
}

/// Recursively collects every non-vendor `.rs` file under `root`, sorted
/// by path so scan output is deterministic regardless of directory
/// enumeration order.
///
/// # Errors
///
/// Propagates filesystem errors from the walk.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads and classifies one file. `root` anchors the relative path.
///
/// # Errors
///
/// Propagates the read error.
pub fn load_file(root: &Path, path: &Path) -> std::io::Result<SourceFile> {
    let src = std::fs::read_to_string(path)?;
    let rel_path = path
        .strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/");
    Ok(analyze_source(&rel_path, &src))
}

/// Classifies and lexes `src` as the file at `rel_path` (exposed for the
/// fixture tests, which build files in memory).
#[must_use]
pub fn analyze_source(rel_path: &str, src: &str) -> SourceFile {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else {
        "fnpr".to_string()
    };
    let is_test = parts.iter().any(|p| *p == "tests" || *p == "benches");
    let is_sink =
        parts.iter().any(|p| *p == "bin" || *p == "examples") || rel_path.ends_with("src/main.rs");
    let lexed = lex(src);
    let test_ranges = find_test_ranges(&lexed);
    let mut file = SourceFile {
        rel_path: rel_path.to_string(),
        crate_name,
        is_test,
        is_sink,
        lexed,
        test_ranges,
        allows: BTreeMap::new(),
        metric_decls: BTreeMap::new(),
        bad_directives: Vec::new(),
    };
    parse_directives(&mut file);
    file
}

/// Finds token ranges of `#[cfg(test)]` items: the attribute, any
/// stacked attributes after it, an optional visibility, then either a
/// braced item (skip to the matching `}`) or a `;`-terminated one.
fn find_test_ranges(lexed: &Lexed) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < lexed.tokens.len() {
        if lexed.punct(i) == Some('#') && lexed.punct(i + 1) == Some('[') {
            let close = match matching_bracket(lexed, i + 1) {
                Some(c) => c,
                None => break,
            };
            if is_cfg_test_attr(lexed, i + 2, close) {
                let start = i;
                let mut j = close + 1;
                // Skip stacked attributes on the same item.
                while lexed.punct(j) == Some('#') && lexed.punct(j + 1) == Some('[') {
                    match matching_bracket(lexed, j + 1) {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                // Walk to the item body: first `{` (braced item) or `;`.
                let mut end = lexed.tokens.len().saturating_sub(1);
                let mut k = j;
                while k < lexed.tokens.len() {
                    match lexed.punct(k) {
                        Some('{') => {
                            end = lexed.matching_brace(k);
                            break;
                        }
                        Some(';') => {
                            end = k;
                            break;
                        }
                        _ => k += 1,
                    }
                }
                ranges.push((start, end));
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Whether the attribute tokens in `(start..end)` spell exactly
/// `cfg(test…` — `cfg(not(test))` and friends do not count.
fn is_cfg_test_attr(lexed: &Lexed, start: usize, end: usize) -> bool {
    end > start + 2
        && lexed.ident(start) == Some("cfg")
        && lexed.punct(start + 1) == Some('(')
        && lexed.ident(start + 2) == Some("test")
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(lexed: &Lexed, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for idx in open..lexed.tokens.len() {
        match lexed.punct(idx) {
            Some('[') => depth += 1,
            Some(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(idx);
                }
            }
            _ => {}
        }
    }
    None
}

/// The line a standalone comment at `comment_line` attaches to: the first
/// code token strictly below it (falling back to the next line).
fn attach_line(lexed: &Lexed, comment_line: u32) -> u32 {
    lexed
        .tokens
        .iter()
        .map(|t| t.line)
        .find(|&l| l > comment_line)
        .unwrap_or(comment_line + 1)
}

const DIRECTIVE_MARKER: &str = "fnpr-lint:";

fn parse_directives(file: &mut SourceFile) {
    for comment in &file.lexed.comments {
        let text = comment.text.trim_start_matches('/').trim();
        let Some(rest) = text.strip_prefix(DIRECTIVE_MARKER) else {
            continue;
        };
        let rest = rest.trim();
        let target = if comment.standalone {
            attach_line(&file.lexed, comment.line)
        } else {
            comment.line
        };
        if let Some(args) = directive_args(rest, "allow") {
            match parse_two_args(&args) {
                Some((lint, reason)) if LINTS.contains(&lint.as_str()) && !reason.is_empty() => {
                    file.allows.entry(target).or_default().push(lint);
                }
                Some((lint, _)) if !LINTS.contains(&lint.as_str()) => {
                    file.bad_directives
                        .push((comment.line, format!("allow names unknown lint `{lint}`")));
                }
                _ => {
                    file.bad_directives.push((
                        comment.line,
                        "allow requires a non-empty quoted reason: \
                         `// fnpr-lint: allow(<lint>, \"why\")`"
                            .to_string(),
                    ));
                }
            }
        } else if let Some(args) = directive_args(rest, "metric") {
            match parse_two_args(&args) {
                Some((kind, name))
                    if matches!(kind.as_str(), "counter" | "gauge" | "histogram")
                        && !name.is_empty() =>
                {
                    file.metric_decls
                        .entry(target)
                        .or_default()
                        .push((kind, name));
                }
                _ => {
                    file.bad_directives.push((
                        comment.line,
                        "metric declaration must be \
                         `// fnpr-lint: metric(<counter|gauge|histogram>, \"name\")`"
                            .to_string(),
                    ));
                }
            }
        } else {
            file.bad_directives.push((
                comment.line,
                format!("unknown fnpr-lint directive `{rest}`"),
            ));
        }
    }
}

/// Extracts the `…` of `<head>(…)` if `text` starts with `head(` and has
/// a closing parenthesis.
fn directive_args(text: &str, head: &str) -> Option<String> {
    let rest = text.strip_prefix(head)?.trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.rfind(')')?;
    Some(inner[..close].to_string())
}

/// Parses `ident, "string"` — the shared shape of both directives. The
/// second element is the unquoted string (empty when missing/unquoted).
fn parse_two_args(args: &str) -> Option<(String, String)> {
    let (first, second) = match args.split_once(',') {
        Some((a, b)) => (a.trim(), b.trim()),
        None => (args.trim(), ""),
    };
    if first.is_empty() {
        return None;
    }
    let unquoted = second
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or("");
    Some((first.to_string(), unquoted.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        let f = analyze_source("crates/campaign/src/exec.rs", "");
        assert_eq!(f.crate_name, "campaign");
        assert!(!f.is_test && !f.is_sink);
        let f = analyze_source("crates/campaign/tests/fault.rs", "");
        assert!(f.is_test);
        let f = analyze_source("crates/campaign/src/bin/fnpr_campaign.rs", "");
        assert!(f.is_sink);
        let f = analyze_source("crates/lint/src/main.rs", "");
        assert!(f.is_sink);
        let f = analyze_source("src/lib.rs", "");
        assert_eq!(f.crate_name, "fnpr");
        let f = analyze_source("examples/quickstart.rs", "");
        assert!(f.is_sink);
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        let helper = f
            .lexed
            .tokens
            .iter()
            .position(|t| t.tok == crate::lexer::Tok::Ident("helper".into()))
            .unwrap();
        let after = f
            .lexed
            .tokens
            .iter()
            .position(|t| t.tok == crate::lexer::Tok::Ident("after".into()))
            .unwrap();
        assert!(f.in_test_region(helper));
        assert!(!f.in_test_region(after));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live() { body(); }\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert!(f.test_ranges.is_empty());
    }

    #[test]
    fn visibility_prefixed_test_mod() {
        let src = "#[cfg(test)]\npub(crate) mod testsync {\n    fn t() {}\n}\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert_eq!(f.test_ranges.len(), 1);
    }

    #[test]
    fn standalone_allow_attaches_to_next_line() {
        let src = "// fnpr-lint: allow(wall_clock, \"telemetry only\")\nlet t = now();\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert!(f.allowed(2, "wall_clock"));
        assert!(!f.allowed(1, "wall_clock"));
    }

    #[test]
    fn inline_allow_applies_to_its_own_line() {
        let src = "let t = now(); // fnpr-lint: allow(wall_clock, \"meter\")\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert!(f.allowed(1, "wall_clock"));
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "// fnpr-lint: allow(wall_clock)\nlet t = now();\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert!(!f.allowed(2, "wall_clock"));
        assert_eq!(f.bad_directives.len(), 1);
    }

    #[test]
    fn allow_unknown_lint_is_rejected() {
        let src = "// fnpr-lint: allow(made_up, \"reason\")\nx();\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert!(f.allows.is_empty());
        assert!(f.bad_directives[0].1.contains("made_up"));
    }

    #[test]
    fn metric_declaration_parses() {
        let src = "// fnpr-lint: metric(histogram, \"campaign.point.micros.{}\")\nh(&name);\n";
        let f = analyze_source("crates/x/src/lib.rs", src);
        let decls = f.metric_decls.get(&2).unwrap();
        assert_eq!(
            decls[0],
            ("histogram".into(), "campaign.point.micros.{}".into())
        );
    }
}
