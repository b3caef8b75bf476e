//! Findings and their rendering: rustc-style text and CI-friendly JSON.

use std::fmt;
use std::path::PathBuf;

/// How severely a rule's findings are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Findings are not reported at all.
    Allow,
    /// Findings are reported but do not fail the run.
    Warn,
    /// Findings fail the run (non-zero exit).
    Deny,
}

impl Level {
    /// Parses a CLI level name.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "allow" => Some(Level::Allow),
            "warn" => Some(Level::Warn),
            "deny" => Some(Level::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Allow => "allow",
            Level::Warn => "warn",
            Level::Deny => "deny",
        })
    }
}

/// One rule violation at one source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule's id (`D1`, `M1`, …).
    pub rule: &'static str,
    /// The effective level the rule ran at.
    pub level: Level,
    /// Path of the offending file, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line of the violation.
    pub line: u32,
    /// 1-based column of the violation.
    pub col: u32,
    /// 1-based line of the character just past the violation.
    pub end_line: u32,
    /// 1-based column of the character just past the violation.
    pub end_col: u32,
    /// Verbatim source text of the anchor token: the file's text between
    /// (`line`, `col`) and (`end_line`, `end_col`), or empty for findings
    /// with no anchor token (S1).
    pub snippet: String,
    /// Human-readable description of what was found and what to do.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.level, self.rule, self.message)?;
        write!(
            f,
            "  --> {}:{}:{}",
            self.file.display(),
            self.line,
            self.col
        )
    }
}

/// The outcome of one full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, in walk order.
    pub findings: Vec<Finding>,
    /// Findings silenced by `// gmt-lint: allow(...)` comments.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether any deny-level finding survived (the run should fail).
    pub fn has_deny(&self) -> bool {
        self.findings.iter().any(|f| f.level == Level::Deny)
    }

    /// Renders the whole report as rustc-style text.
    pub fn render_text(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{f}\n");
        }
        let denies = self
            .findings
            .iter()
            .filter(|f| f.level == Level::Deny)
            .count();
        let _ = write!(
            out,
            "gmt-lint: {} finding(s) ({} deny, {} warn), {} suppressed, {} files scanned",
            self.findings.len(),
            denies,
            self.findings.len() - denies,
            self.suppressed,
            self.files_scanned,
        );
        out
    }

    /// Renders the whole report as a single JSON object for CI
    /// annotation. Emitted by hand — the linter has no dependencies —
    /// with all strings escaped per RFC 8259.
    pub fn render_json(&self) -> String {
        use fmt::Write;
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"level\":{},\"file\":{},\"line\":{},\"col\":{},\
                 \"end_line\":{},\"end_col\":{},\"snippet\":{},\"message\":{}}}",
                json_str(f.rule),
                json_str(&f.level.to_string()),
                json_str(&f.file.display().to_string()),
                f.line,
                f.col,
                f.end_line,
                f.end_col,
                json_str(&f.snippet),
                json_str(&f.message),
            );
        }
        let _ = write!(
            out,
            "],\"suppressed\":{},\"files_scanned\":{},\"ok\":{}}}",
            self.suppressed,
            self.files_scanned,
            !self.has_deny(),
        );
        out
    }
}

/// Escapes `s` as a JSON string literal, quotes included.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(level: Level) -> Finding {
        Finding {
            rule: "D1",
            level,
            file: PathBuf::from("crates/sim/src/time.rs"),
            line: 3,
            col: 7,
            end_line: 3,
            end_col: 14,
            snippet: "Instant".to_string(),
            message: "wall-clock `Instant` in virtual-time code".to_string(),
        }
    }

    #[test]
    fn text_render_is_rustc_shaped() {
        let text = finding(Level::Deny).to_string();
        assert!(text.starts_with("deny[D1]:"), "{text}");
        assert!(text.contains("--> crates/sim/src/time.rs:3:7"), "{text}");
    }

    #[test]
    fn json_render_escapes_and_reports_ok() {
        let mut report = Report {
            files_scanned: 2,
            ..Report::default()
        };
        let mut f = finding(Level::Warn);
        f.message = "quote \" and backslash \\".to_string();
        report.findings.push(f);
        let json = report.render_json();
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert!(
            json.contains("\"end_line\":3") && json.contains("\"end_col\":14"),
            "diagnostics carry a full region, not just a start point: {json}"
        );
        assert!(json.contains("\"ok\":true"), "warn-only run is ok: {json}");
        report.findings.push(finding(Level::Deny));
        assert!(report.render_json().contains("\"ok\":false"));
        assert!(report.has_deny());
    }

    #[test]
    fn level_parsing_round_trips() {
        for l in [Level::Allow, Level::Warn, Level::Deny] {
            assert_eq!(Level::parse(&l.to_string()), Some(l));
        }
        assert_eq!(Level::parse("fatal"), None);
    }
}
