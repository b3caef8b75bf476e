//! Findings and their rendering: rustc-style text and CI-friendly JSON.

use std::fmt;
use std::path::PathBuf;

use crate::lexer::Token;
use crate::rules::FileContext;

/// One rule violation at one source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule's id (`U1`, `A1`).
    pub rule: &'static str,
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
    /// (`line`, `col`) and (`end_line`, `end_col`).
    pub snippet: String,
    /// Human-readable description of what was found and what to do.
    pub message: String,
}

impl Finding {
    /// A finding of `rule` in the file `ctx` names, spanning the token
    /// `at`.
    pub(crate) fn at(
        ctx: FileContext<'_>,
        rule: &'static str,
        at: &Token,
        message: String,
    ) -> Finding {
        let (end_line, end_col) = at.end_pos();
        Finding {
            rule,
            file: ctx.rel_path.to_path_buf(),
            line: at.line,
            col: at.col,
            end_line,
            end_col,
            snippet: at.text.clone(),
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "deny[{}]: {}", self.rule, self.message)?;
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
    /// Every finding, in report order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run found nothing. Every rule is deny-level, so any
    /// finding fails the run.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the whole report as rustc-style text.
    pub fn render_text(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{f}\n");
        }
        let _ = write!(
            out,
            "gmt-lint: {} finding(s), {} files scanned",
            self.findings.len(),
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
                "{{\"rule\":{},\"level\":\"deny\",\"file\":{},\"line\":{},\"col\":{},\
                 \"end_line\":{},\"end_col\":{},\"snippet\":{},\"message\":{}}}",
                json_str(f.rule),
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
            "],\"files_scanned\":{},\"ok\":{}}}",
            self.files_scanned,
            self.is_clean(),
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

    fn finding() -> Finding {
        Finding {
            rule: "U1",
            file: PathBuf::from("crates/sim/src/trace.rs"),
            line: 3,
            col: 7,
            end_line: 3,
            end_col: 14,
            snippet: "latency".to_string(),
            message: "`+=` mixes unit `ns` with unit `us`".to_string(),
        }
    }

    #[test]
    fn text_render_is_rustc_shaped() {
        let text = finding().to_string();
        assert!(text.starts_with("deny[U1]:"), "{text}");
        assert!(text.contains("--> crates/sim/src/trace.rs:3:7"), "{text}");
    }

    #[test]
    fn json_render_escapes_and_reports_ok() {
        let mut report = Report {
            files_scanned: 2,
            ..Report::default()
        };
        assert!(report.render_json().contains("\"ok\":true"));
        let mut f = finding();
        f.message = "quote \" and backslash \\".to_string();
        report.findings.push(f);
        let json = report.render_json();
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert!(
            json.contains("\"end_line\":3") && json.contains("\"end_col\":14"),
            "diagnostics carry a full region, not just a start point: {json}"
        );
        assert!(json.contains("\"ok\":false"), "any finding fails: {json}");
        assert!(!report.is_clean());
    }
}
