//! The lint report: one `farmer_obs::Json` value, rendered by the
//! workspace's one JSON writer (insertion-ordered objects, one escaping
//! rule, schema version pinned at the top).

use crate::rules::{Finding, RULES};
use farmer_obs::Json;

/// Bumped whenever the report shape changes; CI pins on it.
pub const LINT_SCHEMA_VERSION: u32 = 1;

/// Render the full report: schema version, rule table, per-file finding
/// counts, and the findings themselves in (file, line, rule) order.
pub fn report(findings: &[Finding], files_scanned: usize) -> String {
    let rules = RULES.iter().map(|r| {
        Json::obj()
            .field("id", Json::str(r.id))
            .field("key", Json::str(r.key))
            .field("summary", Json::str(r.summary))
    });
    let found = findings.iter().map(|f| {
        Json::obj()
            .field("rule", Json::str(f.rule))
            .field("file", Json::str(&f.file))
            .field("line", Json::UInt(f.line as u64))
            .field("message", Json::str(&f.message))
    });
    let mut out = Json::obj()
        .field("schema_version", Json::UInt(u64::from(LINT_SCHEMA_VERSION)))
        .field("files_scanned", Json::UInt(files_scanned as u64))
        .field("finding_count", Json::UInt(findings.len() as u64))
        .field("rules", Json::Arr(rules.collect()))
        .field("findings", Json::Arr(found.collect()))
        .render();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(message: &str) -> Finding {
        Finding {
            rule: "R3",
            key: "panic",
            file: "a/b.rs".into(),
            line: 7,
            message: message.into(),
        }
    }

    #[test]
    fn empty_report_is_valid_shape() {
        let r = report(&[], 42);
        assert!(r.contains("\"schema_version\": 1"));
        assert!(r.contains("\"files_scanned\": 42"));
        assert!(r.contains("\"finding_count\": 0"));
        assert!(r.ends_with("}\n"));
    }

    #[test]
    fn findings_render_with_escapes() {
        let findings = [
            finding("quote \" and\nnewline"),
            finding("control \u{1} and back\\slash"),
        ];
        let r = report(&findings, 1);
        // The keys, in the order the hand-written emitter had them.
        let head = "{\n  \"schema_version\": 1,\n  \"files_scanned\": 1,\n  \"finding_count\": 2,\n  \"rules\": [";
        assert!(r.starts_with(head), "{r}");
        let first = "{\n      \"rule\": \"R3\",\n      \"file\": \"a/b.rs\",\n      \"line\": 7,\n      \"message\": ";
        assert!(r.contains(first), "{r}");
        assert!(r.contains(r#"quote \" and\nnewline"#));
        // What CI and its `jq` read back is what was found.
        let parsed = Json::parse(&r).expect("the report parses");
        let count = parsed.get("finding_count").and_then(Json::as_u64);
        assert_eq!(count, Some(findings.len() as u64));
        let listed = parsed.get("findings").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), findings.len());
        for (got, want) in listed.iter().zip(&findings) {
            let text = |k: &str| got.get(k).and_then(Json::as_str);
            assert_eq!(text("rule"), Some(want.rule));
            assert_eq!(text("file"), Some(want.file.as_str()));
            assert_eq!(text("message"), Some(want.message.as_str()));
            let line = got.get("line").and_then(Json::as_u64);
            assert_eq!(line, Some(want.line as u64));
        }
    }

    #[test]
    fn escape_control_chars() {
        // The wire form, not just a round trip: `jq` must read it too.
        assert!(report(&[finding("a\u{1}b")], 1).contains("\"a\\u0001b\""));
    }
}
