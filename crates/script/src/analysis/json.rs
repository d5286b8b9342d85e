//! Machine-readable renderings of [`Analysis`] and [`SuggestOutcome`] for `gca check --json` and
//! `gca suggest --json`.
//!
//! Hand-rolled (the workspace takes no serialization dependency):
//! literal structure around the workspace's one JSON string escaper.
//! The shape is pinned by a golden test in `tests/check.rs` — treat it
//! as a public contract.
//! Unlike the classic transcript, the JSON report carries *all*
//! diagnostics, including the Note-severity advisory lints that
//! [`Analysis::render`](super::Analysis::render) omits.

use gc_assertions::escape_json;

use super::{Analysis, Severity, SuggestOutcome};

/// `s` as a quoted, escaped JSON string.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_json(s, &mut out);
    out
}

fn string_array(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| quoted(s)).collect();
    format!("[{}]", inner.join(","))
}

/// Renders a full `gca check` report as a single JSON object.
pub fn analysis_to_json(a: &Analysis) -> String {
    let diags: Vec<String> = a
        .diagnostics
        .iter()
        .map(|d| {
            let severity = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
                Severity::Note => "note",
            };
            let column = d
                .column
                .map_or_else(|| "null".to_owned(), |c| c.to_string());
            format!(
                "{{\"line\":{},\"column\":{},\"severity\":\"{}\",\"code\":{},\"message\":{},\"notes\":{}}}",
                d.line,
                column,
                severity,
                quoted(d.code),
                quoted(&d.message),
                string_array(&d.notes),
            )
        })
        .collect();
    let collections: Vec<String> = a
        .collections
        .iter()
        .map(|c| {
            format!(
                "{{\"line\":{},\"explicit\":{},\"minor\":{},\"summarized\":{},\"must\":{},\"may\":{}}}",
                c.line,
                c.explicit,
                c.minor,
                c.summarized,
                string_array(&c.must),
                string_array(&c.may),
            )
        })
        .collect();
    format!(
        "{{\"tool\":\"gca-check\",\"domain\":\"access-graph\",\"errors\":{},\"warnings\":{},\"notes\":{},\"diagnostics\":[{}],\"collections\":[{}]}}",
        a.count(Severity::Error),
        a.count(Severity::Warning),
        a.count(Severity::Note),
        diags.join(","),
        collections.join(","),
    )
}

/// Renders a full `gca suggest` report as a single JSON object.
pub fn suggest_to_json(o: &SuggestOutcome) -> String {
    let refused = o
        .refused
        .as_ref()
        .map_or_else(|| "null".to_owned(), |r| quoted(r));
    let suggestions: Vec<String> = o
        .suggestions
        .iter()
        .map(|s| {
            format!(
                "{{\"beforeLine\":{},\"text\":{},\"reason\":{}}}",
                s.before_line,
                quoted(&s.text),
                quoted(&s.reason),
            )
        })
        .collect();
    format!(
        "{{\"tool\":\"gca-suggest\",\"refused\":{},\"rejected\":{},\"suggestions\":[{}]}}",
        refused,
        o.rejected,
        suggestions.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_and_controls() {
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string_array(&["\u{1}".to_owned()]), "[\"\\u0001\"]");
    }

    #[test]
    fn check_json_is_well_formed_for_a_clean_script() {
        let a = super::super::analyze("class T\nnew a T\nroot a\ngc\n").unwrap();
        let j = analysis_to_json(&a);
        assert!(j.starts_with("{\"tool\":\"gca-check\""), "{j}");
        assert!(j.contains("\"errors\":0"), "{j}");
        assert!(j.contains("\"summarized\":false"), "{j}");
    }
}
