//! SARIF 2.1.0 output (`lint --sarif`), for CI annotation surfaces.
//!
//! One run, one driver (`tbstc-lint`), the full ten-rule table as
//! `tool.driver.rules`, and one `result` per finding. Failing findings
//! carry no `suppressions`; baselined findings carry one suppression of
//! `kind: "external"` (the baseline file is exactly that), so viewers
//! show them greyed out rather than hiding the debt. Hand-rolled JSON,
//! like the rest of the crate — the shape is pinned by a golden fixture
//! test.

use crate::engine::{json_escape, Finding, LintReport, Severity};
use crate::rules::{ALL_RULES, WORKSPACE_RULES};

/// The schema URI embedded in the document.
pub const SARIF_SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// Renders a lint report as one SARIF 2.1.0 document.
pub fn render_sarif(report: &LintReport) -> String {
    let mut rule_ids: Vec<(&str, &str)> = Vec::with_capacity(16);
    for r in ALL_RULES {
        rule_ids.push((r.name, r.desc));
    }
    for r in WORKSPACE_RULES {
        rule_ids.push((r.name, r.desc));
    }

    let rules_json: Vec<String> = rule_ids
        .iter()
        .map(|(name, desc)| {
            format!(
                "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
                json_escape(name),
                json_escape(&collapse_ws(desc))
            )
        })
        .collect();

    let rule_index = |rule: &str| rule_ids.iter().position(|(n, _)| *n == rule).unwrap_or(0);
    let result = |f: &Finding, suppressed_by_baseline: bool| {
        let level = match f.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let suppressions = if suppressed_by_baseline {
            ",\"suppressions\":[{\"kind\":\"external\"}]"
        } else {
            ""
        };
        format!(
            "{{\"ruleId\":\"{}\",\"ruleIndex\":{},\"level\":\"{level}\",\
             \"message\":{{\"text\":\"{}\"}},\"locations\":[{{\"physicalLocation\":\
             {{\"artifactLocation\":{{\"uri\":\"{}\",\"uriBaseId\":\"SRCROOT\"}},\
             \"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]{suppressions}}}",
            json_escape(f.rule),
            rule_index(f.rule),
            json_escape(&f.message),
            json_escape(&f.path),
            f.line,
            f.col,
        )
    };

    let mut results: Vec<String> =
        Vec::with_capacity(report.findings.len() + report.baselined.len());
    for f in &report.findings {
        results.push(result(f, false));
    }
    for f in &report.baselined {
        results.push(result(f, true));
    }

    format!(
        "{{\"$schema\":\"{SARIF_SCHEMA}\",\"version\":\"2.1.0\",\"runs\":[{{\
         \"tool\":{{\"driver\":{{\"name\":\"tbstc-lint\",\
         \"informationUri\":\"https://example.invalid/tbstc\",\
         \"version\":\"{}\",\"rules\":[{}]}}}},\
         \"columnKind\":\"utf16CodeUnits\",\
         \"originalUriBaseIds\":{{\"SRCROOT\":{{\"uri\":\"file:///\"}}}},\
         \"results\":[{}]}}]}}\n",
        env!("CARGO_PKG_VERSION"),
        rules_json.join(","),
        results.join(","),
    )
}

/// The rule descriptions use continuation-indented string literals;
/// collapse runs of whitespace so SARIF text stays one clean line.
fn collapse_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = false;
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out
}
