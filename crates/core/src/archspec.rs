//! Canonical-JSON serialization for [`ArchSpec`] documents.
//!
//! A `tbstc.v1` arch-spec document describes an accelerator as data:
//! pattern constraint, dataflow slot terms, codec, lanes, bandwidth and
//! energy multipliers. [`spec_from_json`] parses and validates one
//! (rejecting unknown fields with the offending field path);
//! [`spec_to_value`] renders the canonical document back. Round-trips
//! are byte-identical: `spec_to_value(spec).to_string()` is a fixed
//! point of parse→render. Every registry builtin is itself a spec, so
//! rendering it (`tbstc-cli arch show`, `GET /v1/archs`) yields a
//! document that runs bit-identically to the builtin when submitted
//! back — the `spec_parity` tests pin this.

use std::collections::BTreeMap;

use tbstc_sim::compute::SchedulePolicy;
use tbstc_sim::sched::{InterBlockPolicy, IntraBlockPolicy};
use tbstc_sim::spec::{ArchSpec, CodecSpec, Dataflow, DatapathKind, DenseInfoPolicy, SlotTerm};
use tbstc_sparsity::PatternKind;

use crate::error::Error;
use crate::json::Json;

/// The schema tag every arch-spec document carries.
pub const SCHEMA: &str = "tbstc.v1";

fn err(path: &str, msg: impl std::fmt::Display) -> Error {
    Error::InvalidSpec(format!("arch_spec.{path}: {msg}"))
}

fn pattern_name(p: PatternKind) -> &'static str {
    match p {
        PatternKind::Dense => "dense",
        PatternKind::Unstructured => "unstructured",
        PatternKind::TileNm => "tile-nm",
        PatternKind::RowWiseVegeta => "row-wise-vegeta",
        PatternKind::RowWiseHighlight => "row-wise-highlight",
        PatternKind::Tbs => "tbs",
    }
}

fn pattern_from(s: &str) -> Option<PatternKind> {
    Some(match s {
        "dense" => PatternKind::Dense,
        "unstructured" => PatternKind::Unstructured,
        "tile-nm" => PatternKind::TileNm,
        "row-wise-vegeta" => PatternKind::RowWiseVegeta,
        "row-wise-highlight" => PatternKind::RowWiseHighlight,
        "tbs" => PatternKind::Tbs,
        _ => return None,
    })
}

fn datapath_name(d: DatapathKind) -> &'static str {
    match d {
        DatapathKind::TensorCore => "tensor-core",
        DatapathKind::NvidiaStc => "nvidia-stc",
        DatapathKind::Vegeta => "vegeta",
        DatapathKind::Highlight => "highlight",
        DatapathKind::RmStc => "rm-stc",
        DatapathKind::TbStc => "tb-stc",
        DatapathKind::DvpeWithFan => "dvpe-with-fan",
        DatapathKind::Sgcn => "sgcn",
    }
}

fn datapath_from(s: &str) -> Option<DatapathKind> {
    Some(match s {
        "tensor-core" => DatapathKind::TensorCore,
        "nvidia-stc" => DatapathKind::NvidiaStc,
        "vegeta" => DatapathKind::Vegeta,
        "highlight" => DatapathKind::Highlight,
        "rm-stc" => DatapathKind::RmStc,
        "tb-stc" => DatapathKind::TbStc,
        "dvpe-with-fan" => DatapathKind::DvpeWithFan,
        "sgcn" => DatapathKind::Sgcn,
        _ => return None,
    })
}

fn dense_info_name(p: DenseInfoPolicy) -> &'static str {
    match p {
        DenseInfoPolicy::Never => "never",
        DenseInfoPolicy::Always => "always",
        DenseInfoPolicy::NonTbsNative => "non-tbs-native",
    }
}

fn term_to_value(t: SlotTerm) -> Json {
    match t {
        SlotTerm::Dense => Json::str("dense"),
        SlotTerm::Nnz => Json::str("nnz"),
        SlotTerm::Lockstep { group } => Json::obj([("lockstep", Json::Int(group as i64))]),
        SlotTerm::RatioGrouped { width } => Json::obj([("ratio-grouped", Json::Int(width as i64))]),
    }
}

fn term_from_value(v: &Json, path: &str) -> Result<SlotTerm, Error> {
    if let Some(s) = v.as_str() {
        return match s {
            "dense" => Ok(SlotTerm::Dense),
            "nnz" => Ok(SlotTerm::Nnz),
            other => Err(err(
                path,
                format!("unknown term `{other}` (expected `dense`, `nnz`, or an object)"),
            )),
        };
    }
    let Some(m) = v.as_obj() else {
        return Err(err(path, "must be a string or a one-key object"));
    };
    let mut entries = m.iter();
    let (Some((k, inner)), None) = (entries.next(), entries.next()) else {
        return Err(err(
            path,
            "must have exactly one key (`lockstep` or `ratio-grouped`)",
        ));
    };
    let n = inner
        .as_usize()
        .ok_or_else(|| err(&format!("{path}.{k}"), "must be a positive integer"))?;
    match k.as_str() {
        "lockstep" => Ok(SlotTerm::Lockstep { group: n }),
        "ratio-grouped" => Ok(SlotTerm::RatioGrouped { width: n }),
        other => Err(err(path, format!("unknown term key `{other}`"))),
    }
}

fn codec_to_value(c: CodecSpec) -> Json {
    let (kind, group) = match c {
        CodecSpec::DenseRows => ("dense-rows", None),
        CodecSpec::AlignedNm => ("aligned-nm", None),
        CodecSpec::GroupedSdc { group } => ("grouped-sdc", Some(group)),
        CodecSpec::Sdc => ("sdc", None),
        CodecSpec::Bitmap => ("bitmap", None),
        CodecSpec::DdcOrDense => ("ddc-or-dense", None),
        CodecSpec::Csr => ("csr", None),
    };
    let mut pairs = vec![("kind", Json::str(kind))];
    if let Some(g) = group {
        pairs.push(("group", Json::Int(g as i64)));
    }
    Json::obj(pairs)
}

/// Checks an object's keys against the allowed set, naming the first
/// stranger with its full field path.
fn reject_unknown(m: &BTreeMap<String, Json>, allowed: &[&str], path: &str) -> Result<(), Error> {
    for key in m.keys() {
        if !allowed.contains(&key.as_str()) {
            let full = if path.is_empty() {
                key.clone()
            } else {
                format!("{path}.{key}")
            };
            return Err(err(&full, "unknown field"));
        }
    }
    Ok(())
}

fn get_str<'a>(m: &'a BTreeMap<String, Json>, key: &str, path: &str) -> Result<&'a str, Error> {
    m.get(key)
        .ok_or_else(|| err(&format!("{path}{key}"), "missing required field"))?
        .as_str()
        .ok_or_else(|| err(&format!("{path}{key}"), "must be a string"))
}

fn get_bool(m: &BTreeMap<String, Json>, key: &str, path: &str) -> Result<bool, Error> {
    m.get(key)
        .ok_or_else(|| err(&format!("{path}{key}"), "missing required field"))?
        .as_bool()
        .ok_or_else(|| err(&format!("{path}{key}"), "must be a boolean"))
}

fn get_num(m: &BTreeMap<String, Json>, key: &str, path: &str) -> Result<f64, Error> {
    m.get(key)
        .ok_or_else(|| err(&format!("{path}{key}"), "missing required field"))?
        .as_f64()
        .ok_or_else(|| err(&format!("{path}{key}"), "must be a number"))
}

/// Renders a spec as its canonical `tbstc.v1` document.
pub fn spec_to_value(spec: &ArchSpec) -> Json {
    let mut pairs = vec![
        ("schema", Json::str(SCHEMA)),
        ("name", Json::str(spec.name.clone())),
        ("display", Json::str(spec.display.clone())),
        ("summary", Json::str(spec.summary.clone())),
        ("pattern", Json::str(pattern_name(spec.pattern))),
        (
            "schedule",
            Json::obj([
                (
                    "inter",
                    Json::str(match spec.schedule.inter {
                        InterBlockPolicy::Direct => "direct",
                        InterBlockPolicy::SparsityAware => "sparsity-aware",
                    }),
                ),
                (
                    "intra",
                    Json::str(match spec.schedule.intra {
                        IntraBlockPolicy::Naive => "naive",
                        IntraBlockPolicy::Balanced => "balanced",
                    }),
                ),
            ]),
        ),
        (
            "hierarchical_scheduling",
            Json::Bool(spec.hierarchical_scheduling),
        ),
        (
            "dataflow",
            Json::obj([
                (
                    "terms",
                    Json::Arr(
                        spec.dataflow
                            .terms
                            .iter()
                            .map(|&t| term_to_value(t))
                            .collect(),
                    ),
                ),
                ("multiplier", Json::Num(spec.dataflow.multiplier)),
                ("efficiency", Json::Num(spec.dataflow.efficiency)),
            ]),
        ),
        ("row_frontend", Json::Bool(spec.row_frontend)),
        ("codec", codec_to_value(spec.codec)),
        ("dense_info", Json::str(dense_info_name(spec.dense_info))),
        ("consumes_ddc", Json::Bool(spec.consumes_ddc)),
        ("datapath", Json::str(datapath_name(spec.datapath))),
        (
            "mac_energy_multiplier",
            Json::Num(spec.mac_energy_multiplier),
        ),
    ];
    if let Some(bw) = spec.bandwidth_gbps {
        pairs.push(("bandwidth_gbps", Json::Num(bw)));
    }
    if let Some(lanes) = spec.lanes {
        pairs.push(("lanes", Json::Int(lanes as i64)));
    }
    Json::obj(pairs)
}

/// Parses and validates a `tbstc.v1` arch-spec document.
///
/// # Errors
///
/// Returns [`Error::InvalidSpec`] with an `arch_spec.<field path>`
/// message on a missing/mistyped/unknown field, a bad enum string, or a
/// semantic violation caught by [`ArchSpec::validate`].
pub fn spec_from_value(v: &Json) -> Result<ArchSpec, Error> {
    let m = v
        .as_obj()
        .ok_or_else(|| Error::InvalidSpec("arch_spec: must be an object".into()))?;
    reject_unknown(
        m,
        &[
            "schema",
            "name",
            "display",
            "summary",
            "pattern",
            "schedule",
            "hierarchical_scheduling",
            "dataflow",
            "row_frontend",
            "codec",
            "dense_info",
            "consumes_ddc",
            "bandwidth_gbps",
            "lanes",
            "datapath",
            "mac_energy_multiplier",
        ],
        "",
    )?;
    if let Some(schema) = m.get("schema") {
        let s = schema
            .as_str()
            .ok_or_else(|| err("schema", "must be a string"))?;
        if s != SCHEMA {
            return Err(err(
                "schema",
                format!("unsupported schema `{s}` (expected `{SCHEMA}`)"),
            ));
        }
    }

    let pattern_str = get_str(m, "pattern", "")?;
    let pattern = pattern_from(pattern_str)
        .ok_or_else(|| err("pattern", format!("unknown pattern `{pattern_str}`")))?;

    let sched = m
        .get("schedule")
        .ok_or_else(|| err("schedule", "missing required field"))?
        .as_obj()
        .ok_or_else(|| err("schedule", "must be an object"))?;
    reject_unknown(sched, &["inter", "intra"], "schedule")?;
    let inter = match get_str(sched, "inter", "schedule.")? {
        "direct" => InterBlockPolicy::Direct,
        "sparsity-aware" => InterBlockPolicy::SparsityAware,
        other => return Err(err("schedule.inter", format!("unknown policy `{other}`"))),
    };
    let intra = match get_str(sched, "intra", "schedule.")? {
        "naive" => IntraBlockPolicy::Naive,
        "balanced" => IntraBlockPolicy::Balanced,
        other => return Err(err("schedule.intra", format!("unknown policy `{other}`"))),
    };

    let df = m
        .get("dataflow")
        .ok_or_else(|| err("dataflow", "missing required field"))?
        .as_obj()
        .ok_or_else(|| err("dataflow", "must be an object"))?;
    reject_unknown(df, &["terms", "multiplier", "efficiency"], "dataflow")?;
    let terms_v = df
        .get("terms")
        .ok_or_else(|| err("dataflow.terms", "missing required field"))?
        .as_arr()
        .ok_or_else(|| err("dataflow.terms", "must be an array"))?;
    let mut terms = Vec::with_capacity(terms_v.len());
    for (i, t) in terms_v.iter().enumerate() {
        terms.push(term_from_value(t, &format!("dataflow.terms[{i}]"))?);
    }
    let dataflow = Dataflow {
        terms,
        multiplier: get_num(df, "multiplier", "dataflow.")?,
        efficiency: get_num(df, "efficiency", "dataflow.")?,
    };

    let codec_m = m
        .get("codec")
        .ok_or_else(|| err("codec", "missing required field"))?
        .as_obj()
        .ok_or_else(|| err("codec", "must be an object"))?;
    reject_unknown(codec_m, &["kind", "group"], "codec")?;
    let kind = get_str(codec_m, "kind", "codec.")?;
    let codec = match kind {
        "grouped-sdc" => {
            let group = codec_m
                .get("group")
                .ok_or_else(|| err("codec.group", "missing required field"))?
                .as_usize()
                .ok_or_else(|| err("codec.group", "must be a positive integer"))?;
            CodecSpec::GroupedSdc { group }
        }
        _ => {
            if codec_m.contains_key("group") {
                return Err(err(
                    "codec.group",
                    format!("only valid for kind `grouped-sdc`, not `{kind}`"),
                ));
            }
            match kind {
                "dense-rows" => CodecSpec::DenseRows,
                "aligned-nm" => CodecSpec::AlignedNm,
                "sdc" => CodecSpec::Sdc,
                "bitmap" => CodecSpec::Bitmap,
                "ddc-or-dense" => CodecSpec::DdcOrDense,
                "csr" => CodecSpec::Csr,
                other => return Err(err("codec.kind", format!("unknown codec `{other}`"))),
            }
        }
    };

    let dense_info = match get_str(m, "dense_info", "")? {
        "never" => DenseInfoPolicy::Never,
        "always" => DenseInfoPolicy::Always,
        "non-tbs-native" => DenseInfoPolicy::NonTbsNative,
        other => return Err(err("dense_info", format!("unknown policy `{other}`"))),
    };

    let datapath_str = get_str(m, "datapath", "")?;
    let datapath = datapath_from(datapath_str)
        .ok_or_else(|| err("datapath", format!("unknown datapath `{datapath_str}`")))?;

    let bandwidth_gbps = match m.get("bandwidth_gbps") {
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| err("bandwidth_gbps", "must be a number"))?,
        ),
        None => None,
    };
    let lanes = match m.get("lanes") {
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| err("lanes", "must be a positive integer"))?,
        ),
        None => None,
    };

    let spec = ArchSpec {
        name: get_str(m, "name", "")?.to_string(),
        display: get_str(m, "display", "")?.to_string(),
        summary: get_str(m, "summary", "")?.to_string(),
        pattern,
        schedule: SchedulePolicy { inter, intra },
        hierarchical_scheduling: get_bool(m, "hierarchical_scheduling", "")?,
        dataflow,
        row_frontend: get_bool(m, "row_frontend", "")?,
        codec,
        dense_info,
        consumes_ddc: get_bool(m, "consumes_ddc", "")?,
        bandwidth_gbps,
        lanes,
        datapath,
        mac_energy_multiplier: get_num(m, "mac_energy_multiplier", "")?,
    };
    spec.validate().map_err(err_raw)?;
    Ok(spec)
}

fn err_raw(msg: String) -> Error {
    Error::InvalidSpec(format!("arch_spec.{msg}"))
}

/// Parses a `tbstc.v1` arch-spec document from JSON text.
///
/// # Errors
///
/// [`Error::Parse`] on malformed JSON, [`Error::InvalidSpec`] on a
/// document that fails validation (see [`spec_from_value`]).
pub fn spec_from_json(text: &str) -> Result<ArchSpec, Error> {
    spec_from_value(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbstc_sim::{Arch, REGISTRY};

    #[test]
    fn builtin_specs_roundtrip_byte_identically() {
        for model in REGISTRY.iter() {
            let spec = model.spec();
            let text = spec_to_value(spec).to_string();
            let back =
                spec_from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", model.canonical_name()));
            assert_eq!(&back, spec, "{}", model.canonical_name());
            assert_eq!(
                spec_to_value(&back).to_string(),
                text,
                "{}",
                model.canonical_name()
            );
        }
    }

    #[test]
    fn unknown_fields_are_named() {
        let mut v = spec_to_value(Arch::TbStc.model().spec());
        if let Json::Obj(m) = &mut v {
            m.insert("warp_size".into(), Json::Int(32));
        }
        let e = spec_from_value(&v).unwrap_err().to_string();
        assert!(e.contains("arch_spec.warp_size"), "{e}");

        let mut v = spec_to_value(Arch::TbStc.model().spec());
        if let Json::Obj(m) = &mut v {
            if let Some(Json::Obj(df)) = m.get_mut("dataflow") {
                df.insert("depth".into(), Json::Int(3));
            }
        }
        let e = spec_from_value(&v).unwrap_err().to_string();
        assert!(e.contains("arch_spec.dataflow.depth"), "{e}");
    }

    #[test]
    fn missing_and_mistyped_fields_are_named() {
        let base = spec_to_value(Arch::Vegeta.model().spec());
        let mut v = base.clone();
        if let Json::Obj(m) = &mut v {
            m.remove("pattern");
        }
        let e = spec_from_value(&v).unwrap_err().to_string();
        assert!(e.contains("arch_spec.pattern"), "{e}");

        let mut v = base.clone();
        if let Json::Obj(m) = &mut v {
            m.insert("lanes".into(), Json::str("many"));
        }
        let e = spec_from_value(&v).unwrap_err().to_string();
        assert!(e.contains("arch_spec.lanes"), "{e}");

        let mut v = base;
        if let Json::Obj(m) = &mut v {
            m.insert("schema".into(), Json::str("tbstc.v2"));
        }
        let e = spec_from_value(&v).unwrap_err().to_string();
        assert!(e.contains("arch_spec.schema"), "{e}");
    }

    #[test]
    fn semantic_violations_carry_the_prefix() {
        let mut spec = Arch::TbStc.model().spec().clone();
        spec.name = "Bad Name".into();
        let v = spec_to_value(&spec);
        let e = spec_from_value(&v).unwrap_err().to_string();
        assert!(e.contains("arch_spec.name"), "{e}");
    }

    #[test]
    fn codec_group_rules() {
        let mut v = spec_to_value(Arch::TbStc.model().spec());
        if let Json::Obj(m) = &mut v {
            m.insert(
                "codec".into(),
                Json::obj([("kind", Json::str("sdc")), ("group", Json::Int(4))]),
            );
        }
        let e = spec_from_value(&v).unwrap_err().to_string();
        assert!(e.contains("arch_spec.codec.group"), "{e}");

        if let Json::Obj(m) = &mut v {
            m.insert(
                "codec".into(),
                Json::obj([("kind", Json::str("grouped-sdc"))]),
            );
        }
        let e = spec_from_value(&v).unwrap_err().to_string();
        assert!(e.contains("arch_spec.codec.group"), "{e}");
    }
}
