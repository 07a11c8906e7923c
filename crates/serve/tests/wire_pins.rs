//! Byte pins for what the job service derives from a spec: its canonical
//! text, its cache key, and the full response a hit answers with.
//!
//! Every value below was computed by the character-at-a-time JSON
//! formatter that `Json::write_to` replaced. A writer that changes one
//! byte changes a key, and a changed key orphans every stored result and
//! memo entry. The repository benchmark checks response bodies against
//! the same in-process writer the server uses, so it cannot catch such a
//! change; these pins can.

use tbstc::archspec;
use tbstc::json::{fnv1a_64, Json};
use tbstc::prelude::*;
use tbstc::runner::SweepRunner;
use tbstc_serve::http::Response;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The builtin TB-STC arch document, optionally renamed.
fn arch_doc(name: Option<&str>) -> Json {
    let mut doc = archspec::spec_to_value(Arch::TbStc.model().spec());
    if let (Json::Obj(m), Some(name)) = (&mut doc, name) {
        m.insert("name".into(), Json::str(name));
    }
    doc
}

fn inline_body(doc: &Json, seed: u64) -> String {
    format!(
        r#"{{"type":"simulate","arch_spec":{doc},"model":{{"kind":"gcn","nodes":64,"features":16}},"sparsity":0.5,"seed":{seed}}}"#
    )
}

#[test]
fn spec_texts_keep_their_canonical_text_and_cache_key() {
    let table: [(&str, &str, &str); 6] = [
        (
            r#"{"type":"simulate","arch":"tb-stc","model":{"kind":"gcn","nodes":64,"features":16},"sparsity":0.75,"seed":5}"#,
            "ba5b035127ad755b0c7beb59caf91828",
            r#"{"arch":"tb-stc","bandwidth_gbps":64.0,"model":{"features":16,"kind":"gcn","nodes":64},"seed":5,"sparsity":0.75,"type":"simulate"}"#,
        ),
        (
            include_str!("../../../examples/jobs/gcn-simulate.json"),
            "3f1209971f271d8d1f69b344f96d9af8",
            r#"{"arch":"tb-stc","bandwidth_gbps":64.0,"model":{"features":16,"kind":"gcn","nodes":64},"seed":0,"sparsity":0.5,"type":"simulate"}"#,
        ),
        (
            include_str!("../../../examples/jobs/bert-sweep.json"),
            "8055fd10ae7aae375de704465164ca40",
            r#"{"archs":["tb-stc","rm-stc","highlight"],"bandwidth_gbps":64.0,"models":[{"kind":"bert","tokens":128}],"seeds":[0],"sparsities":[0.5,0.75],"type":"sweep"}"#,
        ),
        (
            include_str!("../../../examples/jobs/gcn-sweep.json"),
            "f1dab7ac54c4fd41e440671b4e5e6df6",
            r#"{"archs":["tb-stc","stc"],"bandwidth_gbps":64.0,"models":[{"features":16,"kind":"gcn","nodes":64}],"seeds":[0],"sparsities":[0.5,0.625,0.75],"type":"sweep"}"#,
        ),
        (
            r#"{ "seed" : 9223372036854775807 , "type":"simulate", "arch":"rm-stc","model":"bert","sparsity":0.875,"bandwidth_gbps":25.6}"#,
            "a974004ee92d3b6fb249c9609342b3d4",
            r#"{"arch":"rm-stc","bandwidth_gbps":25.6,"model":{"kind":"bert","tokens":128},"seed":9223372036854775807,"sparsity":0.875,"type":"simulate"}"#,
        ),
        (
            r#"{"type":"sweep","archs":["tc","stc","vegeta","highlight","rm-stc","tb-stc","dvpe-fan","sgcn"],"models":["bert",{"kind":"gcn","nodes":128,"features":32}],"sparsities":[0.0,0.5,1.0,1e-7],"seeds":[0,3],"bandwidth_gbps":1e21}"#,
            "b0745806dd61413a4e718663d6b21b29",
            r#"{"archs":["tc","stc","vegeta","highlight","rm-stc","tb-stc","dvpe-fan","sgcn"],"bandwidth_gbps":1000000000000000000000.0,"models":[{"kind":"bert","tokens":128},{"features":32,"kind":"gcn","nodes":128}],"seeds":[0,3],"sparsities":[0.0,0.5,1.0,0.0000001],"type":"sweep"}"#,
        ),
    ];
    for (text, key, canonical) in table {
        let spec = JobSpec::from_json(text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(spec.canonical_json(), canonical, "{text}");
        assert_eq!(spec.cache_key(), key, "{text}");
    }
}

#[test]
fn inline_arch_specs_keep_their_cache_key() {
    // (arch name, seed, key, canonical length, FNV-1a of the canonical
    // text; the text itself is the builtin document, about 570 bytes).
    let table = [
        (
            None,
            0,
            "4abaa0f3ce8bfd121683a73820a7e2d9",
            574,
            0x4aba_a0f3_ce8b_fd12_u64,
        ),
        (
            Some("tb-stc-lab"),
            2,
            "23be8278687095aae4d3f92314985935",
            578,
            0x23be_8278_6870_95aa,
        ),
    ];
    for (name, seed, key, len, digest) in table {
        let spec = JobSpec::from_json(&inline_body(&arch_doc(name), seed)).unwrap();
        let canonical = spec.canonical_json();
        assert_eq!(spec.cache_key(), key, "{name:?}");
        assert_eq!(canonical.len(), len, "{name:?}");
        assert_eq!(
            fnv1a_64(canonical.as_bytes(), FNV_BASIS),
            digest,
            "{name:?}"
        );
    }
}

#[test]
fn hit_responses_keep_their_bytes() {
    // (spec, body length, body digest, wire length, wire digest): the
    // result body the server stores, and the full `200` a hot-tier hit
    // sends for it, headers included.
    let table = [
        (
            include_str!("../../../examples/jobs/gcn-simulate.json"),
            548,
            0x1279_b478_86be_981f_u64,
            722,
            0x62af_38ba_60ed_c0b2_u64,
        ),
        (
            include_str!("../../../examples/jobs/gcn-sweep.json"),
            3006,
            0xb06e_00f7_c512_98ab,
            3181,
            0xff22_f60c_0464_eeb8,
        ),
    ];
    for (text, body_len, body_digest, wire_len, wire_digest) in table {
        let spec = JobSpec::from_json(text).unwrap();
        let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(spec.bandwidth_gbps()));
        let body = format!("{}\n", spec.execute(&engine));
        assert_eq!(body.len(), body_len, "{text}");
        assert_eq!(fnv1a_64(body.as_bytes(), FNV_BASIS), body_digest, "{text}");
        let wire = Response::new(200)
            .header("X-Cache", "hit")
            .header("X-Cache-Tier", "mem")
            .header("X-Job-Key", spec.cache_key())
            .json(body)
            .serialize(true);
        assert_eq!(wire.len(), wire_len, "{text}");
        assert_eq!(fnv1a_64(&wire, FNV_BASIS), wire_digest, "{text}");
    }
}
