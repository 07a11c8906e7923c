//! The shared job-spec schema: what `tbstc-serve` accepts over HTTP,
//! what `tbstc-cli --json` emits, and what the on-disk caches store.
//!
//! One schema, three consumers:
//!
//! * `tbstc-cli simulate/sweep --json` serializes results through
//!   [`JobSpec::execute`], so CLI output and server responses are
//!   diffable byte-for-byte.
//! * `tbstc-serve` parses request bodies into [`JobSpec`], keys its
//!   content-addressed result cache on [`JobSpec::cache_key`] (a hash of
//!   the *canonicalized* spec — field order and omitted defaults do not
//!   change the key), and stores the response bodies verbatim.
//! * The `SweepRunner` memo persistence file serializes its
//!   `(SimJob, ModelResult)` entries with [`sim_job_to_value`] /
//!   [`model_result_to_value`].
//!
//! Determinism contract: [`JobSpec::execute`] is a pure function of the
//! spec (each job owns its seed; the engine's parallel runner is
//! bit-identical to serial), so identical specs always produce identical
//! response bodies — the property the serve cache relies on.

use std::fmt::Write as _;

use crate::archspec;
use crate::error::Error;
use crate::json::{fnv1a_64, Json};

use tbstc_runner::{ModelSpec, SimJob, Sweep, SweepRunner};
use tbstc_sim::{Arch, ArchId, ArchModel, ArchSpec, CycleBreakdown, LayerResult, ModelResult};

/// Schema tag stamped into every response body.
pub const SCHEMA: &str = "tbstc.v1";

/// Default off-chip bandwidth when a spec omits it (GB/s, the paper's
/// platform).
pub const DEFAULT_BANDWIDTH_GBPS: f64 = 64.0;

/// Builds a [`ModelSpec`] from a bare name at the CLI's default shapes.
pub fn model_from_name(name: &str) -> Option<ModelSpec> {
    Some(match name {
        "resnet50" => ModelSpec::ResNet50 { input: 64 },
        "resnet18" => ModelSpec::ResNet18 { input: 64 },
        "bert" => ModelSpec::BertBase { tokens: 128 },
        "opt" => ModelSpec::Opt6_7b { tokens: 128 },
        "llama" => ModelSpec::Llama2_7b { tokens: 128 },
        "gcn" => ModelSpec::Gcn {
            nodes: 1024,
            features: 128,
        },
        _ => return None,
    })
}

/// Serializes a [`ModelSpec`] to its canonical object form.
pub fn model_to_value(model: ModelSpec) -> Json {
    match model {
        ModelSpec::ResNet50 { input } => Json::obj([
            ("input", Json::Int(input as i64)),
            ("kind", Json::str("resnet50")),
        ]),
        ModelSpec::ResNet18 { input } => Json::obj([
            ("input", Json::Int(input as i64)),
            ("kind", Json::str("resnet18")),
        ]),
        ModelSpec::BertBase { tokens } => Json::obj([
            ("kind", Json::str("bert")),
            ("tokens", Json::Int(tokens as i64)),
        ]),
        ModelSpec::Opt6_7b { tokens } => Json::obj([
            ("kind", Json::str("opt")),
            ("tokens", Json::Int(tokens as i64)),
        ]),
        ModelSpec::Llama2_7b { tokens } => Json::obj([
            ("kind", Json::str("llama")),
            ("tokens", Json::Int(tokens as i64)),
        ]),
        ModelSpec::Gcn { nodes, features } => Json::obj([
            ("features", Json::Int(features as i64)),
            ("kind", Json::str("gcn")),
            ("nodes", Json::Int(nodes as i64)),
        ]),
    }
}

/// Rejects object keys outside the allowed set, naming the first
/// stranger with its field path (`ctx` is the parent path prefix).
fn reject_unknown_fields(v: &Json, allowed: &[&str], ctx: &str) -> Result<(), Error> {
    if let Some(m) = v.as_obj() {
        for key in m.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(Error::InvalidSpec(format!("{ctx}{key}: unknown field")));
            }
        }
    }
    Ok(())
}

/// Parses a [`ModelSpec`] from either a bare name string (CLI default
/// shapes) or the canonical `{"kind": ..., ...}` object.
pub fn model_from_value(v: &Json) -> Result<ModelSpec, Error> {
    if let Some(name) = v.as_str() {
        return model_from_name(name)
            .ok_or_else(|| Error::InvalidSpec(format!("unknown model `{name}`")));
    }
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| Error::InvalidSpec("model needs a `kind`".into()))?;
    let allowed: &[&str] = match kind {
        "resnet50" | "resnet18" => &["kind", "input"],
        "bert" | "opt" | "llama" => &["kind", "tokens"],
        "gcn" => &["kind", "nodes", "features"],
        _ => &["kind"],
    };
    reject_unknown_fields(v, allowed, "model.")?;
    let dim = |key: &str, default: usize| -> Result<usize, Error> {
        match v.get(key) {
            None => Ok(default),
            Some(j) => j
                .as_usize()
                .filter(|&n| n > 0)
                .ok_or_else(|| Error::InvalidSpec(format!("model `{key}` must be a positive int"))),
        }
    };
    Ok(match kind {
        "resnet50" => ModelSpec::ResNet50 {
            input: dim("input", 64)?,
        },
        "resnet18" => ModelSpec::ResNet18 {
            input: dim("input", 64)?,
        },
        "bert" => ModelSpec::BertBase {
            tokens: dim("tokens", 128)?,
        },
        "opt" => ModelSpec::Opt6_7b {
            tokens: dim("tokens", 128)?,
        },
        "llama" => ModelSpec::Llama2_7b {
            tokens: dim("tokens", 128)?,
        },
        "gcn" => ModelSpec::Gcn {
            nodes: dim("nodes", 1024)?,
            features: dim("features", 128)?,
        },
        other => return Err(Error::InvalidSpec(format!("unknown model kind `{other}`"))),
    })
}

fn parse_arch_value(v: &Json) -> Result<Arch, Error> {
    let name = v
        .as_str()
        .ok_or_else(|| Error::InvalidSpec("arch must be a string".into()))?;
    name.parse::<Arch>()
        .map_err(|e| Error::InvalidSpec(e.to_string()))
}

/// Parses a result-side architecture identity: a builtin registry name
/// maps to its [`Arch`]; anything else is a custom spec name. Results
/// only store the name, so custom identities round-trip by name alone.
fn parse_arch_id_value(v: &Json) -> Result<ArchId, Error> {
    let name = v
        .as_str()
        .ok_or_else(|| Error::InvalidSpec("arch must be a string".into()))?;
    Ok(match name.parse::<Arch>() {
        Ok(a) => ArchId::Builtin(a),
        Err(_) => ArchId::custom(name),
    })
}

/// Validates an off-chip bandwidth in GB/s: it must be finite and
/// positive. Job specs and the CLI's `--bandwidth` share this rule.
///
/// # Errors
///
/// [`Error::InvalidSpec`] for a non-finite, zero or negative value.
pub fn checked_bandwidth(gbps: f64) -> Result<f64, Error> {
    if gbps.is_finite() && gbps > 0.0 {
        Ok(gbps)
    } else {
        Err(Error::InvalidSpec(format!(
            "bandwidth_gbps {gbps} must be positive"
        )))
    }
}

fn parse_sparsity(v: &Json) -> Result<f64, Error> {
    let s = v
        .as_f64()
        .ok_or_else(|| Error::InvalidSpec("sparsity must be a number".into()))?;
    if !(0.0..=1.0).contains(&s) {
        return Err(Error::InvalidSpec(format!("sparsity {s} outside [0, 1]")));
    }
    Ok(s)
}

/// The architecture a simulate job runs on: a registry builtin by name,
/// or an inline `tbstc.v1` arch-spec document interpreted by
/// [`ArchModel`]. Custom specs canonicalize as their full document, so
/// the content-addressed cache key (and with it serve's coalescing and
/// disk/LRU tiers) distinguishes them by content, not by name.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchChoice {
    /// A registry builtin, referenced by name.
    Builtin(Arch),
    /// An inline, already-validated arch-spec document.
    Custom(Box<ArchSpec>),
}

impl ArchChoice {
    /// The canonical lowercase name (builtin registry name or the spec's
    /// declared name).
    pub fn canonical_name(&self) -> &str {
        match self {
            ArchChoice::Builtin(a) => a.canonical_name(),
            ArchChoice::Custom(spec) => &spec.name,
        }
    }
}

impl From<Arch> for ArchChoice {
    fn from(a: Arch) -> ArchChoice {
        ArchChoice::Builtin(a)
    }
}

/// One whole-model simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateSpec {
    /// Architecture to simulate.
    pub arch: ArchChoice,
    /// Workload.
    pub model: ModelSpec,
    /// Target sparsity in `[0, 1]`.
    pub sparsity: f64,
    /// Weight-sampling seed.
    pub seed: u64,
    /// Off-chip bandwidth of the platform, GB/s.
    pub bandwidth_gbps: f64,
}

/// A grid request: the cross product archs × models × sparsities × seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Architecture axis.
    pub archs: Vec<Arch>,
    /// Workload axis.
    pub models: Vec<ModelSpec>,
    /// Sparsity axis.
    pub sparsities: Vec<f64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Off-chip bandwidth of the platform, GB/s.
    pub bandwidth_gbps: f64,
}

/// A job the serve subsystem can execute.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Simulate one model on one architecture.
    Simulate(SimulateSpec),
    /// Run a deterministic sweep grid.
    Sweep(SweepSpec),
}

impl JobSpec {
    /// Parses and validates a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on malformed JSON, [`Error::InvalidSpec`] on a
    /// well-formed body that is not a valid job.
    pub fn from_json(text: &str) -> Result<JobSpec, Error> {
        Self::from_value(&Json::parse(text)?)
    }

    /// Parses and validates a spec from a JSON value. Omitted fields take
    /// defaults: seed 0, bandwidth 64 GB/s, sweep seeds `[0]`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] when required fields are missing or out of
    /// range.
    pub fn from_value(v: &Json) -> Result<JobSpec, Error> {
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::InvalidSpec("job needs a `type` (simulate|sweep)".into()))?;
        let bandwidth_gbps = match v.get("bandwidth_gbps") {
            None => DEFAULT_BANDWIDTH_GBPS,
            Some(j) => checked_bandwidth(
                j.as_f64()
                    .ok_or_else(|| Error::InvalidSpec("bandwidth_gbps must be a number".into()))?,
            )?,
        };
        let seed_of = |j: Option<&Json>| -> Result<u64, Error> {
            match j {
                None => Ok(0),
                Some(j) => j
                    .as_u64()
                    .ok_or_else(|| Error::InvalidSpec("seed must be a non-negative int".into())),
            }
        };
        match kind {
            "simulate" => {
                reject_unknown_fields(
                    v,
                    &[
                        "type",
                        "arch",
                        "arch_spec",
                        "model",
                        "sparsity",
                        "seed",
                        "bandwidth_gbps",
                    ],
                    "",
                )?;
                let arch = match (v.get("arch"), v.get("arch_spec")) {
                    (Some(_), Some(_)) => {
                        return Err(Error::InvalidSpec(
                            "give either `arch` or `arch_spec`, not both".into(),
                        ))
                    }
                    (Some(a), None) => ArchChoice::Builtin(parse_arch_value(a)?),
                    (None, Some(s)) => ArchChoice::Custom(Box::new(archspec::spec_from_value(s)?)),
                    (None, None) => {
                        return Err(Error::InvalidSpec(
                            "simulate needs an `arch` or an `arch_spec`".into(),
                        ))
                    }
                };
                let model = model_from_value(
                    v.get("model")
                        .ok_or_else(|| Error::InvalidSpec("simulate needs a `model`".into()))?,
                )?;
                let sparsity = match v.get("sparsity") {
                    None => 0.75,
                    Some(j) => parse_sparsity(j)?,
                };
                Ok(JobSpec::Simulate(SimulateSpec {
                    arch,
                    model,
                    sparsity,
                    seed: seed_of(v.get("seed"))?,
                    bandwidth_gbps,
                }))
            }
            "sweep" => {
                reject_unknown_fields(
                    v,
                    &[
                        "type",
                        "archs",
                        "models",
                        "sparsities",
                        "seeds",
                        "bandwidth_gbps",
                    ],
                    "",
                )?;
                let list = |key: &str| -> Result<&[Json], Error> {
                    v.get(key)
                        .and_then(Json::as_arr)
                        .filter(|a| !a.is_empty())
                        .ok_or_else(|| {
                            Error::InvalidSpec(format!("sweep needs a non-empty `{key}` array"))
                        })
                };
                let archs = list("archs")?
                    .iter()
                    .map(parse_arch_value)
                    .collect::<Result<Vec<_>, _>>()?;
                let models = list("models")?
                    .iter()
                    .map(model_from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                let sparsities = list("sparsities")?
                    .iter()
                    .map(parse_sparsity)
                    .collect::<Result<Vec<_>, _>>()?;
                let seeds = match v.get("seeds") {
                    None => vec![0],
                    Some(j) => j
                        .as_arr()
                        .filter(|a| !a.is_empty())
                        .ok_or_else(|| {
                            Error::InvalidSpec("`seeds` must be a non-empty array".into())
                        })?
                        .iter()
                        .map(|s| seed_of(Some(s)))
                        .collect::<Result<Vec<_>, _>>()?,
                };
                Ok(JobSpec::Sweep(SweepSpec {
                    archs,
                    models,
                    sparsities,
                    seeds,
                    bandwidth_gbps,
                }))
            }
            other => Err(Error::InvalidSpec(format!(
                "unknown job type `{other}` (want simulate|sweep)"
            ))),
        }
    }

    /// The canonical value form: every default filled in, keys sorted.
    /// Two specs that execute identically canonicalize identically.
    pub fn to_value(&self) -> Json {
        match self {
            JobSpec::Simulate(s) => {
                let mut pairs = vec![
                    ("bandwidth_gbps", Json::Num(s.bandwidth_gbps)),
                    ("model", model_to_value(s.model)),
                    ("seed", Json::Int(s.seed as i64)),
                    ("sparsity", Json::Num(s.sparsity)),
                    ("type", Json::str("simulate")),
                ];
                match &s.arch {
                    ArchChoice::Builtin(a) => {
                        pairs.push(("arch", Json::str(a.canonical_name())));
                    }
                    ArchChoice::Custom(spec) => {
                        pairs.push(("arch_spec", archspec::spec_to_value(spec)));
                    }
                }
                Json::obj(pairs)
            }
            JobSpec::Sweep(s) => Json::obj([
                (
                    "archs",
                    Json::Arr(
                        s.archs
                            .iter()
                            .map(|&a| Json::str(a.canonical_name()))
                            .collect(),
                    ),
                ),
                ("bandwidth_gbps", Json::Num(s.bandwidth_gbps)),
                (
                    "models",
                    Json::Arr(s.models.iter().map(|&m| model_to_value(m)).collect()),
                ),
                (
                    "seeds",
                    Json::Arr(s.seeds.iter().map(|&x| Json::Int(x as i64)).collect()),
                ),
                (
                    "sparsities",
                    Json::Arr(s.sparsities.iter().map(|&x| Json::Num(x)).collect()),
                ),
                ("type", Json::str("sweep")),
            ]),
        }
    }

    /// The canonical JSON text (the byte string the cache key hashes).
    pub fn canonical_json(&self) -> String {
        // A builtin `simulate` spec is about 130 bytes; only inline arch
        // documents and long sweeps grow past this.
        let mut out = String::with_capacity(256);
        self.to_value().write_to(&mut out);
        out
    }

    /// The content-addressed cache key: 128 bits of FNV-1a over the
    /// canonical JSON, as 32 hex characters.
    pub fn cache_key(&self) -> String {
        let text = self.canonical_json();
        let a = fnv1a_64(text.as_bytes(), 0xcbf2_9ce4_8422_2325);
        let b = fnv1a_64(text.as_bytes(), 0x6c62_272e_07bb_0142);
        let mut key = String::with_capacity(32);
        // Writing into a `String` cannot fail.
        let _ = write!(key, "{a:016x}{b:016x}");
        key
    }

    /// The platform bandwidth this job simulates under.
    pub fn bandwidth_gbps(&self) -> f64 {
        match self {
            JobSpec::Simulate(s) => s.bandwidth_gbps,
            JobSpec::Sweep(s) => s.bandwidth_gbps,
        }
    }

    /// The number of grid points this job expands to.
    pub fn grid_len(&self) -> usize {
        match self {
            JobSpec::Simulate(_) => 1,
            JobSpec::Sweep(s) => {
                s.archs.len() * s.models.len() * s.sparsities.len() * s.seeds.len().max(1)
            }
        }
    }

    /// The sub-spec grid of this job: every single-point [`SimJob`] it
    /// expands to, in execution order — the granularity the sweep memo
    /// is keyed at, so chunked/durable execution can warm exactly the
    /// points [`JobSpec::execute`] will consume. Simulate jobs with a
    /// builtin arch expand to their one point; custom-arch simulate
    /// jobs run through the interpreter and have no builtin-keyed grid
    /// (empty list).
    pub fn grid_jobs(&self) -> Vec<SimJob> {
        match self {
            JobSpec::Simulate(s) => match &s.arch {
                ArchChoice::Builtin(a) => vec![SimJob {
                    arch: *a,
                    model: s.model,
                    sparsity: s.sparsity,
                    seed: s.seed,
                }],
                ArchChoice::Custom(_) => Vec::new(),
            },
            JobSpec::Sweep(s) => Sweep::new()
                .archs(s.archs.iter().copied())
                .models(s.models.iter().copied())
                .sparsities(s.sparsities.iter().copied())
                .seeds(s.seeds.iter().copied())
                .jobs(),
        }
    }

    /// Executes the job on `engine` and returns the deterministic
    /// response body value. The engine must be bound to this spec's
    /// bandwidth (the serve layer keeps one engine per bandwidth).
    pub fn execute(&self, engine: &SweepRunner) -> Json {
        debug_assert_eq!(
            engine.config().dram.bytes_per_cycle,
            self.bandwidth_gbps(),
            "engine bound to a different bandwidth than the spec"
        );
        match self {
            JobSpec::Simulate(s) => {
                let result = match &s.arch {
                    ArchChoice::Builtin(a) => engine.model(SimJob {
                        arch: *a,
                        model: s.model,
                        sparsity: s.sparsity,
                        seed: s.seed,
                    }),
                    // Spec-driven archs run through the interpreter; they
                    // bypass the builtin-keyed memo but are still served
                    // by the content-addressed response caches upstream.
                    ArchChoice::Custom(spec) => match ArchModel::new((**spec).clone()) {
                        Ok(custom) => tbstc_sim::simulate_model_on(
                            &custom,
                            &s.model.build(),
                            s.sparsity,
                            s.seed,
                            engine.config(),
                        ),
                        Err(e) => {
                            // Unreachable through parsing (documents are
                            // validated); keeps programmatic misuse
                            // panic-free.
                            return Json::obj([
                                ("error", Json::str(format!("invalid arch spec: {e}"))),
                                ("schema", Json::str(SCHEMA)),
                            ]);
                        }
                    },
                };
                Json::obj([
                    ("job", self.to_value()),
                    ("result", model_result_to_value(&result)),
                    ("schema", Json::str(SCHEMA)),
                ])
            }
            JobSpec::Sweep(_) => {
                let jobs = self.grid_jobs();
                let report = engine.run_models(&jobs);
                let results = jobs
                    .iter()
                    .zip(&report.results)
                    .map(|(job, res)| {
                        Json::obj([
                            ("job", sim_job_to_value(job)),
                            ("result", model_result_to_value(res)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("job", self.to_value()),
                    ("results", Json::Arr(results)),
                    ("schema", Json::str(SCHEMA)),
                ])
            }
        }
    }
}

/// Serializes one grid point (the memo key of model sweeps).
pub fn sim_job_to_value(job: &SimJob) -> Json {
    Json::obj([
        ("arch", Json::str(job.arch.canonical_name())),
        ("model", model_to_value(job.model)),
        ("seed", Json::Int(job.seed as i64)),
        ("sparsity", Json::Num(job.sparsity)),
    ])
}

/// Parses one grid point.
///
/// # Errors
///
/// [`Error::InvalidSpec`] when fields are missing or malformed.
pub fn sim_job_from_value(v: &Json) -> Result<SimJob, Error> {
    let missing = |k: &str| Error::InvalidSpec(format!("sim job missing `{k}`"));
    Ok(SimJob {
        arch: parse_arch_value(v.get("arch").ok_or_else(|| missing("arch"))?)?,
        model: model_from_value(v.get("model").ok_or_else(|| missing("model"))?)?,
        sparsity: parse_sparsity(v.get("sparsity").ok_or_else(|| missing("sparsity"))?)?,
        seed: v
            .get("seed")
            .ok_or_else(|| missing("seed"))?
            .as_u64()
            .ok_or_else(|| Error::InvalidSpec("seed must be a non-negative int".into()))?,
    })
}

fn u64_value(x: u64) -> Json {
    match i64::try_from(x) {
        Ok(i) => Json::Int(i),
        Err(_) => Json::Num(x as f64),
    }
}

fn get_u64(v: &Json, key: &str) -> Result<u64, Error> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| Error::InvalidSpec(format!("result missing counter `{key}`")))
}

fn get_f64(v: &Json, key: &str) -> Result<f64, Error> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| Error::InvalidSpec(format!("result missing number `{key}`")))
}

/// Serializes a per-layer simulation result.
pub fn layer_result_to_value(l: &LayerResult) -> Json {
    Json::obj([
        ("arch", Json::str(l.arch.canonical_name())),
        ("bandwidth_utilization", Json::Num(l.bandwidth_utilization)),
        (
            "breakdown",
            Json::obj([
                ("codec_exposed", u64_value(l.breakdown.codec_exposed)),
                ("codec_hidden", u64_value(l.breakdown.codec_hidden)),
                ("compute", u64_value(l.breakdown.compute)),
                ("memory", u64_value(l.breakdown.memory)),
            ]),
        ),
        ("compute_utilization", Json::Num(l.compute_utilization)),
        ("cycles", u64_value(l.cycles)),
        ("energy_pj", Json::Num(l.energy_pj)),
        ("name", Json::str(l.name.clone())),
        ("traffic_bytes", Json::Num(l.traffic_bytes)),
        ("useful_macs", u64_value(l.useful_macs)),
    ])
}

/// Parses a per-layer simulation result.
///
/// # Errors
///
/// [`Error::InvalidSpec`] when the value does not match the schema.
pub fn layer_result_from_value(v: &Json) -> Result<LayerResult, Error> {
    let b = v
        .get("breakdown")
        .ok_or_else(|| Error::InvalidSpec("layer result missing `breakdown`".into()))?;
    Ok(LayerResult {
        name: v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::InvalidSpec("layer result missing `name`".into()))?
            .to_string(),
        arch: parse_arch_id_value(
            v.get("arch")
                .ok_or_else(|| Error::InvalidSpec("layer result missing `arch`".into()))?,
        )?,
        cycles: get_u64(v, "cycles")?,
        breakdown: CycleBreakdown {
            compute: get_u64(b, "compute")?,
            memory: get_u64(b, "memory")?,
            codec_hidden: get_u64(b, "codec_hidden")?,
            codec_exposed: get_u64(b, "codec_exposed")?,
        },
        useful_macs: get_u64(v, "useful_macs")?,
        compute_utilization: get_f64(v, "compute_utilization")?,
        bandwidth_utilization: get_f64(v, "bandwidth_utilization")?,
        traffic_bytes: get_f64(v, "traffic_bytes")?,
        energy_pj: get_f64(v, "energy_pj")?,
    })
}

/// Serializes a whole-model simulation result.
pub fn model_result_to_value(r: &ModelResult) -> Json {
    Json::obj([
        ("arch", Json::str(r.arch.canonical_name())),
        (
            "layers",
            Json::Arr(r.layers.iter().map(layer_result_to_value).collect()),
        ),
        ("model", Json::str(r.model.clone())),
        ("total_cycles", u64_value(r.total_cycles)),
        ("total_energy_pj", Json::Num(r.total_energy_pj)),
    ])
}

/// Parses a whole-model simulation result.
///
/// # Errors
///
/// [`Error::InvalidSpec`] when the value does not match the schema.
pub fn model_result_from_value(v: &Json) -> Result<ModelResult, Error> {
    Ok(ModelResult {
        arch: parse_arch_id_value(
            v.get("arch")
                .ok_or_else(|| Error::InvalidSpec("model result missing `arch`".into()))?,
        )?,
        model: v
            .get("model")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::InvalidSpec("model result missing `model`".into()))?
            .to_string(),
        layers: v
            .get("layers")
            .and_then(Json::as_arr)
            .ok_or_else(|| Error::InvalidSpec("model result missing `layers`".into()))?
            .iter()
            .map(layer_result_from_value)
            .collect::<Result<Vec<_>, _>>()?,
        total_cycles: get_u64(v, "total_cycles")?,
        total_energy_pj: get_f64(v, "total_energy_pj")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use tbstc_sim::HwConfig;

    fn gcn_spec() -> JobSpec {
        JobSpec::from_json(
            r#"{"type":"simulate","arch":"tb-stc",
                "model":{"kind":"gcn","nodes":64,"features":16},
                "sparsity":0.5}"#,
        )
        .unwrap()
    }

    /// A little xorshift stream for the client-side choices below: field
    /// order, whitespace and whether a default is spelled out.
    struct Noise(u64);

    impl Noise {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn coin(&mut self) -> bool {
            self.below(2) == 1
        }

        /// Zero to two JSON whitespace bytes.
        fn ws(&mut self) -> &'static str {
            ["", "", " ", "\n", "\t", "\r\n", "  "][self.below(7)]
        }

        /// `fields` as a JSON object in a shuffled order.
        fn object(&mut self, mut fields: Vec<(&str, String)>) -> String {
            for i in (1..fields.len()).rev() {
                fields.swap(i, self.below(i + 1));
            }
            let body: Vec<String> = fields
                .into_iter()
                .map(|(k, v)| {
                    format!(
                        "{}\"{k}\"{}:{}{v}{}",
                        self.ws(),
                        self.ws(),
                        self.ws(),
                        self.ws()
                    )
                })
                .collect();
            format!("{{{}{}}}", body.join(","), self.ws())
        }

        fn array(&mut self, items: Vec<String>) -> String {
            let body: Vec<String> = items
                .into_iter()
                .map(|v| format!("{}{v}{}", self.ws(), self.ws()))
                .collect();
            format!("[{}{}]", body.join(","), self.ws())
        }

        /// Adds the field, except that a field holding its default
        /// (`default`) is left out half of the time.
        fn optional<'a>(
            &mut self,
            fields: &mut Vec<(&'a str, String)>,
            key: &'a str,
            value: String,
            default: bool,
        ) {
            if !default || self.coin() {
                fields.push((key, value));
            }
        }
    }

    /// `model` as a client might write it: its bare name when every
    /// dimension is the name's default, or an object whose default
    /// dimensions may be left out.
    fn client_model(model: ModelSpec, noise: &mut Noise) -> String {
        let (kind, dims): (&str, Vec<(&str, usize, usize)>) = match model {
            ModelSpec::ResNet50 { input } => ("resnet50", vec![("input", input, 64)]),
            ModelSpec::ResNet18 { input } => ("resnet18", vec![("input", input, 64)]),
            ModelSpec::BertBase { tokens } => ("bert", vec![("tokens", tokens, 128)]),
            ModelSpec::Opt6_7b { tokens } => ("opt", vec![("tokens", tokens, 128)]),
            ModelSpec::Llama2_7b { tokens } => ("llama", vec![("tokens", tokens, 128)]),
            ModelSpec::Gcn { nodes, features } => (
                "gcn",
                vec![("nodes", nodes, 1024), ("features", features, 128)],
            ),
        };
        if dims.iter().all(|&(_, v, d)| v == d) && noise.coin() {
            return format!("\"{kind}\"");
        }
        let mut fields = vec![("kind", format!("\"{kind}\""))];
        for (key, value, default) in dims {
            noise.optional(&mut fields, key, value.to_string(), value == default);
        }
        noise.object(fields)
    }

    /// `spec` as JSON text a client might send: fields in a shuffled
    /// order, whitespace between tokens, and each default either spelled
    /// out or left out.
    fn client_json(spec: &JobSpec, noise: &mut Noise) -> String {
        let number = |x: f64, noise: &mut Noise| match noise.coin() {
            true => format!("{x:?}"),
            false => format!("{x}"),
        };
        let mut fields = Vec::new();
        let bandwidth = spec.bandwidth_gbps();
        let bandwidth_text = number(bandwidth, noise);
        noise.optional(
            &mut fields,
            "bandwidth_gbps",
            bandwidth_text,
            bandwidth == DEFAULT_BANDWIDTH_GBPS,
        );
        match spec {
            JobSpec::Simulate(s) => {
                fields.push(("type", "\"simulate\"".into()));
                fields.push(("arch", format!("\"{}\"", s.arch.canonical_name())));
                fields.push(("model", client_model(s.model, noise)));
                let sparsity = number(s.sparsity, noise);
                noise.optional(&mut fields, "sparsity", sparsity, s.sparsity == 0.75);
                noise.optional(&mut fields, "seed", s.seed.to_string(), s.seed == 0);
            }
            JobSpec::Sweep(s) => {
                fields.push(("type", "\"sweep\"".into()));
                let archs = s
                    .archs
                    .iter()
                    .map(|a| format!("\"{}\"", a.canonical_name()))
                    .collect();
                fields.push(("archs", noise.array(archs)));
                let models = s.models.iter().map(|&m| client_model(m, noise)).collect();
                fields.push(("models", noise.array(models)));
                let sparsities = s.sparsities.iter().map(|&x| number(x, noise)).collect();
                fields.push(("sparsities", noise.array(sparsities)));
                let seeds = noise.array(s.seeds.iter().map(u64::to_string).collect());
                noise.optional(&mut fields, "seeds", seeds, s.seeds == [0]);
            }
        }
        noise.object(fields)
    }

    /// Model `kind` with dimension choices `a` and `b` (0 is the
    /// default).
    fn pick_model(kind: usize, a: usize, b: usize) -> ModelSpec {
        let side = [64, 32, 224][a];
        let tokens = [128, 32, 512][a];
        match kind {
            0 => ModelSpec::ResNet50 { input: side },
            1 => ModelSpec::ResNet18 { input: side },
            2 => ModelSpec::BertBase { tokens },
            3 => ModelSpec::Opt6_7b { tokens },
            4 => ModelSpec::Llama2_7b { tokens },
            _ => ModelSpec::Gcn {
                nodes: [1024, 64, 4096][a],
                features: [128, 16, 64][b],
            },
        }
    }

    proptest::proptest! {
        #[test]
        fn defaults_fill_in_and_canonicalize(
            sweep in 0usize..2,
            arch_picks in proptest::collection::vec(0usize..8, 1..4),
            model_picks in proptest::collection::vec((0usize..6, 0usize..3, 0usize..3), 1..4),
            sparsity_picks in proptest::collection::vec(0usize..6, 1..4),
            seeds in proptest::collection::vec(0u64..3, 1..3),
            bandwidth in 0usize..4,
            noise in 1u64..u64::MAX,
        ) {
            let sparsities: Vec<f64> = sparsity_picks
                .iter()
                .map(|&i| [0.75, 0.5, 0.875, 0.0, 1.0, 0.3][i])
                .collect();
            let models: Vec<ModelSpec> = model_picks
                .iter()
                .map(|&(kind, a, b)| pick_model(kind, a, b))
                .collect();
            let bandwidth_gbps = [DEFAULT_BANDWIDTH_GBPS, 128.0, 25.6, 512.0][bandwidth];
            let spec = if sweep == 1 {
                JobSpec::Sweep(SweepSpec {
                    archs: arch_picks.iter().map(|&i| Arch::ALL[i]).collect(),
                    models,
                    sparsities,
                    seeds,
                    bandwidth_gbps,
                })
            } else {
                JobSpec::Simulate(SimulateSpec {
                    arch: Arch::ALL[arch_picks[0]].into(),
                    model: models[0],
                    sparsity: sparsities[0],
                    seed: seeds[0],
                    bandwidth_gbps,
                })
            };
            // Two renderings with different field orders, whitespace and
            // spelled-out defaults parse to the spec and key like it.
            let mut noise = Noise(noise);
            for _ in 0..2 {
                let text = client_json(&spec, &mut noise);
                let parsed = JobSpec::from_json(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
                proptest::prop_assert_eq!(&parsed, &spec, "{}", text);
                proptest::prop_assert_eq!(parsed.cache_key(), spec.cache_key(), "{}", text);
                proptest::prop_assert_eq!(parsed.canonical_json(), spec.canonical_json(), "{}", text);
            }
        }
    }

    proptest::proptest! {
        /// Spec bodies as they come off the network: re-sent with other
        /// whitespace, member order and equivalent escapes (`\u0041`,
        /// `\/`), they key like the spec; cut short by a split read at
        /// any byte, or replaced by random or mangled bytes, they are
        /// refused (or, if still a valid spec, keyed stably), never a
        /// panic.
        #[test]
        fn escaped_split_and_hostile_bodies_key_or_fail_cleanly(
            pick in 0usize..3,
            seed in 0u64..u64::MAX,
            bytes in proptest::collection::vec(0u8..=255, 0..96),
            flips in proptest::collection::vec((0usize..4096, 0u8..=255), 1..4),
        ) {
            let body = [
                inline_spec_body(),
                r#"{"type":"simulate","arch":"tb-stc","model":{"kind":"gcn","nodes":64,"features":16},"sparsity":0.75,"seed":5}"#.to_string(),
                r#"{"type":"sweep","archs":["tc","stc","vegeta","highlight","rm-stc","tb-stc","dvpe-fan","sgcn"],"models":["bert",{"kind":"gcn","nodes":128,"features":32}],"sparsities":[0.5,0.875],"seeds":[0,3],"bandwidth_gbps":25.6}"#.to_string(),
            ][pick].clone();
            let spec = JobSpec::from_json(&body).unwrap();
            let mut rng = json::tests::Rng(seed);
            let text = json::tests::noisy_text(&Json::parse(&body).unwrap(), &mut rng);
            let text = text.trim_end();
            let parsed = JobSpec::from_json(text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
            proptest::prop_assert_eq!(parsed.cache_key(), spec.cache_key(), "{:?}", text);
            for (cut, _) in text.char_indices().skip(1) {
                let prefix = &text[..cut];
                proptest::prop_assert!(JobSpec::from_json(prefix).is_err(), "{:?} parsed", prefix);
            }
            proptest::prop_assert!(JobSpec::from_json(&String::from_utf8_lossy(&bytes)).is_err());
            let mut mangled = text.as_bytes().to_vec();
            for &(at, b) in &flips {
                let at = at % mangled.len();
                mangled[at] = b;
            }
            if let Ok(spec) = JobSpec::from_json(&String::from_utf8_lossy(&mangled)) {
                let again = JobSpec::from_json(&spec.canonical_json()).unwrap();
                proptest::prop_assert_eq!(again.cache_key(), spec.cache_key());
            }
        }
    }

    #[test]
    fn spec_roundtrips_through_canonical_json() {
        let spec = JobSpec::Sweep(SweepSpec {
            archs: vec![Arch::TbStc, Arch::Stc],
            models: vec![
                ModelSpec::Gcn {
                    nodes: 64,
                    features: 16,
                },
                ModelSpec::BertBase { tokens: 32 },
            ],
            sparsities: vec![0.5, 0.75],
            seeds: vec![0, 7],
            bandwidth_gbps: 128.0,
        });
        let back = JobSpec::from_json(&spec.canonical_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.grid_len(), 16);
    }

    #[test]
    fn distinct_specs_get_distinct_keys() {
        let a = gcn_spec();
        let mut b = a.clone();
        if let JobSpec::Simulate(s) = &mut b {
            s.sparsity = 0.75;
        }
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.cache_key().len(), 32);
    }

    #[test]
    fn rejects_invalid_specs() {
        for bad in [
            r#"{"arch":"tb-stc"}"#,
            r#"{"type":"simulate"}"#,
            r#"{"type":"simulate","arch":"tpu","model":"bert"}"#,
            r#"{"type":"simulate","arch":"tc","model":"bert","sparsity":1.5}"#,
            r#"{"type":"simulate","arch":"tc","model":"bert","seed":-1}"#,
            r#"{"type":"simulate","arch":"tc","model":"bert","bandwidth_gbps":0}"#,
            r#"{"type":"sweep","archs":[],"models":["bert"],"sparsities":[0.5]}"#,
            r#"{"type":"train"}"#,
        ] {
            assert!(JobSpec::from_json(bad).is_err(), "{bad} should be rejected");
        }
        assert!(matches!(JobSpec::from_json("{nope"), Err(Error::Parse(_))));
    }

    #[test]
    fn rejects_unknown_fields_with_the_path() {
        let e = JobSpec::from_json(r#"{"type":"simulate","arch":"tc","model":"bert","warp":32}"#)
            .unwrap_err()
            .to_string();
        assert!(e.contains("warp: unknown field"), "{e}");

        let e = JobSpec::from_json(
            r#"{"type":"simulate","arch":"tc",
                "model":{"kind":"bert","tokens":32,"heads":12}}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(e.contains("model.heads: unknown field"), "{e}");

        let e = JobSpec::from_json(
            r#"{"type":"sweep","archs":["tc"],"models":["bert"],
                "sparsities":[0.5],"seed":[0]}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(e.contains("seed: unknown field"), "{e}");
    }

    fn inline_spec_body() -> String {
        let doc = archspec::spec_to_value(Arch::TbStc.model().spec());
        format!(
            r#"{{"type":"simulate","arch_spec":{doc},
                "model":{{"kind":"gcn","nodes":64,"features":16}},
                "sparsity":0.5}}"#
        )
    }

    #[test]
    fn inline_arch_spec_parses_and_keys_by_content() {
        let spec = JobSpec::from_json(&inline_spec_body()).unwrap();
        let JobSpec::Simulate(s) = &spec else {
            panic!("wrong variant");
        };
        assert_eq!(s.arch.canonical_name(), "tb-stc");
        assert!(matches!(s.arch, ArchChoice::Custom(_)));

        // Canonical round-trip through the document form.
        let back = JobSpec::from_json(&spec.canonical_json()).unwrap();
        assert_eq!(spec, back);

        // Same name, different content ⇒ different cache key; the inline
        // spec also never collides with the builtin-by-name job.
        let tweaked = JobSpec::from_json(&inline_spec_body()).map(|mut j| {
            if let JobSpec::Simulate(s) = &mut j {
                if let ArchChoice::Custom(spec) = &mut s.arch {
                    spec.dataflow.efficiency = 0.5;
                }
            }
            j
        });
        assert_ne!(spec.cache_key(), tweaked.unwrap().cache_key());
        let builtin = JobSpec::from_json(
            r#"{"type":"simulate","arch":"tb-stc",
                "model":{"kind":"gcn","nodes":64,"features":16},
                "sparsity":0.5}"#,
        )
        .unwrap();
        assert_ne!(spec.cache_key(), builtin.cache_key());

        // Both arch forms at once is ambiguous.
        let doc = archspec::spec_to_value(Arch::TbStc.model().spec());
        let both = format!(r#"{{"type":"simulate","arch":"tc","arch_spec":{doc},"model":"bert"}}"#);
        assert!(JobSpec::from_json(&both).is_err());

        // Malformed inline documents name the offending field.
        let mut doc = archspec::spec_to_value(Arch::TbStc.model().spec());
        if let Json::Obj(m) = &mut doc {
            m.insert("wave_size".into(), Json::Int(32));
        }
        let body = format!(r#"{{"type":"simulate","arch_spec":{doc},"model":"bert"}}"#);
        let e = JobSpec::from_json(&body).unwrap_err().to_string();
        assert!(e.contains("arch_spec.wave_size"), "{e}");
    }

    #[test]
    fn inline_spec_execute_matches_builtin() {
        let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(DEFAULT_BANDWIDTH_GBPS));
        let inline = JobSpec::from_json(&inline_spec_body()).unwrap();
        let builtin = gcn_spec();
        let a = inline.execute(&engine);
        let b = builtin.execute(&engine);
        // Same simulation, different job documents: results identical.
        assert_eq!(a.get("result"), b.get("result"));
        assert_ne!(a.get("job"), b.get("job"));
    }

    #[test]
    fn arch_names_roundtrip() {
        for arch in Arch::ALL {
            assert_eq!(arch.canonical_name().parse::<Arch>(), Ok(arch));
        }
    }

    #[test]
    fn execute_is_deterministic_and_results_roundtrip() {
        let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(DEFAULT_BANDWIDTH_GBPS));
        let spec = gcn_spec();
        let a = spec.execute(&engine).to_string();
        let b = spec.execute(&engine).to_string();
        assert_eq!(a, b, "identical spec, identical body");

        let body = Json::parse(&a).unwrap();
        assert_eq!(body.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let result = model_result_from_value(body.get("result").unwrap()).unwrap();
        let again = model_result_to_value(&result);
        assert_eq!(body.get("result").unwrap(), &again, "result round-trips");
    }

    #[test]
    fn sim_job_roundtrips() {
        let job = SimJob {
            arch: Arch::RmStc,
            model: ModelSpec::Opt6_7b { tokens: 128 },
            sparsity: 0.75,
            seed: 3,
        };
        let back = sim_job_from_value(&sim_job_to_value(&job)).unwrap();
        assert_eq!(job, back);
    }
}
