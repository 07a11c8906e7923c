//! Golden mask fixture: the kept set of every pattern, bit-identical.
//!
//! `tests/fixtures/golden_masks.txt` holds, for each input and target
//! sparsity in {0, 0.3, 0.5, 0.75, 0.875, 0.95, 1.0}:
//!
//! * every [`PatternKind`] at its paper configuration, plus tile N:M at a
//!   fixed 2:4 and 4:8;
//! * TBS at block sizes M ∈ {4, 8, 16, 32}, with every block's `(N, dim)`.
//!
//! Each line records the kept count, an FNV-1a digest of the mask's keep
//! flags (row-major) and one of the input with the mask applied (raw
//! IEEE-754 bits, so NaN payloads, `-0.0` and infinities count). The
//! inputs are a 128×128 block-structured sample (the simulator's default
//! `sample_dim`), a ragged 44×84 one, and a 36×44 score matrix of NaN,
//! ±0.0, ±inf and tied values mixed with Gaussian draws. Edge targets
//! (0, 0.95, 1) are where TBS blocks with N = 0 or N = M dominate.
//!
//! No case panics: the comparator that sorts a NaN lane is an insertion
//! sort, so TBS at M = 32 on the NaN-holding input, whose 32-wide NaN
//! lanes the standard library's `sort_by` rejects as an order violation,
//! records a mask like every other case.
//!
//! TBS blocks are written one character each, in row-major block order
//! with `/` between block rows: the index of `N` in the candidate ladder
//! as a digit (`0`–`9`) for a reduction-dimension block, or as a letter
//! (`a`–`j`) for an independent-dimension one.
//!
//! Regenerate (only when a behaviour change is intended and reviewed):
//!
//! ```sh
//! TBSTC_BLESS=1 cargo test -p tbstc-sparsity --test golden_masks
//! ```

use tbstc_matrix::rng::MatrixRng;
use tbstc_matrix::Matrix;
use tbstc_sparsity::pattern::{paper_pattern, TileNm};
use tbstc_sparsity::{Mask, Pattern, PatternKind, SparsityDim, TbsConfig, TbsPattern};

const FIXTURE_REL: &str = "tests/fixtures/golden_masks.txt";
const TARGETS: [f64; 7] = [0.0, 0.3, 0.5, 0.75, 0.875, 0.95, 1.0];
const TBS_BLOCKS: [usize; 4] = [4, 8, 16, 32];
const TILES: [(usize, usize); 2] = [(2, 4), (4, 8)];

/// Scores with NaN, both zeros, both infinities and ties, mixed with
/// Gaussian draws.
fn special_scores(seed: u64, rows: usize, cols: usize) -> Matrix {
    const ALPHABET: [f32; 9] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -2.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let mut rng = MatrixRng::seed_from(seed);
    Matrix::from_fn(rows, cols, |_, _| match rng.index(ALPHABET.len() + 6) {
        i if i < ALPHABET.len() => ALPHABET[i],
        _ => rng.standard_normal(),
    })
}

fn inputs() -> Vec<(&'static str, Matrix)> {
    vec![
        (
            "paper128",
            MatrixRng::seed_from(1).block_structured_weights(128, 128, 8),
        ),
        (
            "ragged44x84",
            MatrixRng::seed_from(2).block_structured_weights(44, 84, 8),
        ),
        ("special36x44", special_scores(3, 36, 44)),
    ]
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn render(input: &str, target: f64, case: &str, w: &Matrix, mask: &Mask) -> String {
    let keep = fnv((0..mask.rows()).flat_map(|r| mask.row(r).iter().map(|&k| u8::from(k))));
    let applied = fnv(mask
        .apply(w)
        .as_slice()
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes()));
    format!(
        "input={input} target={target} {case} kept={} keep={keep:016x} applied={applied:016x}",
        mask.count_kept()
    )
}

fn blocks(p: &TbsPattern) -> String {
    let cands = &p.config().n_candidates;
    let grid_cols = p.grid().1;
    let mut out = String::new();
    for (i, b) in p.blocks().iter().enumerate() {
        if i > 0 && i % grid_cols == 0 {
            out.push('/');
        }
        // The ladder is strictly increasing, so this is N's index.
        let idx = cands.partition_point(|&c| c < b.n);
        let base = match b.dim {
            SparsityDim::Reduction => b'0',
            SparsityDim::Independent => b'a',
        };
        out.push(char::from(base + idx as u8));
    }
    out
}

fn current() -> String {
    let mut out = String::new();
    out.push_str("# Golden mask fixture: every pattern's kept set and TBS block choices.\n");
    out.push_str("# Inputs paper128, ragged44x84, special36x44 (NaN, +-0, +-inf, ties);\n");
    out.push_str("# targets {0, 0.3, 0.5, 0.75, 0.875, 0.95, 1}; TBS M in {4, 8, 16, 32}.\n");
    for (input, w) in inputs() {
        for target in TARGETS {
            for kind in PatternKind::ALL {
                let mask = paper_pattern(kind).project(&w, target);
                out.push_str(&render(
                    input,
                    target,
                    &format!("pattern={kind}"),
                    &w,
                    &mask,
                ));
                out.push('\n');
            }
            for (n, m) in TILES {
                let mask = TileNm::new(n, m).project(&w, target);
                let case = format!("pattern=TS{n}:{m}");
                out.push_str(&render(input, target, &case, &w, &mask));
                out.push('\n');
            }
            for m in TBS_BLOCKS {
                let case = format!("pattern=TBS m={m}");
                let p = TbsPattern::sparsify(&w, target, &TbsConfig::with_block_size(m));
                out.push_str(&render(input, target, &case, &w, p.mask()));
                out.push_str(&format!(" blocks={}\n", blocks(&p)));
            }
        }
    }
    out
}

#[test]
fn masks_bit_identical_to_golden_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE_REL);
    let got = current();
    if std::env::var_os("TBSTC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    for (w, g) in want.lines().zip(got.lines()) {
        assert_eq!(w, g, "golden mask fixture mismatch");
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "golden mask fixture case-count mismatch"
    );
}

#[test]
fn mask_fixture_covers_every_pattern_target_and_block_size() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE_REL);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    let cases: Vec<&str> = text.lines().filter(|l| l.starts_with("input=")).collect();
    let per_target = PatternKind::ALL.len() + TILES.len() + TBS_BLOCKS.len();
    assert_eq!(
        cases.len(),
        inputs().len() * TARGETS.len() * per_target,
        "one fixture line per case"
    );
    for kind in PatternKind::ALL {
        let tag = format!(" pattern={kind} ");
        assert!(cases.iter().any(|l| l.contains(&tag)), "{tag}");
    }
    for m in TBS_BLOCKS {
        let tag = format!(" pattern=TBS m={m} ");
        let tbs = cases.iter().filter(|l| l.contains(&tag));
        assert!(
            tbs.clone()
                .all(|l| l.contains(" blocks=") || l.ends_with(" panics")),
            "{tag}"
        );
        assert!(tbs.filter(|l| l.contains(" blocks=")).count() > 0, "{tag}");
    }
    // The edge targets pin blocks at N = 0 and N = M in both inputs that
    // have full blocks.
    for target in [0.0, 1.0] {
        let prefix = format!("input=paper128 target={target} pattern=TBS m=8 ");
        assert!(cases.iter().any(|l| l.starts_with(&prefix)), "{prefix}");
    }
}
