//! Property tests for the lexer on adversarial input: random
//! concatenations of the constructs most likely to confuse a token
//! scanner — nested block comments inside raw strings, lifetimes
//! adjacent to char literals, `>>` in generics, `//` inside string
//! literals — asserting that token spans always round-trip to the
//! source: in-order, non-overlapping, on char boundaries, tiling every
//! non-whitespace byte, with line/col derivable from the offsets.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking, helpers included"
)]

use proptest::prelude::*;
use tbstc_lint::lexer::{lex, TokKind};

/// The adversarial vocabulary. Every fragment is a complete lexeme
/// sequence on its own, so fragments can also be checked compositionally.
const FRAGMENTS: &[&str] = &[
    // Raw strings hiding comment/quote syntax, any number of hashes.
    "r#\"/* nested /* block */ comment */\"#",
    "r##\"quote \"# inside\"##",
    "br#\"bytes // not a comment\"#",
    "r\"multi\nline raw\"",
    // Char literals vs lifetimes, adjacent and escaped.
    "'a'",
    "'a",
    "'\\''",
    "'\\\\'",
    "'é'",
    "<'a,'b>",
    "foo::<'static>('x')",
    // `>>` in generics, shifts, compound assignment.
    "x::<Vec<Vec<u8>>>()",
    "a>>=b",
    "m >> 2",
    // Comments, nested and doc.
    "/* /* deep /* deeper */ */ */",
    "// trailing line comment",
    "/// doc \"with quotes\"",
    "//! inner doc",
    "/** block doc */",
    // Strings that look like other things.
    "\"str with // not a comment\"",
    "\"escaped \\\" quote\"",
    "\"—unicode– contents\"",
    // Loose numerics and raw identifiers.
    "1_000.5e-3",
    "0xFF_u32",
    "r#match",
    "b'\\xFF'",
    "let x: &'a str = \"y\";",
];

const SEPS: &[&str] = &[" ", "\n", "\t", "", "  \n\n", "\r\n"];

/// Asserts every span invariant the engine relies on.
fn assert_round_trip(src: &str) {
    let tokens = lex(src);
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let mut prev_pos = (0u32, 0u32);
    for t in &tokens {
        assert!(t.start >= pos, "overlapping or unordered token {t:?}");
        assert!(t.start < t.end, "empty token {t:?}");
        assert!(t.end <= src.len(), "token past the end {t:?}");
        assert!(
            src.get(t.start..t.end).is_some(),
            "span off a char boundary: {t:?} in {src:?}"
        );
        let gap = src.get(pos..t.start).expect("gap on char boundaries");
        assert!(
            gap.chars().all(char::is_whitespace),
            "uncovered non-whitespace {gap:?} before {t:?} in {src:?}"
        );
        // line/col must be derivable from the byte offset alone.
        let line = 1 + bytes[..t.start].iter().filter(|&&b| b == b'\n').count() as u32;
        let line_start = bytes[..t.start]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        let col = (t.start - line_start + 1) as u32;
        assert_eq!((t.line, t.col), (line, col), "bad position for {t:?}");
        assert!((t.line, t.col) > prev_pos, "positions not increasing");
        prev_pos = (t.line, t.col);
        pos = t.end;
    }
    let tail = src.get(pos..).expect("tail on char boundaries");
    assert!(
        tail.chars().all(char::is_whitespace),
        "uncovered trailing bytes {tail:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary fragment soups — including empty separators, which
    /// glue fragments into new composite lexemes — still tile exactly.
    #[test]
    fn token_spans_tile_any_fragment_soup(
        pieces in proptest::collection::vec(
            (0usize..FRAGMENTS.len(), 0usize..SEPS.len()),
            1..32,
        ),
    ) {
        let mut src = String::new();
        for &(f, s) in &pieces {
            src.push_str(FRAGMENTS[f]);
            src.push_str(SEPS[s]);
        }
        assert_round_trip(&src);
    }

    /// With newline separators every fragment stays self-delimiting, so
    /// lexing the concatenation must equal concatenating the lexes.
    #[test]
    fn newline_separated_fragments_lex_compositionally(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 1..24),
    ) {
        let src: String = picks
            .iter()
            .map(|&f| format!("{}\n", FRAGMENTS[f]))
            .collect();
        assert_round_trip(&src);
        let got: Vec<(TokKind, String)> = lex(&src)
            .iter()
            .map(|t| (t.kind, t.text(&src).to_string()))
            .collect();
        let want: Vec<(TokKind, String)> = picks
            .iter()
            .flat_map(|&f| {
                let frag = FRAGMENTS[f];
                lex(frag)
                    .iter()
                    .map(|t| (t.kind, t.text(frag).to_string()))
                    .collect::<Vec<_>>()
            })
            .collect();
        prop_assert_eq!(got, want);
    }
}

/// The targeted shapes the vocabulary is built around, pinned exactly.
#[test]
fn adversarial_shapes_lex_to_the_expected_kinds() {
    let kinds = |src: &str| lex(src).iter().map(|t| t.kind).collect::<Vec<_>>();

    // A nested block comment inside a raw string is one string literal.
    assert_eq!(
        kinds("r#\"/* nested /* block */ comment */\"#"),
        [TokKind::StrLit]
    );
    // Lifetime adjacent to a char literal stays two tokens.
    assert_eq!(
        kinds("foo::<'static>('x')"),
        [
            TokKind::Ident,
            TokKind::Punct,
            TokKind::Punct,
            TokKind::Lifetime,
            TokKind::Punct,
            TokKind::Punct,
            TokKind::CharLit,
            TokKind::Punct,
        ]
    );
    // `>>` closing nested generics is two puncts, not a shift operator
    // token that would desynchronize spans.
    let src = "x::<Vec<Vec<u8>>>()";
    assert_round_trip(src);
    assert_eq!(
        lex(src).iter().filter(|t| t.text(src) == ">").count(),
        3,
        "every `>` is its own token"
    );
    // Nesting depth is tracked: one comment, fully consumed.
    assert_eq!(
        kinds("/* /* deep /* deeper */ */ */"),
        [TokKind::BlockComment]
    );
    // `//` inside a string never starts a comment.
    assert_eq!(
        kinds("\"str with // not a comment\" 1"),
        [TokKind::StrLit, TokKind::Num]
    );
}
