//! Differential property battery for the byte-level lexer fast path.
//!
//! The fast path (`schevo_ddl::lexer`: ASCII class dispatch + SWAR
//! chunk scanning) must be observationally identical to the retired
//! character-oriented lexer, which is kept verbatim as
//! `schevo_ddl::lexer::reference` precisely to serve as this oracle:
//! same tokens, same spans, same recovered-error offsets and messages —
//! on clean DDL, on arbitrary mutated bytes, and on every corruption
//! class the corpus fault generator can produce.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use schevo_corpus::faultgen::{corrupt_versions, FaultClass};
use schevo_ddl::lexer::{self, reference};
use schevo_vcs::history::FileVersion;
use schevo_vcs::sha1::Digest;
use schevo_vcs::timestamp::Timestamp;

/// Tokenize through both lexers and demand bit-identical observables:
/// the token vectors (kinds and byte spans) and the recovered error's
/// span and rendered message.
fn assert_lexers_agree(input: &str) {
    let (fast_tokens, fast_err) = lexer::tokenize_recovering(input);
    let (ref_tokens, ref_err) = reference::tokenize_recovering(input);
    assert_eq!(
        fast_tokens, ref_tokens,
        "token streams diverged on {input:?}"
    );
    let fast_err = fast_err.map(|e| (e.span, e.to_string()));
    let ref_err = ref_err.map(|e| (e.span, e.to_string()));
    assert_eq!(fast_err, ref_err, "lex errors diverged on {input:?}");

    // The strict entry points must agree too (identical Ok tokens or
    // identical error span + message).
    match (lexer::tokenize(input), reference::tokenize(input)) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (Err(a), Err(b)) => {
            assert_eq!((a.span, a.to_string()), (b.span, b.to_string()));
        }
        (a, b) => panic!("strict outcomes diverged on {input:?}: {a:?} vs {b:?}"),
    }
}

/// Base documents covering every token class: strings with escapes and
/// doubled quotes, backquoted and double-quoted identifiers, nested block
/// comments, hex/float/exponent numbers, punctuation runs, and non-ASCII
/// identifier bytes.
const BASES: &[&str] = &[
    "CREATE TABLE users (id INT(11) NOT NULL, email VARCHAR(255) DEFAULT 'a@b.c', \
     PRIMARY KEY (id)) ENGINE=InnoDB;",
    "-- line comment\nCREATE TABLE t (a DECIMAL(10,2), b FLOAT DEFAULT 1.5e-3, c INT DEFAULT 0x1F);",
    "/* outer /* nested */ still outer */ CREATE TABLE `weird ``name` (\"col\"\"x\" TEXT);",
    "INSERT INTO logs VALUES ('it''s \\'fine\\'', \"not\\na string\", `tick`);",
    "CREATE TABLE naïve_täble (übercol INT, $dollar INT, _under INT);",
    "ALTER TABLE a ADD COLUMN w TEXT; DROP TABLE IF EXISTS b, c;\n\
     SELECT 1 <> 2, 3 != 4, a <= b >= c;",
    "",
    "'unterminated",
    "`unterminated ident",
    "/* unterminated /* nested comment",
];

fn base() -> impl Strategy<Value = String> {
    (0..BASES.len()).prop_map(|i| BASES[i].to_string())
}

fn version(content: &str) -> FileVersion {
    FileVersion {
        commit: Digest([0u8; 20]),
        timestamp: Timestamp::from_date(2019, 1, 1),
        author: "dev".into(),
        message: "v".into(),
        content: content.into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte mutations of realistic DDL lex identically through
    /// both paths — tokens, spans, and error offsets.
    #[test]
    fn mutated_bytes_lex_identically(
        doc in base(),
        muts in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..12),
    ) {
        let mut bytes = doc.into_bytes();
        for &(frac, val) in &muts {
            if bytes.is_empty() {
                break;
            }
            let pos = (frac as usize * (bytes.len() - 1)) / u16::MAX as usize;
            bytes[pos] = val;
        }
        let input = String::from_utf8_lossy(&bytes).into_owned();
        assert_lexers_agree(&input);
    }

    /// Fully random byte soup (no DDL structure at all) also agrees —
    /// this is where the SWAR tail/boundary handling earns its keep.
    #[test]
    fn random_byte_soup_lexes_identically(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let input = String::from_utf8_lossy(&bytes).into_owned();
        assert_lexers_agree(&input);
    }

    /// Every truncation point of every base document agrees, including
    /// cuts that land inside strings, comments, and multi-byte chars.
    #[test]
    fn truncations_lex_identically(doc in base(), cut_frac in any::<u16>()) {
        let mut cut = (cut_frac as usize * doc.len()) / u16::MAX as usize;
        while cut > 0 && !doc.is_char_boundary(cut) {
            cut -= 1;
        }
        assert_lexers_agree(&doc[..cut]);
    }

    /// Content produced by the corpus fault generator's corruption
    /// classes lexes identically through both paths.
    #[test]
    fn faultgen_corruption_lexes_identically(
        doc in base(),
        class_idx in 0..FaultClass::ALL.len(),
        seed in any::<u64>(),
    ) {
        let class = FaultClass::ALL[class_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut versions = vec![version(&doc), version(&format!("{doc}\n-- v2"))];
        // Inapplicable class/content combinations return None and leave
        // the versions untouched — still worth lexing.
        let _ = corrupt_versions(&mut versions, class, &mut rng);
        for v in &versions {
            assert_lexers_agree(&v.content);
        }
    }
}

/// One deterministic sweep of every fault class over every base, so a
/// plain `cargo test` exercises the whole catalog even at low proptest
/// case counts.
#[test]
fn every_fault_class_sweeps_every_base() {
    let mut rng = StdRng::seed_from_u64(2019);
    for class in FaultClass::ALL {
        for doc in BASES {
            let mut versions = vec![version(doc), version(&format!("{doc}\n-- tail"))];
            let _ = corrupt_versions(&mut versions, class, &mut rng);
            for v in &versions {
                assert_lexers_agree(&v.content);
            }
        }
    }
}
