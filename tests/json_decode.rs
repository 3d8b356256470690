//! The vendored JSON decoder copies each run of plain string characters in
//! one step. This battery holds it equal to the decoder it replaced, kept
//! below verbatim (it validated the whole rest of the input once per
//! character, so decoding a string took time quadratic in its length):
//! same `Ok` value, same `Err` message, on escapes, `\u` surrogate pairs
//! (valid, lone and malformed), non-ASCII text, raw control characters, and
//! every prefix of each document.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// The decoder as it was before string runs were copied whole. Only the
/// error type is local and the layout is rustfmt's; the logic is unchanged.
mod quadratic {
    use serde_json::Value;

    pub struct Error {
        pub msg: String,
    }

    impl Error {
        fn new(msg: impl Into<String>) -> Error {
            Error { msg: msg.into() }
        }
    }

    type Result<T> = std::result::Result<T, Error>;

    pub fn parse_value_str(s: &str) -> Result<Value> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(Error::new(format!("trailing characters at byte {pos}")));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                expect_lit(b, pos, "null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                expect_lit(b, pos, "true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                expect_lit(b, pos, "false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => parse_string(b, pos).map(Value::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(Error::new(format!("expected `,` or `]` at byte {pos}"))),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut entries = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(Error::new(format!("expected `:` at byte {pos}")));
                    }
                    *pos += 1;
                    let value = parse_value(b, pos)?;
                    entries.push((key, value));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(Error::new(format!("expected `,` or `}}` at byte {pos}"))),
                    }
                }
            }
            Some(_) => parse_number(b, pos),
        }
    }

    fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<()> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(Error::new(format!("expected `{lit}` at byte {pos}")))
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(Error::new(format!("expected string at byte {pos}")));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let mut cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            *pos += 4;
                            // Surrogate pair.
                            if (0xD800..0xDC00).contains(&cp)
                                && b.get(*pos + 1) == Some(&b'\\')
                                && b.get(*pos + 2) == Some(&b'u')
                            {
                                if let Some(hex2) = b.get(*pos + 3..*pos + 7) {
                                    if let Ok(low) = u32::from_str_radix(
                                        std::str::from_utf8(hex2).unwrap_or(""),
                                        16,
                                    ) {
                                        if (0xDC00..0xE000).contains(&low) {
                                            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                            *pos += 6;
                                        }
                                    }
                                }
                            }
                            out.push(char::from_u32(cp).unwrap_or(char::REPLACEMENT_CHARACTER));
                        }
                        _ => return Err(Error::new("invalid escape")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&b[*pos..]).map_err(|_| Error::new("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let mut is_float = false;
        while let Some(&c) = b.get(*pos) {
            match c {
                b'0'..=b'9' => *pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    *pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&b[start..*pos]).map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::new(format!("expected number at byte {start}")));
        }
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped.parse::<u64>().is_ok() {
                    return text
                        .parse::<i64>()
                        .map(Value::I64)
                        .map_err(|_| Error::new("integer out of range"));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

fn decode(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| e.to_string())
}

fn decode_quadratic(text: &str) -> Result<Value, String> {
    quadratic::parse_value_str(text).map_err(|e| e.msg)
}

/// Demand both decoders agree on `doc` and on every prefix of it.
fn assert_agree(doc: &str) -> Result<(), TestCaseError> {
    for end in (0..=doc.len()).filter(|&i| doc.is_char_boundary(i)) {
        let text = &doc[..end];
        prop_assert_eq!(decode(text), decode_quadratic(text), "on {:?}", text);
    }
    Ok(())
}

/// String-body pieces: plain and non-ASCII text, every escape, `\u`
/// escapes with valid, lone and malformed surrogates, raw control
/// characters, and stray backslashes.
const PIECES: &[&str] = &[
    "plain",
    " ",
    "é",
    "本",
    "😀",
    "ß—¥",
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\r",
    "\\t",
    "\\b",
    "\\f",
    "\\u0041",
    "\\u00e9",
    "\\u672c",
    "\\uD83D\\uDE00",
    "\\uD83D",
    "\\uDE00",
    "\\uD83D\\u0041",
    "\\uD83Dx",
    "\\uD83D\\uZZZZ",
    "\\uD83D\\",
    "\\uD83D\\u12",
    "\\u12G4",
    "\\u+041",
    "\\u00",
    "\\u",
    "\\x",
    "\\é",
    "\\",
    "\u{0}",
    "\u{1}",
    "\u{1f}",
    "\t",
    "\n",
    "\u{7f}",
    "\"",
];

fn random_string(rng: &mut StdRng) -> String {
    let mut s = String::from("\"");
    for _ in 0..rng.gen_range(0..12) {
        s.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
    }
    if rng.gen_bool(0.9) {
        s.push('"');
    }
    s
}

fn random_document(rng: &mut StdRng, depth: u32) -> String {
    match rng.gen_range(0..if depth > 2 { 2 } else { 5 }) {
        0 => random_string(rng),
        1 => ["null", "true", "-12", "3.5e2", "0", "nul"][rng.gen_range(0..6)].to_string(),
        2 => {
            let items: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| random_document(rng, depth + 1))
                .collect();
            format!("[{}]", items.join(", "))
        }
        _ => {
            let entries: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| {
                    format!(
                        "{}: {}",
                        random_string(rng),
                        random_document(rng, depth + 1)
                    )
                })
                .collect();
            format!("{{{}}}", entries.join(","))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoders_agree_on_random_documents_and_their_prefixes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_agree(&random_document(&mut rng, 0))?;
    }
}

#[test]
fn decoders_agree_on_every_piece_and_pair_of_pieces() {
    for a in PIECES {
        for b in PIECES {
            let doc = format!("[\"{a}{b}\", \"x\"]");
            if let Err(e) = assert_agree(&doc) {
                panic!("{e:?}");
            }
        }
    }
}

#[test]
fn committed_study_results_decode_alike() {
    let text = include_str!("../study_results.json");
    let value = decode(text).expect("study_results.json must decode");
    assert_eq!(Ok(value), decode_quadratic(text));
}
