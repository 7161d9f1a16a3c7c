//! Property test of `spt::json`: `Json::validate` accepts exactly what
//! `Json::parse` accepts. The inputs are compact dumps of random values,
//! every kind of truncation of them, and byte-mutated copies, so both
//! sides see valid documents and near-misses of every shape.

use proptest::prelude::*;
use proptest::TestRng;
use spt::Json;

/// Bytes a mutation writes: every structural character, the starts of
/// every literal and number form, escapes, whitespace and line breaks, and
/// plain letters.
const ALPHABET: &[u8] = b"{}[]\":,\\ \t\n\r0123456789-+.eEtrufalsn/bxz\x01";

/// A string of characters `dump` escapes and ones it writes as they are.
fn random_string(rng: &mut TestRng) -> String {
    const CHARS: [char; 12] = [
        'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', 'é', '€', '😀',
    ];
    (0..rng.below(6))
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

fn random_json(rng: &mut TestRng, depth: u32) -> Json {
    const EXTREMES: [Json; 5] = [
        Json::Int(i64::MIN),
        Json::Int(i64::MAX),
        Json::Int(-1),
        Json::UInt(u64::MAX),
        Json::UInt(0),
    ];
    let kinds = if depth == 0 { 8 } else { 10 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Int(rng.next_u64() as i64 >> rng.below(64)),
        3 => Json::UInt(rng.next_u64() >> rng.below(64)),
        4 => Json::Float(f64::from_bits(rng.next_u64())),
        5 => Json::Float((rng.next_u64() >> 40) as f64 / 1024.0),
        6 => Json::Str(random_string(rng)),
        7 => EXTREMES[rng.below(EXTREMES.len() as u64) as usize].clone(),
        8 => Json::Array(
            (0..rng.below(4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.below(4))
                .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn agree(text: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        Json::validate(text),
        Json::parse(text).is_ok(),
        "validate and parse disagree on {:?}",
        text
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn validate_accepts_exactly_what_parse_accepts(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let doc = random_json(&mut rng, 4);
        let text = doc.dump();
        prop_assert!(Json::validate(&text), "a dump must validate: {:?}", text);
        agree(&text)?;

        // Every truncation that ends on a character boundary.
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            agree(&text[..cut])?;
        }

        // Mutations: overwrite, insert or delete a few bytes; keep the
        // results that are still UTF-8.
        for _ in 0..32 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                let b = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
                match rng.below(3) {
                    0 if at < bytes.len() => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.push(b),
                }
            }
            if let Ok(mutated) = String::from_utf8(bytes) {
                agree(&mutated)?;
            }
        }
    }
}
