//! Property tests for the JSON reader/writer, the decoder of every request
//! body the server accepts.
//!
//! * A generated document written with [`Json::write`] parses back to the
//!   same document, every number bit for bit. Numbers include subnormals,
//!   `±0`, `±f64::MAX` and `f64::MIN_POSITIVE`; strings include control
//!   characters, escapes and non-ASCII text; nesting reaches the parser's
//!   depth limit and one level past it, which must be rejected.
//! * Random bytes, and valid documents with random bytes changed, never
//!   panic the parser: it returns `Ok` or `Err`, what it accepts holds only
//!   finite numbers and writes out to a document it accepts again.
//! * A number is accepted exactly when it follows RFC 8259's grammar and
//!   parses to a finite value; a rejected one is named in the error.

use proptest::prelude::*;
use tsg_faults::splitmix64;
use tsg_serve::json::Json;

/// The deepest nesting level the parser accepts (the top-level value is at
/// level 0, a value inside one array at level 1).
const MAX_DEPTH: usize = 64;

/// Numbers at the edges of `f64` that a shortest-round-trip writer must get
/// exactly right.
const EDGE_NUMBERS: [f64; 14] = [
    0.0,
    -0.0,
    f64::MAX,
    -f64::MAX,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    2.225_073_858_507_201e-308, // the largest subnormal
    1.0,
    -1.5,
    0.1,
    1e300,
    9_007_199_254_740_993.0,
];

/// Characters a string writer must escape or carry through unchanged.
const EDGE_CHARS: [char; 16] = [
    '\u{0}', '\u{8}', '\t', '\n', '\u{c}', '\r', '\u{1f}', '"', '\\', '/', '\u{7f}', 'é', '中',
    '\u{2028}', '\u{ffff}', '😀',
];

/// A deterministic stream of choices for one generated document.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        splitmix64(&mut self.0) % n
    }

    fn number(&mut self) -> f64 {
        match self.below(4) {
            0 => EDGE_NUMBERS[self.below(EDGE_NUMBERS.len() as u64) as usize],
            1 => self.below(2000) as f64 - 1000.0,
            // any finite bit pattern: every exponent, subnormals included
            _ => loop {
                let value = f64::from_bits(splitmix64(&mut self.0));
                if value.is_finite() {
                    break value;
                }
            },
        }
    }

    fn string(&mut self) -> String {
        (0..self.below(12))
            .map(|_| match self.below(4) {
                0 => EDGE_CHARS[self.below(EDGE_CHARS.len() as u64) as usize],
                1 => char::from(0x20 + self.below(0x5f) as u8),
                2 => char::from(self.below(0x20) as u8),
                // any code point; a surrogate is no `char`
                _ => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('x'),
            })
            .collect()
    }

    fn scalar(&mut self) -> Json {
        match self.below(4) {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 1),
            2 => Json::Num(self.number()),
            _ => Json::Str(self.string()),
        }
    }

    /// A random tree at most `levels` levels deep below its root.
    fn tree(&mut self, levels: usize) -> Json {
        if levels == 0 || self.below(3) == 0 {
            return self.scalar();
        }
        let width = self.below(4);
        if self.below(2) == 0 {
            Json::Arr((0..width).map(|_| self.tree(levels - 1)).collect())
        } else {
            Json::Obj(
                (0..width)
                    .map(|_| (self.string(), self.tree(levels - 1)))
                    .collect(),
            )
        }
    }

    /// Wraps `inner` in `levels` single-member arrays or objects.
    fn wrap(&mut self, mut inner: Json, levels: usize) -> Json {
        for _ in 0..levels {
            inner = if self.below(2) == 0 {
                Json::Arr(vec![inner])
            } else {
                Json::Obj(vec![(self.string(), inner)])
            };
        }
        inner
    }
}

/// The deepest level of any value in `value`, which sits at `level`.
fn depth(value: &Json, level: usize) -> usize {
    match value {
        Json::Arr(items) => items
            .iter()
            .map(|v| depth(v, level + 1))
            .max()
            .unwrap_or(level),
        Json::Obj(members) => members
            .iter()
            .map(|(_, v)| depth(v, level + 1))
            .max()
            .unwrap_or(level),
        _ => level,
    }
}

/// Structural equality with numbers compared by bits, so `-0.0` differs
/// from `0.0`.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// Whether every number in `value` is finite (the writer turns the others
/// into `null`).
fn all_finite(value: &Json) -> bool {
    match value {
        Json::Num(x) => x.is_finite(),
        Json::Arr(items) => items.iter().all(all_finite),
        Json::Obj(members) => members.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

/// Parses `text`; an accepted document must write out to one that parses
/// back to it.
fn parse_checked(text: &str) -> Result<(), TestCaseError> {
    if let Ok(value) = Json::parse(text) {
        prop_assert!(
            all_finite(&value),
            "accepted a non-finite number in {:?}",
            text
        );
        let again = Json::parse(&value.write());
        prop_assert!(again.is_ok(), "rewrite of {:?} rejected: {:?}", text, again);
        prop_assert!(
            same(&again.unwrap(), &value),
            "rewrite of {:?} differs",
            text
        );
    }
    Ok(())
}

/// Whether `text` is a number in RFC 8259's grammar:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn in_number_grammar(text: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let body = text.strip_prefix('-').unwrap_or(text);
    let (mantissa, exponent) = match body.split_once(['e', 'E']) {
        Some((mantissa, exponent)) => (mantissa, Some(exponent)),
        None => (body, None),
    };
    let (int, frac) = match mantissa.split_once('.') {
        Some((int, frac)) => (int, Some(frac)),
        None => (mantissa, None),
    };
    digits(int)
        && (int == "0" || !int.starts_with('0'))
        && frac.is_none_or(digits)
        && exponent.is_none_or(|e| digits(e.strip_prefix(['+', '-']).unwrap_or(e)))
}

#[test]
fn numbers_outside_the_grammar_are_rejected_by_name() {
    for text in [
        "-", "-.5", "01", "-01", "00", "1.", "1.e5", "-1.", "1e", "1e+", "1E-", "--1",
    ] {
        let err = Json::parse(text).expect_err(text).to_string();
        assert!(err.contains(&format!("`{text}`")), "{text}: {err}");
        let err = Json::parse(&format!("[{text}]"))
            .expect_err(text)
            .to_string();
        assert!(err.contains(&format!("`{text}`")), "[{text}]: {err}");
    }
    // not a number at all, or a number followed by more characters
    for text in [".5", "+1", "1.5.2", "1e5e5", "0x10"] {
        assert!(Json::parse(text).is_err(), "{text} accepted");
    }
    for text in ["1e400", "-1e400", "1e309", "179769313486231580793728971405303415079934132710037826936173778980444968292764750946649017977587207096330286416692887910946555547851940402630657488671505820681908902000708383676273854845817711531764475730270069855571366959622842914819860834936475292719074168444365510704342711559699508093042880177904174497792"] {
        let err = Json::parse(text).expect_err(text).to_string();
        assert!(err.contains("out of range") && err.contains(text), "{text}: {err}");
    }
}

#[test]
fn numbers_in_the_grammar_are_accepted() {
    for (text, value) in [
        ("0", 0.0),
        ("-0", -0.0),
        ("0.5", 0.5),
        ("-0.5e1", -5.0),
        ("10", 10.0),
        ("1E2", 100.0),
        ("1e+2", 100.0),
        ("25e-1", 2.5),
        ("0e0", 0.0),
        ("1e-400", 0.0),
        ("1.7976931348623157e308", f64::MAX),
    ] {
        let parsed = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(
            parsed.as_f64().map(f64::to_bits),
            Some(value.to_bits()),
            "{text}"
        );
    }
}

/// Characters of numbers, weighted towards the ones the grammar turns on.
const NUMBER_ALPHABET: &[u8] = b"0000123456789--+..eE";

/// Bytes that steer random input into the parser's states.
const ALPHABET: &[u8] = b"[]{}\",:\\/ubfnrt0123456789+-.eEaxl \t\n\r\x00\x1f\x7f\xc3\xa9\xf0\x9f";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn written_documents_parse_back_bit_exactly(
        seed in 0u64..u64::MAX,
        extra_levels in 0usize..MAX_DEPTH + 2,
    ) {
        let mut draw = Draw(seed);
        let tree = draw.tree(4);
        let document = draw.wrap(tree, extra_levels);
        let text = document.write();
        let parsed = Json::parse(&text);
        if depth(&document, 0) <= MAX_DEPTH {
            prop_assert!(parsed.is_ok(), "rejected {:?}: {:?}", text, parsed);
            prop_assert!(same(&parsed.unwrap(), &document), "{:?} parsed differently", text);
        } else {
            prop_assert!(parsed.is_err(), "accepted nesting past the limit: {:?}", text);
        }
    }

    #[test]
    fn random_bytes_never_panic(
        bytes in prop::collection::vec(0u16..256, 0..256),
        soup in prop::collection::vec(0usize..ALPHABET.len(), 0..256),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        parse_checked(&String::from_utf8_lossy(&bytes))?;
        let soup: Vec<u8> = soup.into_iter().map(|i| ALPHABET[i]).collect();
        parse_checked(&String::from_utf8_lossy(&soup))?;
    }

    #[test]
    fn numbers_parse_exactly_when_in_the_grammar(
        pieces in prop::collection::vec(0usize..NUMBER_ALPHABET.len(), 1..12),
    ) {
        let text: String = pieces.into_iter().map(|i| NUMBER_ALPHABET[i] as char).collect();
        let finite = text.parse::<f64>().is_ok_and(f64::is_finite);
        let expected = in_number_grammar(&text) && finite;
        let parsed = Json::parse(&text);
        prop_assert!(parsed.is_ok() == expected, "{:?} gave {:?}", text, parsed);
        if let Ok(value) = parsed {
            let exact = text.parse::<f64>().ok().map(f64::to_bits);
            prop_assert!(value.as_f64().map(f64::to_bits) == exact, "{:?} parsed inexactly", text);
        }
    }

    #[test]
    fn damaged_documents_never_panic(
        seed in 0u64..u64::MAX,
        edits in prop::collection::vec((0usize..4096, 0usize..ALPHABET.len(), 0u8..3), 1..6),
    ) {
        let mut draw = Draw(seed);
        let mut bytes = draw.tree(4).write().into_bytes();
        for (at, byte, kind) in edits {
            let at = at % (bytes.len() + 1);
            let byte = ALPHABET[byte];
            match kind {
                0 => bytes.insert(at, byte),
                1 if at < bytes.len() => bytes[at] = byte,
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.push(byte),
            }
        }
        parse_checked(&String::from_utf8_lossy(&bytes))?;
    }
}
