//! Text mutations shared by the fuzz tests of the TOML readers: the
//! rule reader here, the fault-plan reader in `faultkit` and the
//! scenario-file reader in `wavelan`, which include this file by path.
//! A mutation truncates, flips bits, splices a token, rewrites a value
//! (huge, negative, fractional, non-finite, an array or unterminated),
//! drops a closing quote, duplicates a line or inserts a raw byte.

/// Values a `key = ` line is rewritten to.
const VALUES: [&str; 21] = [
    "1e999",
    "-1e999",
    "18446744073709551616",
    "-18446744073709551616",
    "-5",
    "0",
    "0.5",
    "nan",
    "inf",
    "-inf",
    "0x10",
    "\"",
    "\"text\"",
    "",
    "9007199254740993",
    "1e3",
    "[1, 2]",
    "[1]",
    "[0.5, -1e999]",
    "[",
    "true",
];

/// One mutation: `(op, a, b)` with `a`, `b` reduced modulo whatever
/// they index.
pub type Op = (u8, usize, usize);

pub fn apply(bytes: &mut Vec<u8>, (op, a, b): Op, tokens: &[&str]) {
    let len = bytes.len();
    let lines = |bytes: &[u8]| -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start = 0;
        for (i, &c) in bytes.iter().enumerate() {
            if c == b'\n' {
                out.push((start, i));
                start = i + 1;
            }
        }
        out.push((start, bytes.len()));
        out
    };
    match op % 7 {
        // Truncate.
        0 => bytes.truncate(a % (len + 1)),
        // Flip bits of one byte (maybe into invalid UTF-8).
        1 if len > 0 => bytes[a % len] ^= (b % 255 + 1) as u8,
        // Splice one of `tokens`.
        2 => {
            let at = a % (len + 1);
            bytes.splice(at..at, tokens[b % tokens.len()].bytes());
        }
        // Rewrite a value: huge, negative, non-finite or unterminated.
        3 => {
            let ls = lines(bytes);
            let (start, end) = ls[a % ls.len()];
            if let Some(eq) = bytes[start..end].iter().position(|&c| c == b'=') {
                let v = VALUES[b % VALUES.len()];
                bytes.splice(start + eq + 1..end, format!(" {v}").into_bytes());
            }
        }
        // Drop a line's closing quote.
        4 => {
            let ls = lines(bytes);
            let (start, end) = ls[a % ls.len()];
            if let Some(q) = bytes[start..end].iter().rposition(|&c| c == b'"') {
                bytes.remove(start + q);
            }
        }
        // Duplicate a line (a repeated key or table header) elsewhere.
        5 => {
            let ls = lines(bytes);
            let (start, end) = ls[a % ls.len()];
            let mut line = bytes[start..end].to_vec();
            line.push(b'\n');
            let (at, _) = ls[b % ls.len()];
            bytes.splice(at..at, line);
        }
        // A raw byte.
        _ => {
            let at = a % (len + 1);
            bytes.insert(at, b as u8);
        }
    }
}

/// A reader's error names its line: `"{label} line N: …"`.
pub fn assert_structured(err: &str, label: &str) {
    let rest = err
        .strip_prefix(label)
        .and_then(|r| r.strip_prefix(" line "))
        .unwrap_or_else(|| panic!("unstructured error: {err:?}"));
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    assert!(
        digits > 0 && rest[digits..].starts_with(": "),
        "unstructured error: {err:?}"
    );
}
