//! The TOML subset behind every input file: alert rules
//! ([`RuleSet::from_toml`]), scenario packs
//! (`wavelan::ScenarioPack::from_toml`), scenario files
//! (`wavelan::Scenario::from_toml`) and fault plans
//! (`faultkit::FaultPlan::from_toml`).
//!
//! A document is read line by line. Blank lines and `#` comments
//! outside quoted strings are skipped, `[[name]]` opens a new table of
//! the one kind the front end accepts, and every other line is
//! `key = value`. The front end takes each key it knows from a
//! [`Table`] and parses the value with the value readers here (quoted
//! strings without escapes, finite numbers, exact integers, booleans,
//! inline arrays) or its own. A key left over, unknown or repeated, is
//! an error.
//!
//! [`RuleSet::from_toml`]: crate::RuleSet::from_toml

/// One `key = value` line: `(line, key, value, taken)`.
type Entry<'d> = (usize, &'d str, &'d str, bool);

/// One table of document `'d`: the top level or one `[[table]]`.
#[derive(Debug)]
pub struct Table<'a, 'd> {
    /// 0 for the top level, `n` for the document's `n`-th `[[table]]`.
    pub index: usize,
    /// The accepted table name, for messages.
    name: &'a str,
    /// The header's line; 1 for the top level.
    line: usize,
    /// The table's entries, in document order.
    entries: &'a mut [Entry<'d>],
    /// The line an error is reported at: the last entry taken, else
    /// the header.
    at: usize,
}

impl Table<'_, '_> {
    /// The value of `key` read by `parse`, or `None` when the table
    /// does not set it.
    pub fn get<T>(
        &mut self,
        key: &'static str,
        parse: impl FnOnce(&str, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let Some(entry) = self.entries.iter_mut().find(|e| e.1 == key) else {
            return Ok(None);
        };
        entry.3 = true;
        self.at = entry.0;
        parse(key, entry.2).map(Some)
    }

    /// Like [`get`](Self::get), but a missing key is an error, which
    /// names the table's header line.
    pub fn need<T>(
        &mut self,
        key: &'static str,
        parse: impl FnOnce(&str, &str) -> Result<T, String>,
    ) -> Result<T, String> {
        if let Some(value) = self.get(key, parse)? {
            return Ok(value);
        }
        self.at = self.line;
        Err(match self.index {
            0 => format!("the top level has no '{key}'"),
            n => format!("[[{}]] {n} has no '{key}'", self.name),
        })
    }

    /// Hand `visit` every entry not taken yet, in document order: free
    /// keys such as a pack model's parameters. A key the table already
    /// set above is refused as a duplicate: `get` takes the first.
    pub fn rest(
        &mut self,
        mut visit: impl FnMut(&str, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        for i in 0..self.entries.len() {
            let (line, key, value, taken) = self.entries[i];
            if !taken {
                self.at = line;
                if self.entries[..i].iter().any(|e| e.1 == key) {
                    return Err(format!("duplicate key '{key}'"));
                }
                self.entries[i].3 = true;
                visit(key, value)?;
            }
        }
        Ok(())
    }
}

/// Read `doc` into its top level and its `[[table]]` tables, the only
/// table name accepted, and hand each to `visit`: the tables in order,
/// then the top level, so the front end can judge the document as a
/// whole there. Errors, the reader's own and `visit`'s, carry a
/// `"{label} line N: "` prefix.
pub fn read(
    doc: &str,
    label: &str,
    table: &str,
    mut visit: impl FnMut(&mut Table<'_, '_>) -> Result<(), String>,
) -> Result<(), String> {
    let at = |n: usize, msg: String| format!("{label} line {n}: {msg}");
    // Every entry in document order, and each table's first entry and
    // header line; the top level starts the document. The capacities
    // fit a scenario pack, which every fleet set-up reads, without
    // growing.
    let mut entries: Vec<Entry> = Vec::with_capacity(16);
    let mut starts = Vec::with_capacity(8);
    starts.push((0, 1));
    for (idx, raw) in doc.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) == Some(table) {
            starts.push((entries.len(), idx + 1));
            continue;
        }
        if line.starts_with('[') {
            return Err(at(
                idx + 1,
                format!("unsupported table '{line}' (only [[{table}]] tables)"),
            ));
        }
        let (key, value) = line.split_once('=').ok_or_else(|| {
            at(
                idx + 1,
                format!("expected a TOML `key = value` line or a [[{table}]] table, got '{line}'"),
            )
        })?;
        entries.push((idx + 1, key.trim(), value.trim(), false));
    }
    for index in (1..starts.len()).chain([0]) {
        let ((start, line), end) = (
            starts[index],
            starts.get(index + 1).map_or(entries.len(), |s| s.0),
        );
        let mut t = Table {
            index,
            name: table,
            line,
            entries: &mut entries[start..end],
            at: line,
        };
        // What the front end left is a key it does not know.
        let unknown = |key: &str, _: &str| match index {
            0 => Err(format!("unknown top-level key '{key}'")),
            _ => Err(format!("unknown [[{table}]] key '{key}'")),
        };
        visit(&mut t)
            .and_then(|()| t.rest(unknown))
            .map_err(|msg| at(t.at, msg))?;
    }
    Ok(())
}

/// A quoted string value for `key`.
pub fn string(key: &str, value: &str) -> Result<String, String> {
    match value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
        Some(text) => Ok(text.to_string()),
        None => Err(format!(
            "expected a quoted string for '{key}', got '{value}'"
        )),
    }
}

/// A finite numeric value for `key`. `nan`, `inf` and overflowing
/// literals such as `1e999` are errors: a bar of NaN never fires.
pub fn number(key: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(n),
        _ => Err(format!(
            "expected a finite number for '{key}', got '{value}'"
        )),
    }
}

/// An integer value for `key` that fits `T`. It is parsed as an
/// integer, never through `f64`, so every `u64` and `i64` reads
/// exactly; fractions, exponents and values outside `T` are errors.
pub fn integer<T: TryFrom<i128>>(key: &str, value: &str) -> Result<T, String> {
    let n: i128 =
        (value.parse()).map_err(|_| format!("expected an integer for '{key}', got '{value}'"))?;
    T::try_from(n).map_err(|_| format!("'{key}' {value} is out of range"))
}

/// A `true` or `false` value for `key`.
pub fn boolean(key: &str, value: &str) -> Result<bool, String> {
    value
        .parse()
        .map_err(|_| format!("expected true or false for '{key}', got '{value}'"))
}

/// An inline array `[a, b, ...]` for `key`, each item read by `item`.
/// Items are split at commas, so a quoted item holds none.
pub fn array<T>(
    key: &str,
    value: &str,
    item: impl Fn(&str, &str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let inner = (value.strip_prefix('[').and_then(|v| v.strip_suffix(']')))
        .ok_or_else(|| format!("expected an array for '{key}', got '{value}'"))?;
    let items = inner.split(',').map(str::trim).filter(|i| !i.is_empty());
    items.map(|i| item(key, i)).collect()
}

/// Drop a `#` comment unless the `#` sits inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}
