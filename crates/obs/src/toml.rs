//! The TOML subset behind alert rules ([`RuleSet::from_toml`]) and
//! scenario packs (`wavelan::registry::ScenarioPack::from_toml`).
//!
//! A document is read line by line. Blank lines and `#` comments
//! outside quoted strings are skipped, `[[name]]` opens a new table of
//! the one kind the front end accepts, and every other line is
//! `key = value`. Values are quoted strings (no escapes), finite numbers, or
//! whatever the front end parses itself from the raw value text.
//!
//! [`RuleSet::from_toml`]: crate::RuleSet::from_toml

/// One meaningful line of a document.
#[derive(Debug, Clone, Copy)]
pub enum Line<'a> {
    /// `[[table]]`: a new table starts.
    Table,
    /// `key = value`, both trimmed.
    Entry(&'a str, &'a str),
}

/// Walk `doc`, handing each meaningful line to `visit`. `table` is the
/// only table name accepted. Errors, the reader's own and `visit`'s,
/// carry a `"{label} line N: "` prefix.
pub fn read(
    doc: &str,
    label: &str,
    table: &str,
    mut visit: impl FnMut(Line<'_>) -> Result<(), String>,
) -> Result<(), String> {
    for (idx, raw) in doc.lines().enumerate() {
        let at = |msg: String| format!("{label} line {}: {msg}", idx + 1);
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let item = if line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) == Some(table) {
            Line::Table
        } else if line.starts_with('[') {
            return Err(at(format!(
                "unsupported table '{line}' (only [[{table}]] tables)"
            )));
        } else {
            let (key, value) = line.split_once('=').ok_or_else(|| {
                at(format!(
                    "expected a TOML `key = value` line or a [[{table}]] table, got '{line}'"
                ))
            })?;
            Line::Entry(key.trim(), value.trim())
        };
        visit(item).map_err(at)?;
    }
    Ok(())
}

/// A quoted string value for `key`.
pub fn string(key: &str, value: &str) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("expected a quoted string for '{key}', got '{v}'"))
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
