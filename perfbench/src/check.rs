//! Output checks. Response lines are read with a small field scanner of
//! the benchmark's own (the responses' layout is flat: strings without
//! escapes, integers, one integer array), and every assignment is checked
//! against an instance rebuilt in this process.

use perfbench::gen::Op;

/// The raw text of field `key` in a flat JSON object line: a string's
/// contents, an array's contents, or a scalar token.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return Some(&s[..s.find('"')?]);
    }
    if let Some(s) = rest.strip_prefix('[') {
        return Some(&s[..s.find(']')?]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// An integer field.
pub fn int_field(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// The `assignment` array of an ok response.
pub fn assignment(line: &str) -> Option<Vec<usize>> {
    let body = field(line, "assignment")?;
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|v| v.parse().ok()).collect()
}

/// Why a response failed its checks, if it did: it must be an ok
/// response to `op`, report no violated event, and carry an assignment
/// that both the rebuilt instance's `violated_events` and a direct
/// evaluation of the generated payload accept.
pub fn verify(op: &Op, line: Option<&str>) -> Result<(), String> {
    let line = line.ok_or("missing response")?;
    if field(line, "id") != Some(op.id.as_str()) {
        return Err(format!("id mismatch: {line:.80}"));
    }
    if field(line, "status") != Some("ok") {
        return Err(format!("not ok: {line:.200}"));
    }
    if int_field(line, "violated") != Some(0) {
        return Err("response reports violated events".into());
    }
    let a = assignment(line).ok_or("unreadable assignment")?;
    if !op.satisfied_by(&a) {
        return Err("assignment leaves a bad event occurring".into());
    }
    let violated = op
        .instance()
        .violated_events(&a)
        .map_err(|e| format!("rebuilt instance rejects the assignment: {e}"))?;
    if !violated.is_empty() {
        return Err(format!(
            "rebuilt instance sees {} violated events",
            violated.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_reads_flat_fields() {
        let line = "{\"id\":\"op-3\",\"status\":\"ok\",\"assignment\":[1,0,2],\
                    \"steps\":3,\"violated\":0,\"provenance\":\"a=b c=d\"}";
        assert_eq!(field(line, "id"), Some("op-3"));
        assert_eq!(int_field(line, "steps"), Some(3));
        assert_eq!(assignment(line), Some(vec![1, 0, 2]));
        assert_eq!(field(line, "provenance"), Some("a=b c=d"));
        assert_eq!(field(line, "missing"), None);
    }
}
