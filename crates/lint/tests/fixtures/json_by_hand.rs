//! `no-json-by-hand` fixture: a formatted piece appended to a buffer and
//! two format strings that open an object are violations; a plain-text
//! `format!`, a `push_str` of a literal and test code are exempt.

pub fn to_json(nodes: usize, p99_ms: f64) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"nodes\": {nodes},\n"));
    let point = format!("{{\"p99_ms\": {p99_ms:.2}}}");
    let raw = format!(r#"{{"p99_ms": {p99_ms}}}"#);
    s.push_str(&point);
    s.push_str(&raw);
    s
}

pub fn headline(nodes: usize) -> String {
    format!("{nodes} nodes")
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixtures_may_spell_json_out() {
        let _ = format!("{{\"pr\": {}}}", 1);
    }
}
