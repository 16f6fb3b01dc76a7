//! The `roar-lint` rule engine: repo-specific invariants checked over the
//! token streams produced by [`crate::lexer`].
//!
//! Every rule here guards a discipline some past PR introduced by hand and
//! review alone:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-needs-safety` | every `unsafe` block/fn/impl carries a `// SAFETY:` justification |
//! | `ordering-needs-comment` | every atomic `Ordering::` argument outside `crates/shims` carries an `// ORDERING:` justification |
//! | `no-thread-spawn` | `thread::spawn` only inside `crates/shims` (PR 8 thread-budget invariant; fixed named pools use `thread::Builder`, model tests use `loom::thread::spawn`) |
//! | `no-wall-clock-in-reconcile` | no `SystemTime` / `Instant::now` in `reconcile.rs` planning (PR 6 determinism invariant) |
//! | `no-unwrap-in-request-path` | `unwrap()`/`expect()` banned in `cluster/src/transport/*` and `client.rs` |
//! | `no-json-by-hand` | no `push_str(&format!(…))` and no `format!("{{…")` in `crates/bench/src`: artifacts are built as a `roar_util::Json` and rendered once |
//!
//! Code under `#[cfg(test)]` / `#[test]` is exempt from every rule except
//! `unsafe-needs-safety` (an unsound test is still unsound).

use crate::lexer::{lex, Token, TokenKind};

/// One source file, lexed and ready to check. `path` is workspace-relative
/// with forward slashes — the rules scope themselves by it.
pub struct SourceFile {
    pub path: String,
    pub src: String,
    pub tokens: Vec<Token>,
}

impl SourceFile {
    pub fn new(path: impl Into<String>, src: impl Into<String>) -> SourceFile {
        let src = src.into();
        let tokens = lex(&src);
        SourceFile {
            path: path.into(),
            src,
            tokens,
        }
    }
}

/// A rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Run every rule over one file.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let test_mask = cfg_test_mask(file);
    let mut findings = Vec::new();
    rule_unsafe_needs_safety(file, &mut findings);
    rule_ordering_needs_comment(file, &test_mask, &mut findings);
    rule_no_thread_spawn(file, &test_mask, &mut findings);
    rule_no_wall_clock_in_reconcile(file, &test_mask, &mut findings);
    rule_no_unwrap_in_request_path(file, &test_mask, &mut findings);
    rule_no_json_by_hand(file, &test_mask, &mut findings);
    findings
}

/// Lines of `file` holding at least one code token outside
/// `#[cfg(test)]` / `#[test]` items — the count `roar-lint --loc` reports.
/// Comment-only and blank lines never count; a multi-line literal counts
/// every line it spans.
pub fn code_lines(file: &SourceFile) -> usize {
    let test_mask = cfg_test_mask(file);
    // tokens come in source order, so the line numbers never decrease
    let mut lines: Vec<u32> = file
        .tokens
        .iter()
        .zip(&test_mask)
        .filter(|(t, &masked)| !masked && !t.is_comment())
        .flat_map(|(t, _)| t.line..=t.line_end)
        .collect();
    lines.dedup();
    lines.len()
}

fn in_shims(path: &str) -> bool {
    path.starts_with("crates/shims/")
}

// ---- cfg(test) masking ------------------------------------------------------

/// Per-token mask: `true` when the token sits inside an item gated by
/// `#[cfg(test)]` (or any `cfg(...)` mentioning `test`) or `#[test]`.
/// The gated region runs from the attribute to the end of the item: the
/// matching close brace of its first top-level `{`, or the first `;` if
/// the item has no body.
fn cfg_test_mask(file: &SourceFile) -> Vec<bool> {
    let toks = &file.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && next_code(toks, i + 1).is_some_and(|j| toks[j].is_punct('[')) {
            let open = next_code(toks, i + 1).unwrap();
            if let Some(close) = matching(toks, open, '[', ']') {
                if attr_is_test(file, open, close) {
                    let end = item_end(toks, close + 1);
                    for m in mask.iter_mut().take(end + 1).skip(i) {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Does the attribute body between `open`/`close` brackets gate on tests?
/// Matches `#[test]`, `#[tokio::test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`.
fn attr_is_test(file: &SourceFile, open: usize, close: usize) -> bool {
    file.tokens[open + 1..close]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text(&file.src) == "test")
}

/// Next non-comment token index at or after `i`.
fn next_code(toks: &[Token], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if !toks[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index of the token matching `open_c` at `open`, honouring nesting.
fn matching(toks: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// End index of the item starting at `i` (after its attributes): the close
/// of its first top-level brace block, or its terminating `;`.
fn item_end(toks: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth <= 0 {
                return j;
            }
        } else if t.is_punct(';') && depth == 0 {
            return j;
        } else if t.is_punct('#') && depth == 0 {
            // another attribute on the same item (e.g. `#[cfg(test)]`
            // followed by `#[allow(…)]`): skip its brackets wholesale so
            // its contents can't end the item early
            if let Some(open) = next_code(toks, j + 1) {
                let open = if toks[open].is_punct('!') {
                    next_code(toks, open + 1).unwrap_or(open)
                } else {
                    open
                };
                if toks[open].is_punct('[') {
                    if let Some(close) = matching(toks, open, '[', ']') {
                        j = close + 1;
                        continue;
                    }
                }
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

// ---- justification-comment lookup -------------------------------------------

/// True when a comment containing `tag` covers line `line` of the file.
fn comment_tag_on_line(file: &SourceFile, line: u32, tag: &str) -> bool {
    comment_tag_in_range(file, line, line, tag)
}

/// True when a comment containing `tag` touches any line in
/// `first..=last` — used to accept a justification written anywhere
/// inside a multi-line statement.
fn comment_tag_in_range(file: &SourceFile, first: u32, last: u32, tag: &str) -> bool {
    file.tokens.iter().any(|t| {
        t.is_comment() && t.line <= last && t.line_end >= first && t.text(&file.src).contains(tag)
    })
}

/// True when the contiguous run of comment tokens immediately preceding
/// token `idx` — skipping attributes and declaration qualifiers like
/// `pub`, `const`, `async`, `extern "C"` — contains `tag`.
fn preceding_comment_has_tag(file: &SourceFile, idx: usize, tag: &str) -> bool {
    const QUALIFIERS: &[&str] = &[
        "pub", "const", "async", "extern", "crate", "super", "self", "in", "static", "mut",
        "default",
    ];
    let toks = &file.tokens;
    let mut i = idx;
    // skip qualifiers / attributes backwards
    loop {
        if i == 0 {
            return false;
        }
        i -= 1;
        let t = &toks[i];
        match t.kind {
            TokenKind::Ident if QUALIFIERS.contains(&t.text(&file.src)) => continue,
            TokenKind::Str => continue, // the "C" of extern "C"
            TokenKind::Punct('(') | TokenKind::Punct(')') => continue,
            TokenKind::Punct(']') => {
                // attribute: walk back to its `#`
                let mut depth = 1i32;
                while i > 0 && depth > 0 {
                    i -= 1;
                    if toks[i].is_punct(']') {
                        depth += 1;
                    } else if toks[i].is_punct('[') {
                        depth -= 1;
                    }
                }
                if i > 0 && toks[i - 1].is_punct('#') {
                    i -= 1;
                }
                continue;
            }
            _ => break,
        }
    }
    // `i` is now on the first token before the declaration head; walk the
    // contiguous run of comment tokens ending there
    loop {
        let t = &file.tokens[i];
        if !t.is_comment() {
            return false;
        }
        if t.text(&file.src).contains(tag) {
            return true;
        }
        if i == 0 {
            return false;
        }
        i -= 1;
    }
}

/// Shared acceptance check for a justification `tag` at token `idx`:
/// a comment on the site's own line (trailing comment), anywhere inside
/// the statement the site belongs to, in the comment block directly above
/// the site's declaration head, or above the start of its statement.
fn justified(file: &SourceFile, idx: usize, tag: &str) -> bool {
    let toks = &file.tokens;
    let line = toks[idx].line;
    if comment_tag_on_line(file, line, tag) || preceding_comment_has_tag(file, idx, tag) {
        return true;
    }
    let stmt = statement_start(toks, idx);
    comment_tag_in_range(file, toks[stmt].line, line, tag)
        || preceding_comment_has_tag(file, stmt, tag)
}

// ---- rule: unsafe-needs-safety ----------------------------------------------

fn rule_unsafe_needs_safety(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.is_ident(&file.src, "unsafe") {
            continue;
        }
        if justified(file, i, "SAFETY:") {
            continue;
        }
        findings.push(Finding {
            rule: "unsafe-needs-safety",
            path: file.path.clone(),
            line: t.line,
            col: t.col,
            message: "`unsafe` without a `// SAFETY:` comment justifying it".into(),
        });
    }
}

// ---- rule: ordering-needs-comment -------------------------------------------

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Start-of-statement token index for the statement containing `idx`: the
/// first code token after the nearest preceding `;`, `{` or `}`.
fn statement_start(toks: &[Token], idx: usize) -> usize {
    let mut i = idx;
    while i > 0 {
        let t = &toks[i - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        i -= 1;
    }
    next_code(toks, i).unwrap_or(idx)
}

fn rule_ordering_needs_comment(file: &SourceFile, test_mask: &[bool], findings: &mut Vec<Finding>) {
    if in_shims(&file.path) {
        return;
    }
    let toks = &file.tokens;
    let mut reported_statements = Vec::new();
    for i in 0..toks.len() {
        if test_mask[i] || !toks[i].is_ident(&file.src, "Ordering") {
            continue;
        }
        // match `Ordering` `::` <atomic variant>; `cmp::Ordering` variants
        // (Less/Equal/Greater) are not atomics and are exempt
        let Some(c1) = next_code(toks, i + 1) else {
            continue;
        };
        if !toks[c1].is_punct(':') {
            continue;
        }
        let Some(c2) = next_code(toks, c1 + 1) else {
            continue;
        };
        if !toks[c2].is_punct(':') {
            continue;
        }
        let Some(v) = next_code(toks, c2 + 1) else {
            continue;
        };
        if toks[v].kind != TokenKind::Ident || !ATOMIC_ORDERINGS.contains(&toks[v].text(&file.src))
        {
            continue;
        }
        let stmt = statement_start(toks, i);
        if reported_statements.contains(&stmt) {
            continue;
        }
        reported_statements.push(stmt);
        if justified(file, i, "ORDERING:") {
            continue;
        }
        findings.push(Finding {
            rule: "ordering-needs-comment",
            path: file.path.clone(),
            line: toks[i].line,
            col: toks[i].col,
            message: format!(
                "atomic `Ordering::{}` without an `// ORDERING:` comment justifying it",
                toks[v].text(&file.src)
            ),
        });
    }
}

// ---- rule: no-thread-spawn --------------------------------------------------

fn rule_no_thread_spawn(file: &SourceFile, test_mask: &[bool], findings: &mut Vec<Finding>) {
    if in_shims(&file.path) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if test_mask[i] || !toks[i].is_ident(&file.src, "thread") {
            continue;
        }
        let Some(c1) = next_code(toks, i + 1) else {
            continue;
        };
        let Some(c2) = next_code(toks, c1 + 1) else {
            continue;
        };
        let Some(m) = next_code(toks, c2 + 1) else {
            continue;
        };
        if toks[c1].is_punct(':') && toks[c2].is_punct(':') && toks[m].is_ident(&file.src, "spawn")
        {
            // `loom::thread::spawn` is the model checker's shim: its
            // threads exist only inside `loom::model` explorations, not in
            // the runtime thread budget
            if i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident(&file.src, "loom")
            {
                continue;
            }
            findings.push(Finding {
                rule: "no-thread-spawn",
                path: file.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: "`thread::spawn` outside crates/shims breaks the fixed thread budget; \
                          use the runtime's task::spawn or a named fixed pool"
                    .into(),
            });
        }
    }
}

// ---- rule: no-wall-clock-in-reconcile ---------------------------------------

fn rule_no_wall_clock_in_reconcile(
    file: &SourceFile,
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    if !file.path.ends_with("cluster/src/reconcile.rs") {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if test_mask[i] {
            continue;
        }
        let wall = if toks[i].is_ident(&file.src, "SystemTime") {
            true
        } else if toks[i].is_ident(&file.src, "Instant") {
            // only `Instant::now` is a wall-clock read; passing an Instant
            // around is fine
            let c1 = next_code(toks, i + 1);
            let c2 = c1.and_then(|j| next_code(toks, j + 1));
            let m = c2.and_then(|j| next_code(toks, j + 1));
            matches!((c1, c2, m), (Some(a), Some(b), Some(c))
                if toks[a].is_punct(':') && toks[b].is_punct(':')
                    && toks[c].is_ident(&file.src, "now"))
        } else {
            false
        };
        if wall {
            findings.push(Finding {
                rule: "no-wall-clock-in-reconcile",
                path: file.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: "wall-clock read in reconcile planning: plans must be a pure function \
                          of (desired, observed) so replans are deterministic"
                    .into(),
            });
        }
    }
}

// ---- rule: no-unwrap-in-request-path ----------------------------------------

fn unwrap_rule_applies(path: &str) -> bool {
    (path.starts_with("crates/cluster/src/transport/") && path.ends_with(".rs"))
        || path == "crates/cluster/src/client.rs"
}

fn rule_no_unwrap_in_request_path(
    file: &SourceFile,
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    if !unwrap_rule_applies(&file.path) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if test_mask[i] || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[i].text(&file.src);
        if name != "unwrap" && name != "expect" {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_paren = next_code(toks, i + 1).is_some_and(|j| toks[j].is_punct('('));
        if prev_dot && next_paren {
            findings.push(Finding {
                rule: "no-unwrap-in-request-path",
                path: file.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "`{name}()` in a request path: return a typed RpcError/AdminError instead"
                ),
            });
        }
    }
}

// ---- rule: no-json-by-hand --------------------------------------------------

/// The `N` code tokens following token `i` (comments skipped).
fn following<const N: usize>(toks: &[Token], i: usize) -> Option<[usize; N]> {
    let mut found = [0; N];
    let mut at = i;
    for slot in &mut found {
        at = next_code(toks, at + 1)?;
        *slot = at;
    }
    Some(found)
}

/// `crates/bench/src` once held nine JSON writers made of `format!` calls
/// with hand-placed braces and commas (and a parser to catch their
/// slips). Artifacts are now a `roar_util::Json` rendered in one place;
/// this rule keeps a tenth writer from appearing. It flags the two shapes
/// every one of the nine had: a formatted piece appended to a buffer
/// (`push_str(&format!(`), and a format string that opens an object
/// (`format!("{{`).
fn rule_no_json_by_hand(file: &SourceFile, test_mask: &[bool], findings: &mut Vec<Finding>) {
    if !file.path.starts_with("crates/bench/src/") {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if test_mask[i] {
            continue;
        }
        let what = if toks[i].is_ident(&file.src, "push_str") {
            following::<4>(toks, i)
                .is_some_and(|[open, amp, name, bang]| {
                    toks[open].is_punct('(')
                        && toks[amp].is_punct('&')
                        && toks[name].is_ident(&file.src, "format")
                        && toks[bang].is_punct('!')
                })
                .then_some("`push_str(&format!(…))`")
        } else if toks[i].is_ident(&file.src, "format") {
            following::<3>(toks, i)
                .is_some_and(|[bang, open, literal]| {
                    let text = toks[literal].text(&file.src);
                    toks[bang].is_punct('!')
                        && toks[open].is_punct('(')
                        && toks[literal].kind == TokenKind::Str
                        && text.trim_start_matches(['r', '#']).starts_with("\"{{")
                })
                .then_some("`format!(\"{{…\")`")
        } else {
            None
        };
        if let Some(what) = what {
            findings.push(Finding {
                rule: "no-json-by-hand",
                path: file.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "{what} in crates/bench/src: build a `roar_util::Json` and let its one \
                     renderer place the braces and commas"
                ),
            });
        }
    }
}
