//! Token-level source-discipline lint for the BT-ADT workspace.
//!
//! Five rules, each guarding an invariant the model checker and the
//! commit pipeline's correctness argument lean on but the compiler
//! cannot see:
//!
//! 1. **`safety-comment`** — every `unsafe` block carries an adjacent
//!    `// SAFETY:` comment, and every `unsafe fn`/`impl`/`trait`
//!    declaration carries either one or a `# Safety` doc section.
//!    Scope: every `.rs` file under `crates/`.
//! 2. **`relaxed-justification`** — every `Ordering::Relaxed` carries a
//!    `// relaxed:` comment on the same line or immediately above it,
//!    stating why the weakest ordering is enough. The model explorer
//!    runs under sequential consistency, so relaxed sites are exactly
//!    the ones it cannot vouch for. Scope: `crates/core/src/`.
//! 3. **`lock-order`** — no acquisition of the publication lock of any
//!    kind (`.publ.lock()` or `.publ.try_lock()`) while a selection-lock
//!    guard is live, and none at all inside `*_locked` functions (which
//!    run under `sel` by contract). Every commit stages under `sel` and
//!    publishes after dropping it; a blocking acquire under `sel`
//!    deadlocks against any publisher that touches `sel` (an AB-BA), and
//!    a non-blocking one is a second commit path this rule keeps out.
//!    Scope: `crates/core/src/concurrent.rs`.
//! 4. **`wal-confinement`** — WAL append calls (`.append_batch(`,
//!    `.append_commits(`) appear in exactly one place,
//!    `publish_batches_locked`: the persist-then-ack step of stage 2.
//!    An append anywhere else bypasses group commit and the
//!    publication-order guarantee recovery replays by. Scope:
//!    `crates/core/src/concurrent.rs` (the `wal` module itself and its
//!    tests are the implementation, not call sites).
//! 5. **`vfs-confinement`** — `wal.rs` performs no raw `std::fs` IO
//!    (`std::fs`, `File::`, `OpenOptions::` tokens): every byte the
//!    durability layer moves goes through the `Vfs` seam, so the fault
//!    injector and the crash-point matrix
//!    (`crates/core/tests/wal_crashpoints.rs`) enumerate *all* of it.
//!    Scope: `crates/core/src/wal.rs` above `mod tests`.
//!
//! The scanner is deliberately token-level, not syntactic: it strips
//! comments, strings, and char literals with a small lexer and then
//! works on the stripped lines plus brace depth. That keeps it
//! dependency-free (this workspace builds offline) and fast enough to
//! run on every CI push; the trade-off is that the two scoped rules key
//! off this repository's naming conventions (`sel`/`publ` fields,
//! `_locked` suffix), which is exactly what a house lint is for.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: PathBuf,
    /// 1-indexed line.
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// A source file split per line into code and comment channels: `code`
/// has comments removed and string/char-literal *contents* blanked (the
/// quotes remain, so token shapes survive); `comments` has only comment
/// text (line, block, and doc comments).
pub struct Stripped {
    pub code: Vec<String>,
    pub comments: Vec<String>,
}

/// Lexes `src` into the two channels. Handles line comments, nested
/// block comments, string literals, raw strings (any `#` depth, with
/// `b`/`c` prefixes), and the char-literal/lifetime ambiguity.
pub fn strip(src: &str) -> Stripped {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
    }
    let mut st = St::Code;
    let mut code = vec![String::new()];
    let mut comments = vec![String::new()];
    let b: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            code.push(String::new());
            comments.push(String::new());
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                if c == '/' && b.get(i + 1) == Some(&'/') {
                    st = St::LineComment;
                    i += 2;
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    code.last_mut().unwrap().push('"');
                    st = St::Str;
                    i += 1;
                } else if c == 'r'
                    && matches!(b.get(i + 1), Some(&'"') | Some(&'#'))
                    && !prev_is_ident(&b, i)
                {
                    // r"..." or r#"..."# (a b/br prefix ends in an ident
                    // char, so it lands here via the `r` as well).
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        code.last_mut().unwrap().push('"');
                        st = St::RawStr(hashes);
                        i = j + 1;
                    } else {
                        code.last_mut().unwrap().push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal closes with a
                    // quote after one (possibly escaped) char; a
                    // lifetime never closes.
                    if b.get(i + 1) == Some(&'\\') {
                        let mut j = i + 2;
                        while j < b.len() && b[j] != '\'' {
                            j += 1;
                        }
                        code.last_mut().unwrap().push_str("''");
                        i = j + 1;
                    } else if b.get(i + 2) == Some(&'\'') {
                        code.last_mut().unwrap().push_str("''");
                        i += 3;
                    } else {
                        code.last_mut().unwrap().push('\'');
                        i += 1;
                    }
                } else {
                    code.last_mut().unwrap().push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                comments.last_mut().unwrap().push(c);
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '*' && b.get(i + 1) == Some(&'/') {
                    if depth == 1 {
                        st = St::Code;
                    } else {
                        st = St::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comments.last_mut().unwrap().push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    code.last_mut().unwrap().push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if b.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        code.last_mut().unwrap().push('"');
                        st = St::Code;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
    Stripped { code, comments }
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of `word` in `line` at identifier boundaries.
fn word_positions(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = line[from..].find(word) {
        let at = from + p;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap());
        let after = &line[at + word.len()..];
        let after_ok = after.is_empty() || !is_ident_char(after.chars().next().unwrap());
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

/// Does any comment within the *justification window* of line `at`
/// (0-indexed) contain `needle`? The window is the line itself plus the
/// contiguous run of lines above that belong to the same statement:
/// pure-comment lines, attribute lines, and code continuation lines
/// (no `;`, `{`, or `}` — i.e. the statement hasn't started further up).
fn window_has(s: &Stripped, at: usize, needle: &str) -> bool {
    if s.comments[at].contains(needle) {
        return true;
    }
    let mut l = at;
    while l > 0 {
        l -= 1;
        let code = s.code[l].trim();
        let comment = &s.comments[l];
        if comment.contains(needle) {
            return true;
        }
        let continues = code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#![")
            || !(code.contains(';') || code.contains('{') || code.contains('}'));
        if !continues {
            return false;
        }
    }
    false
}

/// Rule 1: `unsafe` blocks need `SAFETY:`; `unsafe fn`/`impl`/`trait`
/// need `SAFETY:` or a `# Safety` doc section.
pub fn check_safety(file: &Path, s: &Stripped) -> Vec<Finding> {
    let mut out = Vec::new();
    for (ln, line) in s.code.iter().enumerate() {
        for at in word_positions(line, "unsafe") {
            // The token after `unsafe` decides the form. It may sit on
            // a following line (`unsafe {` split by rustfmt is rare but
            // legal).
            let mut rest: String = line[at + "unsafe".len()..].to_string();
            let mut l = ln;
            while rest.trim().is_empty() && l + 1 < s.code.len() {
                l += 1;
                rest = s.code[l].clone();
            }
            let rest = rest.trim_start().to_string();
            let is_decl = rest.starts_with("fn")
                || rest.starts_with("impl")
                || rest.starts_with("trait")
                || rest.starts_with("extern");
            let ok = if is_decl {
                window_has(s, ln, "SAFETY") || window_has(s, ln, "# Safety")
            } else {
                window_has(s, ln, "SAFETY")
            };
            if !ok {
                out.push(Finding {
                    file: file.to_path_buf(),
                    line: ln + 1,
                    rule: "safety-comment",
                    msg: if is_decl {
                        "`unsafe` declaration without a `# Safety` doc \
                         section or `// SAFETY:` comment"
                            .into()
                    } else {
                        "`unsafe` block without an adjacent `// SAFETY:` comment".into()
                    },
                });
            }
        }
    }
    out
}

/// Rule 2: every `Ordering::Relaxed` carries a `relaxed:` justification
/// in an adjacent comment.
pub fn check_relaxed(file: &Path, s: &Stripped) -> Vec<Finding> {
    let mut out = Vec::new();
    for (ln, line) in s.code.iter().enumerate() {
        if line.contains("Ordering::Relaxed") && !window_has(s, ln, "relaxed:") {
            out.push(Finding {
                file: file.to_path_buf(),
                line: ln + 1,
                rule: "relaxed-justification",
                msg: "`Ordering::Relaxed` without an adjacent `// relaxed:` \
                      justification"
                    .into(),
            });
        }
    }
    out
}

/// Function spans: `(name, body_open_line, body_close_line)`, 0-indexed.
fn fn_spans(code: &[String]) -> Vec<(String, usize, usize)> {
    // Flatten with line tracking, then brace-match each `fn NAME`.
    let mut spans = Vec::new();
    let mut chars: Vec<(char, usize)> = Vec::new();
    for (ln, line) in code.iter().enumerate() {
        for c in line.chars() {
            chars.push((c, ln));
        }
        chars.push(('\n', ln));
    }
    let flat: String = chars.iter().map(|(c, _)| *c).collect();
    for at in word_positions(&flat, "fn") {
        // Name = next identifier.
        let name: String = flat[at + 2..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| is_ident_char(*c))
            .collect();
        if name.is_empty() {
            continue;
        }
        // Body = first `{` after the signature; a `;` first means a
        // bodyless trait-method signature.
        let mut open = None;
        for (j, c) in flat[at..].char_indices() {
            match c {
                '{' => {
                    open = Some(at + j);
                    break;
                }
                ';' => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let mut d = 0i32;
        let mut close = None;
        for (j, c) in flat[open..].char_indices() {
            match c {
                '{' => d += 1,
                '}' => {
                    d -= 1;
                    if d == 0 {
                        close = Some(open + j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        spans.push((name, chars[open].1, chars[close].1));
    }
    spans
}

/// Innermost function containing `line`, if any.
fn enclosing_fn(spans: &[(String, usize, usize)], line: usize) -> Option<&str> {
    spans
        .iter()
        .filter(|(_, a, b)| (*a..=*b).contains(&line))
        .min_by_key(|(_, a, b)| b - a)
        .map(|(n, _, _)| n.as_str())
}

/// The publication-lock acquisition on `line`, if any: `.publ.lock(` or
/// `.publ.try_lock(`.
fn publ_acquire(line: &str) -> Option<&'static str> {
    [".publ.lock(", ".publ.try_lock("]
        .into_iter()
        .find(|needle| line.contains(needle))
}

/// Rule 3: lock ordering between the selection and publication locks.
pub fn check_lock_order(file: &Path, s: &Stripped) -> Vec<Finding> {
    let mut out = Vec::new();
    let spans = fn_spans(&s.code);

    // (a) `*_locked` functions run under `sel` by contract: no
    // publication acquire anywhere inside them.
    for (ln, line) in s.code.iter().enumerate() {
        let Some(acquire) = publ_acquire(line) else {
            continue;
        };
        if let Some(name) = enclosing_fn(&spans, ln) {
            if name.ends_with("_locked") {
                out.push(Finding {
                    file: file.to_path_buf(),
                    line: ln + 1,
                    rule: "lock-order",
                    msg: format!(
                        "`{acquire}` inside `{name}` — `*_locked` functions \
                         run under the selection lock; publish after the \
                         caller drops `sel`"
                    ),
                });
            }
        }
    }

    // (b) Region tracking: a `let <g> = ....sel.lock()` binding opens a
    // selection region that ends at `drop(<g>)` or when the binding's
    // brace scope closes. Any publication acquire inside is a violation.
    struct Region {
        guard: String,
        depth: i32,
        line: usize,
    }
    let mut regions: Vec<Region> = Vec::new();
    let mut depth = 0i32;
    for (ln, line) in s.code.iter().enumerate() {
        // Close regions whose guard is dropped on this line.
        regions.retain(|r| {
            !word_positions(line, "drop")
                .iter()
                .any(|&p| line[p..].starts_with(&format!("drop({})", r.guard)))
        });
        if let Some(acquire) = publ_acquire(line) {
            for r in &regions {
                out.push(Finding {
                    file: file.to_path_buf(),
                    line: ln + 1,
                    rule: "lock-order",
                    msg: format!(
                        "`{acquire}` while selection guard `{}` (line {}) \
                         is live — drop `sel` before touching `publ`",
                        r.guard,
                        r.line + 1
                    ),
                });
            }
        }
        // New region?
        if line.contains(".sel.lock()") {
            if let Some(let_pos) = word_positions(line, "let").first().copied() {
                let after = &line[let_pos + 3..];
                let guard: String = after
                    .split_whitespace()
                    .map(|w| w.trim_end_matches(['=', ':']))
                    .find(|w| *w != "mut" && !w.is_empty())
                    .unwrap_or("")
                    .to_string();
                if !guard.is_empty() && guard.chars().all(is_ident_char) {
                    regions.push(Region {
                        guard,
                        depth,
                        line: ln,
                    });
                }
            }
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    regions.retain(|r| r.depth <= depth);
                }
                _ => {}
            }
        }
    }
    out
}

/// Rule 4: WAL appends only inside `publish_batches_locked`.
pub fn check_wal_confinement(file: &Path, s: &Stripped) -> Vec<Finding> {
    let mut out = Vec::new();
    let spans = fn_spans(&s.code);
    for (ln, line) in s.code.iter().enumerate() {
        if !(line.contains(".append_batch(") || line.contains(".append_commits(")) {
            continue;
        }
        let encl = enclosing_fn(&spans, ln);
        if encl != Some("publish_batches_locked") {
            out.push(Finding {
                file: file.to_path_buf(),
                line: ln + 1,
                rule: "wal-confinement",
                msg: format!(
                    "WAL append outside `publish_batches_locked` (in `{}`) — \
                     all persistence goes through the stage-2 group commit",
                    encl.unwrap_or("<module scope>")
                ),
            });
        }
    }
    out
}

/// Rule 5: `wal.rs` performs no raw `std::fs` IO — every byte the
/// durability layer moves goes through the `Vfs` seam
/// (`crates/core/src/vfs.rs`), so the fault injector and the
/// crash-point matrix see *all* of it. A direct `std::fs` call is an IO
/// site power loss can hit but the matrix cannot enumerate. Scoped to
/// code above `mod tests` (tests may touch real files).
pub fn check_vfs_confinement(file: &Path, s: &Stripped) -> Vec<Finding> {
    const RAW_IO: [&str; 3] = ["std::fs", "File::", "OpenOptions::"];
    let mut out = Vec::new();
    let boundary = s
        .code
        .iter()
        .position(|l| l.trim_start().starts_with("mod tests"))
        .unwrap_or(s.code.len());
    for (ln, line) in s.code[..boundary].iter().enumerate() {
        let hit = RAW_IO.iter().any(|tok| {
            line.match_indices(tok).any(|(i, _)| {
                // Token boundary: `VfsFile::` must not match `File::`.
                i == 0 || !is_ident_char(line.as_bytes()[i - 1] as char)
            })
        });
        if hit {
            out.push(Finding {
                file: file.to_path_buf(),
                line: ln + 1,
                rule: "vfs-confinement",
                msg: "raw std::fs IO in wal.rs — route it through the Vfs seam \
                      so fault injection and the crash-point matrix cover it"
                    .to_string(),
            });
        }
    }
    out
}

/// Applies every rule at its scope to one file (path decides scope).
pub fn lint_file(path: &Path, src: &str) -> Vec<Finding> {
    let s = strip(src);
    let mut out = check_safety(path, &s);
    let p = path.to_string_lossy().replace('\\', "/");
    if p.contains("crates/core/src/") {
        out.extend(check_relaxed(path, &s));
    }
    if p.ends_with("crates/core/src/concurrent.rs") {
        out.extend(check_lock_order(path, &s));
        out.extend(check_wal_confinement(path, &s));
    }
    if p.ends_with("crates/core/src/wal.rs") {
        out.extend(check_vfs_confinement(path, &s));
    }
    out
}

/// Walks `root/crates/**` and lints every `.rs` file. Returns findings
/// plus the number of files scanned.
pub fn lint_workspace(root: &Path) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    files.sort();
    let scanned = files.len();
    for f in &files {
        match std::fs::read_to_string(f) {
            Ok(src) => {
                // Report paths relative to the workspace root.
                let rel = f.strip_prefix(root).unwrap_or(f);
                findings.extend(lint_file(rel, &src));
            }
            Err(e) => findings.push(Finding {
                file: f.clone(),
                line: 0,
                rule: "io",
                msg: format!("unreadable: {e}"),
            }),
        }
    }
    (findings, scanned)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if p.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs(&p, out);
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(f: impl Fn(&Path, &Stripped) -> Vec<Finding>, src: &str) -> Vec<Finding> {
        f(Path::new("t.rs"), &strip(src))
    }

    #[test]
    fn lexer_strips_comments_strings_and_chars() {
        let s = strip(
            "let x = \"unsafe { Ordering::Relaxed }\"; // unsafe in comment\n\
             let c = '\"'; let l: &'static str = r#\"publ.lock()\"#;\n\
             /* block\n   unsafe */ let y = 1;\n",
        );
        assert!(!s.code[0].contains("unsafe"));
        assert!(s.comments[0].contains("unsafe in comment"));
        assert!(!s.code[1].contains("publ.lock"));
        assert!(s.comments[3].contains("unsafe"));
        assert!(s.code[3].contains("let y = 1;"));
    }

    #[test]
    fn safety_rule_accepts_adjacent_comment_and_doc_section() {
        let ok = "\
            // SAFETY: the slab outlives every reader.\n\
            let v = unsafe { &*ptr };\n\
            /// # Safety\n\
            /// Caller pins the epoch first.\n\
            pub unsafe fn read_pinned() {}\n";
        assert!(lint_str(check_safety, ok).is_empty());
    }

    #[test]
    fn safety_rule_flags_bare_unsafe() {
        let bad = "fn f() {\n    let v = unsafe { &*p };\n}\n";
        let f = lint_str(check_safety, bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn safety_comment_does_not_leak_across_statements() {
        let bad = "\
            // SAFETY: covers only the first block.\n\
            let a = unsafe { one() };\n\
            let b = unsafe { two() };\n";
        let f = lint_str(check_safety, bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn relaxed_rule_wants_a_justification() {
        let ok = "\
            // relaxed: monotone counter, read only for stats.\n\
            n.fetch_add(1, Ordering::Relaxed);\n\
            m.load(Ordering::Relaxed); // relaxed: same-thread reread\n";
        assert!(lint_str(check_relaxed, ok).is_empty());
        let bad = "n.fetch_add(1, Ordering::Relaxed);\n";
        let f = lint_str(check_relaxed, bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "relaxed-justification");
    }

    #[test]
    fn lock_order_flags_blocking_publ_under_sel() {
        let bad = "\
            fn stage(&self) {\n\
                let mut sel = self.sel.lock();\n\
                let publ = self.publ.lock();\n\
            }\n";
        let f = lint_str(check_lock_order, bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lock-order");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn lock_order_flags_try_lock_and_allows_post_drop_acquire() {
        let bad = "\
            fn stage(&self) {\n\
                let mut sel = self.sel.lock();\n\
                let claim = self.publ.try_lock();\n\
                drop(sel);\n\
                let publ = self.publ.lock();\n\
            }\n";
        let f = lint_str(check_lock_order, bad);
        assert_eq!(f.len(), 1, "only the try_lock under `sel`: {f:?}");
        assert_eq!(f[0].rule, "lock-order");
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains(".publ.try_lock("));
        let ok = "\
            fn stage(&self) {\n\
                let mut sel = self.sel.lock();\n\
                drop(sel);\n\
                let publ = self.publ.lock();\n\
            }\n\
            fn scoped(&self) {\n\
                {\n\
                    let sel = self.sel.lock();\n\
                }\n\
                let publ = self.publ.lock();\n\
            }\n";
        assert!(lint_str(check_lock_order, ok).is_empty());
    }

    #[test]
    fn lock_order_flags_publ_in_locked_suffix_fn() {
        let bad = "\
            fn commit_locked(&self) {\n\
                let publ = self.publ.lock();\n\
                let claim = self.publ.try_lock();\n\
            }\n";
        let f = lint_str(check_lock_order, bad);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.msg.contains("commit_locked")));
    }

    #[test]
    fn wal_appends_confined_to_publish_batches_locked() {
        let ok = "\
            fn publish_batches_locked(&self) {\n\
                wal.append_batch(&ids);\n\
            }\n";
        assert!(lint_str(check_wal_confinement, ok).is_empty());
        let bad = "\
            fn sneak_append(&self) {\n\
                wal.append_batch(&ids);\n\
            }\n";
        let f = lint_str(check_wal_confinement, bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wal-confinement");
        assert!(f[0].msg.contains("sneak_append"));
    }

    // ----------------------------------------------------------------
    // Mutation smoke tests against the real sources: prove the lint
    // bites on exactly the refactors it exists to stop.
    // ----------------------------------------------------------------

    fn core_src(name: &str) -> (PathBuf, String) {
        let p = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../core/src")
            .join(name);
        let src =
            std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
        (PathBuf::from("crates/core/src").join(name), src)
    }

    #[test]
    fn real_sources_are_clean() {
        for name in [
            "concurrent.rs",
            "epoch.rs",
            "commit.rs",
            "chain.rs",
            "wal.rs",
            "vfs.rs",
        ] {
            let (path, src) = core_src(name);
            let findings = lint_file(&path, &src);
            assert!(
                findings.is_empty(),
                "{name}:\n{}",
                findings
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }

    #[test]
    fn mutation_raw_fs_io_in_wal_is_flagged() {
        // Sneak a raw unlink into wal.rs above the test module, as a
        // shortcut refactor might: the VFS seam no longer sees that IO,
        // the crash-point matrix cannot enumerate it, so the lint must
        // fire.
        let (path, src) = core_src("wal.rs");
        let needle = "impl Wal {";
        assert!(
            src.contains(needle),
            "wal.rs lost `impl Wal`; update the lint mutation test"
        );
        let sneaky = "fn sneaky(p: &std::path::Path) {\n    \
                      let _ = std::fs::remove_file(p);\n}\n\nimpl Wal {";
        let mutated = src.replacen(needle, sneaky, 1);
        let before = lint_file(&path, &src).len();
        let after = lint_file(&path, &mutated);
        assert!(
            after.len() > before,
            "raw std::fs IO in wal.rs not flagged: {after:?}"
        );
        assert!(after.iter().any(|f| f.rule == "vfs-confinement"));
        // The same token *below* `mod tests` stays legal: tests touch
        // real files by design.
        let test_mutated = src.replacen(
            "mod tests {",
            "mod tests {\n    fn sneaky(p: &std::path::Path) {\n        \
             let _ = std::fs::remove_file(p);\n    }",
            1,
        );
        assert_eq!(
            lint_file(&path, &test_mutated).len(),
            before,
            "test-module fs IO wrongly flagged"
        );
    }

    #[test]
    fn mutation_weakened_slot_cas_is_flagged() {
        // Weaken the pin's slot-epoch re-publication store from SeqCst
        // to Relaxed, as a misguided optimization would: the new
        // Relaxed has no `// relaxed:` justification, so the lint must
        // fire. (The claim CAS next to it already carries a justified
        // Relaxed *failure* ordering on the same line, which a
        // line-granular lint cannot re-litigate — the store is the
        // adjacent SeqCst link in the same slot protocol.)
        let (path, src) = core_src("epoch.rs");
        let needle = "slot.store((g << 1) | 1, Ordering::SeqCst);";
        assert!(
            src.contains(needle),
            "slot re-publication store moved; update the lint mutation test"
        );
        let mutated = src.replace(needle, "slot.store((g << 1) | 1, Ordering::Relaxed);");
        let before = lint_file(&path, &src).len();
        let after = lint_file(&path, &mutated);
        assert!(
            after.len() > before,
            "weakened slot CAS not flagged: {after:?}"
        );
        assert!(after.iter().any(|f| f.rule == "relaxed-justification"));
    }

    #[test]
    fn mutation_blocking_inline_claim_is_flagged() {
        // Claim the publication lock inside `append`'s `sel` region —
        // the sel→publ order that deadlocks against any publisher that
        // touches `sel`, and the shape of the deleted inline claim.
        let (path, src) = core_src("concurrent.rs");
        let at = src
            .find("pub fn append(")
            .expect("append moved; update the lint mutation test");
        let needle = "let mut sel = self.sel.lock();";
        let open = at
            + src[at..]
                .find(needle)
                .expect("append's `sel` region moved; update the lint mutation test");
        let end = open + needle.len();
        let mut mutated = src.clone();
        mutated.insert_str(end, "\n            let _claim = self.publ.lock();");
        let before = lint_file(&path, &src).len();
        let after = lint_file(&path, &mutated);
        assert!(
            after.len() > before,
            "publication claim under `sel` not flagged: {after:?}"
        );
        assert!(after.iter().any(|f| f.rule == "lock-order"));
    }

    #[test]
    fn mutation_stray_wal_append_is_flagged() {
        // Append to the WAL from outside stage 2.
        let (path, src) = core_src("concurrent.rs");
        let needle = "fn commit_generation(&self)";
        assert!(
            src.contains(needle),
            "anchor moved; update the lint mutation test"
        );
        let mutated = src.replace(
            needle,
            "fn sneak(&self, w: &mut crate::wal::Wal) {\n        let _ = w.append_batch(&[], 0);\n    }\n    fn commit_generation(&self)",
        );
        let after = lint_file(&path, &mutated);
        assert!(
            after.iter().any(|f| f.rule == "wal-confinement"),
            "{after:?}"
        );
    }

    #[test]
    fn mutation_uncommented_unsafe_is_flagged() {
        let (path, src) = core_src("epoch.rs");
        let mutated =
            format!("{src}\nfn sneak_deref(p: *const u32) -> u32 {{\n    unsafe {{ *p }}\n}}\n");
        let after = lint_file(&path, &mutated);
        assert!(
            after.iter().any(|f| f.rule == "safety-comment"),
            "{after:?}"
        );
    }
}
