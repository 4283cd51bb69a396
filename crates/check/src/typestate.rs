//! Intra-procedural channel-handle typestate analysis: the one static
//! checker of the CkDirect lifecycle.
//!
//! The dynamic sanitizer (`ckd-race`) sees one schedule; this pass sees
//! every path. It parses each function — methods and free functions alike
//! — into a statement tree (branches, match arms, loops) and tracks the
//! handle protocol `create → assoc → armed → put → consumed` across paths.
//! Every rule flags **definite** misuse — code that breaks the protocol no
//! matter how the schedule falls out:
//!
//! * `double-put-in-flight` — two puts on the same (non-indexed) handle
//!   in one handler activation with no completion possible in between.
//!   Puts in mutually-exclusive branch arms don't pair; indexed handles
//!   (`handles[d]`) are per-neighbor channels and are exempt.
//! * `read-outside-callback` — `direct_recv_region` in a function that is
//!   neither `direct_callback` nor reachable from one (same-impl call
//!   graph, depth ≤ 2): the landing buffer is read with no completion
//!   evidence on any path.
//! * `skip-ready-path` — inside `direct_callback`, an explicit branch
//!   (if/else or match) where one arm re-arms (`direct_ready*`) and a
//!   sibling arm does not, while the protocol still continues toward a
//!   put afterwards (same-impl calls inlined depth ≤ 2). The classic
//!   "forgot the re-arm on one path" bug.
//! * `put-before-assoc` — a handle created and put in the same function
//!   with no `direct_assoc` in between on that path.
//! * `handle-never-used` — a locally-bound created handle that is never
//!   referenced again: an armed channel dropped on the floor.
//! * `destroyed-handle-use` — a `direct_*` call on a handle that a
//!   `direct_destroy` earlier on the same path tore down: the slot may be
//!   recycled, so the stale generation is rejected (`BadHandle`).
//! * `ignored-put-outcome` — a `direct_put` whose `PutOutcome` is dropped
//!   (a bare statement, or `let _ =`): the app never learns its channel
//!   went `Retried`/`Degraded` under fault injection.
//! * `swallowed-direct-error` — a `direct_*` result discarded with
//!   `let _ =` or `.ok()`: a rejected operation becomes a silent race,
//!   exactly as on real hardware.
//! * `put-without-ready` — a file that puts but never re-arms with any
//!   `direct_ready*` form: after the first exchange every put must fail.
//! * `pollq-without-mark` — `direct_ready_poll_q` in a file with no
//!   `direct_ready_mark`: the insertion is rejected (`NotMarked`).
//!
//! A finding is acknowledged with a `ckd-check: allow(<rule>)` marker on
//! its line or the line above. The deliberately-racy mutants in
//! `ckd-apps` acknowledge only the discarded outcomes they swallow on
//! purpose — this pass is required to flag their races.

use std::fs;
use std::io;
use std::path::Path;

/// Rule identifiers, in severity order.
pub const TS_RULES: [&str; 10] = [
    "double-put-in-flight",
    "read-outside-callback",
    "skip-ready-path",
    "put-before-assoc",
    "handle-never-used",
    "destroyed-handle-use",
    "ignored-put-outcome",
    "swallowed-direct-error",
    "put-without-ready",
    "pollq-without-mark",
];

/// One typestate violation.
#[derive(Clone, Debug)]
pub struct TsFinding {
    /// File the violation is in.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (one of [`TS_RULES`]).
    pub rule: &'static str,
    /// Function the violation is in.
    pub func: String,
    /// Human-readable explanation.
    pub detail: String,
}

impl TsFinding {
    /// One-line report form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] in `{}`: {}",
            self.file, self.line, self.rule, self.func, self.detail
        )
    }
}

// ---- source scrubbing ------------------------------------------------------

/// Blank comments and string/char-literal contents (preserving line
/// structure and length) so brace counting and keyword scans are safe.
fn scrub(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                out.extend_from_slice(b"  ");
                i += 2;
                while i < b.len() && !(b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/') {
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
                if i < b.len() {
                    out.extend_from_slice(b"  ");
                    i += 2;
                }
            }
            b'r' if i + 1 < b.len()
                && (b[i + 1] == b'"'
                    || (b[i + 1] == b'#' && i + 2 < b.len() && b[i + 2] == b'"')) =>
            {
                // raw string: r"…" or r#"…"#
                let hashed = b[i + 1] == b'#';
                let skip = if hashed { 3 } else { 2 };
                out.resize(out.len() + skip, b' ');
                i += skip;
                let close: &[u8] = if hashed { b"\"#" } else { b"\"" };
                while i < b.len() && !b[i..].starts_with(close) {
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
                let tail = close.len().min(b.len() - i);
                out.resize(out.len() + tail, b' ');
                i += tail;
            }
            b'"' => {
                out.push(b'"');
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
                if i < b.len() {
                    out.push(b'"');
                    i += 1;
                }
            }
            b'\'' => {
                // char literal ('x' or '\x'); otherwise a lifetime — keep
                let lit = (i + 2 < b.len() && b[i + 1] != b'\\' && b[i + 2] == b'\'')
                    || (i + 3 < b.len() && b[i + 1] == b'\\' && b[i + 3] == b'\'');
                if lit {
                    let n = if b[i + 1] == b'\\' { 4 } else { 3 };
                    out.resize(out.len() + n, b' ');
                    i += n;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("ascii-preserving scrub")
}

fn line_of(src: &str, offset: usize) -> usize {
    src[..offset.min(src.len())].matches('\n').count() + 1
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Find `word` as a standalone identifier in `s`, returning the last
/// occurrence's offset.
fn last_word(s: &str, word: &str) -> Option<usize> {
    let b = s.as_bytes();
    let mut best = None;
    let mut from = 0;
    while let Some(p) = s[from..].find(word) {
        let at = from + p;
        let ok_before = at == 0 || !is_ident(b[at - 1]);
        let after = at + word.len();
        let ok_after = after >= b.len() || !is_ident(b[after]);
        if ok_before && ok_after {
            best = Some(at);
        }
        from = at + word.len();
    }
    best
}

fn matching_brace(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        if c == b'{' {
            depth += 1;
        } else if c == b'}' {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    b.len()
}

// ---- impl / fn extraction --------------------------------------------------

/// One function body (absolute offsets into the scrubbed file).
#[derive(Clone, Debug)]
struct FnInfo {
    name: String,
    /// Offset of the body's opening brace.
    body_open: usize,
    /// Offset of the body's closing brace.
    body_close: usize,
}

/// All functions belonging to one type — inherent and trait `impl` blocks
/// merged, since the protocol flows across them (`direct_callback` in
/// `impl Chare for T` calling helpers in `impl T`). Free functions live
/// in an unnamed pseudo-impl.
#[derive(Clone, Debug)]
struct ImplInfo {
    fns: Vec<FnInfo>,
}

fn parse_impls(s: &str) -> Vec<ImplInfo> {
    let b = s.as_bytes();
    // (start, end, type name) of every impl body
    let mut spans: Vec<(usize, usize, String)> = Vec::new();
    let mut from = 0;
    while let Some(p) = s[from..].find("impl") {
        let at = from + p;
        from = at + 4;
        let ok_before = at == 0 || !is_ident(b[at - 1]);
        if !ok_before || at + 4 >= b.len() || is_ident(b[at + 4]) {
            continue;
        }
        let Some(rel_open) = s[at..].find('{') else {
            continue;
        };
        let open = at + rel_open;
        // `impl Chare for MutantPeer` → MutantPeer; `impl MutantPeer` → same
        let name = s[at..open]
            .split_whitespace()
            .last()
            .unwrap_or("")
            .trim_matches(|c: char| !c.is_alphanumeric() && c != '_')
            .to_owned();
        spans.push((open, matching_brace(b, open), name));
    }

    // merge blocks by type name so the call graph crosses inherent/trait
    // impl boundaries
    let mut names: Vec<String> = Vec::new();
    let owner_of: Vec<usize> = spans
        .iter()
        .map(|(_, _, n)| {
            names.iter().position(|x| x == n).unwrap_or_else(|| {
                names.push(n.clone());
                names.len() - 1
            })
        })
        .collect();
    let mut impls: Vec<ImplInfo> = names.iter().map(|_| ImplInfo { fns: Vec::new() }).collect();
    impls.push(ImplInfo { fns: Vec::new() });
    let free = impls.len() - 1;

    let mut from = 0;
    while let Some(p) = s[from..].find("fn ") {
        let at = from + p;
        from = at + 3;
        if at > 0 && is_ident(b[at - 1]) {
            continue;
        }
        let name: String = s[at + 3..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let Some(rel_open) = s[at..].find('{') else {
            continue;
        };
        // a `;`-terminated prototype (trait method) has no body
        if s[at..at + rel_open].contains(';') {
            continue;
        }
        let open = at + rel_open;
        let close = matching_brace(b, open);
        from = close.max(from);
        let f = FnInfo {
            name,
            body_open: open,
            body_close: close,
        };
        // innermost enclosing impl wins (spans can nest via nested mods)
        let owner = spans
            .iter()
            .enumerate()
            .filter(|(_, (o, c, _))| *o < at && at < *c)
            .max_by_key(|(_, (o, _, _))| *o)
            .map_or(free, |(i, _)| owner_of[i]);
        impls[owner].fns.push(f);
    }
    impls
}

// ---- statement tree --------------------------------------------------------

#[derive(Clone, Debug)]
enum Node {
    /// A flat segment: (absolute offset, text).
    Text(usize, String),
    /// if / else-if / else chain: one block per arm.
    If {
        arms: Vec<Vec<Node>>,
        has_else: bool,
        at: usize,
    },
    /// match: one block per arm.
    Match { arms: Vec<Vec<Node>>, at: usize },
    /// for / while / loop body.
    Loop { body: Vec<Node> },
    /// Any other braced group (plain block, closure, struct literal…).
    Block { body: Vec<Node> },
}

/// Parse the text spanning `[start, end)` (absolute offsets into the
/// scrubbed file `s`) into a statement list.
fn parse_block(s: &str, start: usize, end: usize) -> Vec<Node> {
    let b = s.as_bytes();
    let mut nodes = Vec::new();
    let mut seg_start = start;
    let mut i = start;
    while i < end {
        match b[i] {
            b';' => {
                nodes.push(Node::Text(seg_start, s[seg_start..=i].to_owned()));
                seg_start = i + 1;
                i += 1;
            }
            b'{' => {
                let close = matching_brace(b, i).min(end);
                let seg = &s[seg_start..i];
                let kw = |w: &str| last_word(seg, w);
                let k_if = kw("if");
                let k_else = kw("else");
                let k_match = kw("match");
                let k_loop = [kw("for"), kw("while"), kw("loop")]
                    .into_iter()
                    .flatten()
                    .max();
                let best = [k_if, k_else, k_match, k_loop].into_iter().flatten().max();
                // `else { … }` / `else if … { … }` arms attach to the
                // preceding If and don't push their header text
                let else_arm =
                    matches!(best, Some(p) if Some(p) == k_else && k_if.map_or(true, |q| q < p));
                let elseif_arm =
                    matches!(best, Some(p) if Some(p) == k_if && k_else.is_some_and(|q| q < p));
                if !(else_arm || elseif_arm || seg.trim().is_empty()) {
                    // keep any leading flat statement text for the scans
                    nodes.push(Node::Text(seg_start, seg.to_owned()));
                }
                let inner = || parse_block(s, i + 1, close);
                if else_arm || elseif_arm {
                    // most recent non-Text node is the chain's If (header
                    // Texts may sit in between)
                    let target = nodes
                        .iter_mut()
                        .rev()
                        .find(|n| !matches!(n, Node::Text(..)));
                    if let Some(Node::If { arms, has_else, .. }) = target {
                        arms.push(inner());
                        if else_arm {
                            *has_else = true;
                        }
                    } else {
                        nodes.push(Node::Block { body: inner() });
                    }
                } else {
                    match best {
                        Some(p) if Some(p) == k_if => {
                            nodes.push(Node::If {
                                arms: vec![inner()],
                                has_else: false,
                                at: i,
                            });
                        }
                        Some(p) if Some(p) == k_match => {
                            nodes.push(Node::Match {
                                arms: parse_match_arms(s, i + 1, close),
                                at: i,
                            });
                        }
                        Some(p) if Some(p) == k_loop => {
                            nodes.push(Node::Loop { body: inner() });
                        }
                        _ => nodes.push(Node::Block { body: inner() }),
                    }
                }
                seg_start = close + 1;
                i = close + 1;
            }
            _ => i += 1,
        }
    }
    if seg_start < end && !s[seg_start..end].trim().is_empty() {
        nodes.push(Node::Text(seg_start, s[seg_start..end].to_owned()));
    }
    nodes
}

/// Parse a match body `[start, end)` into arm blocks.
fn parse_match_arms(s: &str, start: usize, end: usize) -> Vec<Vec<Node>> {
    let b = s.as_bytes();
    let mut arms = Vec::new();
    let mut i = start;
    let mut depth = 0usize;
    while i < end {
        match b[i] {
            b'(' | b'[' | b'{' => {
                if b[i] == b'{' {
                    i = matching_brace(b, i);
                } else {
                    depth += 1;
                }
                i += 1;
            }
            b')' | b']' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            b'=' if depth == 0 && i + 1 < end && b[i + 1] == b'>' => {
                let mut j = i + 2;
                while j < end && (b[j] as char).is_whitespace() {
                    j += 1;
                }
                if j < end && b[j] == b'{' {
                    let close = matching_brace(b, j).min(end);
                    arms.push(parse_block(s, j + 1, close));
                    i = close + 1;
                } else {
                    // expression arm: up to the depth-0 comma
                    let mut k = j;
                    let mut d = 0usize;
                    while k < end {
                        match b[k] {
                            b'(' | b'[' => d += 1,
                            b')' | b']' => d = d.saturating_sub(1),
                            b'{' => k = matching_brace(b, k),
                            b',' if d == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    arms.push(vec![Node::Text(j, s[j..k].to_owned())]);
                    i = k + 1;
                }
            }
            _ => i += 1,
        }
    }
    arms
}

// ---- scans over the tree ---------------------------------------------------

fn flat_text(nodes: &[Node], out: &mut String) {
    for n in nodes {
        match n {
            Node::Text(_, t) => {
                out.push_str(t);
                out.push('\n');
            }
            Node::If { arms, .. } | Node::Match { arms, .. } => {
                for a in arms {
                    flat_text(a, out);
                }
            }
            Node::Loop { body } | Node::Block { body } => flat_text(body, out),
        }
    }
}

fn contains_call(nodes: &[Node], name: &str) -> bool {
    let mut t = String::new();
    flat_text(nodes, &mut t);
    t.contains(name)
}

/// Same-impl method names invoked as `self.name(…)` in `text`.
fn self_callees(text: &str) -> Vec<String> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = text[from..].find("self.") {
        let at = from + p + 5;
        from = at;
        let name: String = text[at..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let after = at + name.len();
        if !name.is_empty() && b.get(after) == Some(&b'(') {
            out.push(name);
        }
    }
    out
}

/// Whether `text` can reach a `direct_put` through same-impl calls
/// (inlining depth ≤ 2).
fn put_reachable(text: &str, fns: &[(String, String)], depth: u32) -> bool {
    if text.contains("direct_put(") {
        return true;
    }
    if depth == 0 {
        return false;
    }
    self_callees(text).iter().any(|callee| {
        fns.iter()
            .filter(|(n, _)| n == callee)
            .any(|(_, body)| put_reachable(body, fns, depth - 1))
    })
}

/// A `ckd-check: allow(<rule>)` marker on 1-based `line` or the line above.
fn allowed(src_lines: &[&str], line: usize, rule: &str) -> bool {
    let tag = format!("ckd-check: allow({rule})");
    src_lines[line.saturating_sub(2)..line.min(src_lines.len())]
        .iter()
        .any(|l| l.contains(&tag))
}

// ---- the rules -------------------------------------------------------------

struct RuleCtx<'a> {
    file: &'a str,
    scrubbed: &'a str,
    src_lines: Vec<&'a str>,
    findings: Vec<TsFinding>,
}

impl RuleCtx<'_> {
    fn flag(&mut self, rule: &'static str, func: &str, offset: usize, detail: String) {
        let line = line_of(self.scrubbed, offset);
        if allowed(&self.src_lines, line, rule) {
            return;
        }
        self.findings.push(TsFinding {
            file: self.file.to_owned(),
            line,
            rule,
            func: func.to_owned(),
            detail,
        });
    }
}

/// A `direct_<op>(…)` call site: the operation, its first argument (the
/// handle), the branch path (`(branch id, arm idx)` pairs), loop nesting,
/// and the offsets of `direct_` and of the end of the call.
struct CallSite {
    op: String,
    arg: String,
    path: Vec<(u32, usize)>,
    in_loop: bool,
    at: usize,
    end: usize,
}

fn collect_calls(
    nodes: &[Node],
    path: &mut Vec<(u32, usize)>,
    in_loop: bool,
    next_branch: &mut u32,
    out: &mut Vec<CallSite>,
) {
    for n in nodes {
        match n {
            Node::Text(off, t) => {
                let b = t.as_bytes();
                let mut from = 0;
                while let Some(p) = t[from..].find("direct_") {
                    let at = from + p;
                    from = at + "direct_".len();
                    let op: String = t[from..]
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    let open = from + op.len();
                    if (at > 0 && is_ident(b[at - 1]))
                        || op.is_empty()
                        || b.get(open) != Some(&b'(')
                    {
                        continue;
                    }
                    // the first argument runs to a depth-0 comma or the
                    // closing paren
                    let (mut depth, mut comma, mut k) = (1usize, None, open + 1);
                    while k < b.len() && depth > 0 {
                        match b[k] {
                            b'(' | b'[' => depth += 1,
                            b')' | b']' => depth -= 1,
                            b',' if depth == 1 && comma.is_none() => comma = Some(k),
                            _ => {}
                        }
                        k += 1;
                    }
                    let arg_end = comma.unwrap_or(if depth == 0 { k - 1 } else { k });
                    out.push(CallSite {
                        op,
                        arg: t[open + 1..arg_end].trim().to_owned(),
                        path: path.clone(),
                        in_loop,
                        at: off + at,
                        end: off + k,
                    });
                }
            }
            Node::If { arms, .. } | Node::Match { arms, .. } => {
                let id = *next_branch;
                *next_branch += 1;
                for (ai, a) in arms.iter().enumerate() {
                    path.push((id, ai));
                    collect_calls(a, path, in_loop, next_branch, out);
                    path.pop();
                }
            }
            Node::Loop { body } => collect_calls(body, path, true, next_branch, out),
            Node::Block { body } => collect_calls(body, path, in_loop, next_branch, out),
        }
    }
}

fn mutually_exclusive(a: &[(u32, usize)], b: &[(u32, usize)]) -> bool {
    a.iter()
        .any(|(id, arm)| b.iter().any(|(id2, arm2)| id == id2 && arm != arm2))
}

fn rule_double_put(ctx: &mut RuleCtx<'_>, func: &str, sites: &[CallSite]) {
    let puts: Vec<&CallSite> = sites.iter().filter(|s| s.op == "put").collect();
    for (i, a) in puts.iter().enumerate() {
        for b in &puts[i + 1..] {
            if a.arg != b.arg || a.arg.contains('[') || a.in_loop || b.in_loop {
                continue;
            }
            if mutually_exclusive(&a.path, &b.path) {
                continue;
            }
            ctx.flag(
                "double-put-in-flight",
                func,
                b.at,
                format!(
                    "second `direct_put({})` with the first still in flight (no completion can intervene within one handler); line {} holds the first",
                    a.arg,
                    line_of(ctx.scrubbed, a.at)
                ),
            );
        }
    }
}

fn rule_read_outside_callback(
    ctx: &mut RuleCtx<'_>,
    func: &str,
    sites: &[CallSite],
    reachable_from_callback: bool,
) {
    if func == "direct_callback" || reachable_from_callback {
        return;
    }
    for s in sites.iter().filter(|s| s.op == "recv_region") {
        ctx.flag(
            "read-outside-callback",
            func,
            s.at,
            "landing buffer read outside any completion callback: no path carries evidence the put finished landing".to_owned(),
        );
    }
}

/// In `direct_callback`: an explicit branch where one arm re-arms and a
/// sibling doesn't, while a put is still reachable afterwards.
fn rule_skip_ready(ctx: &mut RuleCtx<'_>, func: &str, body: &[Node], fns: &[(String, String)]) {
    fn arm_text(a: &[Node]) -> String {
        let mut t = String::new();
        flat_text(a, &mut t);
        t
    }
    fn walk(
        ctx: &mut RuleCtx<'_>,
        func: &str,
        nodes: &[Node],
        after: &str,
        fns: &[(String, String)],
    ) {
        for (i, n) in nodes.iter().enumerate() {
            let rest = || {
                let mut t = String::new();
                flat_text(&nodes[i + 1..], &mut t);
                t.push_str(after);
                t
            };
            match n {
                Node::If { arms, at, .. } | Node::Match { arms, at } => {
                    let explicit = match n {
                        Node::If { has_else, .. } => *has_else,
                        _ => true,
                    };
                    let readied: Vec<bool> = arms
                        .iter()
                        .map(|a| contains_call(a, "direct_ready"))
                        .collect();
                    if explicit && readied.iter().any(|r| *r) && readied.iter().any(|r| !*r) {
                        let tail = rest();
                        let bare_continues = arms
                            .iter()
                            .zip(&readied)
                            .filter(|(_, r)| !**r)
                            .any(|(a, _)| put_reachable(&arm_text(a), fns, 2));
                        if bare_continues || put_reachable(&tail, fns, 2) {
                            ctx.flag(
                                "skip-ready-path",
                                func,
                                *at,
                                "one branch arm re-arms the channel, a sibling arm does not, and the protocol continues toward another put — the bare arm leaves the next put landing on an unconsumed window".to_owned(),
                            );
                        }
                    }
                    for a in arms {
                        walk(ctx, func, a, &rest(), fns);
                    }
                }
                Node::Loop { body } | Node::Block { body } => {
                    walk(ctx, func, body, &rest(), fns);
                }
                Node::Text(..) => {}
            }
        }
    }
    walk(ctx, func, body, "", fns);
}

fn rule_put_before_assoc(ctx: &mut RuleCtx<'_>, func: &str, body_text: &str, body_open: usize) {
    // `let X = … direct_create_handle…` then `direct_put(…X…)` with no
    // `direct_assoc…(…X…)` in between (straight-line textual order).
    let mut from = 0;
    while let Some(p) = body_text[from..].find("direct_create_handle") {
        let at = from + p;
        from = at + 1;
        let Some(let_pos) = body_text[..at].rfind("let ") else {
            continue;
        };
        let binding: String = body_text[let_pos + 4..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if binding.is_empty() {
            continue;
        }
        let rest = &body_text[at..];
        let put = last_word(rest, "direct_put")
            .map(|_| rest.find("direct_put").unwrap())
            .filter(|p| {
                let args = &rest[*p..rest.len().min(*p + 120)];
                last_word(args, &binding).is_some()
            });
        let Some(put_pos) = put else { continue };
        let between = &rest[..put_pos];
        if last_word(between, "direct_assoc_local").is_none() && !between.contains("direct_assoc") {
            ctx.flag(
                "put-before-assoc",
                func,
                body_open + at + put_pos,
                format!("`direct_put({binding})` before any `direct_assoc` on the handle created here: nothing is attached to send"),
            );
        }
    }
}

fn rule_handle_never_used(ctx: &mut RuleCtx<'_>, func: &str, body_text: &str, body_open: usize) {
    let mut from = 0;
    while let Some(p) = body_text[from..].find("direct_create_handle") {
        let at = from + p;
        from = at + 1;
        let Some(let_pos) = body_text[..at].rfind("let ") else {
            continue;
        };
        // only a plain `let x = …` binding (skip `let Some(x)`, fields, …)
        let binding: String = body_text[let_pos + 4..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if binding.is_empty() || binding == "_" {
            continue;
        }
        // end of the binding statement
        let Some(semi) = body_text[at..].find(';') else {
            continue;
        };
        let rest = &body_text[at + semi..];
        if last_word(rest, &binding).is_none() {
            ctx.flag(
                "handle-never-used",
                func,
                body_open + at,
                format!("created handle `{binding}` is never referenced again: an armed channel dropped on the floor"),
            );
        }
    }
}

/// A `direct_*` call on a handle that a `direct_destroy` earlier on the
/// same path already tore down.
fn rule_destroyed_use(ctx: &mut RuleCtx<'_>, func: &str, sites: &[CallSite]) {
    for (i, d) in sites.iter().enumerate().filter(|(_, s)| s.op == "destroy") {
        for u in &sites[i + 1..] {
            if u.op != "destroy" && u.arg == d.arg && !mutually_exclusive(&d.path, &u.path) {
                ctx.flag(
                    "destroyed-handle-use",
                    func,
                    u.at,
                    format!(
                        "`direct_{}({})` after the `direct_destroy` on line {}: the slot may be recycled, so the stale generation is rejected (BadHandle)",
                        u.op,
                        u.arg,
                        line_of(ctx.scrubbed, d.at)
                    ),
                );
            }
        }
    }
}

/// Results dropped on the floor: `let _ =` or `.ok()` swallows any
/// `direct_*` error, and a put whose statement binds, matches, tests or
/// asserts nothing drops its `PutOutcome`.
fn rule_discarded(ctx: &mut RuleCtx<'_>, func: &str, sites: &[CallSite]) {
    for s in sites {
        // rustfmt wraps long chains, so the statement head — the `match`
        // or `let` consuming the result — may sit lines above the call
        let start = ctx.scrubbed[..s.at]
            .rfind([';', '{', '}'])
            .map_or(0, |p| p + 1);
        let head = ctx.scrubbed[start..s.at].trim_start();
        let discards = head.starts_with("let _ =") || head.starts_with("let _:");
        if discards || ctx.scrubbed[s.end..].trim_start().starts_with(".ok()") {
            ctx.flag(
                "swallowed-direct-error",
                func,
                s.at,
                format!(
                    "`direct_{}` result discarded: a rejected operation becomes a silent data race",
                    s.op
                ),
            );
        }
        let consumes = [
            "let ", "match ", "if ", "while ", "return ", "assert", "Ok(", "Some(",
        ]
        .iter()
        .any(|k| head.starts_with(k))
            || head.contains(" = ");
        if s.op == "put" && (discards || !consumes) {
            ctx.flag(
                "ignored-put-outcome",
                func,
                s.at,
                "`direct_put` whose PutOutcome is dropped: a Retried or Degraded channel goes unnoticed".to_owned(),
            );
        }
    }
}

/// File-level re-arm evidence: the first put with no `direct_ready*`
/// anywhere in the file, and the first poll-queue insertion with no
/// `direct_ready_mark`.
fn rule_file_rearm(ctx: &mut RuleCtx<'_>, calls: &[(String, CallSite)]) {
    let has = |op: &str| calls.iter().any(|(_, s)| s.op.starts_with(op));
    let first = |op: &str| {
        calls
            .iter()
            .filter(|(_, s)| s.op == op)
            .min_by_key(|(_, s)| s.at)
    };
    if !has("ready") {
        if let Some((func, s)) = first("put") {
            ctx.flag(
                "put-without-ready",
                func,
                s.at,
                "`direct_put` with no `direct_ready*` anywhere in this file: the channel can never be re-armed for a second iteration".to_owned(),
            );
        }
    }
    if !has("ready_mark") {
        if let Some((func, s)) = first("ready_poll_q") {
            ctx.flag(
                "pollq-without-mark",
                func,
                s.at,
                "`direct_ready_poll_q` with no `direct_ready_mark` in this file: poll-queue insertion without a mark is rejected (NotMarked)".to_owned(),
            );
        }
    }
}

// ---- driver ----------------------------------------------------------------

/// Analyze one source file.
pub fn analyze_source(file: &str, src: &str) -> Vec<TsFinding> {
    let scrubbed = scrub(src);
    let mut ctx = RuleCtx {
        file,
        scrubbed: &scrubbed,
        src_lines: src.lines().collect(),
        findings: Vec::new(),
    };
    let mut file_calls = Vec::new();
    for im in parse_impls(&scrubbed) {
        let fns: Vec<(String, String)> = im
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.clone(),
                    scrubbed[f.body_open + 1..f.body_close].to_owned(),
                )
            })
            .collect();
        // functions reachable (depth ≤ 2) from a direct_callback
        let mut reach: Vec<String> = Vec::new();
        for (n, body) in &fns {
            if n != "direct_callback" {
                continue;
            }
            for c1 in self_callees(body) {
                for (n2, b2) in &fns {
                    if *n2 == c1 {
                        reach.extend(self_callees(b2));
                    }
                }
                reach.push(c1);
            }
        }
        for f in &im.fns {
            let body = parse_block(&scrubbed, f.body_open + 1, f.body_close);
            let body_text = &scrubbed[f.body_open + 1..f.body_close];
            let mut sites = Vec::new();
            collect_calls(&body, &mut Vec::new(), false, &mut 0, &mut sites);
            rule_double_put(&mut ctx, &f.name, &sites);
            rule_read_outside_callback(&mut ctx, &f.name, &sites, reach.contains(&f.name));
            if f.name == "direct_callback" {
                rule_skip_ready(&mut ctx, &f.name, &body, &fns);
            }
            rule_put_before_assoc(&mut ctx, &f.name, body_text, f.body_open + 1);
            rule_handle_never_used(&mut ctx, &f.name, body_text, f.body_open + 1);
            rule_destroyed_use(&mut ctx, &f.name, &sites);
            rule_discarded(&mut ctx, &f.name, &sites);
            file_calls.extend(sites.into_iter().map(|s| (f.name.clone(), s)));
        }
    }
    rule_file_rearm(&mut ctx, &file_calls);
    ctx.findings
}

/// Analyze every `.rs` file under each path (a file, or a directory
/// scanned recursively).
pub fn analyze_paths(paths: &[String]) -> io::Result<Vec<TsFinding>> {
    let mut files = Vec::new();
    for p in paths {
        // a mistyped path must fail the gate, not scan nothing
        fs::metadata(p)?;
        collect_rs(Path::new(p), &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let src = fs::read_to_string(&f)?;
        out.extend(analyze_source(&f.to_string_lossy(), &src));
    }
    Ok(out)
}

fn collect_rs(p: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    if p.is_dir() {
        for e in fs::read_dir(p)? {
            collect_rs(&e?.path(), out)?;
        }
    } else if p.extension().is_some_and(|e| e == "rs") {
        out.push(p.to_path_buf());
    }
    Ok(())
}

/// The acceptance gate: the three deliberately-racy mutants must be
/// flagged (by their respective rules, all in `mutants.rs`) and every
/// other scanned file must be clean.
pub fn typestate_gate(findings: &[TsFinding]) -> Result<String, String> {
    let in_mutants: Vec<&TsFinding> = findings
        .iter()
        .filter(|f| f.file.ends_with("mutants.rs"))
        .collect();
    let elsewhere: Vec<&TsFinding> = findings
        .iter()
        .filter(|f| !f.file.ends_with("mutants.rs"))
        .collect();
    if !elsewhere.is_empty() {
        let lines: Vec<String> = elsewhere.iter().map(|f| f.render()).collect();
        return Err(format!(
            "typestate findings outside mutants.rs:\n{}",
            lines.join("\n")
        ));
    }
    for want in [
        "double-put-in-flight",
        "read-outside-callback",
        "skip-ready-path",
    ] {
        if !in_mutants.iter().any(|f| f.rule == want) {
            return Err(format!(
                "mutants.rs should trip `{want}` but did not (found: {:?})",
                in_mutants.iter().map(|f| f.rule).collect::<Vec<_>>()
            ));
        }
    }
    Ok(format!(
        "typestate gate: {} finding(s), all in mutants.rs, all three racy mutants flagged",
        in_mutants.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Findings of the five path-sensitive rules. Their minimal inputs
    /// discard put outcomes and never re-arm, which the discard and
    /// file-level rules report on their own (tested below).
    fn rules_of(src: &str) -> Vec<&'static str> {
        analyze_source("test.rs", src)
            .iter()
            .map(|f| f.rule)
            .filter(|r| TS_RULES[..5].contains(r))
            .collect()
    }

    /// How many findings of `rule` the source draws.
    fn hits(src: &str, rule: &str) -> usize {
        analyze_source("test.rs", src)
            .iter()
            .filter(|f| f.rule == rule)
            .count()
    }

    #[test]
    fn double_put_on_one_path_is_flagged() {
        let src = r#"
impl P {
    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.direct_put(h);
        if self.kind == Kind::Double && self.bounces == 0 {
            let _ = ctx.direct_put(h);
        }
    }
}
"#;
        assert_eq!(rules_of(src), ["double-put-in-flight"]);
    }

    #[test]
    fn puts_in_sibling_arms_do_not_pair() {
        let src = r#"
impl P {
    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        if self.left {
            let _ = ctx.direct_put(h);
        } else {
            let _ = ctx.direct_put(h);
        }
    }
}
"#;
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn indexed_and_looped_puts_are_exempt() {
        let src = r#"
impl P {
    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        ctx.direct_put(self.handles[0]).unwrap();
        ctx.direct_put(self.handles[1]).unwrap();
        for d in 0..6 {
            ctx.direct_put(h).unwrap();
        }
    }
}
"#;
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn recv_read_in_entry_is_flagged_but_callback_helpers_are_fine() {
        let bad = r#"
impl P {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let r = ctx.direct_recv_region(h).expect("region");
    }
}
"#;
        assert_eq!(rules_of(bad), ["read-outside-callback"]);
        let good = r#"
impl P {
    fn consume(&mut self, ctx: &mut Ctx<'_>) {
        let r = ctx.direct_recv_region(h).expect("region");
    }
    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, h: HandleId) {
        self.consume(ctx);
    }
}
"#;
        assert!(rules_of(good).is_empty());
    }

    #[test]
    fn asymmetric_ready_branch_with_continuation_is_flagged() {
        let src = r#"
impl P {
    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.direct_put(h);
    }
    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, handle: HandleId) {
        if self.skip {
        } else {
            ctx.direct_ready(handle).expect("ready");
        }
        if self.bounces < self.iters {
            self.serve(ctx);
        }
    }
}
"#;
        assert_eq!(rules_of(src), ["skip-ready-path"]);
    }

    #[test]
    fn guarded_ready_without_else_is_not_flagged() {
        // the jacobi/matmul shape: `if <have channel> { ready }` with no
        // else arm, followed by protocol continuation
        let src = r#"
impl P {
    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.direct_put(h);
    }
    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, handle: HandleId) {
        if self.have_channel {
            ctx.direct_ready(handle).expect("ready");
        }
        self.serve(ctx);
    }
}
"#;
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn ready_mark_counts_as_a_re_arm() {
        let src = r#"
impl P {
    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, h: HandleId) {
        if self.split {
            ctx.direct_ready_mark(h).expect("mark");
        } else {
            ctx.direct_ready(h).expect("ready");
        }
        ctx.direct_put(self.out).unwrap();
    }
}
"#;
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn put_before_assoc_and_dropped_handle_are_flagged() {
        let src = r#"
impl P {
    fn bad_put(&mut self, ctx: &mut Ctx<'_>) {
        let h = ctx.direct_create_handle(r, PAT, 0).expect("create");
        ctx.direct_put(h).expect("put");
    }
    fn bad_drop(&mut self, ctx: &mut Ctx<'_>) {
        let h = ctx.direct_create_handle(r, PAT, 0).expect("create");
        self.other = 1;
    }
    fn good(&mut self, ctx: &mut Ctx<'_>) {
        let h = ctx.direct_create_handle(r, PAT, 0).expect("create");
        ctx.direct_assoc_local(h, r2).expect("assoc");
        ctx.direct_put(h).expect("put");
    }
}
"#;
        let rules = rules_of(src);
        assert!(rules.contains(&"put-before-assoc"), "{rules:?}");
        assert!(rules.contains(&"handle-never-used"), "{rules:?}");
        assert_eq!(rules.len(), 2, "{rules:?}");
    }

    #[test]
    fn allow_marker_suppresses_a_finding() {
        let src = r#"
impl P {
    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.direct_put(h);
        let _ = ctx.direct_put(h); // ckd-check: allow(double-put-in-flight)
    }
}
"#;
        assert!(rules_of(src).is_empty());
    }

    // ---- lifecycle rules ---------------------------------------------------
    // Free functions, like the handlers of a chare, are analysed too.

    #[test]
    fn put_without_ready_fires_and_ready_silences() {
        let bad = "fn iterate(ctx: &mut Ctx) {\n    ctx.direct_put(h).unwrap();\n}\n";
        assert_eq!(hits(bad, "put-without-ready"), 1);
        let good = "fn iterate(ctx: &mut Ctx) {\n    ctx.direct_put(h).unwrap();\n}\n\
                    fn direct_callback(ctx: &mut Ctx) {\n    ctx.direct_ready(h).unwrap();\n}\n";
        assert_eq!(hits(good, "put-without-ready"), 0);
    }

    #[test]
    fn pollq_without_mark() {
        let bad = "fn go(ctx: &mut Ctx) {\n    ctx.direct_ready_poll_q(h).unwrap();\n}\n";
        assert_eq!(hits(bad, "pollq-without-mark"), 1);
        let good = "fn a(ctx: &mut Ctx) {\n    ctx.direct_ready_mark(h).unwrap();\n}\n\
                    fn b(ctx: &mut Ctx) {\n    ctx.direct_ready_poll_q(h).unwrap();\n}\n";
        assert_eq!(hits(good, "pollq-without-mark"), 0);
    }

    #[test]
    fn recv_read_in_a_free_function_needs_a_callback() {
        let bad = "fn on_iter(ctx: &mut Ctx) {\n    let r = ctx.direct_recv_region(h);\n    \
                   ctx.direct_ready(h).ok_or(0);\n}\n";
        assert_eq!(hits(bad, "read-outside-callback"), 1);
        let good = "fn direct_callback(ctx: &mut Ctx, h: H) {\n    \
                    let r = ctx.direct_recv_region(h);\n    ctx.direct_ready(h).unwrap();\n}\n";
        assert_eq!(hits(good, "read-outside-callback"), 0);
    }

    #[test]
    fn double_put_on_one_handle_is_flagged_even_across_a_ready() {
        let bad = "fn send(ctx: &mut Ctx) {\n    ctx.direct_put(self.h).unwrap();\n    \
                   ctx.direct_put(self.h).unwrap();\n    ctx.direct_ready(self.h).unwrap();\n}\n";
        assert_eq!(hits(bad, "double-put-in-flight"), 1);
        let different = "fn send(ctx: &mut Ctx) {\n    ctx.direct_put(self.left).unwrap();\n    \
                         ctx.direct_put(self.right).unwrap();\n    \
                         ctx.direct_ready(self.left).unwrap();\n}\n";
        assert_eq!(hits(different, "double-put-in-flight"), 0);
        // `ready` is the receiver's re-arm: it cannot complete a put still
        // in flight within the same handler, so the second put is refused
        // (PutInFlight) all the same
        let ready_between = "fn send(ctx: &mut Ctx) {\n    ctx.direct_put(self.h).unwrap();\n    \
                             ctx.direct_ready(self.h).unwrap();\n    \
                             ctx.direct_put(self.h).unwrap();\n}\n";
        assert_eq!(hits(ready_between, "double-put-in-flight"), 1);
    }

    #[test]
    fn swallowed_errors_are_reported() {
        let bad = "fn send(ctx: &mut Ctx) {\n    let _ = ctx.direct_put(h);\n    \
                   ctx.direct_ready(h).unwrap();\n}\n";
        assert_eq!(hits(bad, "swallowed-direct-error"), 1);
        let bad2 = "fn send(ctx: &mut Ctx) {\n    ctx.direct_put(h).ok();\n    \
                    ctx.direct_ready(h).unwrap();\n}\n";
        assert_eq!(hits(bad2, "swallowed-direct-error"), 1);
        let good =
            "fn send(ctx: &mut Ctx) {\n    let sent = ctx.direct_put(h).expect(\"put\");\n    \
                    ctx.direct_ready(h).unwrap();\n}\n";
        assert_eq!(hits(good, "swallowed-direct-error"), 0);
        let allowed = "fn send(ctx: &mut Ctx) {\n    \
                       // ckd-check: allow(swallowed-direct-error)\n    \
                       let _ = ctx.direct_put(h);\n    ctx.direct_ready(h).unwrap();\n}\n";
        assert_eq!(hits(allowed, "swallowed-direct-error"), 0);
    }

    #[test]
    fn ignored_put_outcome_flags_bare_and_discarded_puts() {
        let bare = "fn send(ctx: &mut Ctx) {\n    ctx.direct_put(h).expect(\"put\");\n    \
                    ctx.direct_ready(h).unwrap();\n}\n";
        assert_eq!(hits(bare, "ignored-put-outcome"), 1);
        let discarded = "fn send(ctx: &mut Ctx) {\n    let _ = ctx.direct_put(h);\n    \
                         ctx.direct_ready(h).unwrap();\n}\n";
        assert_eq!(hits(discarded, "ignored-put-outcome"), 1);
    }

    #[test]
    fn ignored_put_outcome_respects_consuming_heads() {
        let bound =
            "fn send(ctx: &mut Ctx) {\n    let outcome = ctx.direct_put(h).expect(\"put\");\n    \
             use_it(outcome);\n    ctx.direct_ready(h).unwrap();\n}\n";
        // rustfmt-wrapped chain: the consuming `match` sits lines above
        let wrapped = "fn send(ctx: &mut Ctx) {\n    match ctx\n        .direct_put(h)\n        \
                       .expect(\"put\")\n    {\n        _ => {}\n    }\n    \
                       ctx.direct_ready(h).unwrap();\n}\n";
        let asserted = "fn send(ctx: &mut Ctx) {\n    \
                        assert_eq!(ctx.direct_put(h).unwrap(), PutOutcome::Sent);\n    \
                        ctx.direct_ready(h).unwrap();\n}\n";
        let allowed =
            "fn send(ctx: &mut Ctx) {\n    // ckd-check: allow(ignored-put-outcome)\n    \
                       ctx.direct_put(h).expect(\"put\");\n    ctx.direct_ready(h).unwrap();\n}\n";
        for good in [bound, wrapped, asserted, allowed] {
            assert_eq!(hits(good, "ignored-put-outcome"), 0, "{good}");
        }
    }

    #[test]
    fn destroyed_handle_use_is_flagged_per_path() {
        let bad = "fn teardown(ctx: &mut Ctx) {\n    ctx.direct_destroy(self.h).unwrap();\n    \
                   ctx.direct_put(self.h).unwrap();\n    ctx.direct_ready(self.h).unwrap();\n}\n";
        assert_eq!(hits(bad, "destroyed-handle-use"), 2);
        // a different handle after the destroy
        let other =
            "fn teardown(ctx: &mut Ctx) {\n    ctx.direct_destroy(self.old).unwrap();\n    \
                     ctx.direct_put(self.live).unwrap();\n    \
                     ctx.direct_ready(self.live).unwrap();\n}\n";
        // destroy last (the chanstorm teardown shape)
        let last = "fn teardown(ctx: &mut Ctx) {\n    ctx.direct_ready(self.h).unwrap();\n    \
                    ctx.direct_destroy(self.h).unwrap();\n}\n";
        // the scan is per function: a later fn is a fresh body
        let split = "fn a(ctx: &mut Ctx) {\n    ctx.direct_destroy(self.h).unwrap();\n}\n\
                     fn b(ctx: &mut Ctx) {\n    ctx.direct_ready(self.h).unwrap();\n}\n";
        // and per path: a sibling arm never sees the destroy
        let sibling = "fn step(ctx: &mut Ctx) {\n    if done {\n        \
                       ctx.direct_destroy(self.h).unwrap();\n    } else {\n        \
                       ctx.direct_ready(self.h).unwrap();\n    }\n}\n";
        let allowed =
            "fn teardown(ctx: &mut Ctx) {\n    ctx.direct_destroy(self.h).unwrap();\n    \
                       // ckd-check: allow(destroyed-handle-use)\n    \
                       ctx.direct_ready(self.h).unwrap();\n}\n";
        for good in [other, last, split, sibling, allowed] {
            assert_eq!(hits(good, "destroyed-handle-use"), 0, "{good}");
        }
    }

    #[test]
    fn commented_and_quoted_calls_do_not_count() {
        let src = "fn send(ctx: &mut Ctx) {\n    // ctx.direct_put(h).unwrap();\n    \
                   log(\"ctx.direct_put(h)\");\n}\n";
        assert!(analyze_source("test.rs", src).is_empty());
    }

    #[test]
    fn a_missing_path_is_an_error_not_a_clean_scan() {
        assert!(analyze_paths(&["no/such/dir".to_owned()]).is_err());
    }

    #[test]
    fn findings_render_with_location() {
        let src = "fn go(ctx: &mut Ctx) {\n    ctx.direct_ready_poll_q(h).unwrap();\n}\n";
        let f = &analyze_source("test.rs", src)[0];
        assert!(f.render().starts_with("test.rs:2: [pollq-without-mark]"));
    }
}
