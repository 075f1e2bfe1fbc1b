//! Structural analysis over the token stream: item extents, brace-matched
//! blocks, `#[cfg(test)]` masking, function discovery, `adcast-lint:`
//! pragma parsing, and the lint-attribute count.
//!
//! Everything here is heuristic by design — the lexer guarantees we never
//! look inside strings or comments, and brace/paren matching gives us item
//! boundaries that are exact for the code styles this workspace uses
//! (rustfmt-formatted, no macro-generated items on the checked paths).

use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};

/// One function found in a file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// `pub` with no restriction; `pub(crate)` and friends count as private.
    pub is_pub: bool,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token index of the body `{` (None for trait-method signatures).
    pub body_open: Option<usize>,
    /// Token index of the matching `}` when a body exists.
    pub body_close: Option<usize>,
    /// Token range of the return type (between `->` and the body/`;`).
    pub ret: Option<(usize, usize)>,
    pub line: u32,
}

/// One brace-matched block; `open`/`close` are token indices of `{`/`}`.
#[derive(Debug, Clone)]
pub struct Block {
    pub open: usize,
    pub close: usize,
}

/// A parsed `// adcast-lint: ...` pragma.
#[derive(Debug, Clone)]
pub enum Directive {
    /// `allow(<rule>) -- <reason>`
    Allow { rule: String, reason: String },
    /// `zero-alloc` — marks the next fn for `no-alloc-steady-state`.
    ZeroAlloc,
}

#[derive(Debug, Clone)]
pub struct Pragma {
    pub directive: Directive,
    /// Last line of the comment carrying the pragma; scoping starts below it.
    pub line: u32,
}

/// A malformed pragma (missing reason, unknown rule, bad syntax). These are
/// diagnostics in their own right: a suppression that cannot be attributed
/// or justified must not silently suppress anything.
#[derive(Debug, Clone)]
pub struct BadPragma {
    pub line: u32,
    pub message: String,
}

/// Everything the rules need to know about one file.
pub struct FileAnalysis {
    pub rel_path: String,
    pub tokens: Vec<Tok>,
    /// Parallel to `tokens`: true when the token sits under `#[cfg(test)]`.
    pub in_test: Vec<bool>,
    pub fns: Vec<FnInfo>,
    /// Every brace-matched `{ ... }`, so a rule can ask for the smallest
    /// block enclosing a token (how long a lock guard lives).
    pub blocks: Vec<Block>,
    pub pragmas: Vec<Pragma>,
    pub bad_pragmas: Vec<BadPragma>,
    /// `#[allow(...)]`/`#[expect(...)]` lint attributes (inner forms
    /// included): rustc's and clippy's suppressions, counted beside the
    /// pragmas so one ratchet covers both mechanisms.
    pub lint_attrs: usize,
}

impl FileAnalysis {
    pub fn new(rel_path: &str, src: &str) -> Self {
        let Lexed { tokens, comments } = lex(src);
        let in_test = cfg_test_mask(&tokens);
        let fns = find_fns(&tokens);
        let blocks = find_blocks(&tokens);
        let (pragmas, bad_pragmas) = parse_pragmas(&comments);
        let lint_attrs = count_lint_attrs(&tokens);
        FileAnalysis {
            rel_path: rel_path.to_string(),
            tokens,
            in_test,
            fns,
            blocks,
            pragmas,
            bad_pragmas,
            lint_attrs,
        }
    }

    /// The smallest block strictly containing token `idx`, if any.
    pub fn enclosing_block(&self, idx: usize) -> Option<&Block> {
        self.blocks
            .iter()
            .filter(|b| b.open < idx && idx < b.close)
            .min_by_key(|b| b.close - b.open)
    }

    /// The inclusive line span of the item starting at the first token after
    /// `after_line`, skipping leading attributes. This is what a suppression
    /// pragma scopes to: the next item (or statement) only.
    pub fn next_item_span(&self, after_line: u32) -> Option<(u32, u32)> {
        let mut i = self.tokens.iter().position(|t| t.line > after_line)?;
        // Skip attributes so `#[inline]` between pragma and fn doesn't
        // shrink the scope to the attribute alone.
        while self.tokens[i].is_punct('#')
            && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            let close = matching_close(&self.tokens, i + 1)?;
            i = close + 1;
            if i >= self.tokens.len() {
                return None;
            }
        }
        let end = item_extent(&self.tokens, i);
        Some((
            self.tokens[i].line,
            self.tokens[end.min(self.tokens.len() - 1)].line,
        ))
    }
}

/// Index of the token closing the group opened at `open` (`(`, `[` or `{`).
pub fn matching_close(tokens: &[Tok], open: usize) -> Option<usize> {
    let (o, c) = match tokens.get(open)?.text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// The token index ending the item that starts at `start`: the matching `}`
/// of the first top-level brace group, or the first `;` outside any group.
pub fn item_extent(tokens: &[Tok], start: usize) -> usize {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut j = start;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('{') && paren == 0 && bracket == 0 {
            return matching_close(tokens, j).unwrap_or(tokens.len().saturating_sub(1));
        } else if t.is_punct(';') && paren == 0 && bracket == 0 {
            return j;
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Mark every token that lives under a `#[cfg(test)]` (or `#[cfg(all(test,
/// ...))]` etc.) item, so rules can skip test code.
fn cfg_test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].is_punct('#') && tokens[i + 1].is_punct('[') {
            let Some(close) = matching_close(tokens, i + 1) else {
                break;
            };
            let attr = &tokens[i + 2..close];
            let is_cfg_test = attr.first().is_some_and(|t| t.is_ident("cfg"))
                && attr.iter().any(|t| t.is_ident("test"));
            if is_cfg_test {
                // Skip any further attributes, then mask the item.
                let mut j = close + 1;
                while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[')
                {
                    match matching_close(tokens, j + 1) {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                if j < tokens.len() {
                    let end = item_extent(tokens, j);
                    for m in mask.iter_mut().take(end + 1).skip(i) {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Pair every `{` with its `}`. An unbalanced file (mid-edit) still
/// yields usable blocks: stragglers close at EOF rather than vanishing.
fn find_blocks(tokens: &[Tok]) -> Vec<Block> {
    let mut blocks: Vec<Block> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('{') {
            open.push(blocks.len());
            blocks.push(Block {
                open: i,
                close: usize::MAX,
            });
        } else if t.is_punct('}') {
            if let Some(b) = open.pop() {
                blocks[b].close = i;
            }
        }
    }
    let eof = tokens.len().saturating_sub(1);
    for b in &mut blocks {
        if b.close == usize::MAX {
            b.close = eof;
        }
    }
    blocks
}

/// Count `#[allow(` / `#[expect(` (and `#![...]`) attribute openings.
fn count_lint_attrs(tokens: &[Tok]) -> usize {
    tokens
        .iter()
        .enumerate()
        .filter(|&(i, t)| {
            let at = |k: usize| tokens.get(i + k);
            let bang = usize::from(at(1).is_some_and(|b| b.is_punct('!')));
            t.is_punct('#')
                && at(1 + bang).is_some_and(|b| b.is_punct('['))
                && at(2 + bang).is_some_and(|n| n.is_ident("allow") || n.is_ident("expect"))
                && at(3 + bang).is_some_and(|p| p.is_punct('('))
        })
        .count()
}

/// Discover every `fn` with its visibility, body extent and return type.
fn find_fns(tokens: &[Tok]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue; // `fn(` — a function pointer type, not a definition.
        }
        let is_pub = visibility_is_pub(tokens, i);
        // Parameters: first `(` after the name (generics may intervene).
        let mut j = i + 2;
        let mut angle = 0i64;
        let params_open = loop {
            match tokens.get(j) {
                None => break None,
                Some(t) if t.is_punct('<') => angle += 1,
                Some(t) if t.is_punct('>') => angle -= 1,
                Some(t) if t.is_punct('(') && angle <= 0 => break Some(j),
                Some(t) if t.is_punct('{') || t.is_punct(';') => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(params_open) = params_open else {
            continue;
        };
        let Some(params_close) = matching_close(tokens, params_open) else {
            continue;
        };
        // Return type between `->` and the body `{` / `;` / `where`.
        let mut ret = None;
        let mut k = params_close + 1;
        if tokens.get(k).is_some_and(|t| t.is_punct('-'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('>'))
        {
            let ret_start = k + 2;
            let mut depth = 0i64;
            k = ret_start;
            while let Some(t) = tokens.get(k) {
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_ident("where"))
                {
                    break;
                }
                k += 1;
            }
            if k > ret_start {
                ret = Some((ret_start, k));
            }
        }
        // Body: first top-level `{` (skipping a `where` clause), or `;`.
        let end = item_extent(tokens, params_close + 1);
        let (body_open, body_close) = if tokens.get(end).is_some_and(|t| t.is_punct('}')) {
            // Walk back: `end` closes the body; find its opener.
            let mut open = None;
            for (idx, t) in tokens
                .iter()
                .enumerate()
                .skip(params_close)
                .take(end - params_close)
            {
                if t.is_punct('{') && matching_close(tokens, idx) == Some(end) {
                    open = Some(idx);
                    break;
                }
            }
            (open, Some(end))
        } else {
            (None, None)
        };
        fns.push(FnInfo {
            name: name_tok.text.clone(),
            is_pub,
            fn_idx: i,
            body_open,
            body_close,
            ret,
            line: t.line,
        });
    }
    fns
}

/// Walk backwards over fn qualifiers (`const unsafe extern "C" async`) to
/// find the visibility. `pub(crate)`/`pub(super)` are treated as private:
/// they cannot leak types across the crate boundary.
fn visibility_is_pub(tokens: &[Tok], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    while j > 0 {
        let prev = &tokens[j - 1];
        if prev.kind == TokKind::Str
            || prev.is_ident("const")
            || prev.is_ident("unsafe")
            || prev.is_ident("async")
            || prev.is_ident("extern")
        {
            j -= 1;
            continue;
        }
        if prev.is_punct(')') {
            // Possibly the `(crate)` of a restricted visibility.
            let mut k = j - 1;
            let mut depth = 0i64;
            loop {
                if tokens[k].is_punct(')') {
                    depth += 1;
                } else if tokens[k].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return false;
                }
                k -= 1;
            }
            return false; // pub(crate) / pub(super): restricted.
        }
        return prev.is_ident("pub");
    }
    false
}

/// Parse `adcast-lint:` pragmas out of the comment stream.
fn parse_pragmas(comments: &[Comment]) -> (Vec<Pragma>, Vec<BadPragma>) {
    let mut pragmas = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let text = c.text.trim_start_matches(['/', '!']).trim();
        let Some(rest) = text.strip_prefix("adcast-lint:") else {
            continue;
        };
        let rest = rest.trim();
        if rest == "zero-alloc" {
            pragmas.push(Pragma {
                directive: Directive::ZeroAlloc,
                line: c.end_line,
            });
            continue;
        }
        if let Some(after) = rest.strip_prefix("allow(") {
            let Some(close) = after.find(')') else {
                bad.push(BadPragma {
                    line: c.line,
                    message: "malformed allow pragma: missing `)`".to_string(),
                });
                continue;
            };
            let rule = after[..close].trim().to_string();
            let tail = after[close + 1..].trim();
            let Some(reason) = tail.strip_prefix("--") else {
                bad.push(BadPragma {
                    line: c.line,
                    message: format!("allow({rule}) is missing its mandatory `-- <reason>`"),
                });
                continue;
            };
            let reason = reason.trim();
            if reason.is_empty() {
                bad.push(BadPragma {
                    line: c.line,
                    message: format!("allow({rule}) has an empty reason"),
                });
                continue;
            }
            if !crate::RULES.contains(&rule.as_str()) {
                bad.push(BadPragma {
                    line: c.line,
                    message: format!("allow() names unknown rule `{rule}`"),
                });
                continue;
            }
            pragmas.push(Pragma {
                directive: Directive::Allow {
                    rule,
                    reason: reason.to_string(),
                },
                line: c.end_line,
            });
            continue;
        }
        bad.push(BadPragma {
            line: c.line,
            message: format!("unrecognized adcast-lint directive: `{rest}`"),
        });
    }
    (pragmas, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_items_are_masked() {
        let src =
            "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\n";
        let fa = FileAnalysis::new("x.rs", src);
        let live: Vec<&Tok> = fa
            .tokens
            .iter()
            .zip(&fa.in_test)
            .filter(|(_, m)| !**m)
            .map(|(t, _)| t)
            .collect();
        assert!(live.iter().any(|t| t.is_ident("unwrap")));
        assert!(!live.iter().any(|t| t.is_ident("tests")));
    }

    #[test]
    fn fn_visibility_and_return_types() {
        let src = "pub fn a() -> io::Result<()> { Ok(()) }\npub(crate) fn b() {}\nfn c() {}\n";
        let fa = FileAnalysis::new("x.rs", src);
        assert_eq!(fa.fns.len(), 3);
        assert!(fa.fns[0].is_pub);
        assert!(!fa.fns[1].is_pub);
        assert!(!fa.fns[2].is_pub);
        let (s, e) = fa.fns[0].ret.unwrap();
        let ret: Vec<&str> = fa.tokens[s..e].iter().map(|t| t.text.as_str()).collect();
        assert!(ret.contains(&"io"));
        assert!(ret.contains(&"Result"));
    }

    #[test]
    fn pragma_parsing() {
        let src = "// adcast-lint: allow(lock-discipline) -- checked above\n// adcast-lint: allow(lock-discipline)\n// adcast-lint: zero-alloc\n// adcast-lint: allow(no-panic-hot-path) -- x\n";
        let fa = FileAnalysis::new("x.rs", src);
        assert_eq!(fa.pragmas.len(), 2);
        assert_eq!(fa.bad_pragmas.len(), 2);
        assert!(fa.bad_pragmas[0].message.contains("mandatory"));
        assert!(fa.bad_pragmas[1].message.contains("unknown rule"));
    }

    #[test]
    fn lint_attributes_are_counted_outside_strings() {
        let src = "#![allow(dead_code)]\n#[expect(clippy::expect_used, reason = \"x\")]\n\
                   #[derive(Debug)]\nfn f() { let s = \"#[allow(x)]\"; }\n";
        assert_eq!(FileAnalysis::new("x.rs", src).lint_attrs, 2);
    }

    #[test]
    fn blocks_nest_and_enclose() {
        let fa = FileAnalysis::new("x.rs", "fn f() { if x { y(); } }");
        assert_eq!(fa.blocks.len(), 2);
        let (outer, inner) = (&fa.blocks[0], &fa.blocks[1]);
        assert!(outer.open < inner.open && inner.close < outer.close);
        let y = fa.tokens.iter().position(|t| t.is_ident("y")).unwrap();
        assert_eq!(fa.enclosing_block(y).unwrap().open, inner.open);
    }

    #[test]
    fn next_item_span_covers_whole_fn() {
        let src = "// adcast-lint: allow(lock-discipline) -- all of it\n#[inline]\nfn f() {\n    x.unwrap();\n}\nfn g() { y.unwrap(); }\n";
        let fa = FileAnalysis::new("x.rs", src);
        let (s, e) = fa.next_item_span(1).unwrap();
        assert_eq!((s, e), (3, 5));
    }
}
