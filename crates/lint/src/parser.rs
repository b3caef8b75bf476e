//! A dependency-free recursive-descent parser over [`crate::lexer`]'s
//! token stream, producing the lossless AST in [`crate::ast`].
//!
//! Design constraints, in priority order:
//!
//! 1. **Never fail.** Anything unrecognised becomes a `Verbatim` node or
//!    stays as gap tokens inside its parent's span; the parser has no
//!    error type and cannot panic on malformed input.
//! 2. **Lose nothing.** Every token ends up inside exactly one node's
//!    span (enforced by the round-trip property test), so the semantic
//!    rules see the same source the lexer does.
//! 3. **Parse only what the rules need.** Types, patterns, generics and
//!    attributes are skipped as token runs; expressions get a full Pratt
//!    parser because the unit-dimension analysis walks them.
//!
//! Multi-character operators (`::`, `=>`, `..`, `<=`, `&&`, …) do not
//! exist in the lexer's single-character `Punct` stream; they are
//! detected here by *byte adjacency* — two puncts form one operator only
//! when the second starts exactly where the first ends.

use crate::ast::{
    Arm, BinOp, Block, EnumItem, Expr, ExprKind, FieldDef, File, FnItem, ImplItem, Item, ItemKind,
    ModItem, Param, Span, Stmt, StmtKind, StructItem,
};
use crate::lexer::{TokKind, Token};

/// Parses a whole token stream into a [`File`].
pub fn parse_file(tokens: &[Token]) -> File {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
    };
    let items = p.parse_items(tokens.len());
    File {
        items,
        span: Span {
            lo: 0,
            hi: tokens.len(),
        },
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at(&self, i: usize) -> Option<&'a Token> {
        self.toks.get(i)
    }

    fn is_kw(&self, i: usize, kw: &str) -> bool {
        self.at(i).is_some_and(|t| t.is_ident(kw))
    }

    fn is_p(&self, i: usize, c: char) -> bool {
        self.at(i).is_some_and(|t| t.is_punct(c))
    }

    /// Whether token `i + 1` starts at the byte where token `i` ends —
    /// i.e. the two glue into one multi-character operator.
    fn glued(&self, i: usize) -> bool {
        match (self.at(i), self.at(i + 1)) {
            (Some(a), Some(b)) => b.offset == a.offset + a.len,
            _ => false,
        }
    }

    /// Index of the token after the group opened at `open` (`(`/`[`/`{`),
    /// counting only the same bracket kind — sufficient for well-nested
    /// code, and harmlessly greedy otherwise.
    fn after_matching(&self, open: usize, end: usize) -> usize {
        let (o, c) = match self.at(open).map(|t| t.text.as_str()) {
            Some("(") => ('(', ')'),
            Some("[") => ('[', ']'),
            Some("{") => ('{', '}'),
            _ => return (open + 1).min(end),
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if self.is_p(i, o) {
                depth += 1;
            } else if self.is_p(i, c) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Skips a `<...>` generic-argument list starting at `<`, guarding
    /// against the `>` inside `->` (fn-pointer types in bounds).
    fn skip_generics(&mut self, end: usize) {
        debug_assert!(self.is_p(self.pos, '<'));
        let mut depth = 0usize;
        while self.pos < end {
            if self.is_p(self.pos, '<') {
                depth += 1;
            } else if self.is_p(self.pos, '-')
                && self.glued(self.pos)
                && self.is_p(self.pos + 1, '>')
            {
                self.pos += 2;
                continue;
            } else if self.is_p(self.pos, '>') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// Skips stacked `#[...]` / `#![...]` attributes.
    fn skip_attrs(&mut self, end: usize) {
        loop {
            if self.pos >= end || !self.is_p(self.pos, '#') {
                return;
            }
            let bracket = if self.is_p(self.pos + 1, '[') {
                self.pos + 1
            } else if self.is_p(self.pos + 1, '!') && self.is_p(self.pos + 2, '[') {
                self.pos + 2
            } else {
                return;
            };
            self.pos = self.after_matching(bracket, end);
        }
    }

    /// Skips `pub`, `pub(crate)`, `pub(in path)`.
    fn skip_visibility(&mut self, end: usize) {
        if self.is_kw(self.pos, "pub") {
            self.pos += 1;
            if self.pos < end && self.is_p(self.pos, '(') {
                self.pos = self.after_matching(self.pos, end);
            }
        }
    }

    // ---------------------------------------------------------------- items

    fn parse_items(&mut self, end: usize) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < end {
            let before = self.pos;
            items.push(self.parse_item(end));
            if self.pos <= before {
                // Guaranteed progress: swallow one stray token.
                self.pos = before + 1;
            }
        }
        items
    }

    fn parse_item(&mut self, end: usize) -> Item {
        let lo = self.pos;
        self.skip_attrs(end);
        self.skip_visibility(end);
        // Skip fn qualifiers so `pub const unsafe extern "C" fn` lands on `fn`.
        let mut k = self.pos;
        while self
            .at(k)
            .is_some_and(|t| matches!(t.text.as_str(), "default" | "const" | "async" | "unsafe"))
            && t_is_ident(self.at(k))
        {
            k += 1;
        }
        if self.is_kw(k, "extern") {
            k += 1;
            if self.at(k).is_some_and(|t| t.kind == TokKind::Str) {
                k += 1;
            }
        }
        let kind = match self.at(k).map(|t| t.text.as_str()) {
            Some("fn") if t_is_ident(self.at(k)) => {
                self.pos = k;
                self.parse_fn(lo, end)
            }
            Some("struct") if k == self.pos => self.parse_struct(lo, end),
            Some("enum") if k == self.pos => self.parse_enum(lo, end),
            Some("impl") if k == self.pos => self.parse_impl(lo, end),
            Some("mod") if k == self.pos => self.parse_mod(lo, end),
            _ => self.verbatim_item(end),
        };
        Item {
            span: Span { lo, hi: self.pos },
            kind,
        }
    }

    /// Consumes an unmodelled item: everything up to a top-level `;`, or
    /// through a top-level `{...}` body (plus a glued-on `;`, as in
    /// `use a::{b};`).
    fn verbatim_item(&mut self, end: usize) -> ItemKind {
        while self.pos < end {
            if self.is_p(self.pos, ';') {
                self.pos += 1;
                return ItemKind::Verbatim;
            }
            if matches!(
                self.at(self.pos).map(|t| t.text.as_str()),
                Some("(") | Some("[")
            ) {
                self.pos = self.after_matching(self.pos, end);
                continue;
            }
            if self.is_p(self.pos, '{') {
                self.pos = self.after_matching(self.pos, end);
                if self.pos < end && self.is_p(self.pos, ';') {
                    self.pos += 1;
                }
                return ItemKind::Verbatim;
            }
            self.pos += 1;
        }
        ItemKind::Verbatim
    }

    fn parse_fn(&mut self, _lo: usize, end: usize) -> ItemKind {
        self.pos += 1; // `fn`
        let Some(name_t) = self.at(self.pos).filter(|t| t.kind == TokKind::Ident) else {
            return self.verbatim_item(end);
        };
        let name = name_t.text.clone();
        let name_tok = self.pos;
        self.pos += 1;
        if self.is_p(self.pos, '<') {
            self.skip_generics(end);
        }
        if !self.is_p(self.pos, '(') {
            return self.verbatim_item(end);
        }
        let close = self.after_matching(self.pos, end); // one past `)`
        let (has_receiver, params) = self.parse_params(self.pos + 1, close.saturating_sub(1));
        self.pos = close;
        // Return type: `-> Ty` up to `{`, `;` or `where`.
        let mut ret_ty = Vec::new();
        if self.is_p(self.pos, '-') && self.glued(self.pos) && self.is_p(self.pos + 1, '>') {
            self.pos += 2;
            while self.pos < end
                && !self.is_p(self.pos, '{')
                && !self.is_p(self.pos, ';')
                && !self.is_kw(self.pos, "where")
            {
                ret_ty.push(self.toks[self.pos].text.clone());
                self.pos += 1;
            }
        }
        if self.is_kw(self.pos, "where") {
            while self.pos < end && !self.is_p(self.pos, '{') && !self.is_p(self.pos, ';') {
                self.pos += 1;
            }
        }
        let body = if self.is_p(self.pos, '{') {
            Some(self.parse_block(end))
        } else {
            if self.is_p(self.pos, ';') {
                self.pos += 1;
            }
            None
        };
        ItemKind::Fn(FnItem {
            name,
            name_tok,
            has_receiver,
            params,
            ret_ty,
            body,
        })
    }

    /// Parses the comma-separated parameter list in `[lo, hi)`.
    fn parse_params(&mut self, lo: usize, hi: usize) -> (bool, Vec<Param>) {
        let mut has_receiver = false;
        let mut params = Vec::new();
        for (seg_lo, seg_hi) in split_top_level(self.toks, lo, hi, ',') {
            let mut i = seg_lo;
            // Skip parameter attributes and reference/mut prefixes.
            while i < seg_hi && self.is_p(i, '#') {
                let b = if self.is_p(i + 1, '[') { i + 1 } else { break };
                i = self.after_matching(b, seg_hi);
            }
            let mut j = i;
            while j < seg_hi
                && (self.is_p(j, '&')
                    || self.at(j).is_some_and(|t| t.kind == TokKind::Lifetime)
                    || self.is_kw(j, "mut"))
            {
                j += 1;
            }
            if self.is_kw(j, "self") {
                has_receiver = true;
                continue;
            }
            // Pattern `name :` type — find the top-level `:` (not `::`).
            let mut colon = None;
            let mut depth = 0i32;
            let mut k = i;
            while k < seg_hi {
                match self.toks[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ":" if depth == 0 => {
                        if self.glued(k) && self.is_p(k + 1, ':') {
                            k += 2;
                            continue;
                        }
                        if k > i && self.is_p(k - 1, ':') {
                            k += 1;
                            continue;
                        }
                        colon = Some(k);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let Some(colon) = colon else {
                params.push(Param {
                    name: None,
                    ty: Vec::new(),
                });
                continue;
            };
            // Name: the last ident of a simple pattern (`x`, `mut x`).
            let pat: Vec<&Token> = self.toks[i..colon].iter().collect();
            let name = match pat.as_slice() {
                [t] if t.kind == TokKind::Ident && t.text != "_" => Some(t.text.clone()),
                [m, t] if m.is_ident("mut") && t.kind == TokKind::Ident => Some(t.text.clone()),
                _ => None,
            };
            let ty = self.toks[colon + 1..seg_hi]
                .iter()
                .map(|t| t.text.clone())
                .collect();
            params.push(Param { name, ty });
        }
        (has_receiver, params)
    }

    fn parse_struct(&mut self, _lo: usize, end: usize) -> ItemKind {
        self.pos += 1; // `struct`
        let Some(name_t) = self.at(self.pos).filter(|t| t.kind == TokKind::Ident) else {
            return self.verbatim_item(end);
        };
        let name = name_t.text.clone();
        let name_tok = self.pos;
        self.pos += 1;
        if self.is_p(self.pos, '<') {
            self.skip_generics(end);
        }
        if self.is_kw(self.pos, "where") {
            while self.pos < end && !self.is_p(self.pos, '{') && !self.is_p(self.pos, ';') {
                self.pos += 1;
            }
        }
        if self.is_p(self.pos, ';') {
            self.pos += 1;
            return ItemKind::Struct(StructItem {
                name,
                name_tok,
                fields: Vec::new(),
            });
        }
        if self.is_p(self.pos, '(') {
            // Tuple struct: skip the field list and the trailing `;`.
            self.pos = self.after_matching(self.pos, end);
            while self.pos < end && !self.is_p(self.pos, ';') {
                self.pos += 1;
            }
            if self.is_p(self.pos, ';') {
                self.pos += 1;
            }
            return ItemKind::Struct(StructItem {
                name,
                name_tok,
                fields: Vec::new(),
            });
        }
        if !self.is_p(self.pos, '{') {
            return self.verbatim_item(end);
        }
        let body_end = self.after_matching(self.pos, end); // one past `}`
        let mut fields = Vec::new();
        for (seg_lo, seg_hi) in split_top_level(self.toks, self.pos + 1, body_end - 1, ',') {
            let mut i = seg_lo;
            while i < seg_hi && self.is_p(i, '#') && self.is_p(i + 1, '[') {
                i = self.after_matching(i + 1, seg_hi);
            }
            if self.is_kw(i, "pub") {
                i += 1;
                if self.is_p(i, '(') {
                    i = self.after_matching(i, seg_hi);
                }
            }
            let Some(name_t) = self.at(i).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            if !self.is_p(i + 1, ':') {
                continue;
            }
            fields.push(FieldDef {
                name: name_t.text.clone(),
                ty: self.toks[i + 2..seg_hi]
                    .iter()
                    .map(|t| t.text.clone())
                    .collect(),
            });
        }
        self.pos = body_end;
        ItemKind::Struct(StructItem {
            name,
            name_tok,
            fields,
        })
    }

    fn parse_enum(&mut self, _lo: usize, end: usize) -> ItemKind {
        self.pos += 1; // `enum`
        let Some(name_t) = self.at(self.pos).filter(|t| t.kind == TokKind::Ident) else {
            return self.verbatim_item(end);
        };
        let name = name_t.text.clone();
        self.pos += 1;
        if self.is_p(self.pos, '<') {
            self.skip_generics(end);
        }
        if !self.is_p(self.pos, '{') {
            return self.verbatim_item(end);
        }
        self.pos = self.after_matching(self.pos, end);
        ItemKind::Enum(EnumItem { name })
    }

    fn parse_impl(&mut self, _lo: usize, end: usize) -> ItemKind {
        self.pos += 1; // `impl`
        if self.is_p(self.pos, '<') {
            self.skip_generics(end);
        }
        // Scan the header up to the body `{`, remembering the last path
        // ident after `for` (trait impls) or overall (inherent impls).
        let mut self_ty = String::new();
        let mut after_for = false;
        let mut self_ty_after_for = String::new();
        while self.pos < end && !self.is_p(self.pos, '{') {
            if self.is_kw(self.pos, "where") {
                while self.pos < end && !self.is_p(self.pos, '{') {
                    self.pos += 1;
                }
                break;
            }
            if self.is_kw(self.pos, "for") {
                after_for = true;
            } else if let Some(t) = self.at(self.pos).filter(|t| t.kind == TokKind::Ident) {
                if !matches!(t.text.as_str(), "dyn" | "mut" | "as" | "in") {
                    if after_for {
                        self_ty_after_for = t.text.clone();
                    } else {
                        self_ty = t.text.clone();
                    }
                }
            } else if self.is_p(self.pos, '<') {
                self.skip_generics(end);
                continue;
            }
            self.pos += 1;
        }
        if after_for && !self_ty_after_for.is_empty() {
            self_ty = self_ty_after_for;
        }
        if !self.is_p(self.pos, '{') {
            return ItemKind::Impl(ImplItem {
                self_ty,
                items: Vec::new(),
            });
        }
        let body_end = self.after_matching(self.pos, end);
        self.pos += 1; // `{`
        let items = self.parse_items(body_end - 1);
        self.pos = body_end;
        ItemKind::Impl(ImplItem { self_ty, items })
    }

    fn parse_mod(&mut self, _lo: usize, end: usize) -> ItemKind {
        self.pos += 1; // `mod`
        let Some(name_t) = self.at(self.pos).filter(|t| t.kind == TokKind::Ident) else {
            return self.verbatim_item(end);
        };
        let name = name_t.text.clone();
        self.pos += 1;
        if self.is_p(self.pos, ';') {
            self.pos += 1;
            return ItemKind::Verbatim;
        }
        if !self.is_p(self.pos, '{') {
            return self.verbatim_item(end);
        }
        let body_end = self.after_matching(self.pos, end);
        self.pos += 1;
        let items = self.parse_items(body_end - 1);
        self.pos = body_end;
        ItemKind::Mod(ModItem { name, items })
    }

    // ----------------------------------------------------------- statements

    fn parse_block(&mut self, end: usize) -> Block {
        debug_assert!(self.is_p(self.pos, '{'));
        let lo = self.pos;
        let body_end = self.after_matching(self.pos, end); // one past `}`
        self.pos += 1;
        let inner_end = body_end.saturating_sub(1);
        let mut stmts = Vec::new();
        while self.pos < inner_end {
            let before = self.pos;
            stmts.push(self.parse_stmt(inner_end));
            if self.pos <= before {
                self.pos = before + 1;
            }
        }
        self.pos = body_end;
        Block {
            span: Span { lo, hi: body_end },
            stmts,
        }
    }

    fn parse_stmt(&mut self, end: usize) -> Stmt {
        let lo = self.pos;
        self.skip_attrs(end);
        if self.is_p(self.pos, ';') {
            self.pos += 1;
            return Stmt {
                span: Span { lo, hi: self.pos },
                kind: StmtKind::Verbatim,
            };
        }
        if self.is_kw(self.pos, "let") {
            let kind = self.parse_let(end);
            return Stmt {
                span: Span { lo, hi: self.pos },
                kind,
            };
        }
        // Nested items inside blocks.
        let item_start = {
            let mut k = self.pos;
            if self.is_kw(k, "pub") {
                k += 1;
                if self.is_p(k, '(') {
                    k = self.after_matching(k, end);
                }
            }
            self.at(k).is_some_and(|t| {
                matches!(
                    t.text.as_str(),
                    "fn" | "struct"
                        | "enum"
                        | "impl"
                        | "mod"
                        | "use"
                        | "static"
                        | "trait"
                        | "type"
                        | "macro_rules"
                ) && t.kind == TokKind::Ident
            }) || (self.is_kw(k, "const")
                && self
                    .at(k + 1)
                    .is_some_and(|t| t.kind == TokKind::Ident && t.text != "fn")
                && self.is_p(k + 2, ':'))
                || (self.is_kw(k, "const") && self.is_kw(k + 1, "fn"))
        };
        if item_start {
            self.pos = lo;
            let item = self.parse_item(end);
            return Stmt {
                span: item.span,
                kind: StmtKind::Item(Box::new(item)),
            };
        }
        let expr = self.parse_expr(end, false);
        if self.is_p(self.pos, ';') {
            self.pos += 1;
        }
        Stmt {
            span: Span { lo, hi: self.pos },
            kind: StmtKind::Expr(expr),
        }
    }

    fn parse_let(&mut self, end: usize) -> StmtKind {
        self.pos += 1; // `let`
                       // Pattern: up to a top-level `:`, `=` or `;`.
        let pat_lo = self.pos;
        let mut depth = 0i32;
        while self.pos < end {
            match self.toks[self.pos].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ":" | "=" | ";" if depth == 0 => break,
                _ => {}
            }
            self.pos += 1;
        }
        let pat: Vec<&Token> = self.toks[pat_lo..self.pos].iter().collect();
        let (name, name_tok) = match pat.as_slice() {
            [t] if t.kind == TokKind::Ident && t.text != "_" => {
                (Some(t.text.clone()), Some(pat_lo))
            }
            [m, t] if m.is_ident("mut") && t.kind == TokKind::Ident => {
                (Some(t.text.clone()), Some(pat_lo + 1))
            }
            _ => (None, None),
        };
        // Optional type ascription.
        let mut ty = Vec::new();
        if self.is_p(self.pos, ':') {
            self.pos += 1;
            let mut depth = 0i32;
            while self.pos < end {
                match self.toks[self.pos].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" | ";" if depth == 0 => break,
                    _ => {}
                }
                ty.push(self.toks[self.pos].text.clone());
                self.pos += 1;
            }
        }
        let mut init = None;
        if self.is_p(self.pos, '=') {
            self.pos += 1;
            init = Some(self.parse_expr(end, false));
            // let-else: the diverging block stays as gap tokens.
            if self.is_kw(self.pos, "else") {
                self.pos += 1;
                if self.is_p(self.pos, '{') {
                    self.pos = self.after_matching(self.pos, end);
                }
            }
        }
        if self.is_p(self.pos, ';') {
            self.pos += 1;
        }
        StmtKind::Let {
            name,
            name_tok,
            ty,
            init,
        }
    }

    // ---------------------------------------------------------- expressions

    fn parse_expr(&mut self, end: usize, no_struct: bool) -> Expr {
        self.expr_bp(end, 0, no_struct)
    }

    fn expr_bp(&mut self, end: usize, min_bp: u8, no_struct: bool) -> Expr {
        let lo = self.pos;
        let mut lhs = self.prefix(end, no_struct);
        loop {
            if self.pos >= end {
                break;
            }
            // Postfix operators bind tightest.
            if self.is_p(self.pos, '.') && !(self.glued(self.pos) && self.is_p(self.pos + 1, '.')) {
                lhs = self.postfix_dot(lo, lhs, end);
                continue;
            }
            if self.is_p(self.pos, '?') {
                self.pos += 1;
                lhs = Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Try(Box::new(lhs)),
                };
                continue;
            }
            if self.is_p(self.pos, '(') {
                let close = self.after_matching(self.pos, end);
                let args = self.parse_expr_list(self.pos + 1, close - 1);
                self.pos = close;
                lhs = Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Call {
                        callee: Box::new(lhs),
                        args,
                    },
                };
                continue;
            }
            if self.is_p(self.pos, '[') {
                let close = self.after_matching(self.pos, end);
                self.pos += 1;
                let index = self.parse_expr(close - 1, false);
                self.pos = close;
                lhs = Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Index {
                        base: Box::new(lhs),
                        index: Box::new(index),
                    },
                };
                continue;
            }
            if self.is_kw(self.pos, "as") {
                self.pos += 1;
                self.skip_cast_type(end);
                lhs = Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Cast(Box::new(lhs)),
                };
                continue;
            }
            let Some((op, width, lbp, rbp, assign, dimensional)) = self.peek_binop(end) else {
                break;
            };
            if lbp < min_bp {
                break;
            }
            let op_tok = self.pos;
            self.pos += width;
            // Open-ended ranges: `a..` with nothing range-worthy after.
            if op == BinOp::Range && !self.starts_expr(self.pos, end) {
                lhs = Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Binary {
                        op,
                        op_tok,
                        lhs: Box::new(lhs),
                        rhs: Box::new(Expr {
                            span: Span::empty(self.pos),
                            kind: ExprKind::Verbatim,
                        }),
                    },
                };
                continue;
            }
            let rhs = self.expr_bp(end, rbp, no_struct);
            let kind = if assign {
                ExprKind::Assign {
                    op_tok,
                    dimensional,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                }
            } else {
                ExprKind::Binary {
                    op,
                    op_tok,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                }
            };
            lhs = Expr {
                span: Span { lo, hi: self.pos },
                kind,
            };
        }
        lhs
    }

    /// `(op, token width, left bp, right bp, is assignment, dimensional)`.
    fn peek_binop(&self, end: usize) -> Option<(BinOp, usize, u8, u8, bool, bool)> {
        let i = self.pos;
        if i >= end {
            return None;
        }
        let t = self.at(i)?;
        if t.kind != TokKind::Punct {
            return None;
        }
        let g1 = self.glued(i) && i + 1 < end;
        let c2 = if g1 {
            self.at(i + 1).map(|t| t.text.chars().next().unwrap_or(' '))
        } else {
            None
        };
        let g2 = g1 && self.glued(i + 1) && i + 2 < end;
        let c3 = if g2 {
            self.at(i + 2).map(|t| t.text.chars().next().unwrap_or(' '))
        } else {
            None
        };
        let c1 = t.text.chars().next().unwrap_or(' ');
        Some(match (c1, c2, c3) {
            // Compound assignments first (longest match wins).
            ('<', Some('<'), Some('=')) | ('>', Some('>'), Some('=')) => {
                (BinOp::MulDivBit, 3, 2, 1, true, false)
            }
            ('+', Some('='), _) | ('-', Some('='), _) => (BinOp::AddSub, 2, 2, 1, true, true),
            ('*', Some('='), _)
            | ('/', Some('='), _)
            | ('%', Some('='), _)
            | ('&', Some('='), _)
            | ('|', Some('='), _)
            | ('^', Some('='), _) => (BinOp::MulDivBit, 2, 2, 1, true, false),
            ('=', Some('='), _) => (BinOp::Cmp, 2, 10, 11, false, false),
            ('!', Some('='), _) => (BinOp::Cmp, 2, 10, 11, false, false),
            ('<', Some('='), _) => (BinOp::Cmp, 2, 10, 11, false, false),
            ('>', Some('='), _) => (BinOp::Cmp, 2, 10, 11, false, false),
            ('=', Some('>'), _) => return None, // match arm arrow
            ('=', _, _) => (BinOp::AddSub, 1, 2, 1, true, true), // plain assignment
            ('.', Some('.'), Some('=')) => (BinOp::Range, 3, 4, 5, false, false),
            ('.', Some('.'), _) => (BinOp::Range, 2, 4, 5, false, false),
            ('|', Some('|'), _) => (BinOp::Logic, 2, 6, 7, false, false),
            ('&', Some('&'), _) => (BinOp::Logic, 2, 8, 9, false, false),
            ('|', _, _) => (BinOp::MulDivBit, 1, 12, 13, false, false),
            ('^', _, _) => (BinOp::MulDivBit, 1, 14, 15, false, false),
            ('&', _, _) => (BinOp::MulDivBit, 1, 16, 17, false, false),
            ('<', Some('<'), _) | ('>', Some('>'), _) => {
                (BinOp::MulDivBit, 2, 18, 19, false, false)
            }
            ('<', _, _) | ('>', _, _) => (BinOp::Cmp, 1, 10, 11, false, false),
            ('+', _, _) | ('-', _, _) => (BinOp::AddSub, 1, 20, 21, false, false),
            ('*', _, _) | ('/', _, _) => (BinOp::MulDivBit, 1, 22, 23, false, false),
            ('%', _, _) => (BinOp::Rem, 1, 22, 23, false, false),
            _ => return None,
        })
    }

    /// Whether the token at `i` can start an expression (used for
    /// open-ended ranges).
    fn starts_expr(&self, i: usize, end: usize) -> bool {
        if i >= end {
            return false;
        }
        match self.at(i) {
            Some(t) if t.kind != TokKind::Punct => !t.is_ident("else"),
            Some(t) => matches!(
                t.text.as_str(),
                "(" | "[" | "{" | "-" | "!" | "*" | "&" | "|"
            ),
            None => false,
        }
    }

    fn postfix_dot(&mut self, lo: usize, base: Expr, end: usize) -> Expr {
        self.pos += 1; // `.`
        let Some(t) = self.at(self.pos) else {
            return Expr {
                span: Span { lo, hi: self.pos },
                kind: ExprKind::Verbatim,
            };
        };
        // Tuple index `t.0` or float-ish `t.0.1` (lexed as Num).
        if t.kind == TokKind::Num {
            let name = t.text.clone();
            let name_tok = self.pos;
            self.pos += 1;
            return Expr {
                span: Span { lo, hi: self.pos },
                kind: ExprKind::Field {
                    base: Box::new(base),
                    name,
                    name_tok,
                },
            };
        }
        if t.kind != TokKind::Ident {
            return Expr {
                span: Span { lo, hi: self.pos },
                kind: ExprKind::Verbatim,
            };
        }
        let name = t.text.clone();
        let name_tok = self.pos;
        self.pos += 1;
        // Optional turbofish before a call.
        if self.is_p(self.pos, ':')
            && self.glued(self.pos)
            && self.is_p(self.pos + 1, ':')
            && self.is_p(self.pos + 2, '<')
        {
            self.pos += 2;
            self.skip_generics(end);
        }
        if self.is_p(self.pos, '(') {
            let close = self.after_matching(self.pos, end);
            let args = self.parse_expr_list(self.pos + 1, close - 1);
            self.pos = close;
            return Expr {
                span: Span { lo, hi: self.pos },
                kind: ExprKind::MethodCall {
                    recv: Box::new(base),
                    name,
                    name_tok,
                    args,
                },
            };
        }
        Expr {
            span: Span { lo, hi: self.pos },
            kind: ExprKind::Field {
                base: Box::new(base),
                name,
                name_tok,
            },
        }
    }

    /// Parses comma-separated expressions in `[lo, hi)` (call arguments,
    /// array elements). `[x; n]` repeats split on `;` the same way.
    fn parse_expr_list(&mut self, lo: usize, hi: usize) -> Vec<Expr> {
        let saved = self.pos;
        let mut out = Vec::new();
        self.pos = lo;
        while self.pos < hi {
            let before = self.pos;
            out.push(self.parse_expr(hi, false));
            if self.is_p(self.pos, ',') || self.is_p(self.pos, ';') {
                self.pos += 1;
            }
            if self.pos <= before {
                self.pos = before + 1;
            }
        }
        self.pos = saved;
        out
    }

    fn skip_cast_type(&mut self, end: usize) {
        // `&`s and `mut`, then a path with optional generics, or a
        // parenthesised type. Deliberately does not consume `+`.
        while self.pos < end && (self.is_p(self.pos, '&') || self.is_kw(self.pos, "mut")) {
            self.pos += 1;
        }
        if self.is_p(self.pos, '(') {
            self.pos = self.after_matching(self.pos, end);
            return;
        }
        while self.pos < end {
            if self.at(self.pos).is_some_and(|t| t.kind == TokKind::Ident) {
                self.pos += 1;
                if self.is_p(self.pos, '<') {
                    self.skip_generics(end);
                }
                if self.is_p(self.pos, ':') && self.glued(self.pos) && self.is_p(self.pos + 1, ':')
                {
                    self.pos += 2;
                    continue;
                }
            }
            break;
        }
    }

    fn prefix(&mut self, end: usize, no_struct: bool) -> Expr {
        let lo = self.pos;
        let Some(t) = self.at(self.pos) else {
            return Expr {
                span: Span::empty(lo),
                kind: ExprKind::Verbatim,
            };
        };
        if self.pos >= end {
            return Expr {
                span: Span::empty(lo),
                kind: ExprKind::Verbatim,
            };
        }
        match t.kind {
            TokKind::Num | TokKind::Str | TokKind::Char => {
                self.pos += 1;
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Lit,
                }
            }
            TokKind::Lifetime => {
                // Loop label: `'outer: loop { … }`.
                self.pos += 1;
                if self.is_p(self.pos, ':') {
                    self.pos += 1;
                }
                let inner = self.prefix(end, no_struct);
                Expr {
                    span: Span {
                        lo,
                        hi: self.pos.max(inner.span.hi),
                    },
                    kind: inner.kind,
                }
            }
            TokKind::Punct => self.prefix_punct(lo, end, no_struct),
            TokKind::Ident => self.prefix_ident(lo, end, no_struct),
        }
    }

    fn prefix_punct(&mut self, lo: usize, end: usize, no_struct: bool) -> Expr {
        let c = self.toks[lo].text.chars().next().unwrap_or(' ');
        match c {
            '-' | '!' | '*' => {
                self.pos += 1;
                let inner = self.expr_bp(end, 24, no_struct);
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Unary(Some(Box::new(inner))),
                }
            }
            '&' => {
                self.pos += 1;
                while self.is_p(self.pos, '&') {
                    self.pos += 1;
                }
                if self.is_kw(self.pos, "mut") {
                    self.pos += 1;
                }
                let inner = self.expr_bp(end, 24, no_struct);
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Unary(Some(Box::new(inner))),
                }
            }
            '|' => self.closure(lo, end),
            '{' => {
                let block = self.parse_block(end);
                Expr {
                    span: block.span,
                    kind: ExprKind::BlockExpr(block),
                }
            }
            '(' => {
                let close = self.after_matching(self.pos, end);
                let elems = self.parse_expr_list(self.pos + 1, close - 1);
                self.pos = close;
                let kind = if elems.len() == 1 && !self.contains_comma(lo + 1, close - 1) {
                    ExprKind::Paren(Box::new(elems.into_iter().next().expect("len checked")))
                } else {
                    ExprKind::Group(elems)
                };
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind,
                }
            }
            '[' => {
                let close = self.after_matching(self.pos, end);
                let elems = self.parse_expr_list(self.pos + 1, close - 1);
                self.pos = close;
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Group(elems),
                }
            }
            '.' if self.glued(self.pos) && self.is_p(self.pos + 1, '.') => {
                // Prefix range `..x` / `..=x` / bare `..`.
                self.pos += 2;
                if self.is_p(self.pos, '=') {
                    self.pos += 1;
                }
                if self.starts_expr(self.pos, end) {
                    let rhs = self.expr_bp(end, 5, no_struct);
                    Expr {
                        span: Span { lo, hi: self.pos },
                        kind: ExprKind::Unary(Some(Box::new(rhs))),
                    }
                } else {
                    Expr {
                        span: Span { lo, hi: self.pos },
                        kind: ExprKind::Verbatim,
                    }
                }
            }
            _ => {
                self.pos += 1;
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Verbatim,
                }
            }
        }
    }

    fn contains_comma(&self, lo: usize, hi: usize) -> bool {
        let mut depth = 0i32;
        for i in lo..hi.min(self.toks.len()) {
            match self.toks[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => return true,
                _ => {}
            }
        }
        false
    }

    fn closure(&mut self, lo: usize, end: usize) -> Expr {
        // `|params|` or `||`; `move` was consumed by the caller when present.
        self.pos += 1; // first `|`
        if !(self.glued(lo) && self.is_p(self.pos, '|') && self.toks[lo].is_punct('|')) {
            // Scan to the closing `|` of the parameter list.
            let mut depth = 0i32;
            while self.pos < end {
                match self.toks[self.pos].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "|" if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    _ => {}
                }
                self.pos += 1;
            }
        } else {
            self.pos += 1; // the second `|` of `||`
        }
        // Optional `-> Ty` before a braced body.
        if self.is_p(self.pos, '-') && self.glued(self.pos) && self.is_p(self.pos + 1, '>') {
            self.pos += 2;
            while self.pos < end && !self.is_p(self.pos, '{') {
                self.pos += 1;
            }
        }
        let body = if self.is_p(self.pos, '{') {
            let block = self.parse_block(end);
            Expr {
                span: block.span,
                kind: ExprKind::BlockExpr(block),
            }
        } else {
            self.expr_bp(end, 2, false)
        };
        Expr {
            span: Span { lo, hi: self.pos },
            kind: ExprKind::Closure(Box::new(body)),
        }
    }

    fn prefix_ident(&mut self, lo: usize, end: usize, no_struct: bool) -> Expr {
        let word = self.toks[lo].text.as_str();
        match word {
            "if" => self.parse_if(lo, end),
            "match" => self.parse_match(lo, end),
            "while" => {
                self.pos += 1;
                let cond = self.parse_cond(end);
                let body = self.block_or_empty(end);
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::While {
                        cond: Box::new(cond),
                        body,
                    },
                }
            }
            "for" => {
                self.pos += 1;
                // Pattern up to the top-level `in`.
                let mut depth = 0i32;
                while self.pos < end {
                    match self.toks[self.pos].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "in" if depth == 0 && t_is_ident(self.at(self.pos)) => break,
                        _ => {}
                    }
                    self.pos += 1;
                }
                if self.is_kw(self.pos, "in") {
                    self.pos += 1;
                }
                let iter = self.expr_bp(end, 2, true);
                let body = self.block_or_empty(end);
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::For {
                        iter: Box::new(iter),
                        body,
                    },
                }
            }
            "loop" => {
                self.pos += 1;
                let body = self.block_or_empty(end);
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Loop(body),
                }
            }
            "unsafe" | "async" if self.is_p(lo + 1, '{') => {
                self.pos += 1;
                let body = self.block_or_empty(end);
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::BlockExpr(body),
                }
            }
            "move" => {
                self.pos += 1;
                if self.is_p(self.pos, '|') {
                    let inner = self.closure(self.pos, end);
                    Expr {
                        span: Span { lo, hi: self.pos },
                        kind: inner.kind,
                    }
                } else {
                    // `move` block (async move { … }) or stray keyword.
                    let body = self.block_or_empty(end);
                    Expr {
                        span: Span { lo, hi: self.pos },
                        kind: ExprKind::BlockExpr(body),
                    }
                }
            }
            "return" | "break" | "continue" | "yield" => {
                self.pos += 1;
                if self
                    .at(self.pos)
                    .is_some_and(|t| t.kind == TokKind::Lifetime)
                {
                    self.pos += 1; // break 'label
                }
                let inner = if self.starts_expr(self.pos, end)
                    && !self.is_p(self.pos, '{')
                    && word != "continue"
                {
                    Some(Box::new(self.expr_bp(end, 2, no_struct)))
                } else {
                    None
                };
                Expr {
                    span: Span { lo, hi: self.pos },
                    kind: ExprKind::Unary(inner),
                }
            }
            _ => self.path_based(lo, end, no_struct),
        }
    }

    fn block_or_empty(&mut self, end: usize) -> Block {
        if self.is_p(self.pos, '{') {
            self.parse_block(end)
        } else {
            Block {
                span: Span::empty(self.pos),
                stmts: Vec::new(),
            }
        }
    }

    /// A condition expression: struct literals forbidden, `let` patterns
    /// skipped as gap tokens.
    fn parse_cond(&mut self, end: usize) -> Expr {
        if self.is_kw(self.pos, "let") {
            // `let PAT = expr` — skip the pattern to the top-level `=`.
            self.pos += 1;
            let mut depth = 0i32;
            while self.pos < end {
                match self.toks[self.pos].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" if depth == 0
                        && !(self.glued(self.pos) && self.is_p(self.pos + 1, '=')) =>
                    {
                        break
                    }
                    _ => {}
                }
                self.pos += 1;
            }
            if self.is_p(self.pos, '=') {
                self.pos += 1;
            }
        }
        self.expr_bp(end, 2, true)
    }

    fn parse_if(&mut self, lo: usize, end: usize) -> Expr {
        self.pos += 1; // `if`
        let cond = self.parse_cond(end);
        let then = self.block_or_empty(end);
        let mut els = None;
        if self.is_kw(self.pos, "else") {
            self.pos += 1;
            if self.is_kw(self.pos, "if") {
                let chained = self.parse_if(self.pos, end);
                els = Some(Box::new(chained));
            } else if self.is_p(self.pos, '{') {
                let block = self.parse_block(end);
                els = Some(Box::new(Expr {
                    span: block.span,
                    kind: ExprKind::BlockExpr(block),
                }));
            }
        }
        Expr {
            span: Span { lo, hi: self.pos },
            kind: ExprKind::If {
                cond: Box::new(cond),
                then,
                els,
            },
        }
    }

    fn parse_match(&mut self, lo: usize, end: usize) -> Expr {
        self.pos += 1; // `match`
        let scrutinee = self.expr_bp(end, 2, true);
        if !self.is_p(self.pos, '{') {
            return Expr {
                span: Span { lo, hi: self.pos },
                kind: ExprKind::Match {
                    scrutinee: Box::new(scrutinee),
                    arms: Vec::new(),
                },
            };
        }
        let body_end = self.after_matching(self.pos, end); // one past `}`
        self.pos += 1;
        let inner_end = body_end - 1;
        let mut arms = Vec::new();
        while self.pos < inner_end {
            let arm_lo = self.pos;
            self.skip_attrs(inner_end);
            // Pattern: up to the top-level `=>` or guard `if`.
            let mut depth = 0i32;
            let mut guard = None;
            while self.pos < inner_end {
                match self.toks[self.pos].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" if depth == 0 && self.glued(self.pos) && self.is_p(self.pos + 1, '>') => {
                        break
                    }
                    "if" if depth == 0 && t_is_ident(self.at(self.pos)) => break,
                    _ => {}
                }
                self.pos += 1;
            }
            if self.is_kw(self.pos, "if") {
                self.pos += 1;
                guard = Some(self.expr_bp(inner_end, 2, true));
            }
            if !(self.is_p(self.pos, '=') && self.is_p(self.pos + 1, '>')) {
                // Unparseable arm: bail out, leave the rest as gap tokens.
                self.pos = inner_end;
                break;
            }
            self.pos += 2; // `=>`
            let body = self.parse_expr(inner_end, false);
            if self.is_p(self.pos, ',') {
                self.pos += 1;
            }
            if self.pos <= arm_lo {
                self.pos = arm_lo + 1;
                continue;
            }
            arms.push(Arm {
                span: Span {
                    lo: arm_lo,
                    hi: self.pos,
                },
                guard,
                body,
            });
        }
        self.pos = body_end;
        Expr {
            span: Span { lo, hi: self.pos },
            kind: ExprKind::Match {
                scrutinee: Box::new(scrutinee),
                arms,
            },
        }
    }

    fn path_based(&mut self, lo: usize, end: usize, no_struct: bool) -> Expr {
        let mut segs = vec![self.toks[lo].text.clone()];
        self.pos += 1;
        loop {
            if self.is_p(self.pos, ':')
                && self.glued(self.pos)
                && self.is_p(self.pos + 1, ':')
                && self.pos + 1 < end
            {
                if self.is_p(self.pos + 2, '<') {
                    self.pos += 2;
                    self.skip_generics(end); // turbofish stays as gap tokens
                    continue;
                }
                if self
                    .at(self.pos + 2)
                    .is_some_and(|t| t.kind == TokKind::Ident)
                {
                    segs.push(self.toks[self.pos + 2].text.clone());
                    self.pos += 3;
                    continue;
                }
            }
            break;
        }
        // Macro invocation: `path!` + one delimited group, kept opaque.
        if self.is_p(self.pos, '!') && self.pos < end {
            if let Some(d) = self.at(self.pos + 1) {
                if matches!(d.text.as_str(), "(" | "[" | "{") {
                    self.pos = self.after_matching(self.pos + 1, end);
                    return Expr {
                        span: Span { lo, hi: self.pos },
                        kind: ExprKind::MacroCall,
                    };
                }
            }
        }
        // Struct literal: `Path { name: …, }` — shape-checked to avoid
        // eating the block of `if x { … }` lookalikes.
        if self.is_p(self.pos, '{') && !no_struct && self.looks_like_struct_lit(self.pos, end) {
            return self.struct_lit(lo, segs, end);
        }
        Expr {
            span: Span { lo, hi: self.pos },
            kind: ExprKind::Path(segs),
        }
    }

    fn looks_like_struct_lit(&self, open: usize, _end: usize) -> bool {
        // `{}` / `{ ident : ` / `{ ident , ` / `{ ident }` / `{ .. }`.
        if self.is_p(open + 1, '}') {
            return true;
        }
        if self.is_p(open + 1, '.') && self.is_p(open + 2, '.') {
            return true;
        }
        if self.at(open + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            return self.is_p(open + 2, ':')
                || self.is_p(open + 2, ',')
                || self.is_p(open + 2, '}');
        }
        false
    }

    fn struct_lit(&mut self, lo: usize, path: Vec<String>, end: usize) -> Expr {
        let body_end = self.after_matching(self.pos, end); // one past `}`
        self.pos += 1;
        let inner_end = body_end - 1;
        let mut fields = Vec::new();
        let mut rest = None;
        while self.pos < inner_end {
            let before = self.pos;
            if self.is_p(self.pos, '.') && self.is_p(self.pos + 1, '.') {
                self.pos += 2;
                rest = Some(Box::new(self.parse_expr(inner_end, false)));
                break;
            }
            if let Some(t) = self.at(self.pos).filter(|t| t.kind == TokKind::Ident) {
                let name = t.text.clone();
                let name_tok = self.pos;
                self.pos += 1;
                let value = if self.is_p(self.pos, ':') {
                    self.pos += 1;
                    Some(self.parse_expr(inner_end, false))
                } else {
                    None // shorthand `Foo { bar }`
                };
                fields.push((name, name_tok, value));
            }
            if self.is_p(self.pos, ',') {
                self.pos += 1;
            }
            if self.pos <= before {
                self.pos = before + 1;
            }
        }
        self.pos = body_end;
        Expr {
            span: Span { lo, hi: self.pos },
            kind: ExprKind::StructLit { path, fields, rest },
        }
    }
}

fn t_is_ident(t: Option<&Token>) -> bool {
    t.is_some_and(|t| t.kind == TokKind::Ident)
}

/// Splits `[lo, hi)` on top-level `sep` puncts, tracking `()`/`[]`/`{}`
/// *and* `<>` depth (the `>` of a glued `->` is exempt), so generic
/// arguments like `BTreeMap<u64, u64>` never split a field or parameter.
fn split_top_level(toks: &[Token], lo: usize, hi: usize, sep: char) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = lo;
    let mut i = lo;
    while i < hi.min(toks.len()) {
        let t = &toks[i];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" if depth == 0 => angle += 1,
            "-" if i + 1 < hi
                && toks[i + 1].is_punct('>')
                && toks[i + 1].offset == t.offset + t.len =>
            {
                i += 2; // `->` — its `>` is not a closer
                continue;
            }
            ">" if depth == 0 => angle = (angle - 1).max(0),
            _ => {}
        }
        if depth == 0 && angle == 0 && t.is_punct(sep) {
            if i > start {
                out.push((start, i));
            }
            start = i + 1;
        }
        i += 1;
    }
    if start < hi {
        out.push((start, hi));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AnyNode, ItemKind};
    use crate::lexer::lex;

    fn parse(src: &str) -> (File, Vec<Token>) {
        let tokens = lex(src);
        let file = parse_file(&tokens);
        (file, tokens)
    }

    fn roundtrip(src: &str) {
        let (file, tokens) = parse(src);
        let printed = crate::ast::print_file(&file, &tokens);
        let relexed = lex(&printed);
        assert_eq!(
            relexed.len(),
            tokens.len(),
            "token count drifted for:\n{src}\nprinted:\n{printed}"
        );
        for (a, b) in tokens.iter().zip(relexed.iter()) {
            assert_eq!((a.kind, &a.text), (b.kind, &b.text), "in:\n{src}");
        }
    }

    #[test]
    fn items_are_recognised() {
        let (file, _) = parse(
            "#![forbid(unsafe_code)]\nuse std::fmt;\npub struct S { pub a_ns: u64 }\n\
             enum E { A, B(u32) }\nimpl fmt::Display for S { fn fmt(&self) -> u64 { self.a_ns } }\n\
             mod inner { pub fn f(x_us: u64) -> u64 { x_us } }\nconst N: usize = 3;",
        );
        let kinds: Vec<&str> = file
            .items
            .iter()
            .map(|i| match &i.kind {
                ItemKind::Fn(_) => "fn",
                ItemKind::Struct(_) => "struct",
                ItemKind::Enum(_) => "enum",
                ItemKind::Impl(_) => "impl",
                ItemKind::Mod(_) => "mod",
                ItemKind::Verbatim => "verbatim",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["verbatim", "struct", "enum", "impl", "mod", "verbatim"],
            "{kinds:?}"
        );
        let ItemKind::Impl(imp) = &file.items[3].kind else {
            panic!("impl expected");
        };
        assert_eq!(imp.self_ty, "S");
        assert_eq!(imp.items.len(), 1);
    }

    #[test]
    fn fn_signatures_capture_params_and_ret() {
        let (file, _) = parse("fn f(a_ns: u64, mut b: Dur, _: u32) -> u64 { a_ns }");
        let ItemKind::Fn(f) = &file.items[0].kind else {
            panic!("fn expected");
        };
        assert_eq!(f.name, "f");
        assert!(!f.has_receiver);
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].name.as_deref(), Some("a_ns"));
        assert_eq!(f.params[1].name.as_deref(), Some("b"));
        assert_eq!(f.params[1].ty, vec!["Dur"]);
        assert_eq!(f.params[2].name, None);
        assert_eq!(f.ret_ty, vec!["u64"]);
    }

    #[test]
    fn receivers_and_generic_params_are_handled() {
        let (file, _) =
            parse("impl S { fn m(&mut self, map: BTreeMap<u64, u64>, f: impl Fn(u64) -> u64) {} }");
        let ItemKind::Impl(imp) = &file.items[0].kind else {
            panic!()
        };
        let ItemKind::Fn(m) = &imp.items[0].kind else {
            panic!()
        };
        assert!(m.has_receiver);
        assert_eq!(m.params.len(), 2, "{:?}", m.params);
        assert_eq!(m.params[0].name.as_deref(), Some("map"));
        assert_eq!(m.params[1].name.as_deref(), Some("f"));
    }

    #[test]
    fn struct_fields_record_names_and_types() {
        let (file, _) = parse(
            "pub struct C { pub seed: u64, pub(crate) lat: Dur, inner: Vec<u8>, pub m: BTreeMap<u64, u64> }",
        );
        let ItemKind::Struct(s) = &file.items[0].kind else {
            panic!()
        };
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["seed", "lat", "inner", "m"]);
        assert_eq!(s.fields[1].ty, vec!["Dur"]);
    }

    #[test]
    fn expressions_nest() {
        let (file, _) = parse("fn f() { let x_ns = (a_us + b.c_ns) * k; g(x_ns, h.i(j)); }");
        let ItemKind::Fn(f) = &file.items[0].kind else {
            panic!()
        };
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 2);
        let StmtKind::Let { name, init, .. } = &body.stmts[0].kind else {
            panic!("let expected");
        };
        assert_eq!(name.as_deref(), Some("x_ns"));
        let ExprKind::Binary { op, .. } = &init.as_ref().unwrap().kind else {
            panic!("binary expected: {:?}", init);
        };
        assert_eq!(*op, BinOp::MulDivBit);
    }

    #[test]
    fn round_trips_cover_tricky_syntax() {
        for src in [
            "fn f() { let r = 0..10; let e = 1.5e-3; }",
            "fn f<'a>(x: &'a str) -> char { 'x' }",
            "fn f() { if let Some(v) = o { v } else { 0 }; }",
            "fn f() { match e { A { x, .. } | B(x) if x > 0 => x, 1..=9 => 0, _ => 1 } }",
            "fn f() { v.iter().map(|&p| p * 2).collect::<Vec<_>>() }",
            "fn f() { s! { a: 1 }; w.x[i] += y ** 2; }",
            "fn f() { 'outer: loop { break 'outer; } }",
            "fn f() { let t = (a, b.0, c?); let arr = [0u8; 16]; }",
            "fn f() { S { a: 1, ..S::default() } }",
            "fn f() { move || x + 1; let c = |a: u64, b| -> u64 { a + b }; }",
            "fn f() -> impl Iterator<Item = u64> { (0..3).map(|k| k << 1) }",
            "impl<T: Fn(u64) -> u64> S<T> where T: Clone { fn g(&self) {} }",
            "fn f() { let x = if c { S { f: 1 } } else { S { f: 2 } }; }",
            "macro_rules! m { ($x:expr) => { $x + 1 }; }",
            "fn f() { r#match.r#type = b\"bytes\"; }",
            "fn f() { a = b; a += 1; a <<= 2; x %= m; t &= u; }",
            "trait T { fn sig(&self) -> u64; }\nstatic X: u64 = 1;\ntype A = u64;",
            "fn f() { for (k, v) in m.iter().rev() { g(k, v); } }",
            "fn f() { while let Some(x) = it.next() { acc += x; } }",
            "fn f() { let s = &mut v[..n]; let t = &v[1..]; }",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn garbage_never_panics_and_still_round_trips() {
        for src in [
            "fn",
            "fn f(",
            "struct {",
            "impl ) weird [ tokens }",
            "fn f() { let = ; } }",
            "enum E { A",
            "# ! [ zzz",
            "fn f() { a .. }",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn every_token_is_owned_exactly_once() {
        let src = "fn f(a_ns: u64) -> u64 { match a_ns { 0 => 1, n => n * 2 } }";
        let (file, tokens) = parse(src);
        let mut indices = Vec::new();
        let mut cursor = 0;
        for item in &file.items {
            indices.extend(cursor..item.span.lo);
            crate::ast::emit_token_indices(AnyNode::Item(item), &mut indices);
            cursor = item.span.hi;
        }
        indices.extend(cursor..tokens.len());
        let expect: Vec<usize> = (0..tokens.len()).collect();
        assert_eq!(indices, expect, "gaps or overlaps in span ownership");
    }
}
