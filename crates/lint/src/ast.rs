//! A lightweight, lossless AST over the token stream from [`crate::lexer`].
//!
//! Every node carries a half-open token-index [`Span`]. Children always
//! lie inside their parent's span and never overlap, so the whole tree
//! can be printed back out by walking child spans and emitting the gap
//! tokens between them verbatim ([`emit_token_indices`]). The round-trip
//! property test re-lexes that printout and asserts token-stream
//! equality with the original file, which proves the parser attributes
//! every token somewhere — no source the rules read can fall through
//! the semantic layer.
//!
//! The tree is deliberately *shallow* about everything the rules do not
//! need: types, patterns, generics and attributes stay as unparsed gap
//! tokens inside their owning node's span, and anything the parser does
//! not recognise becomes a `Verbatim` node instead of an error.

/// A half-open range of token indices, `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the first token of the node.
    pub lo: usize,
    /// One past the index of the last token of the node.
    pub hi: usize,
}

impl Span {
    /// An empty span at `at`.
    pub fn empty(at: usize) -> Span {
        Span { lo: at, hi: at }
    }
}

/// One parsed source file.
#[derive(Debug, Clone)]
pub struct File {
    /// Top-level items, in source order.
    pub items: Vec<Item>,
    /// The whole token stream (`0..tokens.len()`).
    pub span: Span,
}

/// A top-level or nested item.
#[derive(Debug, Clone)]
pub struct Item {
    /// All tokens of the item, attributes and visibility included.
    pub span: Span,
    /// What the item is.
    pub kind: ItemKind,
}

/// The kinds of item the analyses care about; everything else is
/// `Verbatim`.
#[derive(Debug, Clone)]
pub enum ItemKind {
    /// `fn name(params) -> ret { body }`.
    Fn(FnItem),
    /// `struct Name { fields }` (unit and tuple structs keep no fields).
    Struct(StructItem),
    /// `enum Name { variants }`.
    Enum(EnumItem),
    /// `impl [Trait for] Type { items }`.
    Impl(ImplItem),
    /// An inline `mod name { items }` (out-of-line `mod name;` is Verbatim).
    Mod(ModItem),
    /// `use`/`const`/`static`/`trait`/`type`/`macro_rules!`/unparsed.
    Verbatim,
}

/// A function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Token index of the name.
    pub name_tok: usize,
    /// Whether the first parameter is a `self` receiver.
    pub has_receiver: bool,
    /// Non-receiver parameters, in order.
    pub params: Vec<Param>,
    /// Token texts of the return type (empty when `()`-returning).
    pub ret_ty: Vec<String>,
    /// The body, absent for trait-method signatures (`fn f();`).
    pub body: Option<Block>,
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// The binding name, when the pattern is a simple identifier
    /// (possibly `mut`/`ref`-prefixed); `None` for `_` and tuple patterns.
    pub name: Option<String>,
    /// Token texts of the parameter's type.
    pub ty: Vec<String>,
}

/// A struct item with its named fields.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// Token index of the name.
    pub name_tok: usize,
    /// Named fields (empty for unit and tuple structs).
    pub fields: Vec<FieldDef>,
}

/// One named struct field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// The field's name.
    pub name: String,
    /// Token texts of the field's type.
    pub ty: Vec<String>,
}

/// An enum item; its body is opaque.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// The enum's name.
    pub name: String,
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// The last path segment of the implemented-for type (`Dur` for
    /// `impl fmt::Display for Dur`), empty when unrecognisable.
    pub self_ty: String,
    /// Items inside the impl body.
    pub items: Vec<Item>,
}

/// An inline module.
#[derive(Debug, Clone)]
pub struct ModItem {
    /// The module's name.
    pub name: String,
    /// Items inside the module body.
    pub items: Vec<Item>,
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone)]
pub struct Block {
    /// From the opening `{` to just past the closing `}`.
    pub span: Span,
    /// The statements inside.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// All tokens of the statement, trailing `;` included.
    pub span: Span,
    /// What the statement is.
    pub kind: StmtKind,
}

/// The statement kinds.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `let pat[: ty] = init;`.
    Let {
        /// The bound name when the pattern is a simple identifier.
        name: Option<String>,
        /// Token index of that name.
        name_tok: Option<usize>,
        /// Token texts of the ascribed type, if any.
        ty: Vec<String>,
        /// The initializer expression, if any.
        init: Option<Expr>,
    },
    /// An expression statement (with or without `;`).
    Expr(Expr),
    /// A nested item.
    Item(Box<Item>),
    /// A bare `;` or anything unrecognised.
    Verbatim,
}

/// An expression.
#[derive(Debug, Clone)]
pub struct Expr {
    /// All tokens of the expression.
    pub span: Span,
    /// What the expression is.
    pub kind: ExprKind,
}

/// A binary operator, as its source text (`+`, `<=`, `&&`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` or `-`.
    AddSub,
    /// `%`.
    Rem,
    /// `*`, `/`, `<<`, `>>`, `&`, `|`, `^`.
    MulDivBit,
    /// `==`, `!=`, `<`, `>`, `<=`, `>=`.
    Cmp,
    /// `&&`, `||`.
    Logic,
    /// `..`, `..=`.
    Range,
}

/// The expression kinds.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// `a`, `a::b::c` (turbofish generics stay as gap tokens).
    Path(Vec<String>),
    /// A numeric/string/char literal.
    Lit,
    /// Prefix `-`/`!`/`*`/`&`/`&mut`/`return`/`break`/`continue`.
    Unary(Option<Box<Expr>>),
    /// `lhs OP rhs`.
    Binary {
        /// Operator class (drives the unit algebra).
        op: BinOp,
        /// Token index of the operator's first token.
        op_tok: usize,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs = rhs` or `lhs OP= rhs`.
    Assign {
        /// Token index of the operator's first token.
        op_tok: usize,
        /// `true` for arithmetic compound assignments (`+=`, `-=`).
        dimensional: bool,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
    },
    /// `base.name` (also tuple indices `t.0` and `.await`).
    Field {
        /// The accessed value.
        base: Box<Expr>,
        /// The field's name.
        name: String,
        /// Token index of the name.
        name_tok: usize,
    },
    /// `recv.name(args)`.
    MethodCall {
        /// The receiver.
        recv: Box<Expr>,
        /// The method's name.
        name: String,
        /// Token index of the name.
        name_tok: usize,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `callee(args)`.
    Call {
        /// The called expression (usually a `Path`).
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `base[index]`.
    Index {
        /// The indexed value.
        base: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// `inner as Ty` (the type stays as gap tokens).
    Cast(Box<Expr>),
    /// `(inner)` — exactly one parenthesised expression.
    Paren(Box<Expr>),
    /// `(a, b, …)`, `[a, b, …]`, `[x; n]` — any bracketed element list.
    Group(Vec<Expr>),
    /// `Path { field: value, …, ..rest }`.
    StructLit {
        /// The struct path.
        path: Vec<String>,
        /// `(name, name token, value)`; shorthand fields carry `None`.
        fields: Vec<(String, usize, Option<Expr>)>,
        /// The `..rest` expression, if present.
        rest: Option<Box<Expr>>,
    },
    /// `if cond { then } [else …]` (and `if let`).
    If {
        /// The condition (the `let` pattern, if any, stays as gap tokens).
        cond: Box<Expr>,
        /// The then-block.
        then: Block,
        /// `else` block or chained `if`.
        els: Option<Box<Expr>>,
    },
    /// `while cond { body }` (and `while let`).
    While {
        /// The loop condition.
        cond: Box<Expr>,
        /// The loop body.
        body: Block,
    },
    /// `for pat in iter { body }` (the pattern stays as gap tokens).
    For {
        /// The iterated expression.
        iter: Box<Expr>,
        /// The loop body.
        body: Block,
    },
    /// `loop { body }`.
    Loop(Block),
    /// `match scrutinee { arms }`.
    Match {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// The arms.
        arms: Vec<Arm>,
    },
    /// A `{ … }` block in expression position (incl. `unsafe`/`async`).
    BlockExpr(Block),
    /// `|params| body` / `move |params| body`.
    Closure(Box<Expr>),
    /// `name!(…)` / `name![…]` / `name!{…}` — an opaque atom.
    MacroCall,
    /// `inner?`.
    Try(Box<Expr>),
    /// Anything the parser could not shape; its tokens are all gap.
    Verbatim,
}

/// A `match` arm; the pattern stays as gap tokens inside the arm span.
#[derive(Debug, Clone)]
pub struct Arm {
    /// From the first pattern token past the body (and `,` if present).
    pub span: Span,
    /// The `if` guard, when present.
    pub guard: Option<Expr>,
    /// The arm's body expression.
    pub body: Expr,
}

/// A borrowed reference to any node, for uniform tree walks.
#[derive(Clone, Copy)]
pub enum AnyNode<'a> {
    /// An item node.
    Item(&'a Item),
    /// A block node.
    Block(&'a Block),
    /// A statement node.
    Stmt(&'a Stmt),
    /// An expression node.
    Expr(&'a Expr),
    /// A match-arm node.
    Arm(&'a Arm),
}

impl<'a> AnyNode<'a> {
    /// The node's token span.
    pub fn span(&self) -> Span {
        match self {
            AnyNode::Item(n) => n.span,
            AnyNode::Block(n) => n.span,
            AnyNode::Stmt(n) => n.span,
            AnyNode::Expr(n) => n.span,
            AnyNode::Arm(n) => n.span,
        }
    }

    /// Pushes the node's direct children, in source order.
    pub fn children(&self, out: &mut Vec<AnyNode<'a>>) {
        match self {
            AnyNode::Item(item) => match &item.kind {
                ItemKind::Fn(f) => {
                    if let Some(b) = &f.body {
                        out.push(AnyNode::Block(b));
                    }
                }
                ItemKind::Impl(i) => out.extend(i.items.iter().map(AnyNode::Item)),
                ItemKind::Mod(m) => out.extend(m.items.iter().map(AnyNode::Item)),
                ItemKind::Struct(_) | ItemKind::Enum(_) | ItemKind::Verbatim => {}
            },
            AnyNode::Block(b) => out.extend(b.stmts.iter().map(AnyNode::Stmt)),
            AnyNode::Stmt(s) => match &s.kind {
                StmtKind::Let { init, .. } => {
                    if let Some(e) = init {
                        out.push(AnyNode::Expr(e));
                    }
                }
                StmtKind::Expr(e) => out.push(AnyNode::Expr(e)),
                StmtKind::Item(i) => out.push(AnyNode::Item(i)),
                StmtKind::Verbatim => {}
            },
            AnyNode::Expr(e) => expr_children(e, out),
            AnyNode::Arm(a) => {
                if let Some(g) = &a.guard {
                    out.push(AnyNode::Expr(g));
                }
                out.push(AnyNode::Expr(&a.body));
            }
        }
    }
}

fn expr_children<'a>(e: &'a Expr, out: &mut Vec<AnyNode<'a>>) {
    match &e.kind {
        ExprKind::Path(_) | ExprKind::Lit | ExprKind::MacroCall | ExprKind::Verbatim => {}
        ExprKind::Unary(inner) => {
            if let Some(i) = inner {
                out.push(AnyNode::Expr(i));
            }
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            out.push(AnyNode::Expr(lhs));
            out.push(AnyNode::Expr(rhs));
        }
        ExprKind::Field { base, .. } => out.push(AnyNode::Expr(base)),
        ExprKind::MethodCall { recv, args, .. } => {
            out.push(AnyNode::Expr(recv));
            out.extend(args.iter().map(AnyNode::Expr));
        }
        ExprKind::Call { callee, args } => {
            out.push(AnyNode::Expr(callee));
            out.extend(args.iter().map(AnyNode::Expr));
        }
        ExprKind::Index { base, index } => {
            out.push(AnyNode::Expr(base));
            out.push(AnyNode::Expr(index));
        }
        ExprKind::Cast(i) | ExprKind::Paren(i) | ExprKind::Try(i) | ExprKind::Closure(i) => {
            out.push(AnyNode::Expr(i));
        }
        ExprKind::Group(elems) => out.extend(elems.iter().map(AnyNode::Expr)),
        ExprKind::StructLit { fields, rest, .. } => {
            for (_, _, value) in fields {
                if let Some(v) = value {
                    out.push(AnyNode::Expr(v));
                }
            }
            if let Some(r) = rest {
                out.push(AnyNode::Expr(r));
            }
        }
        ExprKind::If { cond, then, els } => {
            out.push(AnyNode::Expr(cond));
            out.push(AnyNode::Block(then));
            if let Some(e) = els {
                out.push(AnyNode::Expr(e));
            }
        }
        ExprKind::While { cond, body } => {
            out.push(AnyNode::Expr(cond));
            out.push(AnyNode::Block(body));
        }
        ExprKind::For { iter, body } => {
            out.push(AnyNode::Expr(iter));
            out.push(AnyNode::Block(body));
        }
        ExprKind::Loop(b) | ExprKind::BlockExpr(b) => out.push(AnyNode::Block(b)),
        ExprKind::Match { scrutinee, arms } => {
            out.push(AnyNode::Expr(scrutinee));
            out.extend(arms.iter().map(AnyNode::Arm));
        }
    }
}

/// Emits the token indices covered by `node`: child spans recursively,
/// gap tokens verbatim. Malformed child spans (outside the parent or
/// overlapping a sibling) are skipped defensively — the round-trip test
/// then fails loudly on the missing tokens instead of panicking here.
pub fn emit_token_indices(node: AnyNode<'_>, out: &mut Vec<usize>) {
    let Span { lo, hi } = node.span();
    let mut kids: Vec<AnyNode<'_>> = Vec::new();
    node.children(&mut kids);
    let mut cursor = lo;
    for kid in kids {
        let ks = kid.span();
        if ks.lo < cursor || ks.hi > hi || ks.lo > ks.hi {
            continue;
        }
        out.extend(cursor..ks.lo);
        emit_token_indices(kid, out);
        cursor = ks.hi;
    }
    out.extend(cursor..hi);
}

/// Pretty-prints a parsed file by re-emitting every token the tree
/// covers, space-separated. The output is ugly but *token-faithful*:
/// re-lexing it yields the original stream, which is what the round-trip
/// property test asserts.
pub fn print_file(file: &File, tokens: &[crate::lexer::Token]) -> String {
    let mut indices = Vec::with_capacity(tokens.len());
    let mut cursor = file.span.lo;
    for item in &file.items {
        if item.span.lo >= cursor && item.span.hi <= file.span.hi {
            indices.extend(cursor..item.span.lo);
            emit_token_indices(AnyNode::Item(item), &mut indices);
            cursor = item.span.hi;
        }
    }
    indices.extend(cursor..file.span.hi);
    let mut out = String::new();
    for (n, i) in indices.iter().enumerate() {
        if n > 0 {
            out.push(' ');
        }
        out.push_str(&tokens[*i].text);
    }
    out
}
