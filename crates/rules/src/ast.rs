//! Abstract syntax of the rule language.

use rfid_events::Span;
use std::sync::Arc;

/// A parsed script: alias definitions, rules, and drops, in source order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Script {
    /// `DEFINE name = event`.
    pub defines: Vec<Define>,
    /// `CREATE RULE …`.
    pub rules: Vec<RuleDecl>,
    /// `DROP RULE id` — disables a previously created rule. Drops are
    /// applied after the script's own rules load, so a script may create
    /// and immediately retire a rule.
    pub drops: Vec<String>,
}

/// `DEFINE name = event_spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct Define {
    /// Alias name.
    pub name: String,
    /// The aliased event.
    pub event: EventAst,
}

/// `CREATE RULE id, name ON event IF condition DO action1; …; actionN`.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDecl {
    /// Rule id (`r4`).
    pub id: String,
    /// Rule name (`containment_rule`).
    pub name: String,
    /// Event part.
    pub event: EventAst,
    /// Condition part.
    pub condition: CondAst,
    /// Ordered action list.
    pub actions: Vec<ActionAst>,
}

/// A term inside `observation(…)`: either a literal or a variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// `'r1'` / `'urn:epc:…'`.
    Literal(String),
    /// `o1`, `r`, `t2`.
    Var(String),
}

/// Predicates attached to an observation pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternPred {
    /// `group(r) = 'g1'`.
    Group {
        /// The reader variable the predicate constrains.
        var: String,
        /// Required group.
        group: String,
    },
    /// `type(o) = 'laptop'`.
    Type {
        /// The object variable the predicate constrains.
        var: String,
        /// Required type.
        ty: String,
    },
}

/// Event expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum EventAst {
    /// `observation(r, o, t), group(r)='g1', type(o)='case'`.
    Observation {
        /// Reader term.
        reader: Term,
        /// Object term.
        object: Term,
        /// Time term (always a variable; bound for actions).
        time: Term,
        /// Attached predicates.
        preds: Vec<PatternPred>,
    },
    /// Reference to a `DEFINE`d alias.
    Alias(String),
    /// `a OR b` / `a ∨ b`.
    Or(Box<EventAst>, Box<EventAst>),
    /// `a AND b` / `a ∧ b`.
    And(Box<EventAst>, Box<EventAst>),
    /// `NOT a` / `¬a`.
    Not(Box<EventAst>),
    /// `a ; b` / `SEQ(a; b)`.
    Seq(Box<EventAst>, Box<EventAst>),
    /// `TSEQ(a; b, τl, τu)`.
    TSeq {
        /// Initiator.
        first: Box<EventAst>,
        /// Terminator.
        second: Box<EventAst>,
        /// Minimum distance.
        min_dist: Span,
        /// Maximum distance.
        max_dist: Span,
    },
    /// `SEQ+(a)`.
    SeqPlus(Box<EventAst>),
    /// `TSEQ+(a, τl, τu)`.
    TSeqPlus {
        /// Repeated event.
        inner: Box<EventAst>,
        /// Minimum adjacent gap.
        min_gap: Span,
        /// Maximum adjacent gap.
        max_gap: Span,
    },
    /// `WITHIN(a, τ)`.
    Within {
        /// Constrained event.
        inner: Box<EventAst>,
        /// Maximum interval.
        window: Span,
    },
}

/// Condition expressions (`IF …`).
#[derive(Debug, Clone, PartialEq)]
pub enum CondAst {
    /// `true`.
    True,
    /// `false`.
    False,
    /// `a AND b`.
    And(Box<CondAst>, Box<CondAst>),
    /// `a OR b`.
    Or(Box<CondAst>, Box<CondAst>),
    /// `NOT a`.
    Not(Box<CondAst>),
    /// `lhs op rhs`.
    Compare {
        /// Left operand.
        lhs: CondTerm,
        /// Operator.
        op: CompareOp,
        /// Right operand.
        rhs: CondTerm,
    },
    /// `EXISTS(table WHERE …)` — true if the store holds a matching row.
    /// §3 allows SQL queries in conditions; this is the embedded form.
    Exists {
        /// Queried table.
        table: String,
        /// Conjunctive filter (empty = any row).
        wheres: Vec<WhereCond>,
    },
}

/// Comparison operators in conditions and `WHERE` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A condition operand.
#[derive(Debug, Clone, PartialEq)]
pub enum CondTerm {
    /// A bound variable's value.
    Var(String),
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Duration literal.
    Duration(Span),
    /// `type(o)` — object type of a bound EPC.
    TypeOf(String),
    /// `group(r)` — group of a bound reader.
    GroupOf(String),
    /// `count()` — number of primitive constituents of the instance.
    Count,
    /// `interval()` — instance interval in milliseconds.
    Interval,
}

/// Value expressions inside `VALUES (…)`, `SET col = …`, `WHERE col op …`,
/// and procedure arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueExpr {
    /// A bound variable.
    Var(String),
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// The `UC` marker.
    Uc,
    /// `location(r)` — the catalog location of a bound reader.
    LocationOf(String),
    /// `group(r)`.
    GroupOf(String),
    /// `type(o)`.
    TypeOf(String),
    /// `now()` — the instance's end time.
    Now,
}

/// One `WHERE` conjunct: `column op expr`.
#[derive(Debug, Clone, PartialEq)]
pub struct WhereCond {
    /// Column name, shared with every filter built from the conjunct.
    pub column: Arc<str>,
    /// Operator.
    pub op: CompareOp,
    /// Right-hand expression.
    pub value: ValueExpr,
}

/// Actions (`DO …`).
#[derive(Debug, Clone, PartialEq)]
pub enum ActionAst {
    /// `INSERT INTO table VALUES (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Row expressions.
        values: Vec<ValueExpr>,
    },
    /// `BULK INSERT INTO table VALUES (…)` — once per aperiodic element.
    BulkInsert {
        /// Target table.
        table: String,
        /// Row expressions (evaluated per element binding).
        values: Vec<ValueExpr>,
    },
    /// `UPDATE table SET col = expr, … WHERE …`.
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, ValueExpr)>,
        /// Conjunctive filter (empty = all rows).
        wheres: Vec<WhereCond>,
    },
    /// `DELETE FROM table WHERE …`.
    Delete {
        /// Target table.
        table: String,
        /// Conjunctive filter (empty = all rows).
        wheres: Vec<WhereCond>,
    },
    /// `procname(arg, …)` — user procedure invocation.
    Call {
        /// Procedure name.
        name: String,
        /// Argument expressions.
        args: Vec<ValueExpr>,
    },
}
