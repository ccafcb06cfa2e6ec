//! Recursive-descent parser for the rule language.
//!
//! Operator precedence in event expressions, loosest to tightest:
//! `OR` < `AND` < `;` (sequence) < `NOT` < primaries. Inside `TSEQ(…)` the
//! `;` belongs to the constructor, so its arguments are parsed one
//! precedence level up.

use std::fmt;

use rfid_events::Span;

use crate::ast::{
    ActionAst, CompareOp, CondAst, CondTerm, Define, EventAst, PatternPred, RuleDecl, Script, Term,
    ValueExpr, WhereCond,
};
use crate::token::{lex, LexError, Token};

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// The offending token, if any.
    pub near: Option<String>,
}

impl ParseError {
    fn new(message: impl Into<String>, near: Option<&Token>) -> Self {
        Self {
            message: message.into(),
            near: near.map(|t| t.to_string()),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.near {
            Some(near) => write!(f, "parse error near `{near}`: {}", self.message),
            None => write!(f, "parse error at end of input: {}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(value: LexError) -> Self {
        Self {
            message: value.to_string(),
            near: None,
        }
    }
}

/// Parses a whole script (any number of `DEFINE` and `CREATE RULE`
/// statements).
pub fn parse_script(src: &str) -> Result<Script, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut script = Script::default();
    while !p.at_end() {
        if p.peek_kw("DEFINE") {
            script.defines.push(p.parse_define()?);
        } else if p.peek_kw("CREATE") {
            script.rules.push(p.parse_rule()?);
        } else if p.peek_kw("DROP") {
            p.pos += 1;
            p.expect_kw("RULE")?;
            script.drops.push(p.expect_ident()?);
        } else {
            return Err(ParseError::new(
                "expected DEFINE, CREATE RULE, or DROP RULE",
                p.peek(),
            ));
        }
    }
    Ok(script)
}

/// Parses a single event expression (handy for tests and ad-hoc use).
pub fn parse_event(src: &str) -> Result<EventAst, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let ev = p.parse_event(true)?;
    if !p.at_end() {
        return Err(ParseError::new("trailing input after event", p.peek()));
    }
    Ok(ev)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Whether the next token is the given (case-insensitive) keyword.
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn peek_kw_at(&self, offset: usize, kw: &str) -> bool {
        matches!(self.peek_at(offset), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consumes the given keyword or fails.
    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.peek_kw(kw) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::new(format!("expected `{kw}`"), self.peek()))
        }
    }

    /// Consumes the keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<(), ParseError> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::new(format!("expected `{tok}`"), self.peek()))
        }
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError::new("expected identifier", other.as_ref())),
        }
    }

    fn expect_str(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(s),
            other => Err(ParseError::new("expected string literal", other.as_ref())),
        }
    }

    fn expect_duration(&mut self) -> Result<Span, ParseError> {
        match self.next() {
            Some(Token::Duration(d)) => Ok(d),
            Some(Token::Int(0)) => Ok(Span::ZERO),
            other => Err(ParseError::new(
                "expected duration (e.g. `5 sec`)",
                other.as_ref(),
            )),
        }
    }

    // -- statements ---------------------------------------------------------

    fn parse_define(&mut self) -> Result<Define, ParseError> {
        self.expect_kw("DEFINE")?;
        let name = self.expect_ident()?;
        self.expect(&Token::Eq)?;
        let event = self.parse_event(true)?;
        Ok(Define { name, event })
    }

    fn parse_rule(&mut self) -> Result<RuleDecl, ParseError> {
        self.expect_kw("CREATE")?;
        self.expect_kw("RULE")?;
        let id = self.expect_ident()?;
        self.expect(&Token::Comma)?;
        let name = self.expect_ident()?;
        self.expect_kw("ON")?;
        let event = self.parse_event(true)?;
        self.expect_kw("IF")?;
        let condition = self.parse_cond()?;
        self.expect_kw("DO")?;
        let mut actions = vec![self.parse_action()?];
        while self.eat(&Token::Semi) {
            // Allow a trailing `;` before the next statement or EOF.
            if self.at_end() || self.peek_kw("CREATE") || self.peek_kw("DEFINE") {
                break;
            }
            actions.push(self.parse_action()?);
        }
        Ok(RuleDecl {
            id,
            name,
            event,
            condition,
            actions,
        })
    }

    // -- events -------------------------------------------------------------

    fn parse_event(&mut self, allow_seq: bool) -> Result<EventAst, ParseError> {
        self.parse_ev_or(allow_seq)
    }

    fn parse_ev_or(&mut self, allow_seq: bool) -> Result<EventAst, ParseError> {
        let mut lhs = self.parse_ev_and(allow_seq)?;
        while self.eat(&Token::Vee) || self.eat_kw("OR") {
            let rhs = self.parse_ev_and(allow_seq)?;
            lhs = EventAst::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_ev_and(&mut self, allow_seq: bool) -> Result<EventAst, ParseError> {
        let mut lhs = self.parse_ev_seq(allow_seq)?;
        while self.eat(&Token::Wedge) || self.eat_kw("AND") {
            let rhs = self.parse_ev_seq(allow_seq)?;
            lhs = EventAst::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_ev_seq(&mut self, allow_seq: bool) -> Result<EventAst, ParseError> {
        let mut lhs = self.parse_ev_unary(allow_seq)?;
        while allow_seq && self.eat(&Token::Semi) {
            let rhs = self.parse_ev_unary(allow_seq)?;
            lhs = EventAst::Seq(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    #[allow(clippy::only_used_in_recursion)] // threaded for symmetry with the other levels
    fn parse_ev_unary(&mut self, allow_seq: bool) -> Result<EventAst, ParseError> {
        if self.eat(&Token::Neg) || self.eat_kw("NOT") {
            let inner = self.parse_ev_unary(allow_seq)?;
            return Ok(EventAst::Not(Box::new(inner)));
        }
        self.parse_ev_primary()
    }

    fn parse_ev_primary(&mut self) -> Result<EventAst, ParseError> {
        if self.eat(&Token::LParen) {
            let ev = self.parse_event(true)?;
            self.expect(&Token::RParen)?;
            return Ok(ev);
        }
        if self.peek_kw("WITHIN") {
            self.pos += 1;
            self.expect(&Token::LParen)?;
            let inner = self.parse_event(true)?;
            self.expect(&Token::Comma)?;
            let window = self.expect_duration()?;
            self.expect(&Token::RParen)?;
            return Ok(EventAst::Within {
                inner: Box::new(inner),
                window,
            });
        }
        if self.peek_kw("TSEQ") {
            self.pos += 1;
            if self.eat(&Token::Plus) {
                self.expect(&Token::LParen)?;
                let inner = self.parse_event(false)?;
                self.expect(&Token::Comma)?;
                let min_gap = self.expect_duration()?;
                self.expect(&Token::Comma)?;
                let max_gap = self.expect_duration()?;
                self.expect(&Token::RParen)?;
                return Ok(EventAst::TSeqPlus {
                    inner: Box::new(inner),
                    min_gap,
                    max_gap,
                });
            }
            self.expect(&Token::LParen)?;
            let first = self.parse_event(false)?;
            self.expect(&Token::Semi)?;
            let second = self.parse_event(false)?;
            self.expect(&Token::Comma)?;
            let min_dist = self.expect_duration()?;
            self.expect(&Token::Comma)?;
            let max_dist = self.expect_duration()?;
            self.expect(&Token::RParen)?;
            return Ok(EventAst::TSeq {
                first: Box::new(first),
                second: Box::new(second),
                min_dist,
                max_dist,
            });
        }
        if self.peek_kw("SEQ") {
            self.pos += 1;
            if self.eat(&Token::Plus) {
                self.expect(&Token::LParen)?;
                let inner = self.parse_event(false)?;
                self.expect(&Token::RParen)?;
                return Ok(EventAst::SeqPlus(Box::new(inner)));
            }
            self.expect(&Token::LParen)?;
            let first = self.parse_event(false)?;
            self.expect(&Token::Semi)?;
            let second = self.parse_event(false)?;
            self.expect(&Token::RParen)?;
            return Ok(EventAst::Seq(Box::new(first), Box::new(second)));
        }
        if self.peek_kw("ALL") && self.peek_at(1) == Some(&Token::LParen) {
            // §2.2: ALL(E1, …, En) ≡ E1 ∧ E2 ∧ … ∧ En. Expanded here so the
            // graph merges it with equivalent AND chains.
            self.pos += 1;
            self.expect(&Token::LParen)?;
            let mut events = vec![self.parse_event(true)?];
            while self.eat(&Token::Comma) {
                events.push(self.parse_event(true)?);
            }
            self.expect(&Token::RParen)?;
            let mut iter = events.into_iter();
            let first = iter.next().expect("at least one event parsed");
            return Ok(iter.fold(first, |acc, e| EventAst::And(Box::new(acc), Box::new(e))));
        }
        if self.peek_kw("observation") {
            self.pos += 1;
            self.expect(&Token::LParen)?;
            let reader = self.parse_term()?;
            self.expect(&Token::Comma)?;
            let object = self.parse_term()?;
            self.expect(&Token::Comma)?;
            let time = self.parse_term()?;
            self.expect(&Token::RParen)?;
            let preds = self.parse_pattern_preds()?;
            return Ok(EventAst::Observation {
                reader,
                object,
                time,
                preds,
            });
        }
        match self.next() {
            Some(Token::Ident(name)) => Ok(EventAst::Alias(name)),
            other => Err(ParseError::new(
                "expected an event expression",
                other.as_ref(),
            )),
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(Term::Literal(s)),
            Some(Token::Ident(s)) => Ok(Term::Var(s)),
            other => Err(ParseError::new(
                "expected a literal or variable",
                other.as_ref(),
            )),
        }
    }

    /// Greedily consumes `, group(x)='g'` / `, type(x)='t'` suffixes.
    fn parse_pattern_preds(&mut self) -> Result<Vec<PatternPred>, ParseError> {
        let mut preds = Vec::new();
        while self.peek() == Some(&Token::Comma)
            && (self.peek_kw_at(1, "group") || self.peek_kw_at(1, "type"))
            && self.peek_at(2) == Some(&Token::LParen)
        {
            self.pos += 1; // comma
            let is_group = self.peek_kw("group");
            self.pos += 1; // group/type
            self.expect(&Token::LParen)?;
            let var = self.expect_ident()?;
            self.expect(&Token::RParen)?;
            self.expect(&Token::Eq)?;
            let value = self.expect_str()?;
            preds.push(if is_group {
                PatternPred::Group { var, group: value }
            } else {
                PatternPred::Type { var, ty: value }
            });
        }
        Ok(preds)
    }

    // -- conditions ----------------------------------------------------------

    fn parse_cond(&mut self) -> Result<CondAst, ParseError> {
        let mut lhs = self.parse_cond_and()?;
        while self.eat_kw("OR") || self.eat(&Token::Vee) {
            let rhs = self.parse_cond_and()?;
            lhs = CondAst::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cond_and(&mut self) -> Result<CondAst, ParseError> {
        let mut lhs = self.parse_cond_not()?;
        while self.eat_kw("AND") || self.eat(&Token::Wedge) {
            let rhs = self.parse_cond_not()?;
            lhs = CondAst::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cond_not(&mut self) -> Result<CondAst, ParseError> {
        if self.eat_kw("NOT") || self.eat(&Token::Neg) {
            let inner = self.parse_cond_not()?;
            return Ok(CondAst::Not(Box::new(inner)));
        }
        self.parse_cond_atom()
    }

    fn parse_cond_atom(&mut self) -> Result<CondAst, ParseError> {
        if self.eat_kw("TRUE") {
            return Ok(CondAst::True);
        }
        if self.eat_kw("FALSE") {
            return Ok(CondAst::False);
        }
        if self.eat(&Token::LParen) {
            let c = self.parse_cond()?;
            self.expect(&Token::RParen)?;
            return Ok(c);
        }
        if self.peek_kw("EXISTS") && self.peek_at(1) == Some(&Token::LParen) {
            self.pos += 1;
            self.expect(&Token::LParen)?;
            let table = self.expect_ident()?;
            let wheres = self.parse_where_clause()?;
            self.expect(&Token::RParen)?;
            return Ok(CondAst::Exists { table, wheres });
        }
        let lhs = self.parse_cond_term()?;
        let op = self.parse_compare_op()?;
        let rhs = self.parse_cond_term()?;
        Ok(CondAst::Compare { lhs, op, rhs })
    }

    fn parse_compare_op(&mut self) -> Result<CompareOp, ParseError> {
        let op = match self.peek() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::Ne) => CompareOp::Ne,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::Le) => CompareOp::Le,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::Ge) => CompareOp::Ge,
            other => return Err(ParseError::new("expected a comparison operator", other)),
        };
        self.pos += 1;
        Ok(op)
    }

    fn parse_cond_term(&mut self) -> Result<CondTerm, ParseError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(CondTerm::Str(s)),
            Some(Token::Int(i)) => Ok(CondTerm::Int(i)),
            Some(Token::Duration(d)) => Ok(CondTerm::Duration(d)),
            Some(Token::Ident(name)) => {
                if self.eat(&Token::LParen) {
                    let lower = name.to_ascii_lowercase();
                    match lower.as_str() {
                        "count" => {
                            self.expect(&Token::RParen)?;
                            Ok(CondTerm::Count)
                        }
                        "interval" => {
                            self.expect(&Token::RParen)?;
                            Ok(CondTerm::Interval)
                        }
                        "type" | "group" => {
                            let var = self.expect_ident()?;
                            self.expect(&Token::RParen)?;
                            Ok(if lower == "type" {
                                CondTerm::TypeOf(var)
                            } else {
                                CondTerm::GroupOf(var)
                            })
                        }
                        _ => Err(ParseError::new(
                            format!("unknown condition function `{name}`"),
                            self.peek(),
                        )),
                    }
                } else {
                    Ok(CondTerm::Var(name))
                }
            }
            other => Err(ParseError::new("expected a condition term", other.as_ref())),
        }
    }

    // -- actions ---------------------------------------------------------------

    fn parse_action(&mut self) -> Result<ActionAst, ParseError> {
        if self.eat_kw("BULK") {
            self.expect_kw("INSERT")?;
            let (table, values) = self.parse_insert_tail()?;
            return Ok(ActionAst::BulkInsert { table, values });
        }
        if self.eat_kw("INSERT") {
            let (table, values) = self.parse_insert_tail()?;
            return Ok(ActionAst::Insert { table, values });
        }
        if self.eat_kw("UPDATE") {
            let table = self.expect_ident()?;
            self.expect_kw("SET")?;
            let mut sets = Vec::new();
            loop {
                let column = self.expect_ident()?;
                self.expect(&Token::Eq)?;
                let value = self.parse_value_expr()?;
                sets.push((column, value));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            let wheres = self.parse_where_clause()?;
            return Ok(ActionAst::Update {
                table,
                sets,
                wheres,
            });
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.expect_ident()?;
            let wheres = self.parse_where_clause()?;
            return Ok(ActionAst::Delete { table, wheres });
        }
        // Procedure call.
        let name = self.expect_ident()?;
        let mut args = Vec::new();
        if self.eat(&Token::LParen) && !self.eat(&Token::RParen) {
            loop {
                args.push(self.parse_value_expr()?);
                if self.eat(&Token::RParen) {
                    break;
                }
                self.expect(&Token::Comma)?;
            }
        }
        Ok(ActionAst::Call { name, args })
    }

    fn parse_insert_tail(&mut self) -> Result<(String, Vec<ValueExpr>), ParseError> {
        self.expect_kw("INTO")?;
        let table = self.expect_ident()?;
        self.expect_kw("VALUES")?;
        self.expect(&Token::LParen)?;
        let mut values = Vec::new();
        loop {
            values.push(self.parse_value_expr()?);
            if self.eat(&Token::RParen) {
                break;
            }
            self.expect(&Token::Comma)?;
        }
        Ok((table, values))
    }

    fn parse_where_clause(&mut self) -> Result<Vec<WhereCond>, ParseError> {
        let mut wheres = Vec::new();
        if self.eat_kw("WHERE") {
            loop {
                let column = self.expect_ident()?;
                let op = self.parse_compare_op()?;
                let value = self.parse_value_expr()?;
                wheres.push(WhereCond {
                    column: column.into(),
                    op,
                    value,
                });
                if !self.eat_kw("AND") {
                    break;
                }
            }
        }
        Ok(wheres)
    }

    fn parse_value_expr(&mut self) -> Result<ValueExpr, ParseError> {
        match self.next() {
            Some(Token::Str(s)) if s == "UC" => Ok(ValueExpr::Uc),
            Some(Token::Str(s)) => Ok(ValueExpr::Str(s)),
            Some(Token::Int(i)) => Ok(ValueExpr::Int(i)),
            Some(Token::Ident(name)) => {
                if name.eq_ignore_ascii_case("UC") {
                    return Ok(ValueExpr::Uc);
                }
                if self.eat(&Token::LParen) {
                    let lower = name.to_ascii_lowercase();
                    match lower.as_str() {
                        "now" => {
                            self.expect(&Token::RParen)?;
                            Ok(ValueExpr::Now)
                        }
                        "location" | "group" | "type" => {
                            let var = self.expect_ident()?;
                            self.expect(&Token::RParen)?;
                            Ok(match lower.as_str() {
                                "location" => ValueExpr::LocationOf(var),
                                "group" => ValueExpr::GroupOf(var),
                                _ => ValueExpr::TypeOf(var),
                            })
                        }
                        _ => Err(ParseError::new(
                            format!("unknown value function `{name}`"),
                            self.peek(),
                        )),
                    }
                } else {
                    Ok(ValueExpr::Var(name))
                }
            }
            other => Err(ParseError::new(
                "expected a value expression",
                other.as_ref(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rule1_duplicate_detection() {
        let script = parse_script(
            "CREATE RULE r1, duplicate_detection \
             ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5 sec) \
             IF true \
             DO send_duplicate_msg(r, o, t1)",
        )
        .unwrap();
        assert_eq!(script.rules.len(), 1);
        let rule = &script.rules[0];
        assert_eq!(rule.id, "r1");
        assert_eq!(rule.name, "duplicate_detection");
        assert_eq!(rule.condition, CondAst::True);
        let EventAst::Within { inner, window } = &rule.event else {
            panic!("expected WITHIN, got {:?}", rule.event);
        };
        assert_eq!(*window, Span::from_secs(5));
        assert!(matches!(**inner, EventAst::Seq(..)));
        assert!(matches!(rule.actions[0], ActionAst::Call { .. }));
    }

    #[test]
    fn parses_rule2_infield() {
        let script = parse_script(
            "CREATE RULE r2, infield_filtering \
             ON WITHIN(NOT observation(r, o, t1); observation(r, o, t2), 30 sec) \
             IF true \
             DO INSERT INTO OBSERVATION VALUES (r, o, t2)",
        )
        .unwrap();
        let rule = &script.rules[0];
        let EventAst::Within { inner, .. } = &rule.event else {
            panic!()
        };
        let EventAst::Seq(first, _) = &**inner else {
            panic!("expected SEQ")
        };
        assert!(matches!(**first, EventAst::Not(_)));
        let ActionAst::Insert { table, values } = &rule.actions[0] else {
            panic!()
        };
        assert_eq!(table, "OBSERVATION");
        assert_eq!(values.len(), 3);
    }

    #[test]
    fn parses_rule3_location_change() {
        let script = parse_script(
            "CREATE RULE r3, location_change \
             ON observation(r, o, t) \
             IF true \
             DO UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = UC; \
                INSERT INTO OBJECTLOCATION VALUES (o, location(r), t, UC)",
        )
        .unwrap();
        let rule = &script.rules[0];
        assert_eq!(rule.actions.len(), 2);
        let ActionAst::Update { sets, wheres, .. } = &rule.actions[0] else {
            panic!()
        };
        assert_eq!(sets.len(), 1);
        assert_eq!(wheres.len(), 2);
        assert_eq!(wheres[1].value, ValueExpr::Uc);
        let ActionAst::Insert { values, .. } = &rule.actions[1] else {
            panic!()
        };
        assert_eq!(values[1], ValueExpr::LocationOf("r".into()));
    }

    #[test]
    fn parses_rule4_containment_with_defines() {
        let script = parse_script(
            "DEFINE E1 = observation('r1', o1, t1) \
             DEFINE E2 = observation('r2', o2, t2) \
             CREATE RULE r4, containment_rule \
             ON TSEQ(TSEQ+(E1, 0.1 sec, 1 sec); E2, 10 sec, 20 sec) \
             IF true \
             DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, UC)",
        )
        .unwrap();
        assert_eq!(script.defines.len(), 2);
        assert_eq!(script.defines[0].name, "E1");
        let rule = &script.rules[0];
        let EventAst::TSeq {
            first,
            second,
            min_dist,
            max_dist,
        } = &rule.event
        else {
            panic!()
        };
        assert_eq!(*min_dist, Span::from_secs(10));
        assert_eq!(*max_dist, Span::from_secs(20));
        assert!(matches!(**first, EventAst::TSeqPlus { .. }));
        assert!(matches!(**second, EventAst::Alias(ref n) if n == "E2"));
        assert!(matches!(rule.actions[0], ActionAst::BulkInsert { .. }));
    }

    #[test]
    fn parses_rule5_asset_monitoring() {
        let script = parse_script(
            "DEFINE E4 = observation('r4', o4, t4), type(o4) = 'laptop' \
             DEFINE E5 = observation('r4', o5, t5), type(o5) = 'superuser' \
             CREATE RULE r5, asset_monitoring \
             ON WITHIN(E4 AND NOT E5, 5 sec) \
             IF true \
             DO send_alarm('laptop leaving unaccompanied')",
        )
        .unwrap();
        let d = &script.defines[0];
        let EventAst::Observation { reader, preds, .. } = &d.event else {
            panic!()
        };
        assert_eq!(*reader, Term::Literal("r4".into()));
        assert_eq!(
            preds,
            &[PatternPred::Type {
                var: "o4".into(),
                ty: "laptop".into()
            }]
        );
        let rule = &script.rules[0];
        let EventAst::Within { inner, .. } = &rule.event else {
            panic!()
        };
        let EventAst::And(_, rhs) = &**inner else {
            panic!()
        };
        assert!(matches!(**rhs, EventAst::Not(_)));
    }

    #[test]
    fn unicode_operators_parse() {
        let ev = parse_event("WITHIN(E1 ∧ ¬E2, 5 sec)").unwrap();
        let EventAst::Within { inner, .. } = ev else {
            panic!()
        };
        assert!(matches!(*inner, EventAst::And(..)));
    }

    #[test]
    fn precedence_or_looser_than_and_looser_than_seq() {
        let ev = parse_event("a OR b AND c ; d").unwrap();
        // a OR (b AND (c ; d))
        let EventAst::Or(_, rhs) = ev else {
            panic!("OR at top")
        };
        let EventAst::And(_, rhs) = *rhs else {
            panic!("AND under OR")
        };
        assert!(matches!(*rhs, EventAst::Seq(..)));
    }

    #[test]
    fn group_predicate_parses() {
        let ev = parse_event("observation(r, o, t), group(r) = 'g1', type(o) = 'case'").unwrap();
        let EventAst::Observation { preds, .. } = ev else {
            panic!()
        };
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn conditions_parse() {
        let script = parse_script(
            "CREATE RULE c, cond_demo \
             ON observation(r, o, t) \
             IF type(o) = 'laptop' AND count() >= 1 OR NOT (interval() > 5 sec) \
             DO noop()",
        )
        .unwrap();
        assert!(matches!(script.rules[0].condition, CondAst::Or(..)));
    }

    #[test]
    fn errors_mention_offending_token() {
        let err = parse_script("CREATE RULE r1 duplicate").unwrap_err();
        assert!(err.to_string().contains("`,`"), "{err}");
        assert!(parse_script("BOGUS").is_err());
        assert!(
            parse_event("TSEQ(a; b, 5 sec)").is_err(),
            "missing second bound"
        );
    }

    #[test]
    fn zero_literal_accepted_as_duration() {
        let ev = parse_event("TSEQ+(a, 0, 1 sec)").unwrap();
        let EventAst::TSeqPlus { min_gap, .. } = ev else {
            panic!()
        };
        assert_eq!(min_gap, Span::ZERO);
    }
}
