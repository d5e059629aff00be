//! Recursive-descent parser for the EPL.
//!
//! Operator precedence: `or` binds looser than `and`, as in the paper's
//! examples (`server.cpu.perc > 80 or server.cpu.perc < 60` is one `or` of
//! two comparisons). Parentheses around conditions are accepted as an
//! extension. A bare identifier in actor position parses as a variable
//! reference; the analyzer later reinterprets it as a type name if it
//! matches the schema (the grammar cannot distinguish the two).

use crate::ast::{AType, ActorRef, Behavior, Caller, Comp, Cond, Feature, Policy, Res, Rule, Stat};
use crate::error::ParseError;
use crate::token::{lex, Pos, Spanned, Tok};

/// Parses a complete policy.
pub fn parse_policy(source: &str) -> Result<Policy, ParseError> {
    let toks = lex(source)?;
    let mut p = Parser { toks, idx: 0 };
    let mut rules = Vec::new();
    while !p.at_eof() {
        rules.push(p.rule()?);
    }
    Ok(Policy { rules })
}

struct Parser {
    toks: Vec<Spanned>,
    idx: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.idx].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.idx + 1).min(self.toks.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.idx].pos
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.idx].tok.clone();
        if self.idx + 1 < self.toks.len() {
            self.idx += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {want} {what}, found {}", self.peek())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.pos(), message)
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    fn is_ident(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if self.is_ident(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn number(&mut self, what: &str) -> Result<f64, ParseError> {
        match *self.peek() {
            Tok::Number(n) => {
                self.bump();
                Ok(n)
            }
            ref other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    // ------------------------------------------------------------------
    // Rules.
    // ------------------------------------------------------------------

    fn rule(&mut self) -> Result<Rule, ParseError> {
        let priority = if matches!(self.peek(), Tok::At) {
            self.bump();
            if !self.eat_ident("priority") {
                return Err(self.err("expected `priority` after `@`"));
            }
            self.expect(&Tok::LParen, "after `@priority`")?;
            let n = self.number("priority value")?;
            self.expect(&Tok::RParen, "after priority value")?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(self.err("priority must be a non-negative integer"));
            }
            Some(n as u32)
        } else {
            None
        };
        let cond = self.cond()?;
        self.expect(&Tok::Arrow, "between condition and behaviors")?;
        let mut behaviors = vec![self.behavior()?];
        while self.peek_behavior_keyword() {
            behaviors.push(self.behavior()?);
        }
        Ok(Rule {
            priority,
            cond,
            behaviors,
        })
    }

    fn peek_behavior_keyword(&self) -> bool {
        matches!(self.peek(), Tok::Ident(s)
            if matches!(s.as_str(), "balance" | "reserve" | "colocate" | "separate" | "pin"))
    }

    // ------------------------------------------------------------------
    // Conditions (or < and < primary).
    // ------------------------------------------------------------------

    fn cond(&mut self) -> Result<Cond, ParseError> {
        let mut lhs = self.and_cond()?;
        while self.eat_ident("or") {
            let rhs = self.and_cond()?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_cond(&mut self) -> Result<Cond, ParseError> {
        let mut lhs = self.prim_cond()?;
        while self.eat_ident("and") {
            let rhs = self.prim_cond()?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn prim_cond(&mut self) -> Result<Cond, ParseError> {
        if matches!(self.peek(), Tok::LParen) {
            self.bump();
            let inner = self.cond()?;
            self.expect(&Tok::RParen, "to close grouped condition")?;
            return Ok(inner);
        }
        if self.is_ident("true") && !matches!(self.peek2(), Tok::Dot | Tok::LParen) {
            self.bump();
            return Ok(Cond::True);
        }
        if self.is_ident("server") {
            self.bump();
            self.expect(&Tok::Dot, "after `server`")?;
            let res = self.res("server resource")?;
            let (stat, comp, val) = self.stat_comp_val()?;
            return Ok(Cond::Compare {
                feat: Feature::ServerRes(res),
                stat,
                comp,
                val,
            });
        }
        if self.is_ident("client") {
            self.bump();
            self.expect(&Tok::Dot, "after `client`")?;
            if !self.eat_ident("call") {
                return Err(self.err("expected `call` after `client.`"));
            }
            let (callee, fname) = self.call_target()?;
            let (stat, comp, val) = self.stat_comp_val()?;
            return Ok(Cond::Compare {
                feat: Feature::Call {
                    caller: Caller::Client,
                    callee,
                    fname,
                },
                stat,
                comp,
                val,
            });
        }
        // An actor reference heads the condition.
        let aref = self.actor_ref("condition subject")?;
        if self.eat_ident("in") {
            if !self.eat_ident("ref") {
                return Err(self.err("expected `ref` after `in`"));
            }
            self.expect(&Tok::LParen, "after `ref`")?;
            let owner = self.actor_ref("reference owner")?;
            self.expect(&Tok::Dot, "between owner and property")?;
            let prop = self.ident("property name")?;
            self.expect(&Tok::RParen, "to close `ref(...)`")?;
            return Ok(Cond::InRef {
                member: aref,
                owner,
                prop,
            });
        }
        self.expect(&Tok::Dot, "after actor reference")?;
        if self.is_ident("call") {
            self.bump();
            let (callee, fname) = self.call_target()?;
            let (stat, comp, val) = self.stat_comp_val()?;
            return Ok(Cond::Compare {
                feat: Feature::Call {
                    caller: Caller::Actor(aref),
                    callee,
                    fname,
                },
                stat,
                comp,
                val,
            });
        }
        let res = self.res("actor resource")?;
        let (stat, comp, val) = self.stat_comp_val()?;
        Ok(Cond::Compare {
            feat: Feature::ActorRes(aref, res),
            stat,
            comp,
            val,
        })
    }

    /// Parses `(callee.fname)` after `call`.
    fn call_target(&mut self) -> Result<(ActorRef, String), ParseError> {
        self.expect(&Tok::LParen, "after `call`")?;
        let callee = self.actor_ref("callee")?;
        self.expect(&Tok::Dot, "between callee and function")?;
        let fname = self.ident("function name")?;
        self.expect(&Tok::RParen, "to close `call(...)`")?;
        Ok((callee, fname))
    }

    /// Parses `.stat comp val`.
    fn stat_comp_val(&mut self) -> Result<(Stat, Comp, f64), ParseError> {
        self.expect(&Tok::Dot, "before statistic")?;
        let stat = self.stat()?;
        let comp = self.comp()?;
        let val = self.number("comparison value")?;
        Ok((stat, comp, val))
    }

    fn res(&mut self, what: &str) -> Result<Res, ParseError> {
        let name = self.ident(what)?;
        match name.as_str() {
            "cpu" => Ok(Res::Cpu),
            "mem" => Ok(Res::Mem),
            "net" => Ok(Res::Net),
            other => Err(self.err(format!(
                "unknown resource `{other}` (expected cpu, mem or net)"
            ))),
        }
    }

    fn stat(&mut self) -> Result<Stat, ParseError> {
        let name = self.ident("statistic")?;
        match name.as_str() {
            "count" => Ok(Stat::Count),
            "size" => Ok(Stat::Size),
            "perc" => Ok(Stat::Perc),
            other => Err(self.err(format!(
                "unknown statistic `{other}` (expected count, size or perc)"
            ))),
        }
    }

    fn comp(&mut self) -> Result<Comp, ParseError> {
        let c = match self.peek() {
            Tok::Lt => Comp::Lt,
            Tok::Gt => Comp::Gt,
            Tok::Le => Comp::Le,
            Tok::Ge => Comp::Ge,
            other => return Err(self.err(format!("expected comparison operator, found {other}"))),
        };
        self.bump();
        Ok(c)
    }

    /// Parses an actor reference: `Type(v)`, `any(v)`, `any`, or a bare
    /// identifier (variable or type; disambiguated by the analyzer).
    fn actor_ref(&mut self, what: &str) -> Result<ActorRef, ParseError> {
        let name = self.ident(what)?;
        let atype = if name == "any" {
            AType::Any
        } else {
            AType::Named(name.clone())
        };
        if matches!(self.peek(), Tok::LParen) {
            self.bump();
            let var = self.ident("variable name")?;
            self.expect(&Tok::RParen, "to close variable declaration")?;
            Ok(ActorRef::Decl(atype, var))
        } else if name == "any" {
            Ok(ActorRef::Type(AType::Any))
        } else {
            Ok(ActorRef::Var(name))
        }
    }

    fn atype(&mut self) -> Result<AType, ParseError> {
        let name = self.ident("actor type")?;
        Ok(if name == "any" {
            AType::Any
        } else {
            AType::Named(name)
        })
    }

    // ------------------------------------------------------------------
    // Behaviors.
    // ------------------------------------------------------------------

    fn behavior(&mut self) -> Result<Behavior, ParseError> {
        let name = self.ident("behavior")?;
        let beh = match name.as_str() {
            "balance" => {
                self.expect(&Tok::LParen, "after `balance`")?;
                self.expect(&Tok::LBrace, "to open type set")?;
                let mut types = vec![self.atype()?];
                while matches!(self.peek(), Tok::Comma) {
                    self.bump();
                    types.push(self.atype()?);
                }
                self.expect(&Tok::RBrace, "to close type set")?;
                self.expect(&Tok::Comma, "between type set and resource")?;
                let res = self.res("balance resource")?;
                self.expect(&Tok::RParen, "to close `balance(...)`")?;
                Behavior::Balance { types, res }
            }
            "reserve" => {
                self.expect(&Tok::LParen, "after `reserve`")?;
                let actor = self.actor_ref("reserve subject")?;
                self.expect(&Tok::Comma, "between actor and resource")?;
                let res = self.res("reserve resource")?;
                self.expect(&Tok::RParen, "to close `reserve(...)`")?;
                Behavior::Reserve { actor, res }
            }
            "colocate" | "separate" => {
                self.expect(&Tok::LParen, "after behavior")?;
                let a = self.actor_ref("first actor")?;
                self.expect(&Tok::Comma, "between actors")?;
                let b = self.actor_ref("second actor")?;
                self.expect(&Tok::RParen, "to close behavior")?;
                if name == "colocate" {
                    Behavior::Colocate(a, b)
                } else {
                    Behavior::Separate(a, b)
                }
            }
            "pin" => {
                self.expect(&Tok::LParen, "after `pin`")?;
                let a = self.actor_ref("pin subject")?;
                self.expect(&Tok::RParen, "to close `pin(...)`")?;
                Behavior::Pin(a)
            }
            other => {
                return Err(self.err(format!(
                "unknown behavior `{other}` (expected balance, reserve, colocate, separate or pin)"
            )))
            }
        };
        self.expect(&Tok::Semi, "after behavior")?;
        Ok(beh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Policy {
        parse_policy(src).unwrap()
    }

    #[test]
    fn parses_pagerank_rule() {
        let p = parse("server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Partition}, cpu);");
        assert_eq!(p.rules.len(), 1);
        let r = &p.rules[0];
        assert!(matches!(r.cond, Cond::Or(..)));
        assert_eq!(r.behaviors.len(), 1);
        assert!(matches!(
            r.behaviors[0],
            Behavior::Balance { ref types, res: Res::Cpu } if types.len() == 1
        ));
    }

    #[test]
    fn parses_metadata_rule() {
        let p = parse(
            "server.cpu.perc > 80 and \
             client.call(Folder(fo).open).perc > 40 and \
             File(fi) in ref(fo.files) => \
             reserve(fo, cpu); colocate(fo, fi);",
        );
        let r = &p.rules[0];
        // ((a and b) and c) left-associated.
        let Cond::And(lhs, rhs) = &r.cond else {
            panic!("expected and");
        };
        assert!(matches!(**rhs, Cond::InRef { .. }));
        assert!(matches!(**lhs, Cond::And(..)));
        assert_eq!(r.behaviors.len(), 2);
        assert!(matches!(
            r.behaviors[0],
            Behavior::Reserve {
                actor: ActorRef::Var(ref v),
                res: Res::Cpu
            } if v == "fo"
        ));
    }

    #[test]
    fn parses_halo_rule() {
        let p = parse("Player(p) in ref(Session(s).players) => pin(s); colocate(p, s);");
        let r = &p.rules[0];
        assert!(matches!(
            r.cond,
            Cond::InRef {
                member: ActorRef::Decl(AType::Named(ref m), ref p),
                owner: ActorRef::Decl(AType::Named(ref o), ref s),
                ref prop,
            } if m == "Player" && p == "p" && o == "Session" && s == "s" && prop == "players"
        ));
        assert_eq!(r.behaviors.len(), 2);
    }

    #[test]
    fn parses_actor_caller_feature() {
        let p =
            parse("VideoStream(v).call(UserInfo(u).track).count > 0 => pin(v); colocate(v, u);");
        let Cond::Compare {
            feat,
            stat,
            comp,
            val,
        } = &p.rules[0].cond
        else {
            panic!()
        };
        assert!(matches!(
            feat,
            Feature::Call {
                caller: Caller::Actor(ActorRef::Decl(AType::Named(ref t), _)),
                ..
            } if t == "VideoStream"
        ));
        assert_eq!(*stat, Stat::Count);
        assert_eq!(*comp, Comp::Gt);
        assert_eq!(*val, 0.0);
    }

    #[test]
    fn parses_true_rule() {
        let p = parse("true => pin(MovieReview(m));");
        assert_eq!(p.rules[0].cond, Cond::True);
    }

    #[test]
    fn parses_multiple_rules() {
        let p = parse(
            "server.cpu.perc > 80 => reserve(Partition(p1), cpu);\n\
             Partition(p2) in ref(p1x.children) => colocate(p1x, p2);\n\
             server.cpu.perc < 50 => balance({Partition}, cpu);",
        );
        assert_eq!(p.rules.len(), 3);
    }

    #[test]
    fn parses_any_and_multi_type_balance() {
        let p = parse("true => balance({any, Worker}, net);");
        assert!(matches!(
            p.rules[0].behaviors[0],
            Behavior::Balance { ref types, res: Res::Net }
                if types == &vec![AType::Any, AType::Named("Worker".into())]
        ));
    }

    #[test]
    fn parses_actor_resource_feature() {
        let p = parse("Worker(w).cpu.perc > 30 => separate(w, Table(t));");
        assert!(matches!(
            p.rules[0].cond,
            Cond::Compare {
                feat: Feature::ActorRes(ActorRef::Decl(..), Res::Cpu),
                stat: Stat::Perc,
                ..
            }
        ));
    }

    #[test]
    fn parses_priority_attribute() {
        let p = parse("@priority(120) true => balance({W}, cpu);");
        assert_eq!(p.rules[0].priority, Some(120));
    }

    #[test]
    fn parses_parenthesized_condition() {
        let p = parse("(server.cpu.perc > 80 or server.mem.perc > 80) and true => pin(any);");
        assert!(matches!(p.rules[0].cond, Cond::And(..)));
    }

    #[test]
    fn parses_comments() {
        let p = parse("# balance the workers\nserver.cpu.perc > 80 => balance({W}, cpu); // done");
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn error_on_missing_arrow() {
        let err = parse_policy("server.cpu.perc > 80 balance({W}, cpu);").unwrap_err();
        assert!(err.message.contains("`=>`"), "{err}");
    }

    #[test]
    fn error_on_unknown_behavior() {
        let err = parse_policy("true => explode(x);").unwrap_err();
        assert!(err.message.contains("unknown behavior"), "{err}");
    }

    #[test]
    fn error_on_unknown_resource() {
        let err = parse_policy("server.gpu.perc > 80 => pin(x);").unwrap_err();
        assert!(err.message.contains("unknown resource"), "{err}");
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse_policy("true => pin(x)").unwrap_err();
        assert!(err.message.contains("`;`"), "{err}");
    }

    #[test]
    fn error_on_bad_priority() {
        assert!(parse_policy("@priority(1.5) true => pin(x);").is_err());
        assert!(parse_policy("@later(1) true => pin(x);").is_err());
    }

    #[test]
    fn error_reports_position() {
        let err = parse_policy("true =>\n  oops(x);").unwrap_err();
        assert_eq!(err.pos.line, 2);
    }

    #[test]
    fn display_roundtrip_paper_rules() {
        let sources = [
            "server.cpu.perc > 80 and client.call(Folder(fo).open).perc > 40 and File(fi) in ref(fo.files) => reserve(fo, cpu); colocate(fo, fi);",
            "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Partition}, cpu);",
            "server.net.perc > 80 or server.net.perc < 60 => balance({FrontEnd}, net);",
            "server.cpu.perc > 50 => reserve(VideoStream(v), cpu);",
            "VideoStream(v).call(UserInfo(u).track).count > 0 => pin(v); colocate(v, u);",
            "true => pin(MovieReview(m));",
            "Player(p) in ref(Session(s).players) => pin(s); colocate(p, s);",
            // A right-nested conjunction keeps its parentheses when printed.
            "true and (true and true) => balance({any}, cpu);",
        ];
        for src in sources {
            let once = parse(src);
            let printed = once.to_string();
            let twice = parse(&printed);
            assert_eq!(
                once, twice,
                "roundtrip failed for {src}\nprinted: {printed}"
            );
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use plasma_sim::rng::check_cases;
    use plasma_sim::DetRng;

    /// Words an identifier must not be.
    const KEYWORDS: [&str; 21] = [
        "and", "or", "true", "in", "ref", "call", "server", "client", "any", "cpu", "mem", "net",
        "count", "size", "perc", "balance", "reserve", "colocate", "separate", "pin", "priority",
    ];

    /// A letter, then up to six letters, digits or underscores; never a
    /// keyword.
    fn ident(rng: &mut DetRng) -> String {
        // The first 52 are the letters.
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
        loop {
            let mut s = String::from(CHARS[rng.index(52)] as char);
            for _ in 0..rng.below(7) {
                s.push(*rng.choose(CHARS) as char);
            }
            if !KEYWORDS.contains(&s.as_str()) {
                return s;
            }
        }
    }

    fn atype(rng: &mut DetRng) -> AType {
        if rng.below(2) == 0 {
            AType::Any
        } else {
            AType::Named(ident(rng))
        }
    }

    fn actor_ref(rng: &mut DetRng) -> ActorRef {
        match rng.below(3) {
            0 => ActorRef::Decl(atype(rng), ident(rng)),
            1 => ActorRef::Type(AType::Any),
            _ => ActorRef::Var(ident(rng)),
        }
    }

    fn res(rng: &mut DetRng) -> Res {
        *rng.choose(&[Res::Cpu, Res::Mem, Res::Net])
    }

    fn feature(rng: &mut DetRng) -> Feature {
        match rng.below(3) {
            0 => Feature::ServerRes(res(rng)),
            1 => Feature::ActorRes(actor_ref(rng), res(rng)),
            _ => Feature::Call {
                caller: if rng.below(2) == 0 {
                    Caller::Client
                } else {
                    Caller::Actor(actor_ref(rng))
                },
                callee: actor_ref(rng),
                fname: ident(rng),
            },
        }
    }

    fn leaf_cond(rng: &mut DetRng) -> Cond {
        match rng.below(3) {
            0 => Cond::True,
            1 => Cond::Compare {
                feat: feature(rng),
                stat: *rng.choose(&[Stat::Count, Stat::Size, Stat::Perc]),
                comp: *rng.choose(&[Comp::Lt, Comp::Gt, Comp::Ge, Comp::Le]),
                val: rng.below(10_000) as f64,
            },
            _ => Cond::InRef {
                member: actor_ref(rng),
                owner: actor_ref(rng),
                prop: ident(rng),
            },
        }
    }

    /// A leaf, or, while `depth` lasts, half the time an `and` or `or` of
    /// two conditions one level shallower.
    fn cond(rng: &mut DetRng, depth: u32) -> Cond {
        if depth == 0 || rng.below(2) == 0 {
            return leaf_cond(rng);
        }
        let a = Box::new(cond(rng, depth - 1));
        let b = Box::new(cond(rng, depth - 1));
        if rng.below(2) == 0 {
            Cond::And(a, b)
        } else {
            Cond::Or(a, b)
        }
    }

    fn behavior(rng: &mut DetRng) -> Behavior {
        match rng.below(5) {
            0 => Behavior::Balance {
                types: (0..1 + rng.below(3)).map(|_| atype(rng)).collect(),
                res: res(rng),
            },
            1 => Behavior::Reserve {
                actor: actor_ref(rng),
                res: res(rng),
            },
            2 => Behavior::Colocate(actor_ref(rng), actor_ref(rng)),
            3 => Behavior::Separate(actor_ref(rng), actor_ref(rng)),
            _ => Behavior::Pin(actor_ref(rng)),
        }
    }

    fn rule(rng: &mut DetRng) -> Rule {
        Rule {
            priority: (rng.below(4) != 0).then(|| rng.below(1000) as u32),
            cond: cond(rng, 3),
            behaviors: (0..1 + rng.below(3)).map(|_| behavior(rng)).collect(),
        }
    }

    /// Up to 200 non-control characters: printable ASCII, and one in ten
    /// from wider Unicode (Latin, Greek, Cyrillic, CJK, emoji).
    fn printable(rng: &mut DetRng) -> String {
        const BLOCKS: [(u32, u32); 5] = [
            (0x00A1, 0x024F),
            (0x0391, 0x03C9),
            (0x0410, 0x044F),
            (0x4E00, 0x4E80),
            (0x1F600, 0x1F64F),
        ];
        (0..rng.below(201))
            .map(|_| {
                let code = if rng.below(10) == 0 {
                    let (lo, hi) = *rng.choose(&BLOCKS);
                    lo + rng.below(u64::from(hi - lo + 1)) as u32
                } else {
                    0x20 + rng.below(0x5F) as u32
                };
                char::from_u32(code).expect("the blocks hold no surrogates")
            })
            .collect()
    }

    #[test]
    fn pretty_print_reparses_to_same_ast() {
        check_cases("pretty_print_reparses_to_same_ast", 64, |rng| {
            let policy = Policy {
                rules: (0..1 + rng.below(4)).map(|_| rule(rng)).collect(),
            };
            let printed = policy.to_string();
            let reparsed = parse_policy(&printed)
                .unwrap_or_else(|e| panic!("reparse failed: {e}\nsource: {printed}"));
            assert_eq!(policy, reparsed);
        });
    }

    #[test]
    fn parser_never_panics() {
        check_cases("parser_never_panics", 64, |rng| {
            let src = printable(rng);
            assert!(!src.chars().any(char::is_control));
            let _ = parse_policy(&src);
        });
    }
}
