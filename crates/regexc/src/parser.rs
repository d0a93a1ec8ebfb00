//! Recursive-descent regex parser.
//!
//! Supports the constructs the paper's rule sets use: literals, escapes
//! (`\n \r \t \0 \\ \xHH` and the class shorthands `\d \D \w \W \s \S`),
//! character classes with ranges and negation, `.`, grouping, alternation,
//! and the repetition operators `* + ? {m} {m,} {m,n}`. Anchors are not
//! supported (the workloads use unanchored search semantics, where they would
//! be meaningless).

use crate::ast::{Ast, ClassSet};

/// A parse failure with byte offset into the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Maximum expansion of a bounded repetition, to keep NFA sizes sane.
pub const MAX_REPEAT: u32 = 256;

/// Maximum depth of nested groups: parsing, NFA construction and dropping
/// the AST recurse once per level, so deeper is an error, not an overflow.
pub const MAX_NESTING: usize = 256;

struct Parser<'a> {
    pat: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parses a pattern into an [`Ast`].
pub fn parse(pattern: &str) -> Result<Ast, ParseError> {
    let mut p = Parser { pat: pattern.as_bytes(), pos: 0, depth: 0 };
    let ast = p.alternation()?;
    if p.pos != p.pat.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(ast)
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { at: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.pat.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn alternation(&mut self) -> Result<Ast, ParseError> {
        let mut branches = vec![self.concat()?];
        while self.eat(b'|') {
            branches.push(self.concat()?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().expect("one branch"))
        } else {
            Ok(Ast::Alternate(branches))
        }
    }

    fn concat(&mut self) -> Result<Ast, ParseError> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        match parts.len() {
            0 => Ok(Ast::Empty),
            1 => Ok(parts.pop().expect("one part")),
            _ => Ok(Ast::Concat(parts)),
        }
    }

    fn repeat(&mut self) -> Result<Ast, ParseError> {
        let atom = self.atom()?;
        let (min, max) = match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                (0, None)
            }
            Some(b'+') => {
                self.pos += 1;
                (1, None)
            }
            Some(b'?') => {
                self.pos += 1;
                (0, Some(1))
            }
            Some(b'{') => {
                self.pos += 1;
                let (min, max) = self.counted_repeat()?;
                (min, max)
            }
            _ => return Ok(atom),
        };
        // Reject double repetition like `a**` for clarity.
        if matches!(self.peek(), Some(b'*' | b'+' | b'?' | b'{')) {
            return Err(self.err("nested repetition operator; use a group"));
        }
        Ok(Ast::Repeat { node: Box::new(atom), min, max })
    }

    fn counted_repeat(&mut self) -> Result<(u32, Option<u32>), ParseError> {
        let min = self.number()?;
        let max = if self.eat(b',') {
            if self.peek() == Some(b'}') {
                None
            } else {
                Some(self.number()?)
            }
        } else {
            Some(min)
        };
        if !self.eat(b'}') {
            return Err(self.err("expected '}' after repetition count"));
        }
        if let Some(m) = max {
            if m < min {
                return Err(self.err("repetition max is below min"));
            }
            if m > MAX_REPEAT {
                return Err(self.err("repetition count too large"));
            }
        }
        if min > MAX_REPEAT {
            return Err(self.err("repetition count too large"));
        }
        Ok((min, max))
    }

    fn number(&mut self) -> Result<u32, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        std::str::from_utf8(&self.pat[start..self.pos])
            .expect("digits are ascii")
            .parse::<u32>()
            .map_err(|_| self.err("number too large"))
    }

    fn atom(&mut self) -> Result<Ast, ParseError> {
        match self.bump() {
            None => Err(self.err("expected an atom")),
            Some(b'(') => {
                if self.depth == MAX_NESTING {
                    self.pos -= 1;
                    return Err(self.err("groups nested too deeply"));
                }
                // Non-capturing group marker `(?:` is accepted and ignored;
                // captures are irrelevant for DFA construction.
                if self.peek() == Some(b'?') {
                    self.pos += 1;
                    if !self.eat(b':') {
                        return Err(self.err("only (?: groups are supported"));
                    }
                }
                self.depth += 1;
                let inner = self.alternation()?;
                if !self.eat(b')') {
                    return Err(self.err("expected ')'"));
                }
                self.depth -= 1;
                Ok(inner)
            }
            Some(b'[') => Ok(Ast::Class(self.class()?)),
            Some(b'.') => Ok(Ast::Class(ClassSet::any())),
            Some(b'\\') => Ok(Ast::Class(self.escape()?)),
            Some(b @ (b'*' | b'+' | b'?')) => {
                self.pos -= 1;
                let _ = b;
                Err(self.err("repetition operator with nothing to repeat"))
            }
            Some(b'$') => {
                self.pos -= 1;
                Err(self.err(
                    "end anchors are not supported on streaming DFAs (acceptance is \
                     evaluated at end of input anyway); use \\$ for a literal dollar",
                ))
            }
            Some(b'^') => {
                self.pos -= 1;
                Err(self.err(
                    "'^' is only supported as the first character of a pattern \
                     (start-of-stream anchor); use \\^ for a literal caret",
                ))
            }
            Some(b')') => {
                self.pos -= 1;
                Err(self.err("unmatched ')'"))
            }
            Some(b) => Ok(Ast::literal(b)),
        }
    }

    fn escape(&mut self) -> Result<ClassSet, ParseError> {
        match self.bump() {
            None => Err(self.err("dangling escape")),
            Some(b'n') => Ok(ClassSet::byte(b'\n')),
            Some(b'r') => Ok(ClassSet::byte(b'\r')),
            Some(b't') => Ok(ClassSet::byte(b'\t')),
            Some(b'0') => Ok(ClassSet::byte(0)),
            Some(b'd') => Ok(digit_class()),
            Some(b'D') => Ok(digit_class().negate()),
            Some(b'w') => Ok(word_class()),
            Some(b'W') => Ok(word_class().negate()),
            Some(b's') => Ok(space_class()),
            Some(b'S') => Ok(space_class().negate()),
            Some(b'x') => {
                let hi = self.hex_digit()?;
                let lo = self.hex_digit()?;
                Ok(ClassSet::byte(hi * 16 + lo))
            }
            // Any punctuation escapes to itself (\\, \., \*, \[, ...).
            Some(b) if !b.is_ascii_alphanumeric() => Ok(ClassSet::byte(b)),
            Some(_) => Err(self.err("unsupported escape")),
        }
    }

    fn hex_digit(&mut self) -> Result<u8, ParseError> {
        match self.bump() {
            Some(b @ b'0'..=b'9') => Ok(b - b'0'),
            Some(b @ b'a'..=b'f') => Ok(b - b'a' + 10),
            Some(b @ b'A'..=b'F') => Ok(b - b'A' + 10),
            _ => Err(self.err("expected a hex digit")),
        }
    }

    fn class(&mut self) -> Result<ClassSet, ParseError> {
        let negated = self.eat(b'^');
        let mut ranges: Vec<(u8, u8)> = Vec::new();
        let mut first = true;
        loop {
            let b = match self.bump() {
                None => return Err(self.err("unterminated character class")),
                Some(b']') if !first => break,
                Some(b']') if first => {
                    // A leading ']' is a literal.
                    b']'
                }
                Some(b'\\') => {
                    let cls = self.escape()?;
                    // Shorthand classes can't form ranges; splice directly.
                    if cls.ranges().len() != 1 || cls.ranges()[0].0 != cls.ranges()[0].1 {
                        ranges.extend_from_slice(cls.ranges());
                        first = false;
                        continue;
                    }
                    cls.ranges()[0].0
                }
                Some(b) => b,
            };
            first = false;
            if self.peek() == Some(b'-') && self.pat.get(self.pos + 1) != Some(&b']') {
                self.pos += 1; // consume '-'
                let hi = match self.bump() {
                    None => return Err(self.err("unterminated range")),
                    Some(b'\\') => {
                        let cls = self.escape()?;
                        let rs = cls.ranges();
                        if rs.len() != 1 || rs[0].0 != rs[0].1 {
                            return Err(self.err("class shorthand cannot end a range"));
                        }
                        rs[0].0
                    }
                    Some(h) => h,
                };
                if hi < b {
                    return Err(self.err("range is out of order"));
                }
                ranges.push((b, hi));
            } else {
                ranges.push((b, b));
            }
        }
        let set = ClassSet::new(ranges);
        Ok(if negated { set.negate() } else { set })
    }
}

fn digit_class() -> ClassSet {
    ClassSet::new(vec![(b'0', b'9')])
}

fn word_class() -> ClassSet {
    ClassSet::new(vec![(b'0', b'9'), (b'a', b'z'), (b'A', b'Z'), (b'_', b'_')])
}

fn space_class() -> ClassSet {
    ClassSet::new(vec![(b' ', b' '), (b'\t', b'\t'), (b'\n', b'\n'), (b'\r', b'\r'), (11, 12)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Ast;

    #[test]
    fn literal_concat() {
        let ast = parse("abc").unwrap();
        assert_eq!(ast, Ast::Concat(b"abc".iter().map(|&b| Ast::literal(b)).collect()));
    }

    #[test]
    fn alternation_branches() {
        let ast = parse("a|b|c").unwrap();
        match ast {
            Ast::Alternate(bs) => assert_eq!(bs.len(), 3),
            other => panic!("expected alternation, got {other:?}"),
        }
    }

    #[test]
    fn empty_branch_is_empty_ast() {
        let ast = parse("a|").unwrap();
        match ast {
            Ast::Alternate(bs) => assert_eq!(bs[1], Ast::Empty),
            other => panic!("expected alternation, got {other:?}"),
        }
    }

    #[test]
    fn star_plus_question() {
        assert!(matches!(parse("a*").unwrap(), Ast::Repeat { min: 0, max: None, .. }));
        assert!(matches!(parse("a+").unwrap(), Ast::Repeat { min: 1, max: None, .. }));
        assert!(matches!(parse("a?").unwrap(), Ast::Repeat { min: 0, max: Some(1), .. }));
    }

    #[test]
    fn counted_repeats() {
        assert!(matches!(parse("a{3}").unwrap(), Ast::Repeat { min: 3, max: Some(3), .. }));
        assert!(matches!(parse("a{2,}").unwrap(), Ast::Repeat { min: 2, max: None, .. }));
        assert!(matches!(parse("a{2,5}").unwrap(), Ast::Repeat { min: 2, max: Some(5), .. }));
    }

    #[test]
    fn bad_counted_repeats() {
        assert!(parse("a{5,2}").is_err());
        assert!(parse("a{9999999}").is_err());
        assert!(parse("a{2").is_err());
    }

    #[test]
    fn class_basice() {
        let ast = parse("[a-cx]").unwrap();
        match ast {
            Ast::Class(c) => {
                assert!(c.contains(b'a') && c.contains(b'c') && c.contains(b'x'));
                assert!(!c.contains(b'd'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn negated_class() {
        let ast = parse("[^0-9]").unwrap();
        match ast {
            Ast::Class(c) => {
                assert!(!c.contains(b'5'));
                assert!(c.contains(b'a'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn class_with_shorthand() {
        let ast = parse(r"[\d_]").unwrap();
        match ast {
            Ast::Class(c) => {
                assert!(c.contains(b'7') && c.contains(b'_'));
                assert!(!c.contains(b'a'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn leading_bracket_is_literal() {
        let ast = parse("[]a]").unwrap();
        match ast {
            Ast::Class(c) => {
                assert!(c.contains(b']') && c.contains(b'a'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn trailing_dash_is_literal() {
        let ast = parse("[a-]").unwrap();
        match ast {
            Ast::Class(c) => assert!(c.contains(b'a') && c.contains(b'-')),
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn escapes() {
        assert_eq!(parse(r"\n").unwrap(), Ast::literal(b'\n'));
        assert_eq!(parse(r"\\").unwrap(), Ast::literal(b'\\'));
        assert_eq!(parse(r"\.").unwrap(), Ast::literal(b'.'));
        assert_eq!(parse(r"\x41").unwrap(), Ast::literal(b'A'));
        assert!(parse(r"\x4").is_err());
        assert!(parse(r"\q").is_err());
    }

    #[test]
    fn groups_and_noncapturing() {
        assert_eq!(parse("(ab)").unwrap(), parse("ab").unwrap());
        assert_eq!(parse("(?:ab)").unwrap(), parse("ab").unwrap());
        assert!(parse("(?<name>a)").is_err());
        assert!(parse("(ab").is_err());
        assert!(parse("ab)").is_err());
    }

    #[test]
    fn dangling_operators_rejected() {
        assert!(parse("*a").is_err());
        assert!(parse("a**").is_err());
        assert!(parse("+").is_err());
    }

    #[test]
    fn anchors_have_helpful_errors() {
        // Bare anchors are rejected mid-pattern (a leading ^ is stripped by
        // compile_set before parsing); escaped forms are literals.
        assert!(parse("a$").is_err());
        assert!(parse("a^b").is_err());
        assert_eq!(parse(r"\$").unwrap(), Ast::literal(b'$'));
        assert_eq!(parse(r"\^").unwrap(), Ast::literal(b'^'));
        let err = parse("a$").unwrap_err();
        assert!(err.message.contains("end anchors"), "{err}");
    }

    /// Runs on a default-sized test thread, so a limit too high for the
    /// recursion shows up here as a stack overflow.
    #[test]
    fn nesting_past_the_limit_is_an_error_at_the_offending_paren() {
        let nested = |depth: usize| "(a".repeat(depth) + &")".repeat(depth);
        let at_limit = nested(MAX_NESTING);
        assert!(parse(&at_limit).is_ok());
        crate::compile(&at_limit, crate::CompileConfig::default()).unwrap();
        let err = parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err.at, 2 * MAX_NESTING, "the first '(' past the limit");
        let deep = "(".repeat(100_000) + "a" + &")".repeat(100_000);
        assert_eq!(parse(&deep).unwrap_err().at, MAX_NESTING);
    }

    #[test]
    fn dot_matches_any() {
        match parse(".").unwrap() {
            Ast::Class(c) => {
                assert!(c.contains(0) && c.contains(255) && c.contains(b'\n'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }
}
