//! Regex abstract syntax.

/// A set of inclusive byte ranges (a character class after parsing; negation
/// is resolved at parse time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassSet {
    ranges: Vec<(u8, u8)>,
}

impl ClassSet {
    /// Builds a class from raw (possibly overlapping, unordered) ranges.
    pub fn new(mut ranges: Vec<(u8, u8)>) -> Self {
        ranges.retain(|&(lo, hi)| lo <= hi);
        ranges.sort_unstable();
        // Merge overlapping/adjacent ranges.
        let mut merged: Vec<(u8, u8)> = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some((_, phi)) if u16::from(lo) <= u16::from(*phi) + 1 => {
                    *phi = (*phi).max(hi);
                }
                _ => merged.push((lo, hi)),
            }
        }
        ClassSet { ranges: merged }
    }

    /// A class containing a single byte.
    pub fn byte(b: u8) -> Self {
        ClassSet { ranges: vec![(b, b)] }
    }

    /// The full byte range (what `.` means here; we match bytes, not UTF-8
    /// scalars, just as RE2's byte-mode DFAs do).
    pub fn any() -> Self {
        ClassSet { ranges: vec![(0, 255)] }
    }

    /// The normalized ranges.
    pub fn ranges(&self) -> &[(u8, u8)] {
        &self.ranges
    }

    /// Whether `b` is in the class.
    pub fn contains(&self, b: u8) -> bool {
        self.ranges.iter().any(|&(lo, hi)| lo <= b && b <= hi)
    }

    /// The complement class.
    pub fn negate(&self) -> Self {
        let mut out = Vec::new();
        let mut next = 0u16;
        for &(lo, hi) in &self.ranges {
            if u16::from(lo) > next {
                out.push((next as u8, lo - 1));
            }
            next = u16::from(hi) + 1;
        }
        if next <= 255 {
            out.push((next as u8, 255));
        }
        ClassSet { ranges: out }
    }

    /// Union with another class.
    pub fn union(&self, other: &ClassSet) -> Self {
        let mut ranges = self.ranges.clone();
        ranges.extend_from_slice(&other.ranges);
        ClassSet::new(ranges)
    }

    /// Adds both cases of ASCII letters (for case-insensitive compilation).
    pub fn case_fold(&self) -> Self {
        let mut extra = Vec::new();
        for &(lo, hi) in &self.ranges {
            for b in lo..=hi {
                if b.is_ascii_lowercase() {
                    extra.push((b.to_ascii_uppercase(), b.to_ascii_uppercase()));
                } else if b.is_ascii_uppercase() {
                    extra.push((b.to_ascii_lowercase(), b.to_ascii_lowercase()));
                }
                if b == u8::MAX {
                    break;
                }
            }
        }
        if extra.is_empty() {
            return self.clone();
        }
        let mut ranges = self.ranges.clone();
        ranges.extend(extra);
        ClassSet::new(ranges)
    }
}

/// Parsed regex syntax tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// Matches one byte from the class.
    Class(ClassSet),
    /// Concatenation.
    Concat(Vec<Ast>),
    /// Alternation.
    Alternate(Vec<Ast>),
    /// Repetition `{min, max}`; `max = None` is unbounded.
    Repeat {
        /// The repeated subexpression.
        node: Box<Ast>,
        /// Minimum repetitions.
        min: u32,
        /// Maximum repetitions (`None` = unbounded).
        max: Option<u32>,
    },
}

impl Ast {
    /// Single literal byte.
    pub fn literal(b: u8) -> Ast {
        Ast::Class(ClassSet::byte(b))
    }

    /// Renders the AST back to pattern syntax. `parse(ast.to_pattern())`
    /// yields a tree with the same language (round-trip property-tested).
    pub fn to_pattern(&self) -> String {
        fn class_to_pattern(c: &ClassSet) -> String {
            let ranges = c.ranges();
            if ranges.len() == 1 && ranges[0].0 == ranges[0].1 {
                return escape_byte(ranges[0].0);
            }
            if ranges == [(0, 255)] {
                return ".".to_string();
            }
            let mut out = String::from("[");
            for &(lo, hi) in ranges {
                if lo == hi {
                    out.push_str(&escape_in_class(lo));
                } else {
                    out.push_str(&format!("{}-{}", escape_in_class(lo), escape_in_class(hi)));
                }
            }
            out.push(']');
            out
        }
        fn escape_byte(b: u8) -> String {
            match b {
                b'(' | b')' | b'[' | b']' | b'{' | b'}' | b'*' | b'+' | b'?' | b'|' | b'.'
                | b'\\' | b'^' | b'$' => format!("\\{}", b as char),
                0x20..=0x7e => (b as char).to_string(),
                _ => format!("\\x{b:02x}"),
            }
        }
        fn escape_in_class(b: u8) -> String {
            match b {
                b'\\' | b']' | b'^' | b'-' => format!("\\{}", b as char),
                0x21..=0x7e => (b as char).to_string(),
                _ => format!("\\x{b:02x}"),
            }
        }
        fn needs_group(node: &Ast) -> bool {
            matches!(node, Ast::Concat(_) | Ast::Alternate(_) | Ast::Repeat { .. })
        }
        match self {
            Ast::Empty => "(?:)".to_string(),
            Ast::Class(c) => class_to_pattern(c),
            Ast::Concat(xs) => xs
                .iter()
                .map(|x| {
                    if matches!(x, Ast::Alternate(_)) {
                        format!("(?:{})", x.to_pattern())
                    } else {
                        x.to_pattern()
                    }
                })
                .collect(),
            Ast::Alternate(xs) => xs
                .iter()
                .map(|x| {
                    if matches!(x, Ast::Alternate(_)) {
                        format!("(?:{})", x.to_pattern())
                    } else {
                        x.to_pattern()
                    }
                })
                .collect::<Vec<_>>()
                .join("|"),
            Ast::Repeat { node, min, max } => {
                let body = if needs_group(node) {
                    format!("(?:{})", node.to_pattern())
                } else {
                    node.to_pattern()
                };
                match (min, max) {
                    (0, None) => format!("{body}*"),
                    (1, None) => format!("{body}+"),
                    (0, Some(1)) => format!("{body}?"),
                    (m, None) => format!("{body}{{{m},}}"),
                    (m, Some(x)) if m == x => format!("{body}{{{m}}}"),
                    (m, Some(x)) => format!("{body}{{{m},{x}}}"),
                }
            }
        }
    }

    /// Applies ASCII case folding to every class in the tree.
    pub fn case_fold(&self) -> Ast {
        match self {
            Ast::Empty => Ast::Empty,
            Ast::Class(c) => Ast::Class(c.case_fold()),
            Ast::Concat(xs) => Ast::Concat(xs.iter().map(Ast::case_fold).collect()),
            Ast::Alternate(xs) => Ast::Alternate(xs.iter().map(Ast::case_fold).collect()),
            Ast::Repeat { node, min, max } => {
                Ast::Repeat { node: Box::new(node.case_fold()), min: *min, max: *max }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_merges_overlaps() {
        let c = ClassSet::new(vec![(b'a', b'f'), (b'c', b'k'), (b'm', b'm')]);
        assert_eq!(c.ranges(), &[(b'a', b'k'), (b'm', b'm')]);
    }

    #[test]
    fn class_merges_adjacent() {
        let c = ClassSet::new(vec![(b'a', b'c'), (b'd', b'f')]);
        assert_eq!(c.ranges(), &[(b'a', b'f')]);
    }

    #[test]
    fn negate_round_trips() {
        let c = ClassSet::new(vec![(b'0', b'9'), (b'a', b'z')]);
        let n = c.negate();
        for b in 0..=255u8 {
            assert_eq!(c.contains(b), !n.contains(b), "byte {b}");
        }
        assert_eq!(n.negate(), c);
    }

    #[test]
    fn case_fold_adds_both_cases() {
        let c = ClassSet::byte(b'a').case_fold();
        assert!(c.contains(b'a'));
        assert!(c.contains(b'A'));
        assert!(!c.contains(b'b'));
    }

    #[test]
    fn case_fold_boundary_byte_255() {
        let c = ClassSet::new(vec![(250, 255)]).case_fold();
        assert!(c.contains(255));
    }

    #[test]
    fn to_pattern_basics() {
        use crate::parser::parse;
        assert_eq!(parse("abc").unwrap().to_pattern(), "abc");
        assert_eq!(parse("a|b").unwrap().to_pattern(), "a|b");
        assert_eq!(parse("a*").unwrap().to_pattern(), "a*");
        assert_eq!(parse("(ab)+").unwrap().to_pattern(), "(?:ab)+");
        assert_eq!(parse("a{2,5}").unwrap().to_pattern(), "a{2,5}");
        assert_eq!(parse("a{3}").unwrap().to_pattern(), "a{3}");
        assert_eq!(parse(".").unwrap().to_pattern(), ".");
    }

    #[test]
    fn to_pattern_escapes_metacharacters() {
        use crate::parser::parse;
        let p = parse(r"\.").unwrap().to_pattern();
        assert_eq!(p, r"\.");
        assert_eq!(parse(&p).unwrap(), Ast::literal(b'.'));
        // A binary byte renders as a hex escape.
        assert_eq!(Ast::literal(0x07).to_pattern(), r"\x07");
    }

    #[test]
    fn to_pattern_classes() {
        use crate::parser::parse;
        let p = parse("[a-dz]").unwrap().to_pattern();
        let back = parse(&p).unwrap();
        match back {
            Ast::Class(c) => {
                assert!(c.contains(b'a') && c.contains(b'd') && c.contains(b'z'));
                assert!(!c.contains(b'e'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn union_combines() {
        let c = ClassSet::byte(b'a').union(&ClassSet::byte(b'b'));
        assert_eq!(c.ranges(), &[(b'a', b'b')]);
    }
}
