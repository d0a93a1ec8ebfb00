//! Human-readable rendering of machines: ASCII transition tables
//! (Figure 1(b)).

use crate::dfa::Dfa;

/// Renders the dense transition table in the style of Figure 1(b). Machines
/// larger than `max_states` are truncated with an ellipsis row.
pub fn to_table(dfa: &Dfa, max_states: usize) -> String {
    let reps = dfa.classes().representatives();
    let mut out = String::new();
    out.push_str("state ");
    for &rep in &reps {
        out.push_str(&format!("| {:>4} ", printable(rep)));
    }
    out.push('\n');
    out.push_str(&"-".repeat(6 + reps.len() * 7));
    out.push('\n');
    for s in 0..dfa.n_states().min(max_states as u32) {
        let marker = if s == dfa.start() {
            ">"
        } else if dfa.is_accepting(s) {
            "*"
        } else {
            " "
        };
        out.push_str(&format!("{marker}s{s:<4}"));
        for c in 0..reps.len() {
            out.push_str(&format!("| s{:<4}", dfa.next_by_class(s, c as u16)));
        }
        out.push('\n');
    }
    if dfa.n_states() as usize > max_states {
        out.push_str(&format!("… ({} more states)\n", dfa.n_states() as usize - max_states));
    }
    out
}

fn printable(b: u8) -> String {
    match b {
        b'"' => "\\\"".to_string(),
        b'\\' => "\\\\".to_string(),
        0x21..=0x7e => (b as char).to_string(),
        b' ' => "' '".to_string(),
        _ => format!("x{b:02x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{div7, fig4_dfa};

    #[test]
    fn table_matches_fig4() {
        let t = to_table(&fig4_dfa(), 10);
        // Start marker on s0, accepting marker on s2.
        assert!(t.contains(">s0"));
        assert!(t.contains("*s2"));
        // Four data rows + header + separator.
        assert_eq!(t.lines().count(), 6);
    }

    #[test]
    fn table_truncates_large_machines() {
        let t = to_table(&div7(), 3);
        assert!(t.contains("… (4 more states)"));
    }

    #[test]
    fn printable_escapes() {
        assert_eq!(printable(b'a'), "a");
        assert_eq!(printable(b'"'), "\\\"");
        assert_eq!(printable(0x00), "x00");
        assert_eq!(printable(b' '), "' '");
    }
}
