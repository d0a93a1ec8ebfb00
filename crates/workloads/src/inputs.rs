//! Seeded input-stream generators.
//!
//! Stand-ins for the paper's traces: tcpdump captures for Snort,
//! concatenated Linux executables for ClamAV, and IBM's released trace files
//! for PowerEN. Each generator is deterministic in its seed, so every
//! experiment is exactly reproducible.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Network-traffic-like stream: ASCII protocol lines interleaved with
/// high-bit binary payload segments, with `spice` tokens (rule keywords)
/// sprinkled in so the NIDS machines actually fire.
pub fn network_trace(seed: u64, len: usize, spice: &[Vec<u8>]) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x006e_6574_776f_726b);
    let mut out = Vec::with_capacity(len + 64);
    let methods: [&[u8]; 4] = [b"GET ", b"POST ", b"HEAD ", b"PUT "];
    while out.len() < len {
        match rng.random_range(0..10u32) {
            // HTTP-ish request line.
            0..=3 => {
                out.extend_from_slice(methods[rng.random_range(0..methods.len())]);
                out.push(b'/');
                for _ in 0..rng.random_range(3..12) {
                    out.push(rng.random_range(b'a'..=b'z'));
                }
                out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
                for _ in 0..rng.random_range(4..10) {
                    out.push(rng.random_range(b'a'..=b'z'));
                }
                out.extend_from_slice(b".com\r\n\r\n");
            }
            // Binary payload burst (high-bit bytes — counter triggers).
            4..=6 => {
                for _ in 0..rng.random_range(8..40) {
                    out.push(rng.random_range(0x80..=0xff));
                }
            }
            // Plain ASCII chatter.
            7..=8 => {
                for _ in 0..rng.random_range(10..30) {
                    let b = rng.random_range(0..40u8);
                    out.push(if b < 26 { b'a' + b } else { b' ' });
                }
            }
            // A rule keyword, occasionally — real attack payloads are rare
            // relative to benign traffic, and keyword-dense streams would
            // park chunk boundaries inside rule prefixes.
            _ => {
                if !spice.is_empty() && rng.random_bool(0.3) {
                    let k = &spice[rng.random_range(0..spice.len())];
                    out.extend_from_slice(k);
                }
            }
        }
    }
    out.truncate(len);
    out
}

/// Executable-like binary blob: instruction-ish byte runs, zero padding,
/// string-table fragments, embedded `signatures`.
pub fn executable_blob(seed: u64, len: usize, signatures: &[Vec<u8>]) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0062_696e_6172_7900);
    let mut out = Vec::with_capacity(len + 64);
    while out.len() < len {
        match rng.random_range(0..10u32) {
            // Code-like section: arbitrary bytes, high-bit heavy.
            0..=4 => {
                for _ in 0..rng.random_range(16..64) {
                    out.push(rng.random());
                }
            }
            // Zero padding runs.
            5..=6 => {
                let run = rng.random_range(4..32);
                out.extend(std::iter::repeat_n(0u8, run));
            }
            // String table fragment.
            7..=8 => {
                for _ in 0..rng.random_range(6..20) {
                    out.push(rng.random_range(b'A'..=b'z'));
                }
                out.push(0);
            }
            // A signature hit, occasionally (infections are rare).
            _ => {
                if !signatures.is_empty() && rng.random_bool(0.3) {
                    let s = &signatures[rng.random_range(0..signatures.len())];
                    out.extend_from_slice(s);
                }
            }
        }
    }
    out.truncate(len);
    out
}

/// Pattern-dense ASCII text (the PowerEN trace style): words, digits,
/// punctuation, with `words` tokens mixed in.
pub fn pattern_text(seed: u64, len: usize, words: &[Vec<u8>]) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7465_7874);
    let mut out = Vec::with_capacity(len + 32);
    while out.len() < len {
        match rng.random_range(0..8u32) {
            0..=3 => {
                for _ in 0..rng.random_range(3..10) {
                    out.push(rng.random_range(b'a'..=b'z'));
                }
                out.push(b' ');
            }
            4..=5 => {
                for _ in 0..rng.random_range(1..6) {
                    out.push(rng.random_range(b'0'..=b'9'));
                }
                out.push(if rng.random_bool(0.5) { b',' } else { b' ' });
            }
            6 => out.extend_from_slice(b". "),
            _ => {
                // Keyword tokens are sparse (real traces are mostly filler);
                // dense keywords would park chunk boundaries inside rule
                // prefixes and confuse every speculation scheme equally.
                if !words.is_empty() && rng.random_bool(0.25) {
                    let w = &words[rng.random_range(0..words.len())];
                    out.extend_from_slice(w);
                    out.push(b' ');
                }
            }
        }
    }
    out.truncate(len);
    out
}

/// Letter stream for the sliding-window (Tier B) machines: the first four
/// bytes of `alphabet` carry `skew` of the probability mass (so
/// frequency-informed speculation covers roughly `skew` of boundaries with
/// four states), the remaining letters and a foreign filler share the rest.
pub fn window_text(seed: u64, len: usize, alphabet: &[u8], skew: f64) -> Vec<u8> {
    assert!(alphabet.len() >= 4, "need at least four alphabet letters");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7769_6e64_6f77);
    let tail: Vec<u8> = alphabet[4..].to_vec();
    (0..len)
        .map(|_| {
            if rng.random_bool(skew) {
                alphabet[rng.random_range(0..4)]
            } else {
                // Low-probability mass: remaining letters plus one foreign
                // byte, equally likely.
                let pick = rng.random_range(0..=tail.len());
                if pick < tail.len() {
                    tail[pick]
                } else {
                    b'#'
                }
            }
        })
        .collect()
}

/// Regime-switching stream: alternating segments from two generator
/// closures, producing the input-sensitive speculation behaviour of the
/// Table II column (prediction easy in one regime, hopeless in the other).
pub fn regime_switching(
    seed: u64,
    len: usize,
    segment_len: usize,
    mut easy: impl FnMut(u64, usize) -> Vec<u8>,
    mut hard: impl FnMut(u64, usize) -> Vec<u8>,
) -> Vec<u8> {
    assert!(segment_len > 0, "segments must be non-empty");
    let mut out = Vec::with_capacity(len + segment_len);
    let mut seg = 0u64;
    while out.len() < len {
        let part = if seg.is_multiple_of(2) {
            easy(seed ^ seg, segment_len)
        } else {
            hard(seed ^ seg, segment_len)
        };
        out.extend_from_slice(&part);
        seg += 1;
    }
    out.truncate(len);
    out
}

/// Byte-level statistics of a generated stream — used to pin the
/// generators' distributions in tests and reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InputStats {
    /// Fraction of printable-ASCII bytes.
    pub ascii_ratio: f64,
    /// Fraction of bytes with the high bit set (the binary-trigger class).
    pub high_bit_ratio: f64,
    /// Fraction of NUL bytes.
    pub zero_ratio: f64,
    /// Fraction of newline bytes.
    pub newline_ratio: f64,
    /// Fraction of ASCII digits.
    pub digit_ratio: f64,
}

/// Computes [`InputStats`] for a stream.
pub fn stats(bytes: &[u8]) -> InputStats {
    let n = bytes.len().max(1) as f64;
    let count = |f: fn(&u8) -> bool| bytes.iter().filter(|b| f(b)).count() as f64 / n;
    InputStats {
        ascii_ratio: count(|&b| (0x20..0x7f).contains(&b)),
        high_bit_ratio: count(|&b| b >= 0x80),
        zero_ratio: count(|&b| b == 0),
        newline_ratio: count(|&b| b == b'\n'),
        digit_ratio: count(|b| b.is_ascii_digit()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let spice = vec![b"attack".to_vec()];
        assert_eq!(network_trace(7, 1000, &spice), network_trace(7, 1000, &spice));
        assert_eq!(executable_blob(7, 1000, &spice), executable_blob(7, 1000, &spice));
        assert_eq!(pattern_text(7, 1000, &spice), pattern_text(7, 1000, &spice));
        assert_ne!(network_trace(7, 1000, &spice), network_trace(8, 1000, &spice));
    }

    #[test]
    fn generators_hit_requested_length() {
        for len in [0usize, 1, 100, 4096] {
            assert_eq!(network_trace(1, len, &[]).len(), len);
            assert_eq!(executable_blob(1, len, &[]).len(), len);
            assert_eq!(pattern_text(1, len, &[]).len(), len);
        }
    }

    #[test]
    fn network_trace_contains_spice() {
        let spice = vec![b"EXPLOIT".to_vec()];
        let t = network_trace(3, 50_000, &spice);
        assert!(t.windows(7).any(|w| w == b"EXPLOIT"));
    }

    #[test]
    fn network_trace_has_binary_payloads() {
        let t = network_trace(3, 10_000, &[]);
        assert!(t.iter().any(|&b| b >= 0x80), "counter triggers present");
    }

    #[test]
    fn executable_blob_has_zero_runs() {
        let t = executable_blob(5, 10_000, &[]);
        assert!(t.windows(4).any(|w| w == [0, 0, 0, 0]));
    }

    #[test]
    fn generator_distributions_are_in_character() {
        // Network traffic: mixed ASCII and binary, with the binary bursts
        // that drive the Snort counters.
        let t = stats(&network_trace(1, 64 * 1024, &[]));
        assert!(t.high_bit_ratio > 0.1 && t.high_bit_ratio < 0.6, "{t:?}");
        assert!(t.ascii_ratio > 0.3, "{t:?}");
        // Executables: code bytes, zero padding, string fragments.
        let e = stats(&executable_blob(1, 64 * 1024, &[]));
        assert!(e.zero_ratio > 0.03, "{e:?}");
        assert!(e.high_bit_ratio > 0.2, "{e:?}");
        // PowerEN text: digits present (the counter triggers), no binary.
        let p = stats(&pattern_text(1, 64 * 1024, &[]));
        assert!(p.digit_ratio > 0.05, "{p:?}");
        assert!(p.high_bit_ratio < 0.01, "{p:?}");
    }

    #[test]
    fn window_text_skew_concentrates_on_hot_letters() {
        let alphabet = b"aeiostnr";
        let t = window_text(5, 64 * 1024, alphabet, 0.9);
        let hot = t.iter().filter(|b| alphabet[..4].contains(b)).count() as f64;
        let ratio = hot / t.len() as f64;
        assert!((0.87..0.93).contains(&ratio), "hot ratio {ratio}");
    }

    #[test]
    fn stats_of_empty_input_are_zero() {
        let s = stats(&[]);
        assert_eq!(s.ascii_ratio, 0.0);
        assert_eq!(s.high_bit_ratio, 0.0);
    }

    #[test]
    fn regime_switching_alternates() {
        let t = regime_switching(1, 100, 10, |_, n| vec![b'E'; n], |_, n| vec![b'H'; n]);
        assert_eq!(&t[0..10], &[b'E'; 10]);
        assert_eq!(&t[10..20], &[b'H'; 10]);
        assert_eq!(&t[20..30], &[b'E'; 10]);
        assert_eq!(t.len(), 100);
    }
}
