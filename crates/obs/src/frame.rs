//! The workspace's one checksummed line codec.
//!
//! Every append-only log and byte stream the workspace writes — the
//! campaign result store, the worker wire frames, the run ledger — is a
//! sequence of self-validating text lines in one layout:
//!
//! ```text
//! <magic> <head words as 16hex each> <len> <sum:16hex> <payload>\n
//! ```
//!
//! * `magic` — the format's version token ([`Format::magic`]). Bump it on
//!   any change to the line layout or to the meaning of the head words;
//!   lines carrying any other token decode as invalid;
//! * head words — a fixed number of `u64`s chosen by the format's user
//!   (table tags, keys, fingerprints, stamps, shard ids), each as 16
//!   lowercase hex digits, so a line's length depends only on its
//!   payload;
//! * `len` — the payload's byte length in decimal, so a torn line fails
//!   even where its prefix happens to checksum;
//! * `sum` — [`Format::checksum`]: a [`StructuralHasher`] in the format's
//!   domain over every head word and then the payload, as 16 lowercase hex
//!   digits. A flip anywhere in the head or payload fails validation;
//! * `payload` — free text without a newline (possibly empty).
//!
//! Every field has exactly one accepted spelling (fixed-width lowercase
//! hex, decimal without leading zeros or signs), so a line decodes to one
//! value or to nothing.
//!
//! Decoding is purely structural: whether a valid line is *current* (its
//! fingerprint matches the reader's) is the caller's call, which is why
//! [`Format::decode`] returns the raw head words.
//!
//! Reading is lossy: [`for_each_line`] decodes each line as UTF-8 with
//! replacement characters, so a line with invalid bytes cannot checksum
//! and reads as invalid instead of aborting the read. Appending goes
//! through [`open_append`], which terminates a torn final line left by a
//! crashed writer so the next line starts fresh.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use crate::hash::StructuralHasher;

/// One line format: its version token and its checksum domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The version token every line starts with.
    pub magic: &'static str,
    /// Domain tag of the line checksum, so equal head words and payloads
    /// of two formats never share a checksum.
    pub domain: u64,
}

impl Format {
    /// A format with version token `magic` and checksum domain `domain`.
    #[must_use]
    pub const fn new(magic: &'static str, domain: u64) -> Self {
        Self { magic, domain }
    }

    /// The line checksum over `head` and `payload`.
    #[must_use]
    pub fn checksum(&self, head: &[u64], payload: &str) -> u64 {
        head.iter()
            .fold(StructuralHasher::new(self.domain), |h, &w| h.word(w))
            .str(payload)
            .finish()
    }

    /// Encodes one line, trailing newline included. `payload` must not
    /// contain a newline (such a line would decode as invalid).
    #[must_use]
    pub fn encode(&self, head: &[u64], payload: &str) -> String {
        debug_assert!(!payload.contains('\n'), "payloads are single-line");
        let mut line =
            String::with_capacity(self.magic.len() + 17 * head.len() + payload.len() + 40);
        line.push_str(self.magic);
        for w in head {
            let _ = write!(line, " {w:016x}");
        }
        let sum = self.checksum(head, payload);
        let _ = write!(line, " {} {sum:016x} ", payload.len());
        line.push_str(payload);
        line.push('\n');
        line
    }

    /// Decodes one line (without its newline) into its `N` head words and
    /// payload. `None` for anything else: another magic, a different
    /// number of head words, a non-canonical number, a length or checksum
    /// mismatch.
    #[must_use]
    pub fn decode<'a, const N: usize>(&self, line: &'a str) -> Option<([u64; N], &'a str)> {
        // Head words and checksum are fixed-width: slice them at their
        // offsets rather than searching for separators.
        let mut rest = line.strip_prefix(self.magic)?;
        let mut head = [0u64; N];
        for w in &mut head {
            *w = parse_word(rest.strip_prefix(' ')?.get(..16)?)?;
            rest = rest.get(17..)?;
        }
        let (len, rest) = rest.strip_prefix(' ')?.split_once(' ')?;
        let sum = parse_word(rest.get(..16)?)?;
        let payload = rest.get(16..)?.strip_prefix(' ')?;
        let len = parse_len(len)?;
        (payload.len() == len && self.checksum(&head, payload) == sum).then_some((head, payload))
    }
}

/// A head word or checksum: exactly 16 lowercase hex digits.
fn parse_word(field: &str) -> Option<u64> {
    let canonical = field.len() == 16
        && field
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical.then(|| u64::from_str_radix(field, 16).ok())?
}

/// The payload length: decimal digits, no leading zero.
fn parse_len(field: &str) -> Option<usize> {
    let canonical = !field.is_empty()
        && field.bytes().all(|b| b.is_ascii_digit())
        && (field == "0" || !field.starts_with('0'));
    canonical.then(|| field.parse().ok())?
}

/// Calls `each` with every non-empty line of `reader`, split on `\n` only
/// and decoded lossily. Returns the number of bytes read.
///
/// # Errors
///
/// Read failures of `reader`.
pub fn for_each_line(mut reader: impl BufRead, mut each: impl FnMut(&str)) -> std::io::Result<u64> {
    let mut buf = Vec::new();
    let mut total = 0u64;
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(total);
        }
        total += n as u64;
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        if !line.is_empty() {
            each(&String::from_utf8_lossy(line));
        }
    }
}

/// [`for_each_line`] over the file at `path`.
///
/// # Errors
///
/// Opening or reading the file, including [`std::io::ErrorKind::NotFound`].
pub fn read_file_lines(path: &Path, each: impl FnMut(&str)) -> std::io::Result<u64> {
    for_each_line(BufReader::with_capacity(1 << 16, File::open(path)?), each)
}

/// Opens `path` for appending, creating it if absent. When the file's last
/// byte is not a newline — a writer died mid-line — a newline is appended
/// first, so the torn line stays one invalid line and the next line starts
/// fresh. Only the last byte is read. Returns the handle and whether it
/// healed a torn tail.
///
/// # Errors
///
/// Opening, reading or writing the file.
pub fn open_append(path: &Path) -> std::io::Result<(File, bool)> {
    let mut file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok((file, false));
    }
    let mut last = [0u8; 1];
    file.seek(SeekFrom::Start(len - 1))?;
    file.read_exact(&mut last)?;
    let torn = last[0] != b'\n';
    if torn {
        file.write_all(b"\n")?;
    }
    Ok((file, torn))
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Format = Format::new("FNPRT1", 0x5445_5354);

    fn line(head: &[u64], payload: &str) -> String {
        let mut encoded = F.encode(head, payload);
        assert_eq!(encoded.pop(), Some('\n'));
        encoded
    }

    fn lines_of(bytes: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        for_each_line(bytes, |l| out.push(l.to_string())).unwrap();
        out
    }

    #[test]
    fn round_trips_hostile_payloads_and_extreme_heads() {
        let heads: [[u64; 3]; 3] = [[0, 0, 0], [1, 0x10, 0xabc], [u64::MAX, 1 << 63, 7]];
        let payloads = [
            "",
            " ",
            "{\"x\":1.5}",
            "spaces  inside and trailing ",
            "FNPRT1 1 2 3 4 0123456789abcdef nested",
            "tab\tcarriage\rreturn\r",
            "unicode ✓ ünï 🦀",
            "\u{fffd}\u{0}\u{1}",
        ];
        for head in heads {
            for payload in payloads {
                let encoded = line(&head, payload);
                assert_eq!(
                    F.decode::<3>(&encoded),
                    Some((head, payload)),
                    "{encoded:?}"
                );
            }
        }
        let long = "x".repeat(100_000);
        assert_eq!(F.decode::<0>(&line(&[], &long)), Some(([], long.as_str())));
    }

    #[test]
    fn every_prefix_truncation_and_single_character_substitution_is_rejected() {
        let full = line(&[0x4243, 0xdead_beef, 0], "{\"x\":1.5}");
        for cut in 0..full.len() {
            assert_eq!(F.decode::<3>(&full[..cut]), None, "truncation decoded");
        }
        for (i, c) in full.char_indices() {
            for sub in ['0', '1', '9', 'a', 'f', 'F', 'z', ' ', '+', '-', '\u{fffd}'] {
                let mut mutated = full.clone();
                mutated.replace_range(i..i + c.len_utf8(), &sub.to_string());
                if mutated != full {
                    assert_eq!(F.decode::<3>(&mutated), None, "{mutated:?} decoded");
                }
            }
        }
    }

    #[test]
    fn oversized_overflowing_and_non_canonical_numbers_are_rejected() {
        let head = format!("{:016x}", 0xab);
        let sum = format!("{:016x}", F.checksum(&[0xab], "ab"));
        let max = u64::MAX.to_string();
        for (head, len, sum) in [
            (head.as_str(), "999999", sum.as_str()),
            (&head, "3", &sum),
            (&head, &max, &sum),
            (&head, "18446744073709551616", &sum),
            (&head, "02", &sum),
            (&head, "+2", &sum),
            ("ab", "2", &sum),
            (&format!("0{head}"), "2", &sum),
            (&format!("+{}", &head[1..]), "2", &sum),
            (&head.to_uppercase(), "2", &sum),
            (&head, "2", &sum.to_uppercase()),
            (&head, "2", &sum[1..]),
            ("", "2", &sum),
        ] {
            let l = format!("FNPRT1 {head} {len} {sum} ab");
            assert_eq!(F.decode::<1>(&l), None, "{l}");
        }
        assert!(F
            .decode::<1>(&format!("FNPRT1 {head} 2 {sum} ab"))
            .is_some());
    }

    #[test]
    fn interleaved_glued_foreign_and_empty_lines_are_rejected() {
        let a = line(&[7, 2], "{\"x\":1.5}");
        let b = line(&[3, 2], "{\"x\":9.0}");
        for bad in [
            format!("{}{b}", &a[..a.len() / 2]),
            format!("{b}{}", &a[..10]),
            format!("{a}{b}"),
            a.replacen("FNPRT1", "FNPRT10", 1),
            String::new(),
            "FNPRT1".to_string(),
        ] {
            assert_eq!(F.decode::<2>(&bad), None, "{bad:?}");
        }
        assert_eq!(F.decode::<1>(&a), None, "fewer head words");
        assert_eq!(F.decode::<3>(&a), None, "more head words");
        assert_eq!(Format::new("FNPRT2", F.domain).decode::<2>(&a), None);
        assert_eq!(Format::new(F.magic, F.domain + 1).decode::<2>(&a), None);
    }

    #[test]
    fn invalid_utf8_reads_lossily_as_an_invalid_line() {
        let valid = F.encode(&[5], "caf\u{e9}");
        let mut bytes = b"\xff\xfe\x00 garbage\n".to_vec();
        let mut broken = valid.clone().into_bytes();
        let e9 = broken.len() - 3;
        broken[e9] = 0xff; // split the two-byte é
        bytes.extend_from_slice(&broken);
        bytes.extend_from_slice(valid.as_bytes());
        let lines = lines_of(&bytes);
        assert_eq!(lines.len(), 3);
        let decoded: Vec<bool> = lines.iter().map(|l| F.decode::<1>(l).is_some()).collect();
        assert_eq!(decoded, [false, false, true]);
    }

    #[test]
    fn line_reader_splits_on_newline_only_and_skips_empty_lines() {
        let text = b"a\r\n\n\nb\rc\nlast-without-newline";
        assert_eq!(lines_of(text), ["a\r", "b\rc", "last-without-newline"]);
        assert!(lines_of(b"").is_empty());
        assert_eq!(for_each_line(&text[..], |_| {}).unwrap(), text.len() as u64);
    }

    #[test]
    fn open_append_heals_a_torn_tail_once() {
        let dir = std::env::temp_dir().join(format!("fnpr_obs_frame_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        std::fs::remove_file(&path).ok();
        // Fresh and newline-terminated files need no heal.
        let (mut file, healed) = open_append(&path).unwrap();
        assert!(!healed);
        file.write_all(F.encode(&[1], "one").as_bytes()).unwrap();
        drop(file);
        assert!(!open_append(&path).unwrap().1);
        // A writer died mid-line.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"FNPRT1 0000000000000002 3 torn").unwrap();
        drop(file);
        let (mut file, healed) = open_append(&path).unwrap();
        assert!(healed);
        file.write_all(F.encode(&[3], "three").as_bytes()).unwrap();
        drop(file);
        let mut decoded = Vec::new();
        let mut invalid = 0;
        read_file_lines(&path, |l| match F.decode::<1>(l) {
            Some((head, payload)) => decoded.push((head[0], payload.to_string())),
            None => invalid += 1,
        })
        .unwrap();
        assert_eq!(decoded, [(1, "one".to_string()), (3, "three".to_string())]);
        assert_eq!(invalid, 1, "the torn line stays one invalid line");
        assert!(!open_append(&path).unwrap().1, "healing is one-shot");
        std::fs::remove_dir_all(&dir).ok();
    }
}
