//! Output checks: every delivery is compared against an independently
//! encoded image of the record that was published, and the sequence of
//! deliveries must be exactly-once and in order.

use pbio_types::arch::{ArchProfile, Endianness};
use pbio_types::layout::Layout;
use pbio_types::schema::Schema;
use pbio_types::value::{encode_native, RecordValue};

/// A record laid out for one architecture, whose `seq` (C `int`) and
/// `time` (C `double`) fields are rewritten per event. Everything else is
/// the seeded record from `workloads::value_for`.
#[derive(Clone)]
pub struct RecordImage {
    bytes: Vec<u8>,
    seq_off: usize,
    time_off: usize,
    big: bool,
}

impl RecordImage {
    /// Encode `value` for `profile` with the generic encoder (not the
    /// conversion path the program uses on delivery).
    pub fn new(schema: &Schema, profile: &ArchProfile, value: &RecordValue) -> RecordImage {
        let layout = Layout::of(schema, profile).expect("workload layout");
        let field = |name: &str| layout.field(name).expect("workload field").offset;
        RecordImage {
            bytes: encode_native(value, &layout).expect("encode workload record"),
            seq_off: field("seq"),
            time_off: field("time"),
            big: layout.endianness() == Endianness::Big,
        }
    }

    /// Rewrite the per-event fields.
    pub fn stamp(&mut self, seq: u64, time: f64) {
        let seq = seq as i32;
        let (s, t) = if self.big {
            (seq.to_be_bytes(), time.to_be_bytes())
        } else {
            (seq.to_le_bytes(), time.to_le_bytes())
        };
        self.bytes[self.seq_off..self.seq_off + 4].copy_from_slice(&s);
        self.bytes[self.time_off..self.time_off + 8].copy_from_slice(&t);
    }

    /// The record as it is now stamped.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The `seq` field of a record in this image's layout.
    pub fn read_seq(&self, bytes: &[u8]) -> Option<u64> {
        let raw: [u8; 4] = bytes.get(self.seq_off..self.seq_off + 4)?.try_into().ok()?;
        let seq = if self.big {
            i32::from_be_bytes(raw)
        } else {
            i32::from_le_bytes(raw)
        };
        u64::try_from(seq).ok()
    }

    /// The `time` field of a record in this image's layout.
    pub fn read_time(&self, bytes: &[u8]) -> Option<f64> {
        let raw: [u8; 8] = bytes
            .get(self.time_off..self.time_off + 8)?
            .try_into()
            .ok()?;
        Some(if self.big {
            f64::from_be_bytes(raw)
        } else {
            f64::from_le_bytes(raw)
        })
    }
}

/// Checks one ordered delivery stream. Each delivery that is not the next
/// expected record, byte for byte, is one failure; a gap counts each
/// record skipped.
pub struct Checker {
    image: RecordImage,
    next: u64,
    delivered: u64,
    failures: u64,
}

impl Checker {
    /// Expect records `first, first + 1, ...` laid out like `image`.
    pub fn new(image: RecordImage, first: u64) -> Checker {
        Checker {
            image,
            next: first,
            delivered: 0,
            failures: 0,
        }
    }

    /// Check one delivery whose `time` field must be `time(seq)`. Returns
    /// the record's `seq` when the delivery is the expected one.
    pub fn check(&mut self, bytes: &[u8], time: impl Fn(u64) -> f64) -> Option<u64> {
        let Some(seq) = self.image.read_seq(bytes) else {
            self.failures += 1;
            return None;
        };
        self.image.stamp(seq, time(seq));
        if bytes != self.image.bytes() {
            self.failures += 1;
            if seq == self.next {
                self.next += 1;
            }
            return None;
        }
        if seq < self.next {
            // Duplicate, or a record overtaken by a later one.
            self.failures += 1;
            return None;
        }
        self.failures += seq - self.next;
        self.next = seq + 1;
        self.delivered += 1;
        Some(seq)
    }

    /// Next `seq` expected.
    pub fn next(&self) -> u64 {
        self.next
    }

    /// Correct deliveries so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Failures so far, counting records up to `end` (exclusive) that
    /// never arrived.
    pub fn failures_through(&self, end: u64) -> u64 {
        self.failures + end.saturating_sub(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio_bench::workloads::{sized_schema, value_for, MsgSize};

    fn image(profile: &ArchProfile) -> RecordImage {
        let schema = sized_schema(MsgSize::B100);
        RecordImage::new(&schema, profile, &value_for(&schema, 7))
    }

    fn record(img: &mut RecordImage, seq: u64) -> Vec<u8> {
        img.stamp(seq, seq as f64 * 2.0);
        img.bytes().to_vec()
    }

    fn run(stream: &[Vec<u8>], end: u64) -> u64 {
        let mut c = Checker::new(image(&ArchProfile::X86_64), 0);
        for r in stream {
            c.check(r, |s| s as f64 * 2.0);
        }
        c.failures_through(end)
    }

    fn clean(n: u64) -> Vec<Vec<u8>> {
        let mut img = image(&ArchProfile::X86_64);
        (0..n).map(|s| record(&mut img, s)).collect()
    }

    #[test]
    fn clean_stream_passes() {
        assert_eq!(run(&clean(50), 50), 0);
    }

    #[test]
    fn duplicate_fails() {
        let mut s = clean(10);
        s.insert(5, s[4].clone());
        assert_eq!(run(&s, 10), 1);
    }

    #[test]
    fn missing_fails_in_the_middle_and_at_the_end() {
        let mut s = clean(10);
        s.remove(3);
        assert_eq!(run(&s, 10), 1);
        assert_eq!(run(&clean(8), 10), 2);
    }

    #[test]
    fn reordered_fails() {
        let mut s = clean(10);
        s.swap(2, 3);
        assert!(run(&s, 10) >= 1);
    }

    #[test]
    fn corrupted_payload_or_time_fails() {
        let mut s = clean(10);
        let last = s[6].len() - 1;
        s[6][last] ^= 0x40;
        assert_eq!(run(&s, 10), 1);
        let mut img = image(&ArchProfile::X86_64);
        let mut s = clean(10);
        img.stamp(4, 123.0);
        s[4] = img.bytes().to_vec();
        assert_eq!(run(&s, 10), 1);
    }

    #[test]
    fn big_endian_images_round_trip_their_fields() {
        let mut img = image(&ArchProfile::SPARC_V8);
        img.stamp(77, 1.5e9);
        let b = img.bytes().to_vec();
        assert_eq!(img.read_seq(&b), Some(77));
        assert_eq!(img.read_time(&b), Some(1.5e9));
    }
}
