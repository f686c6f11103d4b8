//! Byte-level wire format of the data-TPDU header.
//!
//! The simulator moves [`DataTpdu`]s as typed objects, but the header
//! they are charged for ([`TPDU_HEADER`] bytes on every fragment) has a
//! concrete layout, and this module is its codec. [`TpduHeader::decode`]
//! is total over arbitrary byte strings: every malformed input maps to a
//! typed [`TpduParseError`] — it never panics — so a receiving entity
//! can drop garbage with a reason instead of dying on it (the property
//! the `wire_proptest` suite drives with random, truncated and corrupted
//! inputs).
//!
//! Layout, little-endian, 32 bytes:
//!
//! | offset | size | field                                        |
//! |-------:|-----:|----------------------------------------------|
//! |      0 |    2 | magic `0x434D` (`"CM"`)                      |
//! |      2 |    1 | version (currently [`WIRE_VERSION`])         |
//! |      3 |    1 | flags (bit 0: final fragment of its OSDU)    |
//! |      4 |    8 | VC id                                        |
//! |     12 |    8 | OSDU sequence number                         |
//! |     20 |    4 | fragment index (0-based)                     |
//! |     24 |    4 | fragment count                               |
//! |     28 |    2 | fragment payload bytes                       |
//! |     30 |    2 | FNV-1a checksum of bytes 0..30, XOR-folded   |

use crate::tpdu::{DataTpdu, DEFAULT_MTU, TPDU_HEADER};
use cm_core::address::VcId;
use std::fmt;

/// Wire-format version emitted by [`TpduHeader::encode`].
pub const WIRE_VERSION: u8 = 1;

/// Header magic: `"CM"` in ASCII, little-endian `0x4D43`.
pub const WIRE_MAGIC: u16 = u16::from_le_bytes(*b"CM");

/// Largest fragment payload a header may declare — a fragment plus its
/// header must fit the default MTU.
pub const MAX_FRAG_PAYLOAD: usize = DEFAULT_MTU - TPDU_HEADER;

const FLAG_FINAL: u8 = 0b0000_0001;

/// Why a byte string is not a valid data-TPDU header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpduParseError {
    /// Fewer bytes than a header needs.
    Truncated {
        /// Bytes available.
        got: usize,
        /// Bytes a header occupies.
        needed: usize,
    },
    /// The leading magic is not [`WIRE_MAGIC`].
    BadMagic(u16),
    /// A version this implementation does not speak.
    UnsupportedVersion(u8),
    /// Flag bits outside the defined set.
    UnknownFlags(u8),
    /// The checksum does not cover the bytes presented.
    BadChecksum {
        /// Checksum the bytes actually hash to.
        expected: u16,
        /// Checksum carried in the header.
        found: u16,
    },
    /// A fragment count of zero (every OSDU has at least one fragment).
    ZeroFragCount,
    /// Fragment index at or past the fragment count.
    FragIndexOutOfRange {
        /// The 0-based index carried.
        index: u32,
        /// The count carried.
        count: u32,
    },
    /// The final-fragment flag disagrees with index/count.
    InconsistentFinalFlag,
    /// Declared payload larger than any MTU-sized fragment can carry.
    Oversize {
        /// Declared fragment payload bytes.
        frag_bytes: usize,
        /// The largest legal value, [`MAX_FRAG_PAYLOAD`].
        max: usize,
    },
    /// Datagram body length disagrees with the declared payload size.
    LengthMismatch {
        /// Payload bytes the header declares.
        declared: usize,
        /// Payload bytes actually present after the header.
        actual: usize,
    },
}

impl fmt::Display for TpduParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TpduParseError::Truncated { got, needed } => {
                write!(f, "truncated header: {got} of {needed} bytes")
            }
            TpduParseError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            TpduParseError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            TpduParseError::UnknownFlags(b) => write!(f, "unknown flag bits {b:#010b}"),
            TpduParseError::BadChecksum { expected, found } => {
                write!(f, "checksum {found:#06x}, bytes hash to {expected:#06x}")
            }
            TpduParseError::ZeroFragCount => write!(f, "zero fragment count"),
            TpduParseError::FragIndexOutOfRange { index, count } => {
                write!(f, "fragment index {index} out of range for count {count}")
            }
            TpduParseError::InconsistentFinalFlag => {
                write!(f, "final-fragment flag disagrees with index/count")
            }
            TpduParseError::Oversize { frag_bytes, max } => {
                write!(f, "fragment payload {frag_bytes} exceeds maximum {max}")
            }
            TpduParseError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "header declares {declared} payload bytes, {actual} present"
                )
            }
        }
    }
}

impl std::error::Error for TpduParseError {}

/// The decoded fields of a data-TPDU header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpduHeader {
    /// The VC the fragment belongs to.
    pub vc: VcId,
    /// OSDU sequence number.
    pub osdu_seq: u64,
    /// Fragment index within the OSDU, 0-based.
    pub frag_index: u32,
    /// Total fragments in the OSDU.
    pub frag_count: u32,
    /// Payload bytes this fragment carries.
    pub frag_bytes: u16,
    /// Whether this is the OSDU's final fragment.
    pub last: bool,
}

fn fold_checksum(bytes: &[u8]) -> u16 {
    let h = cm_core::hash::fnv1a64(bytes);
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

impl TpduHeader {
    /// The header of an in-simulation fragment.
    pub fn of(t: &DataTpdu) -> TpduHeader {
        TpduHeader {
            vc: t.vc,
            osdu_seq: t.osdu_seq,
            frag_index: t.frag_index,
            frag_count: t.frag_count,
            frag_bytes: t.frag_bytes as u16,
            last: t.frag_index + 1 == t.frag_count,
        }
    }

    /// Serialise to the 32-byte wire layout.
    pub fn encode(&self) -> [u8; TPDU_HEADER] {
        let mut b = [0u8; TPDU_HEADER];
        b[0..2].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
        b[2] = WIRE_VERSION;
        b[3] = if self.last { FLAG_FINAL } else { 0 };
        b[4..12].copy_from_slice(&self.vc.0.to_le_bytes());
        b[12..20].copy_from_slice(&self.osdu_seq.to_le_bytes());
        b[20..24].copy_from_slice(&self.frag_index.to_le_bytes());
        b[24..28].copy_from_slice(&self.frag_count.to_le_bytes());
        b[28..30].copy_from_slice(&self.frag_bytes.to_le_bytes());
        let sum = fold_checksum(&b[..30]);
        b[30..32].copy_from_slice(&sum.to_le_bytes());
        b
    }

    /// Parse a header from the front of `buf`. Total over arbitrary
    /// input: any malformed prefix yields a typed error, never a panic.
    pub fn decode(buf: &[u8]) -> Result<TpduHeader, TpduParseError> {
        if buf.len() < TPDU_HEADER {
            return Err(TpduParseError::Truncated {
                got: buf.len(),
                needed: TPDU_HEADER,
            });
        }
        let b = &buf[..TPDU_HEADER];
        let le16 = |at: usize| u16::from_le_bytes([b[at], b[at + 1]]);
        let le32 = |at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        let le64 = |at: usize| {
            u64::from_le_bytes([
                b[at],
                b[at + 1],
                b[at + 2],
                b[at + 3],
                b[at + 4],
                b[at + 5],
                b[at + 6],
                b[at + 7],
            ])
        };
        let magic = le16(0);
        if magic != WIRE_MAGIC {
            return Err(TpduParseError::BadMagic(magic));
        }
        if b[2] != WIRE_VERSION {
            return Err(TpduParseError::UnsupportedVersion(b[2]));
        }
        if b[3] & !FLAG_FINAL != 0 {
            return Err(TpduParseError::UnknownFlags(b[3]));
        }
        let expected = fold_checksum(&b[..30]);
        let found = le16(30);
        if expected != found {
            return Err(TpduParseError::BadChecksum { expected, found });
        }
        let frag_index = le32(20);
        let frag_count = le32(24);
        if frag_count == 0 {
            return Err(TpduParseError::ZeroFragCount);
        }
        if frag_index >= frag_count {
            return Err(TpduParseError::FragIndexOutOfRange {
                index: frag_index,
                count: frag_count,
            });
        }
        let last = b[3] & FLAG_FINAL != 0;
        if last != (frag_index + 1 == frag_count) {
            return Err(TpduParseError::InconsistentFinalFlag);
        }
        let frag_bytes = le16(28);
        if frag_bytes as usize > MAX_FRAG_PAYLOAD {
            return Err(TpduParseError::Oversize {
                frag_bytes: frag_bytes as usize,
                max: MAX_FRAG_PAYLOAD,
            });
        }
        Ok(TpduHeader {
            vc: VcId(le64(4)),
            osdu_seq: le64(12),
            frag_index,
            frag_count,
            frag_bytes,
            last,
        })
    }

    /// Parse a complete wire datagram: a header followed by exactly the
    /// payload bytes it declares.
    pub fn decode_datagram(buf: &[u8]) -> Result<TpduHeader, TpduParseError> {
        let h = TpduHeader::decode(buf)?;
        let actual = buf.len() - TPDU_HEADER;
        if actual != h.frag_bytes as usize {
            return Err(TpduParseError::LengthMismatch {
                declared: h.frag_bytes as usize,
                actual,
            });
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TpduHeader {
        TpduHeader {
            vc: VcId(0xdead_beef_cafe),
            osdu_seq: 42,
            frag_index: 2,
            frag_count: 4,
            frag_bytes: 1500,
            last: false,
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        assert_eq!(TpduHeader::decode(&h.encode()), Ok(h));
    }

    #[test]
    fn truncation_is_typed() {
        let b = sample().encode();
        assert_eq!(
            TpduHeader::decode(&b[..31]),
            Err(TpduParseError::Truncated {
                got: 31,
                needed: 32
            })
        );
        assert_eq!(
            TpduHeader::decode(&[]),
            Err(TpduParseError::Truncated { got: 0, needed: 32 })
        );
    }

    #[test]
    fn corruption_is_typed() {
        let mut b = sample().encode();
        b[13] ^= 0x40; // osdu_seq byte
        assert!(matches!(
            TpduHeader::decode(&b),
            Err(TpduParseError::BadChecksum { .. })
        ));
        let mut b = sample().encode();
        b[0] = 0x00;
        assert!(matches!(
            TpduHeader::decode(&b),
            Err(TpduParseError::BadMagic(_))
        ));
    }

    #[test]
    fn datagram_length_must_match() {
        let mut h = sample();
        h.frag_bytes = 3;
        h.frag_index = 3;
        h.last = true;
        let mut buf = h.encode().to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        assert_eq!(TpduHeader::decode_datagram(&buf), Ok(h));
        buf.push(4);
        assert_eq!(
            TpduHeader::decode_datagram(&buf),
            Err(TpduParseError::LengthMismatch {
                declared: 3,
                actual: 4
            })
        );
    }
}
