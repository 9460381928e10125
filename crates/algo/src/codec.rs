//! Binary wire codec for [`Msg`].
//!
//! The simulator and the in-process threaded runtime move `Msg` values by
//! ownership, but a deployment across machines needs a wire format. This
//! module provides a compact, explicit binary encoding (no reflection, no
//! schema evolution machinery — the protocol is fixed by the paper):
//!
//! ```text
//! tag: u8, then fields in order, integers little-endian
//!   0x01 request       claimant:u32 source:u32 source_seq:u64  (in-memory u32)
//!   0x02 token         has_lender:u8 [lender:u32]
//!   0x03 enquiry       source_seq:u64
//!   0x04 enquiry-reply source_seq:u64 status:u8
//!   0x05 test          d:u32
//!   0x06 answer        kind:u8 d:u32
//!   0x07 anomaly
//!   0x08 request@e     claimant:u32 source:u32 source_seq:u64 epoch:u64
//!   0x09 token@e       has_lender:u8 [lender:u32] epoch:u64
//!   0x0A mint-request  epoch:u64
//!   0x0B mint-ack      granted:u8 epoch:u64
//! ```
//!
//! Epoch-0 requests and tokens — the only kind `Hardening::None` ever
//! produces — keep the original 0x01/0x02 encodings byte for byte; the
//! epoch-stamped tags appear on the wire only once a hardened mint has
//! actually advanced an epoch past 0. A baseline deployment's byte stream
//! is therefore unchanged, and mixed decoding needs no version handshake.

use oc_topology::NodeId;

use crate::message::{AnswerKind, EnquiryStatus, Msg};

/// Error returned when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A field held an invalid value (e.g. node id 0, unknown enum byte).
    BadField(&'static str),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            DecodeError::BadField(name) => write!(f, "invalid value for field {name}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_REQUEST: u8 = 0x01;
const TAG_TOKEN: u8 = 0x02;
const TAG_ENQUIRY: u8 = 0x03;
const TAG_ENQUIRY_REPLY: u8 = 0x04;
const TAG_TEST: u8 = 0x05;
const TAG_ANSWER: u8 = 0x06;
const TAG_ANOMALY: u8 = 0x07;
const TAG_REQUEST_E: u8 = 0x08;
const TAG_TOKEN_E: u8 = 0x09;
const TAG_MINT_REQUEST: u8 = 0x0A;
const TAG_MINT_ACK: u8 = 0x0B;

/// Encodes a message to its wire representation.
#[must_use]
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24);
    match msg {
        Msg::Request { claimant, source, source_seq, epoch } => {
            buf.push(if *epoch == 0 { TAG_REQUEST } else { TAG_REQUEST_E });
            buf.extend_from_slice(&claimant.get().to_le_bytes());
            buf.extend_from_slice(&source.get().to_le_bytes());
            buf.extend_from_slice(&u64::from(*source_seq).to_le_bytes());
            if *epoch != 0 {
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
        }
        Msg::Token { lender, epoch } => {
            buf.push(if *epoch == 0 { TAG_TOKEN } else { TAG_TOKEN_E });
            match lender {
                Some(j) => {
                    buf.push(1);
                    buf.extend_from_slice(&j.get().to_le_bytes());
                }
                None => buf.push(0),
            }
            if *epoch != 0 {
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
        }
        Msg::Enquiry { source_seq } => {
            buf.push(TAG_ENQUIRY);
            buf.extend_from_slice(&u64::from(*source_seq).to_le_bytes());
        }
        Msg::EnquiryReply { source_seq, status } => {
            buf.push(TAG_ENQUIRY_REPLY);
            buf.extend_from_slice(&u64::from(*source_seq).to_le_bytes());
            buf.push(match status {
                EnquiryStatus::StillInCs => 0,
                EnquiryStatus::TokenReturned => 1,
                EnquiryStatus::TokenLost => 2,
            });
        }
        Msg::Test { d } => {
            buf.push(TAG_TEST);
            buf.extend_from_slice(&d.to_le_bytes());
        }
        Msg::Answer { kind, d } => {
            buf.push(TAG_ANSWER);
            buf.push(match kind {
                AnswerKind::Ok => 0,
                AnswerKind::TryLater => 1,
            });
            buf.extend_from_slice(&d.to_le_bytes());
        }
        Msg::Anomaly => buf.push(TAG_ANOMALY),
        Msg::MintRequest { epoch } => {
            buf.push(TAG_MINT_REQUEST);
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
        Msg::MintAck { epoch, granted } => {
            buf.push(TAG_MINT_ACK);
            buf.push(u8::from(*granted));
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
    }
    buf
}

/// Decodes one message from `bytes`.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated input, unknown tags, or invalid
/// field values. Trailing bytes after a complete message are an error
/// (`BadField("trailing")`) — messages are framed by the transport.
pub fn decode(bytes: &[u8]) -> Result<Msg, DecodeError> {
    let mut buf = bytes;
    let msg = decode_inner(&mut buf)?;
    if !buf.is_empty() {
        return Err(DecodeError::BadField("trailing"));
    }
    Ok(msg)
}

fn decode_inner(buf: &mut &[u8]) -> Result<Msg, DecodeError> {
    let tag = take_u8(buf)?;
    match tag {
        TAG_REQUEST | TAG_REQUEST_E => {
            let claimant = take_node(buf)?;
            let source = take_node(buf)?;
            let source_seq = take_seq(buf)?;
            let epoch = if tag == TAG_REQUEST_E { take_epoch(buf)? } else { 0 };
            Ok(Msg::Request { claimant, source, source_seq, epoch })
        }
        TAG_TOKEN | TAG_TOKEN_E => {
            let lender = match take_u8(buf)? {
                0 => None,
                1 => Some(take_node(buf)?),
                _ => return Err(DecodeError::BadField("has_lender")),
            };
            let epoch = if tag == TAG_TOKEN_E { take_epoch(buf)? } else { 0 };
            Ok(Msg::Token { lender, epoch })
        }
        TAG_ENQUIRY => Ok(Msg::Enquiry { source_seq: take_seq(buf)? }),
        TAG_ENQUIRY_REPLY => {
            let source_seq = take_seq(buf)?;
            let status = match take_u8(buf)? {
                0 => EnquiryStatus::StillInCs,
                1 => EnquiryStatus::TokenReturned,
                2 => EnquiryStatus::TokenLost,
                _ => return Err(DecodeError::BadField("status")),
            };
            Ok(Msg::EnquiryReply { source_seq, status })
        }
        TAG_TEST => Ok(Msg::Test { d: take_u32(buf)? }),
        TAG_ANSWER => {
            let kind = match take_u8(buf)? {
                0 => AnswerKind::Ok,
                1 => AnswerKind::TryLater,
                _ => return Err(DecodeError::BadField("kind")),
            };
            Ok(Msg::Answer { kind, d: take_u32(buf)? })
        }
        TAG_ANOMALY => Ok(Msg::Anomaly),
        TAG_MINT_REQUEST => Ok(Msg::MintRequest { epoch: take_epoch(buf)? }),
        TAG_MINT_ACK => {
            let granted = match take_u8(buf)? {
                0 => false,
                1 => true,
                _ => return Err(DecodeError::BadField("granted")),
            };
            Ok(Msg::MintAck { epoch: take_u64(buf)?, granted })
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

/// Splits the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    take::<1>(buf).map(|[byte]| byte)
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    take(buf).map(u32::from_le_bytes)
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    take(buf).map(u64::from_le_bytes)
}

/// Sequence numbers travel as u64 on the wire (the format predates the
/// in-memory u32 diet) but must fit the in-memory field.
fn take_seq(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    u32::try_from(take_u64(buf)?).map_err(|_| DecodeError::BadField("source_seq"))
}

/// Epochs on the epoch-stamped tags are nonzero by construction — epoch 0
/// always encodes with the legacy tags — so every message keeps exactly
/// one canonical encoding (the round-trip property tests rely on it).
fn take_epoch(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let epoch = take_u64(buf)?;
    if epoch == 0 {
        return Err(DecodeError::BadField("epoch 0"));
    }
    Ok(epoch)
}

fn take_node(buf: &mut &[u8]) -> Result<NodeId, DecodeError> {
    let raw = take_u32(buf)?;
    if raw == 0 {
        return Err(DecodeError::BadField("node id 0"));
    }
    Ok(NodeId::new(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Msg) {
        let bytes = encode(&msg);
        let decoded = decode(&bytes).expect("decode");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Msg::Request {
            claimant: NodeId::new(7),
            source: NodeId::new(12),
            source_seq: u32::MAX,
            epoch: 0,
        });
        round_trip(Msg::Request {
            claimant: NodeId::new(7),
            source: NodeId::new(12),
            source_seq: 3,
            epoch: u64::MAX,
        });
        round_trip(Msg::Token { lender: None, epoch: 0 });
        round_trip(Msg::Token { lender: Some(NodeId::new(1)), epoch: 0 });
        round_trip(Msg::Token { lender: None, epoch: 9 });
        round_trip(Msg::Token { lender: Some(NodeId::new(1)), epoch: 1 });
        round_trip(Msg::MintRequest { epoch: 1 });
        round_trip(Msg::MintAck { epoch: 4, granted: true });
        round_trip(Msg::MintAck { epoch: 0, granted: false });
        round_trip(Msg::Enquiry { source_seq: 0 });
        round_trip(Msg::EnquiryReply { source_seq: 3, status: EnquiryStatus::StillInCs });
        round_trip(Msg::EnquiryReply { source_seq: 4, status: EnquiryStatus::TokenReturned });
        round_trip(Msg::EnquiryReply { source_seq: 5, status: EnquiryStatus::TokenLost });
        round_trip(Msg::Test { d: 10 });
        round_trip(Msg::Answer { kind: AnswerKind::Ok, d: 2 });
        round_trip(Msg::Answer { kind: AnswerKind::TryLater, d: 9 });
        round_trip(Msg::Anomaly);
    }

    #[test]
    fn encodings_are_compact() {
        assert_eq!(encode(&Msg::Anomaly).len(), 1);
        assert_eq!(encode(&Msg::Token { lender: None, epoch: 0 }).len(), 2);
        assert_eq!(encode(&Msg::Token { lender: Some(NodeId::new(5)), epoch: 0 }).len(), 6);
        assert_eq!(
            encode(&Msg::Request {
                claimant: NodeId::new(1),
                source: NodeId::new(1),
                source_seq: 0,
                epoch: 0,
            })
            .len(),
            17
        );
    }

    #[test]
    fn epoch_zero_keeps_the_legacy_encoding() {
        // The exact pre-hardening byte streams: a `Hardening::None`
        // deployment is wire-compatible with peers that predate epochs.
        let token = encode(&Msg::Token { lender: None, epoch: 0 });
        assert_eq!(&token[..], &[0x02, 0x00]);
        let token = encode(&Msg::Token { lender: Some(NodeId::new(5)), epoch: 0 });
        assert_eq!(&token[..], &[0x02, 0x01, 0x05, 0x00, 0x00, 0x00]);
        let request = encode(&Msg::Request {
            claimant: NodeId::new(2),
            source: NodeId::new(3),
            source_seq: 4,
            epoch: 0,
        });
        assert_eq!(request[0], 0x01);
        assert_eq!(request.len(), 17);
        // Epoch > 0 switches to the stamped tags and appends the epoch.
        let stamped = encode(&Msg::Token { lender: None, epoch: 1 });
        assert_eq!(stamped[0], TAG_TOKEN_E);
        assert_eq!(stamped.len(), 2 + 8);
    }

    #[test]
    fn truncation_is_detected() {
        let msgs = [
            Msg::Request {
                claimant: NodeId::new(3),
                source: NodeId::new(3),
                source_seq: 9,
                epoch: 0,
            },
            Msg::Request {
                claimant: NodeId::new(3),
                source: NodeId::new(3),
                source_seq: 9,
                epoch: 2,
            },
            Msg::Token { lender: Some(NodeId::new(4)), epoch: 6 },
            Msg::MintRequest { epoch: 5 },
            Msg::MintAck { epoch: 5, granted: true },
        ];
        for msg in msgs {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode(&bytes[..cut]).unwrap_err(),
                    DecodeError::Truncated,
                    "{msg:?} cut={cut}"
                );
            }
        }
    }

    #[test]
    fn stamped_tags_reject_epoch_zero() {
        // Epoch 0 must travel on the legacy tags; a stamped frame claiming
        // epoch 0 has no canonical meaning and is rejected.
        let mut bytes = encode(&Msg::Token { lender: None, epoch: 7 }).to_vec();
        let len = bytes.len();
        bytes[len - 8..].fill(0);
        assert_eq!(decode(&bytes).unwrap_err(), DecodeError::BadField("epoch 0"));
    }

    #[test]
    fn bad_tag_and_fields_are_detected() {
        assert_eq!(decode(&[0xFF]).unwrap_err(), DecodeError::BadTag(0xFF));
        // Token with has_lender = 7.
        assert_eq!(decode(&[TAG_TOKEN, 7]).unwrap_err(), DecodeError::BadField("has_lender"));
        // Node id 0 in a request.
        let mut bad = vec![TAG_REQUEST];
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(decode(&bad).unwrap_err(), DecodeError::BadField("node id 0"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&Msg::Anomaly).to_vec();
        bytes.push(0);
        assert_eq!(decode(&bytes).unwrap_err(), DecodeError::BadField("trailing"));
    }
}
