//! Property tests for the wire codec: round-trip over the full message
//! space, and decoder robustness against arbitrary bytes.

use oc_algo::codec::{decode, encode};
use oc_algo::{AnswerKind, EnquiryStatus, Msg};
use oc_topology::NodeId;
use proptest::prelude::*;

fn arb_node() -> impl Strategy<Value = NodeId> {
    (1u32..=1024).prop_map(NodeId::new)
}

/// Mint epochs: skewed toward 0 (the entire baseline protocol) with the
/// stamped-tag range and the saturation ceiling represented.
fn arb_epoch() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..=16, Just(u64::MAX)]
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (arb_node(), arb_node(), any::<u32>(), arb_epoch()).prop_map(
            |(claimant, source, source_seq, epoch)| Msg::Request {
                claimant,
                source,
                source_seq,
                epoch
            }
        ),
        (proptest::option::of(arb_node()), arb_epoch())
            .prop_map(|(lender, epoch)| Msg::Token { lender, epoch }),
        (1u64..=32).prop_map(|epoch| Msg::MintRequest { epoch }),
        (any::<u64>(), proptest::bool::ANY)
            .prop_map(|(epoch, granted)| Msg::MintAck { epoch, granted }),
        any::<u32>().prop_map(|source_seq| Msg::Enquiry { source_seq }),
        (any::<u32>(), 0u8..3).prop_map(|(source_seq, s)| Msg::EnquiryReply {
            source_seq,
            status: match s {
                0 => EnquiryStatus::StillInCs,
                1 => EnquiryStatus::TokenReturned,
                _ => EnquiryStatus::TokenLost,
            },
        }),
        (1u32..=20).prop_map(|d| Msg::Test { d }),
        (proptest::bool::ANY, 1u32..=20).prop_map(|(ok, d)| Msg::Answer {
            kind: if ok { AnswerKind::Ok } else { AnswerKind::TryLater },
            d,
        }),
        Just(Msg::Anomaly),
    ]
}

proptest! {
    /// Every message round-trips exactly.
    #[test]
    fn round_trip(msg in arb_msg()) {
        let bytes = encode(&msg);
        let decoded = decode(&bytes).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// The decoder never panics on arbitrary input; it either produces a
    /// message whose re-encoding is canonical, or a structured error.
    #[test]
    fn decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // A structured rejection is always fine; a successful decode must
        // re-encode canonically (encodings are unique).
        if let Ok(msg) = decode(&bytes) {
            let reencoded = encode(&msg);
            prop_assert_eq!(&reencoded[..], &bytes[..]);
        }
    }

    /// Every prefix of a valid encoding is rejected as truncated (framing
    /// safety).
    #[test]
    fn prefixes_are_truncated(msg in arb_msg()) {
        let bytes = encode(&msg);
        for cut in 0..bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err());
        }
    }
}
