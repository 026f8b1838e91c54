//! Property tests for the cross-process wire protocol (`shard::wire`):
//! arbitrary frames encode→decode identically, and no truncation or byte
//! corruption can make the decoder panic — it must return structured
//! [`WireError`]s, because a shard coordinator feeds it bytes produced by
//! a *different process* that may have died mid-write.

use proptest::prelude::*;
use sat::{SharedClause, Var};
use shard::wire::{Frame, RemoteClause, WireError};

fn round_trip(frame: &Frame) {
    let bytes = frame.to_bytes().expect("well-formed frame encodes");
    let (decoded, used) = Frame::decode(&bytes).expect("well-formed frame decodes");
    assert_eq!(&decoded, frame);
    assert_eq!(used, bytes.len(), "decode must consume the whole frame");
}

fn clause_frame(
    shard: u32,
    source: u32,
    lbd: u32,
    bound_tag: Option<usize>,
    lits: &[(usize, bool)],
) -> Frame {
    Frame::Clause(RemoteClause {
        shard,
        clause: SharedClause {
            lits: lits.iter().map(|&(v, pos)| Var::new(v).lit(pos)).collect(),
            lbd,
            bound_tag,
            source: source as usize,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn clause_frames_round_trip(
        shard in 0u32..16,
        source in 0u32..16,
        lbd in 0u32..256,
        tagged in any::<bool>(),
        tag in 0u64..100_000,
        lits in proptest::collection::vec((0usize..5_000, any::<bool>()), 1..40),
    ) {
        let frame = clause_frame(shard, source, lbd, tagged.then_some(tag as usize), &lits);
        round_trip(&frame);
    }

    #[test]
    fn bound_floor_and_control_frames_round_trip(
        kind in 0u8..5,
        value in 0u64..=u64::MAX,
        shard in 0u32..=u32::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let frame = match kind {
            0 => Frame::Bound(value),
            1 => Frame::Floor(value),
            2 => Frame::Cancel,
            3 => Frame::Hello { shard, protocol: value as u32 },
            _ => if shard % 2 == 0 { Frame::Job(payload) } else { Frame::Result(payload) },
        };
        round_trip(&frame);
    }

    #[test]
    fn truncation_yields_structured_errors(
        cut_fraction in 0.0f64..1.0,
        shard in 0u32..8,
        lbd in 0u32..8,
        lits in proptest::collection::vec((0usize..100, any::<bool>()), 1..12),
    ) {
        let frame = clause_frame(shard, 0, lbd, None, &lits);
        let bytes = frame.to_bytes().expect("encodes");
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assert!(cut < bytes.len());
        match Frame::decode(&bytes[..cut]) {
            Err(WireError::Truncated { expected, got }) => {
                prop_assert!(got < expected, "truncated error must be consistent");
                prop_assert_eq!(got, cut);
            }
            other => prop_assert!(false, "truncation at {} gave {:?}", cut, other),
        }
    }

    #[test]
    fn corruption_never_panics(
        flip_at_fraction in 0.0f64..1.0,
        flip_bits in 1u8..=255,
        value in 0u64..1_000_000,
        lits in proptest::collection::vec((0usize..100, any::<bool>()), 1..12),
        pick in 0u8..3,
    ) {
        let frame = match pick {
            0 => clause_frame(3, 1, 2, Some(value as usize), &lits),
            1 => Frame::Bound(value),
            _ => Frame::Result(value.to_le_bytes().to_vec()),
        };
        let mut bytes = frame.to_bytes().expect("encodes");
        let at = ((bytes.len() as f64) * flip_at_fraction) as usize;
        bytes[at] ^= flip_bits;
        // Any outcome is acceptable except a panic: the flip may still
        // decode (payload bytes), or fail with any structured error.
        let _ = Frame::decode(&bytes);
    }

    #[test]
    fn concatenated_streams_decode_frame_by_frame(
        bounds in proptest::collection::vec(0u64..1_000, 1..20),
    ) {
        let frames: Vec<Frame> = bounds.iter().map(|&b| Frame::Bound(b)).collect();
        let mut buf = Vec::new();
        for f in &frames {
            f.encode(&mut buf).expect("encodes");
        }
        let mut at = 0;
        for expected in &frames {
            let (got, used) = Frame::decode(&buf[at..]).expect("stream frame decodes");
            prop_assert_eq!(&got, expected);
            at += used;
        }
        prop_assert_eq!(at, buf.len());
    }
}
