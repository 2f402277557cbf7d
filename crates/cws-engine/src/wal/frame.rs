//! Length-prefixed, checksummed journal records.
//!
//! Every frame on disk is `payload_len (u32 LE) · payload checksum (u64 LE)
//! · payload`, where the checksum is [`frame_checksum`] (a seeded 64-bit
//! hash) over the payload bytes.
//! The payload starts with a kind tag (u8) and the **epoch tag** (u64 LE)
//! — the epoch number the frame's records will publish under — followed by
//! a kind-specific body:
//!
//! ```text
//! kind 1  records   count (u32) · count × (key u64 · A × weight f64-bits)
//! kind 2  elements  count (u32) · count × (key u64 · assignment u32 ·
//!                   weight f64-bits)
//! kind 3  barrier   (empty body — an epoch publish boundary)
//! ```
//!
//! `A` (the number of weight assignments) is not stored per frame; it comes
//! from the segment header, so a records frame's length is fully determined
//! and any disagreement between the declared count and the payload length
//! is treated as corruption. Weights travel as raw IEEE-754 bit patterns
//! ([`f64::to_bits`]), the same convention as the summary codec, so a
//! journaled record replays **bit-exactly**.
//!
//! Records frames are encoded straight from the key column and the weight
//! lanes of a [`RecordColumns`] batch (interleaving them into the row-major
//! body as they are written) and decode straight back into one, so a frame
//! replays through the call that journaled it.
//!
//! Decoding never panics and never guesses: a frame either round-trips
//! cleanly or reports a typed torn/corrupt reason that tells recovery to
//! truncate at the last clean frame.

use cws_core::codec::frame_checksum;
use cws_core::columns::RecordColumns;
use cws_core::Key;

/// Fixed prefix of every frame: payload length (u32) + payload checksum
/// (u64).
pub(crate) const FRAME_HEADER_BYTES: usize = 12;

/// Largest payload a frame may declare; a length field beyond this is
/// corruption, not a huge frame, and is rejected before any allocation.
pub(crate) const MAX_FRAME_PAYLOAD: usize = 1 << 26;

/// Every payload starts with `kind (u8) · epoch tag (u64)`.
const PAYLOAD_PREFIX: usize = 9;

const KIND_RECORDS: u8 = 1;
const KIND_ELEMENTS: u8 = 2;
const KIND_BARRIER: u8 = 3;

/// Bytes per record in a records frame body (key + `A` weights).
fn record_stride(num_assignments: usize) -> usize {
    8 + 8 * num_assignments
}

/// Bytes per element in an elements frame body (key + assignment + weight).
const ELEMENT_STRIDE: usize = 8 + 4 + 8;

/// The decoded content of one clean frame.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FramePayload {
    /// Whole records, as the column batch they were journaled from.
    Records { epoch: u64, columns: RecordColumns },
    /// Unaggregated elements `(key, assignment, weight)`.
    Elements { epoch: u64, items: Vec<(Key, usize, f64)> },
    /// An epoch publish boundary; everything before it belongs to `epoch`.
    Barrier { epoch: u64 },
}

impl FramePayload {
    /// The epoch tag the frame carries.
    pub(crate) fn epoch(&self) -> u64 {
        match self {
            Self::Records { epoch, .. }
            | Self::Elements { epoch, .. }
            | Self::Barrier { epoch } => *epoch,
        }
    }

    /// Number of records/elements the frame holds (0 for barriers).
    pub(crate) fn record_count(&self) -> usize {
        match self {
            Self::Records { columns, .. } => columns.len(),
            Self::Elements { items, .. } => items.len(),
            Self::Barrier { .. } => 0,
        }
    }
}

/// One step of a sequential frame scan.
#[derive(Debug)]
pub(crate) enum DecodeStep {
    /// A clean frame; `consumed` bytes were read from the input.
    Frame { payload: FramePayload, consumed: usize },
    /// The input is exhausted on a frame boundary.
    End,
    /// The bytes at this position are torn or corrupt; recovery truncates
    /// here. The reason is diagnostic only.
    Torn { reason: &'static str },
}

fn finish_frame(payload: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(
        &u32::try_from(payload.len()).expect("frame payload fits u32").to_le_bytes(),
    );
    frame.extend_from_slice(&frame_checksum(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn payload_prefix(kind: u8, epoch: u64, body_capacity: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAYLOAD_PREFIX + body_capacity);
    payload.push(kind);
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload
}

/// Most records a single frame may carry without breaching
/// [`MAX_FRAME_PAYLOAD`]; callers chunk larger batches.
pub(crate) fn max_records_per_frame(num_assignments: usize) -> usize {
    ((MAX_FRAME_PAYLOAD - PAYLOAD_PREFIX - 4) / record_stride(num_assignments)).max(1)
}

/// Most elements a single frame may carry.
pub(crate) const MAX_ELEMENTS_PER_FRAME: usize =
    (MAX_FRAME_PAYLOAD - PAYLOAD_PREFIX - 4) / ELEMENT_STRIDE;

/// Encodes a records frame from a key column and one weight lane per
/// assignment (each as long as `keys`); record `i` is written as `keys[i]`
/// followed by `lanes[0][i], …, lanes[A-1][i]`.
pub(crate) fn encode_records(epoch: u64, keys: &[Key], lanes: &[&[f64]]) -> Vec<u8> {
    debug_assert!(lanes.iter().all(|lane| lane.len() == keys.len()));
    debug_assert!(keys.len() <= max_records_per_frame(lanes.len()));
    let mut payload =
        payload_prefix(KIND_RECORDS, epoch, 4 + keys.len() * record_stride(lanes.len()));
    payload.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for (index, &key) in keys.iter().enumerate() {
        payload.extend_from_slice(&key.to_le_bytes());
        for lane in lanes {
            payload.extend_from_slice(&lane[index].to_bits().to_le_bytes());
        }
    }
    finish_frame(payload)
}

/// Encodes an elements frame. Every assignment index must fit `u32` (the
/// journal checks before encoding).
pub(crate) fn encode_elements(epoch: u64, items: &[(Key, usize, f64)]) -> Vec<u8> {
    debug_assert!(items.len() <= MAX_ELEMENTS_PER_FRAME);
    let mut payload = payload_prefix(KIND_ELEMENTS, epoch, 4 + items.len() * ELEMENT_STRIDE);
    payload.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for &(key, assignment, weight) in items {
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(&(assignment as u32).to_le_bytes());
        payload.extend_from_slice(&weight.to_bits().to_le_bytes());
    }
    finish_frame(payload)
}

/// Encodes a barrier frame.
pub(crate) fn encode_barrier(epoch: u64) -> Vec<u8> {
    finish_frame(payload_prefix(KIND_BARRIER, epoch, 0))
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Decodes the frame at the start of `bytes`. Never panics; anything that
/// does not round-trip cleanly is [`DecodeStep::Torn`].
pub(crate) fn decode_frame(bytes: &[u8], num_assignments: usize) -> DecodeStep {
    if bytes.is_empty() {
        return DecodeStep::End;
    }
    if bytes.len() < FRAME_HEADER_BYTES {
        return DecodeStep::Torn { reason: "truncated frame header" };
    }
    let len = read_u32(bytes) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return DecodeStep::Torn { reason: "frame length overflow" };
    }
    let stored_checksum = read_u64(&bytes[4..]);
    if bytes.len() < FRAME_HEADER_BYTES + len {
        return DecodeStep::Torn { reason: "truncated frame payload" };
    }
    let payload = &bytes[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
    if frame_checksum(payload) != stored_checksum {
        return DecodeStep::Torn { reason: "frame checksum mismatch" };
    }
    // The checksum passed; the payload is still validated structurally — a
    // writer bug or a colliding corruption must truncate, never replay
    // garbage.
    if payload.len() < PAYLOAD_PREFIX {
        return DecodeStep::Torn { reason: "frame payload too short" };
    }
    let (kind, epoch, body) = (payload[0], read_u64(&payload[1..]), &payload[PAYLOAD_PREFIX..]);
    let consumed = FRAME_HEADER_BYTES + len;
    match kind {
        KIND_BARRIER => {
            if body.is_empty() {
                DecodeStep::Frame { payload: FramePayload::Barrier { epoch }, consumed }
            } else {
                DecodeStep::Torn { reason: "barrier frame with a body" }
            }
        }
        KIND_RECORDS => {
            if body.len() < 4 {
                return DecodeStep::Torn { reason: "records frame without a count" };
            }
            let count = read_u32(body) as usize;
            let expected = count.checked_mul(record_stride(num_assignments)).map(|n| n + 4);
            if expected != Some(body.len()) {
                return DecodeStep::Torn { reason: "records frame length mismatch" };
            }
            let mut keys = Vec::with_capacity(count);
            let mut lanes = vec![Vec::with_capacity(count); num_assignments];
            let mut at = 4;
            for _ in 0..count {
                keys.push(read_u64(&body[at..]));
                at += 8;
                for lane in &mut lanes {
                    lane.push(f64::from_bits(read_u64(&body[at..])));
                    at += 8;
                }
            }
            let columns = RecordColumns::from_parts(keys, lanes);
            DecodeStep::Frame { payload: FramePayload::Records { epoch, columns }, consumed }
        }
        KIND_ELEMENTS => {
            if body.len() < 4 {
                return DecodeStep::Torn { reason: "elements frame without a count" };
            }
            let count = read_u32(body) as usize;
            if count.checked_mul(ELEMENT_STRIDE).map(|n| n + 4) != Some(body.len()) {
                return DecodeStep::Torn { reason: "elements frame length mismatch" };
            }
            let mut items = Vec::with_capacity(count);
            let mut at = 4;
            for _ in 0..count {
                let key = read_u64(&body[at..]);
                let assignment = read_u32(&body[at + 8..]) as usize;
                let weight = f64::from_bits(read_u64(&body[at + 12..]));
                items.push((key, assignment, weight));
                at += ELEMENT_STRIDE;
            }
            DecodeStep::Frame { payload: FramePayload::Elements { epoch, items }, consumed }
        }
        _ => DecodeStep::Torn { reason: "unknown frame kind" },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_one(frame: &[u8], num_assignments: usize) -> FramePayload {
        match decode_frame(frame, num_assignments) {
            DecodeStep::Frame { payload, consumed } => {
                assert_eq!(consumed, frame.len());
                payload
            }
            other => panic!("expected a clean frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        let weights = [1.5, f64::MIN_POSITIVE, 0.1 + 0.2, 4.0];
        let frame = encode_records(
            7,
            &[10, u64::MAX],
            &[&[weights[0], weights[2]], &[weights[1], weights[3]]],
        );
        match decode_one(&frame, 2) {
            FramePayload::Records { epoch, columns } => {
                assert_eq!((epoch, columns.keys()), (7, &[10, u64::MAX][..]));
                let bits = |lane: &[f64]| lane.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(columns.lane(0)), bits(&[weights[0], weights[2]]));
                assert_eq!(bits(columns.lane(1)), bits(&[weights[1], weights[3]]));
            }
            other => panic!("{other:?}"),
        }
        let frame = encode_elements(3, &[(9, 1, 2.25), (9, 0, f64::NAN)]);
        match decode_one(&frame, 2) {
            FramePayload::Elements { epoch, items } => {
                assert_eq!(epoch, 3);
                assert_eq!((items[0].0, items[0].1), (9, 1));
                // NaN journals and replays by bit pattern, so the replayed
                // pipeline rejects it exactly like the original did.
                assert_eq!(items[1].2.to_bits(), f64::NAN.to_bits());
            }
            other => panic!("{other:?}"),
        }
        match decode_one(&encode_barrier(12), 2) {
            FramePayload::Barrier { epoch } => assert_eq!(epoch, 12),
            other => panic!("{other:?}"),
        }
    }

    /// Pins the version-1 records layout byte for byte: a frame encoded
    /// from columns must equal one assembled by hand from the layout in
    /// the module docs, so journals written by earlier builds still replay.
    #[test]
    fn records_frame_matches_the_documented_layout_byte_for_byte() {
        let keys = [3u64, 0x0102_0304_0506_0708, u64::MAX];
        let lane0 = [1.0, 0.5, f64::MIN_POSITIVE];
        let lane1 = [2.0, 0.0, 1e300];
        let frame = encode_records(0x0A0B_0C0D, &keys, &[&lane0, &lane1]);

        let mut payload = vec![KIND_RECORDS];
        payload.extend_from_slice(&0x0A0B_0C0Du64.to_le_bytes());
        payload.extend_from_slice(&3u32.to_le_bytes());
        for index in 0..3 {
            payload.extend_from_slice(&keys[index].to_le_bytes());
            payload.extend_from_slice(&lane0[index].to_bits().to_le_bytes());
            payload.extend_from_slice(&lane1[index].to_bits().to_le_bytes());
        }
        assert_eq!(payload.len(), PAYLOAD_PREFIX + 4 + 3 * record_stride(2));
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&frame_checksum(&payload).to_le_bytes());
        expected.extend_from_slice(&payload);
        assert_eq!(frame, expected);
        // Literal bytes, so the hand-built vector cannot drift along with
        // the encoder or the checksum: length, checksum, kind, epoch,
        // count, first key, first weight.
        assert_eq!(&frame[..4], &[85, 0, 0, 0]);
        assert_eq!(&frame[4..12], &[255, 251, 229, 30, 156, 213, 185, 206]);
        assert_eq!(frame[12], 1);
        assert_eq!(&frame[13..21], &[0x0D, 0x0C, 0x0B, 0x0A, 0, 0, 0, 0]);
        assert_eq!(&frame[21..25], &[3, 0, 0, 0]);
        assert_eq!(&frame[25..33], &[3, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(&frame[33..41], &1.0f64.to_bits().to_le_bytes());
        match decode_one(&frame, 2) {
            FramePayload::Records { columns, .. } => {
                assert_eq!(columns.keys(), keys);
                assert_eq!(columns.lane(0), lane0);
                assert_eq!(columns.lane(1), lane1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_truncation_point_is_torn_never_panics() {
        let frame = encode_records(1, &[1, 2, 3], &[&[1.0, 2.0, 3.0]]);
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut], 1) {
                DecodeStep::End => assert_eq!(cut, 0),
                DecodeStep::Torn { .. } => {}
                DecodeStep::Frame { .. } => panic!("accepted a frame cut at byte {cut}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let frame = encode_elements(5, &[(1, 0, 1.0), (2, 0, 2.0)]);
        for position in 0..frame.len() {
            let mut mutated = frame.clone();
            mutated[position] ^= 0x40;
            match decode_frame(&mutated, 1) {
                DecodeStep::Torn { .. } => {}
                DecodeStep::Frame { .. } => panic!("accepted a corrupt frame (byte {position})"),
                DecodeStep::End => panic!("corrupt frame read as empty (byte {position})"),
            }
        }
    }

    #[test]
    fn structurally_invalid_payloads_are_torn_even_with_a_valid_checksum() {
        // A records frame whose declared count disagrees with its length,
        // re-checksummed so only structural validation can catch it.
        let mut frame = encode_records(1, &[1], &[&[1.0]]);
        let count_at = FRAME_HEADER_BYTES + PAYLOAD_PREFIX;
        frame[count_at] = 2;
        let payload = frame[FRAME_HEADER_BYTES..].to_vec();
        frame[4..12].copy_from_slice(&frame_checksum(&payload).to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, 1),
            DecodeStep::Torn { reason: "records frame length mismatch" }
        ));
        // Unknown kinds are torn, not skipped.
        let mut frame = encode_barrier(1);
        frame[FRAME_HEADER_BYTES] = 9;
        let payload = frame[FRAME_HEADER_BYTES..].to_vec();
        frame[4..12].copy_from_slice(&frame_checksum(&payload).to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, 1),
            DecodeStep::Torn { reason: "unknown frame kind" }
        ));
    }
}
