//! The frame codec battery: `schevo::vcs::frame` owns the
//! `u32 LE length | SHA-1(payload) | payload` format that the mining
//! journal, the shard store, `schevo scrub` and the serve wire protocol
//! share. These tests pin the format to literal bytes, round-trip random
//! frame sequences through both the slice decoder and the streaming
//! reader, cut and bit-flip frames at every position, and check that the
//! two decoders agree on arbitrary input. The last tests drive the codec
//! through its callers (serve framing, the store writer).

use proptest::prelude::*;
use schevo::corpus::store::{StoreError, StoreWriter};
use schevo::corpus::universe::{CorpusRecord, UniverseConfig};
use schevo::serve::{read_frame, write_frame, FrameError};
use schevo::vcs::frame::{self, frame_len, HEADER_LEN, MAX_PAYLOAD};
use std::io::{Cursor, Read};

/// A reader that hands out at most `chunk` bytes per `read`, to model
/// short reads from a socket or pipe.
struct Chunked<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.max(1).min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn encode(payload: &[u8]) -> Vec<u8> {
    let mut out = frame::header(payload).expect("payload in range").to_vec();
    out.extend_from_slice(payload);
    out
}

fn encode_all(payloads: &[Vec<u8>]) -> Vec<u8> {
    payloads.iter().flat_map(|p| encode(p)).collect()
}

/// A comparable summary of one decode: the payload, or the error with
/// its fields (I/O errors cannot occur over in-memory input).
#[derive(Debug, PartialEq)]
enum Outcome {
    Payload(Vec<u8>),
    Eof,
    Torn { got: usize, want: usize },
    BadLength(u64),
    Checksum,
}

fn outcome(e: FrameError) -> Outcome {
    match e {
        FrameError::Torn { got, want } => Outcome::Torn { got, want },
        FrameError::BadLength(len) => Outcome::BadLength(len),
        FrameError::Checksum => Outcome::Checksum,
        FrameError::Io(e) => panic!("in-memory input raised I/O error: {e}"),
    }
}

fn via_decode(bytes: &[u8]) -> Outcome {
    match frame::decode(bytes) {
        Ok(p) => Outcome::Payload(p.to_vec()),
        Err(e) => outcome(e),
    }
}

fn via_read_into(bytes: &[u8], chunk: usize) -> Outcome {
    let mut buf = Vec::new();
    match frame::read_into(&mut Chunked { bytes, chunk }, &mut buf) {
        Ok(true) => Outcome::Payload(buf),
        Ok(false) => Outcome::Eof,
        Err(e) => outcome(e),
    }
}

/// Read frames until the stream ends or fails, reusing one buffer.
fn read_all(bytes: &[u8], chunk: usize) -> (Vec<Vec<u8>>, Outcome) {
    let mut r = Chunked { bytes, chunk };
    let mut buf = Vec::new();
    let mut frames = Vec::new();
    loop {
        match frame::read_into(&mut r, &mut buf) {
            Ok(true) => frames.push(buf.clone()),
            Ok(false) => return (frames, Outcome::Eof),
            Err(e) => return (frames, outcome(e)),
        }
    }
}

/// The format-compatibility pin: a fixed payload's frame, as literal
/// bytes. The digest is SHA-1("schevo frame") from an independent
/// implementation. Any change here breaks every journal, shard store
/// and serve peer already in the field.
#[test]
fn pinned_frame_bytes() {
    let payload = b"schevo frame";
    let want: [u8; HEADER_LEN] = [
        0x0c, 0x00, 0x00, 0x00, 0xa8, 0xc7, 0xbc, 0xfb, 0x69, 0xa0, 0x3f, 0x53, 0xe8, 0x52, 0xfe,
        0x43, 0x42, 0x3e, 0xdd, 0x16, 0x83, 0x6d, 0x81, 0x14,
    ];
    assert_eq!(frame::header(payload).expect("header"), want);
    let mut wire = Vec::new();
    write_frame(&mut wire, payload).expect("serve write");
    assert_eq!(&wire[..HEADER_LEN], &want);
    assert_eq!(&wire[HEADER_LEN..], payload);
    assert_eq!(wire.len(), frame_len(payload.len()));
    assert_eq!(frame::decode(&wire).expect("decode"), payload);
}

#[test]
fn header_rejects_empty_and_over_cap_payloads() {
    assert!(matches!(frame::header(b""), Err(FrameError::BadLength(0))));
    // Zeroed pages: the allocation is never touched, so it costs no RSS.
    let over = vec![0u8; MAX_PAYLOAD + 1];
    assert!(matches!(
        frame::header(&over),
        Err(FrameError::BadLength(n)) if n == (MAX_PAYLOAD + 1) as u64
    ));
}

#[test]
fn hostile_length_is_rejected_before_any_allocation() {
    for len in [0u32, (MAX_PAYLOAD + 1) as u32, u32::MAX] {
        let mut bytes = vec![0xFFu8; HEADER_LEN];
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(b"x");
        assert_eq!(via_decode(&bytes), Outcome::BadLength(len as u64));
        let mut buf = Vec::new();
        let err = frame::read_into(&mut Cursor::new(&bytes), &mut buf).expect_err("bad length");
        assert_eq!(outcome(err), Outcome::BadLength(len as u64));
        assert_eq!(
            buf.capacity(),
            0,
            "length {len} allocated before it was checked"
        );
    }
    // The cap itself is a legal length: a header announcing exactly
    // MAX_PAYLOAD bytes is merely torn when they are missing.
    let mut bytes = vec![0u8; HEADER_LEN];
    bytes[..4].copy_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
    assert_eq!(
        via_decode(&bytes),
        Outcome::Torn {
            got: 0,
            want: MAX_PAYLOAD
        }
    );
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let clean = encode(b"flip every bit of me");
    assert_eq!(
        via_decode(&clean),
        Outcome::Payload(b"flip every bit of me".to_vec())
    );
    for bit in 0..clean.len() * 8 {
        let mut bad = clean.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let decoded = via_decode(&bad);
        assert!(
            !matches!(decoded, Outcome::Payload(_)),
            "flip of bit {bit} accepted"
        );
        assert_eq!(
            decoded,
            via_read_into(&bad, 7),
            "flip of bit {bit}: decoders disagree"
        );
    }
}

/// An arbitrary payload of 1..=`max` bytes.
fn payload(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 1..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any sequence of frames decodes back to its payloads through the
    /// slice decoder and through the streaming reader, whatever the read
    /// chunking, ending in a clean EOF.
    #[test]
    fn frame_sequences_round_trip(
        payloads in prop::collection::vec(payload(300), 0..8),
        chunk in 1usize..64,
    ) {
        let bytes = encode_all(&payloads);
        let mut at = 0;
        let mut decoded = Vec::new();
        while at < bytes.len() {
            let p = frame::decode(&bytes[at..]).map_err(|e| TestCaseError::fail(e.to_string()))?;
            at += frame_len(p.len());
            decoded.push(p.to_vec());
        }
        prop_assert_eq!(&decoded, &payloads);
        let (read, end) = read_all(&bytes, chunk);
        prop_assert_eq!(&read, &payloads);
        prop_assert_eq!(end, Outcome::Eof);
    }

    /// Cutting a frame sequence anywhere yields the frames wholly before
    /// the cut, then a clean EOF if the cut falls on a frame boundary and
    /// a torn frame otherwise.
    #[test]
    fn every_truncation_is_torn_or_a_clean_boundary(
        payloads in prop::collection::vec(payload(40), 1..4),
        chunk in 1usize..32,
    ) {
        let bytes = encode_all(&payloads);
        let mut ends = vec![0usize];
        for p in &payloads {
            ends.push(ends[ends.len() - 1] + frame_len(p.len()));
        }
        for cut in 0..bytes.len() {
            let whole = ends.iter().filter(|&&e| e > 0 && e <= cut).count();
            let (read, end) = read_all(&bytes[..cut], chunk);
            prop_assert_eq!(&read[..], &payloads[..whole], "cut {}", cut);
            if ends.contains(&cut) {
                prop_assert_eq!(end, Outcome::Eof, "cut {}", cut);
            } else {
                prop_assert!(matches!(end, Outcome::Torn { .. }), "cut {}: {:?}", cut, end);
                prop_assert_eq!(via_decode(&bytes[ends[whole]..cut]), end, "cut {}", cut);
            }
        }
    }

    /// On arbitrary bytes, the slice decoder and the streaming reader
    /// return the same payload or the same error. The inputs mix raw
    /// noise with valid frames that were cut, bit-flipped, re-lengthed
    /// or followed by trailing garbage.
    #[test]
    fn decode_and_read_into_agree_on_arbitrary_bytes(
        noise in prop::collection::vec(any::<u8>(), 1..64),
        body in payload(48),
        tamper in 0u8..5,
        pos in any::<usize>(),
        chunk in 1usize..32,
    ) {
        let bytes = match tamper {
            0 => noise,
            1 => {
                let mut f = encode(&body);
                f.truncate(1 + pos % f.len());
                f
            }
            2 => {
                let mut f = encode(&body);
                let at = pos % f.len();
                f[at] ^= noise[0] | 1;
                f
            }
            3 => {
                let mut f = encode(&body);
                f[..4].copy_from_slice(&((pos % 64) as u32).to_le_bytes());
                f
            }
            _ => {
                let mut f = encode(&body);
                f.extend_from_slice(&noise);
                f
            }
        };
        let decoded = via_decode(&bytes);
        prop_assert_eq!(&decoded, &via_read_into(&bytes, chunk), "input {:?}", bytes);
        if tamper == 4 {
            prop_assert_eq!(decoded, Outcome::Payload(body));
        }
    }
}

/// The serve wire framing over the codec: round trip with a clean EOF,
/// and each failure mode surfacing as its typed error.
#[test]
fn serve_framing_round_trips_and_fails_closed() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"hello").expect("write");
    write_frame(&mut wire, b"world!").expect("write");
    let mut r = Cursor::new(wire.clone());
    assert_eq!(
        read_frame(&mut r).expect("frame 1").as_deref(),
        Some(&b"hello"[..])
    );
    assert_eq!(
        read_frame(&mut r).expect("frame 2").as_deref(),
        Some(&b"world!"[..])
    );
    assert!(read_frame(&mut r).expect("eof").is_none());

    let mut flipped = wire.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let mut r = Cursor::new(flipped);
    read_frame(&mut r).expect("frame 1 intact");
    assert!(matches!(read_frame(&mut r), Err(FrameError::Checksum)));

    let mut torn = wire;
    torn.truncate(torn.len() - 3);
    let mut r = Cursor::new(torn);
    read_frame(&mut r).expect("frame 1 intact");
    assert!(matches!(
        read_frame(&mut r),
        Err(FrameError::Torn { got: 3, want: 6 })
    ));

    let mut hostile = vec![0xFFu8; HEADER_LEN];
    hostile.extend_from_slice(b"x");
    assert!(matches!(
        read_frame(&mut Cursor::new(hostile)),
        Err(FrameError::BadLength(_))
    ));

    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, b""),
        Err(FrameError::BadLength(0))
    ));
    assert!(sink.is_empty(), "a rejected frame writes no bytes");
}

/// A store record whose payload exceeds the frame cap fails the write
/// with a typed error and leaves the shard untouched, instead of writing
/// a frame its own reader would reject as corrupt.
#[test]
fn store_writer_rejects_an_over_cap_record() {
    let dir = std::env::temp_dir().join(format!("schevo_frame_codec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create(&dir, UniverseConfig::small(1, 80), 1).expect("create");
    // 1025 paths of 65,535 bytes each encode to just over 64 MiB.
    let path = "p".repeat(u16::MAX as usize);
    let record = CorpusRecord {
        name: "huge/record".to_string(),
        sql_paths: vec![path; 1025],
        libio: None,
        body: None,
    };
    let err = writer
        .write(&record)
        .expect_err("over-cap record must not be framed");
    assert!(
        matches!(err, StoreError::Frame(FrameError::BadLength(n)) if n > MAX_PAYLOAD as u64),
        "{err}"
    );
    drop(record);
    let (manifest, io) = writer.finalize().expect("finalize");
    assert_eq!(manifest.records, 0);
    assert_eq!(io.records_written, 0);
    let shard = std::fs::read(dir.join("shard-000.pack")).expect("read shard");
    assert_eq!(shard, b"SCHEVOST", "the rejected record left bytes behind");
    let _ = std::fs::remove_dir_all(&dir);
}
