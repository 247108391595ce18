//! Randomized round-trip tests for the XDR encoder/decoder.
//!
//! The build environment is offline, so instead of the `proptest` crate these
//! use a small deterministic splitmix64 driver: the same seeds run on every
//! machine, failures are reproducible by construction, and the properties
//! checked are the same ones the original property tests stated.

use wg_xdr::{XdrDecoder, XdrEncoder};

/// Deterministic splitmix64 stream used to generate test inputs.
struct TestRng(u64);

impl TestRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

#[test]
fn integers_roundtrip() {
    let mut rng = TestRng(1);
    for _ in 0..512 {
        let u = rng.next() as u32;
        let h = rng.next();
        let mut e = XdrEncoder::new();
        e.put_u32(u);
        e.put_u64(h);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 12);
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_u32().unwrap(), u);
        assert_eq!(d.get_u64().unwrap(), h);
    }
}

#[test]
fn opaque_roundtrip() {
    let mut rng = TestRng(2);
    for _ in 0..256 {
        let len = rng.below(2048) as usize;
        let data = rng.bytes(len);
        let mut e = XdrEncoder::new();
        e.put_opaque(&data);
        let bytes = e.into_bytes();
        // Always a multiple of 4 bytes on the wire.
        assert_eq!(bytes.len() % 4, 0);
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_opaque().unwrap(), data);
        assert_eq!(d.remaining(), 0);
    }
}

#[test]
fn string_roundtrip() {
    let mut rng = TestRng(3);
    for _ in 0..256 {
        let len = rng.below(200) as usize;
        let s: String = (0..len)
            .map(|_| char::from_u32(0x20 + (rng.below(0x5E)) as u32).unwrap())
            .collect();
        let mut e = XdrEncoder::new();
        e.put_string(&s);
        let bytes = e.into_bytes();
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_string().unwrap(), s);
    }
}

#[test]
fn mixed_sequence_roundtrip() {
    let mut rng = TestRng(4);
    for _ in 0..256 {
        let a = rng.next() as u32;
        let b = rng.next().is_multiple_of(2);
        let dlen = rng.below(256) as usize;
        let data = rng.bytes(dlen);
        let c = rng.next();
        let mut e = XdrEncoder::new();
        e.put_u32(a);
        e.put_bool(b);
        e.put_opaque(&data);
        e.put_u64(c);
        let bytes = e.into_bytes();
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_u32().unwrap(), a);
        assert_eq!(d.get_bool().unwrap(), b);
        assert_eq!(d.get_opaque().unwrap(), data);
        assert_eq!(d.get_u64().unwrap(), c);
        assert_eq!(d.remaining(), 0);
    }
}

/// Decoding arbitrary garbage must never panic; it either yields a value or a
/// structured error.
#[test]
fn decoder_never_panics_on_garbage() {
    let mut rng = TestRng(5);
    for _ in 0..512 {
        let len = rng.below(512) as usize;
        let bytes = rng.bytes(len);
        let mut d = XdrDecoder::new(&bytes);
        let _ = d.get_u32();
        let _ = d.get_bool();
        let _ = d.get_opaque();
        let _ = d.get_string();
        let _ = d.get_u64();
    }
}
