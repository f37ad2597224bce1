//! Compact binary serialization for filter persistence.
//!
//! Static filters live beside the immutable runs they guard (LSM
//! SSTables, Mantis indexes), so they must round-trip through bytes.
//! This module provides a minimal, dependency-free little-endian
//! codec with checked reads; each filter crate layers its own
//! `to_bytes` / `from_bytes` on top.

use crate::bitvec::{BitVec, PackedArray};

/// Deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerialError {
    /// Input ended before the structure was complete.
    Truncated,
    /// A magic tag or structural invariant did not match.
    Corrupt(&'static str),
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerialError::Truncated => write!(f, "input truncated"),
            SerialError::Corrupt(what) => write!(f, "corrupt input: {what}"),
        }
    }
}

impl std::error::Error for SerialError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append to the end of `buf`, reusing its allocation;
    /// [`into_bytes`](Self::into_bytes) hands it back.
    pub fn with_buffer(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Append an `f64` (IEEE-754 bit pattern, exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte string (`u32` length).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked little-endian decoder.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Read a `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SerialError> {
        if self.buf.len() < 4 {
            return Err(SerialError::Truncated);
        }
        let (head, rest) = self.buf.split_at(4);
        self.buf = rest;
        Ok(u32::from_le_bytes(head.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SerialError> {
        if self.buf.len() < 8 {
            return Err(SerialError::Truncated);
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Ok(u64::from_le_bytes(head.try_into().unwrap()))
    }

    /// Read a length-prefixed `u64` vector (length sanity-capped by
    /// the remaining input).
    pub fn take_u64_vec(&mut self) -> Result<Vec<u64>, SerialError> {
        let n = self.take_u64()? as usize;
        if n.checked_mul(8).is_none_or(|b| b > self.buf.len()) {
            return Err(SerialError::Truncated);
        }
        (0..n).map(|_| self.take_u64()).collect()
    }

    /// Read an `f64` written by [`ByteWriter::put_f64`].
    pub fn take_f64(&mut self) -> Result<f64, SerialError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a length-prefixed byte string written by
    /// [`ByteWriter::put_bytes`] (length sanity-capped by the
    /// remaining input).
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, SerialError> {
        let n = self.take_u32()? as usize;
        if n > self.buf.len() {
            return Err(SerialError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head.to_vec())
    }
}

impl BitVec {
    /// Serialize to the writer.
    pub fn serialize(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        w.put_u64_slice(self.words());
    }

    /// Deserialize from the reader.
    pub fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, SerialError> {
        let len = r.take_u64()? as usize;
        let words = r.take_u64_vec()?;
        if words.len() != len.div_ceil(64) {
            return Err(SerialError::Corrupt("bitvec word count"));
        }
        Ok(BitVec::from_parts(words, len))
    }
}

impl PackedArray {
    /// Serialize to the writer.
    pub fn serialize(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        w.put_u32(self.width());
        self.bits().serialize(w);
    }

    /// Deserialize from the reader.
    pub fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, SerialError> {
        let len = r.take_u64()? as usize;
        let width = r.take_u32()?;
        if width == 0 || width > 64 {
            return Err(SerialError::Corrupt("packed width"));
        }
        let bits = BitVec::deserialize(r)?;
        if len.checked_mul(width as usize) != Some(bits.len()) {
            return Err(SerialError::Corrupt("packed bit count"));
        }
        Ok(PackedArray::from_parts(bits, width, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_u64_slice(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_and_f64_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"hello");
        w.put_bytes(b"");
        w.put_f64(0.001);
        w.put_f64(f64::NEG_INFINITY);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_bytes().unwrap(), b"hello");
        assert_eq!(r.take_bytes().unwrap(), b"");
        assert_eq!(r.take_f64().unwrap(), 0.001);
        assert_eq!(r.take_f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.remaining(), 0);
        // Absurd byte-string length cannot over-read.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_bytes(), Err(SerialError::Truncated));
    }

    #[test]
    fn truncation_detected() {
        let mut w = ByteWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(r.take_u64(), Err(SerialError::Truncated));
        // Absurd length prefix cannot over-allocate.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u64_vec(), Err(SerialError::Truncated));
    }

    #[test]
    fn bitvec_roundtrip() {
        let mut bv = BitVec::new(300);
        for i in (0..300).step_by(7) {
            bv.set(i);
        }
        let mut w = ByteWriter::new();
        bv.serialize(&mut w);
        let bytes = w.into_bytes();
        let back = BitVec::deserialize(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, bv);
    }

    #[test]
    fn packed_roundtrip() {
        let mut pa = PackedArray::new(77, 13);
        for i in 0..77 {
            pa.set(i, (i as u64 * 41) & 0x1fff);
        }
        let mut w = ByteWriter::new();
        pa.serialize(&mut w);
        let bytes = w.into_bytes();
        let back = PackedArray::deserialize(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, pa);
    }

    #[test]
    fn corrupt_structures_rejected() {
        let mut w = ByteWriter::new();
        let pa = PackedArray::new(8, 8);
        pa.serialize(&mut w);
        let mut bytes = w.into_bytes();
        bytes[8] = 0; // zero the width
        assert!(PackedArray::deserialize(&mut ByteReader::new(&bytes)).is_err());
    }
}
