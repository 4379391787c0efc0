//! Byte-level encoding helpers shared by the WAL and snapshot codecs.
//!
//! Everything is fixed-width little-endian; strings and vectors are
//! length-prefixed with `u32`. Floats are encoded as raw IEEE-754
//! bits, because the durability contract is *bit-for-bit* — a decimal
//! round-trip would be a silent source of digest mismatches.
//! Decoding is bounds-checked and returns
//! [`Error::InvalidData`] rather
//! than panicking: WAL tails and snapshot files are untrusted input.

use crowder_types::{Error, Result};

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing was encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Exact bit pattern — see the module docs.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Error unless every byte was consumed — trailing garbage in a
    /// checksummed payload means the codec and the writer disagree.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::InvalidData(format!(
                "decode: {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::InvalidData(format!(
                "decode: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(Error::InvalidData(format!("decode: bool byte {v}"))),
        }
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn usize(&mut self) -> Result<usize> {
        Ok(self.u64()? as usize)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| Error::InvalidData(format!("decode: invalid UTF-8 string: {e}")))
    }

    /// A length prefix for a vector, sanity-bounded by the bytes that
    /// could possibly back it (`min_item` bytes per element) so a
    /// corrupted length cannot trigger a huge allocation.
    pub fn seq_len(&mut self, min_item: usize) -> Result<usize> {
        let len = self.u32()? as usize;
        if len > self.remaining() / min_item.max(1) {
            return Err(Error::InvalidData(format!(
                "decode: sequence of {len} items cannot fit in {} bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.f64(-0.0);
        e.str("héllo");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_and_garbage_error_cleanly() {
        let mut e = Enc::new();
        e.str("abc");
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes[..3]).str().is_err(), "short payload");
        let mut d = Dec::new(&bytes);
        d.str().unwrap();
        assert!(d.u8().is_err(), "reading past the end");
        let mut with_garbage = bytes.clone();
        with_garbage.push(9);
        let mut d = Dec::new(&with_garbage);
        d.str().unwrap();
        assert!(d.finish().is_err(), "trailing bytes rejected");
        // An absurd length prefix is rejected before allocating.
        let mut d = Dec::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(d.seq_len(1).is_err());
        assert!(Dec::new(&[2]).bool().is_err(), "non-canonical bool");
    }
}
