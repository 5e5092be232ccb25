//! Compact binary encoding for the store's record types.
//!
//! Hand-rolled little-endian layouts: records are tiny and fixed-shape, and
//! the decoder must be robust against truncated input (the store is also
//! exercised by property tests that corrupt buffers).

/// Encode errors are impossible (encoding is total); decode errors are not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the fixed header requires.
    Truncated,
    /// A length field points past the end of the buffer.
    BadLength,
    /// A key the layout allows once appears twice.
    DuplicateKey,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadLength => write!(f, "length field out of bounds"),
            DecodeError::DuplicateKey => write!(f, "unique key repeated"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor-style reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a little-endian u8.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            // lint: allow(panic) take(4) returned exactly 4 bytes
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            // lint: allow(panic) take(8) returned exactly 8 bytes
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian f64.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(
            // lint: allow(panic) take(8) returned exactly 8 bytes
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a u32-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        self.take(len)
    }
}

/// Growable little-endian writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append a u8.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian f64.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append bytes as they are, with no length prefix.
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a u32-length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Finish, returning the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Continue at the end of an existing buffer: the writer only ever
/// appends, so whoever lends it a buffer gets every earlier byte back
/// untouched (the WAL encodes records straight into its log buffer).
impl From<Vec<u8>> for Writer {
    fn from(buf: Vec<u8>) -> Self {
        Writer { buf }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7).u32(0xDEAD_BEEF).u64(u64::MAX).f64(0.25);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut w = Writer::new();
        w.bytes(b"hello").bytes(b"");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.bytes().unwrap(), b"");
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u64().unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn bad_length_detected() {
        // Length prefix says 100 bytes but only 1 follows.
        let mut w = Writer::new();
        w.u32(100).u8(1);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap_err(), DecodeError::BadLength);
    }

    proptest! {
        #[test]
        fn arbitrary_payload_roundtrips(payload in proptest::collection::vec(any::<u8>(), 0..300)) {
            let mut w = Writer::new();
            w.bytes(&payload);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.bytes().unwrap(), &payload[..]);
        }

        #[test]
        fn decoder_never_panics_on_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut r = Reader::new(&garbage);
            // Whatever happens, no panic.
            let _ = r.u64();
            let _ = r.bytes();
            let _ = r.u32();
        }
    }
}
