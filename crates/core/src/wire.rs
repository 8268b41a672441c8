//! Minimal length-prefixed wire format used by bitstreams, Shield
//! configurations, stream frames and the MAC/AD encodings.
//!
//! Hand-rolled (rather than serde) because the formats are tiny, must be
//! stable byte-for-byte (they are hashed and signed), and the offline
//! environment provides no serde_derive-compatible format crate.

use crate::ShefError;

/// Serializes fields into a buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    pub fn put_fixed(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserializes fields from a buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ShefError> {
        if self.pos + n > self.buf.len() {
            return Err(ShefError::Malformed(format!(
                "truncated input: need {n} bytes at offset {}",
                self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn get_u8(&mut self) -> Result<u8, ShefError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16, ShefError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub fn get_u32(&mut self) -> Result<u32, ShefError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn get_u64(&mut self) -> Result<u64, ShefError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn get_bool(&mut self) -> Result<bool, ShefError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ShefError::Malformed(format!("invalid bool byte {v}"))),
        }
    }

    pub fn get_fixed<const N: usize>(&mut self) -> Result<[u8; N], ShefError> {
        Ok(self.take(N)?.try_into().expect("fixed size"))
    }

    pub fn get_bytes(&mut self) -> Result<Vec<u8>, ShefError> {
        let len = self.get_u64()?;
        // Bound against the *remaining* bytes before anything else: a
        // forged 2^64 length prefix must be rejected outright, never
        // allocated, and the check must not pass just because the claim
        // is smaller than the total buffer.
        let remaining = (self.buf.len() - self.pos) as u64;
        if len > remaining {
            return Err(ShefError::Malformed(format!(
                "length {len} exceeds remaining input ({remaining} bytes)"
            )));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    pub fn get_str(&mut self) -> Result<String, ShefError> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|_| ShefError::Malformed("invalid utf-8 string".into()))
    }

    /// Ensures all input was consumed.
    pub fn finish(self) -> Result<(), ShefError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ShefError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_bool(true);
        w.put_fixed(&[1, 2, 3]);
        w.put_bytes(b"hello");
        w.put_str("world");
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_fixed::<3>().unwrap(), [1, 2, 3]);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "world");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.put_u64(10);
        let mut buf = w.finish();
        buf.push(0xAB); // claims 10 bytes follow but only 1 does
        let mut r = Reader::new(&buf);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn forged_huge_length_rejected_before_allocation() {
        // A u64::MAX length prefix must fail fast, not allocate.
        let mut buf = u64::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 32]);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.get_bytes(), Err(ShefError::Malformed(_))));
    }

    #[test]
    fn length_bounded_by_remaining_not_total() {
        // After consuming a field, a length claim that fits the total
        // buffer but not the remaining bytes must still be rejected.
        let mut w = Writer::new();
        w.put_u64(0xDEAD);
        w.put_u64(10); // claims 10 payload bytes...
        let mut buf = w.finish();
        buf.extend_from_slice(&[0u8; 4]); // ...but only 4 follow
        let mut r = Reader::new(&buf);
        let _ = r.get_u64().unwrap();
        assert!(matches!(r.get_bytes(), Err(ShefError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = vec![1u8, 2, 3];
        let mut r = Reader::new(&buf);
        let _ = r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn bad_bool_rejected() {
        let buf = vec![5u8];
        let mut r = Reader::new(&buf);
        assert!(r.get_bool().is_err());
    }
}
