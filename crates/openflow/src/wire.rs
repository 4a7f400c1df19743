//! Big-endian cursor primitives shared by the OpenFlow and packet codecs.

use crate::error::CodecError;
use std::cell::Cell;

/// A bounds-checked big-endian reader over a byte slice.
///
/// All OpenFlow 1.0 and network-header fields are big-endian; the reader
/// returns [`CodecError::Truncated`] instead of panicking when data runs
/// short, which lets the injector treat arbitrarily fuzzed bytes safely.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`; `context` names the structure being
    /// decoded for error messages.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        Reader {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes remaining to be read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                context: self.context,
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Reads a fixed-size byte array.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let b = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(b);
        Ok(a)
    }

    /// Reads `n` bytes as a slice borrowed from the input.
    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads all remaining bytes.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Skips `n` padding bytes.
    pub(crate) fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        self.take(n).map(|_| ())
    }

    /// Fails with [`CodecError::TrailingBytes`] unless fully consumed.
    pub(crate) fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                context: self.context,
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    /// Returns a sub-reader over the next `n` bytes (consuming them here).
    pub(crate) fn sub(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<Reader<'a>, CodecError> {
        Ok(Reader::new(self.take(n)?, context))
    }
}

/// A growable big-endian writer.
///
/// A `Vec<u8>` with [`Reader`]'s field methods mirrored, so encode and
/// decode implementations read symmetrically.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes pre-reserved.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Writes one byte.
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a big-endian `u16`.
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u32`.
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u64`.
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a byte slice verbatim.
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes `n` zero bytes of padding.
    pub(crate) fn pad(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Overwrites the big-endian `u16` previously written at `offset`.
    ///
    /// Used to patch length fields after variable-size bodies are written.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 2` exceeds the bytes written so far.
    pub(crate) fn patch_u16(&mut self, offset: usize, v: u16) {
        let b = v.to_be_bytes();
        self.buf[offset] = b[0];
        self.buf[offset + 1] = b[1];
    }

    /// The bytes written from `offset` on: what an encoder just wrote,
    /// for a checksum over it.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the bytes written so far.
    pub(crate) fn written_since(&self, offset: usize) -> &[u8] {
        &self.buf[offset..]
    }

    /// Consumes the writer and returns the written bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// A scratch buffer that grew past the largest OpenFlow frame is dropped
/// rather than kept for the thread's lifetime.
const SCRATCH_KEEP: usize = u16::MAX as usize + 1;

thread_local! {
    /// The buffer [`with_scratch`] lends out, one per thread.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Lends this thread's scratch writer, emptied, to `f` and takes it back
/// afterwards, so encoding into it allocates only while it grows to the
/// largest message the thread has written. A nested call finds the slot
/// empty and lends a fresh writer, so encoders may nest.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Writer) -> R) -> R {
    let mut w = Writer {
        buf: SCRATCH.take(),
    };
    w.buf.clear();
    let out = f(&mut w);
    if w.buf.capacity() <= SCRATCH_KEEP {
        SCRATCH.set(w.buf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::new();
        w.u8(0xab);
        w.u16(0x1234);
        w.u32(0xdead_beef);
        w.u64(0x0102_0304_0506_0708);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "test");
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0102_0304_0506_0708);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_read_reports_context() {
        let mut r = Reader::new(&[0u8; 3], "hdr");
        let err = r.u32().unwrap_err();
        match err {
            CodecError::Truncated {
                context,
                needed,
                available,
            } => {
                assert_eq!(context, "hdr");
                assert_eq!(needed, 4);
                assert_eq!(available, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sub_reader_consumes_parent() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r = Reader::new(&data, "outer");
        let mut s = r.sub(3, "inner").unwrap();
        assert_eq!(s.u8().unwrap(), 1);
        assert_eq!(s.remaining(), 2);
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.u16().unwrap(), 0x0405);
    }

    #[test]
    fn patch_u16_rewrites_length() {
        let mut w = Writer::new();
        w.u16(0);
        w.bytes(&[9, 9, 9]);
        w.patch_u16(0, 5);
        assert_eq!(w.into_vec(), vec![0, 5, 9, 9, 9]);
    }

    #[test]
    fn into_vec_hands_over_the_buffer_without_copying() {
        let mut w = Writer::with_capacity(64);
        w.u32(0x0102_0304);
        w.bytes(&[5, 6]);
        w.pad(2);
        let written = w.buf.as_ptr();
        let v = w.into_vec();
        assert_eq!(v, [1, 2, 3, 4, 5, 6, 0, 0]);
        assert_eq!(v.as_ptr(), written, "into_vec must not reallocate");
    }

    #[test]
    fn scratch_is_reused_and_nests() {
        let outer = with_scratch(|w| {
            w.bytes(&[1, 2, 3]);
            let inner = with_scratch(|v| {
                assert_eq!(v.len(), 0, "a nested writer starts empty");
                v.u16(0x0405);
                v.written_since(0).to_vec()
            });
            assert_eq!(inner, [4, 5]);
            w.u8(6);
            (w.written_since(0).to_vec(), w.buf.as_ptr())
        });
        assert_eq!(outer.0, [1, 2, 3, 6]);
        let again = with_scratch(|w| {
            assert_eq!(w.len(), 0, "the scratch writer is lent out empty");
            w.buf.as_ptr()
        });
        assert_eq!(again, outer.1, "the outer buffer went back to the slot");
    }

    #[test]
    fn scratch_past_the_largest_frame_is_not_kept() {
        with_scratch(|w| w.pad(SCRATCH_KEEP + 1));
        let kept = with_scratch(|w| w.buf.capacity());
        assert_eq!(kept, 0, "an oversize buffer must not stay with the thread");
    }

    #[test]
    fn expect_end_rejects_trailing() {
        let r = Reader::new(&[0u8; 2], "t");
        assert!(matches!(
            r.expect_end(),
            Err(CodecError::TrailingBytes { remaining: 2, .. })
        ));
    }

    #[test]
    fn rest_consumes_everything() {
        let data = [7u8, 8, 9];
        let mut r = Reader::new(&data, "t");
        r.u8().unwrap();
        assert_eq!(r.rest(), &[8, 9]);
        assert_eq!(r.remaining(), 0);
    }
}
