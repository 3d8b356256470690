//! From-scratch SHA-1 (RFC 3174) used for content addressing.
//!
//! Git addresses objects by SHA-1 of a typed header plus payload; this
//! substrate does the same. SHA-1's cryptographic weakness is irrelevant
//! here — we need a stable, collision-resistant-in-practice content address,
//! exactly as git itself still uses.
//!
//! Two compression kernels produce the same state from the same blocks:
//! the portable one below, and on x86-64 CPUs with the SHA extensions one
//! built on `sha1rnds4`/`sha1nexte`/`sha1msg1`/`sha1msg2`. The kernel is
//! picked once per process from CPU feature detection; there is no option
//! to choose it. The portable kernel is the fallback and the reference the
//! tests hold the accelerated one to.

use std::fmt;
use std::sync::OnceLock;

/// A 160-bit SHA-1 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// Render as 40 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        self.hex_bytes().iter().map(|&c| char::from(c)).collect()
    }

    /// The 40 lowercase hex characters of [`Digest::to_hex`], on the
    /// stack.
    pub(crate) fn hex_bytes(&self) -> [u8; 40] {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 40];
        for (pair, &b) in out.chunks_exact_mut(2).zip(&self.0) {
            pair[0] = NIBBLES[usize::from(b >> 4)];
            pair[1] = NIBBLES[usize::from(b & 0xf)];
        }
        out
    }

    /// Short 8-character prefix, as shown in logs.
    pub fn short(&self) -> String {
        self.hex_bytes()[..8].iter().map(|&c| char::from(c)).collect()
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A compression kernel: folds whole 64-byte blocks into the state. The
/// slice's length is a multiple of 64.
type Kernel = fn(&mut [u32; 5], &[u8]);

/// The kernel for this process: the SHA-extension one when the CPU has
/// the instructions, else the portable one. Detected once.
fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| accelerated().unwrap_or(compress_portable))
}

/// The SHA-extension kernel, if this CPU can run it.
fn accelerated() -> Option<Kernel> {
    #[cfg(target_arch = "x86_64")]
    {
        shani::detect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Streaming SHA-1 hasher.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    len_bytes: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Sha1 {
    /// A fresh hasher with the RFC 3174 initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len_bytes: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Feed bytes. Whole blocks are compressed straight from `data`; only
    /// a partial block at either end goes through the buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len_bytes += data.len() as u64;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            kernel()(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            kernel()(&mut self.state, &data[..whole]);
        }
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, 8-byte big-endian bit length, written into
        // the buffer; a fill past byte 55 leaves no room for the length,
        // which then goes into one more block.
        let bit_len = self.len_bytes * 8;
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            kernel()(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        kernel()(&mut self.state, &self.buf);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The portable kernel: RFC 3174's compression, one block at a time.
fn compress_portable(state: &mut [u32; 5], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

/// The kernel on the x86-64 SHA extensions.
///
/// `A..D` live in one register with `A` in the top lane; `E` rides in the
/// top lane of a second one. Each `sha1rnds4` does four rounds, taking
/// `E` already added to the first of its four message words; `sha1nexte`
/// derives the next `E` (`A` of four rounds earlier, rotated by 30) and
/// adds it in, and `sha1msg1`/`sha1msg2` extend the message schedule four
/// words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    /// The kernel, or `None` when this CPU lacks any feature `rounds`
    /// enables.
    pub(super) fn detect() -> Option<super::Kernel> {
        let present = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        present.then_some(compress as super::Kernel)
    }

    fn compress(state: &mut [u32; 5], blocks: &[u8]) {
        // SAFETY: `compress` leaves this module only through `detect`,
        // which hands it out after confirming that the CPU has every
        // feature `rounds` is compiled for.
        unsafe { rounds(state, blocks) }
    }

    /// Four rounds with function `$f`: `$prev` (ABCD four rounds back)
    /// yields this group's `E`, which `sha1nexte` adds to the words `$w`.
    macro_rules! four_rounds {
        ($abcd:ident, $prev:ident, $w:expr, $f:literal) => {
            let e_w = _mm_sha1nexte_epu32($prev, $w);
            $prev = $abcd;
            $abcd = _mm_sha1rnds4_epu32($abcd, e_w, $f);
        };
    }

    /// The next four schedule words, written over the oldest four `$w0`:
    /// `W[i] = rol1(W[i-16] ^ W[i-14] ^ W[i-8] ^ W[i-3])`.
    macro_rules! schedule {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            $w0 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3);
        };
    }

    /// Compresses every whole 64-byte block of `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn rounds(state: &mut [u32; 5], blocks: &[u8]) {
        // Reverses the 16 bytes of a load: big-endian words, first word
        // in the top lane.
        let swap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let [a, b, c, d, e] = state.map(|x| x as i32);
        let mut abcd = _mm_set_epi32(a, b, c, d);
        let mut e0 = _mm_set_epi32(e, 0, 0, 0);
        for block in blocks.chunks_exact(64) {
            // The four unaligned 16-byte loads cover exactly the block's
            // 64 bytes.
            let p = block.as_ptr().cast::<__m128i>();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), swap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), swap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), swap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), swap);
            let start = abcd;

            // Rounds 0-19.
            let mut prev = abcd;
            abcd = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e0, w0), 0);
            four_rounds!(abcd, prev, w1, 0);
            four_rounds!(abcd, prev, w2, 0);
            four_rounds!(abcd, prev, w3, 0);
            schedule!(w0, w1, w2, w3);
            four_rounds!(abcd, prev, w0, 0);
            // Rounds 20-39.
            schedule!(w1, w2, w3, w0);
            four_rounds!(abcd, prev, w1, 1);
            schedule!(w2, w3, w0, w1);
            four_rounds!(abcd, prev, w2, 1);
            schedule!(w3, w0, w1, w2);
            four_rounds!(abcd, prev, w3, 1);
            schedule!(w0, w1, w2, w3);
            four_rounds!(abcd, prev, w0, 1);
            schedule!(w1, w2, w3, w0);
            four_rounds!(abcd, prev, w1, 1);
            // Rounds 40-59.
            schedule!(w2, w3, w0, w1);
            four_rounds!(abcd, prev, w2, 2);
            schedule!(w3, w0, w1, w2);
            four_rounds!(abcd, prev, w3, 2);
            schedule!(w0, w1, w2, w3);
            four_rounds!(abcd, prev, w0, 2);
            schedule!(w1, w2, w3, w0);
            four_rounds!(abcd, prev, w1, 2);
            schedule!(w2, w3, w0, w1);
            four_rounds!(abcd, prev, w2, 2);
            // Rounds 60-79.
            schedule!(w3, w0, w1, w2);
            four_rounds!(abcd, prev, w3, 3);
            schedule!(w0, w1, w2, w3);
            four_rounds!(abcd, prev, w0, 3);
            schedule!(w1, w2, w3, w0);
            four_rounds!(abcd, prev, w1, 3);
            schedule!(w2, w3, w0, w1);
            four_rounds!(abcd, prev, w2, 3);
            schedule!(w3, w0, w1, w2);
            four_rounds!(abcd, prev, w3, 3);

            // E after round 79 is A before round 76, rotated: `sha1nexte`
            // adds it to the block's starting E.
            e0 = _mm_sha1nexte_epu32(prev, e0);
            abcd = _mm_add_epi32(abcd, start);
        }
        *state = [
            _mm_extract_epi32(abcd, 3),
            _mm_extract_epi32(abcd, 2),
            _mm_extract_epi32(abcd, 1),
            _mm_extract_epi32(abcd, 0),
            _mm_extract_epi32(e0, 3),
        ]
        .map(|x| x as u32);
    }
}

/// One-shot convenience.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors from RFC 3174 and FIPS 180-1.
    #[test]
    fn rfc3174_test_vectors() {
        assert_eq!(
            sha1(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            sha1(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let one = sha1(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        let mut h = Sha1::new();
        let mut rest = &data[..];
        let sizes = [1usize, 63, 64, 65, 127, 128, 1000];
        let mut i = 0;
        while !rest.is_empty() {
            let n = sizes[i % sizes.len()].min(rest.len());
            h.update(&rest[..n]);
            rest = &rest[n..];
            i += 1;
        }
        assert_eq!(h.finalize(), one);
    }

    #[test]
    fn git_style_blob_address() {
        // `echo -n 'hello' | git hash-object --stdin` = b6fc4c620b67d95f953a5c1c1230aaab5db5a1b0
        let mut h = Sha1::new();
        h.update(b"blob 5\0");
        h.update(b"hello");
        assert_eq!(
            h.finalize().to_hex(),
            "b6fc4c620b67d95f953a5c1c1230aaab5db5a1b0"
        );
    }

    #[test]
    fn hex_covers_every_byte_value() {
        for b in 0..=255u8 {
            let d = Digest([b; 20]);
            let want = format!("{b:02x}").repeat(20);
            assert_eq!(d.to_hex(), want);
            assert_eq!(d.short(), want[..8]);
        }
    }

    /// Deterministic xorshift64 bytes for kernel inputs.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn kernels_agree_on_random_blocks() {
        let accelerated = accelerated();
        if accelerated.is_none() {
            eprintln!("no SHA extensions on this CPU: checking the portable kernel only");
        }
        for case in 0..200u64 {
            let blocks = 1 + (case as usize * 7) % 40;
            let data = noise(case + 1, blocks * 64);
            let start: [u32; 5] = {
                let s = noise(case + 1000, 20);
                std::array::from_fn(|i| {
                    u32::from_le_bytes([s[4 * i], s[4 * i + 1], s[4 * i + 2], s[4 * i + 3]])
                })
            };
            let mut want = start;
            compress_portable(&mut want, &data);
            if let Some(fast) = accelerated {
                let mut fast_state = start;
                fast(&mut fast_state, &data);
                assert_eq!(
                    fast_state, want,
                    "accelerated vs portable, case {case}, {blocks} blocks"
                );
            }
        }
    }

    #[test]
    fn short_prefix() {
        let d = sha1(b"abc");
        assert_eq!(d.short(), "a9993e36");
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha1(b"a"), sha1(b"b"));
        assert_ne!(sha1(b""), sha1(b"\0"));
    }
}
