//! SHA-2 family (FIPS 180-4): SHA-224, SHA-256, SHA-384 and SHA-512.
//!
//! SHA-256 is used by `sgx-sim` for the MRENCLAVE measurement chain and by
//! the key-derivation code; the full family also backs the `Shas` benchmark
//! (RFC 6234) from Table 1 of the paper.

/// SHA-256 round constants (public for the benchmark code generators).
pub const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-512 round constants (public for the benchmark code generators).
pub const K512: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use elide_crypto::sha2::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partial-block staging buffer; only `buf_len` bytes are live. Fixed
    /// size keeps `update` allocation-free — the measurement path calls it
    /// thousands of times with tiny chunks.
    buf: [u8; 64],
    buf_len: usize,
    len: u64,
    trunc224: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a SHA-256 hasher.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            len: 0,
            trunc224: false,
        }
    }

    /// Creates a SHA-224 hasher (same compression, truncated output).
    pub fn new_224() -> Self {
        Sha256 {
            state: [
                0xc1059ed8, 0x367cd507, 0x3070dd17, 0xf70e5939, 0xffc00b31, 0x68581511, 0x64f98fa7,
                0xbefa4fa4,
            ],
            buf: [0; 64],
            buf_len: 0,
            len: 0,
            trunc224: true,
        }
    }

    /// Absorbs `data` without allocating: tops up the staging buffer, then
    /// compresses full 64-byte blocks straight out of the borrowed slice.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            let block = self.buf;
            compress256(&mut self.state, &block);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress256(&mut self.state, block.try_into().expect("64 bytes"));
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finishes and returns the 32-byte digest (28 meaningful bytes for
    /// SHA-224; see [`Sha256::finalize_vec`] for the truncated form).
    pub fn finalize(mut self) -> [u8; 32] {
        let bitlen = self.len.wrapping_mul(8);
        let mut pad = [0u8; 128];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let total = if self.buf_len < 56 { 64 } else { 128 };
        pad[total - 8..total].copy_from_slice(&bitlen.to_be_bytes());
        for block in pad[..total].chunks_exact(64) {
            compress256(&mut self.state, block.try_into().expect("64 bytes"));
        }
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Finishes, returning the digest at its native length (28 bytes for
    /// SHA-224, 32 for SHA-256).
    pub fn finalize_vec(self) -> Vec<u8> {
        let trunc = self.trunc224;
        let full = self.finalize();
        if trunc {
            full[..28].to_vec()
        } else {
            full.to_vec()
        }
    }

    /// One-shot SHA-256.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// One raw compression round over a 64-byte message block, updating
    /// `state` in place. Exposed for the guest `SHA256_COMPRESS`
    /// intrinsic, which hands the enclave runtime pre-scheduled blocks
    /// (padding and length encoding are the caller's job).
    pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        compress256(state, block);
    }
}

/// One SHA-256 round with the working variables named in rotated order:
/// rather than shifting eight values each round, the next round is written
/// with the names shifted by one. `Ch` is `g ^ (e & (f ^ g))` and `Maj`
/// is `(a & b) ^ (c & (a ^ b))`, the two-AND forms of FIPS 180-4 §4.1.2.
macro_rules! round256 {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
        let ch = $g ^ ($e & ($f ^ $g));
        let t1 = $h.wrapping_add(s1).wrapping_add(ch).wrapping_add($kw);
        let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
        let maj = ($a & $b) ^ ($c & ($a ^ $b));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(s0).wrapping_add(maj);
    };
}

fn compress256(state: &mut [u32; 8], block: &[u8; 64]) {
    // A rolling 16-word message schedule: before each group of 16 rounds
    // after the first, w[i] advances in place from W[t - 16] to W[t].
    // Updating in order i = 0..15 means every w[(i + x) & 15] it reads
    // already holds W[t - 16 + x].
    let mut w = [0u32; 16];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (group, k) in K256.chunks_exact(16).enumerate() {
        if group > 0 {
            for i in 0..16 {
                let w15 = w[(i + 1) & 15];
                let w2 = w[(i + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i] = w[i].wrapping_add(s0).wrapping_add(w[(i + 9) & 15]).wrapping_add(s1);
            }
        }
        let kw = |i: usize| k[i].wrapping_add(w[i]);
        round256!(a, b, c, d, e, f, g, h, kw(0));
        round256!(h, a, b, c, d, e, f, g, kw(1));
        round256!(g, h, a, b, c, d, e, f, kw(2));
        round256!(f, g, h, a, b, c, d, e, kw(3));
        round256!(e, f, g, h, a, b, c, d, kw(4));
        round256!(d, e, f, g, h, a, b, c, kw(5));
        round256!(c, d, e, f, g, h, a, b, kw(6));
        round256!(b, c, d, e, f, g, h, a, kw(7));
        round256!(a, b, c, d, e, f, g, h, kw(8));
        round256!(h, a, b, c, d, e, f, g, kw(9));
        round256!(g, h, a, b, c, d, e, f, kw(10));
        round256!(f, g, h, a, b, c, d, e, kw(11));
        round256!(e, f, g, h, a, b, c, d, kw(12));
        round256!(d, e, f, g, h, a, b, c, kw(13));
        round256!(c, d, e, f, g, h, a, b, kw(14));
        round256!(b, c, d, e, f, g, h, a, kw(15));
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Incremental SHA-512 hasher (also provides SHA-384).
#[derive(Clone, Debug)]
pub struct Sha512 {
    state: [u64; 8],
    /// Partial-block staging buffer; only `buf_len` bytes are live.
    buf: [u8; 128],
    buf_len: usize,
    len: u128,
    trunc384: bool,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a SHA-512 hasher.
    pub fn new() -> Self {
        Sha512 {
            state: [
                0x6a09e667f3bcc908,
                0xbb67ae8584caa73b,
                0x3c6ef372fe94f82b,
                0xa54ff53a5f1d36f1,
                0x510e527fade682d1,
                0x9b05688c2b3e6c1f,
                0x1f83d9abfb41bd6b,
                0x5be0cd19137e2179,
            ],
            buf: [0; 128],
            buf_len: 0,
            len: 0,
            trunc384: false,
        }
    }

    /// Creates a SHA-384 hasher.
    pub fn new_384() -> Self {
        Sha512 {
            state: [
                0xcbbb9d5dc1059ed8,
                0x629a292a367cd507,
                0x9159015a3070dd17,
                0x152fecd8f70e5939,
                0x67332667ffc00b31,
                0x8eb44a8768581511,
                0xdb0c2e0d64f98fa7,
                0x47b5481dbefa4fa4,
            ],
            buf: [0; 128],
            buf_len: 0,
            len: 0,
            trunc384: true,
        }
    }

    /// Absorbs `data` without allocating (see [`Sha256::update`]).
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u128);
        if self.buf_len > 0 {
            let take = (128 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 128 {
                return;
            }
            let block = self.buf;
            compress512(&mut self.state, &block);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(128);
        for block in &mut blocks {
            compress512(&mut self.state, block.try_into().expect("128 bytes"));
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finishes, returning the digest at its native length (48 bytes for
    /// SHA-384, 64 for SHA-512).
    pub fn finalize_vec(mut self) -> Vec<u8> {
        let bitlen = self.len.wrapping_mul(8);
        let mut pad = [0u8; 256];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let total = if self.buf_len < 112 { 128 } else { 256 };
        pad[total - 16..total].copy_from_slice(&bitlen.to_be_bytes());
        for block in pad[..total].chunks_exact(128) {
            compress512(&mut self.state, block.try_into().expect("128 bytes"));
        }
        let mut out = Vec::with_capacity(64);
        for w in self.state.iter() {
            out.extend_from_slice(&w.to_be_bytes());
        }
        if self.trunc384 {
            out.truncate(48);
        }
        out
    }

    /// One-shot SHA-512.
    pub fn digest(data: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(data);
        h.finalize_vec().try_into().expect("sha512 digest is 64 bytes")
    }
}

fn compress512(state: &mut [u64; 8], block: &[u8; 128]) {
    let mut w = [0u64; 80];
    for (i, chunk) in block.chunks_exact(8).enumerate() {
        w[i] = u64::from_be_bytes(chunk.try_into().unwrap());
    }
    for i in 16..80 {
        let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
        let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..80 {
        let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K512[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_two_block() {
        assert_eq!(
            hex(&Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|x| x as u8).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha224_abc() {
        let mut h = Sha256::new_224();
        h.update(b"abc");
        assert_eq!(
            hex(&h.finalize_vec()),
            "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7"
        );
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            hex(&Sha512::digest(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
    }

    #[test]
    fn sha384_abc() {
        let mut h = Sha512::new_384();
        h.update(b"abc");
        assert_eq!(
            hex(&h.finalize_vec()),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed\
             8086072ba1e7cc2358baeca134c825a7"
        );
    }

    #[test]
    fn sha512_incremental_matches_oneshot() {
        let data = vec![0xabu8; 777];
        let mut h = Sha512::new();
        for chunk in data.chunks(13) {
            h.update(chunk);
        }
        assert_eq!(h.finalize_vec(), Sha512::digest(&data).to_vec());
    }
}
