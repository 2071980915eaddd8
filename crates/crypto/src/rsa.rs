//! RSA signatures with PKCS#1 v1.5-style padding over SHA-256.
//!
//! Real SGX verifies a 3072-bit RSA signature over the enclave measurement in
//! SIGSTRUCT at `EINIT`. The simulator does exactly the same with keys from
//! this module (key sizes are configurable so tests stay fast).

use crate::bignum::{BigUint, Montgomery};
use crate::error::CryptoError;
use crate::prime::generate_prime;
use crate::rng::RandomSource;
use crate::sha2::Sha256;

/// The encoding [`RsaPublicKey::from_bytes`] accepts, named in its errors.
const PUBLIC_KEY_FORMAT: &str = "an RSA public key encoded as n || e";

/// The encoding [`RsaKeyPair::from_bytes`] accepts, named in its errors.
/// Key files in an older `public key || d` encoding fail with this name.
pub const KEY_PAIR_FORMAT: &str = "an RSA key pair encoded as public key || p || q";

/// An RSA public key (modulus and public exponent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA key pair. The private half is kept in CRT form: the two primes,
/// each as a reusable Montgomery context, the half-size exponents
/// `dp = d mod (p-1)` and `dq = d mod (q-1)`, and `qinv = q⁻¹ mod p`.
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    p: Montgomery,
    q: Montgomery,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl std::fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // No private value (factor or exponent) may appear in logs.
        f.debug_struct("RsaKeyPair").field("public", &self.public).finish_non_exhaustive()
    }
}

/// DER-ish prefix marking a SHA-256 DigestInfo, as in PKCS#1 v1.5.
const SHA256_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// Appends `bytes` as one `len ‖ bytes` field (u32 LE length).
fn put_field(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Splits one `len ‖ bytes` field off the front of `rest`.
fn take_field<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
    let field = rest.get(4..)?.get(..len)?;
    *rest = &rest[4 + len..];
    Some(field)
}

/// Splits one integer field off `rest`. Integers are written without
/// leading zero bytes, so one with any is not a canonical encoding.
fn take_uint(rest: &mut &[u8]) -> Option<BigUint> {
    let field = take_field(rest)?;
    (field.first() != Some(&0)).then(|| BigUint::from_bytes_be(field))
}

impl RsaPublicKey {
    /// Modulus size in bytes (the signature length).
    pub fn modulus_len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// Serializes the key as `len(n) || n || len(e) || e` (u32 LE lengths).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_field(&mut out, &self.n.to_bytes_be());
        put_field(&mut out, &self.e.to_bytes_be());
        out
    }

    /// Parses a key serialized by [`RsaPublicKey::to_bytes`]. The encoding
    /// is canonical: a truncation, a trailing byte or a leading zero byte in
    /// either integer is rejected, so two distinct byte strings never parse
    /// to the same key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedKey`] naming the expected encoding.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let parse = |mut rest: &[u8]| {
            let n = take_uint(&mut rest)?;
            let e = take_uint(&mut rest)?;
            rest.is_empty().then_some(RsaPublicKey { n, e })
        };
        parse(bytes).ok_or(CryptoError::MalformedKey(PUBLIC_KEY_FORMAT))
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] if verification fails.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        if signature.len() != self.modulus_len() {
            return Err(CryptoError::BadSignature);
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let em = s.modpow(&self.e, &self.n).to_bytes_be_padded(self.modulus_len());
        let expect = pad_pkcs1(message, self.modulus_len())?;
        if em == expect {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// A stable fingerprint of the key (SHA-256 of its serialization); used
    /// as the simulator's MRSIGNER value, matching SGX's definition of
    /// MRSIGNER as the hash of the signer's public key.
    pub fn fingerprint(&self) -> [u8; 32] {
        Sha256::digest(&self.to_bytes())
    }
}

fn pad_pkcs1(message: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let digest = Sha256::digest(message);
    let t_len = SHA256_PREFIX.len() + 32;
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLarge);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_PREFIX);
    em.extend_from_slice(&digest);
    Ok(em)
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of roughly `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 512` (too small to pad a SHA-256 DigestInfo).
    pub fn generate(bits: usize, rng: &mut dyn RandomSource) -> Self {
        assert!(bits >= 512, "RSA modulus must be at least 512 bits");
        loop {
            let p = generate_prime(bits / 2, rng);
            let q = generate_prime(bits - bits / 2, rng);
            if let Some(kp) = Self::from_primes(p, q, BigUint::from_u64(65537)) {
                return kp;
            }
        }
    }

    /// Builds the CRT key from two primes and the public exponent, or
    /// `None` when they cannot form a key: a factor that is even or 1,
    /// `p = q`, or `e` not invertible mod `(p-1)(q-1)`.
    fn from_primes(p: BigUint, q: BigUint, e: BigUint) -> Option<Self> {
        let one = BigUint::one();
        if p == q || !p.is_odd() || !q.is_odd() || p == one || q == one {
            return None;
        }
        let (p1, q1) = (p.sub(&one), q.sub(&one));
        let d = e.modinv(&p1.mul(&q1))?;
        let qinv = q.modinv(&p)?;
        Some(RsaKeyPair {
            public: RsaPublicKey { n: p.mul(&q), e },
            p: Montgomery::new(&p),
            q: Montgomery::new(&q),
            dp: d.rem(&p1),
            dq: d.rem(&q1),
            qinv,
        })
    }

    /// Returns the public half.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Serializes the key pair as `len ‖ public key ‖ len ‖ p ‖ len ‖ q`
    /// (u32 LE lengths): [`KEY_PAIR_FORMAT`].
    ///
    /// Simulator convenience: the output contains the PRIVATE key and must
    /// be treated like one.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_field(&mut out, &self.public.to_bytes());
        put_field(&mut out, &self.p.modulus().to_bytes_be());
        put_field(&mut out, &self.q.modulus().to_bytes_be());
        out
    }

    /// Parses a key pair serialized by [`RsaKeyPair::to_bytes`]. As for the
    /// public key, the encoding must be canonical; beyond that the factors
    /// must be distinct, odd, multiply to `n`, and leave `e` invertible.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedKey`] naming [`KEY_PAIR_FORMAT`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let parse = |mut rest: &[u8]| {
            let public = RsaPublicKey::from_bytes(take_field(&mut rest)?).ok()?;
            let p = take_uint(&mut rest)?;
            let q = take_uint(&mut rest)?;
            if !rest.is_empty() || p.mul(&q) != public.n {
                return None;
            }
            Self::from_primes(p, q, public.e)
        };
        parse(bytes).ok_or(CryptoError::MalformedKey(KEY_PAIR_FORMAT))
    }

    /// Signs `message` with PKCS#1 v1.5 SHA-256 padding.
    ///
    /// The signature is computed by CRT (two half-size exponentiations,
    /// recombined by Garner's formula) and checked against the public key
    /// before it is released: a fault in either half would otherwise yield
    /// a signature that factors `n`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLarge`] if the modulus is too small
    /// and [`CryptoError::SignatureFault`] if the signature fails its check.
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let m = BigUint::from_bytes_be(&pad_pkcs1(message, k)?);
        let (p, q) = (self.p.modulus(), self.q.modulus());
        let sp = self.p.modpow(&m, &self.dp);
        let sq = self.q.modpow(&m, &self.dq);
        // s = sq + q·((sp - sq)·qinv mod p), which lies in [0, n).
        let sq_p = sq.rem(p);
        let diff = if sp >= sq_p { sp.sub(&sq_p) } else { sp.add(p).sub(&sq_p) };
        let s = sq.add(&q.mul(&diff.mul(&self.qinv).rem(p)));
        if s.modpow(&self.public.e, &self.public.n) != m {
            return Err(CryptoError::SignatureFault);
        }
        Ok(s.to_bytes_be_padded(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRandom;

    fn test_keypair() -> RsaKeyPair {
        let mut rng = SeededRandom::new(0xE11DE);
        RsaKeyPair::generate(512, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = test_keypair();
        let sig = kp.sign(b"enclave measurement").unwrap();
        kp.public_key().verify(b"enclave measurement", &sig).unwrap();
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = test_keypair();
        let sig = kp.sign(b"message a").unwrap();
        assert_eq!(kp.public_key().verify(b"message b", &sig), Err(CryptoError::BadSignature));
    }

    #[test]
    fn corrupted_signature_rejected() {
        let kp = test_keypair();
        let mut sig = kp.sign(b"m").unwrap();
        sig[0] ^= 1;
        assert!(kp.public_key().verify(b"m", &sig).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = test_keypair();
        let mut rng = SeededRandom::new(99);
        let kp2 = RsaKeyPair::generate(512, &mut rng);
        let sig = kp1.sign(b"m").unwrap();
        assert!(kp2.public_key().verify(b"m", &sig).is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The private exponent, recomputed from the factors.
    fn private_exponent(kp: &RsaKeyPair) -> BigUint {
        let one = BigUint::one();
        let phi = kp.p.modulus().sub(&one).mul(&kp.q.modulus().sub(&one));
        kp.public.e.modinv(&phi).unwrap()
    }

    #[test]
    fn crt_signature_equals_the_plain_exponentiation() {
        for seed in 0..32u64 {
            let kp = RsaKeyPair::generate(512, &mut SeededRandom::new(0x5EED_0000 + seed));
            let message = seed.to_le_bytes();
            let k = kp.public.modulus_len();
            let m = BigUint::from_bytes_be(&pad_pkcs1(&message, k).unwrap());
            let plain = m.modpow(&private_exponent(&kp), &kp.public.n).to_bytes_be_padded(k);
            assert_eq!(kp.sign(&message).unwrap(), plain, "seed {seed}");
        }
    }

    #[test]
    fn composite_factors_fail_the_check_before_release() {
        // A "key" whose factors multiply to n and leave e invertible but
        // are not primes: CRT yields a wrong signature, which the check
        // against the public key must withhold.
        let mut rng = SeededRandom::new(0xFA17);
        loop {
            let a = generate_prime(160, &mut rng);
            let b = generate_prime(160, &mut rng);
            let q = generate_prime(256, &mut rng);
            if let Some(kp) = RsaKeyPair::from_primes(a.mul(&b), q, BigUint::from_u64(65537)) {
                assert_eq!(kp.sign(b"m"), Err(CryptoError::SignatureFault));
                return;
            }
        }
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let kp = test_keypair();
        let bytes = kp.public_key().to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&back, kp.public_key());
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(RsaPublicKey::from_bytes(&[1, 2]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            RsaPublicKey::from_bytes(&padded),
            Err(CryptoError::MalformedKey(PUBLIC_KEY_FORMAT))
        );
        // A leading zero byte in n is a second encoding of the same key.
        let mut wide = Vec::new();
        let n = kp.public.n.to_bytes_be();
        put_field(&mut wide, &[&[0u8][..], &n].concat());
        put_field(&mut wide, &kp.public.e.to_bytes_be());
        assert!(RsaPublicKey::from_bytes(&wide).is_err());
    }

    #[test]
    fn parsed_2048_bit_key_verifies_without_panicking() {
        // A 2048-bit modulus is 32 limbs, wider than any CIOS kernel, so
        // verification (and the signer's own check) reduce by division.
        let kp = RsaKeyPair::generate(2048, &mut SeededRandom::new(0x2048));
        let public = RsaPublicKey::from_bytes(&kp.public_key().to_bytes()).unwrap();
        let sig = kp.sign(b"wide").unwrap();
        assert_eq!(sig.len(), 256);
        assert_eq!(public.verify(b"wide", &sig), Ok(()));
        let mut bad = sig.clone();
        bad[100] ^= 1;
        assert_eq!(public.verify(b"wide", &bad), Err(CryptoError::BadSignature));
        assert_eq!(public.verify(b"other", &sig), Err(CryptoError::BadSignature));
    }

    #[test]
    fn keypair_serialization_roundtrip() {
        let kp = test_keypair();
        let bytes = kp.to_bytes();
        let back = RsaKeyPair::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.public_key(), kp.public_key());
        assert_eq!(back.sign(b"still works").unwrap(), kp.sign(b"still works").unwrap());
        assert!(RsaKeyPair::from_bytes(&[1, 2, 3]).is_err());
    }

    /// `public key ‖ p ‖ q` from parts, bypassing every check.
    fn encode(n: &BigUint, e: u64, p: &BigUint, q: &BigUint) -> Vec<u8> {
        let public = RsaPublicKey { n: n.clone(), e: BigUint::from_u64(e) };
        let mut out = Vec::new();
        put_field(&mut out, &public.to_bytes());
        put_field(&mut out, &p.to_bytes_be());
        put_field(&mut out, &q.to_bytes_be());
        out
    }

    #[test]
    fn keypair_parser_rejects_inconsistent_factors() {
        let kp = test_keypair();
        let (p, q) = (kp.p.modulus().clone(), kp.q.modulus().clone());
        let n = &kp.public.n;
        let bad = RsaKeyPair::from_bytes;
        assert!(bad(&encode(n, 65537, &p, &q)).is_ok());
        assert!(bad(&encode(n, 65537, &q, &p)).is_ok(), "factor order is free");
        let two = BigUint::from_u64(2);
        assert!(bad(&encode(n, 65537, &p, &q.add(&two))).is_err(), "p·q ≠ n");
        assert!(bad(&encode(&p.mul(&p), 65537, &p, &p)).is_err(), "p = q");
        assert!(bad(&encode(n, 2, &p, &q)).is_err(), "e shares a factor with phi");
        assert!(bad(&encode(&n.shl(1), 65537, &p.shl(1), &q)).is_err(), "even factor");
        let one = BigUint::one();
        assert!(bad(&encode(n, 65537, &one, n)).is_err(), "trivial factor");
        let mut padded = kp.to_bytes();
        padded.push(0);
        assert_eq!(bad(&padded).unwrap_err(), CryptoError::MalformedKey(KEY_PAIR_FORMAT));
    }

    #[test]
    fn old_public_key_and_exponent_format_is_refused_by_name() {
        // Key pairs used to be stored as `public key ‖ d`.
        let kp = test_keypair();
        let mut old = Vec::new();
        put_field(&mut old, &kp.public.to_bytes());
        put_field(&mut old, &private_exponent(&kp).to_bytes_be());
        let err = RsaKeyPair::from_bytes(&old).unwrap_err();
        assert_eq!(err, CryptoError::MalformedKey(KEY_PAIR_FORMAT));
        assert!(err.to_string().contains("public key || p || q"), "{err}");
    }

    #[test]
    fn debug_output_names_no_private_value() {
        let kp = test_keypair();
        let shown = format!("{kp:?}");
        assert!(shown.contains("RsaKeyPair"), "{shown}");
        for secret in
            [kp.p.modulus(), kp.q.modulus(), &kp.dp, &kp.dq, &kp.qinv, &private_exponent(&kp)]
        {
            // No 16 consecutive hex digits of a private value (what the
            // Debug of a BigUint prints per limb) may appear.
            let digits = hex(&secret.to_bytes_be());
            for window in digits.as_bytes().windows(16) {
                let window = std::str::from_utf8(window).unwrap();
                assert!(!shown.contains(window), "{shown} leaks {window}");
            }
        }
    }

    #[test]
    fn fingerprint_stable_and_distinct() {
        let kp1 = test_keypair();
        let mut rng = SeededRandom::new(7);
        let kp2 = RsaKeyPair::generate(512, &mut rng);
        assert_eq!(kp1.public_key().fingerprint(), kp1.public_key().fingerprint());
        assert_ne!(kp1.public_key().fingerprint(), kp2.public_key().fingerprint());
    }
}
