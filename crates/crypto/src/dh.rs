//! Classic finite-field Diffie–Hellman key agreement.
//!
//! Used for the attested channel between the enclave and the developer's
//! authentication server, standing in for the EC-DH the SGX SDK performs
//! during remote attestation. The group is a fixed safe-prime group; the
//! modulus size is kept moderate so debug-mode tests stay fast (documented
//! substitution — the protocol shape is unchanged).

use crate::bignum::{BigUint, Comb, Montgomery};
use crate::kdf::derive_key;
use crate::rng::RandomSource;
use std::sync::OnceLock;

/// The 768-bit Oakley Group 1 safe prime (RFC 2409 §6.1), generator 2.
/// A published safe prime keeps the handshake verifiable while the modulus
/// stays small enough for the schoolbook bignum to be fast in debug builds.
const GROUP_P_HEX: &str = "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
                           020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437\
                           4fe1356d6d51c245e485b576625e7ec6f44c42e9a63a3620ffffffffffffffff";

/// A Diffie–Hellman keypair in the fixed group.
#[derive(Clone)]
pub struct DhKeyPair {
    private: BigUint,
    public: BigUint,
}

impl std::fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DhKeyPair").field("public", &self.public).finish_non_exhaustive()
    }
}

/// The fixed group: the prime's Montgomery context and generator 2's comb
/// table (256 entries, 24 KiB), parsed and built together on first use and
/// shared by every key generation and agreement in the process.
struct DhGroup {
    p: Montgomery,
    g: Comb,
}

fn group() -> &'static DhGroup {
    static GROUP: OnceLock<DhGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        let bytes: Vec<u8> = (0..GROUP_P_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GROUP_P_HEX[i..i + 2], 16).expect("valid hex"))
            .collect();
        let p = Montgomery::new(&BigUint::from_bytes_be(&bytes));
        let g = Comb::new(&p, &BigUint::from_u64(2));
        DhGroup { p, g }
    })
}

impl DhKeyPair {
    /// Generates a keypair with a 256-bit private exponent.
    pub fn generate(rng: &mut dyn RandomSource) -> Self {
        let mut buf = [0u8; 32];
        rng.fill(&mut buf);
        buf[0] |= 0x40; // ensure a large exponent
        let private = BigUint::from_bytes_be(&buf);
        let group = group();
        let public = group.g.pow(&group.p, &private);
        DhKeyPair { private, public }
    }

    /// The public value, serialized big-endian and zero-padded to the group size.
    pub fn public_bytes(&self) -> Vec<u8> {
        self.public.to_bytes_be_padded(GROUP_P_HEX.len() / 2)
    }

    /// Computes the shared secret with a peer's public value and derives a
    /// 16-byte AES session key from it.
    ///
    /// Returns `None` if the peer value is out of range (0, 1, or >= p),
    /// which would make the "shared secret" trivial.
    pub fn derive_session_key(&self, peer_public: &[u8]) -> Option<[u8; 16]> {
        let peer = BigUint::from_bytes_be(peer_public);
        if peer <= BigUint::one() || peer.add(&BigUint::one()) >= *group().p.modulus() {
            return None;
        }
        let shared = group().p.modpow(&peer, &self.private);
        let key = derive_key(&shared.to_bytes_be(), "elide-channel", b"aes128", 16);
        Some(key.try_into().expect("16 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::is_probable_prime;
    use crate::rng::{RandomSource, SeededRandom};

    #[test]
    fn group_prime_is_prime_and_safe() {
        let p = group().p.modulus();
        let mut rng = SeededRandom::new(5);
        assert!(is_probable_prime(p, 8, &mut rng), "p must be prime");
        let q = p.shr(1);
        assert!(is_probable_prime(&q, 8, &mut rng), "(p-1)/2 must be prime (safe prime)");
    }

    #[test]
    fn comb_matches_variable_base_modpow() {
        let DhGroup { p, g } = group();
        let two = BigUint::from_u64(2);
        let one = BigUint::one();
        // Edges, every single bit (each tooth i of each column j, bit
        // 32i + j, alone), then seeded full-width exponents.
        let mut exps = vec![BigUint::zero(), one.clone(), one.shl(256).sub(&one)];
        exps.extend((0..256).map(|bit| one.shl(bit)));
        let mut rng = SeededRandom::new(0xC0B);
        exps.extend((0..256).map(|_| {
            let mut buf = [0u8; 32];
            rng.fill(&mut buf);
            BigUint::from_bytes_be(&buf)
        }));
        for x in &exps {
            assert_eq!(g.pow(p, x), p.modpow(&two, x), "x = {x}");
        }
    }

    #[test]
    fn key_agreement() {
        let mut rng = SeededRandom::new(10);
        let alice = DhKeyPair::generate(&mut rng);
        let bob = DhKeyPair::generate(&mut rng);
        let k1 = alice.derive_session_key(&bob.public_bytes()).unwrap();
        let k2 = bob.derive_session_key(&alice.public_bytes()).unwrap();
        assert_eq!(k1, k2);
    }

    #[test]
    fn distinct_sessions_get_distinct_keys() {
        let mut rng = SeededRandom::new(11);
        let a1 = DhKeyPair::generate(&mut rng);
        let a2 = DhKeyPair::generate(&mut rng);
        let b = DhKeyPair::generate(&mut rng);
        assert_ne!(
            a1.derive_session_key(&b.public_bytes()),
            a2.derive_session_key(&b.public_bytes())
        );
    }

    #[test]
    fn degenerate_peer_rejected() {
        let mut rng = SeededRandom::new(12);
        let kp = DhKeyPair::generate(&mut rng);
        assert!(kp.derive_session_key(&[0]).is_none());
        assert!(kp.derive_session_key(&[1]).is_none());
        let p_minus_1 = group().p.modulus().sub(&BigUint::one()).to_bytes_be();
        assert!(kp.derive_session_key(&p_minus_1).is_none());
    }
}
