//! Probabilistic primality testing and prime generation (for RSA key
//! generation in the SGX simulator's signing infrastructure).

use crate::bignum::{BigUint, Montgomery};
use crate::rng::RandomSource;

/// Small primes used for trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 30] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113,
];

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
pub fn is_probable_prime(n: &BigUint, rounds: usize, rng: &mut dyn RandomSource) -> bool {
    if n < &BigUint::from_u64(2) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let pb = BigUint::from_u64(p);
        if n == &pb {
            return true;
        }
        if n.rem(&pb).is_zero() {
            return false;
        }
    }
    // Write n-1 = d * 2^r.
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while !d.is_odd() {
        d = d.shr(1);
        r += 1;
    }
    // One context serves every round. Each witness stays in Montgomery
    // form, where 1 and n-1 have one fixed (fully reduced) representation
    // each, so the checks compare limbs without converting back.
    let mont = Montgomery::new(n);
    let minus_one = mont.enter(&n_minus_1);
    let mut tmp = vec![0u64; minus_one.len()];
    'witness: for _ in 0..rounds {
        let a = random_below(&n_minus_1, rng);
        let a = if a < BigUint::from_u64(2) { BigUint::from_u64(2) } else { a };
        let mut x = mont.pow(&mont.enter(&a), &d);
        if x == mont.one() || x == minus_one {
            continue;
        }
        for _ in 0..r.saturating_sub(1) {
            mont.mul(&x, &x, &mut tmp);
            std::mem::swap(&mut x, &mut tmp);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Returns a uniformly random value in `[0, bound)`.
fn random_below(bound: &BigUint, rng: &mut dyn RandomSource) -> BigUint {
    let bytes = bound.bits().div_ceil(8);
    loop {
        let mut buf = vec![0u8; bytes];
        rng.fill(&mut buf);
        let candidate = BigUint::from_bytes_be(&buf);
        if &candidate < bound {
            return candidate;
        }
    }
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 8`.
pub fn generate_prime(bits: usize, rng: &mut dyn RandomSource) -> BigUint {
    assert!(bits >= 8, "prime size must be at least 8 bits");
    loop {
        let bytes = bits.div_ceil(8);
        let mut buf = vec![0u8; bytes];
        rng.fill(&mut buf);
        // Force exact bit length and oddness.
        let top_bit = (bits - 1) % 8;
        buf[0] &= (1u16 << (top_bit + 1)).wrapping_sub(1) as u8;
        buf[0] |= 1 << top_bit;
        let last = buf.len() - 1;
        buf[last] |= 1;
        let candidate = BigUint::from_bytes_be(&buf);
        if is_probable_prime(&candidate, 16, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRandom;

    #[test]
    fn known_primes_accepted() {
        let mut rng = SeededRandom::new(1);
        for p in [2u64, 3, 5, 97, 7919, 1_000_000_007, 2_147_483_647] {
            assert!(is_probable_prime(&BigUint::from_u64(p), 16, &mut rng), "{p} is prime");
        }
    }

    #[test]
    fn known_composites_rejected() {
        let mut rng = SeededRandom::new(2);
        for c in [1u64, 4, 100, 7917, 1_000_000_005, 561 /* Carmichael */, 6601] {
            assert!(!is_probable_prime(&BigUint::from_u64(c), 16, &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn generated_prime_has_requested_bits() {
        let mut rng = SeededRandom::new(3);
        let p = generate_prime(96, &mut rng);
        assert_eq!(p.bits(), 96);
        assert!(p.is_odd());
        assert!(is_probable_prime(&p, 16, &mut rng));
    }

    #[test]
    fn big_known_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let p = BigUint::from_u64(1).shl(127).sub(&BigUint::one());
        let mut rng = SeededRandom::new(4);
        assert!(is_probable_prime(&p, 12, &mut rng));
        // 2^128 - 1 is composite.
        let c = BigUint::from_u64(1).shl(128).sub(&BigUint::one());
        assert!(!is_probable_prime(&c, 12, &mut rng));
    }
}
