//! Arbitrary-precision unsigned integers, sized for the needs of RSA
//! signature verification (SIGSTRUCT) and classic Diffie–Hellman.
//!
//! Little-endian `u64` limbs, schoolbook multiplication and shift-subtract
//! division. Performance is more than adequate for the handful of public-key
//! operations per enclave launch that the SgxElide flow performs.

/// An arbitrary-precision unsigned integer.
///
/// # Examples
///
/// ```
/// use elide_crypto::bignum::BigUint;
/// let a = BigUint::from_u64(7);
/// let b = BigUint::from_u64(9);
/// assert_eq!(a.mul(&b).to_u64(), Some(63));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    // Invariant: no trailing zero limbs; zero is the empty vector.
    limbs: Vec<u64>,
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x")?;
        if self.limbs.is_empty() {
            write!(f, "0")?;
        }
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        write!(f, ")")
    }
}

impl std::fmt::Display for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.limbs
            .len()
            .cmp(&other.limbs.len())
            .then_with(|| self.limbs.iter().rev().cmp(other.limbs.iter().rev()))
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint::from_u64(1)
    }

    /// Creates from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Creates from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut cur: u64 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            cur |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if cur != 0 || shift != 0 {
            limbs.push(cur);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        self.limbs.get(limb).is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = limb.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint::sub would underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, u1) = self.limbs[i].overflowing_sub(b);
            let (d2, u2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (u1 as u64) + (u2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other`.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self << bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self >> bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Returns `(quotient, remainder)` of `self / divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            // Fast path: single-limb divisor.
            let d = divisor.limbs[0] as u128;
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem: u128 = 0;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            let mut qn = BigUint { limbs: q };
            qn.normalize();
            return (qn, BigUint::from_u64(rem as u64));
        }
        self.divrem_knuth(divisor)
    }

    /// Multi-limb division, Knuth TAOCP vol. 2 Algorithm D.
    fn divrem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        const B: u128 = 1 << 64;
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;

        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let vn = divisor.shl(shift).limbs;
        let mut un = self.shl(shift).limbs;
        un.resize(self.limbs.len() + 1, 0); // extra high limb for D2..D7

        let mut q = vec![0u64; m + 1];
        // D2..D7: loop over quotient digits, most significant first.
        for j in (0..=m).rev() {
            // D3: estimate qhat from the top two dividend limbs.
            let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = top / vn[n - 1] as u128;
            let mut rhat = top % vn[n - 1] as u128;
            while qhat >= B
                || (n >= 2 && qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128))
            {
                qhat -= 1;
                rhat += vn[n - 1] as u128;
                if rhat >= B {
                    break;
                }
            }
            // D4: multiply and subtract.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - (p as u64) as i128 + borrow;
                un[i + j] = t as u64;
                borrow = t >> 64;
            }
            let t = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = t as u64;
            // D5/D6: if we subtracted too much, add the divisor back.
            if t < 0 {
                qhat -= 1;
                let mut carry: u128 = 0;
                for i in 0..n {
                    let s = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint { limbs: un[..n].to_vec() };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.divrem(m).1
    }

    /// Modular exponentiation: `self^exp mod m`.
    ///
    /// Goes through a [`Montgomery`] context built for this one call
    /// (callers that exponentiate repeatedly under one modulus keep a
    /// context instead): odd moduli of up to 16 limbs — every RSA and DH
    /// modulus here — take the fixed-width CIOS multiply, and any other
    /// modulus the schoolbook product with a division per step.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow modulus must be nonzero");
        if m == &BigUint::one() {
            return BigUint::zero();
        }
        Montgomery::new(m).modpow(self, exp)
    }

    /// Modular inverse via extended Euclid, if it exists.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        // Extended Euclid with signed coefficients tracked as (sign, magnitude).
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        // t coefficients: t0 = 0, t1 = 1; signs: false = non-negative.
        let mut t0 = (false, BigUint::zero());
        let mut t1 = (false, BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q * t1
            let qt1 = q.mul(&t1.1);
            let t2 = signed_sub(&t0, &(t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0 != BigUint::one() {
            return None;
        }
        // Normalize t0 into [0, m).
        let val = if t0.0 { m.sub(&t0.1.rem(m)).rem(m) } else { t0.1.rem(m) };
        Some(val)
    }
}

/// Widest modulus, in limbs, with a fixed-width CIOS kernel: 1024 bits,
/// which covers the RSA primes (4 limbs), the RSA-512 modulus (8) and the
/// DH group prime (12).
const MAX_CIOS_LIMBS: usize = 16;

/// A context's multiply: `out = a·b·R⁻¹ mod n` (see [`Montgomery::mul`]).
type MulKernel = fn(&Montgomery, &[u64], &[u64], &mut [u64]);

/// The CIOS multiply for each modulus width 1..=16, indexed by width − 1.
const CIOS: [MulKernel; MAX_CIOS_LIMBS] = [
    cios::<1>, cios::<2>, cios::<3>, cios::<4>, cios::<5>, cios::<6>, cios::<7>, cios::<8>,
    cios::<9>, cios::<10>, cios::<11>, cios::<12>, cios::<13>, cios::<14>, cios::<15>, cios::<16>,
];

/// Montgomery context for one modulus: for an odd modulus every reduction
/// inside an exponentiation is a carry-propagating multiply (CIOS), never a
/// division.
/// Building one costs a Knuth division (`R² mod n`), so a context is made
/// once per modulus and reused: the Diffie–Hellman group keeps one for the
/// life of the process, an RSA key pair one per prime factor, and
/// Miller–Rabin one per candidate across all of its rounds.
///
/// Values in Montgomery form (`x·R mod n`, `R = 2^(64k)` for a `k`-limb
/// modulus) are fully reduced and live in `k + 1` limb buffers: the extra
/// limb is the CIOS carry, zero again once a product is complete, so any
/// such buffer can be the output of the next [`Montgomery::mul`].
///
/// The multiply is picked once, at construction, from the modulus: an odd
/// modulus of `k ≤ 16` limbs gets the CIOS loop compiled for exactly `k`
/// limbs. Any other modulus (even, or wider than 1024 bits: reachable only
/// through [`BigUint::modpow`], a parsed key or a caller's prime search)
/// gets `R = 1`, so its "Montgomery form" is the plain residue and its
/// multiply is the schoolbook product and a Knuth division.
#[derive(Clone)]
pub(crate) struct Montgomery {
    /// The modulus `n`; its limbs are the ones reduced against.
    m: BigUint,
    /// `-n[0]⁻¹ mod 2^64` (unused when `R = 1`).
    n0: u64,
    /// `R² mod n`, padded to `k` limbs: the multiplier into Montgomery form.
    rr: Vec<u64>,
    /// `R mod n` (one in Montgomery form), padded to `k + 1` limbs.
    one: Vec<u64>,
    /// The multiply for this modulus: a [`CIOS`] entry, or [`divide`].
    kernel: MulKernel,
}

impl Montgomery {
    /// # Panics
    ///
    /// Panics if `m` < 2.
    pub(crate) fn new(m: &BigUint) -> Montgomery {
        assert!(*m > BigUint::one(), "a modulus must exceed 1");
        let k = m.limbs.len();
        let (kernel, n0, r_bits) = match CIOS.get(k - 1) {
            Some(&kernel) if m.is_odd() => {
                let low = m.limbs[0];
                // Newton's iteration doubles the valid low bits each round:
                // 5 rounds take the trivial inverse mod 8 up to mod 2^64.
                let mut inv = low; // low odd ⇒ self-inverse mod 8, seed for Newton
                for _ in 0..5 {
                    inv = inv.wrapping_mul(2u64.wrapping_sub(low.wrapping_mul(inv)));
                }
                debug_assert_eq!(low.wrapping_mul(inv), 1);
                (kernel, inv.wrapping_neg(), 64 * k)
            }
            _ => (divide as MulKernel, 0, 0),
        };
        let mut rr = BigUint::one().shl(2 * r_bits).rem(m).limbs;
        rr.resize(k, 0);
        let mut one = BigUint::one().shl(r_bits).rem(m).limbs;
        one.resize(k + 1, 0);
        Montgomery { m: m.clone(), n0, rr, one, kernel }
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.m
    }

    /// One in Montgomery form (`k + 1` limbs).
    pub(crate) fn one(&self) -> &[u64] {
        &self.one
    }

    /// Enters Montgomery form: `x·R mod n`, reducing `x` mod `n` first if
    /// it is not already below it.
    pub(crate) fn enter(&self, x: &BigUint) -> Vec<u64> {
        let k = self.m.limbs.len();
        let mut limbs = if *x >= self.m { x.rem(&self.m).limbs } else { x.limbs.clone() };
        limbs.resize(k, 0);
        let mut out = vec![0u64; k + 1];
        self.mul(&limbs, &self.rr, &mut out);
        out
    }

    /// Leaves Montgomery form: `a·R⁻¹ mod n`.
    pub(crate) fn leave(&self, a: &[u64]) -> BigUint {
        let k = self.m.limbs.len();
        let mut unit = vec![0u64; k];
        unit[0] = 1;
        let mut out = vec![0u64; k + 1];
        self.mul(a, &unit, &mut out);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `out = a·b·R⁻¹ mod n`, fully reduced. Reads the low `k` limbs of `a`
    /// and `b` (`b` must be below `n`, which every Montgomery form value
    /// is); `out` is `k + 1` limbs and leaves with its top limb zero.
    pub(crate) fn mul(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        (self.kernel)(self, a, b, out)
    }

    /// `base^exp` with both ends in Montgomery form, by a 4-bit fixed
    /// window. The window table and the two ping-pong accumulators are the
    /// only buffers; no CIOS product allocates.
    pub(crate) fn pow(&self, base: &[u64], exp: &BigUint) -> Vec<u64> {
        let k = self.m.limbs.len();
        let windows = exp.bits().div_ceil(4);
        if windows == 0 {
            return self.one.clone();
        }
        // table[i·k..(i+1)·k] = baseⁱ.
        let mut table = vec![0u64; 16 * k];
        let mut acc = vec![0u64; k + 1];
        let mut tmp = vec![0u64; k + 1];
        table[..k].copy_from_slice(&self.one[..k]);
        table[k..2 * k].copy_from_slice(&base[..k]);
        for i in 2..16 {
            self.mul(&table[(i - 1) * k..i * k], base, &mut tmp);
            table[i * k..(i + 1) * k].copy_from_slice(&tmp[..k]);
        }
        // 64 % 4 == 0, so exponent nibbles never straddle limbs.
        let nibble = |w: usize| ((exp.limbs[w / 16] >> (4 * (w % 16))) & 0xf) as usize;
        let top = nibble(windows - 1);
        acc[..k].copy_from_slice(&table[top * k..(top + 1) * k]);
        for w in (0..windows - 1).rev() {
            for _ in 0..4 {
                self.mul(&acc, &acc, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let nib = nibble(w);
            if nib != 0 {
                self.mul(&acc, &table[nib * k..(nib + 1) * k], &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        acc
    }

    /// `x^exp mod n`: the one-shot path through Montgomery form and back.
    pub(crate) fn modpow(&self, x: &BigUint, exp: &BigUint) -> BigUint {
        self.leave(&self.pow(&self.enter(x), exp))
    }
}

/// Teeth of the fixed-base comb: bits `i·32 + j` for `i < 8` share column `j`.
const COMB_TEETH: usize = 8;
/// Columns of the fixed-base comb: one squaring each, 8 × 32 = 256 bits.
const COMB_COLUMNS: usize = 32;

/// Lim–Lee fixed-base comb: `base^x` for exponents of up to 256 bits in
/// 31 squarings and at most 32 multiplies, against ~256 squarings and ~64
/// multiplies for the variable-base window. The exponent's bits are laid
/// out as 8 rows (teeth) of 32 columns; column `j` picks the product of
/// `base^(2^(32i))` over the teeth `i` whose bit `32i + j` is set, and
/// those 256 products are computed once, when the comb is built.
#[derive(Clone)]
pub(crate) struct Comb {
    /// `table[v·k..(v+1)·k]` = `∏ base^(2^(32i))` over the set bits `i`
    /// of `v`, in the context's Montgomery form (`k` limbs each).
    table: Vec<u64>,
}

impl Comb {
    /// Builds the table for `base` under `mont`: 224 squarings and 255
    /// multiplies, once.
    pub(crate) fn new(mont: &Montgomery, base: &BigUint) -> Comb {
        let k = mont.m.limbs.len();
        let mut table = vec![0u64; k << COMB_TEETH];
        table[..k].copy_from_slice(&mont.one[..k]);
        let mut tooth = mont.enter(base);
        let mut tmp = vec![0u64; k + 1];
        for i in 0..COMB_TEETH {
            if i > 0 {
                for _ in 0..COMB_COLUMNS {
                    mont.mul(&tooth, &tooth, &mut tmp);
                    std::mem::swap(&mut tooth, &mut tmp);
                }
            }
            // `tooth` is now base^(2^(32i)): every entry whose top set bit
            // is `i` is an entry below 2^i times it.
            for v in 0..1 << i {
                mont.mul(&table[v * k..(v + 1) * k], &tooth, &mut tmp);
                let at = ((1 << i) + v) * k;
                table[at..at + k].copy_from_slice(&tmp[..k]);
            }
        }
        Comb { table }
    }

    /// `base^exp mod n` under the context the comb was built with.
    ///
    /// # Panics
    ///
    /// Panics if `exp` is wider than 256 bits or `mont` has a different
    /// width from the comb's.
    pub(crate) fn pow(&self, mont: &Montgomery, exp: &BigUint) -> BigUint {
        assert!(exp.bits() <= COMB_TEETH * COMB_COLUMNS, "comb exponents are at most 256 bits");
        let k = mont.m.limbs.len();
        assert_eq!(self.table.len(), k << COMB_TEETH, "comb built under another modulus");
        let column = |j: usize| {
            (0..COMB_TEETH).fold(0, |v, i| v | usize::from(exp.bit(COMB_COLUMNS * i + j)) << i)
        };
        let mut acc = mont.one.clone();
        let mut tmp = vec![0u64; k + 1];
        for j in (0..COMB_COLUMNS).rev() {
            if j + 1 < COMB_COLUMNS {
                mont.mul(&acc, &acc, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let v = column(j);
            if v != 0 {
                mont.mul(&acc, &self.table[v * k..(v + 1) * k], &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        mont.leave(&acc)
    }
}

/// CIOS Montgomery multiply for a `K`-limb modulus, with the multiply and
/// the reduce step fused into one pass per limb of `a`. `K` is a constant,
/// so the running sum lives in a fixed array and every loop has a known
/// trip count.
fn cios<const K: usize>(ctx: &Montgomery, a: &[u64], b: &[u64], out: &mut [u64]) {
    let n: &[u64; K] = ctx.m.limbs[..].try_into().expect("context built for K limbs");
    let a: &[u64; K] = a[..K].try_into().expect("K limbs");
    let b: &[u64; K] = b[..K].try_into().expect("K limbs");
    let mut t = [0u64; K];
    let mut top = 0u64;
    for &ai in a {
        // Limb 0 fixes the reduction multiplier `m` that makes the
        // running sum divisible by 2^64; every later limb adds both
        // products and shifts down one limb in the same step.
        let s = t[0] as u128 + ai as u128 * b[0] as u128;
        let mut c1 = s >> 64;
        let m = (s as u64).wrapping_mul(ctx.n0);
        let mut c2 = ((s as u64) as u128 + m as u128 * n[0] as u128) >> 64;
        for j in 1..K {
            let s = t[j] as u128 + ai as u128 * b[j] as u128 + c1;
            c1 = s >> 64;
            let s = (s as u64) as u128 + m as u128 * n[j] as u128 + c2;
            c2 = s >> 64;
            t[j - 1] = s as u64;
        }
        let s = top as u128 + c1 + c2;
        t[K - 1] = s as u64;
        top = (s >> 64) as u64;
    }
    // CIOS keeps t < 2n, so at most one final subtraction. When the
    // carry limb is set, the low limbs borrow, and the borrow exactly
    // cancels the carry limb (t < 2n means it is 0 or 1).
    if top != 0 || !limbs_lt(&t, n) {
        let borrow = limbs_sub_assign(&mut t, n);
        debug_assert_eq!(top, borrow);
    }
    out[..K].copy_from_slice(&t);
    out[K] = 0;
}

/// The multiply of an `R = 1` context (a modulus no CIOS width covers):
/// `out = a·b mod n` by the schoolbook product and a Knuth division.
fn divide(ctx: &Montgomery, a: &[u64], b: &[u64], out: &mut [u64]) {
    let k = ctx.m.limbs.len();
    let operand = |x: &[u64]| {
        let mut n = BigUint { limbs: x[..k].to_vec() };
        n.normalize();
        n
    };
    let product = operand(a).mul(&operand(b)).rem(&ctx.m);
    out[..=k].fill(0);
    out[..product.limbs.len()].copy_from_slice(&product.limbs);
}

/// `a < b` over equal-length little-endian limb slices.
fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// `a -= b` over equal-length little-endian limb slices, returning the
/// final borrow (0 or 1) for the caller to settle against any carry limb.
fn limbs_sub_assign(a: &mut [u64], b: &[u64]) -> u64 {
    let mut borrow = 0u64;
    for (ai, &bi) in a.iter_mut().zip(b) {
        let (d1, u1) = ai.overflowing_sub(bi);
        let (d2, u2) = d1.overflowing_sub(borrow);
        *ai = d2;
        borrow = (u1 as u64) + (u2 as u64);
    }
    borrow
}

/// Computes `a - b` on sign-magnitude pairs.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both non-negative.
        (false, false) => {
            if a.1 >= b.1 {
                (false, a.1.sub(&b.1))
            } else {
                (true, b.1.sub(&a.1))
            }
        }
        // a - (-b) = a + b
        (false, true) => (false, a.1.add(&b.1)),
        // -a - b = -(a + b)
        (true, false) => (true, a.1.add(&b.1)),
        // -a - (-b) = b - a
        (true, true) => {
            if b.1 >= a.1 {
                (false, b.1.sub(&a.1))
            } else {
                (true, a.1.sub(&b.1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{RandomSource, SeededRandom};

    #[test]
    fn bytes_roundtrip() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(n.to_bytes_be(), vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        let a = BigUint::from_bytes_be(&[0, 0, 0, 5]);
        assert_eq!(a, BigUint::from_u64(5));
        assert_eq!(a.to_bytes_be(), vec![5]);
    }

    #[test]
    fn padded_serialization() {
        let a = BigUint::from_u64(0x1234);
        assert_eq!(a.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from_bytes_be(&[0xff; 16]);
        let one = BigUint::one();
        let sum = a.add(&one);
        let mut expect = vec![1u8];
        expect.extend(vec![0u8; 16]);
        assert_eq!(sum.to_bytes_be(), expect);
        assert_eq!(sum.sub(&one), a);
    }

    #[test]
    fn division_known() {
        let a = BigUint::from_u64(1_000_003);
        let b = BigUint::from_u64(997);
        let (q, r) = a.divrem(&b);
        assert_eq!(q.to_u64(), Some(1_000_003 / 997));
        assert_eq!(r.to_u64(), Some(1_000_003 % 997));
    }

    #[test]
    fn modpow_small() {
        let b = BigUint::from_u64(4);
        let e = BigUint::from_u64(13);
        let m = BigUint::from_u64(497);
        assert_eq!(b.modpow(&e, &m).to_u64(), Some(445));
    }

    #[test]
    fn modpow_fermat() {
        // 2^(p-1) ≡ 1 (mod p) for prime p.
        let p = BigUint::from_u64(1_000_000_007);
        let e = BigUint::from_u64(1_000_000_006);
        assert_eq!(BigUint::from_u64(2).modpow(&e, &p), BigUint::one());
    }

    #[test]
    fn modinv_known() {
        let a = BigUint::from_u64(3);
        let m = BigUint::from_u64(11);
        assert_eq!(a.modinv(&m).unwrap().to_u64(), Some(4));
        // No inverse when gcd != 1.
        assert!(BigUint::from_u64(6).modinv(&BigUint::from_u64(9)).is_none());
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_u64(0b1011);
        assert_eq!(a.shl(65).shr(65), a);
        assert_eq!(a.shl(3).to_u64(), Some(0b1011000));
        assert_eq!(a.shr(2).to_u64(), Some(0b10));
    }

    #[test]
    fn bits_and_bit() {
        let a = BigUint::from_u64(0x8000_0000_0000_0000);
        assert_eq!(a.bits(), 64);
        assert!(a.bit(63));
        assert!(!a.bit(62));
        assert_eq!(BigUint::zero().bits(), 0);
    }

    fn next_u128(rng: &mut SeededRandom) -> u128 {
        (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
    }

    // Randomized property checks driven by the in-tree deterministic RNG.
    #[test]
    fn prop_add_sub_roundtrip() {
        let mut rng = SeededRandom::new(0xB1601);
        for _ in 0..256 {
            let a = next_u128(&mut rng);
            let b = next_u128(&mut rng);
            let ab = BigUint::from_bytes_be(&a.to_be_bytes());
            let bb = BigUint::from_bytes_be(&b.to_be_bytes());
            assert_eq!(ab.add(&bb).sub(&bb), ab);
        }
    }

    #[test]
    fn prop_mul_matches_u128() {
        let mut rng = SeededRandom::new(0xB1602);
        for _ in 0..256 {
            let a = rng.next_u64();
            let b = rng.next_u64();
            let prod = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
            let expect = (a as u128) * (b as u128);
            assert_eq!(
                prod.to_bytes_be(),
                BigUint::from_bytes_be(&expect.to_be_bytes()).to_bytes_be()
            );
        }
    }

    #[test]
    fn prop_divrem_invariant() {
        let mut rng = SeededRandom::new(0xB1603);
        for _ in 0..256 {
            let a = next_u128(&mut rng);
            let b = rng.next_u64().max(1);
            let ab = BigUint::from_bytes_be(&a.to_be_bytes());
            let bb = BigUint::from_u64(b);
            let (q, r) = ab.divrem(&bb);
            assert!(r < bb);
            assert_eq!(q.mul(&bb).add(&r), ab);
        }
    }

    #[test]
    fn prop_divrem_multilimb() {
        let mut rng = SeededRandom::new(0xB1604);
        for _ in 0..128 {
            let a_limbs = 1 + (rng.next_u64() % 11) as usize;
            let b_limbs = 1 + (rng.next_u64() % 5) as usize;
            let a: Vec<u64> = (0..a_limbs).map(|_| rng.next_u64()).collect();
            let b: Vec<u64> = (0..b_limbs).map(|_| rng.next_u64()).collect();
            let ab = BigUint { limbs: a }.add(&BigUint::zero()); // normalize
            let mut bb = BigUint { limbs: b }.add(&BigUint::zero());
            if bb.is_zero() {
                bb = BigUint::one();
            }
            let (q, r) = ab.divrem(&bb);
            assert!(r < bb);
            assert_eq!(q.mul(&bb).add(&r), ab);
        }
    }

    #[test]
    fn prop_divrem_big_divisor() {
        let mut rng = SeededRandom::new(0xB1605);
        for _ in 0..256 {
            let a = next_u128(&mut rng);
            let b = next_u128(&mut rng).max(1);
            let ab = BigUint::from_bytes_be(&a.to_be_bytes());
            let bb = BigUint::from_bytes_be(&b.to_be_bytes());
            let (q, r) = ab.divrem(&bb);
            assert!(r < bb);
            assert_eq!(q.mul(&bb).add(&r), ab);
        }
    }

    #[test]
    fn prop_modpow_matches_naive() {
        let mut rng = SeededRandom::new(0xB1606);
        for _ in 0..256 {
            let b = rng.next_u64() % 1000;
            let e = rng.next_u64() % 30;
            let m = 2 + rng.next_u64() % 9998;
            let expect = {
                let mut acc: u128 = 1;
                for _ in 0..e {
                    acc = acc * b as u128 % m as u128;
                }
                acc as u64
            };
            let got = BigUint::from_u64(b).modpow(&BigUint::from_u64(e), &BigUint::from_u64(m));
            assert_eq!(got.to_u64(), Some(expect));
        }
    }

    fn random_limbs(rng: &mut SeededRandom, limbs: usize) -> BigUint {
        BigUint { limbs: (0..limbs).map(|_| rng.next_u64()).collect() }.add(&BigUint::zero())
    }

    /// Square-and-multiply with a division per step, as a reference.
    fn schoolbook_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut acc = BigUint::one().rem(m);
        let mut b = base.rem(m);
        for i in 0..exp.bits() {
            if exp.bit(i) {
                acc = acc.mul(&b).rem(m);
            }
            b = b.mul(&b).rem(m);
        }
        acc
    }

    #[test]
    fn prop_modpow_montgomery_matches_schoolbook() {
        // One context per odd modulus of 1–16 limbs, reused for several
        // exponentiations: bases up to a limb wider than the modulus (the
        // context reduces them) and exponents up to two limbs. Every CIOS
        // width runs at least once.
        let mut rng = SeededRandom::new(0xB1608);
        let mut widths = [false; MAX_CIOS_LIMBS];
        for case in 0..64 {
            let m_limbs = 1 + case % MAX_CIOS_LIMBS;
            let mut m = random_limbs(&mut rng, m_limbs);
            m = m.add(&BigUint::from_u64(u64::from(!m.is_odd()))); // force odd
            if m <= BigUint::one() {
                continue;
            }
            let mont = Montgomery::new(&m);
            for round in 0..16 {
                let base_limbs = 1 + (rng.next_u64() % (m_limbs as u64 + 1)) as usize;
                let base = random_limbs(&mut rng, base_limbs);
                let exp_limbs = (rng.next_u64() % 3) as usize;
                let exp = random_limbs(&mut rng, exp_limbs);
                let expect = schoolbook_modpow(&base, &exp, &m);
                assert_eq!(mont.modpow(&base, &exp), expect, "case {case} round {round} m={m}");
                assert_eq!(base.modpow(&exp, &m), expect, "case {case} round {round} one-shot");
            }
            widths[m_limbs - 1] = true;
        }
        assert_eq!(widths, [true; MAX_CIOS_LIMBS], "a CIOS width went untested");
    }

    #[test]
    fn modpow_by_division_matches_schoolbook() {
        // Even moduli and odd moduli of 17–20 limbs have no CIOS kernel:
        // their contexts reduce by division.
        let mut rng = SeededRandom::new(0xB160A);
        let cases =
            (1..=20).map(|limbs| (limbs, false)).chain((17..=20).map(|limbs| (limbs, true)));
        for (m_limbs, odd) in cases {
            let mut m = random_limbs(&mut rng, m_limbs);
            if m.is_odd() != odd {
                m = m.add(&BigUint::one());
            }
            let base = random_limbs(&mut rng, m_limbs + 1);
            let exp = random_limbs(&mut rng, 2);
            let expect = schoolbook_modpow(&base, &exp, &m);
            assert_eq!(base.modpow(&exp, &m), expect, "{m_limbs} limbs, odd {odd}");
        }
    }

    #[test]
    fn montgomery_form_round_trips_and_multiplies() {
        let mut rng = SeededRandom::new(0xB1609);
        for _ in 0..64 {
            let m_limbs = 1 + (rng.next_u64() % 16) as usize;
            let mut m = random_limbs(&mut rng, m_limbs);
            m = m.add(&BigUint::from_u64(u64::from(!m.is_odd())));
            if m <= BigUint::one() {
                continue;
            }
            let mont = Montgomery::new(&m);
            let a = random_limbs(&mut rng, m_limbs).rem(&m);
            let b = random_limbs(&mut rng, m_limbs).rem(&m);
            let (am, bm) = (mont.enter(&a), mont.enter(&b));
            assert_eq!(mont.leave(&am), a);
            let mut out = vec![0xFFFF_FFFF_FFFF_FFFFu64; m_limbs + 1]; // stale output is overwritten
            mont.mul(&am, &bm, &mut out);
            assert_eq!(out[m_limbs], 0, "a finished product leaves the carry limb clear");
            assert_eq!(mont.leave(&out), a.mul(&b).rem(&m));
            assert_eq!(mont.leave(mont.one()), BigUint::one());
        }
    }

    #[test]
    fn modpow_zero_exponent_and_base_edges() {
        let m = BigUint::from_u64(0x1_0000_0001).mul(&BigUint::from_u64(97)).add(&BigUint::zero());
        let m = if m.is_odd() { m } else { m.add(&BigUint::one()) };
        assert_eq!(BigUint::from_u64(12345).modpow(&BigUint::zero(), &m), BigUint::one());
        assert_eq!(BigUint::zero().modpow(&BigUint::from_u64(5), &m), BigUint::zero());
        assert_eq!(BigUint::zero().modpow(&BigUint::zero(), &m), BigUint::one());
        assert_eq!(
            BigUint::from_u64(7).modpow(&BigUint::from_u64(3), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn prop_modinv_is_inverse() {
        let mut rng = SeededRandom::new(0xB1607);
        for _ in 0..256 {
            let a = rng.next_u64().max(1);
            let m = rng.next_u64().max(3);
            let ab = BigUint::from_u64(a);
            let mb = BigUint::from_u64(m);
            if let Some(inv) = ab.modinv(&mb) {
                assert_eq!(ab.mul(&inv).rem(&mb), BigUint::one());
            }
        }
    }
}
