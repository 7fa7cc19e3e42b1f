//! Arithmetic modulo the Mersenne prime `p = 2^127 - 1`.
//!
//! The Schnorr group lives in `GF(p)*`. A Mersenne modulus makes reduction
//! a pair of shift-adds, which keeps the simulated S-ARP hosts fast enough
//! to run thousands of signed resolutions per experiment while still doing
//! *real* modular exponentiation (so the latency asymmetry between sign
//! and verify is genuine, not a constant pulled from a table).

/// The field modulus, `2^127 - 1` (a Mersenne prime).
pub const P: u128 = (1u128 << 127) - 1;

/// The exponent modulus used for Schnorr arithmetic: the group order of
/// `GF(p)*`, i.e. `p - 1`.
pub const N: u128 = P - 1;

/// The Schnorr group generator. Its exact order is a large divisor of
/// `p - 1`; since exponents are reduced modulo `p - 1`, correctness
/// holds by Fermat's little theorem regardless.
pub const G: u128 = 3;

/// `G^(j·16^i)` at `[i][j]`: one row per hex digit of a 128-bit
/// exponent, 8 KB computed at compile time.
static G_POWERS: [[u128; 16]; 32] = g_powers();

const fn g_powers() -> [[u128; 16]; 32] {
    let mut table = [[1; 16]; 32];
    // G^(16^i) for the row being filled.
    let mut base = G;
    let mut i = 0;
    while i < 32 {
        let mut j = 1;
        while j < 16 {
            table[i][j] = mul(table[i][j - 1], base);
            j += 1;
        }
        base = mul(table[i][15], base);
        i += 1;
    }
    table
}

/// Reduces an arbitrary `u128` modulo `P` using Mersenne folding.
pub const fn reduce(x: u128) -> u128 {
    // x = hi * 2^127 + lo, and 2^127 ≡ 1 (mod P).
    let folded = (x >> 127) + (x & P);
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// Adds two field elements.
pub const fn add(a: u128, b: u128) -> u128 {
    // a, b < P < 2^127, so the sum cannot overflow u128.
    reduce(a + b)
}

/// Multiplies two field elements via 64-bit limbs and Mersenne folding.
pub const fn mul(a: u128, b: u128) -> u128 {
    debug_assert!(a < P && b < P);
    let (a_hi, a_lo) = (a >> 64, a as u64 as u128);
    let (b_hi, b_lo) = (b >> 64, b as u64 as u128);

    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;

    // 256-bit product = hh·2^128 + (lh + hl)·2^64 + ll, accumulated into
    // (hi, lo) 128-bit halves.
    let mid = lh + hl; // ≤ 2^128 - 2^65 + ... fits: each ≤ (2^64-1)^2 < 2^128/2
    let (lo1, carry1) = ll.overflowing_add(mid << 64);
    let hi = hh + (mid >> 64) + carry1 as u128;

    // value = hi·2^128 + lo1; 2^128 ≡ 2 (mod P) because 2^127 ≡ 1.
    // hi < 2^126 (since the product of two 127-bit numbers is < 2^254),
    // so 2·hi cannot overflow.
    reduce(reduce(hi << 1) + reduce(lo1))
}

/// Raises `base` to `exp` in the field (square-and-multiply).
pub fn pow(base: u128, mut exp: u128) -> u128 {
    let mut base = reduce(base);
    let mut acc: u128 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

/// Raises [`G`] to `exp`, equal to `pow(G, exp)`: one multiply per
/// nonzero hex digit of `exp`, each a lookup in a compile-time table,
/// where square-and-multiply takes about 190 for a full-size exponent.
pub fn pow_g(exp: u128) -> u128 {
    let mut acc = 1;
    for (i, row) in G_POWERS.iter().enumerate() {
        let digit = (exp >> (4 * i)) & 0xf;
        if digit != 0 {
            acc = mul(acc, row[digit as usize]);
        }
    }
    acc
}

/// Multiplies `a * b (mod m)` for an arbitrary modulus `m < 2^127`, using
/// shift-and-add. Used for exponent arithmetic modulo [`N`], which is not
/// Mersenne. Slower than [`mul`], but only invoked a handful of times per
/// signature.
pub fn mulmod(mut a: u128, mut b: u128, m: u128) -> u128 {
    debug_assert!(m > 0 && m < (1u128 << 127));
    a %= m;
    let mut acc: u128 = 0;
    while b > 0 {
        if b & 1 == 1 {
            acc += a;
            if acc >= m {
                acc -= m;
            }
        }
        a <<= 1;
        if a >= m {
            a -= m;
        }
        b >>= 1;
    }
    acc
}

/// Computes `a - b (mod m)`.
pub const fn submod(a: u128, b: u128, m: u128) -> u128 {
    let a = a % m;
    let b = b % m;
    if a >= b {
        a - b
    } else {
        m - b + a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_is_mersenne_127() {
        assert_eq!(P, 170141183460469231731687303715884105727);
        assert_eq!(N, P - 1);
    }

    #[test]
    fn reduce_fixed_points() {
        assert_eq!(reduce(0), 0);
        assert_eq!(reduce(P), 0);
        assert_eq!(reduce(P - 1), P - 1);
        assert_eq!(reduce(P + 5), 5);
        assert_eq!(reduce(u128::MAX), reduce((u128::MAX >> 127) + P));
    }

    #[test]
    fn mul_matches_mulmod_reference() {
        // Cross-check the fast Mersenne multiply against the slow generic
        // shift-add multiply on structured and pseudo-random inputs.
        let mut x: u128 = 0x0123_4567_89ab_cdef;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = x % P;
            let b = (x >> 13 ^ x << 7) % P;
            assert_eq!(mul(a, b), mulmod(a, b, P), "a={a} b={b}");
        }
        assert_eq!(mul(P - 1, P - 1), mulmod(P - 1, P - 1, P));
        assert_eq!(mul(0, 12345), 0);
        assert_eq!(mul(1, P - 1), P - 1);
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) ≡ 1 (mod p) for a ≠ 0 — strong evidence the whole
        // exponentiation pipeline is correct.
        for a in [2u128, 3, 65537, 0xdead_beef] {
            assert_eq!(pow(a, N), 1, "a={a}");
        }
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(pow(2, 0), 1);
        assert_eq!(pow(2, 10), 1024);
        assert_eq!(pow(3, 4), 81);
        assert_eq!(pow(2, 127), 1); // 2^127 = P + 1 ≡ 1
    }

    #[test]
    fn pow_g_matches_square_and_multiply() {
        let mut exponents = vec![0, 1, 2, 15, 16, N - 1, N, P, u128::MAX];
        let mut x: u128 = 0x5eed_0f9a_b1e5;
        for _ in 0..2_000 {
            x = x.wrapping_mul(0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645).wrapping_add(1);
            // Any width up to 128 bits, so short exponents' zero digits
            // come up as well as full-size ones.
            exponents.push(x >> (x % 128));
        }
        for exp in exponents {
            assert_eq!(pow_g(exp), pow(G, exp), "exp={exp:#x}");
        }
    }

    #[test]
    fn submod_wraps() {
        assert_eq!(submod(5, 3, 100), 2);
        assert_eq!(submod(3, 5, 100), 98);
        assert_eq!(submod(0, 1, N), N - 1);
    }

    #[test]
    fn mulmod_agrees_with_small_modulus() {
        assert_eq!(mulmod(7, 9, 10), 3);
        assert_eq!(
            mulmod(u128::from(u64::MAX), u128::from(u64::MAX), 97),
            (u64::MAX as u128 % 97) * (u64::MAX as u128 % 97) % 97
        );
    }

    #[test]
    fn add_wraps_at_p() {
        assert_eq!(add(P - 1, 1), 0);
        assert_eq!(add(P - 1, 2), 1);
        assert_eq!(add(3, 4), 7);
    }
}
