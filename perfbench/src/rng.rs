//! The benchmark's own pseudo-random generator.
//!
//! xoshiro256** seeded by SplitMix64 key expansion, with rejection
//! sampling for bounded integers. The stream is bit-identical to the
//! workspace's `rand::rngs::StdRng` stand-in (`seed_from_u64`,
//! `random_range(0..n)`, `random::<bool>()`), which is what lets the
//! `audited-exact` instances at the default seed equal E22's. Owning the
//! generator here means no edit to the program's crates can change a
//! workload.

/// One SplitMix64 step: advances `state` and returns a mixed word.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed for item `index` of stream `tag` under run seed `seed`.
pub fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    let mut s = seed ^ tag.rotate_left(32);
    let a = splitmix(&mut s);
    let mut t = a ^ index;
    splitmix(&mut t)
}

/// xoshiro256**.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator expanded from one `u64` seed.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix(&mut sm);
        }
        if s == [0; 4] {
            s = [
                0x9e37_79b9_7f4a_7c15,
                0x6a09_e667_f3bc_c909,
                0xbb67_ae85_84ca_a73b,
                1,
            ];
        }
        Rng { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// A uniform value in `0..span` (exactly uniform, by rejection).
    pub fn below(&mut self, span: usize) -> usize {
        assert!(span > 0, "empty range");
        let span = span as u64;
        if span.is_power_of_two() {
            return (self.next_u64() & (span - 1)) as usize;
        }
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return (v % span) as usize;
            }
        }
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform value in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            p.swap(i, j);
        }
        p
    }
}
