use std::hash::{Hash, Hasher};

/// The CRC-64/ECMA-182 polynomial (normal form).
const CRC64_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// Slicing-by-8 lookup tables, built at compile time.
///
/// `CRC64_TABLES[0]` is the classic byte-at-a-time table: the CRC of one
/// byte `i` from a zero register. `CRC64_TABLES[k][i]` is that byte followed
/// by `k` zero bytes, so [`crc64_word`] can fold the eight bytes of a word in
/// independent lookups instead of eight dependent steps.
static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ CRC64_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev >> 56) as usize] ^ (prev << 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC-64/ECMA checksum of the eight bytes `bytes`, starting from
/// `init`: equal to `crc64(init, &bytes)`, in eight independent table
/// lookups instead of eight dependent ones.
#[inline]
fn crc64_word(init: u64, bytes: [u8; 8]) -> u64 {
    // The register is 64 bits wide, so after eight bytes every bit of
    // `init` has been shifted out through the table index: the result is
    // the XOR of each byte of `init ^ bytes` (MSB-first) pushed through the
    // table for its distance from the end.
    let x = init ^ u64::from_be_bytes(bytes);
    let t = &CRC64_TABLES;
    t[7][(x >> 56) as usize]
        ^ t[6][(x >> 48) as u8 as usize]
        ^ t[5][(x >> 40) as u8 as usize]
        ^ t[4][(x >> 32) as u8 as usize]
        ^ t[3][(x >> 24) as u8 as usize]
        ^ t[2][(x >> 16) as u8 as usize]
        ^ t[1][(x >> 8) as u8 as usize]
        ^ t[0][x as u8 as usize]
}

/// Computes the CRC-64/ECMA checksum of `bytes` starting from `init`.
///
/// This is the hash primitive the modeled MMU implements in hardware
/// (Table III: "Hash functions: CRC, latency 2 cycles").
///
/// # Examples
///
/// ```
/// use mehpt_hash::crc64;
///
/// assert_ne!(crc64(0, b"abc"), crc64(0, b"abd"));
/// assert_ne!(crc64(0, b"abc"), crc64(1, b"abc"));
/// ```
pub fn crc64(init: u64, bytes: &[u8]) -> u64 {
    let table = &CRC64_TABLES[0];
    let mut crc = init;
    for &b in bytes {
        crc = table[(((crc >> 56) as u8) ^ b) as usize] ^ (crc << 8);
    }
    crc
}

/// A [`Hasher`] computing CRC-64 with a nonlinear finalizer.
///
/// CRC is linear over GF(2): two hash functions that differ only in their
/// initial value would collide on exactly the same key pairs, which would
/// make the ways of a cuckoo table collide together and defeat the purpose
/// of multiple hash functions. The splitmix64 finalizer applied in
/// [`Hasher::finish`] breaks that linearity while keeping the hardware cost
/// model (a couple of cycles) realistic.
#[derive(Clone, Debug)]
pub struct Crc64Hasher {
    state: u64,
}

impl Crc64Hasher {
    /// Creates a hasher starting from the given initial CRC value.
    pub fn new(init: u64) -> Crc64Hasher {
        Crc64Hasher { state: init }
    }
}

impl Hasher for Crc64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: decorrelates CRC's linear structure.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.state = crc64(self.state, bytes);
    }

    /// The same value as [`Hasher::write`] on `i.to_ne_bytes()` (the
    /// default `write_u64`), one word at a time. Every page-table hash key
    /// is a `u64` tag, so this is the hot path of every probe.
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = crc64_word(self.state, i.to_ne_bytes());
    }
}

/// A family of per-way hash functions for a W-way cuckoo table.
///
/// Way `i` hashes with CRC-64 from a distinct initial value and a distinct
/// nonlinear finalizer input, so the ways behave as independent functions.
///
/// # Examples
///
/// ```
/// use mehpt_hash::HashFamily;
///
/// let family = HashFamily::new(3, 42);
/// let h0 = family.hash(0, &123u64);
/// let h1 = family.hash(1, &123u64);
/// assert_ne!(h0, h1);
/// ```
#[derive(Clone, Debug)]
pub struct HashFamily {
    inits: Vec<u64>,
}

impl HashFamily {
    /// Creates a family of `ways` hash functions derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`.
    pub fn new(ways: usize, seed: u64) -> HashFamily {
        assert!(ways > 0, "hash family needs at least one way");
        let mut state = seed ^ 0x6a09_e667_f3bc_c908;
        let inits = (0..ways)
            .map(|_| mehpt_types::rng::splitmix64(&mut state))
            .collect();
        HashFamily { inits }
    }

    /// The number of ways (hash functions) in the family.
    pub fn ways(&self) -> usize {
        self.inits.len()
    }

    /// Hashes `key` with way `way`'s function, returning a full 64-bit key.
    ///
    /// Table indices are produced by masking low bits of this value; an
    /// in-place resize consumes one more (or one fewer) bit of the same
    /// value, which is what makes the paper's in-place rehash work.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[inline]
    pub fn hash<K: Hash + ?Sized>(&self, way: usize, key: &K) -> u64 {
        let mut hasher = Crc64Hasher::new(self.inits[way]);
        key.hash(&mut hasher);
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_types::proptest_lite::{check, Gen};

    #[test]
    fn word_crc_equals_byte_crc() {
        check("word_crc_equals_byte_crc", 512, |g: &mut Gen| {
            let (init, key) = (g.u64(), g.u64());
            for bytes in [key.to_le_bytes(), key.to_be_bytes()] {
                assert_eq!(crc64_word(init, bytes), crc64(init, &bytes));
            }
        });
    }

    #[test]
    fn hashing_a_u64_takes_the_word_path_with_the_byte_result() {
        check("hashing_a_u64_takes_the_word_path", 256, |g: &mut Gen| {
            let (init, key) = (g.u64(), g.u64());
            let mut word = Crc64Hasher::new(init);
            key.hash(&mut word);
            let mut bytes = Crc64Hasher::new(init);
            bytes.write(&key.to_ne_bytes());
            assert_eq!(word.finish(), bytes.finish());
        });
    }

    #[test]
    fn family_hashes_are_pinned() {
        // `(ways, seed, way, key, hash)`, taken from the byte-at-a-time
        // CRC. Every page-table slot index derives from these values.
        const PINNED: [(usize, u64, usize, u64, u64); 12] = [
            (3, 0xec9_7ab1e, 0, 0x0, 0x7202_4d96_3f2d_8c48),
            (3, 0xec9_7ab1e, 1, 0x1, 0x5f6c_4797_6902_0ee1),
            (3, 0xec9_7ab1e, 2, 0x7f00_1234_5678, 0xc68f_425b_5391_998c),
            (3, 0xec9_7ab1e, 1, u64::MAX, 0x5b77_3f63_2c72_7e5c),
            (4, 0x1, 0, 0x1, 0x82f6_a056_6017_db8c),
            (4, 0x1, 3, 0x0, 0x7318_fd95_b66f_4902),
            (4, 0x1, 2, 0x7f00_1234_5678, 0x2794_0dae_491d_ee93),
            (4, 0x1, 3, u64::MAX, 0xfcf0_2a05_9ed7_762c),
            (2, 0xfeed, 0, 0x0, 0xeec7_d09c_7324_e5d6),
            (2, 0xfeed, 1, 0x1, 0x05ce_70e7_9a8f_a9be),
            (2, 0xfeed, 0, 0x7f00_1234_5678, 0xfa6b_b60a_cba2_09df),
            (2, 0xfeed, 1, u64::MAX, 0x21ba_e83c_d9bc_59da),
        ];
        for (ways, seed, way, key, hash) in PINNED {
            assert_eq!(
                HashFamily::new(ways, seed).hash(way, &key),
                hash,
                "ways={ways} seed={seed:#x} way={way} key={key:#x}"
            );
        }
    }

    #[test]
    fn crc_distinguishes_inputs() {
        assert_ne!(crc64(0, b"hello"), crc64(0, b"hellp"));
        assert_ne!(crc64(0, b"a"), crc64(0, b"ab"));
    }

    #[test]
    fn crc_depends_on_init() {
        assert_ne!(crc64(1, b"x"), crc64(2, b"x"));
    }

    #[test]
    fn hasher_is_deterministic() {
        let h = |k: u64| {
            let mut hasher = Crc64Hasher::new(7);
            k.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(99), h(99));
        assert_ne!(h(99), h(100));
    }

    #[test]
    fn family_ways_decorrelated() {
        // The ways must not collide on the same pairs: check that keys
        // colliding in the low bits of way 0 do not also collide in way 1.
        let family = HashFamily::new(2, 1);
        let mask = 0xff;
        let mut joint_collisions = 0;
        let mut w0_collisions = 0;
        for a in 0..2000u64 {
            let b = a + 5000;
            if family.hash(0, &a) & mask == family.hash(0, &b) & mask {
                w0_collisions += 1;
                if family.hash(1, &a) & mask == family.hash(1, &b) & mask {
                    joint_collisions += 1;
                }
            }
        }
        assert!(w0_collisions > 0, "test needs some way-0 collisions");
        // If ways were linear shifts of each other, every way-0 collision
        // would also be a way-1 collision.
        assert!(
            joint_collisions * 16 <= w0_collisions,
            "{joint_collisions}/{w0_collisions} joint collisions — ways correlated"
        );
    }

    #[test]
    fn low_bits_look_uniform() {
        let family = HashFamily::new(1, 3);
        let mut buckets = [0u32; 16];
        for k in 0..16_000u64 {
            buckets[(family.hash(0, &k) & 0xf) as usize] += 1;
        }
        for b in buckets {
            assert!((800..1200).contains(&b), "bucket {b}");
        }
    }

    #[test]
    fn seeds_produce_different_families() {
        let f1 = HashFamily::new(1, 1);
        let f2 = HashFamily::new(1, 2);
        assert_ne!(f1.hash(0, &42u64), f2.hash(0, &42u64));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        HashFamily::new(0, 0);
    }
}
