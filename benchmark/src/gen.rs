//! Seeded corpus generators and the fnv1a64 digest that pins them.
//!
//! The benchmark owns its generators (it does not call `s3-workloads`'
//! `TextGen`/`LineItemGen`), so a later change to those cannot silently
//! change what the benchmark measures. The seed moves only the *order* of
//! what is drawn — vocabulary, Zipf weights, row layout and value ranges
//! are constants — so every seed costs the engine the same work to within
//! sampling error.

/// Bytes per store block on every workload.
pub const BLOCK_BYTES: usize = 64 * 1024;

const VOCAB: usize = 60_000;
const ZIPF_S: f64 = 1.1;
const WORDS_PER_LINE: usize = 10;

/// SplitMix64: one add, two multiplies, no state beyond a counter.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for an independent stream of the same seed.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (widening multiply; `n` far below 2^32 here).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// 64-bit FNV-1a, continuing from `h`.
pub fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

const CONSONANTS: &[u8; 12] = b"btkdlmnprsvz";
const VOWELS: &[u8; 5] = b"aeiou";
/// Distinct first syllables, hence distinct two-letter prefixes.
pub const SYLLABLES: usize = CONSONANTS.len() * VOWELS.len();

fn push_syllables(mut n: usize, out: &mut Vec<u8>) {
    while n > 0 {
        let d = n % SYLLABLES;
        n /= SYLLABLES;
        out.push(CONSONANTS[d % CONSONANTS.len()]);
        out.push(VOWELS[d / CONSONANTS.len()]);
    }
}

/// The word of frequency rank `rank` (0 is the most frequent). Its first
/// syllable is `(rank + 1) % 60`, so the 60 heaviest words carry 60
/// different prefixes. Every fourth word is lengthened past 8 bytes so the
/// interner's hashed long-key path is exercised beside the inline one.
pub fn word(rank: usize, out: &mut Vec<u8>) {
    let n = rank + 1;
    push_syllables(n, out);
    if n.is_multiple_of(4) {
        push_syllables(n / 4 + 3_607, out);
    }
}

/// The two-letter prefix shared by every word with `(rank + 1) % 60 == d`.
pub fn prefix(d: usize) -> String {
    let mut out = Vec::new();
    push_syllables(d % SYLLABLES + SYLLABLES, &mut out);
    String::from_utf8(out[..2].to_vec()).expect("syllables are ASCII")
}

/// Walker alias table over Zipf(`ZIPF_S`) weights: one draw per token.
struct Alias {
    prob: Vec<u32>,
    alias: Vec<u32>,
}

impl Alias {
    fn zipf(n: usize, s: f64) -> Self {
        let w: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = w.iter().sum();
        let mut scaled: Vec<f64> = w.iter().map(|x| x / total * n as f64).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        let mut prob = vec![u32::MAX; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        while let (Some(&s_i), Some(&l_i)) = (small.last(), large.last()) {
            small.pop();
            prob[s_i] = (scaled[s_i] * u32::MAX as f64) as u32;
            alias[s_i] = l_i as u32;
            scaled[l_i] -= 1.0 - scaled[s_i];
            if scaled[l_i] < 1.0 {
                large.pop();
                small.push(l_i);
            }
        }
        Alias { prob, alias }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.next_u64();
        let i = (((u >> 32) * self.prob.len() as u64) >> 32) as usize;
        if (u as u32) <= self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// At least `bytes` of Zipf text: 60k-word vocabulary, exponent 1.1, ten
/// words to a line, ending on a line boundary.
pub fn text(seed: u64, bytes: usize) -> Vec<u8> {
    let mut words = Vec::new();
    let mut offs = Vec::with_capacity(VOCAB + 1);
    for r in 0..VOCAB {
        offs.push(words.len());
        word(r, &mut words);
    }
    offs.push(words.len());
    let table = Alias::zipf(VOCAB, ZIPF_S);
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(bytes + 256);
    while out.len() < bytes {
        for i in 0..WORDS_PER_LINE {
            if i > 0 {
                out.push(b' ');
            }
            let r = table.draw(&mut rng);
            out.extend_from_slice(&words[offs[r]..offs[r + 1]]);
        }
        out.push(b'\n');
    }
    out
}

const SHIP_INSTRUCT: [&str; 4] = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];
const SHIP_MODE: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const COMMENT: [&str; 8] =
    ["carefully", "quickly", "furiously", "deposits", "accounts", "requests", "packages", "ideas"];

fn push_uint(mut n: u64, width: usize, out: &mut Vec<u8>) {
    let mut buf = [b'0'; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let i = i.min(buf.len() - width);
    out.extend_from_slice(&buf[i..]);
}

fn push_date(day: usize, out: &mut Vec<u8>) {
    push_uint(1992 + day as u64 / 360, 4, out);
    out.push(b'-');
    push_uint((day % 360 / 30) as u64 + 1, 2, out);
    out.push(b'-');
    push_uint((day % 30) as u64 + 1, 2, out);
}

/// At least `bytes` of 16-column `lineitem` rows in TPC-H text layout,
/// ascending unique order keys, `l_quantity` uniform in 1..=50 (so the
/// threshold `> q` selects `(50 - q) / 50` of the rows).
pub fn lineitem(seed: u64, bytes: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(bytes + 256);
    let mut orderkey = 0u64;
    while out.len() < bytes {
        orderkey += 1;
        let quantity = rng.below(50) as u64 + 1;
        let cents = quantity * (90_000 + rng.below(20_000) as u64);
        let day = rng.below(2_500);
        let uint = |n: u64, out: &mut Vec<u8>| {
            push_uint(n, 1, out);
            out.push(b'|');
        };
        uint(orderkey, &mut out);
        uint(rng.below(200_000) as u64 + 1, &mut out);
        uint(rng.below(10_000) as u64 + 1, &mut out);
        uint(rng.below(7) as u64 + 1, &mut out);
        uint(quantity, &mut out);
        push_uint(cents / 100, 1, &mut out);
        out.push(b'.');
        push_uint(cents % 100, 2, &mut out);
        out.extend_from_slice(b"|0.");
        push_uint(rng.below(11) as u64, 2, &mut out);
        out.extend_from_slice(b"|0.0");
        uint(rng.below(9) as u64, &mut out);
        out.extend_from_slice(&[b"RAN"[rng.below(3)], b'|', b"OF"[rng.below(2)], b'|']);
        for d in [day, day + 30 + rng.below(60), day + 1 + rng.below(30)] {
            push_date(d, &mut out);
            out.push(b'|');
        }
        out.extend_from_slice(SHIP_INSTRUCT[rng.below(4)].as_bytes());
        out.push(b'|');
        out.extend_from_slice(SHIP_MODE[rng.below(7)].as_bytes());
        out.push(b'|');
        out.extend_from_slice(COMMENT[rng.below(8)].as_bytes());
        out.push(b' ');
        out.extend_from_slice(COMMENT[rng.below(8)].as_bytes());
        out.push(b'\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for gen in [text as fn(u64, usize) -> Vec<u8>, lineitem] {
            let a = gen(31, 200_000);
            assert_eq!(fnv1a64(&a), fnv1a64(&gen(31, 200_000)));
            assert_ne!(fnv1a64(&a), fnv1a64(&gen(32, 200_000)));
            assert!(a.len() >= 200_000 && a.len() < 200_000 + 256);
            assert_eq!(a.last(), Some(&b'\n'));
        }
    }

    /// The full-size corpora of seed 31 are pinned in `main.rs` and checked
    /// on every run; these pin the same generators at a size a test can afford.
    #[test]
    fn small_corpora_are_pinned() {
        assert_eq!(fnv1a64(&text(31, 100_000)), 0xa29e_c01c_bdc6_cb4e);
        assert_eq!(fnv1a64(&lineitem(31, 100_000)), 0x6bcb_9f15_83f9_f80e);
    }

    #[test]
    fn words_are_distinct_and_prefixes_follow_the_rank() {
        let mut seen = std::collections::HashSet::new();
        for r in 0..VOCAB {
            let mut w = Vec::new();
            word(r, &mut w);
            assert!(w.starts_with(prefix((r + 1) % SYLLABLES).as_bytes()));
            assert!(seen.insert(w), "rank {r} repeats a word");
        }
    }

    #[test]
    fn zipf_draws_follow_the_weights() {
        let t = Alias::zipf(1000, ZIPF_S);
        let mut rng = Rng::new(7);
        let n = 400_000;
        let top = (0..n).filter(|_| t.draw(&mut rng) == 0).count() as f64 / n as f64;
        let h: f64 = (1..=1000).map(|r| (r as f64).powf(-ZIPF_S)).sum();
        assert!((top - 1.0 / h).abs() < 0.01, "rank-0 share {top} vs {}", 1.0 / h);
    }

    #[test]
    fn lineitem_rows_parse_and_quantities_are_uniform() {
        let rows = lineitem(5, 2_000_000);
        let mut over = [0usize; 2];
        let mut n = 0;
        for (i, line) in rows.split(|&b| b == b'\n').filter(|l| !l.is_empty()).enumerate() {
            assert_eq!(line.split(|&b| b == b'|').count(), 16);
            let row = s3_workloads::lineitem::parse_row_bytes(line).expect("row parses");
            assert_eq!(row.orderkey, i as u64 + 1);
            assert!((1..=50).contains(&row.quantity));
            over[0] += (row.quantity > 5) as usize;
            over[1] += (row.quantity > 45) as usize;
            n += 1;
        }
        assert!((over[0] as f64 / n as f64 - 0.9).abs() < 0.01);
        assert!((over[1] as f64 / n as f64 - 0.1).abs() < 0.01);
    }
}
