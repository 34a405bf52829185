//! Real (executable) jobs for the `s3-engine` execution engine.
//!
//! Two families, matching Section V-B:
//!
//! - [`PatternWordCount`] — the paper's modified wordcount that "counts
//!   only the words that match a user-specified pattern"; different
//!   patterns make different jobs over the same input.
//! - [`SelectionJob`] — the SQL selection over `lineitem`
//!   (`SELECT l_orderkey, ... WHERE l_quantity > VAL`); different
//!   thresholds make different jobs.

use crate::lineitem::{parse_row_bytes, LineItem};
use s3_engine::{JobShape, MapReduceJob};

/// Which words a [`PatternWordCount`] counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordPattern {
    /// Count every word.
    All,
    /// Count words starting with the given prefix.
    Prefix(String),
    /// Count words containing the given substring.
    Contains(String),
    /// Count words of exactly the given length.
    Length(usize),
}

impl WordPattern {
    /// Does `word` match?
    pub fn matches(&self, word: &str) -> bool {
        self.matches_bytes(word.as_bytes())
    }

    /// Byte-level [`WordPattern::matches`] for the zero-copy scan path.
    /// Prefix/contains are byte comparisons and length counts bytes, so the
    /// two views agree on any UTF-8 word.
    #[inline]
    pub fn matches_bytes(&self, word: &[u8]) -> bool {
        match self {
            WordPattern::All => true,
            WordPattern::Prefix(p) => has_prefix(word, p.as_bytes()),
            WordPattern::Contains(s) => memchr::find(word, s.as_bytes()).is_some(),
            WordPattern::Length(n) => word.len() == *n,
        }
    }
}

/// `word.starts_with(prefix)`, with prefixes of up to 4 bytes compared in
/// line: `starts_with` on slices of unknown length lowers to an out-of-line
/// `bcmp` call, which costs more than the two- or three-byte compare a
/// typical pattern needs — and this predicate runs once per token per job.
#[inline]
fn has_prefix(word: &[u8], prefix: &[u8]) -> bool {
    if prefix.len() > 4 {
        return word.starts_with(prefix);
    }
    word.len() >= prefix.len() && prefix.iter().zip(word).all(|(p, w)| p == w)
}

/// Pattern-filtered wordcount.
#[derive(Debug, Clone)]
pub struct PatternWordCount {
    /// The filter; jobs differ by pattern.
    pub pattern: WordPattern,
}

impl PatternWordCount {
    /// Count all words.
    pub fn all() -> Self {
        PatternWordCount {
            pattern: WordPattern::All,
        }
    }

    /// Count words with the given prefix.
    pub fn prefix(p: impl Into<String>) -> Self {
        PatternWordCount {
            pattern: WordPattern::Prefix(p.into()),
        }
    }
}

impl MapReduceJob for PatternWordCount {
    type K = String;
    type V = i64;
    type Out = i64;

    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        for word in line.split_whitespace() {
            if self.pattern.matches(word) {
                emit(word.to_string(), 1);
            }
        }
    }

    fn combine(&self, _key: &String, values: Vec<i64>) -> Vec<i64> {
        vec![values.iter().sum()]
    }

    fn reduce(&self, _key: &String, values: &[i64]) -> Option<i64> {
        Some(values.iter().sum())
    }

    // Token-identity fast path: the engine folds counts under raw token
    // bytes and builds each distinct word's String exactly once. Only
    // `Prefix` patterns promise anything about a matching word's leading
    // bytes.
    fn shape(&self) -> JobShape<'_> {
        let prefix = match &self.pattern {
            WordPattern::Prefix(p) => p.as_bytes(),
            _ => b"",
        };
        JobShape::TokenIdentity { prefix }
    }

    fn combine_fold(&self, acc: &mut i64, next: i64) -> Option<i64> {
        *acc += next;
        None
    }

    fn map_token(&self, token: &[u8], emit: &mut dyn FnMut(String, i64)) {
        if self.pattern.matches_bytes(token) {
            emit(String::from_utf8_lossy(token).into_owned(), 1);
        }
    }

    fn token_value(&self, token: &[u8]) -> Option<i64> {
        self.pattern.matches_bytes(token).then_some(1)
    }

    fn token_key(&self, token: &[u8]) -> Option<String> {
        Some(String::from_utf8_lossy(token).into_owned())
    }
}

/// The SQL selection of Section V-G:
/// `SELECT l_orderkey, l_extendedprice, l_discount FROM lineitem
///  WHERE l_quantity > threshold`.
///
/// Key = orderkey (zero-padded so ordering is numeric), value = the
/// projected columns. Reduce is the identity (selection has no
/// aggregation); it still runs through the reduce phase as in the paper's
/// MapReduce translation (30 reduce tasks).
#[derive(Debug, Clone)]
pub struct SelectionJob {
    /// `VAL` in the paper's query; `> 45` gives ~10% selectivity.
    pub quantity_threshold: u32,
}

impl SelectionJob {
    /// The paper's tuning: ~10% of tuples selected.
    pub fn paper_selectivity() -> Self {
        SelectionJob {
            quantity_threshold: 45,
        }
    }
}

impl MapReduceJob for SelectionJob {
    type K = String;
    type V = String;
    type Out = String;

    fn map(&self, line: &str, emit: &mut dyn FnMut(String, String)) {
        self.map_bytes(line.as_bytes(), emit);
    }

    fn map_bytes(&self, line: &[u8], emit: &mut dyn FnMut(String, String)) {
        if let Some(row) = parse_row_bytes(line) {
            if row.quantity > self.quantity_threshold {
                let (key, value) = selection_pair(&row);
                emit(key, value);
            }
        }
    }

    fn reduce(&self, _key: &String, values: &[String]) -> Option<String> {
        // Selection: pass the (single) projected tuple through.
        values.first().cloned()
    }
}

/// The pair a selected row emits: key `{orderkey:012}`, value
/// `{orderkey}|{dollars}.{cents:02}|0.{discount:02}`. Written digit by digit
/// into exactly-sized strings — this runs once per selected row, and two
/// `format!` passes cost more than the rest of the row's map.
fn selection_pair(row: &LineItem) -> (String, String) {
    let (dollars, cents) = (row.extendedprice_cents / 100, row.extendedprice_cents % 100);
    let discount = u64::from(row.discount_pct);
    let mut key = String::with_capacity(decimal_len(row.orderkey).max(12));
    push_decimal(&mut key, row.orderkey, 12);
    let mut value = String::with_capacity(
        decimal_len(row.orderkey) + decimal_len(dollars) + decimal_len(discount).max(2) + 7,
    );
    push_decimal(&mut value, row.orderkey, 1);
    value.push('|');
    push_decimal(&mut value, dollars, 1);
    value.push('.');
    push_decimal(&mut value, cents, 2);
    value.push_str("|0.");
    push_decimal(&mut value, discount, 2);
    (key, value)
}

/// Digits in `n`'s decimal form.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Append `n` in decimal, zero-padded to at least `width` (≤ 20) digits —
/// what `{:0width$}` writes.
fn push_decimal(out: &mut String, mut n: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let at = at.min(digits.len().saturating_sub(width));
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Distributed grep (the original MapReduce paper's canonical example):
/// emit every line containing the pattern, keyed by the line itself, with
/// its occurrence count.
#[derive(Debug, Clone)]
pub struct GrepJob {
    /// Substring to search for.
    pub pattern: String,
}

impl MapReduceJob for GrepJob {
    type K = String;
    type V = i64;
    type Out = i64;

    fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
        if line.contains(self.pattern.as_str()) {
            emit(line.to_string(), 1);
        }
    }

    fn map_bytes(&self, line: &[u8], emit: &mut dyn FnMut(String, i64)) {
        if memchr::find(line, self.pattern.as_bytes()).is_some() {
            emit(String::from_utf8_lossy(line).into_owned(), 1);
        }
    }

    fn combine(&self, _key: &String, values: Vec<i64>) -> Vec<i64> {
        vec![values.iter().sum()]
    }

    fn reduce(&self, _key: &String, values: &[i64]) -> Option<i64> {
        Some(values.iter().sum())
    }

    // Grep is line-based (no per-token map), but its count combiner is a
    // streaming fold.
    fn shape(&self) -> JobShape<'_> {
        JobShape::LineFold
    }

    fn combine_fold(&self, acc: &mut i64, next: i64) -> Option<i64> {
        *acc += next;
        None
    }
}

/// Word-length histogram: a tiny-key-space aggregation where the combiner
/// does nearly all the work (the opposite regime from wordcount's wide key
/// space).
#[derive(Debug, Clone, Default)]
pub struct WordLengthHistogram;

impl MapReduceJob for WordLengthHistogram {
    type K = usize;
    type V = i64;
    type Out = i64;

    fn map(&self, line: &str, emit: &mut dyn FnMut(usize, i64)) {
        for w in line.split_whitespace() {
            emit(w.len(), 1);
        }
    }

    fn combine(&self, _key: &usize, values: Vec<i64>) -> Vec<i64> {
        vec![values.iter().sum()]
    }

    fn reduce(&self, _key: &usize, values: &[i64]) -> Option<i64> {
        Some(values.iter().sum())
    }

    // No token-identity fast path: the key space (lengths) is far smaller
    // than the token space, so interning every distinct word would cost
    // more than the per-token emit it saves.
    fn shape(&self) -> JobShape<'_> {
        JobShape::TokenFold { prefix: b"" }
    }

    fn combine_fold(&self, acc: &mut i64, next: i64) -> Option<i64> {
        *acc += next;
        None
    }

    fn map_token(&self, token: &[u8], emit: &mut dyn FnMut(usize, i64)) {
        emit(token.len(), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineitem::LineItemGen;
    use crate::text::TextGen;
    use s3_engine::{run_job, run_merged, BlockStore, ExecConfig};
    use s3_sim::SimRng;

    fn text_store() -> BlockStore {
        let g = TextGen::new(2000, 1.1);
        let text = g.generate(&mut SimRng::seed_from_u64(11), 100_000);
        BlockStore::from_text(&text, 8_192)
    }

    fn lineitem_store() -> BlockStore {
        let text = LineItemGen::new().generate(&mut SimRng::seed_from_u64(12), 200_000);
        BlockStore::from_text(&text, 16_384)
    }

    #[test]
    fn pattern_variants_filter() {
        assert!(WordPattern::All.matches("anything"));
        assert!(WordPattern::Prefix("ab".into()).matches("abc"));
        assert!(!WordPattern::Prefix("ab".into()).matches("ba"));
        assert!(WordPattern::Contains("el".into()).matches("hello"));
        assert!(WordPattern::Length(3).matches("abc"));
        assert!(!WordPattern::Length(3).matches("ab"));
    }

    #[test]
    fn prefix_match_agrees_with_starts_with_at_every_length() {
        // Both sides of the inline/`starts_with` split, words shorter than
        // the prefix, and NUL as an ordinary byte.
        let words: [&[u8]; 9] =
            [b"", b"a", b"ab", b"abc", b"abcd", b"abcde", b"abcdefghij", b"ab\0d", b"xbcd"];
        for prefix in ["", "a", "ab", "abc", "abcd", "abcde", "abcdefghi", "ab\0", "b"] {
            let pattern = WordPattern::Prefix(prefix.into());
            for word in words {
                assert_eq!(
                    pattern.matches_bytes(word),
                    word.starts_with(prefix.as_bytes()),
                    "{prefix:?} vs {word:?}"
                );
            }
        }
    }

    #[test]
    fn wordcount_all_counts_every_token() {
        let store = text_store();
        let out = run_job(&PatternWordCount::all(), &store, &ExecConfig::default());
        let total: i64 = out.records.values().sum();
        let expected = store
            .iter()
            .map(|b| memchr::tokens(b).count())
            .sum::<usize>() as i64;
        assert_eq!(total, expected);
    }

    #[test]
    fn different_patterns_are_different_jobs_on_one_scan() {
        let store = text_store();
        let jobs = [
            PatternWordCount::prefix("ba"),
            PatternWordCount::prefix("ta"),
            PatternWordCount::all(),
        ];
        let refs: Vec<&PatternWordCount> = jobs.iter().collect();
        let merged = run_merged(&refs, &store, &ExecConfig::default());
        for (j, m) in jobs.iter().zip(&merged) {
            let solo = run_job(j, &store, &ExecConfig::default());
            assert_eq!(m.records, solo.records);
        }
        // The "all" job strictly contains the filtered jobs' keys.
        for key in merged[0].records.keys() {
            assert!(merged[2].records.contains_key(key));
        }
    }

    #[test]
    fn selection_pair_is_byte_identical_to_the_format_form() {
        let formatted = |row: &LineItem| {
            (
                format!("{:012}", row.orderkey),
                format!(
                    "{}|{}.{:02}|0.{:02}",
                    row.orderkey,
                    row.extendedprice_cents / 100,
                    row.extendedprice_cents % 100,
                    row.discount_pct
                ),
            )
        };
        let mut rows = Vec::new();
        let (mut gen, mut rng) = (LineItemGen::new(), SimRng::seed_from_u64(13));
        let mut sink = String::new();
        for _ in 0..2000 {
            rows.push(gen.append_row(&mut rng, &mut sink));
        }
        // Edges: keys at and past the pad width, one-digit and zero cents,
        // discounts 0 and 10 (and one no generated row has), u64 extremes.
        for orderkey in [0, 9, 999_999_999_999, 1_000_000_000_000, 123_456_789_012_345, u64::MAX] {
            for extendedprice_cents in [0, 7, 99, 100, 109, 9_000_000, u64::MAX] {
                for discount_pct in [0, 5, 10, 123, u32::MAX] {
                    rows.push(LineItem { orderkey, quantity: 50, extendedprice_cents, discount_pct });
                }
            }
        }
        for row in &rows {
            let (key, value) = selection_pair(row);
            assert_eq!(key.capacity(), key.len(), "key of {row:?} is sized exactly");
            assert_eq!(value.capacity(), value.len(), "value of {row:?} is sized exactly");
            assert_eq!((key, value), formatted(row));
        }
        // And through the job: what `map_bytes` emits for a generated row.
        let line = sink.lines().next().expect("rows were generated");
        let mut emitted = Vec::new();
        SelectionJob { quantity_threshold: 0 }.map_bytes(line.as_bytes(), &mut |k, v| emitted.push((k, v)));
        assert_eq!(emitted, vec![formatted(&rows[0])]);
    }

    #[test]
    fn selection_matches_predicate_exactly() {
        let store = lineitem_store();
        let job = SelectionJob::paper_selectivity();
        let out = run_job(&job, &store, &ExecConfig::default());
        let expected = store
            .iter()
            .flat_map(memchr::lines)
            .filter(|l| crate::lineitem::parse_row_bytes(l).is_some_and(|r| r.quantity > 45))
            .count();
        assert_eq!(out.records.len(), expected);
        // ~10% selectivity on this data.
        let total: usize = store.iter().flat_map(memchr::lines).count();
        let rate = expected as f64 / total as f64;
        assert!((0.05..0.15).contains(&rate), "selectivity {rate}");
    }

    #[test]
    fn selection_jobs_share_scan_correctly() {
        let store = lineitem_store();
        let jobs = [
            SelectionJob {
                quantity_threshold: 45,
            },
            SelectionJob {
                quantity_threshold: 25,
            },
            SelectionJob {
                quantity_threshold: 49,
            },
        ];
        let refs: Vec<&SelectionJob> = jobs.iter().collect();
        let merged = run_merged(&refs, &store, &ExecConfig::default());
        for (j, m) in jobs.iter().zip(&merged) {
            let solo = run_job(j, &store, &ExecConfig::default());
            assert_eq!(m.records, solo.records, "threshold {}", j.quantity_threshold);
        }
        // Lower threshold selects strictly more.
        assert!(merged[1].records.len() > merged[0].records.len());
        assert!(merged[0].records.len() > merged[2].records.len());
    }

    #[test]
    fn grep_finds_exactly_the_matching_lines() {
        let store = text_store();
        let g = TextGen::new(2000, 1.1);
        let needle = g.word(3).to_string(); // a frequent word
        let job = GrepJob {
            pattern: needle.clone(),
        };
        let out = run_job(&job, &store, &ExecConfig::default());
        let expected: usize = store
            .iter()
            .flat_map(memchr::lines)
            .filter(|l| memchr::find(l, needle.as_bytes()).is_some())
            .count();
        let total: i64 = out.records.values().sum();
        assert_eq!(total as usize, expected);
        for line in out.records.keys() {
            assert!(line.contains(needle.as_str()));
        }
    }

    #[test]
    fn grep_shares_scan_with_wordcount_family() {
        // Grep jobs share scans with each other (same K/V schema as
        // PatternWordCount: String -> i64).
        let store = text_store();
        let jobs = [
            GrepJob { pattern: "ba".into() },
            GrepJob { pattern: "zu".into() },
        ];
        let refs: Vec<&GrepJob> = jobs.iter().collect();
        let merged = run_merged(&refs, &store, &ExecConfig::default());
        for (j, m) in jobs.iter().zip(&merged) {
            let solo = run_job(j, &store, &ExecConfig::default());
            assert_eq!(m.records, solo.records, "pattern {}", j.pattern);
        }
    }

    #[test]
    fn histogram_conserves_token_count() {
        let store = text_store();
        let out = run_job(&WordLengthHistogram, &store, &ExecConfig::default());
        let total: i64 = out.records.values().sum();
        let expected = store
            .iter()
            .map(|b| memchr::tokens(b).count())
            .sum::<usize>() as i64;
        assert_eq!(total, expected);
        // Tiny key space: far fewer keys than tokens.
        assert!(out.records.len() < 30, "{} length buckets", out.records.len());
    }

    /// Check `job`'s overrides against what its shape lets the engine
    /// assume, token by token: `map_token` emits what `map` emits for a
    /// line of that one token; for a token-identity job, `token_value` and
    /// `token_key` give the pair `map_token` emits (at most one); and a
    /// fold combiner's `combine_fold` agrees with `combine`.
    fn check_shape_overrides<J>(job: &J, tokens: &[&str])
    where
        J: MapReduceJob<V = i64>,
        J::K: std::fmt::Debug,
    {
        let shape = job.shape();
        for &token in tokens {
            let mut by_token = Vec::new();
            job.map_token(token.as_bytes(), &mut |k, v| by_token.push((k, v)));
            let mut by_line = Vec::new();
            job.map(token, &mut |k, v| by_line.push((k, v)));
            assert!(by_token == by_line, "{token:?}: map_token {by_token:?}, map {by_line:?}");
            if let JobShape::TokenIdentity { prefix } = shape {
                assert!(by_token.len() <= 1, "{token:?}: {by_token:?}");
                assert!(by_token.is_empty() || token.as_bytes().starts_with(prefix));
                assert_eq!(job.token_value(token.as_bytes()), by_token.first().map(|p| p.1));
                if let Some((key, _)) = by_token.first() {
                    assert!(job.token_key(token.as_bytes()).as_ref() == Some(key), "{token:?}");
                }
            }
            for (key, value) in by_token {
                let mut acc = value;
                assert_eq!(job.combine_fold(&mut acc, 3), None);
                assert_eq!(job.combine(&key, vec![value, 3]), vec![acc], "{token:?}");
            }
        }
    }

    #[test]
    fn workload_overrides_agree_with_their_shapes() {
        let g = TextGen::new(2000, 1.1);
        let text = g.generate(&mut SimRng::seed_from_u64(14), 50_000);
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let frequent = &g.word(0)[..2.min(g.word(0).len())];
        for pattern in [
            WordPattern::All,
            WordPattern::Prefix(String::new()),
            WordPattern::Prefix(frequent.into()),
            WordPattern::Prefix(g.word(5).into()),
            WordPattern::Contains("a".into()),
            WordPattern::Length(4),
        ] {
            let job = PatternWordCount { pattern };
            assert!(matches!(job.shape(), JobShape::TokenIdentity { .. }));
            check_shape_overrides(&job, &tokens);
        }
        assert!(matches!(WordLengthHistogram.shape(), JobShape::TokenFold { .. }));
        check_shape_overrides(&WordLengthHistogram, &tokens);
    }

    #[test]
    fn selection_keys_sort_numerically() {
        let store = lineitem_store();
        let out = run_job(
            &SelectionJob::paper_selectivity(),
            &store,
            &ExecConfig::default(),
        );
        let keys: Vec<u64> = out.records.keys().map(|k| k.parse().unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}
