//! The job interface: user-defined map, combine, and reduce logic — and
//! the error type a job can fail with when it runs on the fault-tolerant
//! shared-scan server.

use std::hash::Hash;

/// Quality-of-service class of a submission to the multi-tenant
/// [`crate::ScanService`] — the live-engine port of the simulator's
/// priority ablation (`PriorityPolicy` in `s3-core`).
///
/// Ordering follows urgency: `Low < Normal < High`. The service admits
/// `High` before `Normal` before `Low` at every dispatch point, and
/// defers `Low` entirely while the merged width of the revolution is at
/// or above the configured cap (the paper's future-work merge-width
/// policy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Best-effort: deferred while the merged width is at the cap, first
    /// to be shed under overload.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive: admitted ahead of everything else.
    High,
}

impl QosClass {
    /// All classes, highest urgency first — dispatch order.
    pub const ALL: [QosClass; 3] = [QosClass::High, QosClass::Normal, QosClass::Low];

    /// Stable wire code (used in trace event ids): High=2, Normal=1, Low=0.
    pub fn code(self) -> u64 {
        match self {
            QosClass::Low => 0,
            QosClass::Normal => 1,
            QosClass::High => 2,
        }
    }

    /// Inverse of [`QosClass::code`].
    pub fn from_code(code: u64) -> Option<QosClass> {
        match code {
            0 => Some(QosClass::Low),
            1 => Some(QosClass::Normal),
            2 => Some(QosClass::High),
            _ => None,
        }
    }

    /// Human-readable lowercase label ("high"/"normal"/"low").
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Low => "low",
            QosClass::Normal => "normal",
            QosClass::High => "high",
        }
    }
}

/// How reduce shards are assigned to intermediate keys.
///
/// There is one way: [`PartitionMode::Hash`], the classic MapReduce
/// shuffle the paper assumes — shard = bias-free hash of the key,
/// oblivious to the key distribution. A skew-aware planner once stood
/// beside it and never shortened a job's wall time (EXPERIMENTS.md,
/// "Skew-aware reduce partitioning").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PartitionMode {
    /// Distribution-oblivious hash sharding.
    #[default]
    Hash,
}

impl PartitionMode {
    /// [`PartitionMode::Hash`]. The name is kept so code written against
    /// the retired skew-aware mode still builds; it routes exactly as hash.
    pub fn weighted() -> PartitionMode {
        PartitionMode::Hash
    }
}

/// A structurally invalid execution or server configuration, reported at
/// construction time instead of a panic (historically a div-by-zero)
/// deep inside the reduce phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigError {
    /// `num_threads == 0`: no worker could ever scan a block.
    ZeroThreads,
    /// `num_reducers == 0`: no shard could ever receive a key.
    ZeroReducers,
    /// `blocks_per_segment == 0`: the circular scan could never advance.
    ZeroBlocksPerSegment,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroThreads => write!(f, "config needs at least one worker thread"),
            ConfigError::ZeroReducers => write!(f, "config needs at least one reducer"),
            ConfigError::ZeroBlocksPerSegment => {
                write!(f, "config needs at least one block per segment")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why the [`crate::ScanService`] shed a submission instead of queuing it.
///
/// Rejections are synchronous and typed: the caller gets the reason back
/// from `submit` immediately (no handle is created), so a client-side
/// [`crate::RetryPolicy`] can decide whether resubmitting can ever help
/// (`QueueFull`/`Overloaded`) or never will (`UnknownFile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The per-class admission queue for the target file is at capacity.
    QueueFull,
    /// The service-wide queued-job budget is exhausted (global
    /// backpressure, independent of any one file's queue).
    Overloaded,
    /// The submission named a file the service does not serve.
    UnknownFile,
}

impl RejectReason {
    /// Stable wire code (used in trace event ids).
    pub fn code(self) -> u64 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::Overloaded => 1,
            RejectReason::UnknownFile => 2,
        }
    }

    /// Inverse of [`RejectReason::code`].
    pub fn from_code(code: u64) -> Option<RejectReason> {
        match code {
            0 => Some(RejectReason::QueueFull),
            1 => Some(RejectReason::Overloaded),
            2 => Some(RejectReason::UnknownFile),
            _ => None,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "per-class admission queue full"),
            RejectReason::Overloaded => write!(f, "service queued-job budget exhausted"),
            RejectReason::UnknownFile => write!(f, "unknown file"),
        }
    }
}

/// Why a job submitted to the shared-scan server produced no output.
///
/// User code is untrusted from the runtime's point of view: a `map`,
/// `combine`, or `reduce` that panics fails *its own job* with
/// [`JobError::Panicked`] (carrying the panic payload) while the shared
/// scan and every co-riding job continue. [`JobError::Aborted`] means the
/// runtime shut down — the coordinator died or the server was shut down —
/// before the job's revolution completed; it is never silently lost and
/// its handle never hangs. The admission-control variants come from the
/// multi-tenant [`crate::ScanService`]: [`JobError::Rejected`] is a
/// synchronous load-shed decision, and [`JobError::DeadlineExpired`] is
/// the sticky outcome of a job whose deadline passed while queued or
/// mid-revolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's own map/combine/reduce panicked; the payload's message.
    /// The job was quarantined — removed from the scan with its partial
    /// state discarded — without disturbing any other job.
    Panicked(String),
    /// The runtime went away before the job finished (server shutdown or
    /// coordinator death), so the job's output will never be produced.
    Aborted,
    /// The service shed this submission at admission time: no queue slot
    /// was consumed and no work was done. Carries the shed reason and the
    /// QoS class the submission declared (every rejection is attributable
    /// to a class).
    Rejected {
        /// Why the submission was shed.
        reason: RejectReason,
        /// The QoS class the submission carried.
        class: QosClass,
    },
    /// The job's deadline passed before its revolution completed. Sticky:
    /// once published it is the job's final outcome even if stray segment
    /// work for it was still in flight when the deadline hit.
    DeadlineExpired,
    /// The job declared a fold combiner in its [`JobShape`], but its
    /// [`combine_fold`](MapReduceJob::combine_fold) handed a value back
    /// instead of folding it. The job was quarantined like a panicking one.
    FoldRefused,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Aborted => write!(f, "job aborted: runtime shut down before completion"),
            JobError::Rejected { reason, class } => {
                write!(f, "job rejected ({} class): {reason}", class.label())
            }
            JobError::DeadlineExpired => {
                write!(f, "job deadline expired before its revolution completed")
            }
            JobError::FoldRefused => {
                write!(f, "job declared a fold combiner but combine_fold handed a value back")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// What a [`crate::JobHandle`] resolves to: the job's output relation, or
/// the reason it failed.
pub type JobResult<K, Out> = Result<crate::exec::JobOutput<K, Out>, JobError>;

/// A MapReduce job over newline-delimited text blocks.
///
/// `K`/`V` are the intermediate key/value types. Jobs merged into one
/// shared scan must share `K`/`V` (as MRShare requires jobs to agree on
/// their intermediate schema to share a scan).
///
/// Job code must not assume anything about segmentation: under a
/// [`crate::SharedScanServer`] with [`crate::AdaptiveConfig`] enabled,
/// segment sizes vary at runtime (the paper's dynamic sub-job
/// adjustment), and a job's revolution is guaranteed only to cover every
/// block exactly once — in an order and grouping the runtime chooses.
pub trait MapReduceJob: Send + Sync {
    /// Intermediate (and output) key.
    type K: Clone + Ord + Hash + Send + Sync;
    /// Intermediate value.
    type V: Clone + Send + Sync;
    /// Final output value.
    type Out: Clone + Send + Sync + PartialEq + std::fmt::Debug;

    /// Map one input record (a line of text), emitting intermediate pairs.
    fn map(&self, line: &str, emit: &mut dyn FnMut(Self::K, Self::V));

    /// Byte-level [`map`](Self::map): map one input record, handed out as a
    /// borrowed byte slice straight from the block store (no copy, no UTF-8
    /// validation on the hot path).
    ///
    /// The default converts to `&str` and defers to [`map`](Self::map), so
    /// every existing job keeps working; lines that are not valid UTF-8 are
    /// converted lossily (each invalid sequence becomes U+FFFD) rather than
    /// panicking. Jobs on the hot path should override this (or
    /// [`map_token`](Self::map_token)) to parse the slice directly.
    fn map_bytes(&self, line: &[u8], emit: &mut dyn FnMut(Self::K, Self::V)) {
        match std::str::from_utf8(line) {
            Ok(s) => self.map(s, emit),
            Err(_) => self.map(&String::from_utf8_lossy(line), emit),
        }
    }

    /// Optional combiner: fold a run of values for one key into a smaller
    /// run. Defaults to the identity (no combining).
    ///
    /// As in MapReduce, the engine decides where and how often it runs
    /// (today: once per key, on the reduce side), and may pass a key's
    /// values through `combine` more than once, over the concatenation of
    /// what earlier applications returned. The output must not depend on
    /// that: `reduce(k, combine(k, a ++ b))` has to equal
    /// `reduce(k, combine(k, combine(k, a) ++ combine(k, b)))`.
    fn combine(&self, _key: &Self::K, values: Vec<Self::V>) -> Vec<Self::V> {
        values
    }

    /// Reduce all values of one key to the final output value; returning
    /// `None` suppresses the key from the output.
    fn reduce(&self, key: &Self::K, values: &[Self::V]) -> Option<Self::Out>;

    /// How the job reads the scan. The default, [`JobShape::Line`], promises
    /// nothing and runs only [`map_bytes`](Self::map_bytes),
    /// [`combine`](Self::combine) and [`reduce`](Self::reduce). The engine
    /// asks once per submission and plans the job's route, sink and
    /// accumulator from the answer.
    fn shape(&self) -> JobShape<'_> {
        JobShape::Line
    }

    /// Pairwise merge of a fold-declared job ([`JobShape::LineFold`],
    /// [`JobShape::TokenFold`], [`JobShape::TokenIdentity`]): fold `next`
    /// into `acc` and return `None`. Must agree with
    /// [`combine`](Self::combine) (`combine(k, vec![a, b]) ==
    /// vec![fold(a, b)]`) and be associative and commutative, because the
    /// engines fold in scan order, which varies with threading.
    ///
    /// The default cannot fold and hands `next` back. A fold-declared job
    /// that hands a value back fails with [`JobError::FoldRefused`].
    fn combine_fold(&self, _acc: &mut Self::V, next: Self::V) -> Option<Self::V> {
        Some(next)
    }

    /// Map one whitespace-free token of a per-token job
    /// ([`JobShape::Token`], [`JobShape::TokenFold`]), handed out as a
    /// borrowed slice of the block. Must agree with [`map`](Self::map):
    /// `map(line)` ≡ `line.split_whitespace().for_each(|t| map_token(t))`.
    /// The default maps the token as a line of one token, which that
    /// contract makes equal.
    fn map_token(&self, token: &[u8], emit: &mut dyn FnMut(Self::K, Self::V)) {
        self.map_bytes(token, emit)
    }

    /// The value a token contributes to a [`JobShape::TokenIdentity`] job,
    /// or `None` if the token is filtered out. Must agree with
    /// [`map_token`](Self::map_token), which is also the default: the value
    /// of the pair it emits.
    fn token_value(&self, token: &[u8]) -> Option<Self::V> {
        let mut value = None;
        self.map_token(token, &mut |_, v| value = Some(v));
        value
    }

    /// The key of a [`JobShape::TokenIdentity`] job's token, built once per
    /// distinct token at flush time. Must agree with
    /// [`map_token`](Self::map_token), which is also the default: the key of
    /// the pair it emits. `None` drops the token, as `map` does for a token
    /// it emits nothing for.
    fn token_key(&self, token: &[u8]) -> Option<Self::K> {
        let mut key = None;
        self.map_token(token, &mut |k, _| key = Some(k));
        key
    }
}

/// How a job reads the scan, declared once by [`MapReduceJob::shape`]. Each
/// variant is one valid combination of map granularity and combiner, so a
/// job cannot declare one the engine would have to reject.
///
/// Fold variants let the engines keep **one accumulator per key** on the
/// map path instead of buffering a `Vec<V>` per key; token variants let a
/// shared scan find each block's tokens **once for all jobs** and index the
/// jobs' prefixes. Outputs are identical either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum JobShape<'a> {
    /// [`map_bytes`](MapReduceJob::map_bytes) per line, every value kept
    /// for [`combine`](MapReduceJob::combine).
    #[default]
    Line,
    /// [`map_bytes`](MapReduceJob::map_bytes) per line, values folded per
    /// key with [`combine_fold`](MapReduceJob::combine_fold).
    LineFold,
    /// [`map_token`](MapReduceJob::map_token) per token, every value kept.
    Token {
        /// See [`JobShape::TokenIdentity::prefix`].
        prefix: &'a [u8],
    },
    /// [`map_token`](MapReduceJob::map_token) per token, values folded per
    /// key with [`combine_fold`](MapReduceJob::combine_fold).
    TokenFold {
        /// See [`JobShape::TokenIdentity::prefix`].
        prefix: &'a [u8],
    },
    /// The **token-identity fast path**: per token, fold-combining, and
    /// for every token at most one pair whose key is a pure function of the
    /// token bytes, i.e. `map_token(t)` ≡
    /// `if let (Some(k), Some(v)) = (token_key(t), token_value(t)) { emit(k, v) }`.
    ///
    /// Engines run the map phase through a per-worker byte-keyed arena
    /// ([`crate::TokenMap`]): values fold under the raw token bytes, and
    /// [`token_key`](MapReduceJob::token_key) materializes each
    /// **distinct** token's key exactly once at flush time instead of once
    /// per occurrence.
    TokenIdentity {
        /// A **necessary token prefix**: every token for which the job
        /// emits a pair starts with these bytes. The empty prefix promises
        /// nothing.
        ///
        /// The promise is one-sided — necessary, not sufficient. The shared
        /// scan's fan-out kernel looks the prefixes of all co-riding jobs
        /// up in one bit-parallel index per token and hands each job only
        /// the tokens that could match; every such candidate is still
        /// confirmed by the job's own map code, so a prefix that is too
        /// *weak* (shorter than the real filter, or empty) costs time,
        /// never correctness. The engine copies the prefix when the job is
        /// submitted, so it cannot change while the job runs.
        ///
        /// A prefix that is too *strong* is a bug in the job: tokens the
        /// index rejects never reach the map code, so their records would
        /// be missing from the output. Builds with `debug_assertions` catch
        /// it — the kernel also runs the job on every rejected token and
        /// panics (failing that job alone on a server) if one emits.
        /// Release builds do not pay for the check and **silently drop**
        /// those records. The reference ([`crate::run_job_legacy`]) never
        /// consults the prefix.
        prefix: &'a [u8],
    },
}

#[cfg(test)]
pub(crate) mod test_jobs {
    use super::{JobShape, MapReduceJob};

    /// Count words that start with a given prefix — the paper's modified
    /// wordcount ("count only the words that match a user-specified
    /// pattern").
    pub struct PrefixCount {
        pub prefix: String,
    }

    impl MapReduceJob for PrefixCount {
        type K = String;
        type V = i64;
        type Out = i64;

        fn map(&self, line: &str, emit: &mut dyn FnMut(String, i64)) {
            for w in line.split_whitespace() {
                if w.starts_with(&self.prefix) {
                    emit(w.to_string(), 1);
                }
            }
        }

        fn combine(&self, _key: &String, values: Vec<i64>) -> Vec<i64> {
            vec![values.iter().sum()]
        }

        fn reduce(&self, _key: &String, values: &[i64]) -> Option<i64> {
            Some(values.iter().sum())
        }

        fn shape(&self) -> JobShape<'_> {
            JobShape::TokenIdentity {
                prefix: self.prefix.as_bytes(),
            }
        }

        fn combine_fold(&self, acc: &mut i64, next: i64) -> Option<i64> {
            *acc += next;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_jobs::PrefixCount;
    use super::*;

    #[test]
    fn prefix_count_maps_and_reduces() {
        let j = PrefixCount {
            prefix: "a".into(),
        };
        let mut out = Vec::new();
        j.map("an apple and a banana", &mut |k, v| out.push((k, v)));
        assert_eq!(out.len(), 4); // an, apple, and, a
        assert_eq!(j.reduce(&"a".into(), &[1, 1, 1]), Some(3));
        assert_eq!(j.combine(&"a".into(), vec![1, 1, 1]), vec![3]);
    }

    #[test]
    fn qos_and_reject_codes_round_trip() {
        for c in QosClass::ALL {
            assert_eq!(QosClass::from_code(c.code()), Some(c));
        }
        assert_eq!(QosClass::from_code(99), None);
        for r in [
            RejectReason::QueueFull,
            RejectReason::Overloaded,
            RejectReason::UnknownFile,
        ] {
            assert_eq!(RejectReason::from_code(r.code()), Some(r));
        }
        assert_eq!(RejectReason::from_code(99), None);
        assert!(QosClass::Low < QosClass::Normal && QosClass::Normal < QosClass::High);
        let err = JobError::Rejected {
            reason: RejectReason::QueueFull,
            class: QosClass::Low,
        };
        assert!(err.to_string().contains("low class"));
        assert!(JobError::DeadlineExpired.to_string().contains("deadline"));
    }

    #[test]
    fn weighted_is_an_alias_for_hash() {
        assert_eq!(PartitionMode::weighted(), PartitionMode::Hash);
    }

    #[test]
    fn default_combiner_is_identity() {
        struct NoCombine;
        impl MapReduceJob for NoCombine {
            type K = String;
            type V = i64;
            type Out = i64;
            fn map(&self, _: &str, _: &mut dyn FnMut(String, i64)) {}
            fn reduce(&self, _: &String, v: &[i64]) -> Option<i64> {
                Some(v.len() as i64)
            }
        }
        let j = NoCombine;
        assert_eq!(j.combine(&"k".into(), vec![1, 2, 3]), vec![1, 2, 3]);
    }
}
