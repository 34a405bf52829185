//! Per-job flight recorder: stitch a drained engine trace into causal
//! per-job timelines with a latency decomposition.
//!
//! The engine's trace events are *server-centric*: segment spans on worker
//! tracks, admission instants on the coordinator track, reduce shards on
//! the reduce pool. Answering "where did job 17's 40 ms go?" from that
//! view means mentally joining five tracks. [`JobJournal::from_events`]
//! performs that join once: for every job it reconstructs
//!
//! ```text
//! submit ──queue──▶ admit ──scan (segments, assists, recoveries)──▶
//!                                      scan_end ──reduce (shards)──▶ done
//! ```
//!
//! and decomposes the end-to-end latency **exactly** into
//! `queue_us + scan_us + reduce_us == latency_us`:
//!
//! - **queue** — submit instant → admit instant (time waiting for a
//!   segment boundary);
//! - **scan** — admit → the end of the segment that completes the job's
//!   revolution. Which segments belong to a job is recomputed the same way
//!   the coordinator assigns them: a job admitted at cursor `c` rides every
//!   subsequent segment until its remaining block count (the `job_done`
//!   event's reported total) reaches zero — segment spans carry only block
//!   ranges, so this countdown is what makes shared segments attributable
//!   to individual jobs. The countdown re-derives the engine's
//!   [`Align::Clip`](crate::revolution::Align::Clip) rule on its own
//!   instead of running [`crate::revolution`]: the journal checks traces of
//!   a coordinator that runs that module, and a checker that ran the same
//!   arithmetic would agree with any defect in it;
//! - **reduce** — scan end → terminal instant (reduce-pool queueing plus
//!   the job's combine/reduce shards, which are also listed individually,
//!   plus the serial `publish` tail on the last shard's worker, reported
//!   as `publish_us`);
//! - **recovery** (overlaps scan, reported separately) — the summed
//!   durations of `recovered` instants inside the job's scan window: how
//!   much re-execution latency the job's revolution absorbed from lost or
//!   straggling blocks.
//!
//! A journal serializes as JSON (schema [`JOURNAL_SCHEMA`]) and renders as
//! per-job Perfetto tracks via [`JobJournal::to_chrome_events`] — one
//! track per job beside the existing server-centric export.
//!
//! Timestamp subtlety: the coordinator back-dates each segment span to the
//! iteration start it took *before* stamping that iteration's admit
//! instants, so an admitted job's first segment has `ts < admit_ts` while
//! its end is strictly after. Attribution therefore keys on segment **end**
//! times; the previous iteration's segment always ends before the admit
//! instant is stamped.

use crate::chrome::ChromeEvent;
use crate::trace::{Event, Phase, NO_ID};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

/// Schema tag written into every serialized [`JobJournal`].
pub const JOURNAL_SCHEMA: &str = "s3obs-journal/v1";

/// How a job's timeline ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Outcome {
    /// Output published (`job_done`).
    Done,
    /// Failed by a panic in its own map/combine/reduce (`quarantine`).
    Quarantined,
    /// Server died before the job could run (`job_aborted`).
    Aborted,
    /// Deadline passed before the revolution completed (`job_expired`).
    Expired,
}

/// One shared segment scan a job rode, as seen from that job.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct SegmentSlice {
    /// First block index of the segment.
    pub start_block: u64,
    /// Blocks the segment scanned.
    pub len: u64,
    /// Blocks of this segment that counted toward *this* job's revolution
    /// (the final segment of a revolution may overshoot the job's limit).
    pub blocks_for_job: u64,
    /// Segment span start (µs since trace epoch).
    pub ts_us: u64,
    /// Segment span duration (µs).
    pub dur_us: u64,
}

/// One finalization shard of a job's reduce phase.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ShardSlice {
    /// Shard index within the job's reduce.
    pub shard: u64,
    /// Span start (µs since trace epoch).
    pub ts_us: u64,
    /// Span duration (µs).
    pub dur_us: u64,
    /// Records this shard reduced (0 for traces predating the field).
    #[serde(default)]
    pub records: u64,
}

/// The reconstructed timeline of one job.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct JobRecord {
    /// Job id (the server's submission order).
    pub id: u64,
    /// How the timeline ended.
    pub outcome: Outcome,
    /// `submit` instant (µs since trace epoch).
    pub submit_us: u64,
    /// `admit` instant, if the job was ever admitted.
    pub admit_us: Option<u64>,
    /// End of the job's scan phase: the end of the segment that completed
    /// its revolution (equals `admit_us` for an empty store).
    pub scan_end_us: Option<u64>,
    /// Terminal instant (`job_done` / `quarantine` / `job_aborted` /
    /// `job_expired`).
    pub terminal_us: u64,
    /// Submit → terminal.
    pub latency_us: u64,
    /// Submit → admit (whole latency for never-admitted jobs).
    pub queue_us: u64,
    /// Admit → scan end.
    pub scan_us: u64,
    /// Scan end → terminal (reduce-pool queueing + shards + publish).
    pub reduce_us: u64,
    /// Duration of the job's `publish` span — the serial tail of the
    /// reduce, after the last parallel shard: concatenate the parts, build
    /// the output, wake the handle. Part of `reduce_us`; 0 for jobs that
    /// published no output and for traces predating the span.
    #[serde(default)]
    pub publish_us: u64,
    /// Summed `recovered` durations inside the scan window — re-execution
    /// latency absorbed from lost/straggling blocks. Overlaps `scan_us`;
    /// not part of the queue+scan+reduce identity.
    pub recovery_us: u64,
    /// Blocks attributed to this job by the segment countdown.
    pub blocks_covered: u64,
    /// Blocks the engine reported in `job_done` (absent for quarantined/
    /// aborted jobs and for traces from engines predating the field).
    pub blocks_reported: Option<u64>,
    /// Work-assist re-executions during the scan window (server-wide
    /// events inside this job's window: shared, not exclusive).
    pub assists: u64,
    /// Segments the job rode, in scan order.
    pub segments: Vec<SegmentSlice>,
    /// The job's reduce shards.
    pub reduce_shards: Vec<ShardSlice>,
    /// Terminal events seen for this job (1 in a well-formed trace; kept
    /// so [`JobJournal::validate`] can prove it).
    pub terminal_events: u64,
    /// Admit events seen for this job (1 for admitted jobs).
    pub admit_events: u64,
}

/// A causal per-job view of one drained engine trace.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct JobJournal {
    /// Schema tag ([`JOURNAL_SCHEMA`]).
    pub schema: String,
    /// Ring-buffer drops reported by the recorder at drain time; a
    /// non-zero value means timelines may be truncated.
    pub dropped_events: u64,
    /// One record per job with a `submit` or terminal event, by id.
    pub jobs: Vec<JobRecord>,
}

#[derive(Default)]
struct JobBuilder {
    submit: Option<u64>,
    /// `(ts, cursor)` of each admit instant.
    admits: Vec<(u64, u64)>,
    terminals: Vec<(u64, Outcome)>,
    blocks_reported: Option<u64>,
    reduce_shards: Vec<ShardSlice>,
    publish_us: u64,
}

impl JobJournal {
    /// Stitch a drained, time-ordered event stream (from
    /// [`TraceRecorder::drain`](crate::trace::TraceRecorder::drain)) into
    /// per-job timelines. Unknown event names are ignored, so journals
    /// stay forward-compatible with new engine instrumentation.
    pub fn from_events(events: &[Event]) -> JobJournal {
        let mut jobs: BTreeMap<u64, JobBuilder> = BTreeMap::new();
        let mut segments: Vec<(u64, u64, u64, u64)> = Vec::new(); // (ts, dur, start, len)
        let mut recoveries: Vec<(u64, u64)> = Vec::new(); // (ts, dur)
        let mut assists: Vec<u64> = Vec::new();

        for ev in events {
            match (ev.name, ev.ph) {
                ("submit", Phase::Instant) => {
                    let b = jobs.entry(ev.ids.job).or_default();
                    b.submit.get_or_insert(ev.ts_us);
                }
                ("admit", Phase::Instant) => {
                    jobs.entry(ev.ids.job).or_default().admits.push((ev.ts_us, ev.ids.n));
                }
                ("job_done", Phase::Instant) => {
                    let b = jobs.entry(ev.ids.job).or_default();
                    b.terminals.push((ev.ts_us, Outcome::Done));
                    if ev.ids.n != NO_ID {
                        b.blocks_reported = Some(ev.ids.n);
                    }
                }
                ("quarantine", Phase::Instant) => {
                    let b = jobs.entry(ev.ids.job).or_default();
                    b.terminals.push((ev.ts_us, Outcome::Quarantined));
                }
                ("job_aborted", Phase::Instant) => {
                    let b = jobs.entry(ev.ids.job).or_default();
                    b.terminals.push((ev.ts_us, Outcome::Aborted));
                }
                ("job_expired", Phase::Instant) => {
                    let b = jobs.entry(ev.ids.job).or_default();
                    b.terminals.push((ev.ts_us, Outcome::Expired));
                }
                ("reduce_shard", Phase::Span) => {
                    // Current engines put the shard in its dedicated id
                    // field and the record count in `n`; older traces
                    // packed the shard index into `n` with no count.
                    let (shard, records) = if ev.ids.shard != NO_ID {
                        (ev.ids.shard, if ev.ids.n == NO_ID { 0 } else { ev.ids.n })
                    } else {
                        (ev.ids.n, 0)
                    };
                    jobs.entry(ev.ids.job).or_default().reduce_shards.push(ShardSlice {
                        shard,
                        ts_us: ev.ts_us,
                        dur_us: ev.dur_us,
                        records,
                    });
                }
                ("publish", Phase::Span) => {
                    jobs.entry(ev.ids.job).or_default().publish_us = ev.dur_us;
                }
                ("segment", Phase::Span) => {
                    segments.push((ev.ts_us, ev.dur_us, ev.ids.seg, ev.ids.n));
                }
                ("recovered", Phase::Instant) => {
                    recoveries.push((ev.ts_us, ev.ids.n));
                }
                ("assist", Phase::Instant) => assists.push(ev.ts_us),
                _ => {}
            }
        }
        segments.sort_by_key(|&(ts, ..)| ts);
        // Store size estimate for jobs that died before reporting a block
        // count: the segment chain partitions [0, n), so n is the largest
        // segment end.
        let store_blocks = segments.iter().map(|&(_, _, s, l)| s + l).max().unwrap_or(0);

        let records = jobs
            .into_iter()
            .filter(|(_, b)| b.submit.is_some() || !b.terminals.is_empty())
            .map(|(id, b)| {
                let submit_us = b.submit.unwrap_or(0);
                let admit_us = b.admits.first().map(|&(ts, _)| ts);
                let cursor = b.admits.first().map(|&(_, n)| n);
                let (terminal_us, outcome) = b
                    .terminals
                    .first()
                    .copied()
                    .unwrap_or((submit_us, Outcome::Aborted));
                let expected = b.blocks_reported.unwrap_or(store_blocks);

                // Replay the coordinator's assignment: count down the
                // job's revolution from the segment it was admitted into,
                // the last one to start at the admit cursor by the admit
                // instant. Spans carry whole-microsecond start times, so a
                // short segment can end in the microsecond its admits were
                // stamped in; only the cursor tells it from the segment
                // before. With no such segment in the trace, the revolution
                // starts with the first segment ending after admission.
                let mut slices = Vec::new();
                let mut remaining = expected;
                let mut scan_end_us = admit_us;
                if let Some(admit) = admit_us {
                    let first = cursor.and_then(|c| {
                        segments.iter().rposition(|&(ts, _, start, _)| ts <= admit && start == c)
                    });
                    for (i, &(ts, dur, start, len)) in segments.iter().enumerate() {
                        if remaining == 0 {
                            break;
                        }
                        let end = ts + dur;
                        if first.map_or(end <= admit, |first| i < first) || ts > terminal_us {
                            continue;
                        }
                        let take = len.min(remaining);
                        remaining -= take;
                        scan_end_us = Some(end.clamp(admit, terminal_us.max(admit)));
                        slices.push(SegmentSlice {
                            start_block: start,
                            len,
                            blocks_for_job: take,
                            ts_us: ts,
                            dur_us: dur,
                        });
                    }
                }
                let blocks_covered = expected - remaining;

                // Clamp the chain submit ≤ admit ≤ scan_end ≤ terminal so
                // queue + scan + reduce == latency holds *exactly* even on
                // timelines a terminal cut short mid-segment.
                let terminal_us = terminal_us.max(submit_us);
                let admit_pt = admit_us.unwrap_or(terminal_us).clamp(submit_us, terminal_us);
                let scan_end_pt = scan_end_us.unwrap_or(admit_pt).clamp(admit_pt, terminal_us);
                let queue_us = admit_pt - submit_us;
                let scan_us = scan_end_pt - admit_pt;
                let reduce_us = terminal_us - scan_end_pt;

                let in_scan = |ts: u64| admit_us.is_some() && ts >= admit_pt && ts <= scan_end_pt;
                let recovery_us = recoveries
                    .iter()
                    .filter(|&&(ts, _)| in_scan(ts))
                    .map(|&(_, d)| d)
                    .sum();

                let mut reduce_shards = b.reduce_shards;
                reduce_shards.sort_by_key(|s| s.ts_us);
                JobRecord {
                    id,
                    outcome,
                    submit_us,
                    admit_us: admit_us.map(|_| admit_pt),
                    scan_end_us: admit_us.map(|_| scan_end_pt),
                    terminal_us,
                    latency_us: terminal_us - submit_us,
                    queue_us,
                    scan_us,
                    reduce_us,
                    publish_us: b.publish_us,
                    recovery_us,
                    blocks_covered,
                    blocks_reported: b.blocks_reported,
                    assists: assists.iter().filter(|&&ts| in_scan(ts)).count() as u64,
                    segments: slices,
                    reduce_shards,
                    terminal_events: b.terminals.len() as u64,
                    admit_events: b.admits.len() as u64,
                }
            })
            .collect();
        JobJournal {
            schema: JOURNAL_SCHEMA.to_string(),
            dropped_events: 0,
            jobs: records,
        }
    }

    /// Check the journal's internal invariants:
    ///
    /// 1. every job has exactly one terminal event;
    /// 2. every completed (`Done`) job has exactly one admit;
    /// 3. the queue/scan/reduce decomposition sums exactly to the latency,
    ///    and the publish tail lies inside the reduce component;
    /// 4. a completed job's segment slices cover exactly its reported
    ///    block count.
    ///
    /// When [`dropped_events`] is non-zero the ring overwrote history, and
    /// truncation can only *lose* events: the coverage check (4) is skipped
    /// and the exactly-once checks (1–2) relax to at-most-once — duplicate
    /// admits/terminals still fail, missing ones don't — and neither does a
    /// publish tail whose scan end was lost. The decomposition identity (3)
    /// holds by construction and is checked regardless.
    ///
    /// [`dropped_events`]: JobJournal::dropped_events
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != JOURNAL_SCHEMA {
            return Err(format!("schema {:?}, expected {JOURNAL_SCHEMA:?}", self.schema));
        }
        let complete_ring = self.dropped_events == 0;
        for j in &self.jobs {
            if j.terminal_events > 1 || (complete_ring && j.terminal_events != 1) {
                return Err(format!("job {}: {} terminal events, want 1", j.id, j.terminal_events));
            }
            if j.outcome == Outcome::Done
                && (j.admit_events > 1 || (complete_ring && j.admit_events != 1))
            {
                return Err(format!("job {}: {} admit events, want 1", j.id, j.admit_events));
            }
            if j.queue_us + j.scan_us + j.reduce_us != j.latency_us {
                return Err(format!(
                    "job {}: decomposition {} + {} + {} != latency {}",
                    j.id, j.queue_us, j.scan_us, j.reduce_us, j.latency_us
                ));
            }
            if complete_ring && j.publish_us > j.reduce_us {
                return Err(format!(
                    "job {}: publish {} us outside its reduce phase of {} us",
                    j.id, j.publish_us, j.reduce_us
                ));
            }
            let sliced: u64 = j.segments.iter().map(|s| s.blocks_for_job).sum();
            if sliced != j.blocks_covered {
                return Err(format!(
                    "job {}: segment slices sum to {sliced}, blocks_covered {}",
                    j.id, j.blocks_covered
                ));
            }
            if self.dropped_events == 0 && j.outcome == Outcome::Done {
                if let Some(reported) = j.blocks_reported {
                    if j.blocks_covered != reported {
                        return Err(format!(
                            "job {}: segments cover {} of {} reported blocks",
                            j.id, j.blocks_covered, reported
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Render the journal as per-job Perfetto tracks: one named track per
    /// job under process `pid`, carrying a `queued` span, `scan` spans
    /// (one per segment rode), `reduce` spans (one per shard), and a
    /// terminal instant. Loads beside the server-centric engine trace.
    pub fn to_chrome_events(&self, pid: u64) -> Vec<ChromeEvent> {
        let mut out = vec![ChromeEvent::process_name(pid, "s3-jobs")];
        for j in &self.jobs {
            let tid = j.id + 1; // tid 0 carries process metadata
            out.push(ChromeEvent::thread_name(pid, tid, &format!("job {}", j.id)));
            let span = |name: &str, ts: u64, dur: u64, args: Vec<(String, Value)>| ChromeEvent {
                name: name.to_string(),
                cat: "job".to_string(),
                ph: 'X',
                ts: ts as f64,
                dur: Some(dur as f64),
                pid,
                tid,
                args,
            };
            if let Some(admit) = j.admit_us {
                out.push(span(
                    "queued",
                    j.submit_us,
                    admit.saturating_sub(j.submit_us),
                    vec![("job".into(), Value::from(j.id))],
                ));
            }
            for s in &j.segments {
                out.push(span(
                    "scan",
                    s.ts_us,
                    s.dur_us,
                    vec![
                        ("seg".into(), Value::from(s.start_block)),
                        ("blocks_for_job".into(), Value::from(s.blocks_for_job)),
                    ],
                ));
            }
            for s in &j.reduce_shards {
                out.push(span(
                    "reduce",
                    s.ts_us,
                    s.dur_us,
                    vec![
                        ("shard".into(), Value::from(s.shard)),
                        ("records".into(), Value::from(s.records)),
                    ],
                ));
            }
            out.push(ChromeEvent {
                name: match j.outcome {
                    Outcome::Done => "done",
                    Outcome::Quarantined => "quarantined",
                    Outcome::Aborted => "aborted",
                    Outcome::Expired => "expired",
                }
                .to_string(),
                cat: "job".to_string(),
                ph: 'i',
                ts: j.terminal_us as f64,
                dur: None,
                pid,
                tid,
                args: vec![
                    ("latency_us".into(), Value::from(j.latency_us)),
                    ("queue_us".into(), Value::from(j.queue_us)),
                    ("scan_us".into(), Value::from(j.scan_us)),
                    ("reduce_us".into(), Value::from(j.reduce_us)),
                    ("publish_us".into(), Value::from(j.publish_us)),
                    ("recovery_us".into(), Value::from(j.recovery_us)),
                ],
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::{validate_chrome_trace, write_chrome_trace};
    use crate::trace::Ids;

    fn instant(ts: u64, name: &'static str, ids: Ids) -> Event {
        Event { ts_us: ts, dur_us: 0, name, ph: Phase::Instant, tid: 1, ids }
    }

    fn span(ts: u64, dur: u64, name: &'static str, ids: Ids) -> Event {
        Event { ts_us: ts, dur_us: dur, name, ph: Phase::Span, tid: 2, ids }
    }

    /// A two-job trace over a 4-block store scanned in 2-block segments,
    /// with the engine's real timestamp quirk: segment spans back-dated to
    /// before the admit instants of the same iteration.
    fn sample_events() -> Vec<Event> {
        vec![
            instant(5, "submit", Ids::job(0)),
            instant(7, "submit", Ids::job(1)),
            // iteration 1: t0 = 10, admits stamped at 11/12, segment [0,2)
            instant(11, "admit", Ids::job(0).jobs(0)),
            instant(12, "admit", Ids::job(1).jobs(0)),
            span(10, 90, "segment", Ids::seg(0).jobs(2)),
            instant(60, "recovered", Ids::seg(1).jobs(25)),
            instant(55, "assist", Ids::seg(1).jobs(0)),
            // iteration 2: segment [2,4) completes both revolutions
            span(110, 80, "segment", Ids::seg(2).jobs(2)),
            // job 0 reduces and finishes
            span(200, 30, "reduce_shard", Ids::job(0).shard(0).jobs(12)),
            span(231, 8, "publish", Ids::job(0)),
            instant(240, "job_done", Ids::job(0).jobs(4)),
            // job 1 quarantines in reduce
            instant(260, "quarantine", Ids::job(1)),
        ]
    }

    #[test]
    fn stitches_causal_timeline_and_decomposition() {
        let j = JobJournal::from_events(&sample_events());
        assert_eq!(j.jobs.len(), 2);
        let j0 = &j.jobs[0];
        assert_eq!(j0.outcome, Outcome::Done);
        assert_eq!(j0.queue_us, 6); // 11 - 5
        assert_eq!(j0.scan_us, 179); // admit 11 → seg2 end 190
        assert_eq!(j0.reduce_us, 50); // 190 → 240
        assert_eq!(j0.publish_us, 8);
        assert_eq!(j0.latency_us, 235);
        assert_eq!(j0.queue_us + j0.scan_us + j0.reduce_us, j0.latency_us);
        assert_eq!(j0.blocks_covered, 4);
        assert_eq!(j0.blocks_reported, Some(4));
        assert_eq!(j0.segments.len(), 2);
        assert_eq!(j0.recovery_us, 25);
        assert_eq!(j0.assists, 1);
        assert_eq!(j0.reduce_shards.len(), 1);
        assert_eq!(j0.reduce_shards[0].shard, 0);
        assert_eq!(j0.reduce_shards[0].records, 12);
        j.validate().unwrap();

        let j1 = &j.jobs[1];
        assert_eq!(j1.outcome, Outcome::Quarantined);
        assert_eq!(j1.blocks_covered, 4); // store estimate: max segment end
        assert_eq!(j1.publish_us, 0);
        assert_eq!(j1.queue_us + j1.scan_us + j1.reduce_us, j1.latency_us);
    }

    #[test]
    fn first_segment_attribution_survives_backdated_spans() {
        // The admit (ts 11) lands *after* its iteration's segment start
        // (ts 10); the segment must still be attributed to the job.
        let j = JobJournal::from_events(&sample_events());
        assert_eq!(j.jobs[0].segments[0].ts_us, 10);
    }

    #[test]
    fn a_segment_ending_in_its_admit_microsecond_still_counts() {
        // The segment before ends, and the admitted one starts and ends,
        // in the microsecond the admit is stamped in.
        let events = vec![
            instant(5, "submit", Ids::job(0)),
            span(10, 1, "segment", Ids::seg(2).jobs(2)),
            instant(11, "admit", Ids::job(0).jobs(0)),
            span(11, 0, "segment", Ids::seg(0).jobs(2)),
            span(11, 3, "segment", Ids::seg(2).jobs(2)),
            instant(20, "job_done", Ids::job(0).jobs(4)),
        ];
        let j = JobJournal::from_events(&events);
        let starts: Vec<u64> = j.jobs[0].segments.iter().map(|s| s.start_block).collect();
        assert_eq!((starts, j.jobs[0].blocks_covered), (vec![0, 2], 4));
        j.validate().unwrap();
    }

    #[test]
    fn validate_catches_double_terminal_and_bad_coverage() {
        let mut evs = sample_events();
        evs.push(instant(250, "job_done", Ids::job(0).jobs(4)));
        let j = JobJournal::from_events(&evs);
        assert!(j.validate().unwrap_err().contains("terminal"));

        let mut evs = sample_events();
        evs.retain(|e| e.name != "segment" || e.ts_us != 110);
        let j = JobJournal::from_events(&evs);
        assert!(j.validate().unwrap_err().contains("cover"));
        // ...unless the ring reported drops, which excuses lost spans.
        let mut j = j;
        j.dropped_events = 3;
        j.validate().unwrap();
    }

    #[test]
    fn truncated_ring_relaxes_exactly_once_to_at_most_once() {
        // Drop job 0's admit (and its submit, as a real ring overwrite
        // would): a Done job with 0 admit events must pass when drops are
        // reported, and still fail on a complete ring.
        let mut evs = sample_events();
        evs.retain(|e| !((e.name == "admit" || e.name == "submit") && e.ids.job == 0));
        let mut j = JobJournal::from_events(&evs);
        assert!(j.validate().unwrap_err().contains("admit"));
        j.dropped_events = 2;
        j.validate().unwrap();

        // Duplicates can't come from truncation — they fail regardless.
        let mut evs = sample_events();
        evs.push(instant(250, "job_done", Ids::job(0).jobs(4)));
        let mut j = JobJournal::from_events(&evs);
        j.dropped_events = 2;
        assert!(j.validate().unwrap_err().contains("terminal"));
    }

    #[test]
    fn never_admitted_job_is_all_queue_time() {
        let evs = vec![
            instant(5, "submit", Ids::job(0)),
            instant(90, "job_aborted", Ids::job(0)),
        ];
        let j = JobJournal::from_events(&evs);
        let r = &j.jobs[0];
        assert_eq!(r.outcome, Outcome::Aborted);
        assert_eq!(r.queue_us, 85);
        assert_eq!((r.scan_us, r.reduce_us), (0, 0));
        j.validate().unwrap();
    }

    #[test]
    fn expired_job_is_a_terminal_outcome() {
        let evs = vec![
            instant(5, "submit", Ids::job(0)),
            instant(10, "admit", Ids::job(0).jobs(1)),
            instant(70, "job_expired", Ids::job(0)),
        ];
        let j = JobJournal::from_events(&evs);
        let r = &j.jobs[0];
        assert_eq!(r.outcome, Outcome::Expired);
        assert_eq!(r.terminal_us, 70);
        j.validate().unwrap();
    }

    /// Satellite regression: two jobs finishing concurrently, their
    /// `reduce_shard` spans interleaved in time with *identical* shard
    /// indexes. The dedicated `shard` id field keeps each span attributed
    /// to its own job — the old encoding packed the shard into the free
    /// count field, and any scheme that multiplexed the job field would
    /// cross the streams here.
    #[test]
    fn concurrent_finishing_jobs_keep_their_own_shards() {
        let evs = vec![
            instant(5, "submit", Ids::job(0)),
            instant(6, "submit", Ids::job(1)),
            instant(10, "admit", Ids::job(0).jobs(0)),
            instant(11, "admit", Ids::job(1).jobs(0)),
            span(9, 50, "segment", Ids::seg(0).jobs(2)),
            // Interleaved finishes: shard 0 of job 1 lands between shard 0
            // and shard 1 of job 0, and vice versa.
            span(100, 30, "reduce_shard", Ids::job(0).shard(0).jobs(7)),
            span(105, 20, "reduce_shard", Ids::job(1).shard(0).jobs(3)),
            span(110, 25, "reduce_shard", Ids::job(1).shard(1).jobs(4)),
            span(115, 10, "reduce_shard", Ids::job(0).shard(1).jobs(9)),
            instant(200, "job_done", Ids::job(0).jobs(1)),
            instant(210, "job_done", Ids::job(1).jobs(1)),
        ];
        let j = JobJournal::from_events(&evs);
        j.validate().unwrap();
        assert_eq!(j.jobs.len(), 2);
        for r in &j.jobs {
            assert_eq!(r.reduce_shards.len(), 2, "job {}", r.id);
            let shards: Vec<u64> = r.reduce_shards.iter().map(|s| s.shard).collect();
            assert_eq!(shards, vec![0, 1], "job {}", r.id);
        }
        let recs = |id: usize| -> Vec<u64> {
            j.jobs[id].reduce_shards.iter().map(|s| s.records).collect()
        };
        assert_eq!(recs(0), vec![7, 9]);
        assert_eq!(recs(1), vec![3, 4]);
    }

    /// Traces from engines predating the dedicated shard field packed the
    /// shard index into `n`; they must still parse (without counts).
    #[test]
    fn legacy_reduce_shard_encoding_still_parses() {
        let evs = vec![
            instant(5, "submit", Ids::job(0)),
            instant(10, "admit", Ids::job(0).jobs(0)),
            span(9, 10, "segment", Ids::seg(0).jobs(1)),
            span(100, 30, "reduce_shard", Ids::job(0).jobs(2)),
            instant(200, "job_done", Ids::job(0).jobs(1)),
        ];
        let j = JobJournal::from_events(&evs);
        assert_eq!(j.jobs[0].reduce_shards.len(), 1);
        assert_eq!(j.jobs[0].reduce_shards[0].shard, 2);
        assert_eq!(j.jobs[0].reduce_shards[0].records, 0);
    }

    #[test]
    fn chrome_export_validates_and_carries_tracks() {
        let j = JobJournal::from_events(&sample_events());
        let evs = j.to_chrome_events(7);
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &evs).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let n = validate_chrome_trace(&text).unwrap();
        assert_eq!(n, evs.len());
        assert!(text.contains("s3-jobs"));
        assert!(text.contains("\"job 0\""));
        assert!(text.contains("queued"));
    }

    #[test]
    fn journal_serde_round_trip() {
        let j = JobJournal::from_events(&sample_events());
        let json = serde_json::to_string_pretty(&j).unwrap();
        let back: JobJournal = serde_json::from_str(&json).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.schema, JOURNAL_SCHEMA);
    }
}
