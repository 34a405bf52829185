//! The load loops: one driver thread, blocked almost always.
//!
//! Both loops see the system under test only through [`Target`] and time
//! only through [`Clock`], so the unit tests can run them against a
//! simulated server on a simulated clock.
//!
//! Every job is one latency sample. The driver waits on the oldest job in
//! flight for at most a millisecond, then sweeps the others without
//! blocking, so a completion is seen within a millisecond of happening.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Monotonic time since some origin, and a way to let it pass.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep(&self, d: Duration);
}

pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// The system under test, as the loops see it. Job `seq` is whatever the
/// target's plan says it is; results are checked inside the target.
pub trait Target {
    type Ticket;
    /// Submit job number `seq`; `None` when the system refuses it.
    fn submit(&self, seq: usize) -> Option<Self::Ticket>;
    /// Block up to `timeout`; `Some(correct)` once the job has resolved.
    fn wait(&self, ticket: &Self::Ticket, timeout: Duration) -> Option<bool>;
    /// [`Target::wait`] without blocking.
    fn poll(&self, ticket: &Self::Ticket) -> Option<bool>;
}

/// One job, start to verified result. These are also the benchmark's
/// spans: `submit` is `submitted..submitted + submit_call`, `wait` runs
/// from there to `done`, both carrying `seq`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub seq: usize,
    /// Where latency counts from: the submit call in a closed loop, the
    /// scheduled due time in an open loop.
    pub start: Duration,
    pub submitted: Duration,
    pub submit_call: Duration,
    pub done: Duration,
    pub ok: bool,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.start).as_secs_f64() * 1e3
    }

    /// How late the driver was in sending this job.
    pub fn late_ms(&self) -> f64 {
        (self.submitted - self.start).as_secs_f64() * 1e3
    }
}

/// Process CPU time read when the loop passed a round boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Duration,
    pub cpu_ms: f64,
}

#[derive(Debug, Default)]
pub struct Run {
    pub samples: Vec<Sample>,
    /// Jobs the target refused at submission.
    pub refused: usize,
    /// `rounds + 1` boundaries; round `k` is `marks[k].at..marks[k + 1].at`.
    pub marks: Vec<Mark>,
    pub max_outstanding: usize,
}

struct Pending<T> {
    ticket: T,
    seq: usize,
    start: Duration,
    submitted: Duration,
    submit_call: Duration,
}

struct Book<'a, T: Target, C: Clock> {
    target: &'a T,
    clock: &'a C,
    cpu_ms: &'a dyn Fn() -> f64,
    pending: Vec<Pending<T::Ticket>>,
    mark_times: VecDeque<Duration>,
    run: Run,
}

/// How long the driver blocks on the oldest job before it sweeps the others.
const SWEEP: Duration = Duration::from_millis(1);
/// How long it blocks when nothing else is due: only for the final drain.
const IDLE: Duration = Duration::from_millis(250);

impl<'a, T: Target, C: Clock> Book<'a, T, C> {
    fn new(target: &'a T, clock: &'a C, cpu_ms: &'a dyn Fn() -> f64) -> Self {
        Book {
            target,
            clock,
            cpu_ms,
            pending: Vec::new(),
            mark_times: VecDeque::new(),
            run: Run::default(),
        }
    }

    fn submit(&mut self, seq: usize, start: Option<Duration>) {
        let submitted = self.clock.now();
        let ticket = self.target.submit(seq);
        let submit_call = self.clock.now() - submitted;
        match ticket {
            Some(ticket) => {
                let start = start.unwrap_or(submitted);
                self.pending.push(Pending { ticket, seq, start, submitted, submit_call });
                self.run.max_outstanding = self.run.max_outstanding.max(self.pending.len());
            }
            None => self.run.refused += 1,
        }
    }

    /// Wait on the oldest job, never past the next event at `until`, then
    /// sweep the rest. With several jobs in flight the wait is cut to
    /// [`SWEEP`] so the others are seen promptly; a lone job has nobody to
    /// sweep for, and the driver stays blocked until it resolves: a driver
    /// waking a thousand times a second moves the scan workers between
    /// cores and shows in the latencies. Returns how many jobs resolved.
    fn reap(&mut self, until: Option<Duration>) -> usize {
        let now = self.clock.now();
        let mut budget = until.map_or(IDLE, |u| u.saturating_sub(now));
        if self.pending.len() > 1 {
            budget = budget.min(SWEEP);
        }
        if self.pending.is_empty() {
            self.clock.sleep(budget);
            return 0;
        }
        let mut resolved = 0;
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            let got = if i == 0 {
                self.target.wait(&p.ticket, budget)
            } else {
                self.target.poll(&p.ticket)
            };
            match got {
                Some(ok) => {
                    let p = self.pending.remove(i);
                    self.run.samples.push(Sample {
                        seq: p.seq,
                        start: p.start,
                        submitted: p.submitted,
                        submit_call: p.submit_call,
                        done: self.clock.now(),
                        ok,
                    });
                    resolved += 1;
                }
                None => i += 1,
            }
        }
        resolved
    }

    fn tick_marks(&mut self) {
        let now = self.clock.now();
        while self.mark_times.front().is_some_and(|&m| m <= now) {
            self.mark_times.pop_front();
            self.run.marks.push(Mark { at: now, cpu_ms: (self.cpu_ms)() });
        }
    }

    fn drain(mut self) -> Run {
        while !self.pending.is_empty() {
            self.reap(None);
        }
        self.run
    }
}

/// A closed loop: `width` riders, each replaced the moment it completes.
pub struct Closed {
    pub width: usize,
    /// Gap between the riders' first submissions, so they ride at
    /// different segment offsets from then on.
    pub stagger: Duration,
    /// Completions to discard before round 1 starts.
    pub warmup_jobs: usize,
    pub round_len: Duration,
    pub rounds: usize,
}

pub fn closed_loop<T: Target, C: Clock>(
    target: &T,
    clock: &C,
    cpu_ms: &dyn Fn() -> f64,
    plan: &Closed,
) -> Run {
    let mut book = Book::new(target, clock, cpu_ms);
    let t0 = clock.now();
    let mut first_due: VecDeque<Duration> =
        (0..plan.width as u32).map(|i| t0 + plan.stagger * i).collect();
    let mut next_seq = 0;
    let mut completed = 0;
    let mut end = None;
    loop {
        let now = clock.now();
        if end.is_some_and(|e| now >= e) {
            break;
        }
        while first_due.front().is_some_and(|&d| d <= now) {
            first_due.pop_front();
            book.submit(next_seq, None);
            next_seq += 1;
        }
        let until =
            [first_due.front(), book.mark_times.front()].into_iter().flatten().min().copied();
        let resolved = book.reap(until);
        completed += resolved;
        for _ in 0..resolved {
            book.submit(next_seq, None);
            next_seq += 1;
        }
        if end.is_none() && completed >= plan.warmup_jobs {
            let start = clock.now();
            book.mark_times =
                (0..=plan.rounds as u32).map(|k| start + plan.round_len * k).collect();
            end = book.mark_times.back().copied();
        }
        book.tick_marks();
    }
    book.drain()
}

/// An open loop: job `i` is due `due[i]` after the loop starts, whatever
/// the system is doing; `marks` are the round boundaries on the same axis.
pub struct Open<'a> {
    pub due: &'a [Duration],
    pub marks: &'a [Duration],
}

pub fn open_loop<T: Target, C: Clock>(
    target: &T,
    clock: &C,
    cpu_ms: &dyn Fn() -> f64,
    plan: &Open,
) -> Run {
    let mut book = Book::new(target, clock, cpu_ms);
    let t0 = clock.now();
    book.mark_times = plan.marks.iter().map(|&m| t0 + m).collect();
    let mut next = 0;
    loop {
        let now = clock.now();
        while next < plan.due.len() && t0 + plan.due[next] <= now {
            book.submit(next, Some(t0 + plan.due[next]));
            next += 1;
        }
        book.tick_marks();
        let next_due = plan.due.get(next).map(|&d| t0 + d);
        if next_due.is_none() && book.mark_times.is_empty() {
            break;
        }
        let until = [next_due, book.mark_times.front().copied()].into_iter().flatten().min();
        book.reap(until);
    }
    book.drain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    #[derive(Default)]
    struct SimClock(Cell<Duration>);

    impl Clock for SimClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    const MS: Duration = Duration::from_millis(1);

    /// A circular scan on the simulated clock: a boundary every `segment`,
    /// a job joins at the next boundary after its submission and resolves
    /// `revolution` boundaries later.
    struct SimScan<'a> {
        clock: &'a SimClock,
        segment: Duration,
        revolution: u32,
        /// Boundary index each job joined at, by `seq`.
        joined: RefCell<Vec<u32>>,
        /// Extra time the submit call of one `seq` takes (a stalled driver).
        stall: Option<(usize, Duration)>,
    }

    impl Target for SimScan<'_> {
        type Ticket = Duration;

        fn submit(&self, seq: usize) -> Option<Duration> {
            if let Some((_, d)) = self.stall.filter(|(s, _)| *s == seq) {
                self.clock.sleep(d);
            }
            let boundary = (self.clock.now().as_nanos() / self.segment.as_nanos()) as u32 + 1;
            self.joined.borrow_mut().push(boundary);
            Some(self.segment * (boundary + self.revolution))
        }

        fn wait(&self, done_at: &Duration, timeout: Duration) -> Option<bool> {
            let left = done_at.saturating_sub(self.clock.now());
            self.clock.sleep(left.min(timeout));
            self.poll(done_at)
        }

        fn poll(&self, done_at: &Duration) -> Option<bool> {
            (self.clock.now() >= *done_at).then_some(true)
        }
    }

    fn sim<'a>(clock: &'a SimClock, stall: Option<(usize, Duration)>) -> SimScan<'a> {
        SimScan { clock, segment: 4 * MS, revolution: 16, joined: RefCell::default(), stall }
    }

    #[test]
    fn rider_stagger_persists_after_fifty_replacements() {
        let clock = SimClock::default();
        let scan = sim(&clock, None);
        let plan =
            Closed { width: 8, stagger: 8 * MS, warmup_jobs: 8, round_len: 2_000 * MS, rounds: 2 };
        let run = closed_loop(&scan, &clock, &|| 0.0, &plan);
        assert!(run.samples.len() >= 8 * 50, "each rider was replaced at least fifty times");
        assert_eq!(run.max_outstanding, 8);
        assert_eq!(run.marks.len(), 3);
        // The last eight jobs in flight joined at eight different segment
        // offsets of the revolution: no two riders fell into lock-step.
        let joined = scan.joined.borrow();
        let mut offsets: Vec<u32> = joined[joined.len() - 8..].iter().map(|b| b % 16).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), 8, "offsets {offsets:?}");
        // And every sample is one job: a revolution plus the wait for a boundary.
        for s in &run.samples {
            assert!((64.0..=69.0).contains(&s.latency_ms()), "{s:?}");
        }
    }

    #[test]
    fn lockstep_submission_would_fail_the_stagger_check() {
        let clock = SimClock::default();
        let scan = sim(&clock, None);
        let plan = Closed {
            width: 8,
            stagger: Duration::ZERO,
            warmup_jobs: 8,
            round_len: 500 * MS,
            rounds: 1,
        };
        closed_loop(&scan, &clock, &|| 0.0, &plan);
        let joined = scan.joined.borrow();
        let mut offsets: Vec<u32> = joined[joined.len() - 8..].iter().map(|b| b % 16).collect();
        offsets.dedup();
        assert_eq!(offsets.len(), 1);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_when_the_driver_is_late() {
        let clock = SimClock::default();
        // Submitting job 3 stalls the driver for 50 ms; jobs 4..8 fall due meanwhile.
        let scan = sim(&clock, Some((3, 50 * MS)));
        let due: Vec<Duration> = (0..10).map(|i| 10 * MS * i).collect();
        let marks = [Duration::ZERO, 200 * MS];
        let run = open_loop(&scan, &clock, &|| 0.0, &Open { due: &due, marks: &marks });
        assert_eq!(run.samples.len(), 10);
        assert_eq!(run.marks.len(), 2);
        let by_seq = |seq| run.samples.iter().find(|s| s.seq == seq).unwrap();
        let on_time = by_seq(1);
        assert_eq!(on_time.start, 10 * MS);
        assert!(on_time.late_ms() < 1.5, "{on_time:?}");
        let late = by_seq(4);
        assert_eq!(late.start, 40 * MS, "latency counts from when job 4 was due");
        assert!(late.submitted >= 80 * MS, "it was sent only after the stall: {late:?}");
        assert!(late.late_ms() >= 40.0);
        let from_submit = (late.done - late.submitted).as_secs_f64() * 1e3;
        assert!(late.latency_ms() >= from_submit + 40.0, "the stall is charged to the job");
    }
}
