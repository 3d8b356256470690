//! Candidate sources: the abstraction that lets the mining engine pull
//! funnel survivors from *any* corpus backend — the resident in-memory
//! [`Universe`], the generator itself ([`GeneratedSource`]), a sharded
//! on-disk [`ShardStore`], or a plain candidate slice — through one
//! streaming interface.
//!
//! A source yields [`SourceEvent`]s: surviving candidates in corpus
//! order, interleaved with corruption events that the engine
//! quarantines. Every real backend walks its records lazily through the
//! *same* per-record funnel step ([`FunnelReport::assess`]), which is
//! what makes their study output byte-identical; the store adds only its
//! frame and record-tally checks.

use crate::exec::lock;
use crate::funnel::{resident_record, CandidateHistory, Cloned, FunnelReport, RecordView};
use schevo_core::errors::{ErrorClass, SchevoError};
use schevo_corpus::store::{ShardStore, StoreEvent, StoreIo, StoreStream};
use schevo_corpus::universe::{
    generate_records, CorpusDigester, Emitted, ExpectedCounts, RecordRef, SqlCollectionEntry,
    Universe, UniverseConfig,
};
use schevo_obs::trace::SpanGuard;
use schevo_vcs::history::WalkStrategy;
use std::ops::{ControlFlow, Deref};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One event pulled from a candidate source.
#[derive(Debug)]
pub enum SourceEvent {
    /// A funnel survivor, ready to mine.
    Candidate(CandidateHistory),
    /// A corrupt backend record ([`ErrorClass::StoreCorrupt`]): the
    /// engine quarantines it in place and the stream continues.
    Corrupt(SchevoError),
}

/// What a drained stream reports back.
#[derive(Debug, Clone, Default)]
pub struct SourceSummary {
    /// The funnel ledger accumulated while streaming.
    pub funnel: FunnelReport,
    /// Backend I/O counters (zero for in-memory sources).
    pub io: StoreIo,
}

/// An in-progress streaming read of one source.
pub trait CandidateStream {
    /// The next event, `None` once the source is exhausted.
    fn next_event(&mut self) -> Option<SourceEvent>;
    /// Consume the stream and report its funnel/I/O accounting. Call
    /// after exhaustion; an early finish reports the partial tallies.
    fn finish(self: Box<Self>) -> SourceSummary;
    /// Where to send each candidate once it is mined, so that the thread
    /// that allocated it also frees it; `None` (the default) when the
    /// candidates may be freed wherever they are mined.
    fn spent(&self) -> Option<Sender<CandidateHistory>> {
        None
    }
}

/// A candidate being mined. Dropped, it goes back over its stream's
/// [`CandidateStream::spent`] channel when the stream has one, and is
/// freed in place otherwise.
pub(crate) struct Survivor {
    candidate: CandidateHistory,
    spent: Option<Sender<CandidateHistory>>,
}

impl Survivor {
    pub(crate) fn new(candidate: CandidateHistory, spent: Option<Sender<CandidateHistory>>) -> Self {
        Survivor { candidate, spent }
    }
}

impl Deref for Survivor {
    type Target = CandidateHistory;
    fn deref(&self) -> &CandidateHistory {
        &self.candidate
    }
}

impl Drop for Survivor {
    fn drop(&mut self) {
        if let Some(spent) = self.spent.take() {
            // A stream whose producer has returned drops it here instead.
            let _ = spent.send(std::mem::take(&mut self.candidate));
        }
    }
}

/// A corpus backend the mining engine can stream candidates from.
pub trait CandidateSource {
    /// Estimated number of candidates (progress/ETA sizing only).
    fn size_hint(&self) -> Option<usize> {
        None
    }
    /// Begin streaming, linearizing histories with `strategy`.
    fn stream(&self, strategy: WalkStrategy) -> Box<dyn CandidateStream + '_>;
}

/// Run one record through the funnel step and turn the outcome into the
/// event the engine sees, if any. Rigid survivors are counted, never
/// mined; a survivor without a repository (on disk, potential bit rot) is
/// quarantined instead of killing the run.
fn funnel_event<'a>(
    report: &mut FunnelReport,
    record: RecordView<'a, impl FnOnce() -> Cloned<'a>>,
    strategy: WalkStrategy,
) -> Option<SourceEvent> {
    match report.assess(record, strategy) {
        Ok(Some(c)) if !c.is_rigid() => Some(SourceEvent::Candidate(c)),
        Ok(_) => None,
        Err(e) => Some(SourceEvent::Corrupt(e)),
    }
}

// ---------------------------------------------------------------------
// In-memory backend: the resident Universe.
// ---------------------------------------------------------------------

struct UniverseStream<'a> {
    universe: &'a Universe,
    entries: std::slice::Iter<'a, SqlCollectionEntry>,
    report: FunnelReport,
    strategy: WalkStrategy,
}

impl CandidateStream for UniverseStream<'_> {
    fn next_event(&mut self) -> Option<SourceEvent> {
        loop {
            let record = resident_record(self.universe, self.entries.next()?);
            if let Some(event) = funnel_event(&mut self.report, record, self.strategy) {
                return Some(event);
            }
        }
    }

    fn finish(self: Box<Self>) -> SourceSummary {
        SourceSummary {
            funnel: self.report,
            io: StoreIo::default(),
        }
    }
}

impl CandidateSource for Universe {
    fn size_hint(&self) -> Option<usize> {
        Some(self.expected.analyzed)
    }

    fn stream(&self, strategy: WalkStrategy) -> Box<dyn CandidateStream + '_> {
        Box::new(UniverseStream {
            universe: self,
            entries: self.sql_collection.iter(),
            report: FunnelReport::default(),
            strategy,
        })
    }
}

// ---------------------------------------------------------------------
// Generator backend: the corpus generated while it is mined.
// ---------------------------------------------------------------------

/// Whether `back` is the stream's wake-up rather than a mined survivor,
/// which always has versions.
fn is_wakeup(back: &CandidateHistory) -> bool {
    back.versions.is_empty()
}

/// Send `event` to the stream and count it; true when the stream is
/// closed.
fn send(tx: &SyncSender<SourceEvent>, event: SourceEvent, sent: &mut usize) -> bool {
    *sent += 1;
    tx.send(event).is_err()
}

/// Stop the generator once a send finds the stream closed.
fn flow(stopped: bool) -> ControlFlow<()> {
    if stopped {
        ControlFlow::Break(())
    } else {
        ControlFlow::Continue(())
    }
}

/// The funnel's view of a generated record.
fn view<'a>(record: RecordRef<'a>) -> RecordView<'a, impl FnOnce() -> Cloned<'a>> {
    RecordView {
        name: record.name,
        sql_paths: record.sql_paths,
        libio: record.libio,
        clone: move || {
            let body = record.body?;
            let (pup_months, total_commits) = body.reported_meta();
            Some((body.repo(), pup_months, total_commits))
        },
    }
}

/// Survivors the producer may run ahead of the miner. It bounds a
/// [`GeneratedSource`] stream's corpus memory; output does not depend
/// on it.
const PRODUCER_BOUND: usize = 16;

/// A source that generates its corpus as it is streamed, never holding
/// it resident: each [`CandidateSource::stream`] starts one producer
/// thread that runs [`generate_records`], puts every record through the
/// funnel step and drops it there, and sends only the resulting
/// [`SourceEvent`]s over a bounded channel, so generation overlaps
/// mining on the caller. It yields exactly the candidates, funnel report
/// and corpus digest of the resident [`Universe`] of the same config.
#[derive(Debug)]
pub struct GeneratedSource {
    config: UniverseConfig,
    produced: Mutex<Option<ProducerReport>>,
}

/// What a drained [`GeneratedSource`] stream hands back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProducerReport {
    /// The corpus digest ([`schevo_corpus::universe::corpus_digest`] of
    /// the resident universe of the same config).
    pub corpus_digest: String,
    /// Nanoseconds the producer spent inside the generator: a sum of
    /// [`SpanGuard::slice`] durations between materialized records, which
    /// leaves out each materialized record's funnel step, digest, drop
    /// and channel traffic, and the producer's wait for the stream before
    /// the lightweight records. Those are not sliced one by one, so their
    /// funnel step (a few field checks on a borrowed view) counts as
    /// generation. Traced as one rolled-up `study.generate` span.
    pub generate_nanos: u64,
}

impl GeneratedSource {
    /// A source that generates the corpus of `config`.
    pub fn new(config: UniverseConfig) -> GeneratedSource {
        GeneratedSource {
            config,
            produced: Mutex::new(None),
        }
    }

    /// The last stream's digest and generation time, once its producer
    /// has run to the end; `None` before that or after an early drop.
    pub fn produced(&self) -> Option<ProducerReport> {
        lock(&self.produced).clone()
    }
}

/// The producer thread's result: the funnel ledger, and the digest and
/// generation time when the generator ran to the end.
type ProducerResult = (FunnelReport, Option<ProducerReport>);

/// What a generated stream tells its producer.
#[derive(Debug, Default)]
struct Handoff {
    /// Set once the stream is closed: the producer stops at its next
    /// record, even when it has no survivor left to send.
    closed: AtomicBool,
    /// Events the stream has received.
    taken: AtomicUsize,
    /// Set while the producer waits for the stream to take every event
    /// it sent; the stream then wakes it with an empty candidate over the
    /// `spent` channel.
    waiting: AtomicBool,
}

struct GeneratedStream<'a> {
    source: &'a GeneratedSource,
    /// `None` once closed: dropping the receiver makes the producer's
    /// next send fail, which stops the generator.
    events: Option<Receiver<SourceEvent>>,
    handoff: Arc<Handoff>,
    /// Mined survivors go back to the producer over this channel (see
    /// [`CandidateStream::spent`]), and so does an empty candidate that
    /// wakes it; `None` once closed.
    spent: Option<Sender<CandidateHistory>>,
    producer: Option<JoinHandle<ProducerResult>>,
    report: FunnelReport,
}

impl GeneratedStream<'_> {
    /// Wake a producer waiting on the `spent` channel (see [`Handoff`]).
    fn wake_producer(&self) {
        if let Some(spent) = &self.spent {
            let _ = spent.send(CandidateHistory::default());
        }
    }

    /// Close the channel and join the producer, keeping its ledger and
    /// publishing its digest. A producer panic comes back as the error.
    fn join(&mut self) -> std::thread::Result<()> {
        self.events = None;
        self.handoff.closed.store(true, Ordering::SeqCst);
        self.wake_producer();
        self.spent = None;
        let Some(producer) = self.producer.take() else {
            return Ok(());
        };
        let (report, produced) = producer.join()?;
        self.report = report;
        if produced.is_some() {
            *lock(&self.source.produced) = produced;
        }
        Ok(())
    }
}

impl CandidateStream for GeneratedStream<'_> {
    fn next_event(&mut self) -> Option<SourceEvent> {
        if let Ok(event) = self.events.as_ref()?.recv() {
            self.handoff.taken.fetch_add(1, Ordering::SeqCst);
            if self.handoff.waiting.load(Ordering::SeqCst) {
                self.wake_producer();
            }
            return Some(event);
        }
        // Disconnected: the producer has returned or panicked.
        if let Err(payload) = self.join() {
            std::panic::resume_unwind(payload);
        }
        None
    }

    fn finish(mut self: Box<Self>) -> SourceSummary {
        if let Err(payload) = self.join() {
            std::panic::resume_unwind(payload);
        }
        SourceSummary {
            funnel: self.report,
            io: StoreIo::default(),
        }
    }

    /// The producer allocated every survivor, so it frees them too: a
    /// thread freeing the other's allocations while both allocate makes
    /// them contend in the allocator, and slowed both generation and
    /// parsing.
    fn spent(&self) -> Option<Sender<CandidateHistory>> {
        self.spent.clone()
    }
}

impl Drop for GeneratedStream<'_> {
    /// An early drop (a typed abort mid-pass) stops the producer at its
    /// next send and waits for it, so no generation outlives the stream.
    /// A producer panic is not raised again here (the panic hook has
    /// reported it); [`CandidateStream::next_event`] and
    /// [`CandidateStream::finish`] raise it.
    fn drop(&mut self) {
        let _ = self.join();
    }
}

impl CandidateSource for GeneratedSource {
    fn size_hint(&self) -> Option<usize> {
        Some(ExpectedCounts::for_config(&self.config).analyzed)
    }

    fn stream(&self, strategy: WalkStrategy) -> Box<dyn CandidateStream + '_> {
        *lock(&self.produced) = None;
        let config = self.config;
        let (tx, rx) = sync_channel(PRODUCER_BOUND);
        let handoff = Arc::new(Handoff::default());
        let shared = Arc::clone(&handoff);
        let (spent, returned) = channel::<CandidateHistory>();
        let producer = std::thread::spawn(move || -> ProducerResult {
            let producing = schevo_obs::span!("corpus.stream", seed = config.seed);
            let mut report = FunnelReport::default();
            let mut digester = CorpusDigester::new();
            let mut generate_nanos = 0u64;
            let mut generating = SpanGuard::slice();
            let mut stopped = false;
            let mut sent = 0usize;
            let mut caught_up = false;
            generate_records(config, &mut |emitted| {
                if !caught_up && matches!(emitted, Emitted::Light(_)) {
                    // Light records hold no survivors. Before running
                    // through them, let the stream take every event sent,
                    // so a stream closed right after its last survivor
                    // stops the generator here. A mined survivor coming
                    // back ends the wait early: that stream is mining, and
                    // the light records run alongside.
                    caught_up = true;
                    generate_nanos +=
                        std::mem::replace(&mut generating, SpanGuard::inert()).close();
                    shared.waiting.store(true, Ordering::SeqCst);
                    while shared.taken.load(Ordering::SeqCst) < sent
                        && !shared.closed.load(Ordering::SeqCst)
                    {
                        match returned.recv() {
                            Ok(back) if is_wakeup(&back) => {}
                            _ => break,
                        }
                    }
                    shared.waiting.store(false, Ordering::SeqCst);
                    generating = SpanGuard::slice();
                }
                if shared.closed.load(Ordering::Relaxed) {
                    stopped = true;
                    return ControlFlow::Break(());
                }
                let Emitted::Materialized(record) = emitted else {
                    // A light record's funnel step is a few field checks
                    // on a borrowed view: it counts as generation, with
                    // no clock reading of its own.
                    let event = funnel_event(&mut report, view(emitted.view()), strategy);
                    stopped = event.is_some_and(|e| send(&tx, e, &mut sent));
                    return flow(stopped);
                };
                generate_nanos += std::mem::replace(&mut generating, SpanGuard::inert()).close();
                // Free the survivors mined since the last record.
                returned.try_iter().for_each(drop);
                let event = {
                    let record = record.view();
                    if let Some(body) = record.body {
                        digester.add(record.name, record.sql_paths, body.repo());
                    }
                    funnel_event(&mut report, view(record), strategy)
                };
                // The record is freed here, on the producer, so the
                // caller spends its time mining, not deallocating.
                drop(record);
                stopped = event.is_some_and(|e| send(&tx, e, &mut sent));
                generating = SpanGuard::slice();
                flow(stopped)
            });
            generate_nanos += generating.close();
            // Closing the channel ends the caller's stream; free the rest
            // of the survivors as they are mined, until the stream is
            // closed and the last one is back.
            drop(tx);
            returned.iter().for_each(drop);
            producing.rollup("study.generate", generate_nanos, Vec::new());
            let produced = (!stopped).then(|| ProducerReport {
                corpus_digest: digester.finalize(&config),
                generate_nanos,
            });
            (report, produced)
        });
        Box::new(GeneratedStream {
            source: self,
            events: Some(rx),
            handoff,
            spent: Some(spent),
            producer: Some(producer),
            report: FunnelReport::default(),
        })
    }
}

// ---------------------------------------------------------------------
// Slice backend: pre-funneled candidates.
// ---------------------------------------------------------------------

/// A source over candidates that already passed a funnel elsewhere, as
/// the unit-level mining tests hold them. The funnel ledger only counts the
/// candidates through (`analyzed`); no filtering happens.
#[derive(Debug, Clone, Copy)]
pub struct SliceSource<'a> {
    candidates: &'a [CandidateHistory],
}

impl<'a> SliceSource<'a> {
    /// Wrap a pre-funneled candidate slice.
    pub fn new(candidates: &'a [CandidateHistory]) -> SliceSource<'a> {
        SliceSource { candidates }
    }
}

struct SliceStream<'a> {
    candidates: std::slice::Iter<'a, CandidateHistory>,
    report: FunnelReport,
}

impl CandidateStream for SliceStream<'_> {
    fn next_event(&mut self) -> Option<SourceEvent> {
        let c = self.candidates.next()?;
        let r = &mut self.report;
        r.sql_collection += 1;
        r.lib_io += 1;
        r.cloned += 1;
        r.analyzed += 1;
        Some(SourceEvent::Candidate(c.clone()))
    }

    fn finish(self: Box<Self>) -> SourceSummary {
        SourceSummary {
            funnel: self.report,
            io: StoreIo::default(),
        }
    }
}

impl CandidateSource for SliceSource<'_> {
    fn size_hint(&self) -> Option<usize> {
        Some(self.candidates.len())
    }

    fn stream(&self, _strategy: WalkStrategy) -> Box<dyn CandidateStream + '_> {
        Box::new(SliceStream {
            candidates: self.candidates.iter(),
            report: FunnelReport::default(),
        })
    }
}

// ---------------------------------------------------------------------
// Sharded on-disk backend.
// ---------------------------------------------------------------------

struct StoreSourceStream {
    inner: StoreStream,
    report: FunnelReport,
    strategy: WalkStrategy,
    /// Record count promised by the manifest; compared against the
    /// read tally at exhaustion so a shard truncated exactly at a frame
    /// boundary (clean EOF, nothing left to checksum) is still caught.
    expected_records: u64,
    tally_checked: bool,
}

impl CandidateStream for StoreSourceStream {
    fn next_event(&mut self) -> Option<SourceEvent> {
        loop {
            let Some(event) = self.inner.next_view() else {
                if !self.tally_checked {
                    self.tally_checked = true;
                    let read = self.inner.io().records_read;
                    if read < self.expected_records {
                        return Some(SourceEvent::Corrupt(SchevoError::project(
                            ErrorClass::StoreCorrupt,
                            "store",
                            format!(
                                "store ends early: {read} of {} records readable",
                                self.expected_records
                            ),
                        )));
                    }
                }
                return None;
            };
            match event {
                StoreEvent::Corrupt {
                    shard,
                    offset,
                    detail,
                } => {
                    return Some(SourceEvent::Corrupt(SchevoError::project(
                        ErrorClass::StoreCorrupt,
                        format!("shard-{shard:03}"),
                        format!("{detail} (shard offset {offset})"),
                    )));
                }
                StoreEvent::Record(r) => {
                    let record = RecordView {
                        name: r.name,
                        sql_paths: r.sql_paths,
                        libio: r.libio,
                        clone: || r.materialized(),
                    };
                    if let Some(event) = funnel_event(&mut self.report, record, self.strategy) {
                        return Some(event);
                    }
                }
            }
        }
    }

    fn finish(self: Box<Self>) -> SourceSummary {
        SourceSummary {
            funnel: self.report,
            io: self.inner.io(),
        }
    }
}

impl CandidateSource for ShardStore {
    fn size_hint(&self) -> Option<usize> {
        // Materialized records are the upper bound on funnel survivors.
        Some(self.manifest().materialized as usize)
    }

    fn stream(&self, strategy: WalkStrategy) -> Box<dyn CandidateStream + '_> {
        Box::new(StoreSourceStream {
            inner: ShardStore::stream(self),
            report: FunnelReport::default(),
            strategy,
            expected_records: self.manifest().records,
            tally_checked: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funnel::run_funnel;
    use schevo_corpus::store::generate_into_store;
    use schevo_corpus::universe::{corpus_digest, generate, UniverseConfig};

    fn drain(source: &dyn CandidateSource) -> (Vec<CandidateHistory>, SourceSummary) {
        let mut stream = source.stream(WalkStrategy::FirstParent);
        let mut candidates = Vec::new();
        while let Some(event) = stream.next_event() {
            match event {
                SourceEvent::Candidate(c) => candidates.push(c),
                SourceEvent::Corrupt(e) => panic!("clean source yielded corruption: {e}"),
            }
        }
        (candidates, stream.finish())
    }

    #[test]
    fn universe_source_equals_run_funnel() {
        let config = UniverseConfig::small(2019, 20);
        let u = generate(config);
        let outcome = run_funnel(&u, WalkStrategy::FirstParent);
        let (candidates, summary) = drain(&u);
        assert_eq!(summary.funnel, outcome.report);
        assert_eq!(candidates.len(), outcome.analyzed.len());
        for (a, b) in candidates.iter().zip(outcome.analyzed.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.versions.len(), b.versions.len());
        }
    }

    #[test]
    fn store_source_equals_universe_source() {
        let config = UniverseConfig::small(2019, 20);
        let dir = std::env::temp_dir().join(format!(
            "schevo_source_store_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        generate_into_store(config, &dir, 4).expect("write store");
        let store = ShardStore::open(&dir).expect("open store");

        let u = generate(config);
        let (mem, mem_summary) = drain(&u);
        let (disk, disk_summary) = drain(&store);

        assert_eq!(mem_summary.funnel, disk_summary.funnel);
        assert!(disk_summary.io.records_read > 0);
        assert_eq!(mem.len(), disk.len());
        for (a, b) in mem.iter().zip(disk.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ddl_path, b.ddl_path);
            assert_eq!(a.pup_months, b.pup_months);
            assert_eq!(a.total_commits, b.total_commits);
            assert_eq!(a.versions.len(), b.versions.len(), "{}", a.name);
            for (va, vb) in a.versions.iter().zip(b.versions.iter()) {
                assert_eq!(va.commit, vb.commit, "{}", a.name);
                assert_eq!(va.content, vb.content, "{}", a.name);
                assert_eq!(va.timestamp, vb.timestamp, "{}", a.name);
            }
        }
        assert_eq!(corpus_digest(&u), store.manifest().corpus_digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_source_round_trips() {
        let u = generate(UniverseConfig::small(7, 40));
        let outcome = run_funnel(&u, WalkStrategy::FirstParent);
        let slice = SliceSource::new(&outcome.analyzed);
        let (candidates, summary) = drain(&slice);
        assert_eq!(candidates.len(), outcome.analyzed.len());
        assert_eq!(summary.funnel.analyzed, outcome.analyzed.len());
    }
}
