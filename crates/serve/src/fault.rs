//! Fault injection for the serving stack: a byte-stream wrapper that
//! truncates, shortens or severs traffic, and a fragment-source
//! wrapper that fails or slows fetches on demand.
//!
//! The server's robustness claims — truncated frames produce clean error
//! replies, a client dying mid-retrieve leaves the shared
//! [`ProgressStore`](pqr_progressive::store::ProgressStore) serving
//! subsequent clients byte-identically, a saturated decode pool sheds
//! instead of queueing unboundedly — are only claims until traffic
//! actually misbehaves. These wrappers make the misbehaviour
//! deterministic, so the integration suite asserts the claims instead of
//! hoping.

use pqr_progressive::fragstore::{FragmentId, FragmentSource, Manifest, SourceStats};
use pqr_util::error::{PqrError, Result};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A `Read + Write` wrapper that injects transport faults.
///
/// All knobs default to "healthy"; enable the ones a test needs. The
/// wrapper is deliberately transport-agnostic — production framing code
/// ([`pqr_transfer::wire`]) runs over it unchanged, which is the point.
pub struct FaultyStream<S> {
    inner: S,
    /// Total write bytes allowed through; anything beyond is silently
    /// swallowed (reported as written), so the peer sees a *truncated*
    /// frame followed by whatever the test does next (usually a drop).
    write_budget: Option<usize>,
    /// Read calls allowed before the stream reports a hard disconnect.
    reads_before_disconnect: Option<u64>,
    /// Cap on bytes returned per read call (exercises `read_exact` loops).
    max_read_chunk: Option<usize>,
    reads_done: u64,
    truncated: bool,
}

impl<S> FaultyStream<S> {
    /// Wraps a healthy stream; configure faults with the builder methods.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            write_budget: None,
            reads_before_disconnect: None,
            max_read_chunk: None,
            reads_done: 0,
            truncated: false,
        }
    }

    /// Lets `n` write bytes through, then swallows the rest — the peer
    /// sees a truncated stream.
    pub fn truncate_writes_after(mut self, n: usize) -> Self {
        self.write_budget = Some(n);
        self
    }

    /// Reports a connection reset after `n` read calls.
    pub fn disconnect_after_reads(mut self, n: u64) -> Self {
        self.reads_before_disconnect = Some(n);
        self
    }

    /// Returns at most `n` bytes per read call.
    pub fn short_reads(mut self, n: usize) -> Self {
        self.max_read_chunk = Some(n.max(1));
        self
    }

    /// True once the write budget has swallowed at least one byte.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The wrapped stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(limit) = self.reads_before_disconnect {
            if self.reads_done >= limit {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected disconnect",
                ));
            }
        }
        self.reads_done += 1;
        let cap = self.max_read_chunk.unwrap_or(buf.len()).min(buf.len());
        self.inner.read(&mut buf[..cap])
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &mut self.write_budget {
            None => self.inner.write(buf),
            Some(budget) => {
                if *budget == 0 {
                    // swallow: the caller believes the frame went out
                    self.truncated = true;
                    return Ok(buf.len());
                }
                let allowed = (*budget).min(buf.len());
                let wrote = self.inner.write(&buf[..allowed])?;
                *budget -= wrote;
                if wrote < buf.len() {
                    self.truncated = true;
                    // claim full success so the writer keeps going and the
                    // peer is left holding a half-frame
                    return Ok(buf.len());
                }
                Ok(wrote)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A [`FragmentSource`] wrapper that fails or delays fetches **on
/// command**.
///
/// [`FaultySource::new`] returns the source together with a
/// [`FaultSwitch`] the test keeps; the source moves into an `Archive` /
/// server registry while the switch flips failure and delay modes from
/// outside, at exact points in the scenario — warm the store up, *then*
/// fail the next fetch, *then* recover. That makes "failure mid-deepening
/// neither poisons the shared store nor corrupts later retrievals"
/// deterministically assertable.
pub struct FaultySource {
    inner: Arc<dyn FragmentSource>,
    state: Arc<FaultState>,
}

/// The remote control of a [`FaultySource`]. Cloneable; all clones steer
/// the same source.
#[derive(Clone)]
pub struct FaultSwitch {
    state: Arc<FaultState>,
}

#[derive(Default)]
struct FaultState {
    failing: std::sync::atomic::AtomicBool,
    delay_ms: AtomicU64,
    attempts: AtomicU64,
}

impl FaultSwitch {
    /// Makes every subsequent fetch fail with `CorruptStream` (`true`) or
    /// succeed again (`false`).
    pub fn set_failing(&self, failing: bool) {
        self.state.failing.store(failing, Ordering::Release);
    }

    /// Adds a fixed per-fetch delay (0 = none). Used to hold decode
    /// permits for a deterministic stretch in saturation tests.
    pub fn set_delay_ms(&self, ms: u64) {
        self.state.delay_ms.store(ms, Ordering::Release);
    }

    /// Fetches attempted so far (including failed ones), across all
    /// sessions of the wrapped source.
    pub fn attempts(&self) -> u64 {
        self.state.attempts.load(Ordering::Relaxed)
    }
}

impl FaultySource {
    /// Wraps a healthy source, returning it with its control switch.
    pub fn new(inner: Arc<dyn FragmentSource>) -> (Self, FaultSwitch) {
        let state = Arc::new(FaultState::default());
        (
            Self {
                inner,
                state: Arc::clone(&state),
            },
            FaultSwitch { state },
        )
    }
}

impl FragmentSource for FaultySource {
    fn manifest(&self) -> Result<Manifest> {
        self.inner.manifest()
    }

    fn fetch(&self, id: FragmentId) -> Result<Arc<Vec<u8>>> {
        let ordinal = self.state.attempts.fetch_add(1, Ordering::Relaxed);
        let delay = self.state.delay_ms.load(Ordering::Acquire);
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
        if self.state.failing.load(Ordering::Acquire) {
            return Err(PqrError::CorruptStream(format!(
                "injected fetch failure (attempt {ordinal})"
            )));
        }
        self.inner.fetch(id)
    }

    // read_many is left at the default per-fragment loop on purpose: every
    // fragment passes through the counted, fallible `fetch` above.

    fn stats(&self) -> SourceStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_budget_truncates_then_swallows() {
        let mut sink = Vec::new();
        {
            let mut s = FaultyStream::new(&mut sink).truncate_writes_after(5);
            s.write_all(b"0123456789").unwrap(); // claims success
            s.write_all(b"abc").unwrap();
            assert!(s.truncated());
        }
        assert_eq!(sink, b"01234");
    }

    #[test]
    fn disconnect_fires_after_the_budgeted_reads() {
        let data = [7u8; 100];
        let mut s = FaultyStream::new(&data[..]).disconnect_after_reads(2);
        let mut buf = [0u8; 10];
        assert!(s.read(&mut buf).is_ok());
        assert!(s.read(&mut buf).is_ok());
        let err = s.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn short_reads_still_deliver_everything_via_read_exact() {
        let data: Vec<u8> = (0..64).collect();
        let mut s = FaultyStream::new(&data[..]).short_reads(3);
        let mut buf = [0u8; 64];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf[..], &data[..]);
    }

    #[test]
    fn framing_survives_short_reads() {
        let mut wire_bytes = Vec::new();
        pqr_transfer::wire::write_frame(&mut wire_bytes, 42, b"payload").unwrap();
        let mut s = FaultyStream::new(&wire_bytes[..]).short_reads(2);
        let (kind, body, _) = pqr_transfer::wire::read_frame(&mut s).unwrap();
        assert_eq!(kind, 42);
        assert_eq!(body, b"payload");
    }

    #[test]
    fn fault_switch_flips_fail_and_recover() {
        use pqr_progressive::fragstore::InMemorySource;
        // a minimal real container to wrap
        let n = 64;
        let archive = pqr_core::archive::ArchiveBuilder::new(&[n])
            .field("u", (0..n).map(|i| i as f64).collect())
            .qoi("u2", pqr_qoi::QoiExpr::var(0).pow(2))
            .build()
            .unwrap();
        let src = Arc::new(InMemorySource::new(archive.to_bytes()).unwrap());
        let (faulty, switch) = FaultySource::new(src);
        let id = FragmentId { field: 0, index: 0 };
        assert!(faulty.fetch(id).is_ok());
        switch.set_failing(true);
        assert!(matches!(faulty.fetch(id), Err(PqrError::CorruptStream(_))));
        switch.set_failing(false);
        assert!(faulty.fetch(id).is_ok());
        assert_eq!(switch.attempts(), 3);
    }
}
