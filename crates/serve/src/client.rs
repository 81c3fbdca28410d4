//! The client side of the serve protocol: a blocking [`ServeClient`] over
//! one `TcpStream`, plus the [`RemoteReport`] a retrieve returns.
//!
//! Every call returns [`Reply`] — load sheds surface as
//! [`Reply::Busy`] with a retry-after hint rather than an error, because a
//! shed is the *protocol working as designed* under saturation; actual
//! failures (unknown dataset, malformed request, server-side retrieval
//! errors) come back as `Err` with the same [`PqrError`] variant a local
//! call would produce.

use crate::wire::{self, BusyBody, OpenInfo, ResumeBody, RetrieveBody};
use pqr_core::request::RetrievalRequest;
use pqr_transfer::wire::{io_err, read_frame, write_frame};
use pqr_util::byteio::{ByteReader, ByteWriter};
use pqr_util::error::{PqrError, Result};
use std::collections::BTreeMap;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A server reply that may be a load shed instead of a result.
#[derive(Debug, Clone)]
pub enum Reply<T> {
    /// The request was served.
    Ok(T),
    /// The server shed the request; retry after the hinted delay.
    Busy {
        /// Suggested back-off in milliseconds.
        retry_after_ms: u64,
        /// What saturated.
        reason: String,
    },
}

impl<T> Reply<T> {
    /// Unwraps the served value; panics on a shed (test convenience).
    pub fn expect_ok(self, ctx: &str) -> T {
        match self {
            Reply::Ok(v) => v,
            Reply::Busy { reason, .. } => panic!("{ctx}: unexpectedly shed ({reason})"),
        }
    }
}

/// One target row of a [`RemoteReport`] (the wire projection of
/// [`TargetReport`](pqr_progressive::plan::TargetReport)).
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteTarget {
    /// Target QoI name.
    pub name: String,
    /// Whether its tolerance certified.
    pub satisfied: bool,
    /// The absolute tolerance demanded.
    pub tol_abs: f64,
    /// The certified (or best-achieved) error bound.
    pub max_est_error: f64,
    /// Newly fetched payload bytes attributed to this target.
    pub bytes: u64,
}

/// What a remote retrieve returns: the plan report's outcome plus the
/// serving-layer observability fields and any requested value payloads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoteReport {
    /// Whether every target certified.
    pub satisfied: bool,
    /// True when the byte budget stopped refinement early — the reply
    /// still carries the *achieved* bound per target (partial-with-bound,
    /// not an error).
    pub budget_exhausted: bool,
    /// Refine→estimate→tighten rounds used.
    pub iterations: u64,
    /// Bytes this execution newly fetched from the dataset's source.
    pub bytes_fetched: u64,
    /// The session's cumulative fetched bytes.
    pub total_fetched: u64,
    /// Bytes batched execution saved across targets sharing fields.
    pub shared_bytes_saved: u64,
    /// Milliseconds this request waited for a decode permit.
    pub queue_wait_ms: u64,
    /// Store-level fragments decoded during this execution.
    pub store_fragments_decoded: u64,
    /// Store-level refinements served from already-decoded state.
    pub store_refine_reuses: u64,
    /// Full-field recompose/interp passes run while rebuilding
    /// reconstructions for this execution.
    pub recompose_passes: u64,
    /// Zero-decode rounds answered from a memoized reconstruction.
    pub recon_cache_hits: u64,
    /// Milliseconds spent rebuilding reconstructions.
    pub reconstruct_ms: u64,
    /// Per-target outcomes, in request order.
    pub targets: Vec<RemoteTarget>,
    /// Derived QoI values for each name the request asked for.
    pub values: BTreeMap<String, Vec<f64>>,
    /// A resume blob, when the request asked for one.
    pub progress: Option<Vec<u8>>,
}

impl RemoteReport {
    /// Serialises the report for the `retrieve` reply frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(self.satisfied as u8);
        w.put_u8(self.budget_exhausted as u8);
        for v in [
            self.iterations,
            self.bytes_fetched,
            self.total_fetched,
            self.shared_bytes_saved,
            self.queue_wait_ms,
            self.store_fragments_decoded,
            self.store_refine_reuses,
            self.recompose_passes,
            self.recon_cache_hits,
            self.reconstruct_ms,
        ] {
            w.put_u64(v);
        }
        w.put_u64(self.targets.len() as u64);
        for t in &self.targets {
            w.put_bytes(t.name.as_bytes());
            w.put_u8(t.satisfied as u8);
            w.put_f64(t.tol_abs);
            w.put_f64(t.max_est_error);
            w.put_u64(t.bytes);
        }
        w.put_u64(self.values.len() as u64);
        for (name, vals) in &self.values {
            w.put_bytes(name.as_bytes());
            w.put_f64_slice(vals);
        }
        match &self.progress {
            Some(p) => {
                w.put_u8(1);
                w.put_bytes(p);
            }
            None => w.put_u8(0),
        }
        w.finish()
    }

    /// Parses a report (counts checked before allocation).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let satisfied = r.get_u8()? != 0;
        let budget_exhausted = r.get_u8()? != 0;
        let mut scalars = [0u64; 10];
        for s in &mut scalars {
            *s = r.get_u64()?;
        }
        let raw = r.get_u64()? as usize;
        // name prefix + flag + two f64 + bytes
        let nt = r.check_count(raw, 8 + 1 + 16 + 8)?;
        let mut targets = Vec::with_capacity(nt);
        for _ in 0..nt {
            targets.push(RemoteTarget {
                name: wire::get_name(&mut r)?,
                satisfied: r.get_u8()? != 0,
                tol_abs: r.get_f64()?,
                max_est_error: r.get_f64()?,
                bytes: r.get_u64()?,
            });
        }
        let raw = r.get_u64()? as usize;
        let nv = r.check_count(raw, 16)?;
        let mut values = BTreeMap::new();
        for _ in 0..nv {
            let name = wire::get_name(&mut r)?;
            values.insert(name, r.get_f64_vec()?);
        }
        let progress = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_bytes()?.to_vec()),
            tag => {
                return Err(PqrError::CorruptStream(format!(
                    "unknown progress tag {tag}"
                )))
            }
        };
        Ok(Self {
            satisfied,
            budget_exhausted,
            iterations: scalars[0],
            bytes_fetched: scalars[1],
            total_fetched: scalars[2],
            shared_bytes_saved: scalars[3],
            queue_wait_ms: scalars[4],
            store_fragments_decoded: scalars[5],
            store_refine_reuses: scalars[6],
            recompose_passes: scalars[7],
            recon_cache_hits: scalars[8],
            reconstruct_ms: scalars[9],
            targets,
            values,
            progress,
        })
    }
}

/// A blocking protocol client over one connection. One session lives per
/// connection: [`ServeClient::open`] (or [`ServeClient::resume`]) binds
/// it, and subsequent retrieves accumulate progressively — exactly like a
/// local [`Session`](pqr_core::archive::Session), with the wire in
/// between.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to a serve endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).ok();
        Ok(Self { stream })
    }

    /// Sets read/write timeouts on the underlying socket (`None` = block
    /// forever).
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout).map_err(io_err)?;
        self.stream.set_write_timeout(timeout).map_err(io_err)
    }

    fn call(&mut self, kind: u16, body: &[u8]) -> Result<(u16, Vec<u8>)> {
        write_frame(&mut self.stream, kind, body)?;
        let (k, b, _) = read_frame(&mut self.stream)?;
        if k == wire::ERROR {
            return Err(wire::decode_error(&b));
        }
        Ok((k, b))
    }

    fn expect<T>(
        &mut self,
        kind: u16,
        body: &[u8],
        want: u16,
        parse: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<Reply<T>> {
        let (k, b) = self.call(kind, body)?;
        if k == wire::BUSY {
            let busy = BusyBody::from_bytes(&b)?;
            return Ok(Reply::Busy {
                retry_after_ms: busy.retry_after_ms,
                reason: busy.reason,
            });
        }
        if k != want {
            return Err(PqrError::CorruptStream(format!(
                "unexpected reply kind {k} (want {want})"
            )));
        }
        Ok(Reply::Ok(parse(&b)?))
    }

    /// Opens a session on a registered dataset.
    pub fn open(&mut self, dataset: &str) -> Result<Reply<OpenInfo>> {
        let mut w = ByteWriter::new();
        w.put_bytes(dataset.as_bytes());
        self.expect(wire::OPEN, &w.finish(), wire::OPEN_OK, OpenInfo::from_bytes)
    }

    /// Recreates a session from a progress blob saved by an earlier
    /// retrieve with `save_progress` — the remote analogue of
    /// [`Archive::resume_session`](pqr_core::archive::Archive::resume_session).
    pub fn resume(&mut self, dataset: &str, progress: &[u8]) -> Result<Reply<OpenInfo>> {
        let body = ResumeBody {
            dataset: dataset.to_string(),
            progress: progress.to_vec(),
        };
        self.expect(
            wire::RESUME,
            &body.to_bytes(),
            wire::OPEN_OK,
            OpenInfo::from_bytes,
        )
    }

    /// Executes a retrieval request on the open session, optionally asking
    /// for derived QoI values and a resume blob.
    pub fn retrieve(
        &mut self,
        request: &RetrievalRequest,
        want_values: &[&str],
        save_progress: bool,
    ) -> Result<Reply<RemoteReport>> {
        let body = RetrieveBody {
            request: request.clone(),
            want_values: want_values.iter().map(|s| s.to_string()).collect(),
            save_progress,
        };
        self.expect(
            wire::RETRIEVE,
            &body.to_bytes(),
            wire::RETRIEVE_OK,
            RemoteReport::from_bytes,
        )
    }

    /// Fetches the server's metrics snapshot.
    pub fn stats(&mut self) -> Result<Reply<crate::metrics::StatsSnapshot>> {
        self.expect(
            wire::STATS,
            &[],
            wire::STATS_OK,
            crate::metrics::StatsSnapshot::from_bytes,
        )
    }

    /// Closes the connection cleanly (waits for the server's `bye`).
    pub fn close(mut self) -> Result<()> {
        let (k, _) = self.call(wire::CLOSE, &[])?;
        if k != wire::BYE {
            return Err(PqrError::CorruptStream(format!(
                "unexpected close reply kind {k}"
            )));
        }
        Ok(())
    }

    /// Asks the server to shut down (drain workers and exit the accept
    /// loop), then closes this connection.
    pub fn shutdown_server(mut self) -> Result<()> {
        let (k, _) = self.call(wire::SHUTDOWN, &[])?;
        if k != wire::BYE {
            return Err(PqrError::CorruptStream(format!(
                "unexpected shutdown reply kind {k}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_report_roundtrips() {
        let report = RemoteReport {
            satisfied: true,
            budget_exhausted: false,
            iterations: 3,
            bytes_fetched: 4096,
            total_fetched: 8192,
            shared_bytes_saved: 512,
            queue_wait_ms: 7,
            store_fragments_decoded: 11,
            store_refine_reuses: 2,
            recompose_passes: 24,
            recon_cache_hits: 3,
            reconstruct_ms: 5,
            targets: vec![RemoteTarget {
                name: "V".into(),
                satisfied: true,
                tol_abs: 1e-3,
                max_est_error: 4.2e-4,
                bytes: 4096,
            }],
            values: BTreeMap::from([("V".to_string(), vec![1.0, 2.5, -3.0])]),
            progress: Some(vec![9, 9, 9]),
        };
        assert_eq!(
            RemoteReport::from_bytes(&report.to_bytes()).unwrap(),
            report
        );
    }

    #[test]
    fn empty_report_roundtrips() {
        let report = RemoteReport::default();
        assert_eq!(
            RemoteReport::from_bytes(&report.to_bytes()).unwrap(),
            report
        );
    }

    #[test]
    fn hostile_target_count_fails_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(0);
        for _ in 0..10 {
            w.put_u64(0);
        }
        w.put_u64(u64::MAX / 8); // absurd target count
        assert!(RemoteReport::from_bytes(&w.finish()).is_err());
    }
}
