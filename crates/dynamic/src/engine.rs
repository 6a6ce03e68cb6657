//! One engine interface: the verbs every serving engine shares.
//!
//! The crate serves one algorithm through three engines: the serial
//! [`ServeLoop`], the MPC-simulated [`ShardedServeLoop`] and the
//! networked [`NetServeLoop`]. [`Engine`] is what they have in common,
//! so each driver is written once and runs all three: the `salloc
//! dynamic` loop, WAL replay ([`crate::wal::replay`]), the experiments'
//! reference runs and the ≡-serial property harness ([`drive`]).
//!
//! | verb | serial | sharded | networked |
//! |---|---|---|---|
//! | [`Engine::apply_batch`] | `apply` per update | routed repair waves | wire route + waves |
//! | [`Engine::end_epoch`] | certificate sweep | + migration commit, census | + wire commit, census |
//! | [`Engine::served`] | the maintained matching | the maintained matching | gathered from the workers over the wire |
//! | [`Engine::checkpoint_bytes`] | serial snapshot | sharded snapshot | sharded snapshot |
//!
//! The engines keep their own inherent methods and typed errors; the
//! trait wraps them and boxes the error ([`EngineError`]).
//!
//! # Who owns the write-ahead log
//!
//! The driver does. Engines only apply batches, close epochs and encode
//! their snapshot; the provided methods do the logging, the same way
//! for all three. [`Engine::run_epoch`] appends a batch before the
//! engine acts on it and the epoch close after, with the resulting
//! match size. [`Engine::checkpoint`] writes a full snapshot atomically
//! and appends a base marker carrying its checksum; it is the one way a
//! snapshot file gets written, so every periodic checkpoint is a full
//! base and crash recovery replays only the log past the last one — at
//! most `--checkpoint-every` epochs. Every append is metered as
//! [`Counter::WalBytes`].
//!
//! # One epoch source
//!
//! Every engine's epoch is the serial core's completed-epoch count,
//! [`ServeStats::epochs`](crate::ServeStats::epochs), read through
//! [`Engine::serial`]. WAL records, replay's skip rule and the resume
//! point of a restored engine all read that one counter.

use std::fs::File;
use std::path::Path;

use sparse_alloc_graph::io::fnv1a64;
use sparse_alloc_graph::Assignment;
use sparse_alloc_obs::{Counter, Registry, Tracer};

use crate::distributed::{BatchReport, ShardedEpochReport, ShardedServeLoop};
use crate::net::{NetEpochReport, NetServeLoop};
use crate::serve::{EpochReport, ServeLoop};
use crate::snapshot;
use crate::update::Update;
use crate::wal::{WalError, WalWriter};

/// Why an engine verb failed: the engine's own typed error, boxed.
pub type EngineError = Box<dyn std::error::Error + Send + Sync>;

/// A serving engine: apply batches, close epochs, serve the allocation.
/// See the [module docs](self).
pub trait Engine {
    /// What applying one batch reports.
    type Batch;
    /// What closing one epoch reports.
    type Report;

    /// Apply one epoch's update batch, in arrival order.
    fn apply_batch(&mut self, updates: &[Update]) -> Result<Self::Batch, EngineError>;

    /// Close the epoch: restore the `k/(k+1)` certificate and advance
    /// the epoch counter.
    fn end_epoch(&mut self) -> Result<Self::Report, EngineError>;

    /// The allocation the engine serves.
    fn served(&mut self) -> Result<Assignment, EngineError>;

    /// The serial core: configuration, lifetime stats (the epoch
    /// counter), match size and the live graph.
    fn serial(&self) -> &ServeLoop;

    /// The stack's metrics registry.
    fn obs(&self) -> &Registry;

    /// Mutable access to the stack's metrics registry.
    fn obs_mut(&mut self) -> &mut Registry;

    /// Install a phase tracer on the whole stack.
    fn set_tracer(&mut self, tracer: Tracer);

    /// Full consistency check of the engine state.
    fn validate(&self) -> Result<(), String>;

    /// Encode a full snapshot of the engine.
    fn checkpoint_bytes(&mut self) -> Result<Vec<u8>, EngineError>;

    /// Atomically write a full snapshot to `path`, then append a base
    /// marker (the epoch and the snapshot's checksum) to `wal`.
    fn checkpoint(
        &mut self,
        path: &Path,
        wal: Option<&mut WalWriter<File>>,
    ) -> Result<(), EngineError> {
        let bytes = self.checkpoint_bytes()?;
        snapshot::save_atomic(path, &bytes)?;
        let epoch = self.serial().stats().epochs as u64;
        log(self, wal, |w| w.append_base(epoch, fnv1a64(&bytes)))
    }

    /// One whole epoch: append `updates` to `wal`, apply them, close the
    /// epoch, then append the close with the resulting match size.
    fn run_epoch(
        &mut self,
        updates: &[Update],
        mut wal: Option<&mut WalWriter<File>>,
    ) -> Result<(Self::Batch, Self::Report), EngineError> {
        let epoch = self.serial().stats().epochs as u64;
        log(self, wal.as_deref_mut(), |w| w.append_batch(epoch, updates))?;
        let batch = self.apply_batch(updates)?;
        let report = self.end_epoch()?;
        let size = self.serial().match_size() as u64;
        log(self, wal, |w| w.append_epoch_end(epoch, size))?;
        Ok((batch, report))
    }
}

/// Append one record to `wal`, if a log is open, and meter its bytes.
fn log<E: Engine + ?Sized>(
    engine: &mut E,
    wal: Option<&mut WalWriter<File>>,
    append: impl FnOnce(&mut WalWriter<File>) -> Result<u64, WalError>,
) -> Result<(), EngineError> {
    if let Some(w) = wal {
        let n = append(w)?;
        engine.obs_mut().inc(Counter::WalBytes, n);
    }
    Ok(())
}

/// Run `engine` one epoch per batch, without a log, and return the
/// epoch reports.
pub fn drive<'a, E: Engine>(
    engine: &mut E,
    batches: impl IntoIterator<Item = &'a [Update]>,
) -> Result<Vec<E::Report>, EngineError> {
    batches
        .into_iter()
        .map(|batch| engine.run_epoch(batch, None).map(|(_, report)| report))
        .collect()
}

impl Engine for ServeLoop {
    type Batch = ();
    type Report = EpochReport;

    fn apply_batch(&mut self, updates: &[Update]) -> Result<(), EngineError> {
        for up in updates {
            self.apply(up);
        }
        Ok(())
    }

    fn end_epoch(&mut self) -> Result<EpochReport, EngineError> {
        Ok(ServeLoop::end_epoch(self))
    }

    fn served(&mut self) -> Result<Assignment, EngineError> {
        Ok(self.assignment())
    }

    fn serial(&self) -> &ServeLoop {
        self
    }

    fn obs(&self) -> &Registry {
        ServeLoop::obs(self)
    }

    fn obs_mut(&mut self) -> &mut Registry {
        ServeLoop::obs_mut(self)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        ServeLoop::set_tracer(self, tracer);
    }

    fn validate(&self) -> Result<(), String> {
        ServeLoop::validate(self)
    }

    fn checkpoint_bytes(&mut self) -> Result<Vec<u8>, EngineError> {
        let mut bytes = Vec::new();
        snapshot::write_serial(self, &mut bytes)?;
        Ok(bytes)
    }
}

impl Engine for ShardedServeLoop {
    type Batch = BatchReport;
    type Report = ShardedEpochReport;

    fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchReport, EngineError> {
        Ok(ShardedServeLoop::apply_batch(self, updates)?)
    }

    fn end_epoch(&mut self) -> Result<ShardedEpochReport, EngineError> {
        Ok(ShardedServeLoop::end_epoch(self)?)
    }

    fn served(&mut self) -> Result<Assignment, EngineError> {
        Ok(self.assignment())
    }

    fn serial(&self) -> &ServeLoop {
        ShardedServeLoop::serial(self)
    }

    fn obs(&self) -> &Registry {
        ShardedServeLoop::obs(self)
    }

    fn obs_mut(&mut self) -> &mut Registry {
        ShardedServeLoop::obs_mut(self)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        ShardedServeLoop::set_tracer(self, tracer);
    }

    fn validate(&self) -> Result<(), String> {
        ShardedServeLoop::validate(self)
    }

    fn checkpoint_bytes(&mut self) -> Result<Vec<u8>, EngineError> {
        let mut bytes = Vec::new();
        snapshot::write_sharded(self, &mut bytes)?;
        Ok(bytes)
    }
}

impl Engine for NetServeLoop {
    type Batch = BatchReport;
    type Report = NetEpochReport;

    fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchReport, EngineError> {
        Ok(NetServeLoop::apply_batch(self, updates)?)
    }

    fn end_epoch(&mut self) -> Result<NetEpochReport, EngineError> {
        Ok(NetServeLoop::end_epoch(self)?)
    }

    fn served(&mut self) -> Result<Assignment, EngineError> {
        Ok(self.gather_assignment()?)
    }

    fn serial(&self) -> &ServeLoop {
        NetServeLoop::serial(self)
    }

    fn obs(&self) -> &Registry {
        NetServeLoop::obs(self)
    }

    fn obs_mut(&mut self) -> &mut Registry {
        NetServeLoop::obs_mut(self)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        NetServeLoop::set_tracer(self, tracer);
    }

    fn validate(&self) -> Result<(), String> {
        NetServeLoop::validate(self)
    }

    fn checkpoint_bytes(&mut self) -> Result<Vec<u8>, EngineError> {
        Ok(NetServeLoop::checkpoint_bytes(self)?)
    }
}
