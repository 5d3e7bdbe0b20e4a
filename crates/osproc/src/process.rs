//! Simulated processes.

use crate::ids::{NodeId, Pid};
use crate::memimage::MemImage;
use simcore::{ByteSize, SimTime};
use std::collections::VecDeque;

/// Unix-style signals the simulation delivers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Signal {
    /// SIGUSR1 — the checkpoint request signal (§III-C).
    Usr1,
    /// SIGTERM — polite kill.
    Term,
}

/// Lifecycle state of a process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcState {
    /// Scheduled and runnable.
    Running,
    /// Exited voluntarily with a status code.
    Exited(i32),
    /// Killed by the OS or another process.
    Killed,
}

/// A device region mapped into a process's address space by a GPU
/// driver.
///
/// This is the poison that makes conventional CPR fail (§II): "several
/// special devices are mapped to the memory space of an OpenCL process
/// by the GPU device driver … the existing CPR system does not know how
/// to handle those memory-mapped devices".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceMapping {
    /// Which device file the mapping came from (e.g. `/dev/nimbus0`).
    pub device: String,
    /// Size of the mapped region.
    pub size: ByteSize,
}

/// One simulated process.
#[derive(Clone, Debug)]
pub struct Process {
    /// Cluster-unique process id.
    pub pid: Pid,
    /// Node the process runs on.
    pub node: NodeId,
    /// Parent, if forked.
    pub parent: Option<Pid>,
    /// Children forked by this process.
    pub children: Vec<Pid>,
    /// The process's virtual clock.
    pub clock: SimTime,
    /// Serializable host memory.
    pub image: MemImage,
    /// Device regions mapped by drivers loaded in this process.
    pub device_mappings: Vec<DeviceMapping>,
    /// Lifecycle state.
    pub state: ProcState,
    /// Signals delivered but not yet consumed by the program.
    pub pending_signals: VecDeque<Signal>,
}

impl Process {
    pub(crate) fn new(pid: Pid, node: NodeId, parent: Option<Pid>) -> Self {
        Process {
            pid,
            node,
            parent,
            children: Vec::new(),
            clock: SimTime::ZERO,
            image: MemImage::new(),
            device_mappings: Vec::new(),
            state: ProcState::Running,
            pending_signals: VecDeque::new(),
        }
    }

    /// `true` while the process can execute.
    pub fn is_alive(&self) -> bool {
        self.state == ProcState::Running
    }

    /// `true` if any driver mapped device regions here — i.e. a
    /// conventional CPR system would refuse (or corrupt) a dump.
    pub fn has_device_mappings(&self) -> bool {
        !self.device_mappings.is_empty()
    }

    /// Record a device mapping (called by drivers at initialisation).
    pub fn map_device(&mut self, device: impl Into<String>, size: ByteSize) {
        self.device_mappings.push(DeviceMapping {
            device: device.into(),
            size,
        });
    }

    /// Remove all mappings contributed by `device` (driver unloaded).
    pub fn unmap_device(&mut self, device: &str) {
        self.device_mappings.retain(|m| m.device != device);
    }

    /// Take the oldest pending signal, if any.
    pub fn poll_signal(&mut self) -> Option<Signal> {
        self.pending_signals.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_process_is_clean() {
        let p = Process::new(Pid(1), NodeId(0), None);
        assert!(p.is_alive());
        assert!(!p.has_device_mappings());
        assert!(p.image.is_empty());
        assert_eq!(p.clock, SimTime::ZERO);
    }

    #[test]
    fn device_mappings_toggle() {
        let mut p = Process::new(Pid(1), NodeId(0), None);
        p.map_device("/dev/nimbus0", ByteSize::mib(256));
        p.map_device("/dev/nimbus0", ByteSize::mib(16));
        assert!(p.has_device_mappings());
        p.unmap_device("/dev/nimbus0");
        assert!(!p.has_device_mappings());
    }

    #[test]
    fn signals_queue_fifo() {
        let mut p = Process::new(Pid(1), NodeId(0), None);
        p.pending_signals.push_back(Signal::Usr1);
        p.pending_signals.push_back(Signal::Term);
        assert_eq!(p.poll_signal(), Some(Signal::Usr1));
        assert_eq!(p.poll_signal(), Some(Signal::Term));
        assert_eq!(p.poll_signal(), None);
    }
}
