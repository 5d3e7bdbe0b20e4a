//! Simulated filesystems.
//!
//! Three kinds, with the sequential-I/O bandwidths measured with
//! Bonnie++ in Table I of the paper: the local hard disk, the Linux RAM
//! disk, and NFS. A write or read charges `latency + size/bandwidth` to
//! the calling process's clock; contents are held in memory so
//! checkpoint files can actually be read back and restored from.
//!
//! A file is a [`FileBytes`]: a shared body followed by a run of zeros
//! kept only as a length. A dump's process-baseline padding (tens of
//! MB, Fig. 5) lives in that run, so it costs time and fills the
//! [`FsStats`] books like real bytes, but is never allocated, copied or
//! hashed byte by byte. The body is a [`Payload`], the bytes type a
//! buffer's contents travel in from the device to the dump: a read
//! hands it out shared, not a copy.

use simcore::calib;
use simcore::{ByteSize, Fnv64, LinkModel, Payload, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// The contents of one file: a shared `body` followed by `zero_tail`
/// zero bytes that are carried as a length.
///
/// [`FileBytes::len`] is the logical length, which every cost and
/// statistic uses. [`FileBytes::body`] is what a parser reads. There is
/// deliberately no `Deref` to `[u8]`: each caller picks one of the two.
/// Cloning shares the body; the mutators copy it first only if it is
/// shared.
#[derive(Clone, Debug, Default)]
pub struct FileBytes {
    body: Payload,
    zero_tail: u64,
}

impl FileBytes {
    /// `body` followed by `zero_tail` zero bytes.
    pub fn new(body: impl Into<Payload>, zero_tail: u64) -> Self {
        FileBytes {
            body: body.into(),
            zero_tail,
        }
    }

    /// Logical length: the body plus the run of zeros.
    pub fn len(&self) -> u64 {
        self.body.len() as u64 + self.zero_tail
    }

    /// `true` for a zero-length file.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored bytes before the run of zeros.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Length of the run of zeros after the body.
    pub fn zero_tail(&self) -> u64 {
        self.zero_tail
    }

    /// Cut the logical length to `len` (no-op if already shorter): the
    /// run of zeros goes first, then the body.
    pub fn truncate(&mut self, len: u64) {
        let body_len = self.body.len() as u64;
        if len < body_len {
            let mut body = std::mem::take(&mut self.body).into_vec();
            body.truncate(len as usize);
            self.body = body.into();
            self.zero_tail = 0;
        } else {
            self.zero_tail = self.zero_tail.min(len - body_len);
        }
    }

    /// XOR `mask` into the byte at logical offset `pos` (no-op past the
    /// end). A byte inside the run of zeros is first made real: the
    /// body grows with zeros up to and including it.
    pub fn flip(&mut self, pos: u64, mask: u8) {
        if pos >= self.len() {
            return;
        }
        let mut body = std::mem::take(&mut self.body).into_vec();
        let pos = pos as usize;
        if pos >= body.len() {
            self.zero_tail -= (pos + 1 - body.len()) as u64;
            body.resize(pos + 1, 0);
        }
        body[pos] ^= mask;
        self.body = body.into();
    }

    /// Append `data` followed by `zero_tail` more zeros. A run of zeros
    /// that `data` lands behind is made real first.
    pub(crate) fn append(&mut self, data: &[u8], zero_tail: u64) {
        if !data.is_empty() {
            let mut body = std::mem::take(&mut self.body).into_vec();
            body.resize(body.len() + self.zero_tail as usize, 0);
            body.extend_from_slice(data);
            self.body = body.into();
            self.zero_tail = 0;
        }
        self.zero_tail += zero_tail;
    }

    /// FNV-1a 64 of every logical byte, the zeros taken in closed form.
    pub fn fnv64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.update(&self.body);
        h.update_zeros(self.zero_tail);
        h.finish()
    }

    /// Every logical byte, the zeros included (inspection and tests).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len() as usize);
        out.extend_from_slice(&self.body);
        out.resize(self.len() as usize, 0);
        out
    }
}

impl From<Vec<u8>> for FileBytes {
    fn from(body: Vec<u8>) -> Self {
        FileBytes::new(body, 0)
    }
}

/// Equal logical bytes, however each side splits them between body and
/// run of zeros.
impl PartialEq for FileBytes {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.body(), other.body());
        let common = a.len().min(b.len());
        self.len() == other.len()
            && a[..common] == b[..common]
            && a[common..].iter().chain(&b[common..]).all(|&x| x == 0)
    }
}

impl Eq for FileBytes {}

/// The kind of storage backing a filesystem.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsKind {
    /// Local hard disk (Table I: 110 / 106 MB/s write/read).
    LocalDisk,
    /// Linux RAM disk (Table I: 2881 / 4800 MB/s write/read).
    RamDisk,
    /// NFS over gigabit Ethernet (Table I: 72.5 / 21.2 MB/s write/read).
    Nfs,
}

impl FsKind {
    /// The calibrated write path for this storage kind.
    pub fn write_link(self) -> LinkModel {
        match self {
            FsKind::LocalDisk => {
                LinkModel::new(SimDuration::from_millis(8), calib::disk_local_write())
            }
            FsKind::RamDisk => LinkModel::new(SimDuration::from_micros(5), calib::ramdisk_write()),
            FsKind::Nfs => LinkModel::new(SimDuration::from_millis(1), calib::nfs_write()),
        }
    }

    /// The calibrated read path for this storage kind.
    pub fn read_link(self) -> LinkModel {
        match self {
            FsKind::LocalDisk => {
                LinkModel::new(SimDuration::from_millis(8), calib::disk_local_read())
            }
            FsKind::RamDisk => LinkModel::new(SimDuration::from_micros(5), calib::ramdisk_read()),
            FsKind::Nfs => LinkModel::new(SimDuration::from_millis(1), calib::nfs_read()),
        }
    }
}

/// Filesystem operation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound(String),
    /// A write failed (injected disk fault); nothing was stored.
    WriteFailed(String),
    /// The mount is temporarily unreachable (injected NFS outage).
    Unavailable(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::WriteFailed(p) => write!(f, "write failed: {p}"),
            FsError::Unavailable(p) => write!(f, "filesystem unavailable: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Cumulative I/O statistics of one filesystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Number of write operations.
    pub writes: u64,
    /// Number of read operations.
    pub reads: u64,
}

/// One simulated filesystem instance.
#[derive(Clone, Debug)]
pub struct Fs {
    kind: FsKind,
    label: String,
    files: BTreeMap<String, FileBytes>,
    stats: FsStats,
}

impl Fs {
    /// Create an empty filesystem.
    pub fn new(kind: FsKind, label: impl Into<String>) -> Self {
        Fs {
            kind,
            label: label.into(),
            files: BTreeMap::new(),
            stats: FsStats::default(),
        }
    }

    /// Storage kind.
    pub fn kind(&self) -> FsKind {
        self.kind
    }

    /// Human-readable label (e.g. `"nfs-shared"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// Write (create or replace) a file, charging the caller's clock.
    pub fn write(
        &mut self,
        now: &mut SimTime,
        path: &str,
        data: impl Into<FileBytes>,
    ) -> SimDuration {
        let data = data.into();
        let cost = self.kind.write_link().cost(ByteSize::bytes(data.len()));
        *now += cost;
        self.stats.bytes_written += data.len();
        self.stats.writes += 1;
        self.files.insert(path.to_string(), data);
        cost
    }

    /// Append to a file, creating it if absent, charging the caller's
    /// clock. The per-operation seek/issue latency is paid once, when
    /// the file is created; subsequent appends stream at the medium's
    /// sequential bandwidth, so a chunked writer pays (asymptotically)
    /// the same total cost as one large [`Fs::write`]. The appended
    /// bytes are `data` followed by `zero_tail` zeros; the body grows in
    /// place unless a reader still shares it.
    pub fn append(
        &mut self,
        now: &mut SimTime,
        path: &str,
        data: &[u8],
        zero_tail: u64,
    ) -> SimDuration {
        let len = data.len() as u64 + zero_tail;
        let size = ByteSize::bytes(len);
        let link = self.kind.write_link();
        let cost = if self.files.contains_key(path) {
            link.bandwidth.transfer_time(size)
        } else {
            link.cost(size)
        };
        *now += cost;
        self.stats.bytes_written += len;
        self.stats.writes += 1;
        self.files
            .entry(path.to_string())
            .or_default()
            .append(data, zero_tail);
        cost
    }

    /// Read a file, charging the caller's clock. The returned body is
    /// shared with the stored file, not copied.
    pub fn read(&mut self, now: &mut SimTime, path: &str) -> Result<FileBytes, FsError> {
        let data = self
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        *now += self.kind.read_link().cost(ByteSize::bytes(data.len()));
        self.stats.bytes_read += data.len();
        self.stats.reads += 1;
        Ok(data)
    }

    /// Delete a file (cheap; metadata only).
    pub fn delete(&mut self, now: &mut SimTime, path: &str) -> Result<(), FsError> {
        if self.files.remove(path).is_none() {
            return Err(FsError::NotFound(path.to_string()));
        }
        *now += SimDuration::from_micros(50);
        Ok(())
    }

    /// Rename a file within this filesystem (cheap; metadata only —
    /// the atomic-commit primitive for write-to-temp checkpointing).
    pub fn rename(&mut self, now: &mut SimTime, from: &str, to: &str) -> Result<(), FsError> {
        let data = self
            .files
            .remove(from)
            .ok_or_else(|| FsError::NotFound(from.to_string()))?;
        *now += SimDuration::from_micros(50);
        self.files.insert(to.to_string(), data);
        Ok(())
    }

    /// `true` if the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Stored bytes of a file without charging any clock or touching
    /// the stats — inspection only (lineage verification, tests).
    pub fn peek(&self, path: &str) -> Option<&FileBytes> {
        self.files.get(path)
    }

    /// Size of a file, if it exists.
    pub fn file_size(&self, path: &str) -> Option<ByteSize> {
        self.files.get(path).map(|d| ByteSize::bytes(d.len()))
    }

    /// All paths currently stored, in sorted order.
    pub fn list(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrips_data() {
        let mut fs = Fs::new(FsKind::RamDisk, "ram");
        let mut now = SimTime::ZERO;
        fs.write(&mut now, "/ckpt/a", vec![1, 2, 3]);
        assert_eq!(
            fs.read(&mut now, "/ckpt/a").unwrap().to_vec(),
            vec![1, 2, 3]
        );
        assert!(fs.exists("/ckpt/a"));
        assert_eq!(fs.file_size("/ckpt/a"), Some(ByteSize::bytes(3)));
    }

    #[test]
    fn chunked_appends_cost_like_one_write() {
        let total = 32 * 1024 * 1024usize;
        let chunk = 4 * 1024 * 1024usize;
        let mut whole = Fs::new(FsKind::LocalDisk, "hd");
        let mut chunked = Fs::new(FsKind::LocalDisk, "hd");
        let mut t_whole = SimTime::ZERO;
        let mut t_chunked = SimTime::ZERO;
        whole.write(&mut t_whole, "/f", vec![0u8; total]);
        for _ in 0..(total / chunk) {
            chunked.append(&mut t_chunked, "/f", &vec![0u8; chunk], 0);
        }
        // Per-chunk bandwidth costs round down independently, so allow
        // one nanosecond of drift per chunk.
        let drift = t_whole
            .since(SimTime::ZERO)
            .as_nanos()
            .abs_diff(t_chunked.since(SimTime::ZERO).as_nanos());
        assert!(
            drift <= (total / chunk) as u64,
            "appends must amortize to one write (drift {drift}ns)"
        );
        assert_eq!(
            whole.file_size("/f"),
            chunked.file_size("/f"),
            "same bytes on disk"
        );
    }

    #[test]
    fn append_extends_existing_contents() {
        let mut fs = Fs::new(FsKind::RamDisk, "ram");
        let mut now = SimTime::ZERO;
        fs.append(&mut now, "/a", &[1, 2], 0);
        fs.append(&mut now, "/a", &[3], 0);
        assert_eq!(fs.read(&mut now, "/a").unwrap().to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn zero_tail_counts_like_bytes() {
        let mut sparse = Fs::new(FsKind::LocalDisk, "hd");
        let mut dense = Fs::new(FsKind::LocalDisk, "hd");
        let (mut ts, mut td) = (SimTime::ZERO, SimTime::ZERO);
        sparse.write(&mut ts, "/f", FileBytes::new(vec![5; 100], 1 << 20));
        let mut bytes = vec![5; 100];
        bytes.resize(100 + (1 << 20), 0);
        dense.write(&mut td, "/f", bytes);
        sparse.read(&mut ts, "/f").unwrap();
        dense.read(&mut td, "/f").unwrap();
        assert_eq!(ts, td);
        assert_eq!(sparse.stats(), dense.stats());
        assert_eq!(sparse.file_size("/f"), dense.file_size("/f"));
        assert_eq!(sparse.peek("/f"), dense.peek("/f"));
    }

    #[test]
    fn file_bytes_edit_logical_offsets() {
        let dense = |f: &FileBytes| f.to_vec();
        let mut f = FileBytes::new(vec![1, 2, 3], 5);
        assert_eq!(f.len(), 8);
        assert_eq!(f.fnv64(), simcore::fnv1a64(&dense(&f)));
        // A flip in the zeros makes the body real up to that byte.
        f.flip(5, 0x80);
        assert_eq!(f.body(), &[1, 2, 3, 0, 0, 0x80]);
        assert_eq!(dense(&f), vec![1, 2, 3, 0, 0, 0x80, 0, 0]);
        f.flip(99, 1);
        assert_eq!(f.len(), 8);
        // Truncation eats the zeros first, then the body.
        f.truncate(7);
        assert_eq!(dense(&f), vec![1, 2, 3, 0, 0, 0x80, 0]);
        f.truncate(2);
        assert_eq!(dense(&f), vec![1, 2]);
        // Appending behind a run of zeros makes the run real.
        let mut g = FileBytes::new(vec![9], 2);
        g.append(&[], 1);
        g.append(&[4], 2);
        assert_eq!(dense(&g), vec![9, 0, 0, 0, 4, 0, 0]);
        assert_eq!(g, FileBytes::new(vec![9, 0, 0, 0, 4], 2));
        assert_ne!(g, FileBytes::new(vec![9, 0, 0, 0, 4], 3));
        assert_eq!(g.fnv64(), simcore::fnv1a64(&dense(&g)));
    }

    #[test]
    fn edits_copy_a_shared_body() {
        let a = FileBytes::new(vec![1, 2], 4);
        let mut b = a.clone();
        assert_eq!(a.body().as_ptr(), b.body().as_ptr());
        b.flip(0, 1);
        assert_eq!(a.body(), &[1, 2]);
        assert_eq!(b.body(), &[0, 2]);
    }

    #[test]
    fn missing_file_errors() {
        let mut fs = Fs::new(FsKind::LocalDisk, "hd");
        let mut now = SimTime::ZERO;
        assert!(matches!(
            fs.read(&mut now, "/nope"),
            Err(FsError::NotFound(_))
        ));
        assert!(fs.delete(&mut now, "/nope").is_err());
    }

    #[test]
    fn write_cost_scales_with_size_and_medium() {
        let mb32 = vec![0u8; 32 * 1024 * 1024];
        let mut disk = Fs::new(FsKind::LocalDisk, "hd");
        let mut ram = Fs::new(FsKind::RamDisk, "ram");
        let mut t_disk = SimTime::ZERO;
        let mut t_ram = SimTime::ZERO;
        disk.write(&mut t_disk, "/f", mb32.clone());
        ram.write(&mut t_ram, "/f", mb32);
        // 32 MiB at 110 MB/s ≈ 0.305 s; at 2881 MB/s ≈ 11.6 ms.
        let d = t_disk.since(SimTime::ZERO).as_secs_f64();
        let r = t_ram.since(SimTime::ZERO).as_secs_f64();
        assert!((0.25..0.40).contains(&d), "disk write took {d}");
        assert!((0.005..0.020).contains(&r), "ram write took {r}");
    }

    #[test]
    fn nfs_read_slower_than_write() {
        // Table I: NFS write 72.5 MB/s, read only 21.2 MB/s.
        let data = vec![0u8; 16 * 1024 * 1024];
        let mut fs = Fs::new(FsKind::Nfs, "nfs");
        let mut t0 = SimTime::ZERO;
        let w = fs.write(&mut t0, "/f", data);
        let before = t0;
        fs.read(&mut t0, "/f").unwrap();
        let r = t0.since(before);
        assert!(r > w, "read {r} should exceed write {w}");
    }

    #[test]
    fn stats_accumulate() {
        let mut fs = Fs::new(FsKind::RamDisk, "ram");
        let mut now = SimTime::ZERO;
        fs.write(&mut now, "/a", vec![0; 10]);
        fs.write(&mut now, "/b", vec![0; 20]);
        fs.read(&mut now, "/a").unwrap();
        let s = fs.stats();
        assert_eq!(s.bytes_written, 30);
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_read, 10);
        assert_eq!(s.reads, 1);
    }

    #[test]
    fn overwrite_replaces_contents() {
        let mut fs = Fs::new(FsKind::RamDisk, "ram");
        let mut now = SimTime::ZERO;
        fs.write(&mut now, "/a", vec![1]);
        fs.write(&mut now, "/a", vec![2, 3]);
        assert_eq!(fs.read(&mut now, "/a").unwrap().to_vec(), vec![2, 3]);
        assert_eq!(fs.list(), vec!["/a"]);
    }

    #[test]
    fn delete_removes_file() {
        let mut fs = Fs::new(FsKind::RamDisk, "ram");
        let mut now = SimTime::ZERO;
        fs.write(&mut now, "/a", vec![1]);
        fs.delete(&mut now, "/a").unwrap();
        assert!(!fs.exists("/a"));
    }

    #[test]
    fn rename_moves_contents() {
        let mut fs = Fs::new(FsKind::RamDisk, "ram");
        let mut now = SimTime::ZERO;
        fs.write(&mut now, "/a.tmp", vec![7, 8]);
        fs.rename(&mut now, "/a.tmp", "/a").unwrap();
        assert!(!fs.exists("/a.tmp"));
        assert_eq!(fs.read(&mut now, "/a").unwrap().to_vec(), vec![7, 8]);
        assert!(matches!(
            fs.rename(&mut now, "/missing", "/b"),
            Err(FsError::NotFound(_))
        ));
    }
}
