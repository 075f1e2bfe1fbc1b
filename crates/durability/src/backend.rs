//! Storage backend abstraction: the seam between the durability layer
//! and the bytes it persists.
//!
//! Everything the WAL, snapshot writer, and recovery path do to disk is
//! expressed against [`StorageBackend`] — a flat namespace of named files
//! inside one data directory — and [`StorageFile`] — an append handle
//! with an explicit durability barrier. Production uses [`FsBackend`]
//! (real files, real fsync); the simulation harness (`adcast-sim`)
//! substitutes an in-memory backend with injectable fsync latency,
//! stalls, and torn-write-on-crash, so the *same* durability code runs
//! deterministically under fault injection.
//!
//! The namespace is flat by design: the durability layer never nests
//! directories, and file *names* (`wal-…log`, `snap-…snap`) are the
//! lookup keys everywhere, so a backend is exactly "one data dir".

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An open, writable file. Writes buffer wherever the backend pleases;
/// [`StorageFile::sync_data`] is the durability barrier — after it
/// returns, everything written so far must survive a crash.
pub trait StorageFile: Write + Send {
    /// Make all bytes written so far durable (contents only).
    fn sync_data(&mut self) -> io::Result<()>;

    /// Make contents *and* metadata durable. Defaults to
    /// [`StorageFile::sync_data`] for backends without the distinction.
    fn sync_all(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// A file opened for reading: its length when it was opened, and a
/// reader over its contents from the start.
pub struct OpenFile {
    /// The file's length in bytes.
    pub len: u64,
    /// The contents, read front to back.
    pub reader: Box<dyn Read + Send>,
}

/// One data directory's worth of named files.
pub trait StorageBackend: Send + Sync {
    /// Create (truncating) a file and return a write handle.
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>>;

    /// Open a file for reading. Callers stream it ([`OpenFile::reader`])
    /// instead of holding all of it, unless they keep it whole (a WAL
    /// segment).
    fn open(&self, name: &str) -> io::Result<OpenFile>;

    /// List file names (unsorted; empty when the directory is missing).
    fn list(&self) -> io::Result<Vec<String>>;

    /// Delete a file.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Atomically rename `from` to `to` (replacing `to`).
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Shrink a file to `len` bytes (the torn-tail heal).
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Make the namespace itself durable (directory fsync): created,
    /// renamed, and removed names survive a crash after this returns.
    fn sync_dir(&self) -> io::Result<()>;
}

/// The production backend: a real directory, real fsync.
#[derive(Debug, Clone)]
pub struct FsBackend {
    dir: PathBuf,
}

impl FsBackend {
    /// A backend rooted at `dir` (not created until first write).
    pub fn new(dir: &Path) -> FsBackend {
        FsBackend {
            dir: dir.to_path_buf(),
        }
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

struct FsFile(File);

impl Write for FsFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl StorageFile for FsFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl StorageBackend for FsBackend {
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        fs::create_dir_all(&self.dir)?;
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.dir.join(name))?;
        Ok(Box::new(FsFile(file)))
    }

    fn open(&self, name: &str) -> io::Result<OpenFile> {
        let file = File::open(self.dir.join(name))?;
        Ok(OpenFile {
            len: file.metadata()?.len(),
            reader: Box::new(file),
        })
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut names = Vec::new();
        for entry in entries {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        fs::remove_file(self.dir.join(name))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        fs::rename(self.dir.join(from), self.dir.join(to))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(self.dir.join(name))?;
        file.set_len(len)?;
        file.sync_all()
    }

    fn sync_dir(&self) -> io::Result<()> {
        // A no-op error on platforms that refuse directory fsync.
        match File::open(&self.dir) {
            Ok(f) => f.sync_all().or(Ok(())),
            Err(_) => Ok(()),
        }
    }
}

/// Read a whole file into one buffer (a WAL segment, whose records are
/// kept as views of it), sized once from the file's length.
///
/// # Errors
///
/// Whatever opening or reading the file returns.
pub(crate) fn read_all(backend: &dyn StorageBackend, name: &str) -> io::Result<Vec<u8>> {
    let file = backend.open(name)?;
    let mut raw = Vec::with_capacity(usize::try_from(file.len).unwrap_or(0));
    file.reader.take(file.len).read_to_end(&mut raw)?;
    Ok(raw)
}

/// Convenience: the production backend for `dir`, boxed for the
/// `*_on` durability entry points.
pub fn fs_backend(dir: &Path) -> Arc<dyn StorageBackend> {
    Arc::new(FsBackend::new(dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_backend(tag: &str) -> (FsBackend, PathBuf) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "adcast-backend-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        (FsBackend::new(&dir), dir)
    }

    #[test]
    fn fs_backend_roundtrips_files() {
        let (b, dir) = temp_backend("roundtrip");
        assert_eq!(b.list().unwrap(), Vec::<String>::new(), "missing dir");
        let mut f = b.create("a.log").unwrap();
        f.write_all(b"hello").unwrap();
        f.flush().unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(read_all(&b, "a.log").unwrap(), b"hello");
        b.rename("a.log", "b.log").unwrap();
        b.truncate("b.log", 2).unwrap();
        assert_eq!(read_all(&b, "b.log").unwrap(), b"he");
        assert_eq!(b.list().unwrap(), vec!["b.log".to_string()]);
        b.remove("b.log").unwrap();
        b.sync_dir().unwrap();
        assert!(read_all(&b, "b.log").is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
