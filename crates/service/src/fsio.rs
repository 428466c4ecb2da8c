//! Crash-safe file writes: temp file + `fsync` + atomic rename.
//!
//! Every file the daemon persists whole — job specs, checkpoints, results,
//! the address file — goes through [`atomic_write`], so a reader
//! (including a restarted daemon) only ever observes either the old
//! complete contents or the new complete contents, never a torn file. The
//! oracle cache is the exception: it is an append-only log that uses
//! [`atomic_write`] only to create and compact itself, and its commit
//! lines let a reader discard a torn tail (see [`crate::cache`]). A
//! `kill -9` between any two instructions leaves the state directory
//! consistent.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Writes `bytes` to `path` atomically: the data is written to a sibling
/// temp file, flushed to disk (`fsync`), renamed over the target, and the
/// parent directory is synced so the rename itself is durable.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Directory fsync is advisory on some filesystems; ignore
            // failures (the rename already happened).
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// [`atomic_write`] for text payloads.
pub fn atomic_write_str(path: &Path, text: &str) -> io::Result<()> {
    atomic_write(path, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_replaces() {
        let dir = std::env::temp_dir().join(format!("lbr-fsio-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.json");
        atomic_write_str(&path, "one").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "one");
        atomic_write_str(&path, "two").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "two");
        // No temp litter.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
