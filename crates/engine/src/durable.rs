//! Crash-safe file replacement, shared by every tool that persists state
//! (model-checker checkpoints, the job service's cells files and result
//! store).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Replaces the file at `path` with `bytes` so that a crash or power loss
/// leaves either the old contents or the new ones, never a torn mix.
///
/// The bytes go to a temp file beside `path` (`path` with the extension
/// `tmp`), which is fsynced and renamed over `path`; then the parent
/// directory is fsynced, because on Linux a rename is durable only once
/// its directory entry is. If writing or renaming fails, the temp file is
/// removed.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing or renaming the temp
/// file, or from syncing the directory.
pub fn write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let replaced = File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if replaced.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    replaced?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_contents_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("dvs-durable-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("state.bin");
        write_durable(&path, b"old").expect("first write");
        write_durable(&path, b"new").expect("overwrite");
        assert_eq!(fs::read(&path).expect("read back"), b"new");
        assert!(!path.with_extension("tmp").exists());
        fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn a_missing_directory_is_an_error() {
        let path = std::env::temp_dir()
            .join(format!("dvs-durable-missing-{}", std::process::id()))
            .join("state.bin");
        assert!(write_durable(&path, b"x").is_err());
    }
}
