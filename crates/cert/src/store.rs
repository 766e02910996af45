//! Durable-store primitives: atomic finalize of JSON documents into a
//! store directory.
//!
//! The WDL-orchestration idiom the campaign tooling borrows — budgeted,
//! retryable shards whose results are *finalized* into a durable store —
//! needs exactly two filesystem guarantees, and every store in the
//! workspace (campaign checkpoints, certificate directories, the `xcvserve`
//! memoized result store) shares this one implementation of them:
//!
//! * **atomicity** — a document is written to a temp file in the target
//!   directory and `rename`d over the destination, so a kill at any instant
//!   leaves either the old document or the new one, never a torn write;
//!   the file is fsynced before the rename and the directory after it, so
//!   a crash after a successful write cannot lose the new entry;
//! * **retry with backoff** — transient I/O failures (a store directory on
//!   contended network storage, an EMFILE blip) are retried a bounded
//!   number of times with exponential backoff before the error surfaces.
//!
//! This lives in `xcv-cert` because the certificate store was the first
//! durable artifact directory and the checker crate is the dependency
//! floor of the workspace — everything that persists results already links
//! it. Nothing here reads certificates; the module is plain-file I/O.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Write `contents` to `path` atomically: temp file in the same directory
/// (so the rename never crosses filesystems), fsync, rename over the
/// target, then fsync the directory so the rename itself survives a crash.
/// A kill mid-write never corrupts an existing document. On any failure
/// the temp file is removed — an error path never litters the store
/// directory with `.tmp` orphans — and the error is returned, so
/// [`write_atomic_retry`] writes again when the directory sync fails.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let write = |tmp: &Path| -> std::io::Result<()> {
        let mut f = std::fs::File::create(tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(tmp, path)?;
        sync_parent_dir(path)
    };
    write(&tmp).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Fsync the directory holding `path` (the current directory for a bare
/// file name), making a rename into it durable.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Directories cannot be opened for fsync here; the rename is as durable
/// as the platform makes it.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Move a corrupt document out of the store's way by appending `.bad` to
/// its file name (`result.json` → `result.json.bad`), so warm-start scans
/// (which only read `*.json`) stop seeing it while the bytes stay on disk
/// for postmortem. Returns the quarantine path.
pub fn quarantine(path: &Path) -> std::io::Result<PathBuf> {
    let mut name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("quarantine: path has no file name"))?
        .to_os_string();
    name.push(".bad");
    let dest = path.with_file_name(name);
    std::fs::rename(path, &dest)?;
    Ok(dest)
}

/// [`write_atomic`] with a retry ladder: up to `attempts` tries, sleeping
/// `backoff` then doubling after each failure (a finalize path must survive
/// transient store hiccups without dropping a computed result). Returns the
/// last error when every attempt fails; `attempts == 0` is treated as 1.
pub fn write_atomic_retry(
    path: &Path,
    contents: &str,
    attempts: u32,
    backoff: Duration,
) -> std::io::Result<()> {
    let mut delay = backoff;
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
        match write_atomic(path, contents) {
            Ok(()) => return Ok(()),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// Every `.json` document in `dir`, as `(path, contents)`, in sorted path
/// order (deterministic warm-start). Unreadable files are skipped — a
/// half-finalized `.tmp` or a permission-denied entry must not prevent the
/// rest of the store from loading. A missing directory is an empty store.
pub fn read_dir_json(dir: &Path) -> Vec<(PathBuf, String)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .filter_map(|p| std::fs::read_to_string(&p).ok().map(|s| (p, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xcv_store_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_and_never_leaves_tmp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("doc.json");
        write_atomic(&path, "{\"v\": 1}").unwrap();
        write_atomic(&path, "{\"v\": 2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": 2}");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_surfaces_the_last_error() {
        // A directory that does not exist: every attempt fails, and the
        // error comes back instead of panicking or spinning forever.
        let path = PathBuf::from("/nonexistent_xcv_store/doc.json");
        let err = write_atomic_retry(&path, "{}", 3, Duration::from_millis(1));
        assert!(err.is_err());
    }

    #[test]
    fn failed_writes_leave_no_tmp_orphans() {
        // Force the *rename* to fail after the temp file was created: the
        // destination is an existing non-empty directory, which rename(2)
        // cannot replace with a file. Every retry creates the temp file —
        // the error path must clean it up each time.
        let dir = tmp_dir("orphan");
        let target = dir.join("doc.json");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        let err = write_atomic_retry(&target, "{}", 3, Duration::from_millis(1));
        assert!(err.is_err(), "rename over a non-empty directory fails");
        let orphans: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(orphans.is_empty(), "no *.tmp left behind: {orphans:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_renames_out_of_the_json_namespace() {
        let dir = tmp_dir("quarantine");
        let path = dir.join("doc.json");
        std::fs::write(&path, "garbage").unwrap();
        let dest = quarantine(&path).unwrap();
        assert!(!path.exists());
        assert!(dest.ends_with("doc.json.bad"));
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), "garbage");
        // The store scan no longer sees it.
        assert!(read_dir_json(&dir).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_dir_json_is_sorted_and_skips_non_json() {
        let dir = tmp_dir("readdir");
        std::fs::write(dir.join("b.json"), "2").unwrap();
        std::fs::write(dir.join("a.json"), "1").unwrap();
        std::fs::write(dir.join("c.tmp"), "x").unwrap();
        let docs = read_dir_json(&dir);
        assert_eq!(docs.len(), 2);
        assert!(docs[0].0.ends_with("a.json") && docs[0].1 == "1");
        assert!(docs[1].0.ends_with("b.json") && docs[1].1 == "2");
        assert!(read_dir_json(Path::new("/nonexistent_xcv_store")).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
