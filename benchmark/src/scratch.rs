//! The run's scratch directory: created empty, measured at its peak,
//! removed at exit.

use std::io;
use std::path::{Path, PathBuf};

/// A fresh, empty directory `<root>/<workload>-<pid>`.
pub struct Scratch {
    root: PathBuf,
    dir: PathBuf,
}

/// `(files, bytes)` under `dir`, recursively.
fn usage(dir: &Path) -> io::Result<(u64, u64)> {
    let mut files = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            let (f, b) = usage(&entry.path())?;
            files += f;
            bytes += b;
        } else {
            files += 1;
            bytes += meta.len();
        }
    }
    Ok((files, bytes))
}

impl Scratch {
    /// Creates the directory; fails if it already exists, so a run never
    /// starts from another run's files.
    pub fn create(root: &Path, workload: &str) -> io::Result<Scratch> {
        std::fs::create_dir_all(root)?;
        let dir = root.join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir(&dir)?;
        Ok(Scratch {
            root: root.to_path_buf(),
            dir,
        })
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Bytes currently held under the directory.
    pub fn bytes(&self) -> io::Result<u64> {
        usage(&self.dir).map(|(_, b)| b)
    }

    /// Removes the directory (and its root, if that is now empty) and
    /// returns how many files the run left behind — each one an error,
    /// since every stage must delete what it wrote.
    pub fn finish(self) -> io::Result<u64> {
        let (leftover, _) = usage(&self.dir)?;
        std::fs::remove_dir_all(&self.dir)?;
        let _ = std::fs::remove_dir(&self.root); // only succeeds when empty
        Ok(leftover)
    }
}

impl Drop for Scratch {
    /// Cleans up after a run that ends early (a panic); after
    /// [`Scratch::finish`] there is nothing left to remove.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(&self.root);
    }
}
