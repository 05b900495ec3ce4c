//! The in-memory segment filesystem.
//!
//! The engine is offline and deterministic, so "disk" is a name →
//! immutable-bytes map with the three operations a log-structured store
//! needs: atomic whole-file create, read, and remove. Files are
//! write-once — a [`MemFs`] models the rename-into-place idiom real
//! TSDBs use, where a segment becomes visible only when complete and is
//! never mutated afterwards.
//!
//! Readers hold `Arc<[u8]>` handles, the in-memory analogue of an mmap
//! over an immutable segment: removing a file drops the directory entry
//! but every open handle keeps its bytes alive, which is exactly what
//! lets compaction delete superseded segments while concurrent queries
//! are still reading them. Every sealed chunk is such a handle: a
//! segment's chunks are views into the bytes [`MemFs::create`] returned
//! (or [`MemFs::read`] handed to the decoder), so a file's bytes are
//! held once, and for as long as any segment list that names it is.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

use obs::sync::{Mutex, Rank};

use crate::StoreError;

/// A deterministic in-memory file system of immutable files.
#[derive(Debug)]
pub struct MemFs {
    /// Held only for map operations: file contents are immutable
    /// `Arc<[u8]>` handed out by clone.
    files: Mutex<BTreeMap<String, Arc<[u8]>>>,
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// An empty filesystem.
    pub fn new() -> Self {
        MemFs {
            files: Mutex::new(Rank::STORE_FILES, BTreeMap::new()),
        }
    }

    /// Atomically create `name` with `bytes`. Files are write-once:
    /// creating an existing name is an error, so a segment can never be
    /// silently overwritten.
    pub fn create(&self, name: &str, bytes: Vec<u8>) -> Result<Arc<[u8]>, StoreError> {
        let mut files = self.files.lock();
        match files.entry(name.to_owned()) {
            Entry::Occupied(_) => Err(StoreError::FileExists(name.to_owned())),
            Entry::Vacant(slot) => Ok(Arc::clone(slot.insert(bytes.into()))),
        }
    }

    /// Open `name` for reading. The handle stays valid across a later
    /// [`MemFs::remove`] of the same name.
    pub fn read(&self, name: &str) -> Result<Arc<[u8]>, StoreError> {
        let files = self.files.lock();
        files
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NoSuchFile(name.to_owned()))
    }

    /// Unlink `name`. Open handles keep their bytes.
    pub fn remove(&self, name: &str) -> Result<(), StoreError> {
        let mut files = self.files.lock();
        files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::NoSuchFile(name.to_owned()))
    }

    /// File names in lexicographic order.
    pub fn list(&self) -> Vec<String> {
        let files = self.files.lock();
        files.keys().cloned().collect()
    }

    /// Total bytes across live (non-removed) files.
    pub fn live_bytes(&self) -> u64 {
        let files = self.files.lock();
        files.values().map(|f| f.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_remove_cycle() {
        let fs = MemFs::new();
        fs.create("seg-0", vec![1, 2, 3]).unwrap();
        assert_eq!(&*fs.read("seg-0").unwrap(), &[1, 2, 3]);
        assert_eq!(fs.list(), vec!["seg-0".to_string()]);
        assert_eq!(fs.live_bytes(), 3);
        fs.remove("seg-0").unwrap();
        assert!(fs.read("seg-0").is_err());
        assert!(fs.remove("seg-0").is_err());
        assert_eq!(fs.live_bytes(), 0);
    }

    #[test]
    fn files_are_write_once() {
        let fs = MemFs::new();
        fs.create("a", vec![1]).unwrap();
        assert!(matches!(
            fs.create("a", vec![2]),
            Err(StoreError::FileExists(_))
        ));
        assert_eq!(&*fs.read("a").unwrap(), &[1]);
    }

    #[test]
    fn open_handles_survive_removal() {
        let fs = MemFs::new();
        fs.create("seg-1", vec![9; 64]).unwrap();
        let handle = fs.read("seg-1").unwrap();
        fs.remove("seg-1").unwrap();
        assert_eq!(handle.len(), 64);
        assert!(handle.iter().all(|b| *b == 9));
    }
}
