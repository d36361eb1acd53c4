//! Copy-on-write snapshot handle — a hand-rolled `Arc`-swap.
//!
//! The sharded serving layer ([`crate::ShardedIndex`]) needs readers to
//! proceed concurrently with writers without ever observing a
//! half-mutated state. The protocol is copy-on-write publication: a
//! writer changes the published version in place when no reader holds
//! it and a copy otherwise ([`Arc::make_mut`]), and readers grab the
//! current `Arc` once and run the whole query on that immutable version.
//! The folder builds a new index off to the side and publishes it the
//! same way, as one field of the new version.
//!
//! With no external dependencies available, the slot is a
//! `Mutex<Arc<T>>` held only for the duration of an `Arc` clone or of a
//! short publish — never across a query or a build. Readers therefore
//! never block on index mutation work, only on the publish itself.

use std::sync::{Arc, Mutex};

/// A shared slot holding the current published version of a value.
///
/// [`SnapshotCell::load`] returns the version current at the call
/// instant; a concurrent [`SnapshotCell::update`] affects only later
/// loads. Loaded `Arc`s keep their version alive for as long as the
/// reader holds them, so a publish never invalidates an in-flight read.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    slot: Mutex<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// A cell publishing `value` as the initial version.
    pub fn new(value: T) -> Self {
        Self {
            slot: Mutex::new(Arc::new(value)),
        }
    }

    /// The currently published version. Lock-clone-unlock: the mutex is
    /// held only for the `Arc` refcount bump.
    pub fn load(&self) -> Arc<T> {
        let guard = match self.slot.lock() {
            Ok(g) => g,
            // A poisoned slot still holds a valid Arc; serving reads beats
            // propagating the panic.
            Err(p) => p.into_inner(),
        };
        Arc::clone(&guard)
    }
}

impl<T: Clone> SnapshotCell<T> {
    /// Publishes `f`'s change to the current version: in place when no
    /// reader holds it, on a copy otherwise ([`Arc::make_mut`]), so
    /// readers holding a previously loaded `Arc` are unaffected. The slot
    /// stays locked while `f` runs; keep `f` to a few assignments.
    pub fn update(&self, f: impl FnOnce(&mut T)) {
        let mut guard = match self.slot.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        f(Arc::make_mut(&mut guard));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn load_returns_last_update() {
        let cell = SnapshotCell::new(1u64);
        assert_eq!(*cell.load(), 1);
        cell.update(|v| *v = 2);
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn readers_keep_their_version_across_a_publish() {
        let cell = SnapshotCell::new(String::from("v0"));
        let held = cell.load();
        cell.update(|v| v.replace_range(.., "v1"));
        assert_eq!(*held, "v0", "an in-flight read survives the publish");
        assert_eq!(*cell.load(), "v1");
    }

    #[test]
    fn an_unshared_version_is_changed_in_place() {
        let cell = SnapshotCell::new(vec![1u64]);
        let before = Arc::as_ptr(&cell.load());
        cell.update(|v| v.push(2));
        assert_eq!(Arc::as_ptr(&cell.load()), before, "no reader: no copy");
        let held = cell.load();
        cell.update(|v| v.push(3));
        assert_ne!(
            Arc::as_ptr(&cell.load()),
            before,
            "a held version is copied"
        );
        assert_eq!(*held, [1, 2]);
    }

    /// The way the slot mutex can poison: `update` runs under the guard,
    /// and here assigning the new value drops the *previous* one, whose
    /// panicking `Drop` unwinds through the lock. The cell must keep
    /// serving: the assignment still stores the new value, so `load` and
    /// later updates take over the poisoned lock instead of propagating
    /// the panic.
    #[test]
    fn poisoned_cell_still_loads_and_updates() {
        #[derive(Clone)]
        struct Grenade {
            armed: bool,
            version: u64,
        }
        impl Drop for Grenade {
            fn drop(&mut self) {
                if self.armed && !std::thread::panicking() {
                    panic!("drop of displaced version panics under the slot lock");
                }
            }
        }

        let cell = SnapshotCell::new(Grenade {
            armed: true,
            version: 0,
        });
        // No reader holds v0, so publishing v1 drops v0 inside `update`,
        // panicking while the guard is held and poisoning the mutex.
        let publish = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.update(|g| {
                *g = Grenade {
                    armed: false,
                    version: 1,
                }
            });
        }));
        assert!(publish.is_err(), "the displaced version's drop must panic");

        // Reads after the poisoning panic still serve the published value.
        let held = cell.load();
        assert_eq!(held.version, 1, "poisoned cell serves the last publish");

        // The single writer also recovers: a later publish succeeds and
        // becomes visible, with the earlier reader unaffected.
        cell.update(|g| g.version = 2);
        assert_eq!(cell.load().version, 2);
        assert_eq!(held.version, 1, "in-flight read survives the publish");
    }

    #[test]
    fn concurrent_loads_and_stores_only_see_published_versions() {
        // Versions are monotonically numbered; a reader must never see a
        // number going backwards relative to its own previous load.
        let cell = Arc::new(SnapshotCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cell.load();
                        assert!(v >= last, "version went backwards: {v} < {last}");
                        last = v;
                    }
                });
            }
            for v in 1..=2_000u64 {
                cell.update(|x| *x = v);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(*cell.load(), 2_000);
    }
}
