//! Reduction scopes: side tables that live exactly as long as the
//! candidates of one reduction.
//!
//! A frontend's reduction materializer creates one [`Scope`] and stamps it
//! on every candidate it builds (`lbr_classfile::Program::scoped`,
//! `lbr_stackvm::Module::scoped`). Tools that probe those candidates keep
//! per-reduction memos in it, so a memo can hold item handles and derived
//! data without outliving the reduction: it is dropped with the
//! materializer and the last candidate.
//!
//! Such memos key on the address of a shared handle (an `Arc`) and hold
//! the handle, so no other value can take that address while the entry
//! lives, and `Arc::make_mut` on a candidate copies instead of editing
//! the shared value. [`AddressMap`] is that map.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// One table per type, created on first use.
#[derive(Default)]
pub struct Scope {
    tables: Mutex<Vec<Arc<dyn Any + Send + Sync>>>,
}

impl Scope {
    /// The table of type `T`, created empty on first use.
    pub fn table<T: Any + Default + Send + Sync>(&self) -> Arc<T> {
        let mut tables = self.tables.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = tables.iter().find_map(|t| Arc::clone(t).downcast().ok()) {
            return table;
        }
        let table = Arc::new(T::default());
        tables.push(Arc::clone(&table) as Arc<dyn Any + Send + Sync>);
        table
    }

    /// The table of type `T` in `scope`, or a fresh, empty one for an
    /// input no reduction built, so a tool has one code path either way.
    pub fn table_in<T: Any + Default + Send + Sync>(scope: Option<&Scope>) -> Arc<T> {
        scope.map_or_else(Arc::default, Scope::table)
    }
}

impl fmt::Debug for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scope").finish_non_exhaustive()
    }
}

/// A map keyed by the address of a shared handle
/// (`Arc::as_ptr(handle) as usize`), hashed by [`AddressHasher`].
pub type AddressMap<V> = HashMap<usize, V, BuildHasherDefault<AddressHasher>>;

/// Hashes a handle address with one folded multiply: a probe looks up
/// every unit it keeps, and SipHash would cost more than the fold. Other
/// keys (names, declarations) fold one multiply per 8 bytes written, each
/// word mixed into the state so far.
#[derive(Debug, Default)]
pub struct AddressHasher(u64);

impl AddressHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }
}

// Inlined into the maps of other crates, which hash on every lookup.
impl Hasher for AddressHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn the_hasher_folds_each_word_into_the_state() {
        let hash = |key: &dyn Fn(&mut AddressHasher)| {
            let mut h = AddressHasher::default();
            key(&mut h);
            h.finish()
        };
        // An address is one fold from the empty state.
        let product = u128::from(0x1234_u64) * 0x9E37_79B9_7F4A_7C15;
        let folded = (product as u64) ^ (product >> 64) as u64;
        assert_eq!(hash(&|h| h.write_usize(0x1234)), folded);
        // Later words mix with earlier ones, in order.
        assert_ne!(hash(&|h| "ab".hash(h)), hash(&|h| "ba".hash(h)));
        assert_ne!(
            hash(&|h| (1usize, 2usize).hash(h)),
            hash(&|h| (2usize, 1usize).hash(h))
        );
        assert_ne!(
            hash(&|h| "a long class name".hash(h)),
            hash(&|h| "a long class_name".hash(h))
        );
    }

    #[test]
    fn one_table_per_type() {
        let scope = Scope::default();
        scope.table::<AtomicUsize>().fetch_add(3, Ordering::Relaxed);
        scope.table::<Mutex<Vec<u8>>>().lock().unwrap().push(1);
        assert_eq!(scope.table::<AtomicUsize>().load(Ordering::Relaxed), 3);
        assert_eq!(*scope.table::<Mutex<Vec<u8>>>().lock().unwrap(), [1]);
        // Outside any scope every call gets a fresh table.
        Scope::table_in::<AtomicUsize>(None).fetch_add(1, Ordering::Relaxed);
        assert_eq!(
            Scope::table_in::<AtomicUsize>(None).load(Ordering::Relaxed),
            0
        );
        assert_eq!(
            Scope::table_in::<AtomicUsize>(Some(&scope)).load(Ordering::Relaxed),
            3
        );
    }
}
