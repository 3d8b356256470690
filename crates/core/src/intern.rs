//! A global string-interning table for schema identifiers.
//!
//! The diff engine compares the same table and attribute names thousands of
//! times across a history: every transition re-hashes `users`, `id`,
//! `created_at`, … as full strings. Interning maps each distinct name to a
//! dense [`Symbol`] (`u32`) once, after which equality and map lookups are
//! integer operations.
//!
//! ## Determinism contract
//!
//! Symbol *ids* depend on interning order, which depends on thread
//! interleaving when several mining workers intern concurrently. Ids must
//! therefore never escape into any serialized or user-visible artifact:
//! [`crate::diff::SchemaDelta`] carries plain `String`s cloned from the
//! input schemas, and symbols are used only for *matching* inside a single
//! `diff` call. The interner itself only grows — symbols stay valid for the
//! process lifetime, which is what lets them outlive any `CandidateStream`
//! or cached delta that was produced while holding one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, OnceLock};

/// An interned string: a dense index into the global symbol table.
///
/// `Copy`, 4 bytes, and equality/hashing are integer operations. Two
/// symbols are equal iff the strings they intern are byte-equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw table index. Only meaningful within this process.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// The global symbol table: string → id plus the reverse side.
pub(crate) struct Interner {
    map: HashMap<String, u32>,
    strings: Vec<String>,
}

impl Interner {
    /// Intern one string, allocating only on first sight.
    pub(crate) fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&id) = self.map.get(name) {
            return Symbol(id);
        }
        let id = self.strings.len() as u32;
        self.strings.push(name.to_owned());
        self.map.insert(name.to_owned(), id);
        Symbol(id)
    }
}

static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();

fn table() -> &'static Mutex<Interner> {
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

/// Run `f` with exclusive access to the global interner. Batch callers
/// (schema-view construction in `diff`) use this to pay one lock per
/// schema instead of one per name.
pub(crate) fn with_interner<R>(f: impl FnOnce(&mut Interner) -> R) -> R {
    let mut guard = match table().lock() {
        Ok(g) => g,
        // A panic while holding the lock cannot leave the table in a
        // broken state (push + insert are the only mutations), so the
        // poisoned value is still usable.
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard)
}

/// Intern `name`, returning its stable per-process [`Symbol`].
pub fn intern(name: &str) -> Symbol {
    with_interner(|t| t.intern(name))
}

/// Resolve a symbol back to its string (cloned out of the table).
///
/// Returns `None` only for a `Symbol` forged from another process — every
/// symbol handed out by [`intern`] resolves.
pub fn resolve(sym: Symbol) -> Option<String> {
    with_interner(|t| t.strings.get(sym.0 as usize).cloned())
}

/// Number of distinct strings interned so far — exported as the
/// `intern.symbols` gauge by the mining engine.
pub fn symbol_count() -> usize {
    with_interner(|t| t.strings.len())
}

/// A pass-through hasher for [`Symbol`] keys: the symbol id is already a
/// dense unique integer, so it only needs mixing, not a full SipHash pass.
#[derive(Default)]
pub struct SymbolHasher(u64);

impl Hasher for SymbolHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (not used by Symbol's Hash impl, which is a single
        // write_u32): fold bytes in so the hasher stays correct for any key.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, n: u32) {
        // Fibonacci multiplicative mix — spreads dense low ids across the
        // full 64-bit space so HashMap bucket selection stays uniform.
        self.0 = u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashMap` keyed by [`Symbol`] with the pass-through hasher.
pub type SymbolMap<V> = HashMap<Symbol, V, BuildHasherDefault<SymbolHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_distinct() {
        let a1 = intern("users");
        let a2 = intern("users");
        let b = intern("orders");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(resolve(a1).as_deref(), Some("users"));
        assert_eq!(resolve(b).as_deref(), Some("orders"));
    }

    #[test]
    fn symbol_count_grows_monotonically() {
        // The table is process-global and other tests intern into it
        // concurrently, so assert only what holds for this test's own
        // names: they are new, so numbered at or past the count read
        // before them, and interning them again changes nothing.
        let before = symbol_count();
        let one = intern("intern_test_unique_name_one");
        let two = intern("intern_test_unique_name_two");
        assert!(one.index() as usize >= before && two.index() as usize >= before);
        assert_ne!(one, two);
        assert_eq!(intern("intern_test_unique_name_one"), one);
        assert_eq!(intern("intern_test_unique_name_two"), two);
        assert!(symbol_count() > one.index().max(two.index()) as usize);
    }

    #[test]
    fn symbol_map_round_trips() {
        let mut m: SymbolMap<usize> = SymbolMap::default();
        let syms: Vec<Symbol> = (0..100)
            .map(|i| intern(&format!("intern_test_col_{i}")))
            .collect();
        for (i, &s) in syms.iter().enumerate() {
            m.insert(s, i);
        }
        assert_eq!(m.len(), 100);
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(m.get(s), Some(&i));
        }
    }

    #[test]
    fn empty_and_unicode_names_intern() {
        let e = intern("");
        let u = intern("naïve_täble");
        assert_eq!(resolve(e).as_deref(), Some(""));
        assert_eq!(resolve(u).as_deref(), Some("naïve_täble"));
        assert_ne!(e, u);
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let names: Vec<String> = (0..50).map(|i| format!("intern_test_race_{i}")).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let names = names.clone();
                std::thread::spawn(move || {
                    names.iter().map(|n| intern(n)).collect::<Vec<Symbol>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in &results[1..] {
            assert_eq!(w, &results[0], "same string must yield the same symbol");
        }
    }
}
