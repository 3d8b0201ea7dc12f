//! A process-wide string interner.
//!
//! Relation names, variable names and symbolic constants appear in every
//! fact of every candidate database the possible-world engine enumerates, so
//! they are interned once and compared as `u32` ids thereafter. Interning
//! takes the interner's lock; resolving an id back to its string does not.
//! Resolution reads an append-only table of 32 chunks, chunk `c` holding
//! `2^c` entries, each filled once under the interner's write lock before
//! its id is handed out. Ordering compares strings, so every tuple
//! comparison resolves two ids; keeping that lock-free is what keeps
//! sorted catalogs cheap.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize, Serializer};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned string, compared by id.
///
/// The ordering of `Symbol` follows the *string* ordering, not the
/// interning order, so that databases print deterministically regardless of
/// interning history. Equality and hashing use the id (cheap).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// The string-to-id map. Ids are dense: the next id is `ids.len()`.
struct Interner {
    ids: HashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            ids: HashMap::new(),
        })
    })
}

/// One chunk of the id-to-string table.
type Chunk = OnceLock<Box<[OnceLock<&'static str>]>>;

/// Chunk `c` holds ids `2^c − 1 .. 2^(c+1) − 1`, so 32 chunks cover
/// every id below `u32::MAX`, and a chunk is only allocated once an id
/// reaches it.
static STRINGS: [Chunk; 32] = [const { OnceLock::new() }; 32];

/// The chunk of `id` and its offset inside that chunk.
fn slot(id: u32) -> (usize, usize) {
    let i = u64::from(id) + 1;
    let chunk = i.ilog2();
    (chunk as usize, (i - (1 << chunk)) as usize)
}

/// The table entry of `id`, allocating its chunk on first use.
fn entry(id: u32) -> &'static OnceLock<&'static str> {
    let (chunk, offset) = slot(id);
    let cells =
        STRINGS[chunk].get_or_init(|| (0..1usize << chunk).map(|_| OnceLock::new()).collect());
    &cells[offset]
}

impl Symbol {
    /// Interns `s`, returning its symbol.
    #[must_use]
    pub fn new(s: &str) -> Symbol {
        {
            let guard = interner().read();
            if let Some(&id) = guard.ids.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write();
        if let Some(&id) = guard.ids.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(guard.ids.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("interner capacity");
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        // Publish the string before the id: a reader can only hold the id
        // after this entry is set.
        entry(id).get_or_init(|| leaked);
        guard.ids.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string. Lock-free.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        entry(self.0)
            .get()
            .expect("a symbol's string is set before its id is handed out")
    }

    /// The raw id (stable within a process run only).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl Serialize for Symbol {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for Symbol {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(Symbol::new(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("station");
        let b = Symbol::new("station");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "station");
    }

    #[test]
    fn distinct_strings_distinct_ids() {
        let a = Symbol::new("alpha-sym-test");
        let b = Symbol::new("beta-sym-test");
        assert_ne!(a, b);
    }

    #[test]
    fn ordering_follows_strings() {
        // Intern in reverse lexicographic order to show order is by string.
        let z = Symbol::new("zzz-order-test");
        let a = Symbol::new("aaa-order-test");
        assert!(a < z);
    }

    #[test]
    fn display() {
        assert_eq!(Symbol::new("Temp").to_string(), "Temp");
    }

    #[test]
    fn concurrent_interning() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for j in 0..100 {
                        ids.push(Symbol::new(&format!("concurrent-{}", (i + j) % 50)).id());
                    }
                    ids
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Same string interned from any thread must give the same id.
        let a = Symbol::new("concurrent-7");
        let b = Symbol::new("concurrent-7");
        assert_eq!(a, b);
    }

    #[test]
    fn order_follows_strings_while_resolution_races_interning() {
        use std::sync::{Arc, Barrier, Mutex};
        // Each writer interns its share of the strings in a shuffled order
        // and publishes every symbol; readers resolve whatever has been
        // published so far while the table grows past several chunks.
        let strings: Vec<String> = (0..6000).map(|i| format!("race-{:x}", i * 7919)).collect();
        let published: Arc<Mutex<Vec<(Symbol, String)>>> = Arc::default();
        // Every thread starts its loop at once.
        let start = Arc::new(Barrier::new(6));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let mut mine: Vec<String> = strings
                    .iter()
                    .skip(w as usize)
                    .step_by(4)
                    .cloned()
                    .collect();
                let mut state = w + 1;
                for i in (1..mine.len()).rev() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    mine.swap(i, (state >> 33) as usize % (i + 1));
                }
                let published = Arc::clone(&published);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for s in mine {
                        let sym = Symbol::new(&s);
                        assert_eq!(sym.as_str(), s);
                        published.lock().unwrap().push((sym, s));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let published = Arc::clone(&published);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for round in 0..200 {
                        let seen: Vec<(Symbol, String)> = published.lock().unwrap().clone();
                        for (sym, s) in seen.iter().skip(round % 7).step_by(7) {
                            assert_eq!(sym.as_str(), s);
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        let mut by_symbol = published.lock().unwrap().clone();
        assert_eq!(by_symbol.len(), strings.len());
        let mut by_str = by_symbol.clone();
        by_symbol.sort_by_key(|a| a.0);
        by_str.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(by_symbol, by_str);
    }
}
