//! Cross-algorithm memoization of homomorphism checks.
//!
//! Verification workloads (`~M`-equivalence classes, composition and
//! maximum-recovery matrices, incremental re-chase) fire hundreds of
//! near-identical `has_hom`/`hom_equivalent` calls, frequently against
//! the same pair of instances up to null renaming. [`HomCache`] memoizes
//! the boolean answers, keyed by the canonical instance fingerprints of
//! [`crate::FactStore::fingerprint`].
//!
//! # Why the key is sound
//!
//! The fingerprint renames nulls by a bijection, so **equal fingerprints
//! imply isomorphic instances**, and the existence of a homomorphism is
//! invariant under isomorphism of either side. A fingerprint collision
//! between inequivalent instances is therefore impossible — the cache can
//! return stale-looking but never *wrong* booleans. (This is also why the
//! key is the full canonical string and not a 64-bit hash of it: a hash
//! collision *would* poison the cache with a wrong answer.) Isomorphic
//! instances that happen to render different fingerprints merely miss.
//!
//! The cache is `Sync` (a mutexed map plus atomic counters), so
//! `qi-exec` workers may share one: cached booleans are pure values, so
//! hitting the cache in any interleaving preserves the determinism
//! contract.

use crate::hom::{has_hom, hom_refuted_quick};
use crate::instance::Instance;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The answer table of one source fingerprint.
type Slot = Arc<Mutex<HashMap<Arc<String>, bool>>>;

/// Memoized homomorphism checks keyed by canonical fingerprints (module
/// docs). One cache per algorithm run is the intended scope —
/// equivalence-class indexing and each verification matrix create their
/// own, so memory stays bounded by the run's working set.
#[derive(Debug, Default)]
pub struct HomCache {
    /// `source fingerprint → (target fingerprint → answer)`.
    homs: Mutex<HashMap<String, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl HomCache {
    /// Fresh, empty cache with zeroed counters.
    pub fn new() -> Self {
        HomCache::default()
    }

    /// `(hits, misses)` so far. A hit is any answer served without
    /// running a search (including the equal-fingerprint shortcut).
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Entries evicted so far by [`HomCache::evict_rels`].
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Fingerprint-scoped invalidation: drop every cached answer whose
    /// key fingerprint *mentions* one of `rels` — i.e. whose canonical
    /// rendering has a non-empty `r{rel}#…:` segment for a changed
    /// relation. Returns the number of entries evicted (also summed
    /// into [`HomCache::evictions`]).
    ///
    /// This is a freshness/memory policy, never a correctness one:
    /// cached booleans are statements about the specific (isomorphism
    /// classes of) instances in their keys, so keeping them can never
    /// produce a wrong answer for a *different* instance — the changed
    /// instance renders a different fingerprint and simply misses. What
    /// eviction buys a long-lived cache (the `qimap rechase` loop) is
    /// that answers about superseded instance versions stop occupying
    /// memory, while entries over untouched relations stay warm.
    ///
    /// Entries are keyed by fingerprints on both levels: an outer key
    /// that mentions a changed relation drops its whole answer table,
    /// otherwise the table's inner keys are scanned.
    pub fn evict_rels(&self, rels: &[usize]) -> u64 {
        if rels.is_empty() {
            return 0;
        }
        let mut evicted: u64 = 0;
        self.homs
            .lock()
            .expect("hom cache lock")
            .retain(|outer, slot| {
                let mut m = slot.lock().expect("hom cache slot lock");
                if fingerprint_mentions(outer, rels) {
                    evicted += m.len().max(1) as u64;
                    false
                } else {
                    let before = m.len();
                    m.retain(|fp, _| !fingerprint_mentions(fp, rels));
                    evicted += (before - m.len()) as u64;
                    true
                }
            });
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Memoized [`has_hom`]. The refutation prefilter runs before any
    /// fingerprinting (it is cheaper than rendering), and equal
    /// fingerprints short-circuit to `true` — isomorphic instances always
    /// admit the identity-up-to-renaming homomorphism.
    pub fn has_hom(&self, a: &Instance, b: &Instance) -> bool {
        if hom_refuted_quick(a, b) {
            return false;
        }
        let fa = a.store().fingerprint();
        let fb = b.store().fingerprint();
        if fa == fb {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        self.lookup_or(fa.as_str(), fb, || has_hom(a, b))
    }

    /// Memoized [`crate::hom_equivalent`].
    pub fn hom_equivalent(&self, a: &Instance, b: &Instance) -> bool {
        self.has_hom(a, b) && self.has_hom(b, a)
    }

    fn lookup_or(&self, outer: &str, inner: Arc<String>, run: impl FnOnce() -> bool) -> bool {
        let slot = Arc::clone(
            self.homs
                .lock()
                .expect("hom cache lock")
                .entry(outer.to_owned())
                .or_default(),
        );
        {
            let m = slot.lock().expect("hom cache slot lock");
            if let Some(&answer) = m.get(&inner) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return answer;
            }
        }
        // Compute outside the lock: `run` may itself be expensive, and
        // recursive search code must never deadlock on the cache. Two
        // workers racing on the same key both compute the same pure
        // boolean, so the double insert is harmless.
        let answer = run();
        self.misses.fetch_add(1, Ordering::Relaxed);
        slot.lock()
            .expect("hom cache slot lock")
            .insert(inner, answer);
        answer
    }
}

/// Does a canonical fingerprint (`r0#2:(c1,c2,);r1#1:;…` — see
/// [`crate::FactStore::fingerprint`]) have tuples in any of `rels`?
/// Non-fingerprint strings parse as mentioning nothing.
fn fingerprint_mentions(fp: &str, rels: &[usize]) -> bool {
    fp.split_terminator(';').any(|seg| {
        let Some(body) = seg.strip_prefix('r') else {
            return false;
        };
        let Some(hash) = body.find('#') else {
            return false;
        };
        let Ok(rel) = body[..hash].parse::<usize>() else {
            return false;
        };
        rels.contains(&rel) && body.contains('(')
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn inst(schema: &Schema, text: &str) -> Instance {
        Instance::parse(schema, text).unwrap()
    }

    #[test]
    fn cached_answers_match_direct_ones() {
        let s = Schema::parse("E/2").unwrap();
        let cache = HomCache::new();
        let pairs = [
            ("E(a,N1)", "E(a,b)"),
            ("E(N1,N2) E(N2,N3)", "E(a,a)"),
            ("E(N1,N1)", "E(a,b)"), // false, but beyond the prefilter
        ];
        for (x, y) in pairs {
            let a = inst(&s, x);
            let b = inst(&s, y);
            assert_eq!(cache.has_hom(&a, &b), has_hom(&a, &b), "{x} → {y}");
            // Second query hits.
            let (hits_before, _) = cache.counters();
            assert_eq!(cache.has_hom(&a, &b), has_hom(&a, &b));
            assert!(cache.counters().0 > hits_before, "{x} → {y} should hit");
        }
        // A pair killed by the refutation prefilter never reaches the
        // cache: answered `false` for free, counters untouched.
        let (hits, misses) = cache.counters();
        let a = inst(&s, "E(a,b)");
        let b = inst(&s, "E(a,N1)");
        assert!(!cache.has_hom(&a, &b), "ground fact absent from target");
        assert_eq!(cache.counters(), (hits, misses));
    }

    #[test]
    fn null_renamed_instances_share_entries() {
        let s = Schema::parse("E/2").unwrap();
        let a = inst(&s, "E(a,N1) E(N1,N2)");
        let b = inst(&s, "E(a,N7) E(N7,N9)");
        let target = inst(&s, "E(a,a)");
        let cache = HomCache::new();
        assert!(cache.has_hom(&a, &target));
        let (_, misses) = cache.counters();
        // `b` is `a` up to null renaming: same fingerprint, so a hit.
        assert!(cache.has_hom(&b, &target));
        assert_eq!(cache.counters().1, misses, "renamed query must not miss");
    }

    #[test]
    fn equal_fingerprints_short_circuit() {
        let s = Schema::parse("E/2").unwrap();
        let a = inst(&s, "E(N1,N2)");
        let b = inst(&s, "E(N5,N6)");
        let cache = HomCache::new();
        assert!(cache.has_hom(&a, &b));
        assert_eq!(cache.counters(), (1, 0), "iso shortcut counts as a hit");
    }

    #[test]
    fn eviction_is_scoped_to_mentioned_relations() {
        let s = Schema::parse("E/2 F/1").unwrap();
        let cache = HomCache::new();
        // Seed one entry purely over E (rel 0) and one purely over F
        // (rel 1).
        let a = inst(&s, "E(a,N1) E(N1,N1)");
        let b = inst(&s, "E(a,a)");
        assert!(cache.has_hom(&a, &b));
        let f = inst(&s, "F(N2) F(N3)");
        let g = inst(&s, "F(c)");
        assert!(cache.has_hom(&f, &g));
        let (_, misses) = cache.counters();

        // Evicting F must keep the E-scoped entry warm …
        assert_eq!(cache.evict_rels(&[1]), 1, "only the F entry goes");
        assert!(cache.has_hom(&a, &b));
        assert_eq!(cache.counters().1, misses, "E entry still cached");
        // … but the F query must rerun.
        assert!(cache.has_hom(&f, &g));
        assert_eq!(cache.counters().1, misses + 1, "F entry was evicted");

        // Now evict E: the E entry goes, the refreshed F entry stays.
        assert_eq!(cache.evict_rels(&[0]), 1);
        let misses_before = cache.counters().1;
        assert!(cache.has_hom(&f, &g));
        assert!(cache.has_hom(&a, &b));
        assert_eq!(cache.counters().1, misses_before + 1, "only E reran");
        assert_eq!(cache.evictions(), 2);

        // Empty scope is a no-op.
        assert_eq!(cache.evict_rels(&[]), 0);
    }
}
