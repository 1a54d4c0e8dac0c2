//! The server's two content-addressed caches.
//!
//! * The **design cache** maps the FNV/SplitMix content hash of the
//!   POSTed netlist text to a prepared [`Design`]: the parsed netlist,
//!   its scan-inserted form, the [`Levelized`] packed view, and the
//!   collapsed fault list. These are the expensive, job-independent
//!   artifacts — every job kind starts from them, and
//!   [`rescue_atpg::Atpg::run_prepared`] guarantees reusing them is
//!   bit-identical to rebuilding.
//! * The **result cache** maps `(netlist text hash, job config hash)`
//!   to the finished canonical result line, so a repeated identical job
//!   skips the engines entirely.
//!
//! A 64-bit hash is only a lookup key, never proof of identity: FNV-1a
//! collisions are easy to construct, and a trusted collision would hand
//! one client another client's design or result. So each entry keeps
//! what it was built from — the posted text (an `Arc<str>` shared with
//! the [`Design`]) and, for results, the result-relevant
//! [`JobConfig`] fields — and a hit whose stored inputs differ from the
//! request's is treated as a miss. Honest traffic never collides, so
//! its hit/miss counts are unchanged.
//!
//! Both are bounded LRUs (monotonic-tick recency, O(n) eviction — the
//! caps are small) behind mutexes, with hit/miss/eviction counters
//! registered in the global [`rescue_obs::metrics`] registry under
//! `serve.cache.*`, which makes them visible on `/metrics` and exactly
//! gated by `bench-diff`.

use crate::job::JobConfig;
use rescue_netlist::scan::insert_scan;
use rescue_netlist::{fnv1a64, BuildError, Fault, Levelized, Netlist};
use rescue_obs::metrics::Counter;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// A prepared design: everything about a netlist that every job kind
/// shares, built once per distinct netlist text and reused.
#[derive(Debug)]
pub struct Design {
    /// The netlist text as POSTed, which cache hits are verified
    /// against.
    pub text: Arc<str>,
    /// Structural content hash of the parsed netlist
    /// ([`Netlist::content_hash`]), echoed in results so two texts that
    /// parse to the same structure are recognizably identical.
    pub content_hash: u64,
    /// The parsed pre-scan netlist.
    pub base: Netlist,
    /// Scan-inserted form; `None` when the design has no state (scan
    /// insertion requires at least one flip-flop). ATPG jobs need this.
    pub scanned: Option<rescue_netlist::ScanNetlist>,
    /// Levelized packed view of the scanned netlist (of `base` when
    /// there is no state), shared immutably across fault-sim workers.
    pub lev: Levelized,
    /// Collapsed stuck-at fault list for the same netlist as `lev`.
    pub faults: Vec<Fault>,
}

impl Design {
    /// Parse and prepare `text`. Errors are human-readable strings —
    /// this path faces untrusted input and must never panic.
    pub fn build(text: &str) -> Result<Design, String> {
        let base = rescue_netlist::text::parse(text)?;
        let content_hash = base.content_hash();
        let scanned = match insert_scan(&base) {
            Ok(s) => Some(s),
            Err(BuildError::NoState) => None,
            Err(e) => return Err(format!("scan insertion failed: {e}")),
        };
        let sim_netlist = scanned.as_ref().map(|s| &s.netlist).unwrap_or(&base);
        let lev = Levelized::new(sim_netlist);
        let faults = sim_netlist.collapse_faults();
        Ok(Design {
            text: Arc::from(text),
            content_hash,
            base,
            scanned,
            lev,
            faults,
        })
    }
}

/// Bounded map with least-recently-used eviction. Recency is a
/// monotonic tick bumped on every hit; eviction scans for the minimum
/// (O(n), fine at the cache sizes the server uses).
#[derive(Debug)]
pub struct LruCache<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// An empty cache holding at most `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look up `k`, refreshing its recency on a hit.
    pub fn get(&mut self, k: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(k).map(|slot| {
            slot.0 = tick;
            slot.1.clone()
        })
    }

    /// Insert `k → v`, evicting the least-recently-used entry when
    /// over capacity. Returns `true` when an entry was evicted.
    pub fn insert(&mut self, k: K, v: V) -> bool {
        self.tick += 1;
        self.map.insert(k, (self.tick, v));
        if self.map.len() <= self.cap {
            return false;
        }
        if let Some(oldest) = self
            .map
            .iter()
            .min_by_key(|(_, (t, _))| *t)
            .map(|(k, _)| k.clone())
        {
            self.map.remove(&oldest);
        }
        true
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A cached result line with the inputs it was computed from: the
/// netlist text and the result-relevant config
/// ([`JobConfig::result_fields`]).
#[derive(Clone)]
struct ResultEntry {
    text: Arc<str>,
    config: JobConfig,
    line: Arc<String>,
}

/// The server's caches plus their `serve.cache.*` counters.
pub struct ServeCaches {
    designs: Mutex<LruCache<u64, Arc<Design>>>,
    results: Mutex<LruCache<(u64, u64), ResultEntry>>,
    /// Lookup key of a netlist text ([`fnv1a64`] outside tests).
    text_key: fn(&[u8]) -> u64,
    /// Lookup key of a job config ([`JobConfig::config_hash`] outside
    /// tests).
    config_key: fn(&JobConfig) -> u64,
    design_hits: Arc<Counter>,
    design_misses: Arc<Counter>,
    result_hits: Arc<Counter>,
    result_misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl ServeCaches {
    /// Caches bounded to `design_cap` prepared designs and
    /// `result_cap` result lines, with counters registered globally.
    pub fn new(design_cap: usize, result_cap: usize) -> ServeCaches {
        Self::with_keys(design_cap, result_cap, fnv1a64, JobConfig::config_hash)
    }

    fn with_keys(
        design_cap: usize,
        result_cap: usize,
        text_key: fn(&[u8]) -> u64,
        config_key: fn(&JobConfig) -> u64,
    ) -> ServeCaches {
        let reg = rescue_obs::metrics::global();
        ServeCaches {
            designs: Mutex::new(LruCache::new(design_cap)),
            results: Mutex::new(LruCache::new(result_cap)),
            text_key,
            config_key,
            design_hits: reg.counter("serve.cache.design.hits"),
            design_misses: reg.counter("serve.cache.design.misses"),
            result_hits: reg.counter("serve.cache.result.hits"),
            result_misses: reg.counter("serve.cache.result.misses"),
            evictions: reg.counter("serve.cache.evictions"),
        }
    }

    /// Fetch the prepared design for `text`, building and caching it on
    /// a miss. Returns the design and whether this was a cache hit. An
    /// entry under the same key built from a different text is a miss,
    /// and the rebuilt design replaces it.
    pub fn design(&self, text: &str) -> Result<(Arc<Design>, bool), String> {
        let key = (self.text_key)(text.as_bytes());
        let cached = self.designs.lock().expect("design cache lock").get(&key);
        if let Some(d) = cached.filter(|d| *d.text == *text) {
            self.design_hits.inc();
            return Ok((d, true));
        }
        // Build outside the lock: parsing and levelizing a large
        // netlist must not block hits on other designs. Two racing
        // misses both build; last insert wins (identical content).
        self.design_misses.inc();
        let built = Arc::new(Design::build(text)?);
        let mut cache = self.designs.lock().expect("design cache lock");
        if cache.insert(key, Arc::clone(&built)) {
            self.evictions.inc();
        }
        Ok((built, false))
    }

    fn result_key(&self, text: &str, config: &JobConfig) -> (u64, u64) {
        ((self.text_key)(text.as_bytes()), (self.config_key)(config))
    }

    /// Look up the finished result line of job `config` on `text`. An
    /// entry under the same key computed from a different text or
    /// config is a miss.
    pub fn result(&self, text: &str, config: &JobConfig) -> Option<Arc<String>> {
        let key = self.result_key(text, config);
        let fields = config.result_fields();
        let hit = self
            .results
            .lock()
            .expect("result cache lock")
            .get(&key)
            .filter(|e| *e.text == *text && e.config == fields)
            .map(|e| e.line);
        match &hit {
            Some(_) => self.result_hits.inc(),
            None => self.result_misses.inc(),
        }
        hit
    }

    /// Store the finished result line of job `config` on `text`
    /// (normally the [`Design::text`] it ran on).
    pub fn store_result(&self, text: Arc<str>, config: &JobConfig, line: Arc<String>) {
        let key = self.result_key(&text, config);
        let entry = ResultEntry {
            text,
            config: config.result_fields(),
            line,
        };
        if self
            .results
            .lock()
            .expect("result cache lock")
            .insert(key, entry)
        {
            self.evictions.inc();
        }
    }

    /// `(designs cached, results cached)` — for `/stats.json`.
    pub fn sizes(&self) -> (usize, usize) {
        (
            self.designs.lock().expect("design cache lock").len(),
            self.results.lock().expect("result cache lock").len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        assert!(!c.insert(1, 10));
        assert!(!c.insert(2, 20));
        assert_eq!(c.get(&1), Some(10)); // refresh 1; 2 is now oldest
        assert!(c.insert(3, 30));
        assert_eq!(c.get(&2), None, "LRU entry should have been evicted");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn design_cache_hits_on_identical_text() {
        let caches = ServeCaches::new(4, 4);
        // Signals: inputs a=0 b=1, dff q=2, gate and=3.
        let text = "component c\ninput a\ninput b\ngate and 0 1\ndff q c 3\noutput o 3\n";
        let (d1, hit1) = caches.design(text).unwrap();
        let (d2, hit2) = caches.design(text).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&d1, &d2), "hit must return the cached Arc");
        assert!(d1.scanned.is_some());
        assert!(!d1.faults.is_empty());
    }

    #[test]
    fn design_build_rejects_garbage_without_panicking() {
        assert!(Design::build("gate and 0 99\n").is_err());
        assert!(Design::build("\x00\x01\x02").is_err());
    }

    /// A key function that sends every input to one slot, so any two
    /// netlists and any two configs collide.
    fn collide<T: ?Sized>(_: &T) -> u64 {
        0
    }

    fn fixture(gate: &str) -> String {
        // Signals: inputs a=0 b=1, dff q=2, gate=3.
        format!("component c\ninput a\ninput b\ngate {gate} 0 1\ndff q c 3\noutput o 3\n")
    }

    #[test]
    fn colliding_designs_each_get_their_own_build() {
        let caches = ServeCaches::with_keys(4, 4, collide, collide);
        let and = fixture("and");
        let or = fixture("or");
        let (d_and, hit) = caches.design(&and).unwrap();
        assert!(!hit);
        let (d_or, hit) = caches.design(&or).unwrap();
        assert!(!hit, "a colliding text must not hit another design");
        assert_eq!(&*d_or.text, or.as_str());
        assert_ne!(d_and.content_hash, d_or.content_hash);
        // The same text hits again once it owns the slot.
        let (again, hit) = caches.design(&or).unwrap();
        assert!(hit && Arc::ptr_eq(&again, &d_or));
        let (back, hit) = caches.design(&and).unwrap();
        assert!(!hit, "the slot now holds the other text");
        assert_eq!(back.content_hash, d_and.content_hash);
    }

    #[test]
    fn colliding_results_each_get_their_own_answer() {
        use crate::job::JobKind;
        let caches = ServeCaches::with_keys(4, 4, collide, collide);
        let and: Arc<str> = Arc::from(fixture("and"));
        let or = fixture("or");
        let fsim = JobConfig::new(JobKind::Fsim);
        let seeded = JobConfig {
            seed: 7,
            ..JobConfig::new(JobKind::Fsim)
        };
        caches.store_result(Arc::clone(&and), &fsim, Arc::new("and-fsim".to_owned()));
        // Same key, different netlist: miss.
        assert_eq!(caches.result(&or, &fsim), None);
        // Same key and netlist, different result-relevant config: miss.
        assert_eq!(caches.result(&and, &seeded), None);
        // Datapath knobs are not result-relevant: still a hit.
        let wide = JobConfig {
            threads: 3,
            lane_words: 8,
            ..fsim.clone()
        };
        assert_eq!(
            caches.result(&and, &wide).as_deref().map(String::as_str),
            Some("and-fsim")
        );
        // Each colliding job stores and gets back its own line.
        caches.store_result(
            Arc::from(or.as_str()),
            &seeded,
            Arc::new("or-seeded".to_owned()),
        );
        assert_eq!(
            caches.result(&or, &seeded).as_deref().map(String::as_str),
            Some("or-seeded")
        );
        assert_eq!(caches.result(&and, &fsim), None, "slot was taken over");
    }
}
