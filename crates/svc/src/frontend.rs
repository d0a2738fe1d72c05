//! Shared request-handling core of the JSON-lines front-ends.
//!
//! Both front-ends — the single-client stdin loop (`svc` binary) and the
//! multi-client TCP server (`parsweep-net`) — speak the same flat-object
//! protocol; this module holds everything protocol-shaped so the two
//! stay in lock-step: request parsing ([`parse_submit`]), miter loading
//! (AIGER files or the built-in adder demos), and response-event
//! builders. Event builders return *field vectors* rather than finished
//! strings so a multiplexing front-end can append its per-request `id`
//! before serializing.

use std::sync::Arc;
use std::time::{Duration, SystemTime};

use parsweep_aig::{miter, read_aiger_file, Aig, Lit};
use parsweep_sat::Verdict;

use crate::cache::VerifiedCache;
use crate::jsonl::{emit_object, get, parse_object, JsonValue};
use crate::pool::Lane;
use crate::service::{CecService, JobResult};

/// Bounded path → parsed-AIG cache for a front-end's submit path.
///
/// A fleet of clients sweeping the same suite names the same AIGER
/// files over and over, and parsing even a few-hundred-gate file costs
/// tens of microseconds — under duplicate-heavy load that dwarfs the
/// settle cost of a memoized job. Each front-end threads one of these
/// through [`parse_submit`] so a repeated path is read and parsed once.
///
/// A verified LRU store keyed by path: a hit is served only while the
/// file's `(len, mtime)` — one `fs::metadata` call — still matches what
/// was parsed, so a client that rewrites a file and resubmits gets the
/// new file's verdict. A full cache evicts its least-recently-used entry.
pub struct MiterCache {
    files: VerifiedCache<String, (FileStamp, Arc<Aig>)>,
}

/// What a cached parse is valid for: the file's length and mtime.
type FileStamp = (u64, Option<SystemTime>);

impl Default for MiterCache {
    fn default() -> Self {
        MiterCache::new(256)
    }
}

impl MiterCache {
    /// An empty cache holding at most `capacity` parsed files
    /// (`0` disables caching).
    pub fn new(capacity: usize) -> Self {
        MiterCache {
            files: VerifiedCache::new(capacity),
        }
    }

    /// Reads and parses `path`, serving repeats of an unchanged file from
    /// the cache.
    pub fn load(&self, path: &str) -> Result<Arc<Aig>, String> {
        // Stamp before reading: a write racing the parse leaves a stale
        // stamp behind, which the next load detects and re-parses.
        let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
        let stamp: FileStamp = (meta.len(), meta.modified().ok());
        let fresh = |(s, _): &(FileStamp, Arc<Aig>)| *s == stamp;
        if let Some(aig) = self.files.get(path, |e| fresh(e).then(|| Arc::clone(&e.1))) {
            return Ok(aig);
        }
        let aig = Arc::new(read_aiger_file(path).map_err(|e| format!("{path}: {e}"))?);
        self.files
            .insert(path.to_owned(), (stamp, Arc::clone(&aig)), fresh);
        Ok(aig)
    }
}

/// A parsed `{"op":"submit"}` request: the miter to check plus the
/// options the protocol carries.
pub struct SubmitRequest {
    /// The miter to check.
    pub miter: Aig,
    /// Per-job deadline from `"deadline_ms"`.
    pub deadline: Option<Duration>,
    /// Priority lane from `"lane":"interactive"|"batch"` (default
    /// interactive).
    pub lane: Lane,
}

/// Parses the submit-specific fields of a request object.
pub fn parse_submit(
    fields: &[(String, JsonValue)],
    files: &MiterCache,
) -> Result<SubmitRequest, String> {
    let miter = load_miter(fields, files)?;
    let deadline = get(fields, "deadline_ms")
        .and_then(JsonValue::as_f64)
        .map(|ms| Duration::from_millis(ms.max(0.0) as u64));
    let lane = match get(fields, "lane").and_then(JsonValue::as_str) {
        None => Lane::Interactive,
        Some(name) => Lane::from_name(name).ok_or_else(|| format!("unknown lane '{name}'"))?,
    };
    Ok(SubmitRequest {
        miter,
        deadline,
        lane,
    })
}

/// The request id (`"id"` field) of a parsed request, if present.
/// Front-ends echo it on every response event so a client pipelining
/// requests over one connection can match responses back up.
pub fn request_id(fields: &[(String, JsonValue)]) -> Option<u64> {
    get(fields, "id")
        .and_then(JsonValue::as_f64)
        .map(|v| v as u64)
}

/// Appends `("id", n)` when a request id is present — every response
/// builder's final step in a multiplexing front-end.
pub fn push_id(fields: &mut Vec<(&'static str, JsonValue)>, id: Option<u64>) {
    if let Some(id) = id {
        fields.push(("id", JsonValue::Num(id as f64)));
    }
}

/// Loads the miter a submit request describes: an AIGER `"miter"` file,
/// a `"left"`+`"right"` pair to miter, or a built-in `"demo"`. File
/// reads go through the front-end's [`MiterCache`].
pub fn load_miter(fields: &[(String, JsonValue)], files: &MiterCache) -> Result<Aig, String> {
    if let Some(path) = get(fields, "miter").and_then(JsonValue::as_str) {
        return files.load(path).map(|aig| (*aig).clone());
    }
    if let (Some(left), Some(right)) = (
        get(fields, "left").and_then(JsonValue::as_str),
        get(fields, "right").and_then(JsonValue::as_str),
    ) {
        let a = files.load(left)?;
        let b = files.load(right)?;
        return miter(&a, &b).map_err(|e| format!("miter: {e:?}"));
    }
    if let Some(demo) = get(fields, "demo").and_then(JsonValue::as_str) {
        let width = get(fields, "width")
            .and_then(JsonValue::as_f64)
            .map(|w| w as usize)
            .unwrap_or(8)
            .clamp(1, 256);
        let corrupt = get(fields, "corrupt")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        return demo_miter(demo, width, corrupt);
    }
    Err("submit needs 'miter', 'left'+'right', or 'demo'".into())
}

/// Two structurally different `width`-bit adders, mitered; `corrupt`
/// flips one PO so the miter is satisfiable.
pub fn demo_miter(kind: &str, width: usize, corrupt: bool) -> Result<Aig, String> {
    if kind != "adder" {
        return Err(format!("unknown demo '{kind}' (try \"adder\")"));
    }
    let a = demo_adder(width, true);
    let mut b = demo_adder(width, false);
    if corrupt {
        let po0 = b.po(0);
        b.set_po(0, !po0);
    }
    miter(&a, &b).map_err(|e| format!("miter: {e:?}"))
}

/// A `width`-bit adder: ripple carry (`ripple`) or majority-gate carry.
/// The two variants are structurally different but equivalent — the
/// protocol's offline demo workload.
pub fn demo_adder(width: usize, ripple: bool) -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_inputs(width);
    let b = aig.add_inputs(width);
    let mut carry = Lit::FALSE;
    for i in 0..width {
        let axb = aig.xor(a[i], b[i]);
        let sum = aig.xor(axb, carry);
        carry = if ripple {
            let t = aig.and(a[i], b[i]);
            let u = aig.and(axb, carry);
            aig.or(t, u)
        } else {
            aig.maj3(a[i], b[i], carry)
        };
        aig.add_po(sum);
    }
    aig.add_po(carry);
    aig
}

/// The fields of a `result` event for one settled job.
pub fn result_fields(result: &JobResult) -> Vec<(&'static str, JsonValue)> {
    let verdict = match &result.verdict {
        Verdict::Equivalent => "equivalent",
        Verdict::NotEquivalent(_) => "not-equivalent",
        Verdict::Undecided => "undecided",
    };
    let mut fields = vec![
        ("event", JsonValue::Str("result".into())),
        ("job", JsonValue::Num(result.id.0 as f64)),
        ("verdict", JsonValue::Str(verdict.into())),
        ("shards", JsonValue::Num(result.stats.shards as f64)),
        ("cache_hits", JsonValue::Num(result.stats.cache_hits as f64)),
        (
            "cache_misses",
            JsonValue::Num(result.stats.cache_misses as f64),
        ),
        (
            "table_decided",
            JsonValue::Num(result.stats.table_decided as f64),
        ),
        (
            "queue_wait_ms",
            JsonValue::Num(result.stats.queue_wait.as_secs_f64() * 1000.0),
        ),
        (
            "total_ms",
            JsonValue::Num(result.stats.total.as_secs_f64() * 1000.0),
        ),
        ("cancelled", JsonValue::Bool(result.stats.cancelled)),
        ("memoized", JsonValue::Bool(result.stats.memo_hit)),
    ];
    if let Verdict::NotEquivalent(cex) = &result.verdict {
        let bits: String = cex
            .inputs()
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        fields.push(("cex", JsonValue::Str(bits)));
    }
    fields
}

/// The fields of a `stats` event: the service counters.
pub fn stats_fields(svc: &CecService) -> Vec<(&'static str, JsonValue)> {
    let s = svc.stats();
    vec![
        ("event", JsonValue::Str("stats".into())),
        ("jobs_submitted", JsonValue::Num(s.jobs_submitted as f64)),
        ("jobs_completed", JsonValue::Num(s.jobs_completed as f64)),
        ("shards", JsonValue::Num(s.shards_total as f64)),
        (
            "shards_table_decided",
            JsonValue::Num(s.shards_table_decided as f64),
        ),
        ("cache_hits", JsonValue::Num(s.cache_hits as f64)),
        ("cache_misses", JsonValue::Num(s.cache_misses as f64)),
        ("cache_hit_rate", JsonValue::Num(s.cache_hit_rate())),
        ("cache_evictions", JsonValue::Num(s.cache_evictions as f64)),
        // The semantic cache tier is gone; the key stays, always 0, only
        // because the benchmark's per-layer pass still reads it. A
        // benchmark change drops it.
        ("cache_semantic_hits", JsonValue::Num(0.0)),
        ("job_memo_hits", JsonValue::Num(s.job_memo_hits as f64)),
        ("cancellations", JsonValue::Num(s.cancellations as f64)),
        ("worker_utilization", JsonValue::Num(s.worker_utilization)),
    ]
}

/// The fields of an `error` event.
pub fn error_fields(message: String) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("event", JsonValue::Str("error".into())),
        ("message", JsonValue::Str(message)),
    ]
}

/// Handles one request line in the *single-client* (stdin) style: submit
/// never blocks on admission (the stdin loop has no admission control),
/// drain settles everything. Returns the response events to write, in
/// order. The TCP server composes its own submit path from
/// [`parse_submit`] + admission, but shares every other op through the
/// same builders. `files` is the front-end's miter-file cache,
/// constructed once next to the service.
pub fn handle_request(
    svc: &CecService,
    files: &MiterCache,
    line: &str,
) -> Result<Vec<String>, String> {
    let fields = parse_object(line).map_err(|e| e.to_string())?;
    let op = get(&fields, "op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing 'op'".to_string())?;
    let id = request_id(&fields);
    let emit = |mut f: Vec<(&'static str, JsonValue)>| {
        push_id(&mut f, id);
        emit_object(&f)
    };
    match op {
        "submit" => {
            let req = parse_submit(&fields, files)?;
            let job = svc.submit_with_opts(
                req.miter,
                crate::service::SubmitOpts {
                    deadline: req.deadline,
                    lane: req.lane,
                    client: 0,
                },
            );
            Ok(vec![emit(vec![
                ("event", JsonValue::Str("submitted".into())),
                ("job", JsonValue::Num(job.0 as f64)),
            ])])
        }
        "drain" => {
            let mut events: Vec<String> =
                svc.drain().iter().map(|r| emit(result_fields(r))).collect();
            events.push(emit(stats_fields(svc)));
            Ok(events)
        }
        "stats" => Ok(vec![emit(stats_fields(svc))]),
        "metrics" => Ok(vec![emit(vec![
            ("event", JsonValue::Str("metrics".into())),
            ("text", JsonValue::Str(svc.metrics_text())),
        ])]),
        other => Err(format!("unknown op '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SvcConfig;

    #[test]
    fn submit_parses_lane_and_deadline() {
        let fields = parse_object(
            r#"{"op":"submit","demo":"adder","width":2,"lane":"batch","deadline_ms":500}"#,
        )
        .unwrap();
        let req = parse_submit(&fields, &MiterCache::default()).unwrap();
        assert_eq!(req.lane, Lane::Batch);
        assert_eq!(req.deadline, Some(Duration::from_millis(500)));
        assert!(req.miter.num_pos() > 0);
    }

    /// Two-input XOR as ASCII AIGER; `flip` complements the output.
    fn xor_aag(flip: bool) -> String {
        let po = if flip { 11 } else { 10 };
        format!("aag 5 2 0 1 3\n2\n4\n{po}\n6 3 5\n8 2 4\n10 7 9\n")
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("parsweep-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn rewritten_file_is_reparsed_not_served_stale() {
        let dir = scratch_dir("miter-cache-stale");
        let (left, right) = (dir.join("left.aag"), dir.join("right.aag"));
        std::fs::write(&left, xor_aag(false)).unwrap();
        std::fs::write(&right, xor_aag(false)).unwrap();
        let svc = CecService::new(SvcConfig::default());
        let files = MiterCache::default();
        let submit = format!(
            r#"{{"op":"submit","left":"{}","right":"{}"}}"#,
            left.display(),
            right.display()
        );
        let verdict = |files: &MiterCache| {
            handle_request(&svc, files, &submit).unwrap();
            let events = handle_request(&svc, files, r#"{"op":"drain"}"#).unwrap();
            events
                .iter()
                .find(|e| e.contains("\"event\":\"result\""))
                .cloned()
                .expect("a result event")
        };
        assert!(verdict(&files).contains("\"equivalent\""));
        // Same length, different function: only the mtime tells them
        // apart, so move it explicitly (two writes can share a tick).
        std::fs::write(&right, xor_aag(true)).unwrap();
        let later = SystemTime::now() + Duration::from_secs(5);
        std::fs::File::options()
            .write(true)
            .open(&right)
            .unwrap()
            .set_modified(later)
            .unwrap();
        let after = verdict(&files);
        assert!(after.contains("\"not-equivalent\""), "stale parse: {after}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_full_cache_evicts_one_entry_not_all() {
        let dir = scratch_dir("miter-cache-evict");
        let path = |i: usize| dir.join(format!("f{i}.aag")).display().to_string();
        let files = MiterCache::default();
        for i in 0..257 {
            std::fs::write(path(i), xor_aag(i % 2 == 0)).unwrap();
            files.load(&path(i)).unwrap();
        }
        let cached = |i: usize| files.files.get(path(i).as_str(), |_| Some(())).is_some();
        assert_eq!(files.files.len(), 256);
        assert!(!cached(0), "least-recently-used entry evicted");
        assert!((1..257).all(cached));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_rejects_unknown_lane() {
        let fields = parse_object(r#"{"op":"submit","demo":"adder","lane":"bulk"}"#).unwrap();
        let err = match parse_submit(&fields, &MiterCache::default()) {
            Err(e) => e,
            Ok(_) => panic!("unknown lane must be rejected"),
        };
        assert!(err.contains("unknown lane"), "{err}");
    }

    #[test]
    fn request_id_echoes_on_responses() {
        let svc = CecService::new(SvcConfig::default());
        let files = MiterCache::default();
        let events = handle_request(
            &svc,
            &files,
            r#"{"op":"submit","demo":"adder","width":2,"id":42}"#,
        )
        .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].contains("\"id\":42"), "{}", events[0]);
        let events = handle_request(&svc, &files, r#"{"op":"drain","id":43}"#).unwrap();
        assert!(events.iter().all(|e| e.contains("\"id\":43")), "{events:?}");
    }

    #[test]
    fn miter_cache_parses_a_file_once() {
        let dir = std::env::temp_dir().join(format!("parsweep_mc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.aig");
        let m = demo_miter("adder", 2, false).unwrap();
        parsweep_aig::write_aiger_file(&m, &path).unwrap();
        let cache = MiterCache::new(4);
        let a = cache.load(path.to_str().unwrap()).unwrap();
        let b = cache.load(path.to_str().unwrap()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat load must be the cached parse");
        let c = MiterCache::new(0).load(path.to_str().unwrap()).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "capacity 0 must bypass the cache");
        // An unlinked file is a changed file: no stale hit.
        std::fs::remove_file(&path).unwrap();
        assert!(cache.load(path.to_str().unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demo_adders_are_equivalent_structures() {
        let m = demo_miter("adder", 4, false).unwrap();
        assert_eq!(m.num_pis(), 8, "miter shares the adders' 2*width PIs");
        assert!(demo_miter("ripple", 4, false).is_err());
    }
}
