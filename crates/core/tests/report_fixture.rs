//! Pins the report schema to bytes on disk. `fixtures/report_v14.json` is the
//! v7 fixture — written by the hand-rolled emitter of rev `c154f7c` (before
//! the records were declared through `ustencil_trace::json_record!`) from
//! four real runs on 60–120-triangle meshes, one per record type: a direct
//! run with a `device_sim` (`RunRecord::from_solution`), a plan+patch run
//! with `delta` (`EvalPlan::to_run_record_patched`), a 2-rank dist run with
//! `comms` and `critical_path` (`DistSolution::to_run_record`), and a serve
//! run with two tenants (`traffic::run_cached`) — with the later versions'
//! edits made by hand. v8, in its serve run: `batches` deleted,
//! `batched_rows` → `rows`, and the two values one lookup per request
//! changes (cache `hits` 1 → 4, the worker patch's `elements` 3 → 0). v9,
//! in its dist run: `"schema": 9` and the three reliability counters
//! (the keys after `bytes_recv`) deleted from both comms ledgers; the run's
//! spans and message counts are still the five-phase, chunked exchange's,
//! which a parser does not care about. v10, in its serve run: `"schema": 10`
//! and the disk-load counter deleted. v11: `"schema": 11`, every run's
//! `critical_path` and, in both comms ledgers, `interior`, `frontier`,
//! `exposed_comms_ms`, `flow_sends` and `flow_recvs` deleted. v12, in its
//! serve run: `"schema": 12` and the run's and both tenants' queue-wait
//! histograms deleted. v13: `"schema": 13`, the serve run's `patches` and
//! `evictions` counters and every run's `simd.fraction_of_peak` deleted.
//! v14: `"schema": 14` and every run's `histograms` object deleted.
//! Regenerating it with a later emitter would pin nothing: the bytes are
//! the contract. The file name carries no version, so a schema bump renames
//! the fixture, not these tests.

use ustencil_core::RunReport;
use ustencil_trace::Json;

const FIXTURE: &str = include_str!("fixtures/report_v14.json");

#[test]
fn fixture_round_trips_byte_for_byte() {
    let report = RunReport::from_json(FIXTURE).expect("fixture parses");
    assert_eq!(report.runs.len(), 4);
    assert_eq!(report.to_pretty_string(), FIXTURE);
    // The same bytes under the previous version number are refused whole,
    // by the typed message, before any record is read.
    let v13 = FIXTURE.replacen("\"schema\": 14", "\"schema\": 13", 1);
    let err = RunReport::from_json(&v13).expect_err("a v13 document is refused");
    assert!(
        err.contains("report schema version 13 is not supported"),
        "{err}"
    );
}

/// One object key of the document: the child indices leading to its object
/// and the keys of the objects on the way (array hops repeat none).
struct KeySite {
    path: Vec<usize>,
    ancestors: Vec<String>,
    key: String,
}

fn key_sites(
    doc: &Json,
    path: &mut Vec<usize>,
    ancestors: &mut Vec<String>,
    out: &mut Vec<KeySite>,
) {
    match doc {
        Json::Obj(pairs) => {
            for (i, (key, value)) in pairs.iter().enumerate() {
                out.push(KeySite {
                    path: path.clone(),
                    ancestors: ancestors.clone(),
                    key: key.clone(),
                });
                path.push(i);
                ancestors.push(key.clone());
                key_sites(value, path, ancestors, out);
                ancestors.pop();
                path.pop();
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(i);
                key_sites(item, path, ancestors, out);
                path.pop();
            }
        }
        _ => {}
    }
}

/// `doc` without `key` in the object at `path`.
fn without(doc: &Json, path: &[usize], key: &str) -> Json {
    let Some((&hop, rest)) = path.split_first() else {
        let Json::Obj(pairs) = doc else {
            unreachable!("a key site is an object")
        };
        return Json::Obj(pairs.iter().filter(|(k, _)| k != key).cloned().collect());
    };
    let child = |j: usize, v: &Json| {
        if j == hop {
            without(v, rest, key)
        } else {
            v.clone()
        }
    };
    match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .enumerate()
                .map(|(j, (k, v))| (k.clone(), child(j, v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().enumerate().map(|(j, v)| child(j, v)).collect()),
        _ => unreachable!("path was collected from this document"),
    }
}

/// What the parser owes a document that lost one key.
enum Loss {
    /// A stored field: rejected with `missing key '<k>'`.
    Rejected,
    /// Emitted for readers, recomputed on parse: still parses, and the
    /// re-emission restores it.
    Derived,
    /// The version key has its own, longer message.
    Schema,
}

fn classify(site: &KeySite) -> Loss {
    let parent = site.ancestors.last().map(String::as_str);
    let key = site.key.as_str();
    if key == "schema" {
        Loss::Schema
    } else if key == "imbalance"
        || site.ancestors.iter().any(|a| a == "imbalance")
        || (parent == Some("device_sim") && key == "gflops")
        || (parent == Some("buckets") && (key == "lo" || key == "hi"))
        || (parent != Some("buckets") && key == "count")
    {
        Loss::Derived
    } else {
        Loss::Rejected
    }
}

#[test]
fn deleting_any_one_key_is_rejected_by_name_unless_derived() {
    let doc = Json::parse(FIXTURE).unwrap();
    let mut sites = Vec::new();
    key_sites(&doc, &mut Vec::new(), &mut Vec::new(), &mut sites);
    assert!(sites.len() > 500, "the fixture exercises every record type");
    let mut seen = [0usize; 3];
    for site in &sites {
        let key = &site.key;
        let parsed = RunReport::from_json(&without(&doc, &site.path, key).to_pretty_string());
        let loss = classify(site);
        match loss {
            Loss::Rejected => {
                let err = parsed.expect_err(key);
                assert!(
                    err.contains(&format!("missing key '{key}'")),
                    "{key}: {err}"
                );
            }
            Loss::Derived => {
                let report = parsed.unwrap_or_else(|e| panic!("derived key '{key}': {e}"));
                assert_eq!(report.to_pretty_string(), FIXTURE, "derived key '{key}'");
            }
            Loss::Schema => assert!(parsed.unwrap_err().contains("no 'schema' key")),
        }
        seen[loss as usize] += 1;
    }
    assert!(seen.iter().all(|&n| n > 0), "every class occurs: {seen:?}");
}

/// splitmix64: a fixed seed gives the same mutations on every host.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hostile bytes: 2 000 seeded mutants of the fixture — one to three bit
/// flips, truncations or insertions each — are each parsed to `Ok` or
/// `Err`, never a panic, and an `Ok` report re-emits.
#[test]
fn mutated_fixture_bytes_never_panic_the_parser() {
    const STRUCTURAL: &[u8] = b"{}[]\",:-+.eE0123456789 \\nul";
    let mut state = 2013;
    let mut parsed = 0;
    for case in 0..2000 {
        let mut bytes = FIXTURE.as_bytes().to_vec();
        for _ in 0..1 + next(&mut state) % 3 {
            let at = (next(&mut state) % (bytes.len() as u64 + 1)) as usize;
            let r = next(&mut state);
            match r % 3 {
                0 if at < bytes.len() => bytes[at] ^= 1 << ((r >> 8) % 8),
                1 => bytes.truncate(at),
                _ if (r >> 8) & 1 == 0 => bytes.insert(at, (r >> 16) as u8),
                _ => bytes.insert(at, STRUCTURAL[(r >> 16) as usize % STRUCTURAL.len()]),
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let outcome = std::panic::catch_unwind(|| {
            RunReport::from_json(&text).map(|report| report.to_pretty_string())
        });
        match outcome {
            Ok(result) => parsed += result.is_ok() as usize,
            Err(_) => panic!("mutant {case} panicked the parser:\n{text}"),
        }
    }
    // Flips inside strings and digits leave a well-formed report.
    assert!(parsed > 0 && parsed < 2000, "{parsed} of 2000 parsed");
}
