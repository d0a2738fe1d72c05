//! Integration tests: the TCP server under real concurrent clients.
//!
//! The scenarios the admission/fairness design exists for: several
//! clients on mixed lanes with one of them flooding, full queues
//! rejecting with a backoff hint, and — the invariant that matters most —
//! every verdict under load identical to a solo run of the same job.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use parsweep_net::client::{event_id, event_name};
use parsweep_net::{AdmissionConfig, NetClient, NetConfig, NetServer};
use parsweep_sat::Verdict;
use parsweep_svc::frontend::demo_miter;
use parsweep_svc::jsonl::{emit_object, get, parse_object, JsonValue};
use parsweep_svc::{CecService, Lane, SvcConfig};

/// Solo ground truth: the same demo job through a bare service.
fn solo_verdict(width: usize, corrupt: bool) -> &'static str {
    let svc = CecService::new(SvcConfig {
        workers: 1,
        ..SvcConfig::default()
    });
    let id = svc.submit(demo_miter("adder", width, corrupt).unwrap());
    match svc.wait(id).unwrap().verdict {
        Verdict::Equivalent => "equivalent",
        Verdict::NotEquivalent(_) => "not-equivalent",
        Verdict::Undecided => "undecided",
    }
}

/// Widths of the flooder's first two jobs: adders wide enough that
/// neither settles while the server reads the rest of the flood.
const HOLD_WIDTHS: [usize; 2] = [12, 13];

#[test]
fn concurrent_mixed_lane_clients_match_solo_verdicts() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            svc: SvcConfig {
                workers: 1,
                ..SvcConfig::default()
            },
            admission: AdmissionConfig {
                max_in_flight: 2,
                queue_capacity: 128,
                per_client_max: 2,
            },
            max_connections: 16,
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // 4 concurrent clients: two interactive, one batch, one *flooding*
    // batch client pipelining far more jobs than the budget. Widths vary
    // per client and corruption alternates, so verdicts differ.
    let handles: Vec<_> = (0..4u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let (lane, jobs) = match c {
                    0 | 1 => (Lane::Interactive, 6),
                    2 => (Lane::Batch, 6),
                    _ => (Lane::Batch, 40), // the flooder
                };
                let job = |i: usize| match (c, i) {
                    (3, 0 | 1) => (HOLD_WIDTHS[i], false),
                    _ => (2 + ((c as usize + i) % 3), i % 2 == 1),
                };
                let mut submitted = Vec::new();
                if c == 3 {
                    // The flooder writes all its submit lines before it
                    // reads a single reply, led by two wide jobs, so the
                    // server reads the rest of the flood while its
                    // per-client budget of 2 is taken.
                    for i in 0..jobs {
                        let (width, corrupt) = job(i);
                        let line = emit_object(&[
                            ("op", JsonValue::Str("submit".into())),
                            ("demo", JsonValue::Str("adder".into())),
                            ("width", JsonValue::Num(width as f64)),
                            ("lane", JsonValue::Str(lane.name().into())),
                            ("corrupt", JsonValue::Bool(corrupt)),
                            ("id", JsonValue::Num(i as f64 + 1.0)),
                        ]);
                        client.send_line(&line).expect("submit");
                        submitted.push((i as u64 + 1, width, corrupt));
                    }
                    for &(request_id, _, _) in &submitted {
                        let reply = client
                            .read_until(|e| {
                                event_id(e) == Some(request_id) && event_name(e) != Some("result")
                            })
                            .expect("submit reply");
                        assert_eq!(
                            event_name(&reply),
                            Some("submitted"),
                            "queue_capacity 128 fits this whole test's traffic: {reply:?}"
                        );
                    }
                } else {
                    for i in 0..jobs {
                        let (width, corrupt) = job(i);
                        // Submit everything first, collect results after.
                        // Queued admissions still deliver results.
                        let reply = client
                            .submit_demo(width, lane, corrupt, None)
                            .expect("submit");
                        assert!(
                            !reply.rejected,
                            "queue_capacity 128 fits this whole test's traffic"
                        );
                        submitted.push((reply.request_id, width, corrupt));
                    }
                }
                let mut verdicts = Vec::new();
                for (request_id, width, corrupt) in submitted {
                    let event = client.wait_result(request_id).expect("result");
                    let verdict = get(&event, "verdict")
                        .and_then(JsonValue::as_str)
                        .expect("verdict field")
                        .to_owned();
                    verdicts.push((width, corrupt, verdict));
                }
                verdicts
            })
        })
        .collect();

    let mut expected: HashMap<(usize, bool), String> = HashMap::new();
    for width in 2..=4 {
        for corrupt in [false, true] {
            expected.insert((width, corrupt), solo_verdict(width, corrupt).to_owned());
        }
    }
    for width in HOLD_WIDTHS {
        expected.insert((width, false), solo_verdict(width, false).to_owned());
    }
    for handle in handles {
        for (width, corrupt, verdict) in handle.join().unwrap() {
            assert_eq!(
                &verdict,
                expected.get(&(width, corrupt)).unwrap(),
                "verdict under load diverged from solo run (width {width}, corrupt {corrupt})"
            );
        }
    }
    let adm = server.admission_stats();
    assert!(adm.queued > 0, "budget 2 must have queued some of 58 jobs");
    server.stop();
    let stats = server.svc().stats();
    assert_eq!(stats.jobs_completed, 58, "stats: {stats:?}");
}

#[test]
fn full_queue_rejects_with_retry_hint() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            svc: SvcConfig {
                workers: 1,
                ..SvcConfig::default()
            },
            admission: AdmissionConfig {
                max_in_flight: 1,
                queue_capacity: 2,
                per_client_max: 1,
            },
            max_connections: 4,
        },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    // Give the single worker slow-ish jobs, then fill the queue. Every
    // width is distinct: identical submissions would settle from the job
    // memo without ever occupying the queue.
    let mut rejected = None;
    for i in 0..12 {
        let reply = client
            .submit_demo(8 + i, Lane::Interactive, false, None)
            .unwrap();
        if reply.rejected {
            rejected = Some(reply);
            break;
        }
    }
    let reply = rejected.expect("queue of 2 must overflow within 12 submits");
    assert!(
        reply.retry_after_ms.expect("hint present") >= 1,
        "retry_after_ms must be a usable backoff"
    );
    // Back off as told, drain, and verify the service still answers.
    client.drain().unwrap();
    let verdict = client
        .check_demo(4, Lane::Interactive, true)
        .unwrap()
        .expect("admitted after drain");
    assert_eq!(verdict, "not-equivalent");
    server.stop();
}

#[test]
fn flooded_batch_lane_never_starves_interactive() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            svc: SvcConfig {
                workers: 1,
                ..SvcConfig::default()
            },
            admission: AdmissionConfig {
                max_in_flight: 1,
                queue_capacity: 256,
                per_client_max: 1,
            },
            max_connections: 8,
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // The flooder queues a deep batch backlog first — every job a
    // *different* width, so none settles from the cache and the backlog
    // represents real work.
    let mut flooder = NetClient::connect(addr).unwrap();
    let mut flood_ids = Vec::new();
    for i in 0..20 {
        let reply = flooder
            .submit_demo(5 + i, Lane::Batch, false, None)
            .unwrap();
        assert!(!reply.rejected);
        flood_ids.push(reply.request_id);
    }
    // An interactive client arrives *behind* the backlog; its jobs must
    // not wait for the whole flood to finish.
    let mut interactive = NetClient::connect(addr).unwrap();
    for _ in 0..5 {
        let verdict = interactive
            .check_demo(3, Lane::Interactive, false)
            .unwrap()
            .expect("interactive job admitted");
        assert_eq!(verdict, "equivalent");
    }
    // Interactive finished its 5 round trips; the flood must still be
    // partly pending — i.e. interactive overtook queued batch work.
    let stats = server.svc().stats();
    assert!(
        stats.jobs_completed < 25,
        "interactive overtook the flood; completed: {}",
        stats.jobs_completed
    );
    for id in flood_ids {
        let event = flooder.wait_result(id).unwrap();
        assert_eq!(
            get(&event, "verdict").and_then(JsonValue::as_str),
            Some("equivalent")
        );
    }
    server.stop();
}

#[test]
fn disconnect_purges_queued_jobs_and_frees_the_server() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            svc: SvcConfig {
                workers: 1,
                ..SvcConfig::default()
            },
            admission: AdmissionConfig {
                max_in_flight: 1,
                queue_capacity: 64,
                per_client_max: 1,
            },
            max_connections: 8,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    {
        let mut vanishing = NetClient::connect(addr).unwrap();
        // Distinct widths: a backlog of identical jobs would settle
        // instantly from the job memo instead of staying queued.
        for i in 0..10 {
            vanishing
                .submit_demo(6 + i, Lane::Batch, false, None)
                .unwrap();
        }
        // Drop without reading results: connection closes mid-backlog.
    }
    // A fresh client gets service promptly; the dead client's queue is
    // purged rather than ground through.
    let mut client = NetClient::connect(addr).unwrap();
    let verdict = client
        .check_demo(2, Lane::Interactive, false)
        .unwrap()
        .expect("admitted");
    assert_eq!(verdict, "equivalent");
    server.stop();
    assert!(
        server.svc().stats().jobs_completed < 11,
        "purge must have dropped most of the vanished client's backlog"
    );
}

#[test]
fn deadline_jobs_still_cancel_over_the_wire() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            svc: SvcConfig {
                workers: 1,
                ..SvcConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    // A 0ms deadline trips before any shard runs: partial, never wrong.
    let reply = client
        .submit_demo(8, Lane::Interactive, false, Some(0))
        .unwrap();
    assert!(!reply.rejected);
    let event = client.wait_result(reply.request_id).unwrap();
    let verdict = get(&event, "verdict").and_then(JsonValue::as_str).unwrap();
    assert!(
        verdict == "undecided" || verdict == "equivalent",
        "deadline produced a wrong verdict: {verdict}"
    );
    assert_eq!(
        get(&event, "cancelled").and_then(JsonValue::as_bool),
        Some(true)
    );
    server.stop();
}

/// Duplicate traffic under load: many clients submitting the *same*
/// miters concurrently all get the solo verdict (the acceptance
/// criterion's duplicate-under-load check, exercising the shared result
/// cache across connections).
#[test]
fn duplicate_jobs_under_load_match_solo() {
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            svc: SvcConfig {
                workers: 1,
                ..SvcConfig::default()
            },
            admission: AdmissionConfig::default(),
            max_connections: 16,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let expected_ok = solo_verdict(5, false).to_owned();
    let expected_bad = solo_verdict(5, true).to_owned();
    let handles: Vec<_> = (0..6u64)
        .map(|c| {
            let expected_ok = expected_ok.clone();
            let expected_bad = expected_bad.clone();
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let lane = if c % 2 == 0 {
                    Lane::Interactive
                } else {
                    Lane::Batch
                };
                for i in 0..8 {
                    let corrupt = i % 2 == 1;
                    match client.check_demo(5, lane, corrupt).unwrap() {
                        Ok(verdict) => {
                            let expected = if corrupt { &expected_bad } else { &expected_ok };
                            assert_eq!(&verdict, expected, "client {c} job {i}");
                        }
                        Err(reply) => {
                            // Back off as hinted and retry once.
                            std::thread::sleep(Duration::from_millis(
                                reply.retry_after_ms.unwrap_or(1).min(50),
                            ));
                            let verdict = client
                                .check_demo(5, lane, corrupt)
                                .unwrap()
                                .expect("retry after backoff");
                            let expected = if corrupt { &expected_bad } else { &expected_ok };
                            assert_eq!(&verdict, expected, "client {c} retry {i}");
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.svc().stats();
    assert!(
        stats.cache_hits + stats.job_memo_hits > 0,
        "duplicate traffic must reuse shared results — via the cone \
         cache or the whole-job memo: {stats:?}"
    );
    server.stop();
}

/// Sends `line` on a fresh connection and returns the first event back,
/// retrying while the server is full (a closed connection frees its slot
/// within one poll interval). Every read is bounded, so a server that
/// never answers fails the test instead of hanging it.
fn ask_fresh_client(addr: SocketAddr, line: &str) -> Vec<(String, JsonValue)> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .expect("an answer within the read timeout");
        let event = parse_object(reply.trim()).expect("one event line");
        let message = get(&event, "message").and_then(JsonValue::as_str);
        if message != Some("server full: connection limit reached") {
            return event;
        }
        assert!(
            Instant::now() < deadline,
            "connection slots never came back"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A malformed AIGER file answers an error event carrying the parser's
/// message and never costs the server a connection slot: more clients
/// than `max_connections` submit it one after another, and a demo job
/// submitted afterwards still settles.
#[test]
fn malformed_miter_answers_an_error_and_keeps_the_server_up() {
    let bad = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("net_malformed.aag");
    // Input literal 4 names variable 2 of a file whose M is 1.
    std::fs::write(&bad, "aag 1 1 0 0 0\n4\n").unwrap();
    let max_connections = 2;
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            max_connections,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let submit = emit_object(&[
        ("op", JsonValue::Str("submit".into())),
        ("miter", JsonValue::Str(bad.display().to_string())),
    ]);
    for _ in 0..=max_connections {
        let event = ask_fresh_client(addr, &submit);
        assert_eq!(event_name(&event), Some("error"), "{event:?}");
        let message = get(&event, "message").and_then(JsonValue::as_str).unwrap();
        assert!(
            message.ends_with("line 2: literal 4 exceeds the maximum variable 1"),
            "{message}"
        );
    }
    let mut client = NetClient::connect(addr).unwrap();
    let verdict = client
        .check_demo(4, Lane::Interactive, false)
        .unwrap()
        .expect("admitted");
    assert_eq!(verdict, "equivalent");
    server.stop();
}

/// The `metrics` op over the wire serves the whole server's text: the
/// service counters and the `parsweep_net_*` transport section.
#[test]
fn metrics_over_tcp_carry_the_service_and_transport_sections() {
    let mut server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let verdict = client
        .check_demo(3, Lane::Interactive, false)
        .unwrap()
        .expect("admitted");
    assert_eq!(verdict, "equivalent");
    client.send_line(r#"{"op":"metrics","id":99}"#).unwrap();
    let event = client
        .read_until(|e| event_name(e) == Some("metrics") && event_id(e) == Some(99))
        .unwrap();
    let text = get(&event, "text").and_then(JsonValue::as_str).unwrap();
    for series in [
        "parsweep_jobs_submitted_total 1",
        "parsweep_net_submits_accepted_total 1",
    ] {
        assert!(text.contains(series), "missing {series:?} in {text}");
    }
    server.stop();
}

/// A chain of synchronous settles: with a budget of one job, every
/// pipelined duplicate of a settled miter settles inside the service's
/// `submit` (a memo hit), and delivering it grants the next queued
/// duplicate. Every request gets exactly one result, and the admission
/// controller ends empty.
#[test]
fn pipelined_duplicates_settle_in_a_chain_under_a_budget_of_one() {
    const DUPLICATES: u64 = 64;
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            admission: AdmissionConfig {
                max_in_flight: 1,
                queue_capacity: 128,
                per_client_max: 1,
            },
            ..NetConfig::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let verdict = client
        .check_demo(4, Lane::Interactive, false)
        .unwrap()
        .expect("admitted");
    assert_eq!(verdict, "equivalent");
    let burst: Vec<String> = (0..DUPLICATES)
        .map(|i| {
            emit_object(&[
                ("op", JsonValue::Str("submit".into())),
                ("demo", JsonValue::Str("adder".into())),
                ("width", JsonValue::Num(4.0)),
                ("id", JsonValue::Num((100 + i) as f64)),
            ])
        })
        .collect();
    client.send_line(&burst.join("\n")).unwrap();
    let mut results: HashMap<u64, usize> = HashMap::new();
    let mut count_result = |event: &Vec<(String, JsonValue)>| {
        if event_name(event) == Some("result") {
            assert_eq!(get(event, "memoized"), Some(&JsonValue::Bool(true)));
            *results.entry(event_id(event).unwrap()).or_default() += 1;
        }
    };
    for _ in 0..DUPLICATES {
        let event = client
            .read_until(|e| event_name(e) == Some("result"))
            .unwrap();
        count_result(&event);
    }
    server.stop();
    let st = server.admission_stats();
    assert_eq!((st.in_flight, st.queue_depth), (0, [0, 0]), "{st:?}");
    // Dropping the server closes the connection: whatever it still sent
    // must hold no second result for any request.
    drop(server);
    while let Ok(event) = client.read_event() {
        count_result(&event);
    }
    assert_eq!(results.len() as u64, DUPLICATES);
    assert!(results.values().all(|&n| n == 1), "{results:?}");
}
